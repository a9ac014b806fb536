//! Algorithm configuration: the palette/list trade-off knobs of the paper.

use crate::listcolor::SchemeKind;
use serde::{Deserialize, Serialize};

/// Which implementation builds the per-iteration conflict graph.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConflictBackend {
    /// Single-threaded bucketed scan (the paper's "CPU only" build, on
    /// the inverted-index candidate engine).
    Sequential,
    /// Rayon-parallel bucketed scan (the multicore CPU build).
    Parallel,
    /// The legacy `Θ(m²)` all-pairs sequential scan, kept as the
    /// reference implementation the bucketed backends are validated
    /// against (and as the honest baseline of the `conflict_build`
    /// bench).
    AllPairs,
    /// Simulated-accelerator build following Algorithm 3, with the given
    /// device capacity in bytes. Fails with
    /// [`crate::SolveError::DeviceOom`] when the conflict edge list
    /// outgrows the device, as the paper's largest instance does on the
    /// 40 GB A100.
    Device {
        /// Device memory budget in bytes.
        capacity_bytes: usize,
    },
    /// Sharded construction across several simulated devices — the
    /// paper's stated future work ("distributed multi-GPU parallel
    /// implementations"). Rows are pair-balanced across devices; each
    /// device replicates the encoded input and owns its shard's edge
    /// list within its own budget.
    MultiDevice {
        /// Number of simulated devices.
        devices: usize,
        /// Memory budget of each device in bytes.
        capacity_each: usize,
    },
}

/// How the conflict graph is list-colored (§IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ListColoringScheme {
    /// Algorithm 2: dynamic bucket order, most-constrained vertex first.
    /// The paper's default — it "provided better coloring relative to the
    /// static ordering algorithms".
    DynamicGreedy,
    /// Static order: visit in the given heuristic's order, take the first
    /// feasible color from the vertex's own list.
    Static(coloring::OrderingHeuristic),
    /// Parallel list-constrained Jones–Plassmann rounds
    /// ([`crate::listcolor::jp_list_color_into`]). Deterministic per
    /// seed, bit-identical across thread counts.
    JonesPlassmann,
    /// Parallel speculative color-then-repair
    /// ([`crate::listcolor::speculative_list_color_into`]). Deterministic
    /// per seed, bit-identical across thread counts.
    Speculative,
}

impl ListColoringScheme {
    /// Parses the CLI / job-config spelling of a scheme.
    pub fn from_label(label: &str) -> Result<ListColoringScheme, String> {
        use coloring::OrderingHeuristic as H;
        Ok(match label {
            "greedy" | "dynamic" => ListColoringScheme::DynamicGreedy,
            "jp" | "jones-plassmann" => ListColoringScheme::JonesPlassmann,
            "spec" | "speculative" => ListColoringScheme::Speculative,
            "natural" => ListColoringScheme::Static(H::Natural),
            "random" => ListColoringScheme::Static(H::Random),
            "lf" => ListColoringScheme::Static(H::LargestFirst),
            "sl" => ListColoringScheme::Static(H::SmallestLast),
            "dlf" => ListColoringScheme::Static(H::DynamicLargestFirst),
            "id" => ListColoringScheme::Static(H::IncidenceDegree),
            other => {
                return Err(format!(
                    "unknown coloring scheme '{other}' (expected greedy, jp, spec, natural, \
                     random, lf, sl, dlf, or id)"
                ))
            }
        })
    }

    /// Stable label, the inverse of [`ListColoringScheme::from_label`].
    pub fn label(&self) -> &'static str {
        use coloring::OrderingHeuristic as H;
        match self {
            ListColoringScheme::DynamicGreedy => "greedy",
            ListColoringScheme::JonesPlassmann => "jp",
            ListColoringScheme::Speculative => "spec",
            ListColoringScheme::Static(H::Natural) => "natural",
            ListColoringScheme::Static(H::Random) => "random",
            ListColoringScheme::Static(H::LargestFirst) => "lf",
            ListColoringScheme::Static(H::SmallestLast) => "sl",
            ListColoringScheme::Static(H::DynamicLargestFirst) => "dlf",
            ListColoringScheme::Static(H::IncidenceDegree) => "id",
        }
    }

    /// The Line-8/9 kernel this scheme runs on every iteration.
    pub fn kind(&self) -> SchemeKind {
        match self {
            ListColoringScheme::DynamicGreedy => SchemeKind::Greedy,
            ListColoringScheme::Static(_) => SchemeKind::Static,
            ListColoringScheme::JonesPlassmann => SchemeKind::JonesPlassmann,
            ListColoringScheme::Speculative => SchemeKind::Speculative,
        }
    }
}

/// Full Picasso configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PicassoConfig {
    /// Palette size as a fraction of the live vertex count (the paper's
    /// `P`, reported there as a percentage).
    pub palette_fraction: f64,
    /// List-size multiplier: `L = ⌈α · log₂ n⌉` (the paper's `α`).
    pub alpha: f64,
    /// PRNG seed; the whole run is deterministic given the seed.
    pub seed: u64,
    /// Conflict-graph construction backend.
    pub backend: ConflictBackend,
    /// Conflict-graph coloring scheme.
    pub scheme: ListColoringScheme,
    /// Base of the logarithm in `L = α·log n`. The paper writes `log |V|`
    /// without a base; base 10 reproduces its empirical regime (conflict
    /// edges ≤ 5% of |E| in most cases, Table III color counts), whereas
    /// base 2 produces conflict graphs an order of magnitude denser than
    /// reported. Configurable for ablations.
    pub log_base: f64,
    /// Lower bound on the per-iteration palette size, so tiny residual
    /// subproblems still converge.
    pub min_palette: u32,
    /// Safety valve: after this many iterations remaining vertices get
    /// fresh singleton colors. The algorithm colors ≥1 vertex per
    /// iteration, so this only triggers on adversarial configurations.
    pub max_iterations: usize,
    /// Device backends only: when set, every iteration's worst-case
    /// device footprint (input replica + counters + bucket index + a COO
    /// arena of two slots per [`BucketLoad::total_pairs`] candidate) is
    /// checked against the device budget **before any oracle query or
    /// kernel launch**, and an over-budget iteration fails fast with
    /// [`crate::SolveError::ForecastOverBudget`] instead of discovering
    /// the overflow mid-kernel. Off by default: the legacy behavior caps
    /// the arena at whatever fits and only fails if the actual edge list
    /// overflows it.
    ///
    /// [`BucketLoad::total_pairs`]: crate::BucketLoad::total_pairs
    pub strict_device_forecast: bool,
}

impl PicassoConfig {
    /// The paper's **Normal** configuration: `P = 12.5 %`, `α = 2`.
    pub fn normal(seed: u64) -> PicassoConfig {
        PicassoConfig {
            palette_fraction: 0.125,
            alpha: 2.0,
            seed,
            backend: ConflictBackend::Parallel,
            scheme: ListColoringScheme::DynamicGreedy,
            log_base: 10.0,
            min_palette: 4,
            max_iterations: 10_000,
            strict_device_forecast: false,
        }
    }

    /// The paper's **Aggressive** configuration: `P = 3 %`, `α = 30`
    /// (fewer colors, more conflict edges and work).
    pub fn aggressive(seed: u64) -> PicassoConfig {
        PicassoConfig {
            palette_fraction: 0.03,
            alpha: 30.0,
            ..PicassoConfig::normal(seed)
        }
    }

    /// Builder-style palette fraction override.
    pub fn with_palette_fraction(mut self, f: f64) -> PicassoConfig {
        self.palette_fraction = f;
        self
    }

    /// Builder-style α override.
    pub fn with_alpha(mut self, alpha: f64) -> PicassoConfig {
        self.alpha = alpha;
        self
    }

    /// Builder-style backend override.
    pub fn with_backend(mut self, backend: ConflictBackend) -> PicassoConfig {
        self.backend = backend;
        self
    }

    /// Builder-style list-coloring scheme override.
    pub fn with_scheme(mut self, scheme: ListColoringScheme) -> PicassoConfig {
        self.scheme = scheme;
        self
    }

    /// Palette size for a live-vertex count, `max(min_palette, ⌈f·n⌉)`.
    pub fn palette_size(&self, n_live: usize) -> u32 {
        let p = (self.palette_fraction * n_live as f64).ceil() as u32;
        p.max(self.min_palette).max(1)
    }

    /// List size for a live-vertex count: `⌈α · log n⌉` in the configured
    /// base, clamped to `[1, palette_size]`.
    pub fn list_size(&self, n_live: usize) -> u32 {
        let log_n = (n_live.max(2) as f64).ln() / self.log_base.ln();
        let l = (self.alpha * log_n).ceil() as u32;
        l.clamp(1, self.palette_size(n_live))
    }

    /// Builder-style log-base override (for ablation studies).
    pub fn with_log_base(mut self, base: f64) -> PicassoConfig {
        self.log_base = base;
        self
    }

    /// Builder-style [`PicassoConfig::strict_device_forecast`] override.
    pub fn with_strict_forecast(mut self, strict: bool) -> PicassoConfig {
        self.strict_device_forecast = strict;
        self
    }

    /// Closed-form forecast of the *first iteration's* candidate-pair
    /// enumeration work for an `n`-vertex instance under this
    /// configuration ([`crate::analysis::estimate_candidate_pairs`] at
    /// this configuration's `P(n)` and `L(n)`). Free to evaluate — no
    /// probe solve, no list assignment — which is what makes it usable as
    /// an admission pre-check before any work is committed to a job.
    pub fn candidate_pairs_estimate(&self, n: usize) -> u64 {
        crate::analysis::estimate_candidate_pairs(n, self.palette_size(n), self.list_size(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets() {
        let norm = PicassoConfig::normal(1);
        assert_eq!(norm.palette_fraction, 0.125);
        assert_eq!(norm.alpha, 2.0);
        let aggr = PicassoConfig::aggressive(1);
        assert_eq!(aggr.palette_fraction, 0.03);
        assert_eq!(aggr.alpha, 30.0);
    }

    #[test]
    fn palette_size_scales_with_live_count() {
        let cfg = PicassoConfig::normal(0);
        assert_eq!(cfg.palette_size(8000), 1000); // 12.5% of 8000
        assert_eq!(cfg.palette_size(8), 4); // floored at min_palette
    }

    #[test]
    fn list_size_tracks_alpha_log_n() {
        let cfg = PicassoConfig::normal(0);
        // α=2, n=10000, log10: 2 * 4 = 8.
        assert_eq!(cfg.list_size(10_000), 8);
        // α=2, n=1024, log2 ablation: 2 * 10 = 20.
        assert_eq!(cfg.with_log_base(2.0).list_size(1024), 20);
        // Never exceeds the palette.
        let aggr = PicassoConfig::aggressive(0);
        let n = 100;
        assert!(aggr.list_size(n) <= aggr.palette_size(n));
        // Never below 1.
        assert!(cfg.list_size(2) >= 1);
    }

    #[test]
    fn scheme_labels_round_trip() {
        for label in [
            "greedy", "jp", "spec", "natural", "random", "lf", "sl", "dlf", "id",
        ] {
            let scheme = ListColoringScheme::from_label(label).expect(label);
            assert_eq!(scheme.label(), label);
        }
        assert_eq!(
            ListColoringScheme::from_label("dynamic"),
            Ok(ListColoringScheme::DynamicGreedy)
        );
        assert_eq!(
            ListColoringScheme::from_label("jones-plassmann"),
            Ok(ListColoringScheme::JonesPlassmann)
        );
        assert!(ListColoringScheme::from_label("bogus").is_err());
        assert!(ListColoringScheme::from_label("auto").is_err());
    }

    #[test]
    fn builders_compose() {
        let cfg = PicassoConfig::normal(3)
            .with_palette_fraction(0.01)
            .with_alpha(4.5)
            .with_backend(ConflictBackend::Sequential);
        assert_eq!(cfg.palette_fraction, 0.01);
        assert_eq!(cfg.alpha, 4.5);
        assert_eq!(cfg.backend, ConflictBackend::Sequential);
        assert_eq!(cfg.seed, 3);
    }
}

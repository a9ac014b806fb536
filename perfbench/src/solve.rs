//! The two solve workloads: one fixed instance, solved over and over
//! through `Picasso::solve_pauli`, the call a library user makes.
//!
//! `solve_pauli` builds a fresh `IterationContext` per call, so every
//! solve is a cold-context solve and its heap peak includes the whole
//! conflict graph.

use crate::check;
use crate::report::Report;
use crate::stats::{median, median_quantile};
use crate::trace::{SpanId, Tracer};
use pauli::{EncodedSet, PauliString};
use picasso::{ConflictBackend, Picasso, PicassoConfig, PicassoResult};
use qchem::MoleculeSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// `req_per_s` and `batch_p90_ms` are medians over windows of this many
/// consecutive solves (of solves ÷ window time, and of the window's 90th
/// percentile): they keep the slow solves inside a window but not a burst
/// of host noise that spans one.
const WINDOW: usize = 10;

/// Minimum timed solves, however short `--seconds` is.
const MIN_SOLVES: usize = 5;

#[derive(Clone, Copy)]
pub enum Instance {
    /// Table II "H6 3D sto3g" at paper size under the Normal preset.
    MoleculeNormal,
    /// Random unique strings on 24 qubits under the Aggressive preset.
    SyntheticAggressive,
}

impl Instance {
    fn config(self, seed: u64) -> PicassoConfig {
        match self {
            Instance::MoleculeNormal => PicassoConfig::normal(seed),
            Instance::SyntheticAggressive => PicassoConfig::aggressive(seed),
        }
    }

    /// The input strings; `tiny` shrinks them for the self-test.
    fn generate(self, seed: u64, tiny: bool) -> Vec<PauliString> {
        match self {
            Instance::MoleculeNormal => MoleculeSpec::by_name("H6 3D sto3g")
                .expect("H6 3D sto3g is a Table II instance")
                .generate(if tiny { 0.05 } else { 1.0 }, seed),
            Instance::SyntheticAggressive => {
                let mut rng = StdRng::seed_from_u64(seed);
                pauli::string::random_unique_set(if tiny { 256 } else { 2048 }, 24, &mut rng)
            }
        }
    }

    /// Span name of the generator's layer.
    fn generator(self) -> &'static str {
        match self {
            Instance::MoleculeNormal => "qchem.generate",
            Instance::SyntheticAggressive => "pauli.generate",
        }
    }
}

/// One solve as the benchmark saw it.
struct Solve {
    result: PicassoResult,
    secs: f64,
    peak_bytes: usize,
    allocs: usize,
}

/// Runs one solve, recording its span and the in-solve phase split the
/// solver reported (laid out in order from the solve's start; the rest
/// of the span is the solver loop's own time).
fn solve(
    solver: &Picasso,
    set: &EncodedSet,
    tracer: &mut Tracer,
    name: &'static str,
    id: u64,
) -> Result<Solve, picasso::SolveError> {
    let span: SpanId = tracer.begin(name, None, id);
    let region = memtrack::PeakRegion::start();
    let allocs_before = memtrack::total_allocations();
    let started = Instant::now();
    let result = solver.solve_pauli(set);
    let secs = started.elapsed().as_secs_f64();
    let peak_bytes = region.peak_bytes();
    let allocs = memtrack::total_allocations() - allocs_before;
    tracer.end(span);
    let result = result?;
    // Only the timed default-backend solves carry the phase split, so the
    // per-layer self times average over exactly those solves.
    if name == "core.solve" {
        let mut offset = 0.0;
        for it in &result.iterations {
            for (phase, secs) in [
                ("core.assign", it.assign_secs),
                ("core.conflict", it.conflict_secs),
                ("core.color", it.color_secs),
            ] {
                tracer.derived(phase, span, offset, secs);
                offset += secs;
            }
        }
    }
    Ok(Solve {
        result,
        secs,
        peak_bytes,
        allocs,
    })
}

/// Per-iteration decisions: `P`/`s` for a packed/scalar conflict build,
/// then the coloring scheme letters.
fn decision_pattern(result: &PicassoResult) -> String {
    let packing: String = result
        .iterations
        .iter()
        .map(|it| if it.packed_lanes > 0 { 'P' } else { 's' })
        .collect();
    let schemes: String = result
        .iterations
        .iter()
        .map(|it| it.scheme_chosen.letter())
        .collect();
    format!("{packing}/{schemes}")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up repetitions: generate the instance and encode it.
#[derive(Default)]
struct Setup {
    total: Vec<f64>,
    generate: Vec<f64>,
    encode: Vec<f64>,
}

impl Setup {
    fn repeat(
        &mut self,
        instance: Instance,
        seed: u64,
        tiny: bool,
        tracer: &mut Tracer,
    ) -> (Vec<PauliString>, EncodedSet) {
        let rep = self.total.len() as u64;
        let span = tracer.begin("setup", None, rep);
        let t0 = Instant::now();
        let g = tracer.begin(instance.generator(), span, rep);
        let strings = instance.generate(seed, tiny);
        tracer.end(g);
        let t1 = Instant::now();
        let e = tracer.begin("pauli.encode", span, rep);
        let set = EncodedSet::from_strings(&strings);
        tracer.end(e);
        let t2 = Instant::now();
        tracer.end(span);
        self.generate.push((t1 - t0).as_secs_f64());
        self.encode.push((t2 - t1).as_secs_f64());
        self.total.push((t2 - t0).as_secs_f64());
        (strings, set)
    }
}

pub fn run(
    instance: Instance,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    // Set-up: generate and encode, several times before timing (the last
    // copy is used) and more between the timed solves.
    let mut setup = Setup::default();
    let mut input = None;
    while crate::setup_due(&setup.total, 0.0) {
        input = Some(setup.repeat(instance, seed, tiny, tracer));
    }
    let (strings, set) = input.expect("at least one set-up repetition");

    let solver = Picasso::new(instance.config(seed));

    // Warm-up solve: fills lazy state and yields the reference coloring,
    // checked independently of the solver. Every later solve must repeat
    // it exactly.
    report.attempted += 1;
    let reference = match solve(&solver, &set, tracer, "core.warmup", 0) {
        Ok(s) => s.result,
        Err(e) => {
            eprintln!("warm-up solve failed: {e}");
            report.failed += 1;
            return;
        }
    };
    let reference_ok = check::pauli_partition_ok(&strings, &reference.colors, reference.num_colors);
    if !reference_ok {
        eprintln!("warm-up coloring failed validation");
        report.failed += 1;
    }

    // Timed solves. The traced run alternates traced and untraced solves
    // over the first part of its time (their difference is the tracing
    // overhead), then times the same instance on the sequential backend.
    let budget = Duration::from_secs_f64(seconds);
    let par_budget = if traced { budget.mul_f64(0.6) } else { budget };
    let started = Instant::now();
    let (mut untraced, mut traced_secs, mut peaks, mut allocs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut packed_frac, mut skip_frac, mut pack_mis, mut scheme_mis) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut patterns: BTreeMap<String, usize> = BTreeMap::new();
    let mut id = 1u64;
    while started.elapsed() < par_budget || id <= MIN_SOLVES as u64 {
        let trace_this = traced && id.is_multiple_of(2);
        tracer.set_enabled(trace_this);
        report.attempted += 1;
        let s = match solve(&solver, &set, tracer, "core.solve", id) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("solve {id} failed: {e}");
                report.failed += 1;
                id += 1;
                continue;
            }
        };
        id += 1;
        if !(reference_ok && s.result.colors == reference.colors) {
            report.failed += 1;
        }
        let r = &s.result;
        let pairs = r.total_candidate_pairs() as f64;
        let scanned: u64 = r.iterations.iter().map(|it| it.scanned_words).sum();
        packed_frac.push(ratio(r.total_packed_lanes() as f64, pairs));
        skip_frac.push(ratio(r.total_skipped_words() as f64, scanned as f64));
        pack_mis.push(r.packing_mispredicts() as f64);
        scheme_mis.push(r.scheme_mispredicts() as f64);
        *patterns.entry(decision_pattern(r)).or_default() += 1;
        peaks.push(s.peak_bytes as f64 / MIB);
        allocs.push(s.allocs as f64);
        if trace_this {
            traced_secs.push(s.secs);
        } else {
            untraced.push(s.secs);
        }
        let run_fraction = started.elapsed().as_secs_f64() / par_budget.as_secs_f64();
        while crate::setup_due(&setup.total, run_fraction) {
            setup.repeat(instance, seed, tiny, tracer);
        }
    }
    tracer.set_enabled(traced);
    let mut seq_secs = Vec::new();
    if traced {
        let seq = Picasso::new(
            instance
                .config(seed)
                .with_backend(ConflictBackend::Sequential),
        );
        let first_seq = id;
        while started.elapsed() < budget || id - first_seq < MIN_SOLVES as u64 {
            report.attempted += 1;
            match solve(&seq, &set, tracer, "rayon.seq_solve", id) {
                Ok(s) if reference_ok && s.result.colors == reference.colors => {
                    seq_secs.push(s.secs)
                }
                Ok(_) => report.failed += 1,
                Err(e) => {
                    eprintln!("sequential solve {id} failed: {e}");
                    report.failed += 1;
                }
            }
            id += 1;
        }
    }

    // End-to-end: the untraced solves. A solve workload's "batch" is one
    // solve call (one request).
    report.set("setup_s", median(&setup.total));
    if let Instance::MoleculeNormal = instance {
        report.set("qchem.generate_s", median(&setup.generate));
    }
    report.set("pauli.encode_s", median(&setup.encode));
    let solve_s = median(&untraced);
    report.set("solve_s", solve_s);
    report.set("peak_mib", median(&peaks));
    report.set("colors", reference.num_colors as f64);
    let window_rates: Vec<f64> = untraced
        .chunks(WINDOW)
        .map(|w| w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    report.set("req_per_s", median(&window_rates));
    report.set("batch_p50_ms", solve_s * 1e3);
    report.set(
        "batch_p90_ms",
        median_quantile(untraced.chunks(WINDOW), 0.9) * 1e3,
    );
    report.set_ok_frac();

    // Per-layer: exact counts from the reference solve; decisions that
    // the wall-clock-fed calibrators make are medians over the solves.
    let r = &reference;
    let its = &r.iterations;
    let pairs = r.total_candidate_pairs() as f64;
    let conflict_vertices: usize = its.iter().map(|it| it.conflict_vertices).sum();
    let deferred: usize = its.iter().map(|it| it.uncolored_after).sum();
    let widest = its.iter().max_by_key(|it| it.conflict_edges);
    let csr_bytes = widest.map_or(0, |it| {
        (it.live_vertices + 1) * std::mem::size_of::<usize>()
            + 2 * it.conflict_edges * std::mem::size_of::<u32>()
    });
    report.set(
        "core.bucket_pairs",
        its.iter().map(|it| it.bucket_pairs_estimate).sum::<u64>() as f64,
    );
    report.set("core.candidate_pairs", pairs);
    report.set("core.conflict_edges", r.total_conflict_edges() as f64);
    report.set("core.max_conflict_edges", r.max_conflict_edges() as f64);
    report.set("core.csr_mib_computed", csr_bytes as f64 / MIB);
    report.set(
        "core.edge_yield",
        ratio(r.total_conflict_edges() as f64, pairs),
    );
    report.set("core.packed_frac", median(&packed_frac));
    report.set("core.skip_frac", median(&skip_frac));
    report.set("core.packing_mispredicts", median(&pack_mis));
    report.set("core.scheme_mispredicts", median(&scheme_mis));
    report.set("core.conflict_vertices", conflict_vertices as f64);
    report.set(
        "core.defer_frac",
        ratio(deferred as f64, conflict_vertices as f64),
    );
    report.set("core.iterations", its.len() as f64);
    report.set("mem.allocs_per_solve", median(&allocs));
    report.set("rayon.threads", rayon::current_num_threads() as f64);
    if traced {
        let self_s = tracer.self_times();
        let n = tracer.count("core.solve") as f64;
        for (layer, metric) in [
            ("core.assign", "core.assign_s"),
            ("core.conflict", "core.conflict_s"),
            ("core.color", "core.color_s"),
            ("core.solve", "core.other_s"),
        ] {
            report.set(metric, self_s.get(layer).copied().unwrap_or(0.0) / n);
        }
        let seq_s = median(&seq_secs);
        report.set("rayon.seq_solve_s", seq_s);
        report.set("rayon.speedup", seq_s / solve_s);
        report.set("trace.overhead_ms", (median(&traced_secs) - solve_s) * 1e3);
    }

    report.note("instance_vertices", strings.len());
    report.note("setup_reps", setup.total.len());
    report.note("untraced_solves", untraced.len());
    report.note("traced_solves", traced_secs.len());
    report.note("seq_solves", seq_secs.len());
    let patterns: Vec<String> = patterns
        .iter()
        .map(|(p, n)| format!("\"{p}\":{n}"))
        .collect();
    report.note("decisions", format!("{{{}}}", patterns.join(",")));
}

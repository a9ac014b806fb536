//! Metric names, units and the result line.
//!
//! These tables mirror `BENCHMARK.json` at the repository root; the
//! self-test (`tests/selftest.rs`) fails if the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a user of the solver or the service sees. Every workload prints
/// every one of these (see README.md for the per-workload definitions).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_mib", "MiB"),
    ("colors", "count"),
    ("ok_frac", "frac"),
    ("req_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
];

/// Single-layer numbers, printed by the traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("qchem.generate_s", "s"),
    ("pauli.encode_s", "s"),
    ("core.assign_s", "s"),
    ("core.bucket_pairs", "count"),
    ("core.conflict_s", "s"),
    ("core.candidate_pairs", "count"),
    ("core.conflict_edges", "count"),
    ("core.max_conflict_edges", "count"),
    ("core.csr_mib_computed", "MiB"),
    ("core.edge_yield", "frac"),
    ("core.packed_frac", "frac"),
    ("core.skip_frac", "frac"),
    ("core.packing_mispredicts", "count"),
    ("core.color_s", "s"),
    ("core.conflict_vertices", "count"),
    ("core.defer_frac", "frac"),
    ("core.iterations", "count"),
    ("core.scheme_mispredicts", "count"),
    ("core.other_s", "s"),
    ("rayon.threads", "count"),
    ("rayon.seq_solve_s", "s"),
    ("rayon.speedup", "x"),
    ("mem.allocs_per_solve", "count"),
    ("mem.allocs_per_req", "count"),
    ("service.parse_s", "s"),
    ("service.batch_s", "s"),
    ("service.serialize_s", "s"),
    ("service.cache_hit_frac", "frac"),
    ("service.worker_busy_frac", "frac"),
    ("service.queue_wait_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.coalesce_wait_ms", "ms"),
    ("service.solved", "count"),
    ("service.failed", "count"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations the run attempted (solves or requests).
    pub attempted: u64,
    /// Operations whose output failed validation.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Per-run record: seed, host, sample counts and the decisions the
    /// program took, as `"key":value` JSON members.
    record: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a record member; `json` must already be a JSON value.
    pub fn note(&mut self, key: &str, json: impl std::fmt::Display) {
        self.record.push(format!("\"{key}\":{json}"));
    }

    /// `ok_frac` from the attempt and failure counts.
    pub fn set_ok_frac(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed);
        self.set("ok_frac", ok as f64 / self.attempted.max(1) as f64);
    }

    /// The per-run record as one JSON object.
    pub fn record_json(&self) -> String {
        format!("{{{}}}", self.record.join(","))
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// traced. A metric that could not be measured prints as 0. Panics if
    /// a run without failures left an end-to-end metric unset — that is
    /// a bug in a workload, not a property of the run.
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced || self.failed > 0 => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            let mut m = String::new();
            let _ = write!(m, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
            metrics.push(m);
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

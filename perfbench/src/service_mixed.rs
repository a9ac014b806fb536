//! The service workload: a fixed sequence of JSONL batches driven through
//! `SolveService` by one caller thread in a closed loop.
//!
//! A *pass* is the whole sequence, served by a fresh service built with
//! `ServiceConfig::default()`, so every pass does identical work and its
//! counts (solves, cache hits, colors) repeat exactly. Distinct instances
//! per pass stay below the default cache capacity, so no eviction order
//! can leak thread timing into the hit count.

use crate::check;
use crate::report::Report;
use crate::stats::{median, median_quantile};
use crate::trace::Tracer;
use pauli::PauliString;
use picasso_service::job::synthetic_pauli_strings;
use picasso_service::{parse_request_lines, HashOracle, JobOutcome, ServiceConfig, SolveService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Requests per batch.
const BATCH: usize = 8;

/// Minimum timed passes, however short `--seconds` is (the traced run
/// needs one untraced and one traced pass).
const MIN_PASSES: usize = 2;

/// What the independent check needs to validate an instance's coloring.
enum Truth {
    Pauli(Vec<PauliString>),
    Graph(HashOracle),
}

/// The request sequence of one pass.
struct Plan {
    /// One JSONL text per batch.
    batches: Vec<String>,
    /// For every request (batch-major), the index of its instance.
    instance_of: Vec<usize>,
    /// Ground truth per distinct instance.
    truths: Vec<Truth>,
}

/// The kinds of new instance, in the order batches take them: `(graph,
/// size index, aggressive)`. Six in eight are synthetic Pauli sets on 16
/// qubits, two are hash-defined graphs at density 0.1 (scalar oracle
/// path, no packed form), and one in eight runs under the Aggressive
/// preset. Each half holds one of the two largest solves.
const KINDS: [(bool, usize, bool); 8] = [
    (false, 0, false),
    (false, 1, false),
    (false, 2, false),
    (true, 0, false),
    (false, 1, false),
    (false, 0, false),
    (true, 1, false),
    (false, 1, true),
];

/// Builds the pass from the workload seed. Batches alternate between two
/// halves of [`KINDS`], four new instances each, so every pass and every
/// other batch carries the same kinds of work. Each batch also holds one
/// duplicate of one of its own new instances (it coalesces with the
/// in-flight solve or hits the cache) and three repeats of instances from
/// earlier batches (cache hits; the first batch repeats its own). The
/// seed picks the instance seeds and which earlier instances repeat.
fn plan(seed: u64, batches: usize, tiny: bool) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: [usize; 3] = if tiny { [32, 48, 64] } else { [256, 512, 1024] };
    let new_per_batch = BATCH / 2;
    let mut kinds = KINDS.iter().cycle();
    let mut texts = Vec::with_capacity(batches);
    let mut instance_of = Vec::with_capacity(batches * BATCH);
    let mut workloads: Vec<String> = Vec::new();
    let mut truths = Vec::new();
    for b in 0..batches {
        let first_new = truths.len();
        for &(graph, size, aggressive) in kinds.by_ref().take(new_per_batch) {
            let (n, inst_seed) = (sizes[size], rng.random_range(0..1u64 << 40));
            let (workload, truth) = if graph {
                (
                    format!(
                        r#"{{"type":"synthetic_graph","n":{n},"density":0.1,"seed":{inst_seed}}}"#
                    ),
                    Truth::Graph(HashOracle::new(n, 0.1, inst_seed)),
                )
            } else {
                let strings = synthetic_pauli_strings(n, 16, inst_seed)
                    .expect("n ≤ 4^16 distinct strings exist");
                (
                    format!(
                        r#"{{"type":"synthetic_pauli","n":{n},"qubits":16,"seed":{inst_seed}}}"#
                    ),
                    Truth::Pauli(strings),
                )
            };
            let config = if aggressive {
                r#"{"aggressive":true}"#
            } else {
                "{}"
            };
            workloads.push(format!(r#""workload":{workload},"config":{config}"#));
            truths.push(truth);
        }
        let earlier = if first_new == 0 {
            truths.len()
        } else {
            first_new
        };
        let mut repeat = || rng.random_range(0..earlier);
        let new = |j: usize| first_new + j;
        let slots = [
            new(0),
            new(1),
            new(b % new_per_batch),
            new(2),
            repeat(),
            new(3),
            repeat(),
            repeat(),
        ];
        let mut text = String::new();
        for (k, &idx) in slots.iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\":\"b{b}-r{k}\",{},\"priority\":1}}\n",
                workloads[idx]
            ));
        }
        instance_of.extend(slots);
        texts.push(text);
    }
    Plan {
        batches: texts,
        instance_of,
        truths,
    }
}

/// One pass's measurements.
#[derive(Default)]
struct Pass {
    batch_secs: Vec<f64>,
    parse_secs: f64,
    process_secs: f64,
    serialize_secs: f64,
    batch_peak_mib: Vec<f64>,
    allocs: usize,
    /// Σ colors over the pass's distinct instances.
    colors: u64,
    /// Mean fresh-solve time inside the service (registry sum ÷ count).
    solve_mean_s: f64,
}

/// A response line with its id blanked, so a repeat of an instance can be
/// compared byte for byte with the instance's first response.
fn canonical(line: &str, id: &str) -> String {
    line.replacen(&format!("\"id\":\"{id}\""), "\"id\":\"\"", 1)
}

/// Runs one pass. `expected` holds each instance's canonical response
/// once known; a first response is validated with the independent check,
/// every later one must repeat it exactly. Returns the pass and its
/// validation failures.
fn run_pass(
    service: &SolveService,
    plan: &Plan,
    expected: &mut [Option<String>],
    tracer: &mut Tracer,
    pass_id: u64,
) -> (Pass, u64) {
    let mut pass = Pass::default();
    let mut failed = 0u64;
    let mut counted = vec![false; plan.truths.len()];
    let pass_span = tracer.begin("pass", None, pass_id);
    for (b, text) in plan.batches.iter().enumerate() {
        let batch_id = pass_id * 1_000_000 + b as u64;
        let span = tracer.begin("batch", pass_span, batch_id);
        let t0 = Instant::now();
        let s = tracer.begin("service.parse", span, batch_id);
        let parsed = parse_request_lines(text);
        tracer.end(s);
        let t1 = Instant::now();
        let s = tracer.begin("service.process_batch", span, batch_id);
        let region = memtrack::PeakRegion::start();
        let allocs_before = memtrack::total_allocations();
        let batch = service.process_batch(parsed.requests);
        pass.allocs += memtrack::total_allocations() - allocs_before;
        pass.batch_peak_mib.push(region.peak_bytes() as f64 / MIB);
        tracer.end(s);
        let t2 = Instant::now();
        let s = tracer.begin("service.serialize", span, batch_id);
        let lines: Vec<String> = batch.responses.iter().map(|r| r.to_json_line()).collect();
        tracer.end(s);
        let t3 = Instant::now();
        tracer.end(span);
        pass.parse_secs += (t1 - t0).as_secs_f64();
        pass.process_secs += (t2 - t1).as_secs_f64();
        pass.serialize_secs += (t3 - t2).as_secs_f64();
        pass.batch_secs.push((t3 - t0).as_secs_f64());

        // Validation, outside the timed region.
        failed += parsed.malformed.len() as u64;
        failed += BATCH.saturating_sub(batch.responses.len()) as u64;
        for (k, (response, line)) in batch.responses.iter().zip(&lines).enumerate() {
            let inst = plan.instance_of[b * BATCH + k];
            let line = canonical(line, &response.id);
            let ok = match (&response.outcome, &expected[inst]) {
                (JobOutcome::Solved(s), None) => {
                    let valid = match &plan.truths[inst] {
                        Truth::Pauli(strings) => {
                            check::pauli_partition_ok(strings, &s.colors, s.num_colors)
                        }
                        Truth::Graph(oracle) => {
                            check::graph_coloring_ok(oracle, &s.colors, s.num_colors)
                        }
                    };
                    if valid {
                        expected[inst] = Some(line);
                    }
                    valid
                }
                (JobOutcome::Solved(_), Some(first)) => *first == line,
                (outcome, _) => {
                    eprintln!("request {} not solved: {outcome:?}", response.id);
                    false
                }
            };
            if let JobOutcome::Solved(s) = &response.outcome {
                if !std::mem::replace(&mut counted[inst], true) {
                    pass.colors += s.num_colors as u64;
                }
            }
            failed += u64::from(!ok);
        }
    }
    tracer.end(pass_span);
    (pass, failed)
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let batches = if tiny { 4 } else { 32 };
    // Set-up: build the request text and the checker's ground truth, and
    // construct a service, several times before timing (the last copy is
    // used) and more between the timed passes.
    let set_up = |setup_s: &mut Vec<f64>, tracer: &mut Tracer| {
        let span = tracer.begin("setup", None, setup_s.len() as u64);
        let t0 = Instant::now();
        let p = plan(seed, batches, tiny);
        let service = SolveService::new(ServiceConfig::default());
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.end(span);
        (p, service)
    };
    let mut setup_s = Vec::new();
    let mut built = None;
    while crate::setup_due(&setup_s, 0.0) {
        built = Some(set_up(&mut setup_s, tracer));
    }
    let (plan, service) = built.expect("at least one set-up repetition");
    let requests_per_pass = plan.instance_of.len() as u64;
    let workers = service.config().workers;

    // Warm-up pass on the set-up service: validates every instance once.
    let mut expected: Vec<Option<String>> = plan.truths.iter().map(|_| None).collect();
    let (warm, warm_failed) = run_pass(&service, &plan, &mut expected, tracer, 0);
    report.attempted += requests_per_pass;
    report.failed += warm_failed;
    let snapshot = service.metrics();
    let registry = service.registry();
    let count = |name: &str| registry.counter(name).get() as f64;
    let pairs = count("solver_candidate_pairs_total");
    let edges = count("solver_conflict_edges_total");
    let solver_counts = [
        ("core.candidate_pairs", pairs),
        ("core.conflict_edges", edges),
        ("core.edge_yield", edges / pairs),
        (
            "core.packed_frac",
            count("solver_packed_lanes_total") / pairs,
        ),
        ("core.iterations", count("solver_iterations_total")),
        (
            "core.packing_mispredicts",
            count("solver_packing_mispredicts_total"),
        ),
        (
            "core.scheme_mispredicts",
            count("solver_scheme_mispredicts_total"),
        ),
        (
            "core.max_conflict_edges",
            registry.gauge("solver_max_conflict_edges").get() as f64,
        ),
    ];
    drop(service);

    // Timed passes, each on a fresh service. The traced run alternates
    // traced and untraced passes; their difference is the overhead.
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let (mut queue_wait, mut solve, mut coalesce) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let (mut phase_ns, mut solver_total_ns) = ([0u64; 3], 0u64);
    let mut pass_id = 1u64;
    while started.elapsed() < budget || passes.len() < MIN_PASSES {
        let trace_this = traced && pass_id.is_multiple_of(2);
        tracer.set_enabled(trace_this);
        let service = SolveService::new(ServiceConfig::default());
        let (mut pass, failed) = run_pass(&service, &plan, &mut expected, tracer, pass_id);
        report.attempted += requests_per_pass;
        report.failed += failed;
        let m = service.metrics();
        if (m.cache_hits, m.solved) != (snapshot.cache_hits, snapshot.solved) {
            eprintln!(
                "pass {pass_id}: {} hits / {} solves, warm-up had {} / {}",
                m.cache_hits, m.solved, snapshot.cache_hits, snapshot.solved
            );
            report.failed += 1;
        }
        if pass.colors != warm.colors {
            report.failed += 1;
        }
        let registry = service.registry();
        for (acc, name) in [
            (&mut queue_wait, "service_queue_wait_ns"),
            (&mut solve, "service_solve_ns"),
            (&mut coalesce, "service_coalesce_wait_ns"),
        ] {
            let h = registry.histogram(name);
            acc.0 += h.sum();
            acc.1 += h.count();
        }
        let solves = registry.histogram("service_solve_ns");
        pass.solve_mean_s = solves.sum() as f64 * 1e-9 / solves.count().max(1) as f64;
        for (acc, name) in
            phase_ns
                .iter_mut()
                .zip(["solver_assign_ns", "solver_conflict_ns", "solver_color_ns"])
        {
            *acc += registry.histogram(name).sum();
        }
        solver_total_ns += registry.histogram("solver_total_ns").sum();
        passes.push((pass, trace_this));
        pass_id += 1;
        let run_fraction = started.elapsed().as_secs_f64() / seconds;
        while crate::setup_due(&setup_s, run_fraction) {
            set_up(&mut setup_s, tracer);
        }
    }
    tracer.set_enabled(traced);

    // End-to-end: the untraced passes.
    let untraced: Vec<&Pass> = passes.iter().filter(|(_, t)| !t).map(|(p, _)| p).collect();
    let batch_secs: Vec<f64> = untraced.iter().flat_map(|p| p.batch_secs.clone()).collect();
    let solve_means: Vec<f64> = untraced.iter().map(|p| p.solve_mean_s).collect();
    let pass_rates: Vec<f64> = untraced
        .iter()
        .map(|p| requests_per_pass as f64 / p.batch_secs.iter().sum::<f64>())
        .collect();
    let peaks: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.batch_peak_mib.clone())
        .collect();
    report.set("setup_s", median(&setup_s));
    report.set("solve_s", median(&solve_means));
    report.set("peak_mib", median(&peaks));
    report.set("colors", warm.colors as f64);
    report.set("req_per_s", median(&pass_rates));
    report.set("batch_p50_ms", median(&batch_secs) * 1e3);
    report.set(
        "batch_p90_ms",
        median_quantile(untraced.iter().map(|p| p.batch_secs.as_slice()), 0.9) * 1e3,
    );
    report.set_ok_frac();

    // Per-layer. Times are per batch; counts are per pass (exact).
    let all_batches = (passes.len() * batches) as f64;
    let per_batch =
        |f: fn(&Pass) -> f64| passes.iter().map(|(p, _)| f(p)).sum::<f64>() / all_batches;
    report.set("service.parse_s", per_batch(|p| p.parse_secs));
    report.set("service.batch_s", per_batch(|p| p.process_secs));
    report.set("service.serialize_s", per_batch(|p| p.serialize_secs));
    let process_secs: f64 = passes.iter().map(|(p, _)| p.process_secs).sum();
    report.set(
        "service.worker_busy_frac",
        solve.0 as f64 * 1e-9 / (workers as f64 * process_secs),
    );
    let mean_ms = |(sum, count): (u64, u64)| sum as f64 * 1e-6 / count.max(1) as f64;
    report.set("service.queue_wait_ms", mean_ms(queue_wait));
    report.set("service.solve_ms", mean_ms(solve));
    report.set("service.coalesce_wait_ms", mean_ms(coalesce));
    report.set(
        "service.cache_hit_frac",
        snapshot.cache_hits as f64 / requests_per_pass as f64,
    );
    report.set("service.solved", snapshot.solved as f64);
    report.set("service.failed", snapshot.failed as f64);
    report.set("service.rejected", snapshot.rejected as f64);
    report.set("service.retries", snapshot.retries as f64);
    let phases_ns: u64 = phase_ns.iter().sum();
    for (metric, ns) in [
        ("core.assign_s", phase_ns[0]),
        ("core.conflict_s", phase_ns[1]),
        ("core.color_s", phase_ns[2]),
        ("core.other_s", solver_total_ns.saturating_sub(phases_ns)),
    ] {
        report.set(metric, ns as f64 * 1e-9 / all_batches);
    }
    let allocs: usize = passes.iter().map(|(p, _)| p.allocs).sum();
    report.set(
        "mem.allocs_per_req",
        allocs as f64 / (passes.len() as f64 * requests_per_pass as f64),
    );
    report.set("rayon.threads", rayon::current_num_threads() as f64);

    // Solver counts: the warm-up pass's registry roll-ups.
    for (metric, value) in solver_counts {
        report.set(metric, value);
    }
    if traced {
        let traced_batches: Vec<f64> = passes
            .iter()
            .filter(|(_, t)| *t)
            .flat_map(|(p, _)| p.batch_secs.clone())
            .collect();
        report.set(
            "trace.overhead_ms",
            (median(&traced_batches) - median(&batch_secs)) * 1e3,
        );
    }

    report.note("setup_reps", setup_s.len());
    report.note("workers", workers);
    report.note("batches_per_pass", batches);
    report.note("requests_per_pass", requests_per_pass);
    report.note("distinct_instances", plan.truths.len());
    report.note("cache_hits_per_pass", snapshot.cache_hits);
    report.note("timed_passes", passes.len());
    report.note("untraced_batches", batch_secs.len());
}

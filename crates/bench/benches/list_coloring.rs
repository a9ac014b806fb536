//! Lines 8–9 microbenchmarks: the §IV-B scheme comparison (Algorithm 2's
//! dynamic bucket greedy vs static-order coloring) plus the `list_color`
//! group — sequential greedy vs the parallel list-constrained
//! Jones–Plassmann and speculative color-and-repair kernels on the same
//! conflict graph.
//!
//! The acceptance bar: on ≥4 rayon threads the faster parallel kernel
//! must beat warm sequential greedy by **≥2×** at n = 2048 (skipped on
//! smaller hosts — the vendored rayon shim runs inline below the thread
//! floor, where a round-based kernel cannot win).
//!
//! Per-scheme ns/unit rates (unit = conflict vertex + edge) are printed
//! and recorded in `BENCH_color.json` at the repo root.
//!
//! Set `PICASSO_BENCH_SMOKE=1` for the seconds-scale CI smoke version.

use coloring::{jones_plassmann_list, speculative_list, OrderingHeuristic};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::CsrGraph;
use pauli::EncodedSet;
use picasso::conflict::build_parallel;
use picasso::listcolor::{greedy_list_color, greedy_list_color_into, static_list_color};
use picasso::{
    ColorLists, IterationContext, ListColorOutcome, PauliComplementOracle, PicassoConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("PICASSO_BENCH_SMOKE").is_some()
}

/// A solver-realistic iteration-1 conflict instance over `n` random
/// unique Pauli strings, with `list_size` colors per vertex.
fn conflict_instance(
    n: usize,
    list_size: Option<u32>,
    seed: u64,
) -> (CsrGraph, ColorLists, Vec<u32>, IterationContext) {
    let mut rng = StdRng::seed_from_u64(seed);
    let strings = pauli::string::random_unique_set(n, 14, &mut rng);
    let set = EncodedSet::from_strings(&strings);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(1);
    let l = list_size.unwrap_or_else(|| cfg.list_size(n));
    let lists = ColorLists::assign(n, 0, cfg.palette_size(n), l, seed, 1);
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    let build = build_parallel(&oracle, &mut ctx);
    let gc = build.graph;
    let active: Vec<u32> = (0..n as u32)
        .filter(|&v| gc.degree(v as usize) > 0)
        .collect();
    (gc, lists, active, ctx)
}

/// Steady-state minimum over warm rounds (min, not mean: the speedup
/// bars compare kernels, not allocator or scheduler noise).
fn time_min(rounds: usize, reps: usize, f: &mut dyn FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// The original §IV-B comparison: dynamic bucket greedy vs static orders.
fn bench_scheme_comparison(c: &mut Criterion) {
    let n = if smoke() { 600 } else { 3000 };
    let (gc, lists, active, _ctx) = conflict_instance(n, None, 3);

    let mut group = c.benchmark_group("conflict_list_coloring");
    group.sample_size(if smoke() { 10 } else { 20 });
    group.bench_function("dynamic_bucket_greedy", |b| {
        b.iter(|| black_box(greedy_list_color(&gc, &lists, &active, 9).assigned.len()))
    });
    for h in [
        OrderingHeuristic::Natural,
        OrderingHeuristic::LargestFirst,
        OrderingHeuristic::SmallestLast,
    ] {
        group.bench_function(BenchmarkId::new("static", h.label()), |b| {
            b.iter(|| black_box(static_list_color(&gc, &lists, &active, h, 9).assigned.len()))
        });
    }
    group.finish();
}

/// The `list_color` group: warm sequential greedy vs the deterministic
/// parallel kernels, across a normal and a tight palette shape.
fn bench_parallel_kernels(c: &mut Criterion) {
    let n: usize = if smoke() { 512 } else { 2048 };
    let chunks = rayon::current_num_threads();
    let shapes: &[(&str, Option<u32>)] = &[("normal", None), ("tightL4", Some(4))];
    let mut records = Vec::new();
    let mut best_speedup = 0.0f64;

    for &(shape, list_size) in shapes {
        let (gc, lists, active, mut ctx) = conflict_instance(n, list_size, 7);
        let edges = gc.edges().count();
        let units = (active.len() + edges).max(1);
        let rows = |v: u32| lists.row(v as usize);

        // Correctness gate before any timing: both parallel kernels must
        // reproduce their strictly sequential reference bit for bit at
        // this host's chunk count.
        let jp_ref = jones_plassmann_list(&gc, &rows, &active, 9, 0);
        let jp_par = jones_plassmann_list(&gc, &rows, &active, 9, chunks);
        assert_eq!(jp_ref.colors, jp_par.colors, "jp partition-variant");
        let spec_ref = speculative_list(&gc, &rows, &active, 9, 0);
        let spec_par = speculative_list(&gc, &rows, &active, 9, chunks);
        assert_eq!(spec_ref.colors, spec_par.colors, "spec partition-variant");

        let rounds = if smoke() { 2 } else { 5 };
        let reps = if smoke() { 2 } else { 8 };
        let mut outcome = ListColorOutcome::default();
        let greedy_secs = time_min(rounds, reps, &mut || {
            let (l, s) = ctx.lists_and_color_scratch();
            greedy_list_color_into(&gc, l, &active, 9, s, &mut outcome);
            outcome.assigned.len()
        });
        let jp_secs = time_min(rounds, reps, &mut || {
            jones_plassmann_list(&gc, &rows, &active, 9, chunks).rounds as usize
        });
        let spec_secs = time_min(rounds, reps, &mut || {
            speculative_list(&gc, &rows, &active, 9, chunks).rounds as usize
        });
        let jp_speedup = greedy_secs / jp_secs.max(1e-12);
        let spec_speedup = greedy_secs / spec_secs.max(1e-12);
        best_speedup = best_speedup.max(jp_speedup).max(spec_speedup);
        println!(
            "list_color_n{n}_{shape}: greedy={:.3}ms jp={:.3}ms ({jp_speedup:.2}x, {} rounds) \
             spec={:.3}ms ({spec_speedup:.2}x, {} rounds, {} repairs) \
             [{} vertices, {} edges, {chunks} threads]",
            greedy_secs * 1e3,
            jp_secs * 1e3,
            jp_par.rounds,
            spec_secs * 1e3,
            spec_par.rounds,
            spec_par.repair_conflicts,
            active.len(),
            edges,
        );
        records.push(serde_json::json!({
            "shape": shape,
            "vertices": active.len(),
            "edges": edges,
            "list_size": lists.list_size(),
            "chunks": chunks,
            "greedy_ns_per_unit": greedy_secs * 1e9 / units as f64,
            "jp_ns_per_unit": jp_secs * 1e9 / units as f64,
            "spec_ns_per_unit": spec_secs * 1e9 / units as f64,
            "jp_rounds": jp_par.rounds,
            "spec_rounds": spec_par.rounds,
            "spec_repairs": spec_par.repair_conflicts,
            "jp_speedup": jp_speedup,
            "spec_speedup": spec_speedup,
        }));

        let mut group = c.benchmark_group(format!("list_color_n{n}_{shape}"));
        group.sample_size(if smoke() { 2 } else { 10 });
        group.bench_function("greedy_warm", |b| {
            b.iter(|| {
                let (l, s) = ctx.lists_and_color_scratch();
                greedy_list_color_into(&gc, l, &active, 9, s, &mut outcome);
                black_box(outcome.assigned.len())
            })
        });
        group.bench_function("jones_plassmann", |b| {
            b.iter(|| black_box(jones_plassmann_list(&gc, &rows, &active, 9, chunks).rounds))
        });
        group.bench_function("speculative", |b| {
            b.iter(|| black_box(speculative_list(&gc, &rows, &active, 9, chunks).rounds))
        });
        group.finish();
    }

    // The parallel acceptance bar only means something with real
    // parallelism under it: the vendored rayon shim reports the host
    // core count, and below 4 threads a round-based kernel paying
    // proposal+commit passes over the graph cannot beat one greedy pass.
    if !smoke() && rayon::current_num_threads() >= 4 {
        assert!(
            best_speedup >= 2.0,
            "a parallel kernel must be ≥2x warm sequential greedy at \
             n={n} on {} threads (best {best_speedup:.2}x)",
            rayon::current_num_threads()
        );
    }

    // Machine-readable perf record at the repo root, refreshed by every
    // bench run (smoke runs record their own size so CI diffs are
    // apples-to-apples).
    let out = serde_json::json!({
        "bench": "list_color",
        "n": n,
        "smoke": smoke(),
        "threads": chunks,
        "schemes": records,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_color.json");
    std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&out).unwrap()),
    )
    .expect("write BENCH_color.json");
    println!("list_color: wrote {path}");
}

criterion_group!(benches, bench_scheme_comparison, bench_parallel_kernels);
criterion_main!(benches);

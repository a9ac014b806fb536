//! Property suite for the parallel list-coloring kernels: whatever the
//! conflict-graph density, palette shape, or seed, (a) Jones–Plassmann
//! and speculative outcomes are *valid* partial list-colorings, (b) they
//! are **bit-identical** across worklist partitions {1, 2, 4, 8} and
//! equal to the strictly sequential (`chunks = 0`) reference execution —
//! the property that makes them bit-identical across rayon thread
//! counts — and (c) the solver's end-to-end color counts under the
//! parallel schemes stay within a bounded quality delta of sequential
//! dynamic greedy across the same density sweep oracles as
//! `tests/packed_equivalence.rs`.

use coloring::{jones_plassmann_list, speculative_list, ListParallelOutcome, UNCOLORED};
use graph::{CsrGraph, PackedWordOracle};
use picasso::conflict::build_sequential;
use picasso::{ColorLists, IterationContext, ListColoringScheme, Picasso, PicassoConfig};
use proptest::prelude::*;

/// A per-iteration conflict instance the solver would face: the conflict
/// CSR of a synthetic packed-word oracle under random palette lists,
/// with the positive-degree vertices as the active set.
fn conflict_instance(
    n: usize,
    words: usize,
    density: f64,
    palette: u32,
    list: u32,
    seed: u64,
) -> (CsrGraph, ColorLists, Vec<u32>) {
    let oracle = PackedWordOracle::with_edge_density(n, words, density, seed);
    let lists = ColorLists::assign(n, 0, palette, list, seed ^ 0x00C0_FFEE, 1);
    let mut ctx = IterationContext::new();
    ctx.set_lists(lists.clone());
    let build = build_sequential(&oracle, &mut ctx);
    let gc = build.graph;
    let active: Vec<u32> = (0..n as u32)
        .filter(|&v| gc.degree(v as usize) > 0)
        .collect();
    (gc, lists, active)
}

/// Validity of a partial list-coloring: assigned colors come from the
/// vertex's own list, no edge is monochromatic, and every active vertex
/// is either colored or reported dry (exactly once, ascending).
fn assert_valid(gc: &CsrGraph, lists: &ColorLists, active: &[u32], out: &ListParallelOutcome) {
    let mut accounted = 0usize;
    for &v in active {
        let c = out.colors[v as usize];
        if c == UNCOLORED {
            assert!(
                out.uncolored.binary_search(&v).is_ok(),
                "vertex {v} neither colored nor dry"
            );
        } else {
            assert!(
                lists.row(v as usize).contains(&c),
                "vertex {v} got color {c} outside its list"
            );
            accounted += 1;
        }
    }
    assert!(
        out.uncolored.windows(2).all(|w| w[0] < w[1]),
        "dry list sorted"
    );
    assert_eq!(accounted + out.uncolored.len(), active.len());
    for (u, v) in gc.edges() {
        let (cu, cv) = (out.colors[u as usize], out.colors[v as usize]);
        if cu != UNCOLORED {
            assert_ne!(cu, cv, "edge ({u},{v}) monochromatic");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) + (b): both kernels valid and partition-invariant across the
    /// density sweep.
    #[test]
    fn kernels_valid_and_bit_identical_across_partitions(
        density in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(1.0)],
        words in prop_oneof![Just(1usize), Just(2)],
        n in 40usize..120,
        palette in 6u32..24,
        list in 2u32..6,
        seed in any::<u64>(),
    ) {
        let (gc, lists, active) = conflict_instance(n, words, density, palette, list, seed);
        let rows = |v: u32| lists.row(v as usize);

        let run_jp = |chunks: usize| jones_plassmann_list(&gc, &rows, &active, seed, chunks);
        let run_spec = |chunks: usize| speculative_list(&gc, &rows, &active, seed, chunks);
        let kernels: [&dyn Fn(usize) -> ListParallelOutcome; 2] = [&run_jp, &run_spec];
        for kernel in kernels {
            // chunks = 0 is the strictly sequential two-phase reference.
            let reference = kernel(0);
            assert_valid(&gc, &lists, &active, &reference);
            // Thread-count stand-ins: every partition must reproduce the
            // reference bit for bit.
            for chunks in [1usize, 2, 4, 8] {
                let out = kernel(chunks);
                prop_assert_eq!(&out.colors, &reference.colors, "chunks={}", chunks);
                prop_assert_eq!(&out.uncolored, &reference.uncolored, "chunks={}", chunks);
                prop_assert_eq!(out.rounds, reference.rounds, "chunks={}", chunks);
                prop_assert_eq!(
                    out.repair_conflicts, reference.repair_conflicts,
                    "chunks={}", chunks
                );
            }
        }
    }

    /// JP never repairs (winners are an independent set); the
    /// speculative kernel's extra rounds stay bounded.
    #[test]
    fn kernel_round_invariants(
        density in prop_oneof![Just(0.01f64), Just(0.5)],
        n in 40usize..100,
        seed in any::<u64>(),
    ) {
        let (gc, lists, active) = conflict_instance(n, 1, density, 12, 4, seed);
        let rows = |v: u32| lists.row(v as usize);
        let jp = jones_plassmann_list(&gc, &rows, &active, seed, 4);
        prop_assert_eq!(jp.repair_conflicts, 0);
        let spec = speculative_list(&gc, &rows, &active, seed, 4);
        // SPEC_ROUND_LIMIT plus the sequential finish.
        prop_assert!(spec.rounds <= 25, "spec rounds {}", spec.rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (c): solver end-to-end across the density sweep — every scheme
    /// yields a valid coloring of the oracle graph, deterministically,
    /// with color counts within a bounded delta of sequential greedy.
    #[test]
    fn solver_quality_delta_bounded_across_density_sweep(
        density in prop_oneof![Just(0.0f64), Just(0.01), Just(0.5), Just(1.0)],
        n in 40usize..110,
        seed in any::<u64>(),
    ) {
        let oracle = PackedWordOracle::with_edge_density(n, 2, density, seed);
        let base = PicassoConfig::normal(seed ^ 0xD1CE);
        let greedy = Picasso::new(base).solve_oracle(&oracle).unwrap();
        prop_assert!(coloring::verify::validate_oracle_coloring(&oracle, &greedy.colors).is_ok());

        for scheme in [
            ListColoringScheme::JonesPlassmann,
            ListColoringScheme::Speculative,
        ] {
            let cfg = base.with_scheme(scheme);
            let par = Picasso::new(cfg).solve_oracle(&oracle).unwrap();
            prop_assert!(
                coloring::verify::validate_oracle_coloring(&oracle, &par.colors).is_ok(),
                "{:?} at density {}", scheme, density
            );
            // Determinism per seed.
            let again = Picasso::new(cfg).solve_oracle(&oracle).unwrap();
            prop_assert_eq!(&par.colors, &again.colors, "{:?} must be deterministic", scheme);
            // Bounded quality delta in both directions: the parallel
            // kernels may trade some quality for rounds, but not
            // unboundedly (and vice versa).
            let (g, p) = (greedy.num_colors as usize, par.num_colors as usize);
            prop_assert!(
                p <= g + g / 2 + 16 && g <= p + p / 2 + 16,
                "{:?} at density {}: {} colors vs greedy {}", scheme, density, p, g
            );
        }
    }
}

//! Every per-iteration decision is a plain function of the request: a
//! cold `IterationContext` and one reused across earlier, different
//! solves (the way a service worker's pooled context is) take the same
//! packed/scalar path on every iteration, charge a device the same
//! bytes, forecast the same device footprint, and reach the same
//! strict-forecast verdicts. No timing from an earlier solve can reach
//! any of them.

use pauli::EncodedSet;
use picasso::conflict::device_input_bytes_per_vertex;
use picasso::{
    ConflictBackend, IterationContext, ListColoringScheme, LiveView, PackingMode,
    PauliComplementOracle, Picasso, PicassoConfig, PicassoResult, SolveError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUBITS: usize = 12;

fn random_set(n: usize, qubits: usize, seed: u64) -> EncodedSet {
    let mut rng = StdRng::seed_from_u64(seed);
    EncodedSet::from_strings(&pauli::string::random_unique_set(n, qubits, &mut rng))
}

/// A context that has served three different solves, the last one
/// scalar-only under a `Never` override that is then reset to `Auto` —
/// what the service's degradation ladder leaves behind.
fn warmed_context() -> IterationContext {
    let mut ctx = IterationContext::new();
    Picasso::new(PicassoConfig::normal(3))
        .solve_pauli_in(&random_set(900, 14, 1), &mut ctx)
        .unwrap();
    Picasso::new(PicassoConfig::aggressive(4))
        .solve_pauli_in(&random_set(300, 24, 2), &mut ctx)
        .unwrap();
    ctx.set_packing(PackingMode::Never);
    Picasso::new(PicassoConfig::normal(5).with_backend(ConflictBackend::Sequential))
        .solve_pauli_in(&random_set(500, 10, 3), &mut ctx)
        .unwrap();
    ctx.set_packing(PackingMode::Auto);
    ctx
}

fn packed_lanes(r: &PicassoResult) -> Vec<u64> {
    r.iterations.iter().map(|s| s.packed_lanes).collect()
}

/// The device forecast of every iteration of `reference`, replayed on
/// `ctx`: the same lists the solver assigned, against an oracle of the
/// same packed form.
fn forecasts(
    ctx: &mut IterationContext,
    oracle: &PauliComplementOracle<'_, EncodedSet>,
    cfg: &PicassoConfig,
    reference: &PicassoResult,
) -> Vec<usize> {
    let mut base = 0u32;
    let mut out = Vec::new();
    for s in &reference.iterations {
        let m = s.live_vertices;
        ctx.assign_lists(
            m,
            base,
            s.palette_size,
            s.list_size,
            cfg.seed,
            s.iteration as u64,
        );
        let live: Vec<u32> = (0..m as u32).collect();
        let view = LiveView::new(oracle, &live);
        let bpv = device_input_bytes_per_vertex(QUBITS, s.list_size as usize);
        out.push(ctx.device_forecast_bytes_for(&view, bpv));
        base += s.palette_size;
    }
    out
}

#[test]
fn cold_and_warmed_contexts_take_identical_decisions() {
    let set = random_set(700, QUBITS, 9);
    let oracle = PauliComplementOracle::new(&set);
    let cfg = PicassoConfig::normal(7).with_backend(ConflictBackend::Device {
        capacity_bytes: 64 * 1024 * 1024,
    });
    let mut cold = IterationContext::new();
    let mut warm = warmed_context();
    let a = Picasso::new(cfg).solve_pauli_in(&set, &mut cold).unwrap();
    let b = Picasso::new(cfg).solve_pauli_in(&set, &mut warm).unwrap();

    // Identical packed/scalar path on every iteration, and the instance
    // really exercises the packed kernel.
    assert_eq!(packed_lanes(&a), packed_lanes(&b));
    assert!(a.total_packed_lanes() > 0, "{:?}", packed_lanes(&a));
    assert_eq!(a.colors, b.colors);

    // The device is charged the same bytes: the packed replica's upload
    // differs from the raw set's, so a diverging path would show here.
    let (da, db) = (a.device_stats.unwrap(), b.device_stats.unwrap());
    assert_eq!(
        (da.peak_bytes, da.h2d_bytes, da.d2h_bytes),
        (db.peak_bytes, db.h2d_bytes, db.d2h_bytes)
    );

    // Identical per-iteration device forecasts, on both contexts and on
    // a brand-new one.
    let expected = forecasts(&mut IterationContext::new(), &oracle, &cfg, &a);
    assert_eq!(forecasts(&mut cold, &oracle, &cfg, &a), expected);
    assert_eq!(forecasts(&mut warm, &oracle, &cfg, &a), expected);

    // Identical strict-forecast verdicts at budgets on both sides of
    // every iteration's forecast: either both solve to the same coloring
    // or both reject with the same estimate.
    let mut budgets: Vec<usize> = expected.iter().flat_map(|&f| [f, f - 1]).collect();
    budgets.sort_unstable();
    budgets.dedup();
    let mut rejected = 0;
    for budget in budgets {
        let strict = PicassoConfig::normal(7)
            .with_backend(ConflictBackend::Device {
                capacity_bytes: budget,
            })
            .with_strict_forecast(true);
        let verdict =
            |ctx: &mut IterationContext| match Picasso::new(strict).solve_pauli_in(&set, ctx) {
                Ok(r) => Ok(r.colors),
                Err(SolveError::ForecastOverBudget { estimate_bytes, .. }) => Err(estimate_bytes),
                Err(other) => panic!("budget {budget}: unexpected {other}"),
            };
        let v = verdict(&mut cold);
        rejected += usize::from(v.is_err());
        assert_eq!(v, verdict(&mut warm), "budget {budget}");
    }
    assert!(rejected > 0, "the sweep must cross a forecast");

    // `auto` is not a scheme label: no kernel is chosen from timings.
    assert!(ListColoringScheme::from_label("auto").is_err());
}

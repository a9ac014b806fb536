//! The repository benchmark. Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <molecule_normal|synthetic_aggressive|service_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]
//! ```
//!
//! Inputs are built from `--seed` alone. Every output is validated; the
//! last stdout line is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The traced run
//! also writes its spans to `--trace-out` (default
//! `perfbench/out/trace-<workload>-<seed>.json`). Exits 1 if any output
//! failed validation, 2 on bad arguments. See README.md.

mod check;
mod report;
mod service_mixed;
mod solve;
mod stats;
mod trace;

use report::Report;
use solve::Instance;
use std::process::ExitCode;
use trace::Tracer;

// Peak heap and allocation counts come from the tracking allocator.
#[global_allocator]
static ALLOC: memtrack::TrackingAllocator = memtrack::TrackingAllocator;

/// Set-up runs [`SETUP_MIN_REPS`] times before timing, then again between
/// timed operations, until it has used [`SETUP_BUDGET_S`] spread evenly
/// over the run (or run [`SETUP_MAX_REPS`] times); `setup_s` is the
/// median. Host noise comes in bursts of a second or more, so set-up
/// repeated in one stretch at the start read up to 1.7× apart from one
/// process to the next.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1000;

/// Whether another set-up repetition is due once `run_fraction` of the
/// timed run has passed (0 before timing starts).
fn setup_due(setup_secs: &[f64], run_fraction: f64) -> bool {
    let reps = setup_secs.len();
    reps < SETUP_MIN_REPS
        || (reps < SETUP_MAX_REPS
            && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_S * run_fraction.min(1.0))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        tiny: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.traced);
    let mut report = Report::default();
    let (seed, secs, traced, tiny) = (args.seed, args.seconds, args.traced, args.tiny);
    match args.workload.as_str() {
        "molecule_normal" => solve::run(
            Instance::MoleculeNormal,
            seed,
            secs,
            traced,
            tiny,
            &mut tracer,
            &mut report,
        ),
        "synthetic_aggressive" => solve::run(
            Instance::SyntheticAggressive,
            seed,
            secs,
            traced,
            tiny,
            &mut tracer,
            &mut report,
        ),
        "service_mixed" => service_mixed::run(seed, secs, traced, tiny, &mut tracer, &mut report),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (molecule_normal | synthetic_aggressive | service_mixed)"
            );
            return ExitCode::from(2);
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note("workload", format!("\"{}\"", args.workload));
    report.note("seed", seed);
    report.note("nproc", nproc);
    report.note("rayon_threads", rayon::current_num_threads());
    report.note(
        "service_workers",
        picasso_service::ServiceConfig::default().workers,
    );
    report.note("traced", traced);
    report.note("tiny", tiny);
    println!("{{\"record\":{}}}", report.record_json());

    if traced {
        let path = args
            .trace_out
            .unwrap_or_else(|| format!("perfbench/out/trace-{}-{seed}.json", args.workload));
        let doc = format!(
            "{{\"record\":{},\"spans\":{}}}\n",
            report.record_json(),
            tracer.to_json()
        );
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, doc));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write trace {path}: {e}");
            return ExitCode::from(1);
        }
    }

    let line = report.result_line(traced);
    println!("{line}");
    if report.failed == 0 && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed validation",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}

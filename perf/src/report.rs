//! Result records: what one run writes to `--out`, how several runs are
//! summarised, and the one-line object the driver reads.

use crate::json::Json;
use crate::run::{quantile, sorted, Opts, Outcome};
use crate::spec::Values;
use crate::sys;
use std::path::Path;

fn values_json(v: &Values) -> Json {
    Json::Obj(
        v.iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Json::obj().with("value", value).with("unit", unit),
                )
            })
            .collect(),
    )
}

/// What the run ran on; recorded with every result.
pub fn environment(loadavg_start: f64) -> Json {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = sys::nproc();
    Json::obj()
        .with("nproc", nproc)
        // `Solver` defaults: serial. `ServeConfig::round_threads: 0`: one
        // round worker per core.
        .with("solver_threads", 1usize)
        .with("round_threads", nproc)
        .with(
            "rustc",
            sys::first_line_of("rustc", &["--version"], manifest),
        )
        .with(
            "git_commit",
            sys::first_line_of("git", &["rev-parse", "HEAD"], manifest),
        )
        .with("loadavg_1m_start", loadavg_start)
}

/// The full record of one run.
pub fn record(workload: &str, opts: &Opts, o: &Outcome, loadavg_start: f64) -> Json {
    let noisy = loadavg_start > sys::nproc() as f64 / 2.0;
    Json::obj()
        .with("schema", 1usize)
        .with("workload", workload)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("ops", opts.ops.map_or(Json::Null, Json::from))
        .with("trace", opts.trace)
        .with("smoke", opts.smoke)
        .with("noisy", noisy)
        .with("env", environment(loadavg_start))
        .with("input_hash", o.input_hash.as_str())
        .with("correct", o.errors.is_empty())
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("end_to_end", values_json(&o.e2e))
        .with("extra", values_json(&o.extra))
        .with(
            "per_layer",
            o.layers.as_ref().map_or(Json::Null, values_json),
        )
        .with(
            "errors",
            o.errors
                .iter()
                .map(|e| Json::from(e.as_str()))
                .collect::<Vec<_>>(),
        )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
pub fn driver_line(opts: &Opts, o: &Outcome) -> String {
    let metrics = match (&o.layers, opts.trace) {
        (Some(layers), true) => values_json(layers),
        _ => values_json(&o.e2e),
    };
    Json::obj()
        .with("correct", o.errors.is_empty())
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", metrics)
        .render()
}

/// Human-readable metric lines.
pub fn print_values(title: &str, v: &Values) {
    println!("{title}");
    for (name, unit, value) in v.iter() {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
}

/// Median and quartiles of `values`.
pub fn summary(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Prints median and quartiles per end-to-end metric over repeated runs
/// (records as written by [`record`]).
pub fn print_repeats(workload: &str, runs: &[Json]) {
    println!("{workload}: {} runs — median [q1, q3]", runs.len());
    for m in &crate::spec::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("end_to_end")?.get(m.name)?.get("value")?.as_f64())
            .collect();
        let (q1, med, q3) = summary(&values);
        println!(
            "  {:<20} {med:>14.4} [{q1:.4}, {q3:.4}] {}  spread {:.3}",
            m.name,
            m.unit,
            (q3 - q1) / med.abs().max(1e-12)
        );
    }
}

//! The four workloads. Each module exposes `run(&Opts) -> Outcome`.

pub mod fig6;
pub mod giant;
pub mod monitor;
pub mod serve;

use crate::json::Json;
use crate::layers::{
    base_cache_hit_ratio, fill_from_probes, phase_rows, solver_phase_ns, CheckAgg,
};
use crate::run::{out_dir, quantile, sorted, timed_leg, Leg, Opts, Outcome, ShareTable, Stop};
use crate::spec::Values;
use crate::sys;
use crate::trace::{Probes, Tracer};
use bcdb_core::{CoreError, GovernedOutcome, SolverStats};
use std::time::Instant;

/// Runs the named workload.
pub fn run(workload: &str, opts: &Opts) -> Option<Outcome> {
    Some(match workload {
        "fig6_checks" => fig6::run(opts),
        "giant_enum" => giant::run(opts),
        "monitor_stream" => monitor::run(opts),
        "serve_tcp" => serve::run(opts),
        _ => return None,
    })
}

/// What one `Solver::check` of a check workload returned.
type Checked = Result<GovernedOutcome, String>;

/// The closed loop of the two check workloads: `check(n)` runs op `n`
/// through `Solver::check`. The time limit is only looked at between
/// windows of `window` ops, so every run measures the same mix.
fn check_leg(
    window: usize,
    stop: &Stop,
    tr: &mut Tracer,
    mut check: impl FnMut(usize) -> Result<GovernedOutcome, CoreError>,
) -> (Leg, Vec<Checked>) {
    let mut outs: Vec<Checked> = Vec::new();
    let leg = timed_leg(|leg| 'pass: loop {
        for _ in 0..window {
            tr.begin_op("harness.op");
            let t = Instant::now();
            let out = tr.span("core.Solver::check", || check(outs.len()));
            leg.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end();
            outs.push(out.map_err(|e| e.to_string()));
            if stop.ops_done(outs.len()) {
                break 'pass;
            }
        }
        if stop.time_done() {
            break;
        }
    });
    let attempted = outs.len() as u64;
    (Leg { attempted, ..leg }, outs)
}

/// The per-layer metrics a check workload's traced leg yields without any
/// replay — `DcSatStats`, `SolverStats`, the probes, the span tree — and
/// its share table.
fn check_layers(
    v: &mut Values,
    workload: &str,
    tracer: &Tracer,
    p: &Probes,
    outs: &[Checked],
    sessions: &[SolverStats],
) -> String {
    let mut agg = CheckAgg::default();
    outs.iter().flatten().for_each(|o| agg.add(o));
    agg.fill(v);
    fill_from_probes(v, p, agg.checks);
    v.set("core.base_cache_hit_ratio", base_cache_hit_ratio(sessions));
    let totals = tracer.totals();
    let op = totals.get("harness.op").copied().unwrap_or_default();
    let check_self = tracer.total_ns("core.Solver::check") as f64 - solver_phase_ns(p);
    v.set("core.check_self_ms", check_self / agg.checks.max(1.0) / 1e6);
    let mut table = ShareTable::new(op.total_ns as f64);
    table.row("harness (loop, spans)", op.self_ns as f64);
    phase_rows(&mut table, p);
    v.set("harness.unexplained_ratio", table.unexplained_ratio());
    table.render(
        workload,
        "Solver::check outside its phase probes — route, prepare, pre-check",
    )
}

/// The `harness.*` metrics every workload reports the same way.
fn fill_harness(v: &mut Values, leg: &Leg, reference: Option<&Leg>, failed: u64) {
    v.set("harness.samples", leg.lat_ms.len() as f64);
    v.set(
        "harness.verdict_p99_ms",
        quantile(&sorted(&leg.lat_ms), 0.99),
    );
    if let Some(reference) = reference {
        let n = reference.lat_ms.len().min(leg.lat_ms.len());
        let base = reference.mean_of_first(n);
        if base > 0.0 {
            v.set(
                "harness.trace_overhead_ratio",
                leg.mean_of_first(n) / base - 1.0,
            );
        }
    }
    v.set("harness.loadavg", sys::loadavg());
    v.set("harness.run_s", leg.wall_s);
    v.set(
        "harness.fail_ratio",
        failed as f64 / leg.attempted.max(1) as f64,
    );
}

/// Writes `perf/out/trace-<workload>.json`: the spans and the telemetry
/// probe table of the traced leg.
fn write_trace(workload: &str, tracer: &Tracer, probes: &Probes) {
    let telemetry = Json::parse(&probes.to_json()).unwrap_or(Json::Null);
    let doc = Json::obj()
        .with("workload", workload)
        .with("spans", tracer.to_json())
        .with("telemetry", telemetry);
    let path = out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
}

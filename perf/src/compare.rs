//! `perf compare <a.json> <b.json>`: the gate. Per (workload, metric) both
//! medians, the delta and the bound; non-zero exit on any regression, and on
//! anything that was measured in `a` and is missing or wrong in `b`.

use crate::json::Json;
use crate::report::summary;
use crate::spec::END_TO_END;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// `fail_ratio` may rise by this much, absolutely. Its healthy value is 0,
/// and a share of 0 gates nothing.
const FAIL_RATIO_PLUS: f64 = 0.002;

/// `disk_kb_per_op` may grow by this share of a baseline that writes at
/// all; a workload that wrote nothing may not start to.
const DISK_KB_SHARE: f64 = 0.05;

/// How far a metric may worsen.
#[derive(Clone, Copy)]
enum Limit {
    /// By a share of the baseline median.
    Share(f64),
    /// By an absolute amount.
    Plus(f64),
}

/// One gated metric: where a run record keeps it and how it is judged.
struct Gated {
    section: &'static str,
    name: &'static str,
    lower_is_better: bool,
    limit: Limit,
}

/// The gated metrics: the end-to-end ones with the bounds `BENCHMARK.json`
/// gives them — the only place those are written down — then the two every
/// run reports beside them.
fn gated() -> Result<Vec<Gated>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bounds: BTreeMap<&str, f64> = doc
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("bound")?.as_f64()?)))
        .collect();
    let mut out = Vec::new();
    for m in &END_TO_END {
        let bound = bounds
            .get(m.name)
            .ok_or_else(|| format!("{}: no bound for {}", path.display(), m.name))?;
        out.push(Gated {
            section: "end_to_end",
            name: m.name,
            lower_is_better: m.lower_is_better,
            limit: Limit::Share(*bound),
        });
    }
    for (name, limit) in [
        ("fail_ratio", Limit::Plus(FAIL_RATIO_PLUS)),
        ("disk_kb_per_op", Limit::Share(DISK_KB_SHARE)),
    ] {
        out.push(Gated {
            section: "extra",
            name,
            lower_is_better: true,
            limit,
        });
    }
    Ok(out)
}

/// The runs in a result file: one record, or `{"runs": [...]}`.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = match doc.get("runs") {
        Some(runs) => runs.as_arr().to_vec(),
        None => vec![doc],
    };
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

fn flagged(runs: &[Json], key: &str, value: bool) -> usize {
    runs.iter()
        .filter(|r| r.get(key) == Some(&Json::Bool(value)))
        .count()
}

/// Runs grouped by `workload@seed`: only runs on the same inputs compare.
fn by_workload(runs: &[Json]) -> BTreeMap<String, Vec<&Json>> {
    let mut out: BTreeMap<String, Vec<&Json>> = BTreeMap::new();
    for r in runs {
        let w = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let seed = r.get("seed").and_then(Json::as_f64).unwrap_or(0.0);
        out.entry(format!("{w}@{seed}")).or_default().push(r);
    }
    out
}

/// The metric's value in every run, or `None` when a run lacks it.
fn values(runs: &[&Json], m: &Gated) -> Option<Vec<f64>> {
    runs.iter()
        .map(|r| r.get(m.section)?.get(m.name)?.get("value")?.as_f64())
        .collect()
}

/// Interquartile range; with fewer than four runs, the whole range.
fn width(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        let (q1, _, q3) = summary(values);
        q3 - q1
    } else {
        values.iter().cloned().fold(f64::MIN, f64::max)
            - values.iter().cloned().fold(f64::MAX, f64::min)
    }
}

/// The status of one metric, given the baseline's and the change's values.
fn judge(m: &Gated, va: &[f64], vb: &[f64]) -> (&'static str, String) {
    let (ma, mb) = (summary(va).1, summary(vb).1);
    let raw = if m.lower_is_better { mb - ma } else { ma - mb };
    // Worsening and run-to-run spread in the limit's own terms.
    let (worse, limit, noise, shown) = match m.limit {
        Limit::Plus(limit) => (
            raw,
            limit,
            width(va).max(width(vb)),
            format!("{:>+9.4} {:>+7.3}", mb - ma, limit),
        ),
        Limit::Share(limit) => {
            // Of a baseline of 0, any change at all is an infinite share.
            let share = |x: f64| match (x == 0.0, ma == 0.0) {
                (true, _) => 0.0,
                (false, true) => f64::INFINITY.copysign(x),
                (false, false) => x / ma.abs(),
            };
            let spread = |v: &[f64], med: f64| width(v) / med.abs().max(1e-12);
            (
                share(raw),
                limit,
                spread(va, ma).max(spread(vb, mb)),
                format!("{:>+8.1}% {:>6.0}%", 100.0 * share(mb - ma), 100.0 * limit),
            )
        }
    };
    let status = if worse > limit {
        "regressed"
    } else if va.len() < 2 || vb.len() < 2 || noise > limit {
        "unresolved"
    } else if worse < -limit {
        "improved"
    } else {
        "ok"
    };
    (status, format!("{ma:>14.4} {mb:>14.4} {shown}"))
}

/// Compares result file `b` (the change) against `a` (the baseline).
/// Returns the process exit code: 0 clean; 1 when a metric regressed, or a
/// workload or metric of `a` is missing from `b`, or a run in `b` failed its
/// correctness check; 2 on unusable input.
pub fn compare(a: &str, b: &str) -> i32 {
    let (runs_a, runs_b, gated) = match (load(a), load(b), gated()) {
        (Ok(x), Ok(y), Ok(g)) => (x, y, g),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("perf compare: {e}");
            return 2;
        }
    };
    if flagged(&runs_a, "smoke", true) > 0 {
        eprintln!("perf compare: {a} holds smoke runs; a smoke run is not a baseline");
        return 2;
    }
    if flagged(&runs_a, "correct", false) > 0 {
        eprintln!("perf compare: {a} holds runs that failed their correctness check");
        return 2;
    }
    for (path, runs) in [(a, &runs_a), (b, &runs_b)] {
        let noisy = flagged(runs, "noisy", true);
        if noisy > 0 {
            println!("note: {noisy} run(s) in {path} started on a loaded machine (tagged noisy)");
        }
    }
    let (wa, wb) = (by_workload(&runs_a), by_workload(&runs_b));
    let mut failures = 0;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "baseline", "change", "delta", "bound"
    );
    for (workload, ra) in &wa {
        let Some(rb) = wb.get(workload) else {
            println!("{workload:<18} missing from {b}");
            failures += 1;
            continue;
        };
        let incorrect = rb
            .iter()
            .filter(|r| r.get("correct") == Some(&Json::Bool(false)))
            .count();
        if incorrect > 0 {
            println!("{workload:<18} {incorrect} run(s) in {b} failed or did not finish");
            failures += 1;
        }
        let hashes = |runs: &[&Json]| -> BTreeSet<String> {
            runs.iter()
                .filter_map(|r| r.get("input_hash").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        };
        let inputs_changed = hashes(ra) != hashes(rb);
        for m in &gated {
            let (status, detail) = match (values(ra, m), values(rb, m)) {
                (Some(va), Some(vb)) if inputs_changed => ("inputs_changed", judge(m, &va, &vb).1),
                (Some(va), Some(vb)) => judge(m, &va, &vb),
                _ => ("missing", String::new()),
            };
            failures += usize::from(matches!(status, "regressed" | "missing"));
            println!("{workload:<18} {:<16} {detail:<48}  {status}", m.name);
        }
    }
    for workload in wb.keys().filter(|w| !wa.contains_key(*w)) {
        println!("{workload:<18} only in {b}: nothing to compare it with");
    }
    i32::from(failures > 0)
}

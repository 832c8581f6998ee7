//! `perf compare`: regressions fail, and so does anything the baseline
//! measured that the change lost; noise does not pass as "unchanged";
//! changed inputs and smoke baselines are called out.

use bcdb_perf::compare::compare;
use bcdb_perf::json::Json;
use bcdb_perf::run::out_dir;
use bcdb_perf::spec::END_TO_END;

fn metric(value: f64) -> Json {
    Json::obj().with("value", value)
}

/// One run record of `workload` at seed 42: every end-to-end metric reads
/// 10 and the two extras read `fail_ratio` 0, `disk_kb_per_op` 100, except
/// `set`, which overrides a metric of either section by name.
fn run(workload: &str, set: &[(&str, f64)]) -> Json {
    let read = |name: &str, default: f64| {
        let value = set
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(default, |s| s.1);
        (name.to_string(), metric(value))
    };
    Json::obj()
        .with("workload", workload)
        .with("seed", 42usize)
        .with("smoke", false)
        .with("correct", true)
        .with("input_hash", "h1")
        .with(
            "end_to_end",
            Json::Obj(END_TO_END.iter().map(|m| read(m.name, 10.0)).collect()),
        )
        .with(
            "extra",
            Json::Obj(vec![read("fail_ratio", 0.0), read("disk_kb_per_op", 100.0)]),
        )
}

/// Replaces field `key` of a record.
fn with(rec: Json, key: &str, value: impl Into<Json>) -> Json {
    let kept = rec.fields().iter().filter(|(k, _)| k != key).cloned();
    Json::Obj(kept.collect()).with(key, value)
}

/// Where this test's result files go; removed when it ends.
fn dir() -> std::path::PathBuf {
    out_dir().join(format!("test-compare-{}", std::process::id()))
}

fn file(name: &str, runs: Vec<Json>) -> String {
    std::fs::create_dir_all(dir()).unwrap();
    let path = dir().join(format!("{name}.json"));
    std::fs::write(&path, Json::obj().with("runs", runs).render()).unwrap();
    path.to_string_lossy().into_owned()
}

/// Three runs of `giant_enum` whose metric `name` reads `values`.
fn three(file_name: &str, name: &str, values: [f64; 3]) -> String {
    let runs = values.iter().map(|v| run("giant_enum", &[(name, *v)]));
    file(file_name, runs.collect())
}

#[test]
fn gate_exit_codes() {
    let p95 = "verdict_p95_ms";
    let base = three("base", p95, [10.0, 10.1, 9.9]);
    let check = |path: String, baseline_first: bool, code: i32, why: &str| {
        let got = if baseline_first {
            compare(&base, &path)
        } else {
            compare(&path, &base)
        };
        assert_eq!(got, code, "{why}");
    };

    check(
        three("same", p95, [10.2, 10.0, 10.1]),
        true,
        0,
        "within the bound",
    );
    let slow = three("slow", p95, [14.0, 14.1, 13.9]);
    check(slow.clone(), true, 1, "40 % worse is a regression");
    check(slow, false, 0, "an improvement passes");
    check(
        three("noisy", p95, [7.0, 10.0, 13.0]),
        true,
        0,
        "unresolved is reported, not failed",
    );
    let other = (0..3).map(|_| with(run("giant_enum", &[(p95, 20.0)]), "input_hash", "h2"));
    check(
        file("other", other.collect()),
        true,
        0,
        "changed inputs are not comparable",
    );

    // What the baseline measured and the change lost.
    check(
        file("dropped", vec![run("fig6_checks", &[])]),
        true,
        1,
        "a workload missing from the change",
    );
    let no_p95 = |r: Json| {
        let e2e = r.get("end_to_end").unwrap().fields().to_vec();
        let kept = e2e.into_iter().filter(|(k, _)| k != p95);
        with(r, "end_to_end", Json::Obj(kept.collect()))
    };
    check(
        file(
            "partial",
            vec![
                run("giant_enum", &[]),
                run("giant_enum", &[]),
                no_p95(run("giant_enum", &[])),
            ],
        ),
        true,
        1,
        "a metric missing from one run of the change",
    );
    let crashed = with(run("giant_enum", &[]), "correct", false);
    check(
        file(
            "crashed",
            vec![
                run("giant_enum", &[]),
                run("giant_enum", &[]),
                crashed.clone(),
            ],
        ),
        true,
        1,
        "a run that failed its correctness check",
    );
    check(
        file("bad-base", vec![crashed]),
        false,
        2,
        "a failed run is not a baseline",
    );

    // The two metrics with rules of their own.
    check(
        three("failing", "fail_ratio", [0.003, 0.004, 0.003]),
        true,
        1,
        "fail_ratio is gated at +0.002 absolute",
    );
    check(
        three("few-fail", "fail_ratio", [0.001, 0.001, 0.001]),
        true,
        0,
        "+0.001 is inside it",
    );
    check(
        three("disk", "disk_kb_per_op", [107.0, 107.0, 107.0]),
        true,
        1,
        "disk_kb_per_op is gated at 5 %",
    );
    let dry = three("dry", "disk_kb_per_op", [0.0, 0.0, 0.0]);
    let wet = three("wet", "disk_kb_per_op", [0.5, 0.5, 0.5]);
    assert_eq!(compare(&dry, &dry), 0, "0 KB against 0 KB is clean");
    assert_eq!(
        compare(&dry, &wet),
        1,
        "a workload that wrote nothing starts to"
    );

    let smoke = (0..3).map(|_| with(run("giant_enum", &[]), "smoke", true));
    check(
        file("smoke", smoke.collect()),
        false,
        2,
        "a smoke run is not a baseline",
    );
    assert_eq!(compare("/nonexistent.json", &base), 2);
    let _ = std::fs::remove_dir_all(dir());
}

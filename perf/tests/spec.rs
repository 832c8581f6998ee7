//! `BENCHMARK.json` and `src/spec.rs` state the same contract.

use bcdb_perf::json::Json;
use bcdb_perf::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .expect("key present")
        .as_arr()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn better(lower: bool) -> String {
    if lower { "lower" } else { "higher" }.to_string()
}

#[test]
fn benchmark_json_matches_the_compiled_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);

    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.lower_is_better),
            )
        })
        .collect();
    assert_eq!(names(&doc, "end_to_end"), want);
    // The bounds live here alone; `compare` reads them from this file.
    for j in doc.get("end_to_end").unwrap().as_arr() {
        let bound = j.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{j:?}");
    }

    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u, lower)| (n.to_string(), u.to_string(), better(*lower)))
        .collect();
    assert_eq!(names(&doc, "per_layer"), want);
    let mut seen = std::collections::BTreeSet::new();
    for (name, _, _) in names(&doc, "end_to_end")
        .iter()
        .chain(&names(&doc, "per_layer"))
    {
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
}

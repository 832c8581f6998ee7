//! The counts a later issue may cite as counts repeat exactly: two traced
//! runs at one seed and a fixed op count agree on every one of them, on
//! the three closed-loop workloads.
//!
//! One test function on purpose: the telemetry probe table is global to
//! the process, so traced runs must not overlap.

use bcdb_perf::run::Opts;
use bcdb_perf::workloads;

const COUNTS: [&str; 5] = [
    "graph.cliques_per_check",
    "graph.kernel_words_per_check",
    "core.worlds_per_check",
    "monitor.rechecks_per_event",
    "monitor.journal_bytes_per_event",
];

#[test]
fn traced_counts_repeat_exactly() {
    for (workload, ops) in [
        ("fig6_checks", 20),
        ("giant_enum", 24),
        ("monitor_stream", 120),
    ] {
        let opts = Opts {
            seed: 42,
            seconds: 1.0,
            ops: Some(ops),
            trace: true,
            smoke: true,
        };
        let a = workloads::run(workload, &opts).unwrap();
        let b = workloads::run(workload, &opts).unwrap();
        assert!(
            a.errors.is_empty() && b.errors.is_empty(),
            "{:?} {:?}",
            a.errors,
            b.errors
        );
        assert_eq!(a.attempted, ops as u64);
        assert_eq!(a.input_hash, b.input_hash);
        let (la, lb) = (a.layers.unwrap(), b.layers.unwrap());
        for name in COUNTS {
            assert_eq!(
                la.get(name).to_bits(),
                lb.get(name).to_bits(),
                "{workload} {name}"
            );
        }
        assert_eq!(
            a.extra.get("disk_kb_per_op").to_bits(),
            b.extra.get("disk_kb_per_op").to_bits(),
            "{workload} disk_kb_per_op"
        );
        assert!(
            la.get("graph.kernel_words_per_check") > 0.0,
            "{workload} reached the kernels"
        );
    }
}

//! Tape and picker validity: the generated inputs apply cleanly for any
//! seed, repeat exactly for the same seed, and are rich enough to fill the
//! constraint stream.

use bcdb_chain::Dataset;
use bcdb_monitor::MonitorSession;
use bcdb_perf::tape::{self, Tape, PENDING_TARGET};
use bcdb_perf::workloads::{fig6, monitor, serve};

/// Applies the whole tape to a fresh session: zero errors, and the pending
/// set stays within ±10 % of the target after every event.
fn applies_cleanly(tape: &Tape, seed: u64) {
    let mut session = MonitorSession::new(tape.catalog.clone(), tape.constraints.clone());
    session.apply(&tape.resync_event()).unwrap();
    assert_eq!(session.pending_names().len(), PENDING_TARGET);
    let (lo, hi) = (PENDING_TARGET * 9 / 10, PENDING_TARGET * 11 / 10);
    for (i, step) in tape.steps.iter().enumerate() {
        session
            .apply(&step.event)
            .unwrap_or_else(|e| panic!("seed {seed} event {i} {:?}: {e}", step.kind));
        let pending = session.pending_names().len();
        assert!(
            (lo..=hi).contains(&pending),
            "seed {seed} event {i}: {pending} pending, outside {lo}..={hi}"
        );
    }
    assert_eq!(session.stats().apply_fallbacks, 0);
}

fn check_seeds(seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let stream = tape::build(seed, monitor::TAPE_EVENTS, false);
        assert!(stream.steps.len() >= monitor::TAPE_EVENTS);
        applies_cleanly(&stream, seed);
        let served = tape::build(seed, serve::TAPE_EVENTS, true);
        // A reorg's redo blocks ride with the reorg, so canary toggles are a
        // little under half of the steps.
        let canaries = served.steps.iter().filter(|s| s.canary.is_some()).count();
        assert!(
            canaries >= serve::TAPE_EVENTS * 2 / 5,
            "seed {seed}: {canaries} canary steps"
        );
        applies_cleanly(&served, seed);
    }
}

// Four tests so that the twenty seeds run on every core.
#[test]
fn tapes_apply_cleanly_seeds_1_to_5() {
    check_seeds(1..=5);
}
#[test]
fn tapes_apply_cleanly_seeds_6_to_10() {
    check_seeds(6..=10);
}
#[test]
fn tapes_apply_cleanly_seeds_11_to_15() {
    check_seeds(11..=15);
}
#[test]
fn tapes_apply_cleanly_seeds_16_to_20() {
    check_seeds(16..=20);
}

#[test]
fn same_seed_same_tape_and_constraints() {
    for canaries in [false, true] {
        let a = tape::build(9, 300, canaries);
        let b = tape::build(9, 300, canaries);
        assert_eq!(a.hash, b.hash);
        let encode = |t: &Tape| t.steps.iter().map(|s| s.event.encode()).collect::<Vec<_>>();
        assert_eq!(encode(&a), encode(&b), "byte-identical tape");
        assert_eq!(
            monitor::constraint_texts(&a.addresses),
            monitor::constraint_texts(&b.addresses)
        );
        assert_eq!(
            serve::tenant_subscriptions(&a.addresses),
            serve::tenant_subscriptions(&b.addresses)
        );
        assert_ne!(a.hash, tape::build(10, 300, canaries).hash);
    }
}

#[test]
fn picker_fills_the_fig6_stream_on_d200() {
    for seed in [42, 43] {
        let (inputs, _db) = fig6::inputs(&Dataset::D200.config(seed), 4);
        assert!(
            inputs.heavy_available >= 80,
            "seed {seed}: {} distinct heavy constraints",
            inputs.heavy_available
        );
        assert!(
            inputs.cheap_available >= 120,
            "seed {seed}: {} distinct cheap constraints",
            inputs.cheap_available
        );
        let texts: std::collections::BTreeSet<&str> =
            inputs.ops.iter().map(|op| op.text.as_str()).collect();
        assert_eq!(
            texts.len(),
            inputs.ops.len(),
            "every constraint of the pass is distinct"
        );
        let again = fig6::inputs(&Dataset::D200.config(seed), 4).0;
        assert_eq!(inputs.hash, again.hash);
    }
}

//! `monitor_stream`: writes beside reads. The indexes, `Precomputed` and
//! the clique state that `fig6_checks` only reads are here mutated per
//! event, journaled and snapshotted.
//!
//! A durable `MonitorSession` (journal + disk snapshots, the defaults of
//! `MonitorConfig`) over the mid-size scenario, 32 registered constraints,
//! and the event tape of [`crate::tape`]. One op is one event: `apply`, then
//! `recheck_dirty`; the latency ends when every verdict is fresh again.

use crate::inputs::{parse, qa_text, qp_text, qs_text};
use crate::layers::{fill_from_probes, phase_rows, replay_layers, solver_phase_ns};
use crate::run::{
    end_to_end, median, remove_scratch, scratch_dir, setup_s, timed, timed_leg, Leg, Opts, Outcome,
    ShareTable, Stop,
};
use crate::spec::Values;
use crate::sys;
use crate::tape::{self, Kind, Tape};
use crate::trace::{Probes, Tracer};
use bcdb_core::{Solver, Verdict};
use bcdb_monitor::{ChainEvent, Journal, MonitorSession, MonitorStats};
use bcdb_storage::DiskBackend;
use std::path::PathBuf;
use std::time::Instant;

/// Events on the tape: several times what the seed commit gets through in
/// the measured time. When a faster build reaches the end, the run sets up
/// a fresh session and starts the tape again.
pub const TAPE_EVENTS: usize = 2000;
const LIMIT_MS: f64 = 250.0;

/// The 32 registered constraints: the monitor soak's two unanchored ones,
/// then `qs`, `qp2`, `qp3`, `qa100` over the first addresses the initial
/// mempool pays.
pub fn constraint_texts(addresses: &[String]) -> Vec<String> {
    let mut texts = vec![
        "q() <- TxIn(p1, s1, k, a1, n1, g1), TxIn(p2, s2, k, a2, n2, g2), n1 != n2".to_string(),
        "q() <- TxOut(n1, s1, k, a), TxIn(n1, s1, k, a, n2, g)".to_string(),
    ];
    for i in 0..30 {
        let a = &addresses[i % addresses.len()];
        let b = &addresses[(i + 1) % addresses.len()];
        texts.push(match i % 4 {
            0 => qs_text(a),
            1 => qp_text(2, a, a),
            2 => qp_text(3, a, b),
            _ => qa_text(100, a),
        });
    }
    texts
}

struct Live {
    session: MonitorSession,
    dir: PathBuf,
    /// Latest verdict per registered constraint.
    verdicts: Vec<Option<Verdict>>,
}

impl Live {
    fn note(&mut self, fresh: Vec<bcdb_monitor::ConstraintVerdict>) -> bool {
        let mut definite = true;
        for cv in fresh {
            let slot: usize = cv.name[1..].parse().expect("constraints are named c<slot>");
            definite &= cv.verdict.is_definite();
            self.verdicts[slot] = Some(cv.verdict);
        }
        definite
    }
}

/// A durable session holding the tape's initial state, every constraint
/// registered and checked once.
fn open_session(tape: &Tape, texts: &[String]) -> Live {
    let dir = scratch_dir("monitor");
    let mut session = MonitorSession::new(tape.catalog.clone(), tape.constraints.clone());
    session.attach_journal(Journal::create(dir.join("journal.log")).expect("journal is creatable"));
    session.attach_backend(Box::new(
        DiskBackend::new(&dir).expect("store is creatable"),
    ));
    for (i, text) in texts.iter().enumerate() {
        session.register(format!("c{i}"), parse(text, &tape.catalog));
    }
    session
        .apply(&tape.resync_event())
        .expect("the initial state applies");
    let mut live = Live {
        session,
        dir,
        verdicts: vec![None; texts.len()],
    };
    let fresh = live.session.recheck_dirty();
    live.note(fresh);
    live
}

fn apply_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Arrive | Kind::Canary => "monitor.MonitorSession::apply[arrive]",
        Kind::Evict => "monitor.MonitorSession::apply[evict]",
        Kind::Mined => "monitor.MonitorSession::apply[mined]",
        Kind::Reorg => "monitor.MonitorSession::apply[reorg]",
    }
}

struct LegOut {
    leg: Leg,
    /// Ops whose event failed to apply or left an `Unknown` verdict.
    bad_ops: u64,
    errors: Vec<String>,
    /// Events applied.
    events: u64,
    journal_bytes: u64,
    disk_bytes: u64,
    /// `MonitorStats` before and after each session's share of the leg.
    stats: Vec<(MonitorStats, MonitorStats)>,
}

fn leg(tape: &Tape, texts: &[String], live: &mut Live, stop: &Stop, tr: &mut Tracer) -> LegOut {
    let mut out = LegOut {
        leg: Leg::default(),
        bad_ops: 0,
        errors: Vec::new(),
        events: 0,
        journal_bytes: 0,
        disk_bytes: 0,
        stats: Vec::new(),
    };
    let journal_len =
        |live: &Live| std::fs::metadata(live.dir.join("journal.log")).map_or(0, |m| m.len());
    let mut journal0 = journal_len(live);
    let mut stats0 = live.session.stats();
    let mut wall = 0.0;
    let mut cpu = 0.0;
    let mut done = 0usize;
    'tape: loop {
        let pass = timed_leg(|leg| {
            for step in &tape.steps {
                tr.begin_op("harness.op");
                let t = Instant::now();
                let applied = tr.span(apply_span(step.kind), || live.session.apply(&step.event));
                let fresh = tr.span("monitor.MonitorSession::recheck_dirty", || {
                    live.session.recheck_dirty()
                });
                leg.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                tr.end();
                let definite = live.note(fresh);
                if let Err(e) = &applied {
                    out.errors
                        .push(format!("event {done} {:?}: {e}", step.kind));
                }
                if applied.is_err() || !definite {
                    out.bad_ops += 1;
                }
                done += 1;
                if stop.ops_done(done) || stop.time_done() {
                    break;
                }
            }
        });
        wall += pass.wall_s;
        cpu += pass.cpu_ms;
        out.leg.lat_ms.extend(pass.lat_ms);
        out.events = done as u64;
        out.journal_bytes += journal_len(live) - journal0;
        out.disk_bytes += sys::dir_bytes(&live.dir);
        out.stats.push((stats0, live.session.stats()));
        if stop.ops_done(done) || stop.time_done() {
            break 'tape;
        }
        // The tape ran out first: a fresh session, and from the top. Not
        // a set-up `setup_s` counts: it generates no tape.
        remove_scratch(&live.dir);
        *live = open_session(tape, texts);
        journal0 = journal_len(live);
        stats0 = live.session.stats();
    }
    out.leg.attempted = done as u64;
    out.leg.wall_s = wall;
    out.leg.cpu_ms = cpu;
    out
}

/// What recovery from the store reported.
struct Recovered {
    ms: f64,
    wal_tail_records: f64,
}

/// The untimed correctness check: every live verdict equals a cold
/// `Solver` over the final state, and `MonitorSession::recover` from the
/// store reproduces epoch and pending names.
fn verify(tape: &Tape, texts: &[String], mut live: Live) -> (Vec<String>, Recovered) {
    let mut errors = Vec::new();
    let mut cold = Solver::builder(live.session.bcdb().clone()).build();
    for (i, text) in texts.iter().enumerate() {
        let dc = parse(text, &tape.catalog);
        let want = cold.check(&dc).map(|o| o.verdict.satisfied());
        let got = live.verdicts[i].as_ref().map(|v| v.satisfied());
        if want.as_ref().ok() != got.as_ref() {
            errors.push(format!(
                "constraint {i} {text}: live {got:?}, cold {want:?}"
            ));
        }
    }
    let epoch = live.session.epoch();
    let names: Vec<String> = live
        .session
        .pending_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    if let Err(e) = live.session.sync_journal() {
        errors.push(format!("journal sync: {e}"));
    }
    let dir = live.dir.clone();
    drop(live);
    let mut recovered = Recovered {
        ms: 0.0,
        wal_tail_records: 0.0,
    };
    let t = Instant::now();
    match DiskBackend::new(&dir)
        .map_err(|e| e.to_string())
        .and_then(|b| {
            MonitorSession::recover(
                tape.catalog.clone(),
                tape.constraints.clone(),
                dir.join("journal.log"),
                Box::new(b),
            )
            .map_err(|e| e.to_string())
        }) {
        Err(e) => errors.push(format!("recovery: {e}")),
        Ok((session, report)) => {
            recovered.ms = t.elapsed().as_secs_f64() * 1e3;
            recovered.wal_tail_records = report.wal_tail_records as f64;
            if session.epoch() != epoch {
                errors.push(format!("recovered epoch {}, live {epoch}", session.epoch()));
            }
            if session.pending_names() != names {
                errors.push("recovered pending names differ from the live session's".to_string());
            }
        }
    }
    remove_scratch(&dir);
    (errors, recovered)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let events = if opts.smoke {
        TAPE_EVENTS / 20
    } else {
        TAPE_EVENTS
    };
    let setup = || {
        let tape = tape::build(opts.seed, events, false);
        let texts = constraint_texts(&tape.addresses);
        let live = open_session(&tape, &texts);
        (tape, texts, live)
    };
    let ((tape, texts, mut live), first_s) = timed(setup);

    let reference = opts.trace.then(|| {
        let stop = Stop::new(opts.seconds / 4.0, opts.ops);
        let out = leg(&tape, &texts, &mut live, &stop, &mut Tracer::new(false));
        remove_scratch(&live.dir);
        live = open_session(&tape, &texts);
        out.leg
    });

    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        Probes::start();
    }
    let stop = Stop::new(opts.seconds, opts.ops);
    let mut out = leg(&tape, &texts, &mut live, &stop, &mut tracer);
    let probes = opts.trace.then(Probes::stop);

    let sample_block: Vec<_> = tape
        .steps
        .iter()
        .find_map(|s| match &s.event {
            ChainEvent::TxMinedDelta { appended, .. } => Some(appended.clone()),
            _ => None,
        })
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(rel, t)| tape.catalog.resolve(&rel).map(|r| (r, t)))
        .collect();
    let final_db = live.session.bcdb().clone();
    let (verify_errors, recovered) = verify(&tape, &texts, live);
    out.errors.extend(verify_errors);

    let over_limit = out.leg.lat_ms.iter().filter(|&&l| l > LIMIT_MS).count() as u64;
    let failed = (out.bad_ops + over_limit).min(out.leg.attempted);
    let mut e2e = end_to_end(&out.leg, out.leg.attempted - failed);
    let teardown = |(_, _, live): (Tape, Vec<String>, Live)| remove_scratch(&live.dir);
    e2e.set("setup_s", setup_s(opts, first_s, setup, teardown));
    let n_events = out.events.max(1) as f64;

    let mut share_table = String::new();
    let layers = probes.map(|p| {
        let mut v = Values::layers();
        let sum = |f: fn(&MonitorStats) -> u64| {
            out.stats.iter().map(|(a, b)| f(b) - f(a)).sum::<u64>() as f64
        };
        let checks = sum(|s| s.rechecks);
        fill_from_probes(&mut v, &p, checks);
        v.set(
            "graph.cliques_per_check",
            p.count("graph.cliques_emitted") / checks.max(1.0),
        );
        v.set(
            "core.worlds_per_check",
            p.count("query.worlds_evaluated") / checks.max(1.0),
        );
        v.set(
            "core.precheck_short_ratio",
            p.count("core.precheck_short_circuits") / checks.max(1.0),
        );
        let hints = sum(|s| s.base_hints_supplied);
        v.set(
            "core.base_cache_hit_ratio",
            hints / (hints + sum(|s| s.base_probes)).max(1.0),
        );
        v.set(
            "governor.unknown_ratio",
            sum(|s| s.unknown_verdicts) / checks.max(1.0),
        );
        replay_layers(&mut v, &final_db, &texts, &sample_block);

        for (kind, name) in [
            (Kind::Arrive, "monitor.apply_us.arrive"),
            (Kind::Evict, "monitor.apply_us.evict"),
            (Kind::Mined, "monitor.apply_us.mined"),
            (Kind::Reorg, "monitor.apply_us.reorg"),
        ] {
            v.set(name, tracer.mean_us(apply_span(kind)));
        }
        v.set(
            "monitor.recheck_us",
            tracer.mean_us("monitor.MonitorSession::recheck_dirty"),
        );
        v.set("monitor.rechecks_per_event", checks / n_events);
        let skipped = sum(|s| s.rechecks_skipped);
        v.set(
            "monitor.rechecks_skipped_ratio",
            skipped / (skipped + checks).max(1.0),
        );
        v.set(
            "monitor.delta_apply_us",
            sum(|s| s.delta_apply_ns) / sum(|s| s.delta_applies).max(1.0) / 1e3,
        );
        v.set(
            "monitor.journal_append_us",
            p.mean_ns("monitor.journal_append_ns") / 1e3,
        );
        v.set(
            "monitor.journal_bytes_per_event",
            out.journal_bytes as f64 / n_events,
        );
        v.set("monitor.fallbacks", sum(|s| s.apply_fallbacks));
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        for step in tape.steps.iter().take(200) {
            let t = Instant::now();
            let line = step.event.encode();
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = ChainEvent::decode(&line);
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(back.is_ok(), "tape events round-trip through the codec");
        }
        v.set("monitor.event_encode_us", median(&enc));
        v.set("monitor.event_decode_us", median(&dec));
        let snapshots = sum(|s| s.snapshots_persisted);
        v.set(
            "storage.snapshot_write_ms",
            p.mean_ns("storage.snapshot_write_ns") / 1e6,
        );
        v.set(
            "storage.snapshot_kb",
            p.count("storage.snapshot_bytes_written") / snapshots.max(1.0) / 1024.0,
        );
        v.set("storage.snapshots_per_event", snapshots / n_events);
        v.set("storage.recovery_ms", recovered.ms);
        v.set("storage.wal_tail_records", recovered.wal_tail_records);
        v.set(
            "storage.disk_kb_per_op",
            out.disk_bytes as f64 / 1024.0 / n_events,
        );

        let totals = tracer.totals();
        let op = totals.get("harness.op").copied().unwrap_or_default();
        let recheck_ns = tracer.total_ns("monitor.MonitorSession::recheck_dirty") as f64;
        let snapshot_ns = p.sum_ns("storage.snapshot_write_ns");
        v.set(
            "monitor.snapshot_share",
            snapshot_ns / (op.total_ns as f64).max(1.0),
        );
        v.set(
            "core.check_self_ms",
            (recheck_ns - solver_phase_ns(&p)) / checks.max(1.0) / 1e6,
        );
        let mut table = ShareTable::new(op.total_ns as f64);
        table.row("harness (loop, spans)", op.self_ns as f64);
        // `monitor.apply_ns` is the session's own clock around an arrival's
        // or eviction's whole body and around a block's delta apply.
        table.row(
            "monitor  apply body (delta apply, dirty marking)",
            p.sum_ns("monitor.apply_ns"),
        );
        table.row(
            "monitor  journal append",
            p.sum_ns("monitor.journal_append_ns"),
        );
        table.row("storage  snapshot write", snapshot_ns);
        phase_rows(&mut table, &p);
        v.set("harness.unexplained_ratio", table.unexplained_ratio());
        share_table = table.render(
            "monitor_stream",
            "apply and recheck_dirty outside every probe — persist, route, prepare, pre-check",
        );
        super::fill_harness(&mut v, &out.leg, reference.as_ref(), failed);
        super::write_trace("monitor_stream", &tracer, &p);
        v
    });

    Outcome {
        e2e,
        extra: Values::extra(
            failed,
            out.leg.attempted,
            out.disk_bytes as f64 / 1024.0 / n_events,
        ),
        layers,
        attempted: out.leg.attempted,
        failed,
        errors: out.errors,
        input_hash: tape.hash.clone(),
        share_table,
    }
}

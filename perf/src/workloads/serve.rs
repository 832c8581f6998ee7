//! `serve_tcp`: the serving version of the paper's question, over the real
//! wire. Open loop: events are sent on a fixed schedule whether or not the
//! server keeps up, and a verdict's latency is timed from when its event
//! was *due*, so a stall shows as latency rather than as fewer requests.
//!
//! `ServerCore::open` + `serve()` on `127.0.0.1:0` inside the benchmark
//! process, all defaults. A *feeder* connection sends `event` frames on
//! the schedule (a sender thread and an ack-reader thread: sends never wait
//! for acks). It also holds 4 tenants × 12 subscriptions: per tenant 6
//! alpha-renamed duplicates of 6 shapes shared by every tenant (shared
//! cache hits) and 6 with the tenant's own constants (bypass). Every shape
//! is one the solver answers in microseconds, so a solver-kernel win
//! should not move this workload. Four *subscriber* connections each hold
//! 8 `notify:true` canary subscriptions `qs('pkCANARY<k>')`. The tape
//! alternates a background event with a canary toggle that flips canary
//! `k` on every subscriber. Verdict latency = due time → the subscriber has
//! read the `notify` line.
//!
//! Four subscribers, not one, because `net.rs` pushes notifications on
//! each connection's own 250 ms read-timeout tick: one connection would
//! sample that phase once per event, and the median of so few uniform
//! waits would not repeat. And 80 subscriptions, not several hundred,
//! because an event costs the server about half a millisecond per
//! subscription: more of them means fewer events per measured second.

use crate::inputs::{parse, qp_text, qr_text, qs_text, Rng};
use crate::layers::fill_from_probes;
use crate::run::{
    end_to_end, mean, median, quantile, remove_scratch, scratch_dir, setup_s, sorted, timed,
    timed_leg, Leg, Opts, Outcome, ShareTable, Stop,
};
use crate::spec::Values;
use crate::tape::{self, canary_address, Step, Tape, CANARIES};
use crate::trace::{Probes, Tracer};
use bcdb_core::{BudgetSpec, RetryPolicy, SharedEnumCache, Solver};
use bcdb_monitor::{ChainEvent, MonitorSession, RoundCheck};
use bcdb_server::wire::{self, Scalar};
use bcdb_server::{
    serve, NetConfig, NetSummary, Notification, ServeConfig, ServeStats, ServerCore, ShutdownFlag,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mean event rate, frozen. Calibrated once on the seed commit so that the
/// server is busy 40–50 % of the time (`server.core_busy_ratio`); see
/// README.md before touching it.
pub const RATE_PER_S: f64 = 10.0;
/// Events on the tape: a minute at the frozen rate. A run uses the prefix
/// its schedule covers, so the tape does not depend on the run length.
pub const TAPE_EVENTS: usize = 620;
const TENANTS: usize = 4;
const SUBS_PER_TENANT: usize = 12;
const SUBSCRIBERS: usize = 4;
const LIMIT_MS: f64 = 1000.0;

/// The 192 tenant subscriptions as `(tenant, name, constraint)`.
pub fn tenant_subscriptions(addresses: &[String]) -> Vec<(String, String, String)> {
    let a = |i: usize| addresses[i % addresses.len()].as_str();
    let mut subs = Vec::new();
    for t in 0..TENANTS {
        for j in 0..SUBS_PER_TENANT {
            let text = if j < SUBS_PER_TENANT / 2 {
                // One of six shapes every tenant subscribes, with the
                // variables renamed per tenant and slot.
                let v = format!("t{t}j{j}");
                match j % 6 {
                    0 => format!("q() <- TxOut(n{v}, s{v}, '{}', a{v})", a(0)),
                    1 => format!(
                        "q() <- TxOut(n{v}, s{v}, '{x}', a{v}), TxIn(n{v}, s{v}, '{x}', a{v}, m{v}, g{v})",
                        x = a(1)
                    ),
                    2 => qp_text(3, a(2), a(3)).replace("ntx", &format!("x{v}n")),
                    3 => format!(
                        "q() <- TxIn(p{v}, s{v}, k{v}, a{v}, n{v}, g{v}), \
                         TxIn(pp{v}, ss{v}, k{v}, aa{v}, nn{v}, gg{v}), n{v} != nn{v}"
                    ),
                    4 => format!(
                        "q() <- TxOut(n{v}, s{v}, k{v}, a{v}), TxIn(n{v}, s{v}, k{v}, a{v}, m{v}, g{v})"
                    ),
                    _ => qr_text(2, a(4)).replace("ntx", &format!("y{v}n")),
                }
            } else {
                let x = a(5 + t * SUBS_PER_TENANT + j);
                let y = a(5 + t * SUBS_PER_TENANT + j + 7);
                match j % 4 {
                    0 => qs_text(x),
                    1 => qp_text(2, x, x),
                    2 => qp_text(3, x, y),
                    _ => qr_text(2, x),
                }
            };
            subs.push((format!("tenant{t}"), format!("s{j}"), text));
        }
    }
    subs
}

// ---- the server, in process ----

struct Server {
    addr: SocketAddr,
    core: Arc<Mutex<ServerCore>>,
    thread: JoinHandle<std::io::Result<NetSummary>>,
    dir: PathBuf,
}

fn start_server(tape: &Tape) -> Server {
    let dir = scratch_dir("serve");
    let core = ServerCore::open(
        tape.catalog.clone(),
        tape.constraints.clone(),
        &dir,
        ServeConfig::default(),
    )
    .expect("store is creatable");
    let core = Arc::new(Mutex::new(core));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback is bindable");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let shutdown = ShutdownFlag::new();
    let thread = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || serve(core, listener, shutdown, NetConfig::default()))
    };
    Server {
        addr,
        core,
        thread,
        dir,
    }
}

// ---- a wire client ----

type Frame = BTreeMap<String, Scalar>;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn frame_str<'a>(f: &'a Frame, key: &str) -> &'a str {
    match f.get(key) {
        Some(Scalar::Str(s)) => s,
        _ => "",
    }
}

fn frame_num(f: &Frame, key: &str) -> i64 {
    match f.get(key) {
        Some(Scalar::Num(n)) => *n,
        _ => -1,
    }
}

fn frame_ok(f: &Frame) -> bool {
    f.get("ok") == Some(&Scalar::Bool(true))
}

/// The next frame on `reader`, or `None` when `timeout` passes without a
/// complete line (a partial line stays buffered) or the peer closed.
fn read_frame(reader: &mut BufReader<TcpStream>, timeout: Duration) -> Option<Frame> {
    reader
        .get_ref()
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return None,
            Ok(_) if line.ends_with('\n') => {
                return Some(wire::parse_flat(line.trim_end()).expect("server frames parse"))
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if line.is_empty() {
                    return None;
                }
            }
            Err(e) => panic!("socket read: {e}"),
        }
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("server accepts connections");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let writer = stream.try_clone().expect("socket clone");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("server reads what the client sends");
    }

    fn read(&mut self, timeout: Duration) -> Option<Frame> {
        read_frame(&mut self.reader, timeout)
    }

    /// Sends a request and returns its response, skipping pushed
    /// notifications.
    fn request(&mut self, line: &str) -> Frame {
        self.send(line);
        loop {
            let f = self
                .read(Duration::from_secs(30))
                .expect("server answers every request");
            if !f.contains_key("op") {
                return f;
            }
        }
    }
}

fn event_line(event: &ChainEvent) -> String {
    wire::Line::new()
        .str("op", "event")
        .str("payload", &event.encode())
        .finish()
}

fn subscribe_line(tenant: &str, name: &str, constraint: &str, notify: bool) -> String {
    wire::Line::new()
        .str("op", "subscribe")
        .str("tenant", tenant)
        .str("name", name)
        .str("constraint", constraint)
        .bool("notify", notify)
        .finish()
}

// ---- set-up ----

struct Rig {
    server: Server,
    feeder: Client,
    subscribers: Vec<Client>,
    /// Every subscription as `(sub id, constraint text)`.
    subs: Vec<(u64, String)>,
    /// `canary_subs[c][k]` = sub id of canary `k` on subscriber `c`.
    canary_subs: Vec<Vec<u64>>,
    subscribe_us: Vec<f64>,
}

/// Server start, every subscription, the initial state as a resync event,
/// and the first round's notifications read: the state before the first
/// scheduled event.
fn rig(tape: &Tape) -> Rig {
    let server = start_server(tape);
    let mut feeder = Client::connect(server.addr);
    let mut subs = Vec::new();
    let mut subscribe_us = Vec::new();
    for (tenant, name, text) in tenant_subscriptions(&tape.addresses) {
        let t = Instant::now();
        let f = feeder.request(&subscribe_line(&tenant, &name, &text, false));
        subscribe_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(frame_ok(&f), "subscribe refused: {f:?}");
        subs.push((frame_num(&f, "sub") as u64, text));
    }
    let mut subscribers = Vec::new();
    let mut canary_subs = Vec::new();
    for c in 0..SUBSCRIBERS {
        let mut client = Client::connect(server.addr);
        let mut ids = Vec::new();
        for k in 0..CANARIES {
            let text = qs_text(&canary_address(k));
            let f = client.request(&subscribe_line(
                &format!("watch{c}"),
                &format!("canary{k}"),
                &text,
                true,
            ));
            assert!(frame_ok(&f), "subscribe refused: {f:?}");
            ids.push(frame_num(&f, "sub") as u64);
            subs.push((ids[k], text));
        }
        subscribers.push(client);
        canary_subs.push(ids);
    }
    let f = feeder.request(&event_line(&tape.resync_event()));
    assert!(frame_ok(&f), "resync refused: {f:?}");
    // The first round turned every canary from `pending` to `holds`.
    for client in &mut subscribers {
        for _ in 0..CANARIES {
            let f = client
                .read(Duration::from_secs(5))
                .expect("initial canary notification");
            assert_eq!(frame_str(&f, "verdict"), "holds", "canary starts satisfied");
        }
    }
    Rig {
        server,
        feeder,
        subscribers,
        subs,
        canary_subs,
        subscribe_us,
    }
}

/// Graceful shutdown over the wire; joins the server thread.
fn stop(mut rig: Rig) -> Result<NetSummary, String> {
    let f = rig.feeder.request(r#"{"op":"shutdown"}"#);
    if !frame_ok(&f) {
        return Err(format!("shutdown refused: {f:?}"));
    }
    drop(rig.subscribers);
    drop(rig.feeder);
    let summary = rig
        .server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string());
    remove_scratch(&rig.server.dir);
    summary
}

// ---- the measured leg ----

struct LegOut {
    leg: Leg,
    /// Events sent.
    sent: usize,
    ok_events: u64,
    errors: Vec<String>,
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    notify_wait_ms: Vec<f64>,
    poll_rtt_us: Vec<f64>,
    backlog_max: usize,
    busy_s: f64,
    lost: u64,
}

/// `n` due times on `[0, seconds)`: a Poisson process conditioned on its
/// count, so every run offers the same load.
fn schedule(seed: u64, n: usize, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x5c4ed);
    sorted(
        &(0..n)
            .map(|_| (1.0 - rng.unit()) * seconds)
            .collect::<Vec<_>>(),
    )
}

fn leg(
    rig: &mut Rig,
    tape: &Tape,
    seed: u64,
    stop: &Stop,
    seconds: f64,
    poller: bool,
    tr: &mut Tracer,
) -> LegOut {
    let n = stop
        .max_ops()
        .unwrap_or((RATE_PER_S * seconds).round() as usize)
        .clamp(1, tape.steps.len());
    let span_s = n as f64 / RATE_PER_S;
    let due = schedule(seed, n, span_s);
    let steps = &tape.steps[..n];
    let lines: Vec<String> = steps.iter().map(|s| event_line(&s.event)).collect();
    let expected = SUBSCRIBERS * steps.iter().filter(|s| s.canary.is_some()).count();

    let done = AtomicBool::new(false);
    let notified = AtomicUsize::new(0);
    let sent_count = AtomicUsize::new(0);
    let acked_count = AtomicUsize::new(0);
    let backlog_max = AtomicUsize::new(0);
    let mut send_t = vec![Duration::ZERO; n];
    let mut acks: Vec<(Duration, Frame)> = Vec::new();
    let mut notes: Vec<Vec<(Duration, u64, String)>> = vec![Vec::new(); SUBSCRIBERS];
    let mut poll_rtt_us = Vec::new();
    let mut sender_tracer = Tracer::new(tr.on());
    let addr = rig.server.addr;
    let poll_sub = rig.subs[0].0;

    let Rig {
        feeder,
        subscribers,
        ..
    } = rig;
    let Client { writer, reader } = feeder;
    let t0 = Instant::now();
    let mut wall_s = 0.0;
    let leg = timed_leg(|_| {
        std::thread::scope(|scope| {
            // Subscribers: read pushed notifications as they come.
            for (client, out) in subscribers.iter_mut().zip(notes.iter_mut()) {
                let (done, notified) = (&done, &notified);
                scope.spawn(move || {
                    while !done.load(Ordering::SeqCst) {
                        if let Some(f) = client.read(Duration::from_millis(50)) {
                            let at = t0.elapsed();
                            if frame_str(&f, "op") == "notify" {
                                out.push((
                                    at,
                                    frame_num(&f, "sub") as u64,
                                    frame_str(&f, "verdict").to_string(),
                                ));
                                notified.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
            // Ack reader: one response per event, in order.
            let acks = &mut acks;
            let (acked_count, sent_count, backlog_max) = (&acked_count, &sent_count, &backlog_max);
            scope.spawn(move || {
                for _ in 0..n {
                    let Some(f) = read_frame(reader, Duration::from_secs(60)) else {
                        break;
                    };
                    acks.push((t0.elapsed(), f));
                    acked_count.fetch_add(1, Ordering::SeqCst);
                }
            });
            // A poller (traced runs only): how long a poll waits for the
            // core mutex while rounds run.
            if poller {
                let (done, poll_rtt_us) = (&done, &mut poll_rtt_us);
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let line = format!(r#"{{"op":"poll","sub":{poll_sub}}}"#);
                    while !done.load(Ordering::SeqCst) {
                        let t = Instant::now();
                        client.request(&line);
                        poll_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                });
            }
            // Sender: this thread. Never waits for an ack.
            for i in 0..n {
                let due_at = Duration::from_secs_f64(due[i]);
                if let Some(wait) = due_at.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                sender_tracer.begin_op("harness.send");
                send_t[i] = t0.elapsed();
                writer
                    .write_all(format!("{}\n", lines[i]).as_bytes())
                    .expect("server reads what the feeder sends");
                sender_tracer.end();
                let sent = sent_count.fetch_add(1, Ordering::SeqCst) + 1;
                backlog_max.fetch_max(sent - acked_count.load(Ordering::SeqCst), Ordering::SeqCst);
            }
            // Every ack, then every expected notification (or a second's
            // grace for the ones that will never come).
            let grace = Instant::now();
            while acked_count.load(Ordering::SeqCst) < n
                && grace.elapsed() < Duration::from_secs(60)
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            let grace = Instant::now();
            while notified.load(Ordering::SeqCst) < expected
                && grace.elapsed() < Duration::from_secs(1)
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            wall_s = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
        });
    });
    tr.absorb(sender_tracer);

    // Match acks to events (in order) and notifications to toggles (per
    // subscription, in order).
    let mut out = LegOut {
        // Up to the last ack or notification; not the threads winding down.
        leg: Leg {
            attempted: n as u64,
            wall_s,
            ..leg
        },
        sent: n,
        ok_events: 0,
        errors: Vec::new(),
        ack_ms: Vec::new(),
        lag_ms: Vec::new(),
        notify_wait_ms: Vec::new(),
        poll_rtt_us,
        backlog_max: backlog_max.load(Ordering::SeqCst),
        busy_s: 0.0,
        lost: 0,
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut event_ok = vec![true; n];
    let mut prev_ack = Duration::ZERO;
    for i in 0..n {
        out.lag_ms.push(ms(send_t[i]) - due[i] * 1e3);
        match acks.get(i) {
            Some((at, f)) => {
                out.ack_ms.push(ms(*at) - due[i] * 1e3);
                out.busy_s += (*at - send_t[i].max(prev_ack)).as_secs_f64();
                prev_ack = *at;
                if !frame_ok(f) || frame_num(f, "refused") != 0 {
                    event_ok[i] = false;
                    if !frame_ok(f) {
                        out.errors.push(format!("event {i} refused: {f:?}"));
                    }
                }
            }
            None => {
                event_ok[i] = false;
                out.errors.push(format!("event {i} was never acknowledged"));
            }
        }
    }
    for (c, (read, ids)) in notes.iter().zip(&rig.canary_subs).enumerate() {
        for (k, &sub) in ids.iter().enumerate() {
            let mut got = read.iter().filter(|n| n.1 == sub);
            let mut live = false;
            for (i, _) in steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.canary == Some(k))
            {
                live = !live;
                let want = if live { "violated" } else { "holds" };
                match got.next() {
                    Some((at, _, verdict)) if verdict == want => {
                        let lat = ms(*at) - due[i] * 1e3;
                        out.leg.lat_ms.push(lat);
                        if let Some((ack_at, _)) = acks.get(i) {
                            out.notify_wait_ms.push(ms(*at) - ms(*ack_at));
                        }
                        if lat > LIMIT_MS {
                            event_ok[i] = false;
                        }
                    }
                    Some((_, _, verdict)) => {
                        event_ok[i] = false;
                        out.errors.push(format!(
                            "subscriber {c} canary {k}: notified {verdict:?}, expected {want:?}"
                        ));
                    }
                    None => {
                        event_ok[i] = false;
                        out.lost += 1;
                    }
                }
            }
        }
    }
    out.ok_events = event_ok.iter().filter(|ok| **ok).count() as u64;
    out
}

/// The untimed correctness check: a final `poll` of every subscription
/// equals a cold `Solver` over the state the sent events produce.
fn verify(rig: &mut Rig, tape: &Tape, sent: &[Step]) -> (Vec<String>, Vec<f64>) {
    let mut errors = Vec::new();
    let mut reference = MonitorSession::new(tape.catalog.clone(), tape.constraints.clone());
    reference
        .apply(&tape.resync_event())
        .expect("the initial state applies");
    for step in sent {
        if let Err(e) = reference.apply(&step.event) {
            errors.push(format!("reference session: {e}"));
        }
    }
    let mut cold = Solver::builder(reference.bcdb().clone()).build();
    let mut poll_us = Vec::new();
    for (sub, text) in &rig.subs {
        let t = Instant::now();
        let f = rig
            .feeder
            .request(&format!(r#"{{"op":"poll","sub":{sub}}}"#));
        poll_us.push(t.elapsed().as_secs_f64() * 1e6);
        let want = match cold
            .check(&parse(text, &tape.catalog))
            .map(|o| o.verdict.satisfied())
        {
            Ok(Some(true)) => "holds",
            Ok(Some(false)) => "violated",
            _ => "unknown",
        };
        let got = frame_str(&f, "verdict");
        if got != want {
            errors.push(format!(
                "sub {sub} {text}: polled {got:?}, cold solver {want:?}"
            ));
        }
    }
    (errors, poll_us)
}

// ---- isolated replays (traced run) ----

/// Replays the first events on a second, in-process `ServerCore` with a
/// span around every call, which the TCP path does not allow.
fn replay_core(v: &mut Values, tape: &Tape, sent: &[Step], tr: &mut Tracer) {
    let dir = scratch_dir("serve-replay");
    let mut core = ServerCore::open(
        tape.catalog.clone(),
        tape.constraints.clone(),
        &dir,
        ServeConfig::default(),
    )
    .expect("store is creatable");
    let mut ids = Vec::new();
    for (tenant, name, text) in tenant_subscriptions(&tape.addresses) {
        let id = tr.span("server.ServerCore::subscribe", || {
            core.subscribe(&tenant, &name, &text, 1, false)
        });
        ids.push(id.expect("subscribe"));
    }
    for c in 0..SUBSCRIBERS {
        for k in 0..CANARIES {
            let id = core.subscribe(
                &format!("watch{c}"),
                &format!("canary{k}"),
                &qs_text(&canary_address(k)),
                1,
                true,
            );
            ids.push(id.expect("subscribe"));
        }
    }
    core.ingest(&tape.resync_event()).expect("resync");
    core.run_round();
    core.take_notifications(&ids, usize::MAX);
    let (mut checks, mut workers, mut rounds) = (0.0, 0.0, 0.0f64);
    for step in sent.iter().take(40) {
        tr.begin_op("harness.replay");
        tr.span("server.ServerCore::ingest", || core.ingest(&step.event))
            .expect("replayed event applies");
        let r = tr.span("server.ServerCore::run_round", || core.run_round());
        tr.span("server.ServerCore::take_notifications", || {
            core.take_notifications(&ids, 256)
        });
        tr.span("server.ServerCore::poll", || core.poll(ids[0]))
            .expect("poll");
        tr.end();
        checks += r.checks as f64;
        workers += r.workers as f64;
        rounds += 1.0;
    }
    v.set("server.ingest_us", tr.mean_us("server.ServerCore::ingest"));
    v.set(
        "server.round_ms",
        tr.mean_us("server.ServerCore::run_round") / 1e3,
    );
    v.set("server.round_checks", checks / rounds.max(1.0));
    v.set("server.round_workers", workers / rounds.max(1.0));
    v.set(
        "server.check_cost_us",
        tr.total_ns("server.ServerCore::run_round") as f64 / 1e3 / checks.max(1.0),
    );
    remove_scratch(&dir);
}

/// Replays the first events on a bare session with a shared cache the
/// harness owns, to read `SharedCacheStats` (the server keeps its own
/// private).
fn replay_cache(v: &mut Values, tape: &Tape, sent: &[Step], texts: &[String]) {
    let cache = Arc::new(SharedEnumCache::new());
    let mut session = MonitorSession::new(tape.catalog.clone(), tape.constraints.clone());
    session.attach_shared_cache(Arc::clone(&cache));
    for (i, text) in texts.iter().enumerate() {
        session.register(format!("c{i}"), parse(text, &tape.catalog));
    }
    let round = |session: &mut MonitorSession| {
        let checks: Vec<RoundCheck> = session
            .dirty_indices()
            .into_iter()
            .map(|slot| RoundCheck {
                slot,
                budget: BudgetSpec::UNLIMITED,
                retry: RetryPolicy::NONE,
            })
            .collect();
        session.recheck_round(&checks, crate::sys::nproc());
    };
    session.apply(&tape.resync_event()).expect("resync");
    round(&mut session);
    let before = cache.stats();
    let mut events = 0.0f64;
    for step in sent.iter().take(30) {
        session.apply(&step.event).expect("replayed event applies");
        round(&mut session);
        events += 1.0;
    }
    let s = cache.stats();
    let hits = (s.clique_hits - before.clique_hits) as f64;
    let misses = (s.clique_misses - before.clique_misses) as f64;
    let checks = (session.stats().rechecks as f64).max(1.0);
    v.set(
        "core.cache.clique_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    v.set(
        "core.cache.verdict_hit_ratio",
        (s.verdict_hits - before.verdict_hits) as f64 / checks,
    );
    v.set(
        "core.cache.invalidated_per_event",
        (s.invalidated_entries - before.invalidated_entries) as f64 / events.max(1.0),
    );
    v.set(
        "core.cache.generations_per_event",
        (s.generations - before.generations) as f64 / events.max(1.0),
    );
}

fn replay_wire(v: &mut Values, lines: &[String]) {
    let mut parse_us = Vec::new();
    for line in lines {
        let t = Instant::now();
        let parsed = wire::parse_request(line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(parsed.is_ok(), "the feeder's own frames parse");
    }
    v.set("server.wire.parse_us", median(&parse_us));
    let note = Notification {
        sub: 17,
        tenant: "watch0".to_string(),
        name: "canary3".to_string(),
        verdict: "violated",
        reason: None,
        epoch: 42,
    };
    let t = Instant::now();
    for _ in 0..1000 {
        std::hint::black_box(wire::notify_line(&note));
    }
    v.set(
        "server.wire.encode_us",
        t.elapsed().as_secs_f64() * 1e6 / 1000.0,
    );
}

fn stats_of(rig: &Rig) -> ServeStats {
    rig.server.core.lock().expect("server core mutex").stats()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut errors = Vec::new();
    let setup = || {
        let tape = tape::build(opts.seed, TAPE_EVENTS, true);
        let rig = rig(&tape);
        (tape, rig)
    };
    let ((tape, mut rig), first_s) = timed(setup);

    let mut idle_rtt_us = Vec::new();
    let reference = opts.trace.then(|| {
        for _ in 0..50 {
            let t = Instant::now();
            rig.feeder.request(r#"{"op":"stats"}"#);
            idle_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let stop_at = Stop::new(opts.seconds / 4.0, opts.ops);
        let out = leg(
            &mut rig,
            &tape,
            opts.seed,
            &stop_at,
            opts.seconds / 4.0,
            false,
            &mut Tracer::new(false),
        );
        let old = std::mem::replace(&mut rig, self::rig(&tape));
        if let Err(e) = stop(old) {
            errors.push(e);
        }
        out
    });

    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        Probes::start();
    }
    let stats0 = stats_of(&rig);
    let stop_at = Stop::new(opts.seconds, opts.ops);
    let mut out = leg(
        &mut rig,
        &tape,
        opts.seed,
        &stop_at,
        opts.seconds,
        opts.trace,
        &mut tracer,
    );
    let probes = opts.trace.then(Probes::stop);
    let stats = stats_of(&rig);

    let sent = &tape.steps[..out.sent];
    let (verify_errors, poll_us) = verify(&mut rig, &tape, sent);
    errors.append(&mut out.errors);
    errors.extend(verify_errors);
    let coalesced = stats.coalesced - stats0.coalesced;
    if out.lost > coalesced {
        errors.push(format!(
            "{} notifications lost, {coalesced} coalesced by the server",
            out.lost
        ));
    }
    let disk_kb_per_op =
        crate::sys::dir_bytes(&rig.server.dir) as f64 / 1024.0 / out.leg.attempted.max(1) as f64;
    let subscribe_us = std::mem::take(&mut rig.subscribe_us);
    let all_texts: Vec<String> = rig.subs.iter().map(|(_, t)| t.clone()).collect();
    match stop(rig) {
        Ok(summary) if summary.refused > 0 => {
            errors.push(format!("{} connections refused", summary.refused))
        }
        Ok(_) => {}
        Err(e) => errors.push(e),
    }

    let failed = out.leg.attempted - out.ok_events;
    let mut e2e = end_to_end(&out.leg, out.ok_events);
    let teardown = |(_, rig): (Tape, Rig)| errors.extend(stop(rig).err());
    e2e.set("setup_s", setup_s(opts, first_s, setup, teardown));

    let mut share_table = String::new();
    let layers = probes.map(|p| {
        let mut v = Values::layers();
        let events = (stats.events - stats0.events).max(1) as f64;
        let checks = (stats.checks - stats0.checks) as f64;
        fill_from_probes(&mut v, &p, checks);
        v.set("graph.cliques_per_check", p.count("graph.cliques_emitted") / checks.max(1.0));
        v.set("core.worlds_per_check", p.count("query.worlds_evaluated") / checks.max(1.0));
        v.set(
            "core.precheck_short_ratio",
            p.count("core.precheck_short_circuits") / checks.max(1.0),
        );
        let m = &stats.monitor;
        v.set(
            "governor.unknown_ratio",
            (m.unknown_verdicts - stats0.monitor.unknown_verdicts) as f64 / checks.max(1.0),
        );
        v.set("monitor.rechecks_per_event", checks / events);
        v.set(
            "monitor.delta_apply_us",
            (m.delta_apply_ns - stats0.monitor.delta_apply_ns) as f64
                / ((m.delta_applies - stats0.monitor.delta_applies).max(1)) as f64
                / 1e3,
        );
        v.set("monitor.journal_append_us", p.mean_ns("monitor.journal_append_ns") / 1e3);
        v.set("monitor.fallbacks", (m.apply_fallbacks - stats0.monitor.apply_fallbacks) as f64);
        let snapshots = (m.snapshots_persisted - stats0.monitor.snapshots_persisted) as f64;
        v.set("storage.snapshot_write_ms", p.mean_ns("storage.snapshot_write_ns") / 1e6);
        v.set(
            "storage.snapshot_kb",
            p.count("storage.snapshot_bytes_written") / snapshots.max(1.0) / 1024.0,
        );
        v.set("storage.snapshots_per_event", snapshots / events);

        let ack = sorted(&out.ack_ms);
        v.set("server.event_ack_p50_ms", quantile(&ack, 0.5));
        v.set("server.event_ack_p95_ms", quantile(&ack, 0.95));
        v.set("server.notify_wait_ms", median(&out.notify_wait_ms));
        v.set("server.flip_latency_ms", p.mean_ns("server.flip_latency_ns") / 1e6);
        v.set("server.net.rtt_us", median(&idle_rtt_us));
        v.set(
            "server.lock_wait_us",
            (mean(&out.poll_rtt_us) - mean(&idle_rtt_us)).max(0.0),
        );
        v.set("server.core_busy_ratio", out.busy_s / out.leg.wall_s.max(1e-9));
        v.set("server.refusals_per_event", (stats.refusals - stats0.refusals) as f64 / events);
        v.set("server.sheds_per_event", (stats.sheds - stats0.sheds) as f64 / events);
        v.set("server.coalesced", coalesced as f64);
        let hits = (stats.cache_hits - stats0.cache_hits) as f64;
        let misses = (stats.cache_misses - stats0.cache_misses) as f64;
        v.set("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
        v.set("server.subscribe_us", median(&subscribe_us));
        v.set("server.poll_us", median(&poll_us));
        v.set("storage.disk_kb_per_op", disk_kb_per_op);

        replay_core(&mut v, &tape, sent, &mut tracer);
        replay_cache(&mut v, &tape, sent, &all_texts);
        let lines: Vec<String> = sent.iter().take(100).map(|s| event_line(&s.event)).collect();
        replay_wire(&mut v, &lines);

        // Open loop: the verdict latency of a canary event is queueing +
        // wire + ingest + round (all inside the ack) + the wait for the
        // subscriber connection's next push.
        let verdict_ns = out.leg.lat_ms.iter().sum::<f64>() * 1e6;
        let per_sample = out.leg.lat_ms.len() as f64;
        let mut table = ShareTable::new(verdict_ns);
        table.row("server  ingest (replayed in process)", v.get("server.ingest_us") * 1e3 * per_sample);
        table.row("server  round (replayed in process)", v.get("server.round_ms") * 1e6 * per_sample);
        table.row("server  net push wait (verdict − ack)", out.notify_wait_ms.iter().sum::<f64>() * 1e6);
        v.set("harness.unexplained_ratio", table.unexplained_ratio());
        share_table = table.render("serve_tcp (per notification)", "queueing + wire + lock wait");
        if let Some(reference) = &reference {
            share_table.push_str(&format!(
                "  server busy ratio: {:.3} traced (with poller), {:.3} on the untraced reference leg\n",
                out.busy_s / out.leg.wall_s.max(1e-9),
                reference.busy_s / reference.leg.wall_s.max(1e-9),
            ));
        }

        v.set("harness.generator_lag_p95_ms", quantile(&sorted(&out.lag_ms), 0.95));
        v.set("harness.backlog_max", out.backlog_max as f64);
        super::fill_harness(&mut v, &out.leg, None, failed);
        // Acks queue in an open loop, so compare the server's busy time per
        // event instead of the ack latencies.
        if let Some(reference) = &reference {
            let base = reference.busy_s / reference.sent.max(1) as f64;
            if base > 0.0 {
                v.set(
                    "harness.trace_overhead_ratio",
                    out.busy_s / out.sent.max(1) as f64 / base - 1.0,
                );
            }
        }
        super::write_trace("serve_tcp", &tracer, &p);
        v
    });

    Outcome {
        e2e,
        extra: Values::extra(failed, out.leg.attempted, disk_kb_per_op),
        layers,
        attempted: out.leg.attempted,
        failed,
        errors,
        input_hash: tape.hash.clone(),
        share_table,
    }
}

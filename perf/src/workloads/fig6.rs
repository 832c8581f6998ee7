//! `fig6_checks`: the paper's Fig. 6 question on the paper's dataset shape,
//! through the route users actually get.
//!
//! D200 (3,733 pending transactions, 20 contradictions), one `Solver`
//! session with the production defaults, a stream of distinct constraints
//! through `Solver::check` in a fixed mix: per window of ten, five whose
//! query no world satisfies (absent constants: the pre-check answers),
//! three violated cheaply (`qs`, `qp2`, `qr2`, `qr3` over addresses the
//! mempool pays or spends from) and two violated the hard way (`qp3` paths
//! that are false in the current state, and `qa100`, both routed to
//! NaiveDCSat by `Algorithm::Auto`: one clique of a 3.7k-node `GfTd`).

use super::{check_layers, check_leg, Checked};
use crate::inputs::{
    export_hash, generate_export, load_export, parse, qa_text, qp_text, qr_text, qs_text, Picker,
    Rng,
};
use crate::layers::replay_layers;
use crate::run::{end_to_end, median, setup_s, timed, Leg, Opts, Outcome, Stop};
use crate::spec::Values;
use crate::trace::{Probes, Tracer};
use bcdb_chain::{Dataset, RelationalExport, ScenarioConfig};
use bcdb_core::{
    is_possible_world, BlockchainDb, Precomputed, PreparedConstraint, Solver, Verdict,
};
use bcdb_query::DenialConstraint;
use bcdb_storage::TxId;
use std::time::Instant;

/// Ops per window; the time limit is only looked at between windows, so
/// every run measures the same 5/3/2 mix.
const WINDOW: usize = 10;
/// Windows generated; ample for the measured time at several times the
/// seed commit's speed.
const WINDOWS: usize = 100;
const LIMIT_MS: f64 = 2000.0;

/// How a constraint is expected to be answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Satisfied: the pre-check over `R ∪ ⋃T` is false.
    Satisfied,
    /// Violated, decided without enumerating a clique.
    Cheap,
    /// Violated, decided by NaiveDCSat's first maximal world.
    Heavy,
}

/// One op of the pass.
pub struct Op {
    /// The constraint as text.
    pub text: String,
    /// Parsed against the dataset's catalog.
    pub dc: DenialConstraint,
    /// Its regime.
    pub class: Class,
}

/// The generated inputs: dataset and constraint stream.
pub struct Inputs {
    /// The exported scenario.
    pub export: RelationalExport,
    /// The ops in execution order.
    pub ops: Vec<Op>,
    /// One constraint per family and regime, outside `ops`, for the
    /// untimed warm-up.
    pub warmup: Vec<DenialConstraint>,
    /// Hash of dataset and constraint list.
    pub hash: String,
    /// Distinct unsatisfied-cheap constraints available.
    pub cheap_available: usize,
    /// Distinct unsatisfied-heavy constraints available.
    pub heavy_available: usize,
}

/// Generates dataset `cfg` and its constraint stream. The loaded `db` is
/// returned too: classifying `qp3` candidates evaluates them over it.
pub fn inputs(cfg: &ScenarioConfig, windows: usize) -> (Inputs, BlockchainDb) {
    let export = generate_export(cfg);
    let mut db = load_export(&export);
    let mut rng = Rng::new(cfg.seed, 0xf196);
    let picker = Picker::new(&export);
    let catalog = &export.catalog;

    let mut receivers = picker.receivers();
    rng.shuffle(&mut receivers);
    let mut pools: Vec<Vec<String>> = vec![
        receivers.iter().map(|x| qs_text(x)).collect(),
        picker
            .paths(2)
            .iter()
            .map(|(x, y)| qp_text(2, x, y))
            .collect(),
        picker.stars(2).iter().map(|x| qr_text(2, x)).collect(),
        picker.stars(3).iter().map(|x| qr_text(3, x)).collect(),
    ];
    for pool in &mut pools[1..] {
        rng.shuffle(pool);
    }
    // qp3 is heavy exactly when the path is not already in the current
    // state: otherwise the base world is the witness.
    let mut paths3 = picker.paths(3);
    rng.shuffle(&mut paths3);
    let base = db.database().base_mask();
    let mut heavy_paths = Vec::new();
    for (x, y) in paths3.iter().take(4 * windows + 64) {
        let text = qp_text(3, x, y);
        let pc = PreparedConstraint::prepare(db.database_mut(), &parse(&text, catalog));
        if !pc.holds(db.database(), &base) {
            heavy_paths.push(text);
        }
    }
    let heavy_aggs: Vec<String> = receivers.iter().map(|x| qa_text(100, x)).collect();
    let cheap_available = pools.iter().map(Vec::len).sum();
    let heavy_available = heavy_paths.len() + heavy_aggs.len();

    // Warm-up constraints come off the pools first, so the pass never
    // repeats one (a repeat would hit the session's base-verdict cache).
    let mut warm_texts = vec![
        qs_text("pkWARMUP"),
        qp_text(2, "pkWARMUP", "pkWARMUP"),
        qp_text(3, "pkWARMUP", "pkWARMUP"),
        qp_text(4, "pkWARMUP", "pkWARMUP"),
        qp_text(5, "pkWARMUP", "pkWARMUP"),
        qr_text(3, "pkWARMUP"),
        qa_text(100, "pkWARMUP"),
    ];
    warm_texts.extend(pools.iter_mut().filter_map(Vec::pop));
    let mut heavy_pools = [heavy_paths, heavy_aggs];
    warm_texts.extend(heavy_pools.iter_mut().filter_map(Vec::pop));

    let take = |pools: &mut [Vec<String>], n: usize| -> String {
        let k = pools.len();
        (0..k)
            .find_map(|j| pools[(n + j) % k].pop())
            .expect("constant pools outlast the pass")
    };
    let mut ops = Vec::with_capacity(windows * WINDOW);
    let (mut sat, mut cheap, mut heavy) = (0usize, 0usize, 0usize);
    for _ in 0..windows {
        let mut window: Vec<(String, Class)> = Vec::with_capacity(WINDOW);
        for _ in 0..5 {
            let (x, y) = (format!("pkABSENT{sat:04}x"), format!("pkABSENT{sat:04}y"));
            let text = match sat % 7 {
                0 => qs_text(&x),
                1 => qp_text(2, &x, &y),
                2 => qp_text(3, &x, &y),
                3 => qp_text(4, &x, &y),
                4 => qp_text(5, &x, &y),
                5 => qr_text(3, &x),
                _ => qa_text(100, &x),
            };
            sat += 1;
            window.push((text, Class::Satisfied));
        }
        for _ in 0..3 {
            window.push((take(&mut pools, cheap), Class::Cheap));
            cheap += 1;
        }
        for _ in 0..2 {
            window.push((take(&mut heavy_pools, heavy), Class::Heavy));
            heavy += 1;
        }
        rng.shuffle(&mut window);
        ops.extend(window.into_iter().map(|(text, class)| Op {
            dc: parse(&text, catalog),
            text,
            class,
        }));
    }

    let mut hash = export_hash(&export);
    for op in &ops {
        hash.write(op.text.as_bytes());
    }
    let warmup = warm_texts.iter().map(|t| parse(t, catalog)).collect();
    (
        Inputs {
            export,
            ops,
            warmup,
            hash: hash.hex(),
            cheap_available,
            heavy_available,
        },
        db,
    )
}

/// Generation, load, `Precomputed` build and the untimed warm-up: process
/// state as it is before the first timed op.
fn setup(seed: u64) -> (Inputs, Solver) {
    let (inputs, db) = inputs(&Dataset::D200.config(seed), WINDOWS);
    let mut solver = Solver::builder(db).build();
    solver.precomputed();
    for dc in &inputs.warmup {
        solver.check(dc).expect("warm-up constraints are valid");
    }
    (inputs, solver)
}

fn leg(inputs: &Inputs, solver: &mut Solver, stop: &Stop, tr: &mut Tracer) -> (Leg, Vec<Checked>) {
    check_leg(WINDOW, stop, tr, |n| {
        solver.check(&inputs.ops[n % inputs.ops.len()].dc)
    })
}

/// The untimed correctness check: every `Holds` is false over `R ∪ ⋃T`
/// (the constraints are monotone); every witness is a possible world over
/// which the query is true. Returns the failed-op count and the reasons.
fn verify(inputs: &Inputs, leg: &Leg, outs: &[Checked]) -> (u64, Vec<String>) {
    let mut db = load_export(&inputs.export);
    let pre = Precomputed::build(&db);
    let all = db.database().all_mask();
    let mut failed = 0;
    let mut errors = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        let op = &inputs.ops[i % inputs.ops.len()];
        let pc = PreparedConstraint::prepare(db.database_mut(), &op.dc);
        let problem = match out {
            Err(e) => Some(format!("error: {e}")),
            Ok(o) => match &o.verdict {
                Verdict::Unknown(r) => Some(format!("unknown: {r}")),
                Verdict::Holds if pc.holds(db.database(), &all) => {
                    Some("Holds, but the query is true over R ∪ ⋃T".to_string())
                }
                Verdict::Holds if op.class != Class::Satisfied => {
                    Some(format!("Holds, but generated as {:?}", op.class))
                }
                Verdict::Violated(w) => {
                    let txs: Vec<TxId> = w.txs().collect();
                    if !is_possible_world(&db, &pre, &txs) {
                        Some("witness is not a possible world".to_string())
                    } else if !pc.holds(db.database(), w) {
                        Some("query is false over the witness".to_string())
                    } else {
                        None
                    }
                }
                Verdict::Holds => None,
            },
        };
        if let Some(p) = problem {
            errors.push(format!("op {i} {}: {p}", op.text));
            failed += 1;
        } else if leg.lat_ms[i] > LIMIT_MS {
            failed += 1;
        }
    }
    (failed, errors)
}

/// Median of five heavy `qp3` checks on a dataset of shape `cfg`: one
/// point of the Fig. 6 sweeps.
fn sweep_point_ms(cfg: &ScenarioConfig) -> f64 {
    let (inputs, db) = inputs(cfg, 5);
    let mut solver = Solver::builder(db).build();
    solver.precomputed();
    let times: Vec<f64> = inputs
        .ops
        .iter()
        .filter(|op| op.class == Class::Heavy && op.text.starts_with("q()"))
        .take(5)
        .map(|op| {
            let t = Instant::now();
            let _ = solver.check(&op.dc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let ((inputs, mut solver), first_s) = timed(|| setup(opts.seed));

    // Traced run: an untraced reference leg first, on the same ops.
    let reference = opts.trace.then(|| {
        let stop = Stop::new(opts.seconds / 4.0, opts.ops);
        let (leg, _) = leg(&inputs, &mut solver, &stop, &mut Tracer::new(false));
        let (_, fresh) = setup(opts.seed);
        solver = fresh;
        leg
    });

    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        Probes::start();
    }
    let stop = Stop::new(opts.seconds, opts.ops);
    let (leg, outs) = leg(&inputs, &mut solver, &stop, &mut tracer);
    let probes = opts.trace.then(Probes::stop);

    let (failed, errors) = verify(&inputs, &leg, &outs);
    let mut e2e = end_to_end(&leg, leg.attempted - failed);
    e2e.set("setup_s", setup_s(opts, first_s, || setup(opts.seed), drop));

    let mut share_table = String::new();
    let layers = probes.map(|p| {
        let mut v = Values::layers();
        share_table = check_layers(
            &mut v,
            "fig6_checks",
            &tracer,
            &p,
            &outs,
            &[solver.session_stats()],
        );
        let texts: Vec<String> = inputs.ops[..WINDOW * 3]
            .iter()
            .map(|op| op.text.clone())
            .collect();
        let block: Vec<_> = inputs.export.pending[..3]
            .iter()
            .flat_map(|(_, rows)| rows.iter().cloned())
            .collect();
        replay_layers(&mut v, solver.db(), &texts, &block);

        let d200 = Dataset::D200.config(opts.seed);
        let sweeps = [
            (
                "core.sweep.pending_1150_ms",
                ScenarioConfig {
                    pending_txs: 1150,
                    ..d200.clone()
                },
            ),
            (
                "core.sweep.pending_7382_ms",
                ScenarioConfig {
                    pending_txs: 7382,
                    ..d200.clone()
                },
            ),
            (
                "core.sweep.contradictions_10_ms",
                ScenarioConfig {
                    contradictions: 10,
                    ..d200.clone()
                },
            ),
            (
                "core.sweep.contradictions_50_ms",
                ScenarioConfig {
                    contradictions: 50,
                    ..d200.clone()
                },
            ),
            ("core.sweep.d100_ms", Dataset::D100.config(opts.seed)),
            ("core.sweep.d300_ms", Dataset::D300.config(opts.seed)),
        ];
        if !opts.smoke {
            for (name, cfg) in &sweeps {
                v.set(name, sweep_point_ms(cfg));
            }
        }

        super::fill_harness(&mut v, &leg, reference.as_ref(), failed);
        super::write_trace("fig6_checks", &tracer, &p);
        v
    });

    Outcome {
        e2e,
        extra: Values::extra(failed, leg.attempted, 0.0),
        layers,
        attempted: leg.attempted,
        failed,
        errors,
        input_hash: inputs.hash,
        share_table,
    }
}

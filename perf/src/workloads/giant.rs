//! `giant_enum`: the opposite use of the same layers. Small graphs (24–80
//! nodes) but thousands of maximal cliques and world evaluations per check:
//! delta-seeded evaluation and `getMaximal` carry the load, the pre-check,
//! covers and caches none.
//!
//! Three gadget instances — `(components, pairs, inert rows)` =
//! `(1,12,1000)`, `(4,10,1000)`, `(1,12,20000)` — checked round-robin with
//! eight alpha-renamed variants of the constraint. Every verdict is
//! `Holds`, after all `components·2^pairs` worlds.

use super::{check_layers, check_leg, Checked};
use crate::inputs::{constraint_variant_texts, multi_component, parse, InputHash};
use crate::layers::replay_layers;
use crate::run::{end_to_end, mean, setup_s, timed, Leg, Opts, Outcome, Stop};
use crate::spec::Values;
use crate::sys;
use crate::trace::{Probes, Tracer};
use bcdb_core::{Solver, Verdict};
use bcdb_query::DenialConstraint;
use bcdb_storage::tuple;
use std::time::Instant;

const SHAPES: [(usize, usize, usize); 3] = [(1, 12, 1000), (4, 10, 1000), (1, 12, 20000)];
const VARIANTS: usize = 8;
/// One window visits every (instance, variant) pair once.
const WINDOW: usize = SHAPES.len() * VARIANTS;
const LIMIT_MS: f64 = 500.0;

struct Instance {
    solver: Solver,
    cliques: usize,
    variants: Vec<DenialConstraint>,
}

/// The three instances, each warmed by one check. `threads` switches the
/// sessions to `parallel(true)` on that many threads; `None` is the
/// production default.
fn instances(texts: &[String], threads: Option<usize>) -> Vec<Instance> {
    SHAPES
        .iter()
        .map(|&(components, pairs, rows)| {
            let g = multi_component(components, pairs, rows);
            let cliques = g.cliques();
            let variants: Vec<DenialConstraint> = texts
                .iter()
                .map(|t| parse(t, g.db.database().catalog()))
                .collect();
            let builder = Solver::builder(g.db);
            let mut solver = match threads {
                Some(n) => builder.parallel(true).threads(Some(n)).build(),
                None => builder.build(),
            };
            solver.precomputed();
            solver.check(&variants[0]).expect("warm-up check");
            Instance {
                solver,
                cliques,
                variants,
            }
        })
        .collect()
}

fn leg(instances: &mut [Instance], stop: &Stop, tr: &mut Tracer) -> (Leg, Vec<Checked>) {
    check_leg(WINDOW, stop, tr, |n| {
        let inst = &mut instances[n % SHAPES.len()];
        inst.solver
            .check(&inst.variants[(n / SHAPES.len()) % VARIANTS])
    })
}

/// All `Holds`, each after exactly `components·2^pairs` cliques.
fn verify(instances: &[Instance], leg: &Leg, outs: &[Checked]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        let want = instances[i % SHAPES.len()].cliques;
        let problem = match out {
            Err(e) => Some(format!("error: {e}")),
            Ok(o) if o.verdict != Verdict::Holds => Some(format!("verdict {:?}", o.verdict)),
            Ok(o) if o.stats.cliques_enumerated != want => Some(format!(
                "{} cliques enumerated, {want} exist",
                o.stats.cliques_enumerated
            )),
            Ok(_) => None,
        };
        if let Some(p) = problem {
            errors.push(format!("op {i}: {p}"));
            failed += 1;
        } else if leg.lat_ms[i] > LIMIT_MS {
            failed += 1;
        }
    }
    (failed, errors)
}

/// Mean ms per check of one panel (every instance × variant once) through
/// `check`.
fn panel_ms(
    instances: &mut [Instance],
    mut check: impl FnMut(&mut Solver, &DenialConstraint),
) -> f64 {
    let mut times = Vec::new();
    for inst in instances.iter_mut() {
        for dc in &inst.variants {
            let t = Instant::now();
            check(&mut inst.solver, dc);
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    mean(&times)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let texts = constraint_variant_texts(VARIANTS);
    let (mut instances, first_s) = timed(|| instances(&texts, None));
    let mut hash = InputHash::default();
    hash.write(format!("{SHAPES:?}").as_bytes());
    texts.iter().for_each(|t| hash.write(t.as_bytes()));

    let reference = opts.trace.then(|| {
        let stop = Stop::new(opts.seconds / 4.0, opts.ops);
        leg(&mut instances, &stop, &mut Tracer::new(false)).0
    });

    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        Probes::start();
    }
    let stop = Stop::new(opts.seconds, opts.ops);
    let (leg, outs) = leg(&mut instances, &stop, &mut tracer);
    let probes = opts.trace.then(Probes::stop);

    let (failed, errors) = verify(&instances, &leg, &outs);
    let mut e2e = end_to_end(&leg, leg.attempted - failed);
    let again = || self::instances(&texts, None);
    e2e.set("setup_s", setup_s(opts, first_s, again, drop));

    let mut share_table = String::new();
    let layers = probes.map(|p| {
        let mut v = Values::layers();
        let sessions: Vec<_> = instances.iter().map(|i| i.solver.session_stats()).collect();
        share_table = check_layers(&mut v, "giant_enum", &tracer, &p, &outs, &sessions);
        let db = instances[0].solver.db();
        let pay = db.database().catalog().resolve("Pay").expect("schema");
        let block: Vec<_> = (0..8i64)
            .map(|i| (pay, tuple![-(1_000_000 + i), "ledger", "bob", 0i64]))
            .collect();
        replay_layers(&mut v, db, &texts, &block);

        // The governor's price: the same panel governed and ungoverned.
        let governed = panel_ms(&mut instances, |s, dc| drop(s.check(dc)));
        let ungoverned = panel_ms(&mut instances, |s, dc| drop(s.check_ungoverned(dc)));
        v.set("governor.overhead_ratio", governed / ungoverned.max(1e-9));
        // The parallel leg the default configuration never takes: the same
        // panel with `parallel(true)` on every core, against the default.
        let threads = sys::nproc();
        let mut parallel = self::instances(&texts, Some(threads));
        let par = panel_ms(&mut parallel, |s, dc| drop(s.check(dc)));
        v.set("core.parallel_speedup", governed / par.max(1e-9));
        v.set("core.parallel_threads", threads as f64);

        super::fill_harness(&mut v, &leg, reference.as_ref(), failed);
        super::write_trace("giant_enum", &tracer, &p);
        v
    });

    Outcome {
        e2e,
        extra: Values::extra(failed, leg.attempted, 0.0),
        layers,
        attempted: leg.attempted,
        failed,
        errors,
        input_hash: hash.hex(),
        share_table,
    }
}

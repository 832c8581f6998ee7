//! Per-layer metric derivations shared by the workloads: what the public
//! stats structs and the telemetry probes say about a traced leg, and the
//! isolated replays of the layers beneath `Solver::check`, which the
//! harness cannot put spans around.

use crate::run::{median, ShareTable};
use crate::spec::Values;
use crate::trace::Probes;
use bcdb_core::{
    get_maximal_into, BlockchainDb, GovernedOutcome, MaximalScratch, Precomputed,
    PreparedConstraint, Solver, SolverStats,
};
use bcdb_governor::UNGOVERNED;
use bcdb_graph::{maximal_cliques_governed, CliqueStrategy, Visit};
use bcdb_query::{evaluate_bool_delta_governed, parse_denial_constraint, DenialConstraint};
use bcdb_storage::{encode_snapshot, RelationId, Tuple, TxId, WorldMask};
use std::hint::black_box;
use std::time::Instant;

/// Sums of the per-check `DcSatStats` over a leg.
#[derive(Clone, Debug, Default)]
pub struct CheckAgg {
    /// Checks that returned an outcome.
    pub checks: f64,
    opt: f64,
    naive: f64,
    tractable: f64,
    oracle: f64,
    precheck_short: f64,
    cliques: f64,
    worlds: f64,
    components_total: f64,
    components_checked: f64,
    subproblems: f64,
    steals: f64,
    unknown: f64,
    degraded: f64,
}

impl CheckAgg {
    /// Folds one check's outcome in.
    pub fn add(&mut self, out: &GovernedOutcome) {
        let s = &out.stats;
        self.checks += 1.0;
        match s.algorithm {
            "opt" => self.opt += 1.0,
            "naive" => self.naive += 1.0,
            "oracle" => self.oracle += 1.0,
            a if a.starts_with("tractable") => self.tractable += 1.0,
            _ => {}
        }
        self.precheck_short += f64::from(u8::from(s.precheck_short_circuit));
        self.cliques += s.cliques_enumerated as f64;
        self.worlds += s.worlds_evaluated as f64;
        self.components_total += s.components_total as f64;
        self.components_checked += s.components_checked as f64;
        self.subproblems += s.subproblems_spawned as f64;
        self.steals += s.work_steals as f64;
        self.unknown += f64::from(u8::from(!out.verdict.is_definite()));
        self.degraded += f64::from(u8::from(out.degraded_to.is_some()));
    }

    /// The metrics that come from `DcSatStats` alone.
    pub fn fill(&self, v: &mut Values) {
        let n = self.checks.max(1.0);
        v.set("core.route.opt_ratio", self.opt / n);
        v.set("core.route.naive_ratio", self.naive / n);
        v.set("core.route.tractable_ratio", self.tractable / n);
        v.set("core.route.oracle_ratio", self.oracle / n);
        v.set("core.precheck_short_ratio", self.precheck_short / n);
        v.set("core.worlds_per_check", self.worlds / n);
        v.set(
            "core.components_checked_ratio",
            self.components_checked / self.components_total.max(1.0),
        );
        v.set("graph.cliques_per_check", self.cliques / n);
        v.set("graph.subproblems_per_check", self.subproblems / n);
        v.set("graph.steals_per_check", self.steals / n);
        v.set("governor.unknown_ratio", self.unknown / n);
        v.set("governor.degradations", self.degraded);
    }
}

/// `core.base_cache_hit_ratio`: the share of base-world verdicts a session
/// answered from its epoch-tagged cache instead of probing `R` again.
pub fn base_cache_hit_ratio(sessions: &[SolverStats]) -> f64 {
    let hits: u64 = sessions.iter().map(|s| s.base_cache_hits).sum();
    let probes: u64 = sessions.iter().map(|s| s.base_probes).sum();
    hits as f64 / (hits + probes).max(1) as f64
}

/// The metrics that come from the telemetry probes of a traced leg of
/// `checks` solver checks.
pub fn fill_from_probes(v: &mut Values, p: &Probes, checks: f64) {
    let n = checks.max(1.0);
    v.set(
        "graph.kernel_words_per_check",
        p.count("graph.kernel_words_scanned") / n,
    );
    v.set(
        "graph.pivot_pruned_per_check",
        p.count("graph.pivot_candidates_pruned") / n,
    );
    v.set(
        "graph.component_bk_ms",
        p.mean_ns("graph.component_bk_ns") / 1e6,
    );
    v.set(
        "query.tuples_scanned_per_check",
        p.count("query.tuples_scanned") / n,
    );
    v.set(
        "query.delta_seeded_ratio",
        p.count("query.delta_seeded_evals") / p.count("query.worlds_evaluated").max(1.0),
    );
    v.set(
        "query.cold_evals_per_check",
        p.count("query.cold_evals") / n,
    );
    v.set(
        "core.phase.theta_us",
        p.sum_ns("core.phase.theta_ns") / n / 1e3,
    );
    v.set(
        "core.phase.covers_us",
        p.sum_ns("core.phase.covers_ns") / n / 1e3,
    );
    v.set(
        "core.phase.enumeration_ms",
        p.sum_ns("core.phase.enumeration_ns") / n / 1e6,
    );
    v.set(
        "core.phase.world_checks_ms",
        p.sum_ns("core.phase.world_checks_ns") / n / 1e6,
    );
    v.set("governor.ticks_per_check", p.count("governor.ticks") / n);
    v.set(
        "governor.tuples_charged_per_check",
        p.count("governor.tuples_charged") / n,
    );
    v.set(
        "governor.retries_per_check",
        p.count("governor.retry_attempts") / n,
    );
}

/// Nanoseconds the solver's own phase probes account for: what
/// `Solver::check`'s span has to give up to get its self time.
pub fn solver_phase_ns(p: &Probes) -> f64 {
    p.sum_ns("core.phase.theta_ns")
        + p.sum_ns("core.phase.covers_ns")
        + p.sum_ns("core.phase.enumeration_ns")
        + p.sum_ns("core.phase.world_checks_ns")
}

/// The share-table rows below `Solver::check`, from the phase probes.
pub fn phase_rows(table: &mut ShareTable, p: &Probes) {
    table.row(
        "core  θ + covers",
        p.sum_ns("core.phase.theta_ns") + p.sum_ns("core.phase.covers_ns"),
    );
    table.row(
        "graph+core  enumeration (BK, getMaximal)",
        p.sum_ns("core.phase.enumeration_ns"),
    );
    table.row(
        "query  world checks",
        p.sum_ns("core.phase.world_checks_ns"),
    );
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Cliques an isolated enumeration visits at most: a near-complete `GfTd`
/// with twenty contradiction pairs has about a million.
const REPLAY_CLIQUES: usize = 4096;

/// Isolated replays of the storage, query, graph and core layers on a
/// workload's own loaded state. `texts` are constraints of the workload;
/// `sample_rows` are base rows to append (a mined block's worth).
pub fn replay_layers(
    v: &mut Values,
    db: &BlockchainDb,
    texts: &[String],
    sample_rows: &[(RelationId, Tuple)],
) {
    let mut db = db.clone();
    let catalog = db.database().catalog().clone();

    // query: parse, prepare, cold evaluation over both extreme worlds.
    let mut parse_us = Vec::new();
    let mut dcs: Vec<DenialConstraint> = Vec::new();
    for text in texts {
        parse_us.push(time_us(|| {
            dcs.push(parse_denial_constraint(text, &catalog).expect("workload constraint"));
        }));
    }
    let mut prepare_us = Vec::new();
    let mut prepared = Vec::new();
    for dc in &dcs {
        prepare_us.push(time_us(|| {
            prepared.push(PreparedConstraint::prepare(db.database_mut(), dc));
        }));
    }
    let all = db.database().all_mask();
    let base = db.database().base_mask();
    let (mut all_us, mut base_us) = (Vec::new(), Vec::new());
    for pc in &prepared {
        all_us.push(time_us(|| {
            black_box(pc.holds(db.database(), &all));
        }));
        base_us.push(time_us(|| {
            black_box(pc.holds(db.database(), &base));
        }));
    }
    v.set("query.parse_us", median(&parse_us));
    v.set("query.prepare_us", median(&prepare_us));
    v.set("query.eval_all_mask_us", median(&all_us));
    v.set("query.eval_base_mask_us", median(&base_us));

    // core: the steady-state structures, cold.
    let t = Instant::now();
    let pre = Precomputed::build(&db);
    v.set("core.precompute_build_ms", t.elapsed().as_secs_f64() * 1e3);

    // graph: enumeration on GfTd to the first clique, then onward.
    let t = Instant::now();
    let mut first_ns = 0u128;
    let mut cliques: Vec<Vec<TxId>> = Vec::new();
    let _ = maximal_cliques_governed(
        &pre.fd_graph,
        CliqueStrategy::Pivot,
        &UNGOVERNED,
        |clique| {
            if cliques.is_empty() {
                first_ns = t.elapsed().as_nanos();
            }
            cliques.push(clique.iter().map(|&i| TxId(i as u32)).collect());
            if cliques.len() >= REPLAY_CLIQUES {
                Visit::Stop
            } else {
                Visit::Continue
            }
        },
    );
    let total_ns = t.elapsed().as_nanos();
    v.set("graph.bk_first_clique_ms", first_ns as f64 / 1e6);
    if cliques.len() > 1 {
        v.set(
            "graph.bk_ns_per_clique",
            (total_ns - first_ns) as f64 / (cliques.len() - 1) as f64,
        );
    }

    // core + query: the maximal world of each sampled clique, and the
    // delta-seeded evaluation of each seedable constraint over it.
    let step = (cliques.len() / 64).max(1);
    let mut world = WorldMask::base_only(db.pending_count());
    let mut scratch = MaximalScratch::default();
    let (mut maximal_us, mut delta_us) = (Vec::new(), Vec::new());
    for clique in cliques.iter().step_by(step) {
        maximal_us.push(time_us(|| {
            get_maximal_into(&db, &pre, clique, &mut world, &mut scratch);
        }));
        for pq in prepared.iter().filter_map(|pc| pc.as_conjunctive()) {
            if pq.seedable() {
                delta_us.push(time_us(|| {
                    black_box(
                        evaluate_bool_delta_governed(db.database(), pq, &world, &UNGOVERNED).ok(),
                    );
                }));
            }
        }
    }
    v.set("core.get_maximal_us", median(&maximal_us));
    v.set("query.delta_eval_us", median(&delta_us));

    // storage: index probes and a masked scan on the widest relation.
    let rel = catalog
        .iter()
        .map(|(r, _)| r)
        .max_by_key(|r| db.database().relation(*r).row_count())
        .expect("non-empty catalog");
    let store = db.database().relation(rel);
    let t = Instant::now();
    let rows = store.scan(&all).count();
    let scan_us = t.elapsed().as_secs_f64() * 1e6;
    v.set("storage.scan_rows_per_us", rows as f64 / scan_us.max(1e-3));
    // `prepare` built the probe indexes the workload's plans use; probe the
    // first of them with keys taken from stored rows.
    let arity = catalog.schema(rel).arity();
    let index = (0..arity).find_map(|a| store.find_index(&[a]).map(|i| (i, a)));
    if let Some((index, attr)) = index {
        let stride = (rows / 512).max(1);
        let keys: Vec<_> = store
            .scan_all()
            .step_by(stride)
            .map(|(_, row)| row.tuple.project(&[attr]))
            .collect();
        let t = Instant::now();
        let mut hits = 0usize;
        for key in &keys {
            hits += store.lookup(index, key, &all).count();
        }
        black_box(hits);
        v.set(
            "storage.probe_ns",
            t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64,
        );
    }
    let snap = db.to_db_snapshot(0);
    let t = Instant::now();
    let bytes = encode_snapshot(&snap);
    let secs = t.elapsed().as_secs_f64();
    v.set(
        "storage.encode_mb_per_s",
        bytes.len() as f64 / 1e6 / secs.max(1e-9),
    );

    // storage + core: the delta primitives, first on the bare store, then
    // through a solver session (which also refreshes the steady state).
    if !sample_rows.is_empty() && db.pending_count() > 0 {
        let mut store_db = db.clone();
        let us = time_us(|| {
            store_db
                .append_base_rows(sample_rows)
                .expect("replayed rows are schema-consistent");
        });
        v.set(
            "storage.append_base_us_per_row",
            us / sample_rows.len() as f64,
        );
        let last = TxId(store_db.pending_count() as u32 - 1);
        v.set(
            "storage.remove_pending_us_per_tx",
            time_us(|| {
                black_box(store_db.remove_transaction(last));
            }),
        );

        let mut solver = Solver::builder(db.clone()).build();
        solver.precomputed();
        let victim = TxId(solver.db().pending_count() as u32 - 1);
        let mut removed = None;
        v.set(
            "core.remove_tx_us",
            time_us(|| removed = Some(solver.remove_transaction(victim))),
        );
        let removed = removed.expect("just removed");
        v.set(
            "core.add_tx_us",
            time_us(|| {
                solver
                    .add_transaction(removed.name, removed.tuples)
                    .expect("re-adding a removed transaction");
            }),
        );
        v.set(
            "core.append_base_us",
            time_us(|| {
                solver
                    .append_base_rows(sample_rows)
                    .expect("replayed rows are schema-consistent");
            }),
        );
    }
}

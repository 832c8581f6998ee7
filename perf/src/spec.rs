//! The benchmark's contract: workload names, metric names, units,
//! directions. `BENCHMARK.json` at the repository root says the same thing
//! to the driver; `tests/spec.rs` keeps the two in step. The regression
//! bounds are written down in `BENCHMARK.json` alone, and `compare` reads
//! them there.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

/// Times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["fig6_checks", "giant_enum", "monitor_stream", "serve_tcp"];

/// An end-to-end metric: name, unit and whether lower is better.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when smaller values are better.
    pub lower_is_better: bool,
}

/// The gated metrics, reported by every workload's untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
    },
    EndToEnd {
        name: "verdict_p50_ms",
        unit: "ms",
        lower_is_better: true,
    },
    EndToEnd {
        name: "verdict_p95_ms",
        unit: "ms",
        lower_is_better: true,
    },
    EndToEnd {
        name: "verdicts_per_s",
        unit: "1/s",
        lower_is_better: false,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        lower_is_better: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
    },
];

/// The per-layer metrics of the traced run: `(name, unit, lower is better)`.
/// Every traced run reports every one; a layer a workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str, bool); 106] = [
    // storage
    ("storage.probe_ns", "ns", true),
    ("storage.scan_rows_per_us", "1/us", false),
    ("storage.append_base_us_per_row", "us", true),
    ("storage.remove_pending_us_per_tx", "us", true),
    ("storage.snapshot_write_ms", "ms", true),
    ("storage.snapshot_kb", "KB", true),
    ("storage.snapshots_per_event", "ratio", true),
    ("storage.encode_mb_per_s", "MB/s", false),
    ("storage.recovery_ms", "ms", true),
    ("storage.wal_tail_records", "count", true),
    ("storage.disk_kb_per_op", "KB", true),
    // query
    ("query.parse_us", "us", true),
    ("query.prepare_us", "us", true),
    ("query.eval_all_mask_us", "us", true),
    ("query.eval_base_mask_us", "us", true),
    ("query.delta_eval_us", "us", true),
    ("query.tuples_scanned_per_check", "count", true),
    ("query.delta_seeded_ratio", "ratio", false),
    ("query.cold_evals_per_check", "count", true),
    // graph
    ("graph.bk_first_clique_ms", "ms", true),
    ("graph.bk_ns_per_clique", "ns", true),
    ("graph.cliques_per_check", "count", true),
    ("graph.kernel_words_per_check", "count", true),
    ("graph.pivot_pruned_per_check", "count", false),
    ("graph.component_bk_ms", "ms", true),
    ("graph.subproblems_per_check", "count", true),
    ("graph.steals_per_check", "count", true),
    // core
    ("core.check_self_ms", "ms", true),
    ("core.precompute_build_ms", "ms", true),
    ("core.add_tx_us", "us", true),
    ("core.remove_tx_us", "us", true),
    ("core.append_base_us", "us", true),
    ("core.get_maximal_us", "us", true),
    ("core.route.opt_ratio", "ratio", false),
    ("core.route.naive_ratio", "ratio", true),
    ("core.route.tractable_ratio", "ratio", false),
    ("core.route.oracle_ratio", "ratio", true),
    ("core.precheck_short_ratio", "ratio", false),
    ("core.worlds_per_check", "count", true),
    ("core.components_checked_ratio", "ratio", true),
    ("core.base_cache_hit_ratio", "ratio", false),
    ("core.phase.theta_us", "us", true),
    ("core.phase.covers_us", "us", true),
    ("core.phase.enumeration_ms", "ms", true),
    ("core.phase.world_checks_ms", "ms", true),
    ("core.cache.clique_hit_ratio", "ratio", false),
    ("core.cache.verdict_hit_ratio", "ratio", false),
    ("core.cache.invalidated_per_event", "count", true),
    ("core.cache.generations_per_event", "count", true),
    ("core.parallel_speedup", "ratio", false),
    ("core.parallel_threads", "count", false),
    ("core.sweep.pending_1150_ms", "ms", true),
    ("core.sweep.pending_7382_ms", "ms", true),
    ("core.sweep.contradictions_10_ms", "ms", true),
    ("core.sweep.contradictions_50_ms", "ms", true),
    ("core.sweep.d100_ms", "ms", true),
    ("core.sweep.d300_ms", "ms", true),
    // governor
    ("governor.overhead_ratio", "ratio", true),
    ("governor.ticks_per_check", "count", true),
    ("governor.tuples_charged_per_check", "count", true),
    ("governor.unknown_ratio", "ratio", true),
    ("governor.retries_per_check", "count", true),
    ("governor.degradations", "count", true),
    // monitor
    ("monitor.apply_us.arrive", "us", true),
    ("monitor.apply_us.evict", "us", true),
    ("monitor.apply_us.mined", "us", true),
    ("monitor.apply_us.reorg", "us", true),
    ("monitor.recheck_us", "us", true),
    ("monitor.rechecks_per_event", "count", true),
    ("monitor.rechecks_skipped_ratio", "ratio", false),
    ("monitor.delta_apply_us", "us", true),
    ("monitor.journal_append_us", "us", true),
    ("monitor.journal_bytes_per_event", "B", true),
    ("monitor.snapshot_share", "ratio", true),
    ("monitor.fallbacks", "count", true),
    ("monitor.event_encode_us", "us", true),
    ("monitor.event_decode_us", "us", true),
    // server
    ("server.ingest_us", "us", true),
    ("server.round_ms", "ms", true),
    ("server.round_checks", "count", true),
    ("server.round_workers", "count", false),
    ("server.check_cost_us", "us", true),
    ("server.flip_latency_ms", "ms", true),
    ("server.event_ack_p50_ms", "ms", true),
    ("server.event_ack_p95_ms", "ms", true),
    ("server.notify_wait_ms", "ms", true),
    ("server.wire.parse_us", "us", true),
    ("server.wire.encode_us", "us", true),
    ("server.net.rtt_us", "us", true),
    ("server.lock_wait_us", "us", true),
    ("server.core_busy_ratio", "ratio", true),
    ("server.refusals_per_event", "count", true),
    ("server.sheds_per_event", "count", true),
    ("server.coalesced", "count", true),
    ("server.cache_hit_ratio", "ratio", false),
    ("server.subscribe_us", "us", true),
    ("server.poll_us", "us", true),
    // harness
    ("harness.samples", "count", false),
    ("harness.verdict_p99_ms", "ms", true),
    ("harness.generator_lag_p95_ms", "ms", true),
    ("harness.backlog_max", "count", true),
    ("harness.trace_overhead_ratio", "ratio", true),
    ("harness.unexplained_ratio", "ratio", true),
    ("harness.loadavg", "count", true),
    ("harness.run_s", "s", true),
    ("harness.fail_ratio", "ratio", true),
];

/// Named values of one kind of metric, in contract order.
#[derive(Clone, Debug)]
pub struct Values(Vec<(&'static str, &'static str, f64)>);

impl Values {
    /// Every per-layer metric, reading 0.
    pub fn layers() -> Values {
        Values(PER_LAYER.iter().map(|(n, u, _)| (*n, *u, 0.0)).collect())
    }

    /// Every end-to-end metric, reading 0.
    pub fn end_to_end() -> Values {
        Values(END_TO_END.iter().map(|m| (m.name, m.unit, 0.0)).collect())
    }

    /// The two metrics every run reports beside the `END_TO_END` ones.
    /// `fail_ratio` reads 0 on a healthy run and `disk_kb_per_op` on every
    /// check workload, and the driver's bound is a share of the baseline
    /// median, which for 0 gates nothing: `compare` gates them by its own
    /// rules.
    pub fn extra(failed: u64, attempted: u64, disk_kb_per_op: f64) -> Values {
        Values(vec![
            (
                "fail_ratio",
                "ratio",
                failed as f64 / attempted.max(1) as f64,
            ),
            ("disk_kb_per_op", "KB", disk_kb_per_op),
        ])
    }

    /// Sets a metric; a name outside the contract is a bug in the
    /// benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the contract"));
        slot.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// Reads a metric.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, v)| *v)
    }

    /// `(name, unit, value)` in contract order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

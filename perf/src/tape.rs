//! The chain-event tape behind `monitor_stream` and `serve_tcp`.
//!
//! Built at the relational level from ONE `generate()` call: the scenario
//! is generated with extra blocks, the export's base rows are regrouped
//! per transaction, and everything after the first `BASE_BLOCKS` blocks is
//! treated as *the future* — its transactions arrive in chain order and are
//! later mined in chain order, so every event applies cleanly for any
//! seed. (The monitor crate's soak storm is not reused: it aborts on an
//! unmodified build with `unknown transaction`.)
//!
//! On top of the real future the generator synthesizes *rivals* — a
//! double spend of a pending transaction's inputs paying a different
//! address, the paper's contradiction — which arrive, get evicted, and are
//! flushed when their target is mined, exactly as a mempool purge does.
//!
//! The generator keeps its own model of the pending set and emits only
//! events that are valid against it: an evicted real transaction re-arrives
//! before its block can be mined, a reorg only disconnects blocks whose
//! undo records the session still holds, and the redo re-mines the same
//! blocks. Feedback on the pending count keeps the set within a few
//! percent of `PENDING_TARGET`.

use crate::inputs::{generate_export, InputHash, Rng};
use bcdb_chain::{RelationalExport, ScenarioConfig};
use bcdb_monitor::event::{NamedPending, NamedTuples};
use bcdb_monitor::ChainEvent;
use bcdb_storage::{tuple, Catalog, ConstraintSet, Tuple};
use std::collections::{BTreeSet, VecDeque};

/// Blocks in the initial current state (after the generator's 8 funding
/// blocks).
pub const BASE_BLOCKS: usize = 100;
/// Wallets of the scenario.
pub const WALLETS: usize = 60;
/// Payments per generated block.
pub const TXS_PER_BLOCK: usize = 20;
/// Pending transactions the tape holds the mempool at.
pub const PENDING_TARGET: usize = 400;
/// Rival (double-spend) transactions kept alive in the mempool.
pub const RIVALS_TARGET: usize = 10;
/// Canary addresses of `serve_tcp`; every subscriber connection watches
/// each of them.
pub const CANARIES: usize = 8;
/// Canary transactions pending at once (between this and half of it).
const CANARIES_LIVE_MAX: usize = 8;

/// What one tape event is, for per-kind timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `TxArrived` of a real or rival transaction.
    Arrive,
    /// `TxEvicted`.
    Evict,
    /// `TxMinedDelta`, first time or as the redo after a reorg.
    Mined,
    /// `ReorgDelta`.
    Reorg,
    /// A canary `TxArrived` / `TxEvicted` (serve_tcp only).
    Canary,
}

/// One step of the tape.
#[derive(Clone, Debug)]
pub struct Step {
    /// The event to apply.
    pub event: ChainEvent,
    /// Its kind.
    pub kind: Kind,
    /// For canary steps: which canary subscription flips.
    pub canary: Option<usize>,
}

/// A generated scenario plus its event tape.
pub struct Tape {
    /// The paper's schema.
    pub catalog: Catalog,
    /// Its keys and inclusion dependencies.
    pub constraints: ConstraintSet,
    /// Initial current state.
    pub base: NamedTuples,
    /// Initial pending set.
    pub pending: NamedPending,
    /// The events, in order.
    pub steps: Vec<Step>,
    /// Wallet addresses that receive coins in the initial pending set, in
    /// first-seen order: the constants of the registered constraints.
    pub addresses: Vec<String>,
    /// Hash over the initial state and every encoded event.
    pub hash: String,
}

impl Tape {
    /// The initial state as the resync event a client would send.
    pub fn resync_event(&self) -> ChainEvent {
        ChainEvent::Reorg {
            depth: 0,
            base: self.base.clone(),
            pending: self.pending.clone(),
        }
    }
}

/// The address canary `k` pays.
pub fn canary_address(k: usize) -> String {
    format!("pkCANARY{k}")
}

struct FutureTx {
    name: String,
    rows: NamedTuples,
    coinbase: bool,
}

/// Regroups the export's base rows per transaction. `tuples_of_tx` emits a
/// transaction's `TxIn` rows (keyed by `newTxId`) then its `TxOut` rows
/// (keyed by `txId`), contiguously and in chain order; a group without
/// `TxIn` rows is a coinbase and starts a block.
fn group_by_tx(e: &RelationalExport) -> Vec<FutureTx> {
    let txin = e.catalog.resolve("TxIn").expect("schema");
    let mut groups: Vec<FutureTx> = Vec::new();
    for (rel, t) in &e.base {
        let is_in = *rel == txin;
        let owner = t
            .get(if is_in { 4 } else { 0 })
            .and_then(|v| v.as_text())
            .expect("txid column");
        let rel_name = e.catalog.schema(*rel).name().to_string();
        match groups.last_mut() {
            Some(g) if g.name == owner => {
                g.rows.push((rel_name, t.clone()));
            }
            _ => groups.push(FutureTx {
                name: owner.to_string(),
                rows: vec![(rel_name, t.clone())],
                coinbase: !is_in,
            }),
        }
    }
    groups
}

/// The double spend of `target`: same consumed outputs, a fresh id and
/// signature, everything paid to `payee`.
fn rival_of(target: &FutureTx, serial: usize, payee: &str) -> (String, NamedTuples) {
    let name = format!("rv{serial:05}{}", &target.name[..8.min(target.name.len())]);
    let mut rows = NamedTuples::new();
    let mut total = 0i64;
    for (rel, t) in &target.rows {
        if rel == "TxIn" {
            let v = t.values();
            total += v[3].as_int().expect("amount column");
            rows.push((
                rel.clone(),
                Tuple::new([
                    v[0].clone(),
                    v[1].clone(),
                    v[2].clone(),
                    v[3].clone(),
                    bcdb_storage::Value::text(&name),
                    bcdb_storage::Value::text(format!("sig{name}")),
                ]),
            ));
        }
    }
    rows.push((
        "TxOut".to_string(),
        tuple![name.as_str(), 1i64, payee, (total - 100).max(1)],
    ));
    (name, rows)
}

/// A mined block as the tape remembers it, for the redo after a reorg.
#[derive(Clone)]
struct Block {
    mined: Vec<String>,
    appended: NamedTuples,
}

struct Builder {
    rng: Rng,
    future: Vec<FutureTx>,
    /// Next future index to mine; everything before it is in the base.
    mine_ptr: usize,
    /// Next future index to arrive.
    arrive_ptr: usize,
    /// Evicted real transactions awaiting re-arrival (future indices).
    evicted: VecDeque<usize>,
    /// Live rivals: (name, future index of the target).
    rivals: Vec<(String, usize)>,
    rival_serial: usize,
    /// Pending-set size per the model.
    pending: usize,
    /// Plain mined blocks on top of the history that a reorg may
    /// disconnect (reset by a reorg to the blocks it redid).
    reorgable: Vec<Block>,
    steps: Vec<Step>,
    addresses: Vec<String>,
}

impl Builder {
    fn push(&mut self, event: ChainEvent, kind: Kind) {
        self.steps.push(Step {
            event,
            kind,
            canary: None,
        });
    }

    fn arrive_event(name: &str, rows: &NamedTuples) -> ChainEvent {
        ChainEvent::TxArrived {
            name: name.to_string(),
            tuples: rows.clone(),
        }
    }

    /// Real transactions currently pending, as future indices.
    fn pending_real(&self) -> impl Iterator<Item = usize> + '_ {
        (self.mine_ptr..self.arrive_ptr)
            .filter(|&i| !self.future[i].coinbase && !self.evicted.contains(&i))
    }

    fn arrive(&mut self) -> bool {
        if let Some(i) = self.evicted.front().copied() {
            if self.rng.below(2) == 0 {
                self.evicted.pop_front();
                let ev = Self::arrive_event(&self.future[i].name, &self.future[i].rows);
                self.push(ev, Kind::Arrive);
                self.pending += 1;
                return true;
            }
        }
        if self.rivals.len() < RIVALS_TARGET && self.rng.below(4) == 0 {
            let taken: BTreeSet<usize> = self.rivals.iter().map(|r| r.1).collect();
            let candidates: Vec<usize> = self
                .pending_real()
                .filter(|i| {
                    !taken.contains(i) && self.future[*i].rows.iter().any(|r| r.0 == "TxIn")
                })
                .collect();
            if !candidates.is_empty() {
                let target = candidates[self.rng.below(candidates.len())];
                let payee = self.addresses[self.rng.below(self.addresses.len())].clone();
                self.rival_serial += 1;
                let (name, rows) = rival_of(&self.future[target], self.rival_serial, &payee);
                self.push(Self::arrive_event(&name, &rows), Kind::Arrive);
                self.rivals.push((name, target));
                self.pending += 1;
                return true;
            }
        }
        while self.arrive_ptr < self.future.len() && self.future[self.arrive_ptr].coinbase {
            self.arrive_ptr += 1;
        }
        if self.arrive_ptr >= self.future.len() {
            return false;
        }
        let i = self.arrive_ptr;
        self.arrive_ptr += 1;
        let ev = Self::arrive_event(&self.future[i].name, &self.future[i].rows);
        self.push(ev, Kind::Arrive);
        self.pending += 1;
        true
    }

    fn evict(&mut self) -> bool {
        if !self.rivals.is_empty() && self.rng.below(2) == 0 {
            let (name, _) = self.rivals.remove(self.rng.below(self.rivals.len()));
            self.push(ChainEvent::TxEvicted { name }, Kind::Evict);
            self.pending -= 1;
            return true;
        }
        // Only the young half of the window: it re-arrives long before the
        // mining front reaches it.
        let real: Vec<usize> = self.pending_real().collect();
        let young = &real[real.len() / 2..];
        let rivaled: BTreeSet<usize> = self.rivals.iter().map(|r| r.1).collect();
        let candidates: Vec<usize> = young
            .iter()
            .copied()
            .filter(|i| !rivaled.contains(i))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let i = candidates[self.rng.below(candidates.len())];
        self.evicted.push_back(i);
        let name = self.future[i].name.clone();
        self.push(ChainEvent::TxEvicted { name }, Kind::Evict);
        self.pending -= 1;
        true
    }

    fn mine(&mut self) -> bool {
        // Proportional feedback around the balance point of the 60/20/15/5
        // mix (about 2.7 transactions per block).
        let excess = self.pending as i64 - PENDING_TARGET as i64;
        let want = (3 + excess / 4).clamp(1, 6) as usize;
        let mut end = self.mine_ptr;
        let mut real = 0;
        while end < self.arrive_ptr && real < want {
            if !self.future[end].coinbase {
                if self.evicted.contains(&end) {
                    break;
                }
                real += 1;
            }
            end += 1;
        }
        if real == 0 {
            // The mining front is an evicted transaction: it has to come
            // back first.
            if let Some(pos) = self.evicted.iter().position(|&i| i == end) {
                self.evicted.remove(pos);
                let ev = Self::arrive_event(&self.future[end].name, &self.future[end].rows);
                self.push(ev, Kind::Arrive);
                self.pending += 1;
                return true;
            }
            return false;
        }
        let mut mined = Vec::new();
        let mut appended = NamedTuples::new();
        for i in self.mine_ptr..end {
            let tx = &self.future[i];
            appended.extend(tx.rows.iter().cloned());
            if !tx.coinbase {
                mined.push(tx.name.clone());
            }
        }
        // The purge: rivals of mined transactions leave with the block.
        let (flushed, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.rivals)
            .into_iter()
            .partition(|(_, target)| (self.mine_ptr..end).contains(target));
        self.rivals = kept;
        mined.extend(flushed.into_iter().map(|(name, _)| name));
        self.pending -= mined.len();
        self.mine_ptr = end;
        let block = Block { mined, appended };
        self.push(
            ChainEvent::TxMinedDelta {
                mined: block.mined.clone(),
                appended: block.appended.clone(),
            },
            Kind::Mined,
        );
        self.reorgable.push(block);
        true
    }

    fn reorg(&mut self) -> bool {
        let depth = (1 + self.rng.below(2)).min(self.reorgable.len());
        if depth == 0 {
            return false;
        }
        let redo = self.reorgable.split_off(self.reorgable.len() - depth);
        self.push(
            ChainEvent::ReorgDelta {
                depth: depth as u64,
            },
            Kind::Reorg,
        );
        for block in &redo {
            self.push(
                ChainEvent::TxMinedDelta {
                    mined: block.mined.clone(),
                    appended: block.appended.clone(),
                },
                Kind::Mined,
            );
        }
        // Below the redone blocks now sits the reorg's own undo record.
        self.reorgable = redo;
        true
    }

    /// One background step: 60 % arrivals, 20 % evictions, 15 % mined
    /// blocks, 5 % reorgs, with guard rails on the pending count.
    fn background(&mut self) {
        let low = PENDING_TARGET - PENDING_TARGET / 40;
        let high = PENDING_TARGET + PENDING_TARGET / 40;
        for _ in 0..64 {
            let roll = if self.pending <= low {
                0
            } else if self.pending >= high {
                60 + self.rng.below(40)
            } else {
                self.rng.below(100)
            };
            let done = match roll {
                0..=59 => self.arrive(),
                60..=79 => self.evict(),
                80..=94 => self.mine(),
                _ => self.reorg(),
            };
            if done {
                return;
            }
        }
        panic!("tape generator stalled: the future ran out of transactions");
    }
}

/// Generates the scenario and a tape of at least `events` steps (a reorg's
/// redo blocks may overshoot by one or two). With `canaries`, background
/// steps alternate with canary toggles.
pub fn build(seed: u64, events: usize, canaries: bool) -> Tape {
    // Arrivals are 60 % of background steps; the initial pending set comes
    // out of the same future.
    let background = if canaries { events / 2 } else { events };
    let need = PENDING_TARGET + background * 7 / 10 + 4 * TXS_PER_BLOCK;
    let extra_blocks = need.div_ceil(TXS_PER_BLOCK - 6);
    let export = generate_export(&ScenarioConfig {
        seed,
        wallets: WALLETS,
        blocks: (BASE_BLOCKS + extra_blocks) as u64,
        txs_per_block: TXS_PER_BLOCK,
        pending_txs: 0,
        contradictions: 0,
        ..ScenarioConfig::default()
    });
    let mut groups = group_by_tx(&export);
    // Block b starts at the b-th coinbase; the generator mines 8 funding
    // blocks (plus genesis, if it carries a coinbase) before the payment
    // rounds, so count blocks from the end instead.
    let coinbases: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.coinbase)
        .map(|(i, _)| i)
        .collect();
    let split = coinbases[coinbases.len() - extra_blocks];
    let future: Vec<FutureTx> = groups.split_off(split);
    let base: NamedTuples = groups.into_iter().flat_map(|g| g.rows).collect();

    let mut b = Builder {
        rng: Rng::new(seed, 0x7a9e),
        future,
        mine_ptr: 0,
        arrive_ptr: 0,
        evicted: VecDeque::new(),
        rivals: Vec::new(),
        rival_serial: 0,
        pending: 0,
        reorgable: Vec::new(),
        steps: Vec::new(),
        addresses: Vec::new(),
    };

    // Initial pending set: the first real transactions of the future plus
    // the rivals, built with the same primitives and then folded into the
    // initial state instead of the tape.
    while b.pending < PENDING_TARGET - RIVALS_TARGET {
        assert!(b.arrive(), "future too short for the initial pending set");
        if b.addresses.len() < WALLETS {
            let Some(Step {
                event: ChainEvent::TxArrived { tuples, .. },
                ..
            }) = b.steps.last()
            else {
                unreachable!("arrive pushes a TxArrived")
            };
            for (rel, t) in tuples {
                if rel == "TxOut" {
                    let pk = t.get(2).and_then(|v| v.as_text()).expect("pk column");
                    if !b.addresses.iter().any(|a| a == pk) {
                        b.addresses.push(pk.to_string());
                    }
                }
            }
        }
    }
    while b.pending < PENDING_TARGET {
        b.arrive();
    }
    let pending: NamedPending = std::mem::take(&mut b.steps)
        .into_iter()
        .map(|s| match s.event {
            ChainEvent::TxArrived { name, tuples } => (name, tuples),
            _ => unreachable!("only arrivals so far"),
        })
        .collect();

    let mut live: VecDeque<(usize, String)> = VecDeque::new();
    let mut next_canary = 0usize;
    let mut toggles = 0usize;
    while b.steps.len() < events {
        b.background();
        if !canaries {
            continue;
        }
        toggles += 1;
        let arrive = live.len() < CANARIES_LIVE_MAX / 2
            || (toggles.is_multiple_of(2) && live.len() < CANARIES_LIVE_MAX);
        let (k, event) = if arrive {
            let k = next_canary % CANARIES;
            let name = format!("canary{k:02}g{}", next_canary / CANARIES);
            next_canary += 1;
            let rows = vec![(
                "TxOut".to_string(),
                tuple![name.as_str(), 1i64, canary_address(k).as_str(), 1000i64],
            )];
            live.push_back((k, name.clone()));
            (k, ChainEvent::TxArrived { name, tuples: rows })
        } else {
            let (k, name) = live.pop_front().expect("live canary");
            (k, ChainEvent::TxEvicted { name })
        };
        b.steps.push(Step {
            event,
            kind: Kind::Canary,
            canary: Some(k),
        });
    }

    let mut h = InputHash::default();
    for (rel, t) in &base {
        h.write(format!("{rel}{t:?}").as_bytes());
    }
    for (name, rows) in &pending {
        h.write(name.as_bytes());
        for (rel, t) in rows {
            h.write(format!("{rel}{t:?}").as_bytes());
        }
    }
    for s in &b.steps {
        h.write(s.event.encode().as_bytes());
    }
    Tape {
        catalog: export.catalog,
        constraints: export.constraints,
        base,
        pending,
        steps: b.steps,
        addresses: b.addresses,
        hash: h.hex(),
    }
}

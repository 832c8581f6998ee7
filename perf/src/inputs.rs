//! Benchmark inputs: constraint families, gadget instances, dataset loading
//! and the enumerating constant picker.
//!
//! The constraint texts, the giant-component gadget and the loader are
//! copies of `crates/bench` (`queries.rs`, `workload.rs`, `datasets.rs`) on
//! purpose: a refactor there must not move what this benchmark measures.
//! Everything here is a pure function of a seed.

use bcdb_chain::{export, generate, RelationalExport, ScenarioConfig};
use bcdb_core::BlockchainDb;
use bcdb_query::{parse_denial_constraint, DenialConstraint};
use bcdb_storage::{
    tuple, Catalog, ConstraintSet, Fd, Ind, RelationId, RelationSchema, Tuple, ValueType,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// SplitMix64: the benchmark's own generator, so that its inputs do not
/// depend on the vendored `rand` stand-in.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte stream: the `dataset_hash` / `tape_hash` recorded
/// with every result, so `compare` can tell when inputs changed.
#[derive(Clone, Copy, Debug)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    /// Folds `bytes` plus a separator into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Sixteen hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---- constraint families (paper §7) ----

/// `qs() ← TxOut(ntx, s, X, a)`: address `X` received coins.
pub fn qs_text(x: &str) -> String {
    format!("q() <- TxOut(ntx, s, '{x}', a)")
}

/// `qpᵢ`: a transfer path through `i-1` (output, input) hops from `x` to `y`.
pub fn qp_text(i: usize, x: &str, y: &str) -> String {
    assert!(i >= 2, "path queries start at size 2");
    let hops = i - 1;
    let mut atoms: Vec<String> = Vec::new();
    for j in 1..=hops {
        let owner = if j == 1 {
            format!("'{x}'")
        } else {
            format!("pkout{j}")
        };
        let spender = if j == hops {
            format!("'{y}'")
        } else {
            format!("pkin{j}")
        };
        let (out_amt, in_amt) = if j == hops {
            (format!("a{j}"), format!("a{j}"))
        } else {
            (format!("a{j}"), format!("b{j}"))
        };
        atoms.push(format!("TxOut(ntx{j}, s{j}, {owner}, {out_amt})"));
        atoms.push(format!(
            "TxIn(ntx{j}, s{j}, {spender}, {in_amt}, ntx{}, sig{j})",
            j + 1
        ));
    }
    format!("q() <- {}", atoms.join(", "))
}

/// `qrᵢ`: address `x` spends inputs into `i` pairwise-distinct transactions.
pub fn qr_text(i: usize, x: &str) -> String {
    assert!(i >= 2, "star queries start at size 2");
    let mut atoms = Vec::new();
    for j in 1..=i {
        atoms.push(format!("TxIn(pntx{j}, s{j}, '{x}', a{j}, ntx{j}, sig{j})"));
        atoms.push(format!("TxOut(ntx{j}, os{j}, pk{j}, b{j})"));
    }
    let mut cmps = Vec::new();
    for j in 1..=i {
        for k in j + 1..=i {
            cmps.push(format!("ntx{j} != ntx{k}"));
        }
    }
    format!("q() <- {}, {}", atoms.join(", "), cmps.join(", "))
}

/// `qaⁿ`: address `x` received at least `n` satoshis in total.
pub fn qa_text(n: i64, x: &str) -> String {
    format!("[q(sum(a)) <- TxOut(ntx, s, '{x}', a)] >= {n}")
}

// ---- the giant-component gadget ----

/// A built gadget instance plus its shape.
pub struct Gadget {
    /// Base ledger plus pending transactions.
    pub db: BlockchainDb,
    /// Contradiction pairs per component (`2^pairs` maximal cliques each).
    pub pairs: usize,
    /// Disjoint components.
    pub components: usize,
}

impl Gadget {
    /// Maximal cliques a complete check must enumerate.
    pub fn cliques(&self) -> usize {
        self.components << self.pairs
    }
}

/// `components` disjoint copies of the gadget: per copy, `pairs` rival
/// transaction pairs over a keyed `Pay` relation, chained into one
/// independence component by an `Ack → Pay` inclusion dependency, so every
/// check must visit all `components · 2^pairs` maximal worlds.
/// `inert_base_rows` ledger rows match the first query atom and cost only
/// probe work.
pub fn multi_component(components: usize, pairs: usize, inert_base_rows: usize) -> Gadget {
    assert!(components >= 1 && pairs >= 2);
    let mut cat = Catalog::new();
    cat.add(
        RelationSchema::new(
            "Pay",
            [
                ("id", ValueType::Int),
                ("payer", ValueType::Text),
                ("payee", ValueType::Text),
                ("amt", ValueType::Int),
            ],
        )
        .expect("static schema"),
    )
    .expect("static schema");
    cat.add(RelationSchema::new("Ack", [("payRef", ValueType::Int)]).expect("static schema"))
        .expect("static schema");
    let mut cs = ConstraintSet::new();
    cs.add_fd(Fd::named_key(&cat, "Pay", &["id"]).expect("static"));
    cs.add_ind(Ind::named(&cat, "Ack", &["payRef"], "Pay", &["id"]).expect("static"));
    let mut db = BlockchainDb::new(cat, cs);
    let pay = db.database().catalog().resolve("Pay").expect("schema");
    let ack = db.database().catalog().resolve("Ack").expect("schema");
    for i in 0..inert_base_rows {
        db.insert_current(pay, tuple![-(1 + i as i64), "ledger", "bob", 0i64])
            .expect("schema-consistent");
    }
    let k = pairs as i64;
    for c in 0..components as i64 {
        let base = c * k;
        for j in 0..k {
            db.add_transaction(
                format!("a{c}_{j}"),
                [
                    (pay, tuple![base + j, "alice", "bob", 1i64]),
                    (ack, tuple![base + (j + 1) % k]),
                ],
            )
            .expect("schema-consistent");
            db.add_transaction(
                format!("b{c}_{j}"),
                [(pay, tuple![base + j, "alice", "carol", 1i64])],
            )
            .expect("schema-consistent");
        }
    }
    Gadget {
        db,
        pairs,
        components,
    }
}

/// Texts of `n` alpha-renamed variants of "no id is paid to both payees":
/// variables renamed and atom order alternated, shape untouched.
pub fn constraint_variant_texts(n: usize) -> Vec<String> {
    (0..n)
        .map(|j| {
            if j % 2 == 0 {
                format!("q() <- Pay(i{j}, p{j}, 'bob', a{j}), Pay(i{j}, q{j}, 'carol', b{j})")
            } else {
                format!("q() <- Pay(i{j}, p{j}, 'carol', a{j}), Pay(i{j}, q{j}, 'bob', b{j})")
            }
        })
        .collect()
}

/// Parses `text` against `catalog`; benchmark constraints are well-formed
/// by construction.
pub fn parse(text: &str, catalog: &Catalog) -> DenialConstraint {
    parse_denial_constraint(text, catalog)
        .unwrap_or_else(|e| panic!("benchmark constraint {text:?} does not parse: {e}"))
}

// ---- dataset loading ----

/// Generates a scenario and exports it into the paper's relational schema.
pub fn generate_export(cfg: &ScenarioConfig) -> RelationalExport {
    export(&generate(cfg)).expect("generated scenarios always export")
}

/// Loads an export into a fresh [`BlockchainDb`].
pub fn load_export(e: &RelationalExport) -> BlockchainDb {
    let mut db = BlockchainDb::new(e.catalog.clone(), e.constraints.clone());
    for (rel, tuple) in &e.base {
        db.insert_current(*rel, tuple.clone())
            .expect("export is schema-consistent");
    }
    for (name, tuples) in &e.pending {
        db.add_transaction(name.clone(), tuples.iter().cloned())
            .expect("export is schema-consistent");
    }
    db
}

/// Hash of an export's rows and pending names.
pub fn export_hash(e: &RelationalExport) -> InputHash {
    let mut h = InputHash::default();
    for (rel, t) in &e.base {
        h.write(format!("{}{t:?}", rel.index()).as_bytes());
    }
    for (name, rows) in &e.pending {
        h.write(name.as_bytes());
        for (rel, t) in rows {
            h.write(format!("{}{t:?}", rel.index()).as_bytes());
        }
    }
    h
}

// ---- enumerating constant picker ----

// Column positions in the paper's schema (bcdb_chain::bitcoin_catalog).
const OUT_PK: usize = 2;
const IN_PREV_TX: usize = 0;
const IN_PK: usize = 2;
const IN_NEW_TX: usize = 4;

fn text(t: &Tuple, col: usize) -> &str {
    t.get(col)
        .and_then(|v| v.as_text())
        .expect("text column of the bitcoin schema")
}

/// Enumerates, from an export's rows alone, *every* constant that makes a
/// constraint family's query true in some possible world — the bench
/// crate's `ConstantPicker` stops at the first candidate, which cannot
/// feed a pass of hundreds of distinct constraints. All lists are in
/// first-seen mempool order, so they are a pure function of the export.
pub struct Picker<'a> {
    export: &'a RelationalExport,
    txout: RelationId,
    txin: RelationId,
    /// newTxId → the first TxIn row of that transaction.
    first_input: HashMap<&'a str, &'a Tuple>,
}

impl<'a> Picker<'a> {
    /// Indexes the export.
    pub fn new(export: &'a RelationalExport) -> Picker<'a> {
        let txout = export.catalog.resolve("TxOut").expect("schema");
        let txin = export.catalog.resolve("TxIn").expect("schema");
        let mut first_input = HashMap::new();
        let pending_rows = export.pending.iter().flat_map(|(_, rows)| rows.iter());
        for (rel, t) in export.base.iter().chain(pending_rows) {
            if *rel == txin {
                first_input.entry(text(t, IN_NEW_TX)).or_insert(t);
            }
        }
        Picker {
            export,
            txout,
            txin,
            first_input,
        }
    }

    fn pending_rows(&self, rel: RelationId) -> impl Iterator<Item = &'a Tuple> + '_ {
        self.export
            .pending
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .filter(move |(r, _)| *r == rel)
            .map(|(_, t)| t)
    }

    /// Addresses receiving coins in a pending transaction (`qs`, `qa`).
    pub fn receivers(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        self.pending_rows(self.txout)
            .map(|t| text(t, OUT_PK))
            .filter(|pk| seen.insert(*pk))
            .map(str::to_string)
            .collect()
    }

    /// `(x, y)` pairs for `qpᵢ`: from each pending input walk back `i-1`
    /// spend hops; `y` owns the output the pending transaction spends, `x`
    /// the output at the start of the path.
    pub fn paths(&self, i: usize) -> Vec<(String, String)> {
        assert!(i >= 2);
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for row in self.pending_rows(self.txin) {
            let y = text(row, IN_PK);
            let mut cur = row;
            let mut complete = true;
            for _ in 0..i - 2 {
                match self.first_input.get(text(cur, IN_PREV_TX)) {
                    Some(parent) => cur = parent,
                    None => {
                        complete = false; // reached a coinbase: path too short
                        break;
                    }
                }
            }
            if complete && seen.insert((text(cur, IN_PK), y)) {
                out.push((text(cur, IN_PK).to_string(), y.to_string()));
            }
        }
        out
    }

    /// Addresses whose inputs feed at least `i` distinct transactions, one
    /// of them pending (`qrᵢ`), in address order.
    pub fn stars(&self, i: usize) -> Vec<String> {
        let mut spends: BTreeMap<&str, (BTreeSet<&str>, bool)> = BTreeMap::new();
        for (rel, t) in &self.export.base {
            if *rel == self.txin {
                spends
                    .entry(text(t, IN_PK))
                    .or_default()
                    .0
                    .insert(text(t, IN_NEW_TX));
            }
        }
        for t in self.pending_rows(self.txin) {
            let e = spends.entry(text(t, IN_PK)).or_default();
            e.0.insert(text(t, IN_NEW_TX));
            e.1 = true;
        }
        spends
            .into_iter()
            .filter(|(_, (txs, pending))| *pending && txs.len() >= i)
            .map(|(pk, _)| pk.to_string())
            .collect()
    }
}

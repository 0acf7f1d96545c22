//! Per-shard partial states and the `repro-agg-state-v1` wire format.
//!
//! A shard's state is the thing that makes the whole engine reproducible:
//! both variants are **exact-or-prerounded mergeable monoids**, so any
//! add/merge schedule over the same multiset of values reaches the same
//! state. The wire format serializes that state losslessly (text, one
//! line per shard) so partials can be shipped between nodes and merged,
//! or written as a snapshot and restored after a crash — in both cases
//! bitwise-transparently.
//!
//! The parser is **strict**: unknown schema markers, truncated documents,
//! shard-count mismatches, out-of-order shard lines, operator/checkpoint
//! mismatches, and trailing garbage are all rejected with a
//! [`AggStateError`] — the CLI maps every one of these to the
//! binary-wide schema exit code (2). A corrupt snapshot must never
//! silently decode into a different sum.

use repro_fp::Superaccumulator;
use repro_sum::{Accumulator, BinnedSum};

/// Schema marker opening one serialized aggregate.
pub const STATE_SCHEMA: &str = "repro-agg-state-v1";

/// Schema marker opening a whole-engine snapshot (a counted sequence of
/// [`STATE_SCHEMA`] documents).
pub const SNAPSHOT_SCHEMA: &str = "repro-agg-snapshot-v1";

/// A malformed `repro-agg-state-v1` document. Always a schema-class
/// error: the CLI exit-code contract maps it to exit 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggStateError(pub String);

impl std::fmt::Display for AggStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for AggStateError {}

fn bad(msg: impl Into<String>) -> AggStateError {
    AggStateError(msg.into())
}

/// Which mergeable operator an aggregate's shards run. Chosen once per
/// aggregate (by the selector, under the engine's accuracy budget) and
/// carried by the wire format so a restored or shipped state keeps its
/// operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatorKind {
    /// The paper's PR operator: pre-rounded bins, reproducible by
    /// construction, accuracy set by `fold` (1..=4). Compact state —
    /// cheap to snapshot and ship.
    Binned {
        /// Bins folded per primary (the PR accuracy knob).
        fold: usize,
    },
    /// An exact Kulisch superaccumulator: a true integer sum of the
    /// deposited values. Strongest guarantee, and — counterintuitively —
    /// the fastest batched ingest path (the PR 6 SIMD kernel); the default
    /// under a `Bitwise` budget, where the selector picks DS.
    Exact,
}

impl OperatorKind {
    /// Wire label, e.g. `binned:3` or `exact`.
    pub fn label(&self) -> String {
        match self {
            OperatorKind::Binned { fold } => format!("binned:{fold}"),
            OperatorKind::Exact => "exact".to_string(),
        }
    }

    /// Parse a wire label. Strict: only `exact` and `binned:1..=4`.
    pub fn parse(text: &str) -> Option<Self> {
        if text == "exact" {
            return Some(OperatorKind::Exact);
        }
        let fold: usize = text.strip_prefix("binned:")?.parse().ok()?;
        if !(1..=4).contains(&fold) {
            return None;
        }
        Some(OperatorKind::Binned { fold })
    }

    /// A fresh (zero) shard state running this operator.
    pub fn new_state(&self) -> ShardState {
        match *self {
            OperatorKind::Binned { fold } => ShardState::Binned(BinnedSum::new(fold)),
            OperatorKind::Exact => ShardState::Exact(Superaccumulator::new()),
        }
    }
}

/// One shard's partial state: a mergeable accumulator whose add/merge
/// schedule is irrelevant to the final bits.
#[derive(Clone, Debug)]
pub enum ShardState {
    /// PR partial (see [`OperatorKind::Binned`]).
    Binned(BinnedSum),
    /// Exact partial (see [`OperatorKind::Exact`]).
    Exact(Superaccumulator),
}

impl ShardState {
    /// The operator this state runs.
    pub fn op(&self) -> OperatorKind {
        match self {
            ShardState::Binned(b) => OperatorKind::Binned { fold: b.fold() },
            ShardState::Exact(_) => OperatorKind::Exact,
        }
    }

    /// One-line text checkpoint of the full partial state (lossless).
    pub fn checkpoint(&self) -> String {
        match self {
            ShardState::Binned(b) => b.checkpoint(),
            ShardState::Exact(s) => s.checkpoint(),
        }
    }

    /// Restore a state of the given operator from its checkpoint line.
    /// Strict: the checkpoint must parse *and* match `op` (including the
    /// binned fold), or this returns `None`.
    pub fn restore(op: OperatorKind, text: &str) -> Option<Self> {
        let state = match op {
            OperatorKind::Binned { .. } => ShardState::Binned(BinnedSum::restore(text)?),
            OperatorKind::Exact => ShardState::Exact(Superaccumulator::restore(text)?),
        };
        if state.op() != op {
            return None;
        }
        Some(state)
    }
}

impl Accumulator for ShardState {
    fn add(&mut self, x: f64) {
        match self {
            ShardState::Binned(b) => b.add(x),
            ShardState::Exact(s) => s.add(x),
        }
    }

    /// Merge a sibling shard. Both shards of one aggregate always run the
    /// same operator (the parser and engine enforce it), so a mismatch is
    /// an internal invariant violation, not an input error.
    fn merge(&mut self, other: &Self) {
        match (self, other) {
            (ShardState::Binned(a), ShardState::Binned(b)) => a.merge(b),
            (ShardState::Exact(a), ShardState::Exact(b)) => a.merge(b),
            _ => panic!("shard operator mismatch in merge"),
        }
    }

    fn finalize(&self) -> f64 {
        match self {
            ShardState::Binned(b) => b.finalize(),
            ShardState::Exact(s) => s.to_f64(),
        }
    }

    fn add_slice(&mut self, values: &[f64]) {
        match self {
            ShardState::Binned(b) => b.add_slice(values),
            // The SIMD-dispatched batched deposit from PR 6.
            ShardState::Exact(s) => s.add_slice(values),
        }
    }
}

/// One aggregate decoded from the wire: its metadata plus every shard's
/// restored partial state, in shard order.
#[derive(Clone, Debug)]
pub struct ParsedAggregate {
    /// Aggregate name (validated: `[A-Za-z0-9_.:-]+`).
    pub name: String,
    /// The operator every shard runs.
    pub op: OperatorKind,
    /// Updates (values) ingested into this aggregate so far.
    pub updates: u64,
    /// Batches ingested so far.
    pub batches: u64,
    /// Restored per-shard partial states, shard 0 first.
    pub shards: Vec<ShardState>,
}

/// Whether `name` is a legal aggregate name on the wire (nonempty,
/// `[A-Za-z0-9_.:-]` only — no spaces, so the header line stays
/// unambiguous).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Render one aggregate as a `repro-agg-state-v1` document.
pub fn render_aggregate(
    name: &str,
    op: OperatorKind,
    updates: u64,
    batches: u64,
    shards: &[ShardState],
) -> String {
    let mut out = format!(
        "{STATE_SCHEMA} name={name} op={} shards={} updates={updates} batches={batches}\n",
        op.label(),
        shards.len(),
    );
    for (i, shard) in shards.iter().enumerate() {
        out.push_str(&format!("shard={i};{}\n", shard.checkpoint()));
    }
    out.push_str("end\n");
    out
}

fn header_field<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, AggStateError> {
    let token = token.ok_or_else(|| bad(format!("truncated header: missing {key}=")))?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| bad(format!("malformed header: expected {key}=, got {token:?}")))
}

/// Parse one `repro-agg-state-v1` document from a line iterator
/// (consuming exactly its lines, so documents can be concatenated).
/// Strict on every axis: schema marker, header field order, shard
/// indices contiguous from 0, checkpoint/operator agreement, and the
/// `end` terminator.
pub fn parse_aggregate<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<ParsedAggregate, AggStateError> {
    let header = lines.next().ok_or_else(|| bad("empty state document"))?;
    let mut tokens = header.split(' ');
    let schema = tokens.next().unwrap_or("");
    if schema != STATE_SCHEMA {
        return Err(bad(format!(
            "unsupported schema {schema:?} (expected {STATE_SCHEMA})"
        )));
    }
    let name = header_field(tokens.next(), "name")?.to_string();
    if !valid_name(&name) {
        return Err(bad(format!("invalid aggregate name {name:?}")));
    }
    let op_label = header_field(tokens.next(), "op")?;
    let op = OperatorKind::parse(op_label)
        .ok_or_else(|| bad(format!("unknown operator {op_label:?}")))?;
    let shard_count: usize = header_field(tokens.next(), "shards")?
        .parse()
        .map_err(|_| bad("malformed shards= count"))?;
    if shard_count == 0 {
        return Err(bad("shards= must be at least 1"));
    }
    let updates: u64 = header_field(tokens.next(), "updates")?
        .parse()
        .map_err(|_| bad("malformed updates= count"))?;
    let batches: u64 = header_field(tokens.next(), "batches")?
        .parse()
        .map_err(|_| bad("malformed batches= count"))?;
    if tokens.next().is_some() {
        return Err(bad("trailing tokens in header"));
    }

    let mut shards = Vec::with_capacity(shard_count);
    for expect in 0..shard_count {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated: missing shard {expect}")))?;
        let rest = line
            .strip_prefix("shard=")
            .ok_or_else(|| bad(format!("expected shard line, got {line:?}")))?;
        let (index, checkpoint) = rest
            .split_once(';')
            .ok_or_else(|| bad("malformed shard line (missing ';')"))?;
        let index: usize = index.parse().map_err(|_| bad("malformed shard index"))?;
        if index != expect {
            return Err(bad(format!(
                "shard {index} out of order (expected {expect})"
            )));
        }
        let state = ShardState::restore(op, checkpoint)
            .ok_or_else(|| bad(format!("corrupt checkpoint for shard {index}")))?;
        shards.push(state);
    }
    match lines.next() {
        Some("end") => {}
        Some(line) => return Err(bad(format!("expected end, got {line:?}"))),
        None => return Err(bad("truncated: missing end marker")),
    }
    Ok(ParsedAggregate {
        name,
        op,
        updates,
        batches,
        shards,
    })
}

/// Render a whole-engine snapshot: a counted header plus one aggregate
/// document per entry.
pub fn render_snapshot(aggregates: &[String]) -> String {
    let mut out = format!("{SNAPSHOT_SCHEMA} aggregates={}\n", aggregates.len());
    for doc in aggregates {
        out.push_str(doc);
    }
    out
}

/// Parse a whole-engine snapshot. Strict: schema marker, exact aggregate
/// count, unique names, and nothing after the last document.
pub fn parse_snapshot(text: &str) -> Result<Vec<ParsedAggregate>, AggStateError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty snapshot"))?;
    let mut tokens = header.split(' ');
    let schema = tokens.next().unwrap_or("");
    if schema != SNAPSHOT_SCHEMA {
        return Err(bad(format!(
            "unsupported schema {schema:?} (expected {SNAPSHOT_SCHEMA})"
        )));
    }
    let count: usize = header_field(tokens.next(), "aggregates")?
        .parse()
        .map_err(|_| bad("malformed aggregates= count"))?;
    if tokens.next().is_some() {
        return Err(bad("trailing tokens in snapshot header"));
    }
    let mut parsed = Vec::with_capacity(count);
    for _ in 0..count {
        parsed.push(parse_aggregate(&mut lines)?);
    }
    if let Some(extra) = lines.next() {
        return Err(bad(format!("trailing garbage after snapshot: {extra:?}")));
    }
    let mut names: Vec<&str> = parsed.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err(bad("duplicate aggregate name in snapshot"));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(op: OperatorKind) -> ShardState {
        let mut s = op.new_state();
        s.add_slice(&[1.5, -2.25e-300, 7.0e250, f64::MIN_POSITIVE, -0.0]);
        s
    }

    #[test]
    fn operator_labels_round_trip() {
        for op in [
            OperatorKind::Exact,
            OperatorKind::Binned { fold: 1 },
            OperatorKind::Binned { fold: 4 },
        ] {
            assert_eq!(OperatorKind::parse(&op.label()), Some(op));
        }
        for garbage in ["", "binned", "binned:0", "binned:5", "binned:x", "EXACT"] {
            assert_eq!(OperatorKind::parse(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn shard_checkpoint_restore_is_bitwise_transparent() {
        for op in [OperatorKind::Exact, OperatorKind::Binned { fold: 3 }] {
            let state = sample_state(op);
            let restored = ShardState::restore(op, &state.checkpoint()).expect("restores");
            assert_eq!(restored.finalize().to_bits(), state.finalize().to_bits());
        }
    }

    #[test]
    fn restore_rejects_operator_mismatch() {
        let exact = sample_state(OperatorKind::Exact);
        assert!(
            ShardState::restore(OperatorKind::Binned { fold: 3 }, &exact.checkpoint()).is_none()
        );
        let binned = sample_state(OperatorKind::Binned { fold: 3 });
        assert!(ShardState::restore(OperatorKind::Exact, &binned.checkpoint()).is_none());
        // Fold is part of the operator, not just the representation.
        assert!(
            ShardState::restore(OperatorKind::Binned { fold: 2 }, &binned.checkpoint()).is_none()
        );
    }

    #[test]
    fn aggregate_document_round_trips() {
        let shards = vec![
            sample_state(OperatorKind::Exact),
            OperatorKind::Exact.new_state(),
        ];
        let doc = render_aggregate("t.agg-1", OperatorKind::Exact, 5, 1, &shards);
        let parsed = parse_aggregate(&mut doc.lines()).expect("parses");
        assert_eq!(parsed.name, "t.agg-1");
        assert_eq!(parsed.op, OperatorKind::Exact);
        assert_eq!(parsed.updates, 5);
        assert_eq!(parsed.batches, 1);
        assert_eq!(parsed.shards.len(), 2);
        assert_eq!(
            parsed.shards[0].finalize().to_bits(),
            shards[0].finalize().to_bits()
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let shards = vec![sample_state(OperatorKind::Binned { fold: 3 })];
        let good = render_aggregate("a", OperatorKind::Binned { fold: 3 }, 5, 1, &shards);
        assert!(parse_aggregate(&mut good.lines()).is_ok());

        let cases: Vec<String> = vec![
            // Unknown schema version.
            good.replacen("repro-agg-state-v1", "repro-agg-state-v2", 1),
            // Truncated: drop the end marker, drop the shard line.
            good.replacen("end\n", "", 1),
            good.lines().take(1).collect::<Vec<_>>().join("\n"),
            // Header corruption.
            good.replacen("name=a", "name=", 1),
            good.replacen("name=a", "nom=a", 1),
            good.replacen("op=binned:3", "op=binned:9", 1),
            good.replacen("shards=1", "shards=2", 1),
            good.replacen("shards=1", "shards=0", 1),
            good.replacen("updates=5", "updates=x", 1),
            // Shard corruption: bad index, flipped checkpoint byte.
            good.replacen("shard=0;", "shard=1;", 1),
            good.replacen("shard=0;3", "shard=0;4", 1),
            // Trailing garbage.
            format!("{good}junk\n"),
        ];
        for case in cases {
            let mut all = parse_aggregate(&mut case.lines());
            if all.is_ok() {
                // The trailing-garbage case parses the document but the
                // snapshot wrapper must reject the leftovers.
                let wrapped = format!("{SNAPSHOT_SCHEMA} aggregates=1\n{case}");
                all = parse_snapshot(&wrapped).map(|mut v| v.pop().unwrap());
            }
            assert!(all.is_err(), "accepted malformed document:\n{case}");
        }
    }

    #[test]
    fn snapshot_round_trips_and_rejects_duplicates() {
        let a = render_aggregate(
            "a",
            OperatorKind::Exact,
            1,
            1,
            &[sample_state(OperatorKind::Exact)],
        );
        let b = render_aggregate(
            "b",
            OperatorKind::Binned { fold: 2 },
            2,
            1,
            &[sample_state(OperatorKind::Binned { fold: 2 })],
        );
        let snap = render_snapshot(&[a.clone(), b.clone()]);
        let parsed = parse_snapshot(&snap).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].op, OperatorKind::Binned { fold: 2 });

        let dup = render_snapshot(&[a.clone(), a.clone()]);
        assert!(parse_snapshot(&dup).is_err());
        assert!(parse_snapshot("").is_err());
        assert!(parse_snapshot("repro-agg-snapshot-v9 aggregates=0\n").is_err());
        // Count mismatch: header says two, body has one.
        assert!(parse_snapshot(&format!("{SNAPSHOT_SCHEMA} aggregates=2\n{a}")).is_err());
    }
}

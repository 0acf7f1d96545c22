//! Divergence forensics: align two traces of the same logical reduction
//! and localize where — in the reduction tree, down to the leaf element
//! interval — their numerics first split.
//!
//! Alignment is **by plan-derived node id, not sequence position**: each
//! `node` telemetry event carries an id derived from the reduction plan
//! (`c{chunk}` for leaves, `m{i}.{stride}` for merge nodes, rank-derived
//! ids for the simulated collectives) plus the element interval
//! `[start, start+len)` it covers. Two traces of the same plan therefore
//! expose the same id set even if their events interleave differently, and
//! a schedule change that reorders events cannot masquerade as a numerical
//! difference.
//!
//! Divergence origin is computed plan-agnostically from the intervals: the
//! divergent node covering the **smallest** interval is the origin (the
//! deepest point the telemetry can see), and the divergence path is every
//! divergent node whose interval contains the origin, widest first — the
//! root-to-leaf walk through the merge tree.

use crate::json::Json;
use repro_fp::ulp_distance;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `node` telemetry record parsed out of a JSONL trace.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeRecord {
    /// Subsystem the event came from (`runtime`, `rank3`, ...).
    pub sub: String,
    /// Plan-derived node id (`c4`, `m0.2`, `leaf.r2.s1`, ...).
    pub node: String,
    /// First element index covered by this node.
    pub start: u64,
    /// Number of elements covered by this node.
    pub len: u64,
    /// Bit pattern of the node's partial sum.
    pub sum_bits: u64,
    /// Higham bound `n·u·Σ|xᵢ|` over the node interval, when emitted.
    pub bound: Option<f64>,
    /// Exact ulp deviation against the superaccumulator shadow, at
    /// sampled nodes.
    pub ulps: Option<u64>,
}

impl NodeRecord {
    /// The alignment key: node ids are unique per subsystem, and the
    /// subsystem identifies the participant (pool scope, simulated rank).
    pub fn key(&self) -> String {
        format!("{}/{}", self.sub, self.node)
    }

    /// The node's partial sum as a float.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits)
    }
}

fn hex_bits(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?, 16).ok()
}

fn uint(j: &Json) -> Option<u64> {
    let x = j.as_num()?;
    (x >= 0.0 && x.fract() == 0.0).then_some(x as u64)
}

/// Extract every `node` telemetry record from a JSONL trace. Lines
/// starting with `#` and blank lines are skipped; non-`node` events are
/// ignored. A malformed `node` event is an error — silently dropping it
/// would turn a telemetry bug into a phantom "only in other trace" entry.
pub fn collect_nodes(text: &str) -> Result<Vec<NodeRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if value.get("kind").and_then(Json::as_str) != Some("node") {
            continue;
        }
        let field = |name: &str| {
            value
                .get(name)
                .ok_or(format!("line {lineno}: node event missing \"{name}\""))
        };
        let record = NodeRecord {
            sub: field("sub")?
                .as_str()
                .ok_or(format!("line {lineno}: \"sub\" must be a string"))?
                .to_string(),
            node: field("node")?
                .as_str()
                .ok_or(format!("line {lineno}: \"node\" must be a string"))?
                .to_string(),
            start: uint(field("start")?)
                .ok_or(format!("line {lineno}: \"start\" must be an integer"))?,
            len: uint(field("len")?).ok_or(format!("line {lineno}: \"len\" must be an integer"))?,
            sum_bits: hex_bits(field("sum_bits")?)
                .ok_or(format!("line {lineno}: \"sum_bits\" must be 16 hex digits"))?,
            bound: value.get("bound").and_then(Json::as_num),
            ulps: value.get("ulps").and_then(uint),
        };
        // Interval ends are computed downstream (containment, rendering).
        if record.start.checked_add(record.len).is_none() {
            return Err(format!("line {lineno}: interval start + len overflows u64"));
        }
        out.push(record);
    }
    Ok(out)
}

/// One aligned node whose partial sums differ between the two traces.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Alignment key (`sub/node`).
    pub key: String,
    /// Plan-derived node id.
    pub node: String,
    /// First element index covered.
    pub start: u64,
    /// Elements covered.
    pub len: u64,
    /// Partial-sum bits in trace A.
    pub a_bits: u64,
    /// Partial-sum bits in trace B.
    pub b_bits: u64,
    /// Sign-aware total-order ulp distance between the two partial sums.
    pub ulps: u64,
}

impl Divergence {
    fn contains(&self, other: &Divergence) -> bool {
        self.start <= other.start && other.start + other.len <= self.start + self.len
    }
}

/// The outcome of aligning two traces by node id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiffReport {
    /// Node keys present in both traces.
    pub aligned: usize,
    /// Node keys only in trace A (sorted).
    pub only_a: Vec<String>,
    /// Node keys only in trace B (sorted).
    pub only_b: Vec<String>,
    /// Aligned nodes whose sum bits differ, in trace-A emission order —
    /// the first entry is the first divergent node of the run.
    pub divergent: Vec<Divergence>,
    /// The divergent node covering the smallest interval: where the
    /// divergence originated, as deep as the telemetry can see.
    pub origin: Option<Divergence>,
    /// Divergent nodes whose interval contains the origin, widest first —
    /// the root-to-origin walk through the merge tree.
    pub path: Vec<Divergence>,
}

impl DiffReport {
    /// No divergent nodes and no unmatched node ids.
    pub fn is_clean(&self) -> bool {
        self.divergent.is_empty() && self.only_a.is_empty() && self.only_b.is_empty()
    }

    /// Render the human report: alignment counts, per-node ulp distances
    /// for every divergent node, and the origin walk.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace diff: aligned={} only_a={} only_b={} divergent={}\n",
            self.aligned,
            self.only_a.len(),
            self.only_b.len(),
            self.divergent.len(),
        );
        for (label, keys) in [("only in A", &self.only_a), ("only in B", &self.only_b)] {
            for key in keys {
                let _ = writeln!(out, "  {label}: {key}");
            }
        }
        if self.divergent.is_empty() {
            out.push_str("no divergent nodes\n");
            return out;
        }
        let first = &self.divergent[0];
        let _ = writeln!(
            out,
            "first divergent node: {} interval [{}, {}) ulps={}",
            first.key,
            first.start,
            first.start + first.len,
            first.ulps,
        );
        const MAX_LISTED: usize = 24;
        for d in self.divergent.iter().take(MAX_LISTED) {
            let _ = writeln!(
                out,
                "  {} [{}, {})  a={:016x} b={:016x}  ulps={}",
                d.key,
                d.start,
                d.start + d.len,
                d.a_bits,
                d.b_bits,
                d.ulps,
            );
        }
        if self.divergent.len() > MAX_LISTED {
            let _ = writeln!(out, "  ... and {} more", self.divergent.len() - MAX_LISTED);
        }
        if !self.path.is_empty() {
            out.push_str("divergence path (widest -> origin):\n");
            for d in &self.path {
                let _ = writeln!(
                    out,
                    "  {} [{}, {})  ulps={}",
                    d.key,
                    d.start,
                    d.start + d.len,
                    d.ulps,
                );
            }
        }
        if let Some(origin) = &self.origin {
            let _ = writeln!(
                out,
                "origin: node {} leaf interval [{}, {}) ulps={}",
                origin.key,
                origin.start,
                origin.start + origin.len,
                origin.ulps,
            );
        }
        out
    }
}

fn index_nodes(text: &str, label: &str) -> Result<BTreeMap<String, NodeRecord>, String> {
    let mut map = BTreeMap::new();
    for record in collect_nodes(text)? {
        let key = record.key();
        if map.insert(key.clone(), record).is_some() {
            return Err(format!(
                "trace {label}: duplicate node id {key} — node ids must be unique per trace"
            ));
        }
    }
    Ok(map)
}

/// Align two JSONL traces of the same logical reduction by node id and
/// locate the first numerical divergence. Errors on malformed traces and
/// on duplicate node ids; traces with **no** node telemetry at all align
/// trivially (zero nodes), so callers should check [`DiffReport::aligned`]
/// when they expect telemetry to be present.
pub fn diff_traces(a: &str, b: &str) -> Result<DiffReport, String> {
    // Emission order of trace A decides "first divergent node".
    let order_a: Vec<String> = collect_nodes(a)?.iter().map(NodeRecord::key).collect();
    let map_a = index_nodes(a, "A")?;
    let map_b = index_nodes(b, "B")?;

    let mut report = DiffReport {
        only_a: map_a
            .keys()
            .filter(|k| !map_b.contains_key(*k))
            .cloned()
            .collect(),
        only_b: map_b
            .keys()
            .filter(|k| !map_a.contains_key(*k))
            .cloned()
            .collect(),
        ..DiffReport::default()
    };

    for key in &order_a {
        let (ra, rb) = match (map_a.get(key), map_b.get(key)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => continue,
        };
        report.aligned += 1;
        if ra.sum_bits == rb.sum_bits {
            continue;
        }
        report.divergent.push(Divergence {
            key: key.clone(),
            node: ra.node.clone(),
            start: ra.start,
            len: ra.len,
            a_bits: ra.sum_bits,
            b_bits: rb.sum_bits,
            ulps: ulp_distance(ra.sum(), rb.sum()),
        });
    }

    // Origin: the divergent node with the smallest interval (deepest in
    // the tree); ties broken by start then id for determinism.
    report.origin = report
        .divergent
        .iter()
        .min_by_key(|d| (d.len, d.start, d.key.clone()))
        .cloned();
    if let Some(origin) = &report.origin {
        let mut path: Vec<Divergence> = report
            .divergent
            .iter()
            .filter(|d| d.contains(origin))
            .cloned()
            .collect();
        path.sort_by_key(|d| (std::cmp::Reverse(d.len), d.start, d.key.clone()));
        report.path = path;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_line(sub: &str, seq: u64, node: &str, start: u64, len: u64, sum: f64) -> String {
        format!(
            "{{\"sub\":\"{sub}\",\"seq\":{seq},\"kind\":\"node\",\"node\":\"{node}\",\
             \"start\":{start},\"len\":{len},\"sum_bits\":\"{:016x}\"}}",
            sum.to_bits()
        )
    }

    fn trace(lines: &[String]) -> String {
        let mut t = lines.join("\n");
        t.push_str("\n# summary line\n");
        t
    }

    #[test]
    fn collect_skips_non_node_events_and_comments() {
        let text = trace(&[
            "{\"sub\":\"runtime\",\"seq\":0,\"kind\":\"reduce_begin\",\"n\":8}".to_string(),
            node_line("runtime", 1, "c0", 0, 4, 1.5),
        ]);
        let nodes = collect_nodes(&text).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].node, "c0");
        assert_eq!(nodes[0].sum(), 1.5);
        assert_eq!(nodes[0].key(), "runtime/c0");
    }

    #[test]
    fn malformed_node_events_are_errors() {
        let missing_interval =
            "{\"sub\":\"r\",\"seq\":0,\"kind\":\"node\",\"node\":\"c0\",\"sum_bits\":\"0\"}";
        assert!(collect_nodes(missing_interval)
            .unwrap_err()
            .contains("start"));
        let bad_bits = "{\"sub\":\"r\",\"seq\":0,\"kind\":\"node\",\"node\":\"c0\",\
                        \"start\":0,\"len\":1,\"sum_bits\":\"zz\"}";
        assert!(collect_nodes(bad_bits).unwrap_err().contains("sum_bits"));
    }

    #[test]
    fn overflowing_node_interval_is_an_error_not_a_panic() {
        let big = 10_000_000_000_000_000_000u64;
        let a = node_line("r", 0, "c0", big, big, 1.0);
        let b = node_line("r", 0, "c0", big, big, 2.0);
        assert!(collect_nodes(&a).unwrap_err().contains("overflows"));
        assert!(diff_traces(&a, &b).unwrap_err().contains("overflows"));
    }

    #[test]
    fn identical_traces_diff_clean() {
        let t = trace(&[
            node_line("runtime", 0, "c0", 0, 4, 1.0),
            node_line("runtime", 1, "c1", 4, 4, 2.0),
            node_line("runtime", 2, "m0.1", 0, 8, 3.0),
        ]);
        let report = diff_traces(&t, &t).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.aligned, 3);
        assert!(report.render().contains("no divergent nodes"));
    }

    #[test]
    fn alignment_is_by_node_id_not_sequence_position() {
        // Same records, permuted emission order: still clean.
        let a = trace(&[
            node_line("runtime", 0, "c0", 0, 4, 1.0),
            node_line("runtime", 1, "c1", 4, 4, 2.0),
        ]);
        let b = trace(&[
            node_line("runtime", 0, "c1", 4, 4, 2.0),
            node_line("runtime", 1, "c0", 0, 4, 1.0),
        ]);
        let report = diff_traces(&a, &b).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn divergence_walks_to_the_smallest_interval() {
        let a = trace(&[
            node_line("runtime", 0, "c0", 0, 4, 1.0),
            node_line("runtime", 1, "c1", 4, 4, 2.0),
            node_line("runtime", 2, "m0.1", 0, 8, 3.0),
        ]);
        let perturbed = f64::from_bits(2.0f64.to_bits() + 1);
        let b = trace(&[
            node_line("runtime", 0, "c0", 0, 4, 1.0),
            node_line("runtime", 1, "c1", 4, 4, perturbed),
            node_line("runtime", 2, "m0.1", 0, 8, 3.0 + (perturbed - 2.0)),
        ]);
        let report = diff_traces(&a, &b).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.divergent.len(), 2);
        let origin = report.origin.as_ref().unwrap();
        assert_eq!(origin.node, "c1");
        assert_eq!((origin.start, origin.len), (4, 4));
        assert_eq!(origin.ulps, 1);
        // Path runs widest -> origin: the root merge first, the leaf last.
        let ids: Vec<&str> = report.path.iter().map(|d| d.node.as_str()).collect();
        assert_eq!(ids, vec!["m0.1", "c1"]);
        let text = report.render();
        assert!(
            text.contains("origin: node runtime/c1 leaf interval [4, 8)"),
            "{text}"
        );
    }

    #[test]
    fn unmatched_node_ids_are_reported_not_clean() {
        let a = trace(&[node_line("rank0", 0, "root", 0, 8, 1.0)]);
        let b = trace(&[
            node_line("rank0", 0, "root", 0, 8, 1.0),
            node_line("rank1", 0, "leaf.r1.s0", 4, 4, 0.5),
        ]);
        let report = diff_traces(&a, &b).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.only_b, vec!["rank1/leaf.r1.s0".to_string()]);
        assert!(report.divergent.is_empty());
        assert!(report.render().contains("only in B"), "{}", report.render());
    }

    #[test]
    fn duplicate_node_ids_are_an_error() {
        let t = trace(&[
            node_line("runtime", 0, "c0", 0, 4, 1.0),
            node_line("runtime", 1, "c0", 0, 4, 1.0),
        ]);
        assert!(diff_traces(&t, &t).unwrap_err().contains("duplicate"));
    }
}

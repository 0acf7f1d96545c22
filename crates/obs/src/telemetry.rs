//! Numerical-accuracy telemetry: the sampling policy, the exact node
//! shadow, and the `node` event schema.
//!
//! Error telemetry is *additive* instrumentation: when enabled, every
//! reduction node additionally emits a `node` event carrying its partial
//! sum bits, the running Higham bound `n·u·Σ|xᵢ|` over its element
//! interval, and — at sampled nodes — the exact ulp deviation against a
//! superaccumulator shadow reduction. When disabled (the default), no
//! `node` events are emitted at all and the event stream is byte-identical
//! to an uninstrumented run, preserving the trace-replay contract.
//!
//! Everything lives here (rather than in the runtime) because every
//! instrumented layer — thread-pool engine, tree executor, simulated
//! collectives, the CLI's gather script — shares the same policy, the same
//! [`ExactShadow`] and the same [`node_fields`] schema, which
//! [`crate::forensics::collect_nodes`] parses back.

use crate::event::{f, Value};
use repro_fp::Superaccumulator;

/// Which numerical telemetry a traced reduction emits. Off by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Emit one `node` event per reduction-tree node (leaf chunks and
    /// internal merges) with the node's partial-sum bits and Higham bound.
    pub node_sums: bool,
    /// Measure the exact ulp deviation (against a superaccumulator shadow
    /// reduction) at every `exact_every`-th node, counted in deterministic
    /// plan order. `0` disables exact sampling; `1` samples every node.
    pub exact_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// No numerical telemetry: the instrumented paths emit exactly the
    /// events they emitted before telemetry existed.
    pub fn off() -> Self {
        TelemetryConfig {
            node_sums: false,
            exact_every: 0,
        }
    }

    /// Node sums, bounds, and exact ulp deviation at **every** node — the
    /// forensics setting (roughly doubles the arithmetic: one shadow
    /// superaccumulator tree next to the real one).
    pub fn full() -> Self {
        TelemetryConfig {
            node_sums: true,
            exact_every: 1,
        }
    }

    /// Node sums and bounds everywhere, exact ulp deviation at every
    /// `every`-th node (`0` = never) — the production setting: bound
    /// tracking is O(1) per node, the superaccumulator shadow is paid only
    /// at the sampled nodes.
    pub fn sampled(every: u64) -> Self {
        TelemetryConfig {
            node_sums: true,
            exact_every: every,
        }
    }

    /// Whether any node telemetry is emitted at all.
    pub fn enabled(&self) -> bool {
        self.node_sums
    }

    /// Whether the node with this deterministic ordinal (plan-order node
    /// counter, starting at 0) gets the exact-shadow ulp measurement.
    pub fn sample_exact(&self, ordinal: u64) -> bool {
        self.node_sums && self.exact_every != 0 && ordinal % self.exact_every == 0
    }
}

/// The exact shadow of one reduction-tree node: the correctly-rounded sum
/// (for the ulp deviation), the exact `Σ|xᵢ|` and the element count `n`
/// (for the Higham bound). Superaccumulators merge exactly, so a shadow is
/// invariant under any merge order or topology even when the operator it
/// watches is not.
#[derive(Clone, Debug, Default)]
pub struct ExactShadow {
    exact: Superaccumulator,
    abs: Superaccumulator,
    n: usize,
}

impl ExactShadow {
    /// The shadow of `values`.
    pub fn over(values: &[f64]) -> Self {
        let mut shadow = ExactShadow::default();
        shadow.exact.add_slice(values);
        shadow.abs.add_slice_abs(values);
        shadow.n = values.len();
        shadow
    }

    /// Absorb one more element.
    pub fn add(&mut self, x: f64) {
        self.exact.add(x);
        self.abs.add(x.abs());
        self.n += 1;
    }

    /// Absorb another node's shadow (a merge in the reduction tree).
    pub fn absorb(&mut self, other: &Self) {
        self.exact.merge(&other.exact);
        self.abs.merge(&other.abs);
        self.n += other.n;
    }

    /// Elements absorbed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The correctly rounded exact sum of everything absorbed.
    pub fn exact(&self) -> f64 {
        self.exact.to_f64()
    }

    /// The Higham bound `n·u·Σ|xᵢ|` over everything absorbed.
    pub fn bound(&self) -> f64 {
        repro_fp::higham_bound(self.n, self.abs.to_f64())
    }
}

/// The fields of one `node` event: `node`, `start`, `len` (the shadow's
/// element count), `sum_bits` and `bound`, plus `ulps` and `exact_bits`
/// when `telemetry` exact-samples `ordinal`. Returns the fields and the
/// sampled ulp deviation; the caller emits them as kind `"node"` through
/// its own scope.
pub fn node_fields(
    telemetry: &TelemetryConfig,
    ordinal: u64,
    node: &str,
    start: usize,
    partial: f64,
    shadow: &ExactShadow,
) -> (Vec<(String, Value)>, Option<u64>) {
    let mut fields = vec![
        f("node", node),
        f("start", start),
        f("len", shadow.n),
        f("sum_bits", format!("{:016x}", partial.to_bits())),
        f("bound", shadow.bound()),
    ];
    let ulps = telemetry.sample_exact(ordinal).then(|| {
        let exact = shadow.exact();
        let ulps = repro_fp::ulp_distance(partial, exact);
        fields.push(f("ulps", ulps));
        fields.push(f("exact_bits", format!("{:016x}", exact.to_bits())));
        ulps
    });
    (fields, ulps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let c = TelemetryConfig::default();
        assert_eq!(c, TelemetryConfig::off());
        assert!(!c.enabled());
        assert!(!c.sample_exact(0));
    }

    #[test]
    fn full_samples_every_node() {
        let c = TelemetryConfig::full();
        assert!(c.enabled());
        for ordinal in 0..10 {
            assert!(c.sample_exact(ordinal));
        }
    }

    #[test]
    fn sampled_hits_every_nth_node() {
        let c = TelemetryConfig::sampled(4);
        assert!(c.enabled());
        let hits: Vec<u64> = (0..12).filter(|&o| c.sample_exact(o)).collect();
        assert_eq!(hits, vec![0, 4, 8]);
        // Sampling period 0 means bounds-only telemetry.
        let bounds_only = TelemetryConfig::sampled(0);
        assert!(bounds_only.enabled());
        assert!((0..12).all(|o| !bounds_only.sample_exact(o)));
    }

    #[test]
    fn shadow_absorb_matches_one_shadow_over_the_concatenation() {
        let (a, b) = ([1.0, -2.5, 1e-20], [3.0, -1e16]);
        let mut merged = ExactShadow::over(&a);
        merged.absorb(&ExactShadow::over(&b));
        let mut added = ExactShadow::default();
        for x in a.iter().chain(&b) {
            added.add(*x);
        }
        let whole = ExactShadow::over(&[1.0, -2.5, 1e-20, 3.0, -1e16]);
        for s in [&merged, &added] {
            assert_eq!(s.n(), 5);
            assert_eq!(s.exact().to_bits(), whole.exact().to_bits());
            assert_eq!(s.bound().to_bits(), whole.bound().to_bits());
        }
    }

    #[test]
    fn node_event_bytes_are_pinned() {
        // The one place the `node` schema is written down byte for byte:
        // forensics parses exactly these fields back.
        let shadow = ExactShadow::over(&[1.0, 2.0, 3.0]);
        let partial = f64::from_bits(6.0f64.to_bits() + 1);
        let telemetry = TelemetryConfig::sampled(2);
        let (trace, sink) = crate::Trace::to_memory();
        let mut scope = trace.scope("runtime");
        for ordinal in [0, 1] {
            let (fields, ulps) = node_fields(&telemetry, ordinal, "m0.1", 4, partial, &shadow);
            assert_eq!(ulps, (ordinal == 0).then_some(1));
            scope.event("node", fields);
        }
        let text = crate::render_jsonl(&sink.drain());
        assert_eq!(
            text,
            "{\"sub\":\"runtime\",\"seq\":0,\"kind\":\"node\",\"node\":\"m0.1\",\"start\":4,\
             \"len\":3,\"sum_bits\":\"4018000000000001\",\
             \"bound\":0.0000000000000019984014443252818,\
             \"ulps\":1,\"exact_bits\":\"4018000000000000\"}\n\
             {\"sub\":\"runtime\",\"seq\":1,\"kind\":\"node\",\"node\":\"m0.1\",\"start\":4,\
             \"len\":3,\"sum_bits\":\"4018000000000001\",\
             \"bound\":0.0000000000000019984014443252818}\n"
        );
        let nodes = crate::forensics::collect_nodes(&text).unwrap();
        assert_eq!(
            nodes.iter().map(|n| n.ulps).collect::<Vec<_>>(),
            vec![Some(1), None]
        );
    }
}

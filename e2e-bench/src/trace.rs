//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's public
//! functions, from this benchmark's own code. A span whose parent stack is
//! empty is a *root*: one request (`op.*`), and every span opened while it
//! is open shares its op id. A span's self time is its duration minus the
//! durations of its direct children (children run inside the parent on the
//! same thread, one after another, so they never overlap). Self time is
//! summed per span name as spans close, so memory stays bounded however
//! many requests a run makes; the first [`MAX_KEPT`] raw spans are kept for
//! writing out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the JSONL dump.
pub const MAX_KEPT: usize = 100_000;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Totals for every span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; every call is a no-op when disabled.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    op: u64,
    stack: Vec<Open>,
    /// Self time per layer inside the currently open request.
    op_layers: BTreeMap<&'static str, u64>,
    /// Per span name totals.
    pub stats: BTreeMap<&'static str, NameStat>,
    /// Per layer, the self time (ns) it took in each request that entered it.
    pub layer_per_op: BTreeMap<&'static str, Vec<f64>>,
    pub kept: Vec<Span>,
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Tracer {
    /// A tracer; `id_base` keeps span and op ids of several threads apart.
    pub fn new(on: bool, epoch: Instant, id_base: u64) -> Self {
        Tracer {
            on,
            epoch,
            next_id: id_base,
            op: id_base,
            stack: Vec::new(),
            op_layers: BTreeMap::new(),
            stats: BTreeMap::new(),
            layer_per_op: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    /// A disabled tracer.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a span named `layer.what` (roots are named `op.kind`).
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("end() without begin()");
        let dur = end_ns - open.start_ns;
        let self_ns = dur.saturating_sub(open.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let s = self.stats.entry(open.name).or_default();
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += self_ns;
        *self.op_layers.entry(layer(open.name)).or_default() += self_ns;
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Span {
                id: open.id,
                parent,
                op: self.op,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        if self.stack.is_empty() {
            for (l, ns) in std::mem::take(&mut self.op_layers) {
                self.layer_per_op.entry(l).or_default().push(ns as f64);
            }
        }
    }

    /// Fold another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, s) in other.stats {
            let t = self.stats.entry(name).or_default();
            t.count += s.count;
            t.total_ns += s.total_ns;
            t.self_ns += s.self_ns;
        }
        for (l, v) in other.layer_per_op {
            self.layer_per_op.entry(l).or_default().extend(v);
        }
        let room = MAX_KEPT.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Totals for one span name (zero when it never ran).
    pub fn stat(&self, name: &str) -> NameStat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of spans named `name`, in ns (NaN when none ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let s = self.stat(name);
        s.total_ns as f64 / s.count as f64
    }

    /// The kept spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The attribution of a traced run: request time split into layer self
/// times, plus what no layer span covers.
pub struct Attribution {
    /// Summed duration of all requests (root spans), ns.
    pub e2e_ns: u64,
    /// Self time per layer (roots excluded), ns.
    pub layers: Vec<(String, u64)>,
    /// Root self time: request time no layer span covers, ns.
    pub residual_ns: u64,
}

impl Attribution {
    pub fn of(tr: &Tracer) -> Self {
        let mut e2e_ns = 0;
        let mut residual_ns = 0;
        let mut layers: BTreeMap<String, u64> = BTreeMap::new();
        for (name, s) in &tr.stats {
            if layer(name) == "op" {
                e2e_ns += s.total_ns;
                residual_ns += s.self_ns;
            } else {
                *layers.entry(layer(name).to_string()).or_default() += s.self_ns;
            }
        }
        Attribution {
            e2e_ns,
            layers: layers.into_iter().collect(),
            residual_ns,
        }
    }

    /// Residual as a share of request time.
    pub fn residual_frac(&self) -> f64 {
        self.residual_ns as f64 / self.e2e_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        tr.begin("op.x");
        tr.begin("select.a");
        spin(200_000);
        tr.begin("sum.b");
        spin(300_000);
        tr.end();
        tr.end();
        spin(100_000);
        tr.end();
        let a = tr.stat("select.a");
        let b = tr.stat("sum.b");
        assert_eq!(a.total_ns - a.self_ns, b.total_ns);
        assert!(b.self_ns >= 300_000);
        let at = Attribution::of(&tr);
        let covered: u64 = at.layers.iter().map(|(_, ns)| ns).sum();
        assert_eq!(covered + at.residual_ns, at.e2e_ns);
        assert!(at.residual_ns >= 100_000);
        assert_eq!(tr.kept.len(), 3);
        assert!(tr.kept.iter().all(|s| s.op == tr.kept[0].op));
        assert_eq!(tr.kept[2].parent, 0);
        assert_eq!(tr.layer_per_op["sum"].len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.begin("op.x");
        tr.end();
        assert!(tr.stats.is_empty() && tr.kept.is_empty());
    }
}

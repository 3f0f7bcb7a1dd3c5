//! In-memory span recorder for the traced run.
//!
//! The benchmark cannot place spans inside the program, so it records
//! them around its own calls into each layer's public functions. A
//! span's `parent` names the call whose work this call repeats one
//! layer down: `UpServer::query` is the child of `Client::query`,
//! `Database::query` the child of `UpServer::query`, and so on. The
//! calls run one after another, so a layer's self time is its span's
//! duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of this span in its [`Tracer`].
    pub id: u32,
    /// The span whose work this call repeats one layer down.
    pub parent: Option<u32>,
    /// Request the span belongs to.
    pub request: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one thread, kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    /// Sets the parent of span `id` (for calls made before their parent).
    pub fn set_parent(&mut self, id: u32, parent: u32) {
        self.spans[id as usize].parent = Some(parent);
    }

    /// Appends another tracer's spans (same epoch), renumbering them.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Per-request differences `parent − child` (µs) between spans named
    /// `parent` and their children named `child`.
    pub fn gaps(&self, parent: &str, child: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == child)
            .filter_map(|c| {
                let p = &self.spans[c.parent? as usize];
                (p.name == parent).then(|| p.us() - c.us())
            })
            .collect()
    }

    /// Self time per layer, summed over every span tree rooted at a span
    /// named `root`, plus the roots' total duration (both µs). Self time
    /// is a span's duration minus its children's, floored at zero.
    pub fn layer_self_us(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.us();
            }
        }
        let in_tree = |s: &Span| {
            let mut cur = *s;
            while let Some(p) = cur.parent {
                cur = self.spans[p as usize];
            }
            cur.name == root
        };
        let mut layers = BTreeMap::new();
        let mut total = 0.0;
        for s in self.spans.iter().filter(|s| in_tree(s)) {
            if s.parent.is_none() {
                total += s.us();
            }
            *layers.entry(s.layer()).or_insert(0.0) += (s.us() - child_us[s.id as usize]).max(0.0);
        }
        (layers, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let spin = |us: u64| {
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < us as u128 {}
        };
        let (_, root) = t.span("net.query", 1, None, || spin(300));
        let (_, srv) = t.span("server.query", 1, Some(root), || spin(200));
        t.span("engine.query", 1, Some(srv), || spin(100));
        t.span("jit.compile", 1, None, || spin(50));
        let (layers, total) = t.layer_self_us("net.query");
        assert!(total >= 300.0);
        assert!(
            !layers.contains_key("jit"),
            "spans outside the tree are not counted"
        );
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-6, "self times partition the root");
        assert_eq!(t.gaps("net.query", "server.query").len(), 1);
    }
}

//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API; nothing inside the program is instrumented. They
//! stay in memory for the whole run and are written out once at the end,
//! so the trace costs no I/O while it is measuring.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Spans`].
pub type SpanId = usize;

/// One timed call: `[start_ns, end_ns)` since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A run's spans; every recorder of one run shares an origin so spans
/// taken on different threads line up when merged.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.open_at(name, parent, Instant::now())
    }

    /// Opens a span that started at `at`.
    pub fn open_at(&mut self, name: &'static str, parent: Option<SpanId>, at: Instant) -> SpanId {
        let start_ns = self.ns_at(at);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.ns_at(Instant::now());
        self.spans[id].end_ns = end_ns;
    }

    /// Appends another recorder's spans (same origin), re-basing their
    /// ids; spans without a parent there get `parent` here.
    pub fn absorb(&mut self, other: Spans, parent: Option<SpanId>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
    }

    /// Spans named `name` whose parent is `parent`.
    pub fn children<'a>(
        &'a self,
        parent: SpanId,
        name: &'static str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.parent == Some(parent) && s.name == name)
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover. Children of one parent never overlap when they
    /// were recorded on one thread, which is how every parent here is
    /// used.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Tab-separated dump: id, parent (`-` for roots), name, start and
    /// end in ns since the origin, and self time in ns.
    pub fn to_tsv(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, own[id]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = Spans::new(Instant::now());
        let root = spans.open("root", None);
        let child = spans.open("child", Some(root));
        let grandchild = spans.open("grandchild", Some(child));
        spans.close(grandchild);
        spans.close(child);
        spans.close(root);
        let own = spans.self_times_ns();
        let d = |id: SpanId| spans.spans[id].duration_ns();
        assert_eq!(own[root], d(root) - d(child));
        assert_eq!(own[child], d(child) - d(grandchild));
        assert_eq!(own[grandchild], d(grandchild));
    }

    #[test]
    fn absorb_rebases_ids_and_adopts_roots() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        let root = a.open("root", None);
        a.close(root);
        let mut b = Spans::new(origin);
        let x = b.open("x", None);
        let y = b.open("y", Some(x));
        b.close(y);
        b.close(x);
        a.absorb(b, Some(root));
        assert_eq!(a.children(root, "x").count(), 1);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}

//! In-memory spans and the self times derived from them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which request it served, which span caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request id; every span of one request shares it.
    pub req: u64,
    /// Parent span (an index into the same tracer), if any.
    pub parent: Option<usize>,
    /// `layer.call`, e.g. `router.service`.
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// End of the call.
    pub end: Instant,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e9
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span recorded, in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `call` as a span; returns its result and the span's id.
    pub fn time<R>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        call: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        (out, self.record(req, parent, name, start, end))
    }

    /// Each span's self time, ns: its duration minus its children's.
    /// The traced run replays a request one layer deeper at a time, so a
    /// child is the same work re-run at the layer below rather than a
    /// sub-interval of its parent; subtracting durations, not covered
    /// intervals, is what makes the layers add up to the parent.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Per request rooted at a `root`-named span, the summed self time
    /// (ns) of each layer's spans.
    pub fn layer_self_by_request(&self, root: &str) -> Vec<HashMap<&'static str, f64>> {
        let own = self.self_ns();
        let mut by_req: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
        let roots: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(|s| s.req)
            .collect();
        for (s, t) in self.spans.iter().zip(own) {
            if roots.contains(&s.req) {
                *by_req
                    .entry(s.req)
                    .or_default()
                    .entry(s.layer())
                    .or_default() += t;
            }
        }
        by_req.into_values().collect()
    }

    /// Appends another tracer's spans (ids shift past this one's).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON line (`id`, `req`, `parent`,
    /// `name`, `start_ns`, `end_ns` relative to `origin`).
    pub fn write(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        let rel = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.name,
                rel(s.start),
                rel(s.end)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

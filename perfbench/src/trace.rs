//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions from the benchmark's own code; nothing inside the program
//! is instrumented. A disabled recorder makes `open`/`close` no-ops, so
//! the same replay loop runs traced and untraced and the difference is
//! the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`None` when the recorder is disabled).
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// Per-name aggregate: call count, busy time, self time (busy minus the
/// part covered by child spans) and the duration samples.
#[derive(Default)]
pub struct LayerTotals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl LayerTotals {
    /// Median span duration in nanoseconds (0.0 with no spans).
    pub fn p50_ns(&self) -> f64 {
        let ns = self.durations_ns.iter().map(|&d| d as f64).collect();
        crate::stats::quantile(&crate::stats::sorted(ns), 0.5)
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Count, busy and self time per span name. Spans are recorded on
    /// one thread, so children of a span never overlap each other.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.busy_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
            t.durations_ns.push(dur);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        let root = r.open("root", None, 7);
        let child = r.open("child", root, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(child);
        r.close(root);
        let t = r.totals();
        assert_eq!(t["root"].count, 1);
        assert_eq!(t["child"].busy_ns, t["child"].self_ns);
        assert_eq!(t["root"].self_ns, t["root"].busy_ns - t["child"].busy_ns);
        assert!(t["child"].busy_ns >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.open("x", None, 0);
        r.close(id);
        assert!(id.is_none());
        assert!(r.totals().is_empty());
    }
}

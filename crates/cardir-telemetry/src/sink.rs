//! Snapshot sinks: a human report and a JSON-lines writer.

use crate::json::Json;
use crate::registry::Snapshot;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Renders a [`Snapshot`] as an aligned, human-readable report.
pub struct Report;

impl Report {
    /// The report text: counters first, then histograms with count,
    /// mean, p50, p95, and p99 — all in name order.
    pub fn render(snapshot: &Snapshot) -> String {
        let mut out = String::new();
        if !snapshot.counters.is_empty() {
            let width = snapshot
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0)
                .max(8);
            out.push_str("counters:\n");
            for (name, value) in &snapshot.counters {
                let _ = writeln!(out, "  {name:<width$}  {value:>12}");
            }
        }
        if !snapshot.histograms.is_empty() {
            let width = snapshot
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0)
                .max(8);
            out.push_str("histograms:\n");
            for (name, h) in &snapshot.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  count {:>9}  mean {:>14.1}  p50 {:>14.1}  p95 {:>14.1}  p99 {:>14.1}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Renders a [`Snapshot`] as self-describing JSON lines — one record
/// per metric, each with a `"type"` and `"name"` field — the in-memory
/// counterpart of [`JsonLines`] for transports that want a `String`
/// (the `cardird` `/metrics` endpoint). Counters carry their exact
/// value; histograms carry count, sum, mean, and the p50/p95/p99
/// estimates. Metrics appear in name order, counters first.
pub fn render_json_lines(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let line = Json::obj([
            ("type", Json::from("counter")),
            ("name", Json::from(name.as_str())),
            ("value", Json::U64(*value)),
        ]);
        let _ = writeln!(out, "{line}");
    }
    for (name, h) in &snapshot.histograms {
        let line = Json::obj([
            ("type", Json::from("histogram")),
            ("name", Json::from(name.as_str())),
            ("count", Json::U64(h.count)),
            ("sum", Json::U64(h.sum)),
            ("mean", Json::F64(h.mean())),
            ("p50", Json::F64(h.p50())),
            ("p95", Json::F64(h.p95())),
            ("p99", Json::F64(h.p99())),
        ]);
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Writes self-describing JSON-lines records: one object per line, each
/// carrying a `"type"` field so a stream of mixed records stays
/// machine-readable without a schema on the side.
pub struct JsonLines<W: Write> {
    writer: W,
}

impl<W: Write> JsonLines<W> {
    /// Wraps a writer. Callers keep responsibility for buffering (pass a
    /// `BufWriter` for files).
    pub fn new(writer: W) -> Self {
        JsonLines { writer }
    }

    /// Emits one record as a single line. A `"type"` field is prepended
    /// (or kept first if `record` already leads with one).
    pub fn emit(&mut self, kind: &str, record: Json) -> io::Result<()> {
        let line = match record {
            Json::Obj(mut fields) => {
                if fields.first().map(|(k, _)| k.as_str()) != Some("type") {
                    fields.insert(0, ("type".to_string(), Json::from(kind)));
                }
                Json::Obj(fields)
            }
            other => Json::obj([("type", Json::from(kind)), ("value", other)]),
        };
        writeln!(self.writer, "{line}")
    }

    /// Emits a whole [`Snapshot`] as one `"snapshot"` line: counters as
    /// an object, histograms as objects with bounds, buckets, count, sum,
    /// and the p50/p95/p99 estimates.
    pub fn emit_snapshot(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        let counters = Json::Obj(
            snapshot
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::U64(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            snapshot
                .histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", Json::U64(h.count)),
                            ("sum", Json::U64(h.sum)),
                            ("mean", Json::F64(h.mean())),
                            ("p50", Json::F64(h.p50())),
                            ("p95", Json::F64(h.p95())),
                            ("p99", Json::F64(h.p99())),
                            (
                                "bounds",
                                Json::Arr(h.bounds.iter().map(|&b| Json::U64(b)).collect()),
                            ),
                            (
                                "buckets",
                                Json::Arr(h.buckets.iter().map(|&b| Json::U64(b)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        self.emit(
            "snapshot",
            Json::obj([("counters", counters), ("histograms", histograms)]),
        )
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Unwraps the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::registry::Registry;

    #[test]
    fn report_renders_counters_and_histograms() {
        let r = Registry::new();
        r.counter("engine.pairs").add(9);
        r.histogram("lat", &[10, 100]).record(7);
        let text = Report::render(&r.snapshot());
        assert!(text.contains("engine.pairs"), "{text}");
        assert!(text.contains("count"), "{text}");
        assert_eq!(
            Report::render(&Snapshot::default()),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn render_json_lines_is_one_parsable_record_per_metric() {
        let r = Registry::new();
        r.counter("server.requests").add(12);
        r.histogram("server.request_ns", &[10, 100]).record(42);
        let text = render_json_lines(&r.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let counter = parse(lines[0]).unwrap();
        assert_eq!(counter.get("type").and_then(Json::as_str), Some("counter"));
        assert_eq!(
            counter.get("name").and_then(Json::as_str),
            Some("server.requests")
        );
        assert_eq!(counter.get("value").and_then(Json::as_u64), Some(12));
        let hist = parse(lines[1]).unwrap();
        assert_eq!(hist.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(
            hist.get("name").and_then(Json::as_str),
            Some("server.request_ns")
        );
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert!(hist.get("p95").and_then(Json::as_f64).is_some());
        assert_eq!(render_json_lines(&Snapshot::default()), "");
    }

    #[test]
    fn emit_prepends_type_and_stays_one_line() {
        let mut sink = JsonLines::new(Vec::new());
        sink.emit("cell", Json::obj([("threads", Json::U64(4))]))
            .unwrap();
        sink.emit("scalar", Json::U64(3)).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("cell"));
        assert_eq!(first.get("threads").and_then(Json::as_u64), Some(4));
        let second = parse(lines[1]).unwrap();
        assert_eq!(second.get("type").and_then(Json::as_str), Some("scalar"));
        assert_eq!(second.get("value").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn snapshot_line_parses_back_with_stable_fields() {
        let r = Registry::new();
        r.counter("a.count").add(3);
        r.histogram("b.ns", &[100, 200]).record(150);
        let mut sink = JsonLines::new(Vec::new());
        sink.emit_snapshot(&r.snapshot()).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let v = parse(text.trim_end()).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("snapshot"));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("a.count").and_then(Json::as_u64), Some(3));
        let hist = v.get("histograms").unwrap().get("b.ns").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(150));
        assert!(
            hist.get("p95").and_then(Json::as_f64).is_some(),
            "p95 exported"
        );
        assert_eq!(
            hist.get("buckets").unwrap(),
            &Json::Arr(vec![Json::U64(0), Json::U64(1), Json::U64(0)])
        );
    }
}

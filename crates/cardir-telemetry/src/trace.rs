//! Execution tracing: per-thread timeline spans, Chrome
//! `trace_event`-format export, and a hand-rolled trace analyzer.
//!
//! Counters and histograms (the rest of this crate) can say *that* a
//! batch run is slow; they cannot say *where each worker's wall-clock
//! went*. This module records the timeline itself:
//!
//! * [`Tracer`] — the collection point. Disabled by default
//!   ([`Tracer::disabled`] is a `None` inside, so the hot path is one
//!   branch and **zero allocations**); enabled tracers hand out
//!   per-thread buffers and merge them at scope exit.
//! * [`ThreadTrace`] — a fixed-capacity, thread-local event buffer.
//!   Recording a span is `Instant::now()` twice plus a `Vec` push into
//!   preallocated storage: no locks, no allocation, no contention on the
//!   hot path. When the buffer fills, further events are counted as
//!   dropped rather than blocking or reallocating. The buffer merges
//!   into the tracer exactly once, on drop (scope exit).
//! * [`TraceSpan`] — RAII over [`ThreadTrace::begin`] /
//!   [`ThreadTrace::end`] for straight-line phases; the worker loop uses
//!   the explicit begin/end pair so the buffer stays borrowable inside
//!   the span.
//! * [`ChromeTrace`] — the exporter/parser pair for Chrome
//!   `trace_event` JSON. The emitted file loads directly in Perfetto or
//!   `chrome://tracing` (each bench cell is a process, each worker a
//!   named thread, every span a `ph:"X"` complete event) **and** leads
//!   with a `"type":"chrome_trace"` field so the workspace's `json_check`
//!   validates it like any other telemetry emission. Exact nanosecond
//!   timestamps ride in `args` (`ts`/`dur` are microsecond doubles, the
//!   format's unit) so the analyzer never loses precision.
//! * [`ProcessAnalysis`] — the analyzer: per-thread busy / queue-wait /
//!   idle attribution, a per-phase breakdown, and the concurrency
//!   profile (how much wall time ran at 0, 1, 2, … simultaneously busy
//!   threads — the *serialized fraction* is the share at ≤ 1).
//!
//! Phase names are `&'static str` tags (see [`phases`] for the engine's
//! vocabulary) so recording never allocates; parsed traces carry owned
//! names via `Cow`.

use crate::json::{parse as parse_json, Json, JsonError};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Default per-thread event capacity: enough for ~16k chunk spans plus
/// their queue-waits — a 1 000-region join (≈ 200 chunks of exact work)
/// records a few hundred events across all workers.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The phase vocabulary the engine records. The analyzer treats
/// [`phases::QUEUE_WAIT`] as waiting and every other phase as busy; the
/// names appear verbatim in Perfetto.
pub mod phases {
    /// `RegionCache::build` (engine crate) — per-map derived data.
    pub const CACHE_BUILD: &str = "cache_build";
    /// The spatial join's two plane sweeps partitioning the pair space.
    pub const SWEEP_PARTITION: &str = "sweep_partition";
    /// Between-chunk time on a worker: cooperative policy checks plus
    /// the atomic chunk claim. Long spans here mean the worker was
    /// starved or descheduled, not computing.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// One claimed chunk's exact-pass computation, result push included.
    pub const CHUNK_COMPUTE: &str = "chunk_compute";
    /// `JoinOutcome::materialize` (engine crate) — expanding mask-emitted pairs into
    /// the full ordered-pair vector.
    pub const MATERIALIZE: &str = "materialize";
}

/// Thread id the engine uses for coordinator-side phases (cache build,
/// mask build, sweep, materialize). Workers are numbered from 1.
pub const MAIN_TID: u32 = 0;

/// One recorded span: a phase tag, the recording thread, an optional
/// chunk id, and exact nanosecond start/duration relative to the
/// tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Phase tag. Recorded events borrow a `&'static str` (no
    /// allocation); parsed events own their name.
    pub name: Cow<'static, str>,
    /// Recording thread: [`MAIN_TID`] or a worker slot (1-based).
    pub tid: u32,
    /// The work-queue chunk this span covers, when it covers one.
    pub chunk: Option<u64>,
    /// Nanoseconds from the tracer's epoch to the span's start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl TraceEvent {
    /// Exclusive end of the span in epoch nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

#[derive(Debug)]
struct TracerShared {
    epoch: Instant,
    capacity: usize,
    merged: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

/// The trace collection point. Cloning shares the underlying buffers
/// (like the metric handles elsewhere in this crate); the default is
/// disabled, which costs one branch per would-be event and allocates
/// nothing, ever.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// An enabled tracer with the default per-thread capacity.
    pub fn enabled() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer whose per-thread buffers hold at most
    /// `capacity` events each; further events are counted in
    /// [`Tracer::dropped`] instead of reallocating on the hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                merged: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// `true` when spans will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens the per-thread buffer for `tid`. Enabled tracers
    /// preallocate the full capacity here — once, off the hot path — so
    /// recording never allocates; disabled tracers hand back an inert
    /// buffer with zero capacity.
    pub fn thread(&self, tid: u32) -> ThreadTrace {
        let buf = match &self.shared {
            Some(s) => Vec::with_capacity(s.capacity),
            None => Vec::new(),
        };
        ThreadTrace { shared: self.shared.clone(), tid, buf, dropped: 0 }
    }

    /// Events discarded because a per-thread buffer was full (merged
    /// buffers only — a still-open [`ThreadTrace`] reports on drop).
    pub fn dropped(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Takes every merged event, sorted by start time (ties by thread
    /// then name), leaving the tracer empty and ready for another run.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(shared) = &self.shared else { return Vec::new() };
        let mut events =
            std::mem::take(&mut *shared.merged.lock().unwrap_or_else(PoisonError::into_inner));
        events.sort_by(|a, b| {
            (a.start_ns, a.tid, &a.name).cmp(&(b.start_ns, b.tid, &b.name))
        });
        events
    }
}

/// A per-thread event buffer: all recording goes through here, lock-free
/// and allocation-free. Merges into the owning [`Tracer`] exactly once,
/// when dropped (scope exit).
#[derive(Debug)]
pub struct ThreadTrace {
    shared: Option<Arc<TracerShared>>,
    tid: u32,
    buf: Vec<TraceEvent>,
    dropped: u64,
}

impl ThreadTrace {
    /// The thread id this buffer records under.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Marks the start of a span. Returns `None` (and reads no clock)
    /// when the tracer is disabled — the hot path's only cost is this
    /// branch.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.shared.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened by [`ThreadTrace::begin`], recording it
    /// under `name` with an optional chunk id. A `None` start (disabled
    /// tracer) is a no-op.
    #[inline]
    pub fn end(&mut self, begin: Option<Instant>, name: &'static str, chunk: Option<u64>) {
        let Some(start) = begin else { return };
        let Some(shared) = &self.shared else { return };
        let dur_ns = saturating_ns(start.elapsed());
        let start_ns = saturating_ns(start.saturating_duration_since(shared.epoch));
        if self.buf.len() < shared.capacity {
            self.buf.push(TraceEvent {
                name: Cow::Borrowed(name),
                tid: self.tid,
                chunk,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// An RAII span for straight-line phases: records on drop. The
    /// guard borrows the buffer, so use [`ThreadTrace::begin`] /
    /// [`ThreadTrace::end`] where the body must keep recording.
    pub fn span(&mut self, name: &'static str, chunk: Option<u64>) -> TraceSpan<'_> {
        let start = self.begin();
        TraceSpan { owner: self, name, chunk, start }
    }

    /// Events recorded so far (merged events not included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded into this buffer yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        let Some(shared) = &self.shared else { return };
        if self.dropped > 0 {
            shared.dropped.fetch_add(self.dropped, Ordering::Relaxed);
        }
        if !self.buf.is_empty() {
            shared
                .merged
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut self.buf);
        }
    }
}

/// RAII recording guard returned by [`ThreadTrace::span`].
#[derive(Debug)]
pub struct TraceSpan<'a> {
    owner: &'a mut ThreadTrace,
    name: &'static str,
    chunk: Option<u64>,
    start: Option<Instant>,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        self.owner.end(self.start.take(), self.name, self.chunk);
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// One traced run inside a [`ChromeTrace`]: a label (rendered as the
/// Perfetto process name), the events, and how many were dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProcess {
    /// Process label, e.g. `"quantitative t=8"`.
    pub label: String,
    /// Events of this process, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Events lost to full per-thread buffers during this run.
    pub dropped: u64,
}

/// Errors from [`ChromeTrace::parse`].
#[derive(Debug)]
pub enum TraceError {
    /// The text was not valid JSON (by the workspace's own parser).
    Json(JsonError),
    /// The JSON was well-formed but not a trace this module wrote.
    Malformed(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "trace is not valid JSON: {e}"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<JsonError> for TraceError {
    fn from(e: JsonError) -> Self {
        TraceError::Json(e)
    }
}

/// A multi-process Chrome `trace_event` document: the writer side
/// collects one process per traced run, the parser side reads the same
/// format back for analysis. Round-trips through the workspace's own
/// JSON parser.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    /// Traced runs; the index is the Perfetto `pid`.
    pub processes: Vec<TraceProcess>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Drains `tracer` into a new process named `label`, returning its
    /// pid. The tracer is left empty, ready for the next run.
    pub fn add_process(&mut self, label: &str, tracer: &Tracer) -> u32 {
        self.add_events(label, tracer.drain(), tracer.dropped())
    }

    /// Adds a process from already-collected events.
    pub fn add_events(&mut self, label: &str, events: Vec<TraceEvent>, dropped: u64) -> u32 {
        let pid = self.processes.len() as u32;
        self.processes.push(TraceProcess { label: label.to_string(), events, dropped });
        pid
    }

    /// The full document as a [`Json`] value. Layout per event:
    /// `ph:"X"` complete events with `ts`/`dur` in microseconds (the
    /// format's unit, accepted by Perfetto and `chrome://tracing`) and
    /// exact `start_ns`/`dur_ns` (plus `chunk` when tagged) in `args`;
    /// `ph:"M"` metadata names each process and thread. The object
    /// leads with `"type":"chrome_trace"` — viewers ignore unknown
    /// keys, and `json_check` accepts the file as a one-record
    /// telemetry emission.
    pub fn to_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let mut dropped_total = 0u64;
        for (pid, process) in self.processes.iter().enumerate() {
            let pid = pid as u32;
            events.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(u64::from(pid))),
                ("tid", Json::from(0u64)),
                ("args", Json::obj([("name", Json::from(process.label.as_str()))])),
            ]));
            let mut tids: Vec<u32> = process.events.iter().map(|e| e.tid).collect();
            tids.sort_unstable();
            tids.dedup();
            for tid in tids {
                let name = if tid == MAIN_TID {
                    "coordinator".to_string()
                } else {
                    format!("worker-{tid}")
                };
                events.push(Json::obj([
                    ("name", Json::from("thread_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(u64::from(pid))),
                    ("tid", Json::from(u64::from(tid))),
                    ("args", Json::obj([("name", Json::from(name.as_str()))])),
                ]));
            }
            for e in &process.events {
                let mut args = vec![
                    ("start_ns".to_string(), Json::U64(e.start_ns)),
                    ("dur_ns".to_string(), Json::U64(e.dur_ns)),
                ];
                if let Some(chunk) = e.chunk {
                    args.push(("chunk".to_string(), Json::U64(chunk)));
                }
                events.push(Json::obj([
                    ("name", Json::from(e.name.as_ref())),
                    ("cat", Json::from("cardir")),
                    ("ph", Json::from("X")),
                    ("pid", Json::from(u64::from(pid))),
                    ("tid", Json::from(u64::from(e.tid))),
                    ("ts", Json::F64(e.start_ns as f64 / 1_000.0)),
                    ("dur", Json::F64(e.dur_ns as f64 / 1_000.0)),
                    ("args", Json::Obj(args)),
                ]));
            }
            dropped_total += process.dropped;
        }
        Json::obj([
            ("type", Json::from("chrome_trace")),
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            (
                "otherData",
                Json::obj([("dropped_events", Json::U64(dropped_total))]),
            ),
        ])
    }

    /// Writes the document (one line of JSON) to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{}", self.to_json())
    }

    /// Parses a document previously produced by [`ChromeTrace::write_to`]
    /// back into processes and events, using the workspace's own JSON
    /// parser. Metadata events rebuild the process labels; exact
    /// nanosecond times come from `args`, never from the lossy
    /// microsecond `ts`.
    pub fn parse(text: &str) -> Result<ChromeTrace, TraceError> {
        let doc = parse_json(text.trim())?;
        let Some(Json::Arr(raw)) = doc.get("traceEvents") else {
            return Err(TraceError::Malformed("no traceEvents array".into()));
        };
        let dropped_total = doc
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let mut trace = ChromeTrace::new();
        let mut by_pid: Vec<(u32, TraceProcess)> = Vec::new();
        for (i, ev) in raw.iter().enumerate() {
            let field = |k: &str| {
                ev.get(k)
                    .ok_or_else(|| TraceError::Malformed(format!("event {i} missing {k:?}")))
            };
            let ph = field("ph")?
                .as_str()
                .ok_or_else(|| TraceError::Malformed(format!("event {i}: ph not a string")))?;
            let pid = field("pid")?
                .as_u64()
                .ok_or_else(|| TraceError::Malformed(format!("event {i}: bad pid")))?
                as u32;
            let process = match by_pid.iter_mut().find(|(p, _)| *p == pid) {
                Some((_, proc_)) => proc_,
                None => {
                    by_pid.push((
                        pid,
                        TraceProcess { label: String::new(), events: Vec::new(), dropped: 0 },
                    ));
                    &mut by_pid.last_mut().expect("just pushed").1
                }
            };
            match ph {
                "M" => {
                    if field("name")?.as_str() == Some("process_name") {
                        if let Some(name) =
                            ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                        {
                            process.label = name.to_string();
                        }
                    }
                }
                "X" => {
                    let name = field("name")?
                        .as_str()
                        .ok_or_else(|| {
                            TraceError::Malformed(format!("event {i}: name not a string"))
                        })?
                        .to_string();
                    let tid = field("tid")?
                        .as_u64()
                        .ok_or_else(|| TraceError::Malformed(format!("event {i}: bad tid")))?
                        as u32;
                    let args = field("args")?;
                    let exact = |k: &str| {
                        args.get(k).and_then(Json::as_u64).ok_or_else(|| {
                            TraceError::Malformed(format!("event {i}: args.{k} missing"))
                        })
                    };
                    process.events.push(TraceEvent {
                        name: Cow::Owned(name),
                        tid,
                        chunk: args.get("chunk").and_then(Json::as_u64),
                        start_ns: exact("start_ns")?,
                        dur_ns: exact("dur_ns")?,
                    });
                }
                other => {
                    return Err(TraceError::Malformed(format!(
                        "event {i}: unsupported phase {other:?}"
                    )))
                }
            }
        }
        by_pid.sort_by_key(|&(pid, _)| pid);
        trace.processes = by_pid.into_iter().map(|(_, p)| p).collect();
        // The writer only tracks a document-wide dropped count; pin it on
        // the first process so totals survive a round-trip.
        if let Some(first) = trace.processes.first_mut() {
            first.dropped = dropped_total;
        }
        Ok(trace)
    }
}

/// Busy / queue-wait / idle attribution for one thread of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadUtilization {
    /// The thread id ([`MAIN_TID`] is the coordinator).
    pub tid: u32,
    /// Nanoseconds inside busy spans (every phase except
    /// [`phases::QUEUE_WAIT`]).
    pub busy_ns: u64,
    /// Nanoseconds inside [`phases::QUEUE_WAIT`] spans.
    pub wait_ns: u64,
    /// Spans recorded by this thread.
    pub events: usize,
}

/// Totals for one phase tag across a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// The phase tag.
    pub name: String,
    /// Number of spans.
    pub count: usize,
    /// Total nanoseconds across all spans of this phase.
    pub total_ns: u64,
}

/// The analyzer's verdict on one traced process: utilization, phase
/// breakdown, and the concurrency profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessAnalysis {
    /// The process label.
    pub label: String,
    /// Wall clock from the earliest span start to the latest span end.
    pub wall_ns: u64,
    /// Per-thread attribution, ascending tid.
    pub threads: Vec<ThreadUtilization>,
    /// Per-phase totals, descending total time.
    pub phases: Vec<PhaseBreakdown>,
    /// `concurrency[k]` = nanoseconds during which exactly `k` threads
    /// were inside a busy span. Index 0 counts wall time with no busy
    /// thread at all (pure wait / scheduling gaps).
    pub concurrency: Vec<u64>,
    /// Spans analyzed.
    pub events: usize,
    /// Events the recorder dropped (buffer overflow) — the analysis is
    /// an undercount if this is non-zero.
    pub dropped: u64,
}

impl ProcessAnalysis {
    /// Analyzes one process's events.
    pub fn analyze(process: &TraceProcess) -> ProcessAnalysis {
        let events = &process.events;
        let min_start = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let max_end = events.iter().map(TraceEvent::end_ns).max().unwrap_or(0);
        let wall_ns = max_end.saturating_sub(min_start);

        let mut threads: Vec<ThreadUtilization> = Vec::new();
        let mut phase_totals: Vec<PhaseBreakdown> = Vec::new();
        for e in events {
            let t = match threads.iter_mut().find(|t| t.tid == e.tid) {
                Some(t) => t,
                None => {
                    threads.push(ThreadUtilization {
                        tid: e.tid,
                        busy_ns: 0,
                        wait_ns: 0,
                        events: 0,
                    });
                    threads.last_mut().expect("just pushed")
                }
            };
            t.events += 1;
            if e.name == phases::QUEUE_WAIT {
                t.wait_ns += e.dur_ns;
            } else {
                t.busy_ns += e.dur_ns;
            }
            match phase_totals.iter_mut().find(|p| p.name == e.name) {
                Some(p) => {
                    p.count += 1;
                    p.total_ns += e.dur_ns;
                }
                None => phase_totals.push(PhaseBreakdown {
                    name: e.name.to_string(),
                    count: 1,
                    total_ns: e.dur_ns,
                }),
            }
        }
        threads.sort_by_key(|t| t.tid);
        phase_totals.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

        // Concurrency profile: sweep the busy-span edges. Ends sort
        // before starts at equal timestamps so back-to-back spans on one
        // thread never read as a concurrency bump.
        let mut edges: Vec<(u64, i32)> = Vec::new();
        for e in events {
            if e.name != phases::QUEUE_WAIT && e.dur_ns > 0 {
                edges.push((e.start_ns, 1));
                edges.push((e.end_ns(), -1));
            }
        }
        edges.sort_by_key(|&(t, delta)| (t, delta));
        let mut concurrency: Vec<u64> = Vec::new();
        let mut level = 0i64;
        let mut cursor = min_start;
        for (t, delta) in edges {
            let t = t.clamp(min_start, max_end);
            if t > cursor {
                let idx = usize::try_from(level.max(0)).unwrap_or(0);
                if concurrency.len() <= idx {
                    concurrency.resize(idx + 1, 0);
                }
                concurrency[idx] += t - cursor;
                cursor = t;
            }
            level += i64::from(delta);
        }
        if max_end > cursor {
            if concurrency.is_empty() {
                concurrency.push(0);
            }
            concurrency[0] += max_end - cursor;
        }

        ProcessAnalysis {
            label: process.label.clone(),
            wall_ns,
            threads,
            phases: phase_totals,
            concurrency,
            events: events.len(),
            dropped: process.dropped,
        }
    }

    /// Wall time during which at most one thread was busy — the
    /// serialized part of the run. A parallel pipeline that is secretly
    /// serial shows this near 100 % of [`ProcessAnalysis::wall_ns`].
    pub fn serialized_ns(&self) -> u64 {
        self.concurrency.iter().take(2).sum()
    }

    /// [`ProcessAnalysis::serialized_ns`] over the wall clock, in
    /// `[0, 1]`; `1.0` for an empty trace.
    pub fn serial_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.serialized_ns() as f64 / self.wall_ns as f64
        }
    }

    /// Mean number of busy threads over the wall clock — the effective
    /// parallelism actually achieved.
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let weighted: u128 =
            self.concurrency.iter().enumerate().map(|(k, &ns)| k as u128 * ns as u128).sum();
        weighted as f64 / self.wall_ns as f64
    }

    /// The human report: utilization percentages per thread, the phase
    /// breakdown, and the concurrency/serialization profile.
    pub fn render(&self) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "process {:?}: wall {}, {} threads, {} spans{}",
            self.label,
            fmt_ns(self.wall_ns),
            self.threads.len(),
            self.events,
            if self.dropped > 0 {
                format!(" ({} DROPPED — analysis undercounts)", self.dropped)
            } else {
                String::new()
            },
        );
        out.push_str("  per-thread utilization (busy / queue-wait / idle of wall):\n");
        for t in &self.threads {
            let busy = 100.0 * t.busy_ns as f64 / wall;
            let wait = 100.0 * t.wait_ns as f64 / wall;
            let idle = (100.0 - busy - wait).max(0.0);
            let who = if t.tid == MAIN_TID {
                "coordinator".to_string()
            } else {
                format!("worker-{}", t.tid)
            };
            let _ = writeln!(
                out,
                "    {who:<12} busy {:>6.1}%  wait {:>6.1}%  idle {:>6.1}%   ({} spans, busy {})",
                busy,
                wait,
                idle,
                t.events,
                fmt_ns(t.busy_ns),
            );
        }
        out.push_str("  phase breakdown (total across threads):\n");
        let total_span_ns: u64 = self.phases.iter().map(|p| p.total_ns).sum();
        for p in &self.phases {
            let _ = writeln!(
                out,
                "    {:<16} {:>7} spans  {:>12}  {:>5.1}% of span-time",
                p.name,
                p.count,
                fmt_ns(p.total_ns),
                100.0 * p.total_ns as f64 / total_span_ns.max(1) as f64,
            );
        }
        out.push_str("  concurrency profile (share of wall at k busy threads):\n");
        for (k, &ns) in self.concurrency.iter().enumerate() {
            if ns > 0 {
                let _ = writeln!(
                    out,
                    "    {k} busy: {:>6.1}%  ({})",
                    100.0 * ns as f64 / wall,
                    fmt_ns(ns)
                );
            }
        }
        let _ = writeln!(
            out,
            "  serialized (<=1 busy): {:.1}% of wall; effective parallelism {:.2}x",
            100.0 * self.serial_fraction(),
            self.effective_parallelism(),
        );
        out
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, chunk: Option<u64>, start: u64, dur: u64) -> TraceEvent {
        TraceEvent { name: Cow::Borrowed(name), tid, chunk, start_ns: start, dur_ns: dur }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut tt = tracer.thread(1);
        assert_eq!(tt.begin(), None);
        tt.end(None, phases::CHUNK_COMPUTE, Some(1));
        {
            let _s = tt.span(phases::SWEEP_PARTITION, None);
        }
        assert!(tt.is_empty());
        drop(tt);
        assert!(tracer.drain().is_empty());
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn spans_record_and_merge_on_scope_exit() {
        let tracer = Tracer::enabled();
        {
            let mut tt = tracer.thread(2);
            let t0 = tt.begin();
            std::thread::sleep(std::time::Duration::from_millis(1));
            tt.end(t0, phases::CHUNK_COMPUTE, Some(7));
            // Not merged until the buffer drops.
            assert_eq!(tt.len(), 1);
            assert!(tracer.drain().is_empty());
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, phases::CHUNK_COMPUTE);
        assert_eq!(events[0].tid, 2);
        assert_eq!(events[0].chunk, Some(7));
        assert!(events[0].dur_ns >= 1_000_000, "slept 1ms: {}", events[0].dur_ns);
        // Drain leaves the tracer reusable.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn capacity_overflow_counts_dropped_instead_of_allocating() {
        let tracer = Tracer::with_capacity(2);
        {
            let mut tt = tracer.thread(1);
            let cap_before = tt.buf.capacity();
            for i in 0..5 {
                let t0 = tt.begin();
                tt.end(t0, phases::CHUNK_COMPUTE, Some(i));
            }
            assert_eq!(tt.len(), 2);
            assert_eq!(tt.buf.capacity(), cap_before, "no reallocation past capacity");
        }
        assert_eq!(tracer.drain().len(), 2);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn concurrent_threads_merge_without_interleaving_corruption() {
        let tracer = Tracer::enabled();
        std::thread::scope(|s| {
            for tid in 1..=4u32 {
                let tracer = &tracer;
                s.spawn(move || {
                    let mut tt = tracer.thread(tid);
                    for i in 0..100 {
                        let t0 = tt.begin();
                        tt.end(t0, phases::CHUNK_COMPUTE, Some(i));
                    }
                });
            }
        });
        let events = tracer.drain();
        assert_eq!(events.len(), 400);
        for tid in 1..=4u32 {
            assert_eq!(events.iter().filter(|e| e.tid == tid).count(), 100);
        }
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns), "drain sorts");
    }

    #[test]
    fn chrome_roundtrip_preserves_events_and_labels() {
        let mut chrome = ChromeTrace::new();
        chrome.add_events(
            "cell-a",
            vec![
                ev(phases::SWEEP_PARTITION, MAIN_TID, None, 10, 40),
                ev(phases::QUEUE_WAIT, 1, Some(0), 55, 5),
                ev(phases::CHUNK_COMPUTE, 1, Some(0), 60, 100),
            ],
            2,
        );
        chrome.add_events("cell-b", vec![ev(phases::CHUNK_COMPUTE, 3, Some(9), 0, 7)], 0);
        let mut buf = Vec::new();
        chrome.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1, "one JSON line");

        // The document passes the same shape checks json_check applies.
        let doc = parse_json(text.trim()).unwrap();
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("chrome_trace"));

        let parsed = ChromeTrace::parse(&text).unwrap();
        assert_eq!(parsed.processes.len(), 2);
        assert_eq!(parsed.processes[0].label, "cell-a");
        assert_eq!(parsed.processes[1].label, "cell-b");
        assert_eq!(parsed.processes[0].events, chrome.processes[0].events);
        assert_eq!(parsed.processes[1].events, chrome.processes[1].events);
        assert_eq!(parsed.processes[0].dropped, 2, "dropped total survives");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(ChromeTrace::parse("not json"), Err(TraceError::Json(_))));
        assert!(matches!(ChromeTrace::parse("{\"a\":1}"), Err(TraceError::Malformed(_))));
        let no_args = r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":1,"args":{}}]}"#;
        assert!(matches!(ChromeTrace::parse(no_args), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn analysis_attributes_busy_wait_idle_and_concurrency() {
        // Two workers over a 100ns wall: worker 1 busy [0,60), waits
        // [60,70); worker 2 busy [40,100). Overlap [40,60) is the only
        // 2-busy stretch; [60,70)+[70,100) have one busy; nothing at 0.
        let process = TraceProcess {
            label: "cell".into(),
            events: vec![
                ev(phases::CHUNK_COMPUTE, 1, Some(0), 0, 60),
                ev(phases::QUEUE_WAIT, 1, None, 60, 10),
                ev(phases::CHUNK_COMPUTE, 2, Some(1), 40, 60),
            ],
            dropped: 0,
        };
        let a = ProcessAnalysis::analyze(&process);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.threads[0], ThreadUtilization { tid: 1, busy_ns: 60, wait_ns: 10, events: 2 });
        assert_eq!(a.threads[1], ThreadUtilization { tid: 2, busy_ns: 60, wait_ns: 0, events: 1 });
        assert_eq!(a.phases[0].name, phases::CHUNK_COMPUTE);
        assert_eq!(a.phases[0].total_ns, 120);
        assert_eq!(a.concurrency, vec![0, 80, 20]);
        assert_eq!(a.serialized_ns(), 80);
        assert!((a.serial_fraction() - 0.8).abs() < 1e-12);
        assert!((a.effective_parallelism() - 1.2).abs() < 1e-12);
        let report = a.render();
        assert!(report.contains("worker-1"), "{report}");
        assert!(report.contains("serialized"), "{report}");
    }

    #[test]
    fn analysis_of_back_to_back_spans_is_single_threaded() {
        // Adjacent spans on one thread share a boundary; the sweep must
        // not read the shared instant as two busy threads.
        let process = TraceProcess {
            label: "serial".into(),
            events: vec![
                ev(phases::CHUNK_COMPUTE, 1, Some(0), 0, 50),
                ev(phases::CHUNK_COMPUTE, 1, Some(1), 50, 50),
            ],
            dropped: 0,
        };
        let a = ProcessAnalysis::analyze(&process);
        assert_eq!(a.concurrency, vec![0, 100]);
        assert_eq!(a.serialized_ns(), 100);
        assert!((a.serial_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn analysis_counts_gaps_at_level_zero() {
        let process = TraceProcess {
            label: "gappy".into(),
            events: vec![
                ev(phases::CHUNK_COMPUTE, 1, None, 0, 10),
                ev(phases::CHUNK_COMPUTE, 1, None, 90, 10),
            ],
            dropped: 0,
        };
        let a = ProcessAnalysis::analyze(&process);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.concurrency, vec![80, 20]);
    }

    #[test]
    fn empty_process_analysis() {
        let a = ProcessAnalysis::analyze(&TraceProcess {
            label: "empty".into(),
            events: Vec::new(),
            dropped: 0,
        });
        assert_eq!(a.wall_ns, 0);
        assert!(a.threads.is_empty());
        assert_eq!(a.serial_fraction(), 1.0);
        assert_eq!(a.effective_parallelism(), 0.0);
    }
}

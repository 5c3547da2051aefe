//! Structured observability for the cardir workspace — standard library
//! only, like everything else in the tree.
//!
//! The paper's headline results are *cost* claims: `Compute-CDR` and
//! `Compute-CDR%` are linear in the edge count (Theorems 1–2), and the
//! batch engine's MBB spatial join removes most pairs before any edge work.
//! Making those costs observable — counters on the hot paths, duration
//! histograms around the passes, machine-readable emission from the
//! benches — is what this crate provides, in three layers:
//!
//! * [`Registry`] — a *non-global* collection of named [`Counter`]s and
//!   fixed-bucket [`Histogram`]s. Handles are cheap `Arc` clones over
//!   atomics: increments on hot paths are single lock-free RMW ops, the
//!   registry lock is taken only to register or to [`Registry::snapshot`].
//! * Sinks — [`Report`] renders a snapshot for humans; [`JsonLines`]
//!   writes one self-describing JSON object per line using the
//!   hand-rolled [`json`] module (writer *and* parser, so emitted output
//!   can be validated without external crates).
//! * [`trace`] — execution timelines: lock-free per-thread span buffers
//!   ([`Tracer`] / [`ThreadTrace`]), Chrome `trace_event` export for
//!   Perfetto ([`ChromeTrace`]), and a utilization / phase / concurrency
//!   analyzer ([`ProcessAnalysis`]). Histograms aggregate *how long*;
//!   traces keep *when and on which thread*.
//!
//! # Example
//!
//! ```
//! use cardir_telemetry::{Registry, Report};
//!
//! let registry = Registry::new();
//! let pairs = registry.counter("engine.pairs");
//! let chunk_ns = registry.histogram("engine.chunk_ns", &cardir_telemetry::DURATION_BOUNDS_NS);
//! pairs.add(512);
//! chunk_ns.record(35_000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine.pairs"), Some(512));
//! println!("{}", Report::render(&snap));
//! ```

pub mod json;
pub mod metric;
pub mod registry;
pub mod sink;
pub mod trace;

pub use json::{parse as parse_json, Json, JsonError};
pub use metric::{Counter, Histogram, HistogramSnapshot, COUNT_BOUNDS, DURATION_BOUNDS_NS};
pub use registry::{Registry, Snapshot};
pub use sink::{render_json_lines, JsonLines, Report};
pub use trace::{
    ChromeTrace, PhaseBreakdown, ProcessAnalysis, ThreadTrace, ThreadUtilization, TraceEvent,
    TraceProcess, TraceSpan, Tracer,
};

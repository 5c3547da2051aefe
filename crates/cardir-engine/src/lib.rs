//! Batch pairwise cardinal-direction engine.
//!
//! The paper's `Compute-CDR` / `Compute-CDR%` algorithms answer one
//! ordered pair at a time. Real workloads — materialising every relation
//! of a map, recomputing the pairs an edit touched — repeat the
//! per-region work (`mbb(b)`, edge scans) thousands of times. This crate
//! runs them as one pipeline, **cache → sweep → exact pass**:
//!
//! 1. [`RegionCache`] — per-region derived data (MBB, edge count, area,
//!    SoA edge store) computed once per map.
//! 2. [Spatial join](join) — two plane sweeps over the MBBs find the
//!    `K` interacting pairs in `O(N log N + K)`; every other pair lies
//!    strictly inside one tile of its reference's grid
//!    ([`decided_tile`]) and is emitted with zero edge work.
//! 3. [`BatchEngine`] — the exact work items fan out across scoped
//!    worker threads over a chunked work queue, and the finished chunks
//!    reassemble in input order, so results are bit-identical to the
//!    naive per-pair loop at any thread count.
//!
//! [`BatchEngine::run_join`] runs all three stages for a whole map;
//! [`BatchEngine::run_pairs`] runs the exact pass over an explicit pair
//! list (what the [`IncrementalEngine`] does after an edit).
//!
//! Everything is standard library only: the thread pool is
//! `std::thread::scope`, the queue an `AtomicUsize`.
//!
//! Every run also reports its own cost: the always-on counter record
//! [`BatchStats`] inside the stage-timing layer [`EngineMetrics`], which
//! exports into a `cardir-telemetry` registry for rendering.
//!
//! Runs are fault tolerant: a [`RunPolicy`] adds per-pair panic
//! isolation, bounded deterministic retries, and cooperative
//! deadline/cancellation, and [`BatchOutcome`] reports per-pair
//! success/failure plus a [`CompletionStatus`] instead of promising a
//! relation for every pair. Failure paths are testable deterministically
//! through the `cardir-faults` failpoint registry.

pub mod batch;
pub mod cache;
pub mod incremental;
pub mod join;
pub mod metrics;
pub mod policy;
pub mod prefilter;

pub use batch::{BatchEngine, BatchStats, EngineError, EngineMode, PairRelation};
pub use cache::RegionCache;
pub use incremental::{
    ApplyDelta, Edit, EditError, EditKind, EngineSnapshot, IncrementalEngine, IncrementalError,
    IncrementalStats, InstalledPair, RepairDelta,
};
pub use join::{interacting_pairs, JoinOutcome};
pub use metrics::EngineMetrics;
pub use policy::{
    BatchOutcome, CancelToken, CompletionStatus, FaultTally, PairError, PairFailure, PairOutcome,
    RunPolicy,
};
pub use prefilter::decided_tile;

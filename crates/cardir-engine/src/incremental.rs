//! Incremental relation maintenance: update one region, recompute only
//! what changed.
//!
//! A full batch run over `N` regions costs `N·(N−1)` ordered pairs even
//! when a single region moved. The [`IncrementalEngine`] instead holds
//! the current relation set in *delta form* and, per [`Edit`],
//! invalidates exactly the ordered pairs whose box decision or
//! relation could change — the pairs involving the edited region — and
//! recomputes only the *interacting* subset of those through the same
//! exact pipeline the batch engine uses, under full [`RunPolicy`] fault
//! isolation.
//!
//! # State model
//!
//! Regions live in **slots** keyed by a stable `u32` id. Slots are
//! append-only and never reused: a removed region leaves a `None` hole.
//! That makes an edit script replayable record by record — the id a
//! journal assigned at insert time still names the same slot on replay.
//!
//! Relations are stored sparsely, mirroring the spatial join's
//! partition:
//!
//! * **exact** — the interacting ordered pairs (those
//!   [`decided_tile`] cannot decide), with their computed relation and
//!   optional percentage matrix. `O(K)` where `K` is the interacting
//!   count, not `O(N²)`.
//! * **pending** — interacting pairs whose computation failed under an
//!   armed fault or was skipped by deadline/cancel. They are excluded
//!   from reads until [`IncrementalEngine::repair`] recomputes them, so
//!   a faulted edit degrades to "these pairs are unknown", never to a
//!   wrong relation.
//! * everything else is **box-decided** and derived on demand from the
//!   two MBBs — exactly what the join's mask-emit path does, via the
//!   same `emit_decided` code in [`materialize`](IncrementalEngine::materialize).
//!
//! # Invalidation rule
//!
//! For an edit of region `r`, a pair `(a, b)` not involving `r` cannot
//! change: its relation depends only on `a`'s geometry and `b`'s MBB.
//! So the invalidation set is the ordered pairs involving `r` — at most
//! `2·(N−1)` of `N·(N−1)`. Of those, only the pairs that *interact*
//! under the new geometry need edge work; they are discovered by
//! stabbing the old ∪ new MBB's axis bands through the R-tree:
//! `(r, x)` or `(x, r)` interacts only if `x`'s closed x-interval
//! overlaps `r`'s (one of them contains an endpoint of the other — so
//! `x`'s box meets the infinite vertical band over `r`'s x-span) or
//! likewise on y. Two band queries bound the candidate set; the exact
//! [`decided_tile`] test on current MBBs then picks the interacting
//! ordered pairs among them.
//!
//! The R-tree has no remove, so edits insert the new MBB and leave the
//! stale one behind as a tombstone; candidates are filtered by liveness
//! and the decided-tile test, making staleness a cost concern only, and
//! the tree is rebuilt from live boxes once tombstones outnumber them.
//!
//! # Bit-identity
//!
//! Recomputation builds a mini [`RegionCache`] over just the edited
//! region and its interacting partners and runs
//! [`BatchEngine::run_pairs`] — sound because every listed pair is
//! interacting, so a full join would run the exact path on it too, and
//! the exact kernels depend only on the primary's edges and the
//! reference's MBB, both of which the mini cache reproduces exactly.
//! The stored bits are therefore identical to what a full batch run
//! computes, which the `edits` fuzz family asserts pair by pair.

use crate::batch::{emit_decided, BatchEngine, EngineMode, PairRelation, Tally};
use crate::cache::RegionCache;
use crate::policy::{BatchOutcome, CompletionStatus, FaultTally, RunPolicy};
use crate::prefilter::decided_tile;
use cardir_core::{CardinalRelation, PercentageMatrix};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_index::RTree;
use cardir_telemetry::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A mutation of the region set.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Add a region; it receives the next free slot id.
    Insert(Region),
    /// Remove the region in this slot.
    Remove(u32),
    /// Replace the geometry of the region in this slot.
    Replace(u32, Region),
}

/// What kind of edit a delta records (the geometry itself travels
/// separately so deltas stay cheap to inspect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A region was inserted.
    Insert,
    /// A region was removed.
    Remove,
    /// A region's geometry was replaced.
    Replace,
}

/// An edit that cannot apply to the current state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The slot id does not name a live region.
    UnknownRegion(u32),
    /// The slot id space (`u32`) is exhausted.
    SlotSpaceExhausted,
    /// A replayed record does not fit the state it replays onto (e.g.
    /// an insert whose recorded id is not the next free slot).
    ReplayMismatch {
        /// The slot id the record carries.
        expected: u32,
        /// The slot id the state would assign.
        found: u32,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownRegion(id) => write!(f, "no live region in slot {id}"),
            EditError::SlotSpaceExhausted => write!(f, "slot id space exhausted"),
            EditError::ReplayMismatch { expected, found } => {
                write!(f, "replayed record names slot {expected} but state assigns {found}")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Why the incremental state cannot be materialised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalError {
    /// Pairs failed under faults and have not been repaired; their
    /// relations are unknown, so there is no complete state to report.
    PendingPairs(usize),
    /// The stored pair set does not match the interaction structure of
    /// the current geometry — state corruption a caller fed in via
    /// replay (a healthy engine never produces this).
    InconsistentState {
        /// Primary slot of the offending ordered pair.
        primary: u32,
        /// Reference slot of the offending ordered pair.
        reference: u32,
    },
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::PendingPairs(n) => {
                write!(f, "{n} pair(s) pending repair after faulted edits")
            }
            IncrementalError::InconsistentState { primary, reference } => {
                write!(f, "stored pair ({primary}, {reference}) contradicts the geometry")
            }
        }
    }
}

impl std::error::Error for IncrementalError {}

/// One stored exact pair, in slot-id terms — the unit a journal records.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledPair {
    /// Primary region's slot id.
    pub primary: u32,
    /// Reference region's slot id.
    pub reference: u32,
    /// The computed relation.
    pub relation: CardinalRelation,
    /// The percentage matrix (quantitative mode only).
    pub percentages: Option<PercentageMatrix>,
}

/// What one [`IncrementalEngine::apply`] changed — the delta a journal
/// appends, sufficient to replay the edit without recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyDelta {
    /// The slot the edit acted on (for inserts: the assigned slot).
    pub id: u32,
    /// Which kind of edit this was.
    pub kind: EditKind,
    /// The new geometry (absent for removals).
    pub region: Option<Region>,
    /// Exact pairs computed and installed by this edit.
    pub installed: Vec<InstalledPair>,
    /// Pairs that failed or were skipped and now await repair.
    pub pending_added: Vec<(u32, u32)>,
    /// Ordered pairs this edit invalidated (all pairs involving the
    /// edited slot, before and after the geometry change).
    pub invalidated: usize,
    /// Stored exact pairs dropped by the invalidation.
    pub dropped: usize,
    /// How the recompute pass ended.
    pub status: CompletionStatus,
}

/// What one [`IncrementalEngine::repair`] changed.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairDelta {
    /// Pairs recomputed successfully and moved from pending to exact.
    pub installed: Vec<InstalledPair>,
    /// Pairs still pending after this repair.
    pub still_pending: usize,
    /// How the recompute pass ended.
    pub status: CompletionStatus,
}

/// Cumulative counters of an engine's incremental life, exported as
/// `incremental.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Edits applied (including replayed ones).
    pub edits_applied: u64,
    /// Ordered pairs invalidated across all edits.
    pub pairs_invalidated: u64,
    /// Interacting pairs recomputed through the exact pipeline.
    pub pairs_recomputed: u64,
    /// Stored exact pairs that survived an edit untouched, summed per
    /// edit — the reuse the incremental layer exists to deliver.
    pub pairs_reused: u64,
    /// Repair passes run.
    pub repairs: u64,
    /// R-tree rebuilds triggered by tombstone accumulation.
    pub rtree_rebuilds: u64,
}

/// The incremental engine: current regions plus the delta-maintained
/// relation set. See the module docs for the state model.
#[derive(Debug)]
pub struct IncrementalEngine {
    mode: EngineMode,
    threads: usize,
    /// Slot-keyed regions; `None` marks a removed slot (never reused).
    slots: Vec<Option<Region>>,
    live: usize,
    /// Interacting ordered pairs with their computed values.
    exact: BTreeMap<(u32, u32), StoredPair>,
    /// Interacting ordered pairs awaiting repair.
    pending: BTreeSet<(u32, u32)>,
    /// Undirected adjacency: `x ∈ partners[r]` iff some stored pair
    /// (exact or pending) involves both `r` and `x`. Bounds the
    /// invalidation walk by the edited region's degree.
    partners: BTreeMap<u32, BTreeSet<u32>>,
    /// R-tree over current MBBs, with tombstoned stale entries.
    rtree: RTree<u32>,
    /// Entries in the tree that no longer describe a live slot's
    /// current MBB.
    stale: usize,
    stats: IncrementalStats,
    /// Fault events absorbed across all recompute passes.
    faults: FaultTally,
}

#[derive(Debug, Clone, PartialEq)]
struct StoredPair {
    relation: CardinalRelation,
    percentages: Option<PercentageMatrix>,
}

/// An immutable, cheaply-cloneable view of an [`IncrementalEngine`]'s
/// relation state at one instant.
///
/// The snapshot shares the slot table and pair maps behind [`Arc`]s, so
/// cloning it is O(1) and every read method works without touching the
/// engine — which is what lets a server hand out snapshots to concurrent
/// reader threads while a single writer keeps applying edits to the
/// engine and publishing fresh snapshots on commit. A snapshot never
/// changes after creation: readers observe the exact state the writer
/// published, never a half-applied edit.
///
/// All read paths (`relation`, `materialize`) are shared with the
/// engine's own implementations, so a snapshot's answers are
/// bit-identical to asking the engine at the moment [`IncrementalEngine::snapshot`]
/// was taken.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    mode: EngineMode,
    slots: Arc<[Option<Region>]>,
    live: usize,
    exact: Arc<BTreeMap<(u32, u32), StoredPair>>,
    pending: Arc<BTreeSet<(u32, u32)>>,
    stats: IncrementalStats,
}

impl EngineSnapshot {
    /// The computation mode of the engine this snapshot came from.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of live regions at snapshot time.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The slot table, including removed (`None`) slots.
    pub fn slots(&self) -> &[Option<Region>] {
        &self.slots
    }

    /// The region in `slot`, when live.
    pub fn region(&self, slot: u32) -> Option<&Region> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    /// Live `(slot, region)` entries in slot order.
    pub fn live_regions(&self) -> impl Iterator<Item = (u32, &Region)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|r| (id as u32, r)))
    }

    /// Number of stored exact pairs at snapshot time.
    pub fn exact_count(&self) -> usize {
        self.exact.len()
    }

    /// Number of pairs awaiting repair at snapshot time.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative engine counters at snapshot time.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The relation `primary R reference` under this snapshot — same
    /// semantics as [`IncrementalEngine::relation`].
    pub fn relation(&self, primary: u32, reference: u32) -> Option<CardinalRelation> {
        relation_in(&self.slots, &self.exact, &self.pending, primary, reference)
    }

    /// Expands the snapshot to the full ordered-pair relation list —
    /// same semantics and bit-identical output as
    /// [`IncrementalEngine::materialize`] at snapshot time.
    pub fn materialize(&self) -> Result<Vec<PairRelation>, IncrementalError> {
        materialize_state(self.mode, &self.slots, &self.exact, &self.pending)
    }
}

/// Shared read path: the relation `primary R reference` over a slot
/// table and pair maps (stored exact value, else box-derived, else
/// `None` for dead/equal/pending).
fn relation_in(
    slots: &[Option<Region>],
    exact: &BTreeMap<(u32, u32), StoredPair>,
    pending: &BTreeSet<(u32, u32)>,
    primary: u32,
    reference: u32,
) -> Option<CardinalRelation> {
    if primary == reference || pending.contains(&(primary, reference)) {
        return None;
    }
    if let Some(sp) = exact.get(&(primary, reference)) {
        return Some(sp.relation);
    }
    let ma = slots.get(primary as usize).and_then(Option::as_ref).map(Region::mbb)?;
    let mb = slots.get(reference as usize).and_then(Option::as_ref).map(Region::mbb)?;
    decided_tile(ma, mb).map(CardinalRelation::single)
}

/// Shared materialize path: expands delta state to the full ordered-pair
/// relation list, primary-major in live-slot order, with decided pairs
/// derived through the batch engine's own `emit_decided`. Fails while
/// pairs are pending repair.
fn materialize_state(
    mode: EngineMode,
    slots: &[Option<Region>],
    exact: &BTreeMap<(u32, u32), StoredPair>,
    pending: &BTreeSet<(u32, u32)>,
) -> Result<Vec<PairRelation>, IncrementalError> {
    if !pending.is_empty() {
        return Err(IncrementalError::PendingPairs(pending.len()));
    }
    let mut ids: Vec<u32> = Vec::new();
    let mut regions: Vec<&Region> = Vec::new();
    for (id, slot) in slots.iter().enumerate() {
        if let Some(region) = slot {
            ids.push(id as u32);
            regions.push(region);
        }
    }
    let cache = RegionCache::build(regions);
    let mut tally = Tally::default();
    let n = ids.len();
    let mut out = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    for (i, &a) in ids.iter().enumerate() {
        for (j, &b) in ids.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(sp) = exact.get(&(a, b)) {
                out.push(PairRelation {
                    primary: i,
                    reference: j,
                    relation: sp.relation,
                    percentages: sp.percentages,
                    via_prefilter: false,
                });
                continue;
            }
            match decided_tile(cache.mbb(i), cache.mbb(j)) {
                Some(tile) => {
                    out.push(emit_decided(&cache, i, j, tile, mode, &mut tally));
                }
                None => {
                    return Err(IncrementalError::InconsistentState { primary: a, reference: b })
                }
            }
        }
    }
    Ok(out)
}

impl IncrementalEngine {
    /// Bootstraps from an initial region set via one spatial-join run
    /// under `policy`; failed pairs park in the pending set.
    pub fn bootstrap(
        mode: EngineMode,
        threads: usize,
        regions: Vec<Region>,
        policy: &RunPolicy,
    ) -> Self {
        let mut engine = IncrementalEngine {
            mode,
            threads: threads.max(1),
            slots: Vec::new(),
            live: 0,
            exact: BTreeMap::new(),
            pending: BTreeSet::new(),
            partners: BTreeMap::new(),
            rtree: RTree::new(),
            stale: 0,
            stats: IncrementalStats::default(),
            faults: FaultTally::default(),
        };
        let outcome = {
            let cache = RegionCache::build(regions.iter());
            let batch = BatchEngine::new().with_mode(mode).with_threads(threads.max(1));
            batch.run_join(&cache, policy)
        };
        engine.faults.merge(&outcome.metrics.faults);
        for (id, region) in regions.into_iter().enumerate() {
            let mbb = region.mbb();
            engine.slots.push(Some(region));
            engine.rtree.insert(mbb, id as u32);
        }
        engine.live = engine.slots.len();
        for outcome in &outcome.interacting {
            let (i, j) = outcome.indices();
            let (a, b) = (i as u32, j as u32);
            match outcome.ok() {
                Some(pr) => {
                    engine.exact.insert(
                        (a, b),
                        StoredPair { relation: pr.relation, percentages: pr.percentages },
                    );
                }
                None => {
                    engine.pending.insert((a, b));
                }
            }
            engine.link(a, b);
        }
        engine
    }

    /// Rebuilds an engine from externally stored state (journal replay).
    /// Validates that every stored pair names two distinct live slots
    /// and is actually interacting under the geometry, so corrupted
    /// state is rejected instead of silently served.
    pub fn from_parts(
        mode: EngineMode,
        threads: usize,
        slots: Vec<Option<Region>>,
        exact: Vec<InstalledPair>,
        pending: Vec<(u32, u32)>,
    ) -> Result<Self, IncrementalError> {
        let mut engine = IncrementalEngine {
            mode,
            threads: threads.max(1),
            slots,
            live: 0,
            exact: BTreeMap::new(),
            pending: BTreeSet::new(),
            partners: BTreeMap::new(),
            rtree: RTree::new(),
            stale: 0,
            stats: IncrementalStats::default(),
            faults: FaultTally::default(),
        };
        for (id, slot) in engine.slots.iter().enumerate() {
            if let Some(region) = slot {
                engine.rtree.insert(region.mbb(), id as u32);
                engine.live += 1;
            }
        }
        let check = |engine: &IncrementalEngine, a: u32, b: u32| {
            let bad = IncrementalError::InconsistentState { primary: a, reference: b };
            let ma = engine.live_mbb(a).ok_or_else(|| bad.clone())?;
            let mb = engine.live_mbb(b).ok_or_else(|| bad.clone())?;
            if a == b || decided_tile(ma, mb).is_some() {
                return Err(bad);
            }
            Ok(())
        };
        for entry in exact {
            check(&engine, entry.primary, entry.reference)?;
            engine.exact.insert(
                (entry.primary, entry.reference),
                StoredPair { relation: entry.relation, percentages: entry.percentages },
            );
            engine.link(entry.primary, entry.reference);
        }
        for (a, b) in pending {
            check(&engine, a, b)?;
            engine.pending.insert((a, b));
            engine.link(a, b);
        }
        Ok(engine)
    }

    fn batch_engine(&self) -> BatchEngine {
        BatchEngine::new().with_mode(self.mode).with_threads(self.threads)
    }

    /// The engine's computation mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Worker threads used by recompute passes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of live regions.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The slot table, including removed (`None`) slots.
    pub fn slots(&self) -> &[Option<Region>] {
        &self.slots
    }

    /// The region in `slot`, when live.
    pub fn region(&self, slot: u32) -> Option<&Region> {
        self.slots.get(slot as usize).and_then(Option::as_ref)
    }

    /// Live `(slot, region)` entries in slot order.
    pub fn live_regions(&self) -> impl Iterator<Item = (u32, &Region)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|r| (id as u32, r)))
    }

    /// Stored exact pairs in key order (journal snapshot source).
    pub fn exact_entries(&self) -> Vec<InstalledPair> {
        self.exact
            .iter()
            .map(|(&(a, b), sp)| InstalledPair {
                primary: a,
                reference: b,
                relation: sp.relation,
                percentages: sp.percentages,
            })
            .collect()
    }

    /// Pairs awaiting repair, in key order.
    pub fn pending_pairs(&self) -> Vec<(u32, u32)> {
        self.pending.iter().copied().collect()
    }

    /// Number of stored exact pairs.
    pub fn exact_count(&self) -> usize {
        self.exact.len()
    }

    /// Number of pairs awaiting repair.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Fault events absorbed across all recompute passes.
    pub fn faults(&self) -> FaultTally {
        self.faults
    }

    /// The relation `primary R reference`, or `None` when either slot is
    /// dead, the slots are equal, or the pair is pending repair.
    pub fn relation(&self, primary: u32, reference: u32) -> Option<CardinalRelation> {
        relation_in(&self.slots, &self.exact, &self.pending, primary, reference)
    }

    /// Takes an immutable snapshot of the current relation state. The
    /// snapshot is detached: later edits to the engine do not affect it,
    /// and cloning it is O(1) — see [`EngineSnapshot`].
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            mode: self.mode,
            slots: self.slots.clone().into(),
            live: self.live,
            exact: Arc::new(self.exact.clone()),
            pending: Arc::new(self.pending.clone()),
            stats: self.stats,
        }
    }

    fn live_mbb(&self, slot: u32) -> Option<BoundingBox> {
        self.region(slot).map(Region::mbb)
    }

    /// Applies an edit under the default policy.
    pub fn apply(&mut self, edit: Edit) -> Result<ApplyDelta, EditError> {
        self.apply_with(edit, &RunPolicy::default())
    }

    /// Applies an edit: invalidates the pairs involving the edited slot,
    /// discovers which of them interact under the new geometry, and
    /// recomputes exactly those under `policy`. Pairs that fail or are
    /// skipped park in the pending set (see [`repair`](Self::repair)).
    pub fn apply_with(&mut self, edit: Edit, policy: &RunPolicy) -> Result<ApplyDelta, EditError> {
        let (id, kind, region) = self.admit(edit)?;
        let live_before = self.live;
        let dropped = self.invalidate(id);
        self.update_geometry(id, kind, region.clone());
        // Every ordered pair involving the slot, under whichever of the
        // old/new configurations had it live.
        let neighbours = match kind {
            EditKind::Insert => self.live - 1,
            EditKind::Remove => live_before - 1,
            EditKind::Replace => self.live - 1,
        };
        let invalidated = 2 * neighbours;
        let reused = self.exact.len();

        let (installed, pending_added, status) = if kind == EditKind::Remove {
            (Vec::new(), Vec::new(), CompletionStatus::Complete)
        } else {
            let pairs = self.discover(id);
            self.recompute(&pairs, policy)
        };

        self.stats.edits_applied += 1;
        self.stats.pairs_invalidated += invalidated as u64;
        self.stats.pairs_recomputed += (installed.len() + pending_added.len()) as u64;
        self.stats.pairs_reused += reused as u64;
        Ok(ApplyDelta {
            id,
            kind,
            region,
            installed,
            pending_added,
            invalidated,
            dropped,
            status,
        })
    }

    /// Replays a recorded delta without recomputation: same invalidation
    /// and geometry bookkeeping as [`apply_with`](Self::apply_with), but
    /// the stored pairs are installed verbatim from the record.
    pub fn replay_apply(
        &mut self,
        kind: EditKind,
        id: u32,
        region: Option<Region>,
        installed: Vec<InstalledPair>,
        pending_added: Vec<(u32, u32)>,
    ) -> Result<(), EditError> {
        let edit = match (kind, region) {
            (EditKind::Insert, Some(r)) => Edit::Insert(r),
            (EditKind::Remove, None) => Edit::Remove(id),
            (EditKind::Replace, Some(r)) => Edit::Replace(id, r),
            // A removal carrying geometry (or an insert/replace without
            // it) cannot have been recorded by `apply`.
            _ => return Err(EditError::UnknownRegion(id)),
        };
        let (assigned, kind, region) = self.admit(edit)?;
        if assigned != id {
            return Err(EditError::ReplayMismatch { expected: id, found: assigned });
        }
        self.invalidate(id);
        self.update_geometry(id, kind, region);
        let neighbours = if kind == EditKind::Remove { self.live } else { self.live - 1 };
        self.stats.edits_applied += 1;
        self.stats.pairs_invalidated += (2 * neighbours) as u64;
        self.stats.pairs_reused += self.exact.len() as u64;
        for entry in installed {
            self.exact.insert(
                (entry.primary, entry.reference),
                StoredPair { relation: entry.relation, percentages: entry.percentages },
            );
            self.link(entry.primary, entry.reference);
        }
        for (a, b) in pending_added {
            self.pending.insert((a, b));
            self.link(a, b);
        }
        Ok(())
    }

    /// Replays a recorded repair: moves the recorded pairs from pending
    /// to exact verbatim.
    pub fn replay_repair(&mut self, installed: Vec<InstalledPair>) {
        for entry in installed {
            self.pending.remove(&(entry.primary, entry.reference));
            self.exact.insert(
                (entry.primary, entry.reference),
                StoredPair { relation: entry.relation, percentages: entry.percentages },
            );
            self.link(entry.primary, entry.reference);
        }
    }

    /// Recomputes every pending pair under the default policy.
    pub fn repair(&mut self) -> RepairDelta {
        self.repair_with(&RunPolicy::default())
    }

    /// Recomputes every pending pair under `policy`; pairs that fail
    /// again stay pending.
    pub fn repair_with(&mut self, policy: &RunPolicy) -> RepairDelta {
        self.stats.repairs += 1;
        if self.pending.is_empty() {
            return RepairDelta {
                installed: Vec::new(),
                still_pending: 0,
                status: CompletionStatus::Complete,
            };
        }
        let pairs: Vec<(u32, u32)> = self.pending.iter().copied().collect();
        let (installed, still_pending, status) = self.recompute(&pairs, policy);
        self.stats.pairs_recomputed += (installed.len() + still_pending.len()) as u64;
        RepairDelta { installed, still_pending: still_pending.len(), status }
    }

    /// Expands the delta state to the full ordered-pair relation list,
    /// primary-major in live-slot order, with decided pairs derived
    /// through the batch engine's own `emit_decided` path — the output
    /// is bit-identical to a fresh full recompute of the current
    /// configuration. Fails while pairs are pending repair.
    pub fn materialize(&self) -> Result<Vec<PairRelation>, IncrementalError> {
        materialize_state(self.mode, &self.slots, &self.exact, &self.pending)
    }

    /// Folds the engine's counters into `registry` as `incremental.*`
    /// (absolute values — export into a fresh registry per report, like
    /// the bench bins do).
    pub fn export(&self, registry: &Registry) {
        let s = self.stats;
        for (name, value) in [
            ("incremental.edits_applied", s.edits_applied),
            ("incremental.pairs_invalidated", s.pairs_invalidated),
            ("incremental.pairs_recomputed", s.pairs_recomputed),
            ("incremental.pairs_reused", s.pairs_reused),
            ("incremental.repairs", s.repairs),
            ("incremental.rtree_rebuilds", s.rtree_rebuilds),
            ("incremental.live_regions", self.live as u64),
            ("incremental.exact_stored", self.exact.len() as u64),
            ("incremental.pending_pairs", self.pending.len() as u64),
        ] {
            registry.counter(name).add(value);
        }
    }

    /// Validates the edit and names the affected slot.
    fn admit(&self, edit: Edit) -> Result<(u32, EditKind, Option<Region>), EditError> {
        match edit {
            Edit::Insert(region) => {
                let id =
                    u32::try_from(self.slots.len()).map_err(|_| EditError::SlotSpaceExhausted)?;
                if id == u32::MAX {
                    return Err(EditError::SlotSpaceExhausted);
                }
                Ok((id, EditKind::Insert, Some(region)))
            }
            Edit::Remove(id) => {
                self.region(id).ok_or(EditError::UnknownRegion(id))?;
                Ok((id, EditKind::Remove, None))
            }
            Edit::Replace(id, region) => {
                self.region(id).ok_or(EditError::UnknownRegion(id))?;
                Ok((id, EditKind::Replace, Some(region)))
            }
        }
    }

    /// Drops every stored pair involving `id`; returns how many exact
    /// entries were discarded.
    fn invalidate(&mut self, id: u32) -> usize {
        let neighbours = self.partners.remove(&id).unwrap_or_default();
        let mut dropped = 0;
        for x in neighbours {
            dropped += usize::from(self.exact.remove(&(id, x)).is_some());
            dropped += usize::from(self.exact.remove(&(x, id)).is_some());
            self.pending.remove(&(id, x));
            self.pending.remove(&(x, id));
            if let Some(set) = self.partners.get_mut(&x) {
                set.remove(&id);
                if set.is_empty() {
                    self.partners.remove(&x);
                }
            }
        }
        dropped
    }

    fn update_geometry(&mut self, id: u32, kind: EditKind, region: Option<Region>) {
        match kind {
            EditKind::Insert => {
                let region = region.expect("insert carries geometry");
                let mbb = region.mbb();
                self.slots.push(Some(region));
                self.live += 1;
                self.rtree.insert(mbb, id);
            }
            EditKind::Remove => {
                self.slots[id as usize] = None;
                self.live -= 1;
                self.stale += 1;
            }
            EditKind::Replace => {
                let region = region.expect("replace carries geometry");
                let mbb = region.mbb();
                self.slots[id as usize] = Some(region);
                self.rtree.insert(mbb, id);
                self.stale += 1;
            }
        }
        if self.stale > self.live + 16 {
            self.rebuild_rtree();
        }
    }

    fn rebuild_rtree(&mut self) {
        let mut tree = RTree::new();
        for (id, region) in self.live_regions() {
            tree.insert(region.mbb(), id);
        }
        self.rtree = tree;
        self.stale = 0;
        self.stats.rtree_rebuilds += 1;
    }

    /// Finds the interacting ordered pairs involving `id` under its new
    /// geometry: two infinite band queries over the R-tree bound the
    /// candidates (any region overlapping `id`'s x- or y-interval), and
    /// the decided-tile test on current MBBs picks the pairs that
    /// actually need edge work.
    fn discover(&self, id: u32) -> Vec<(u32, u32)> {
        let m = self.live_mbb(id).expect("discover runs on a live slot");
        let bands = [
            BoundingBox::new(
                Point::new(m.min.x, f64::NEG_INFINITY),
                Point::new(m.max.x, f64::INFINITY),
            ),
            BoundingBox::new(
                Point::new(f64::NEG_INFINITY, m.min.y),
                Point::new(f64::INFINITY, m.max.y),
            ),
        ];
        let mut candidates: BTreeSet<u32> = BTreeSet::new();
        for band in bands {
            self.rtree.visit(band, &mut |&x| {
                candidates.insert(x);
            });
        }
        let mut pairs = Vec::new();
        for x in candidates {
            if x == id {
                continue;
            }
            // Tombstoned entries may surface dead slots or stale boxes;
            // the liveness filter and the decided-tile test on *current*
            // MBBs make them harmless.
            let Some(mx) = self.live_mbb(x) else { continue };
            if decided_tile(m, mx).is_none() {
                pairs.push((id, x));
            }
            if decided_tile(mx, m).is_none() {
                pairs.push((x, id));
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Runs the exact pipeline over `pairs` (slot ids) through a mini
    /// cache holding only the involved regions.
    #[allow(clippy::type_complexity)]
    fn recompute(
        &mut self,
        pairs: &[(u32, u32)],
        policy: &RunPolicy,
    ) -> (Vec<InstalledPair>, Vec<(u32, u32)>, CompletionStatus) {
        if pairs.is_empty() {
            return (Vec::new(), Vec::new(), CompletionStatus::Complete);
        }
        let mut involved: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        involved.sort_unstable();
        involved.dedup();
        let dense = |slot: u32| involved.binary_search(&slot).expect("slot is involved");
        let dense_pairs: Vec<(usize, usize)> =
            pairs.iter().map(|&(a, b)| (dense(a), dense(b))).collect();
        let outcome: BatchOutcome = {
            let regions: Vec<&Region> = involved
                .iter()
                .map(|&slot| self.region(slot).expect("involved slots are live"))
                .collect();
            let cache = RegionCache::build(regions);
            self.batch_engine()
                .run_pairs(&cache, &dense_pairs, policy)
                .expect("pair indices are in range by construction")
        };
        self.faults.merge(&outcome.metrics.faults);
        let status = outcome.status;
        let mut installed = Vec::new();
        let mut pending_added = Vec::new();
        for (outcome, &(a, b)) in outcome.pairs.iter().zip(pairs) {
            match outcome.ok() {
                Some(pr) => {
                    // A repair pass recomputes pairs that sit in the
                    // pending set; success graduates them out of it.
                    self.pending.remove(&(a, b));
                    self.exact.insert(
                        (a, b),
                        StoredPair { relation: pr.relation, percentages: pr.percentages },
                    );
                    installed.push(InstalledPair {
                        primary: a,
                        reference: b,
                        relation: pr.relation,
                        percentages: pr.percentages,
                    });
                }
                None => {
                    self.pending.insert((a, b));
                    pending_added.push((a, b));
                }
            }
            self.link(a, b);
        }
        (installed, pending_added, status)
    }

    fn link(&mut self, a: u32, b: u32) {
        self.partners.entry(a).or_default().insert(b);
        self.partners.entry(b).or_default().insert(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEngine;
    use cardir_workloads::{random_map, SplitMix64};

    fn extent() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0))
    }

    fn map(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        random_map(&mut rng, n, extent()).into_iter().map(|m| m.region).collect()
    }

    fn full_recompute(mode: EngineMode, regions: Vec<&Region>) -> Vec<PairRelation> {
        let cache = RegionCache::build(regions);
        let engine = BatchEngine::new().with_mode(mode).with_threads(1);
        let outcome = engine.run_join(&cache, &RunPolicy::default()).materialize(&cache);
        outcome.pairs.iter().map(|p| p.ok().expect("clean run").clone()).collect()
    }

    fn assert_matches_full(engine: &IncrementalEngine) {
        let incremental = engine.materialize().expect("no pending pairs");
        let regions: Vec<&Region> = engine.live_regions().map(|(_, r)| r).collect();
        let full = full_recompute(engine.mode(), regions);
        assert_eq!(incremental.len(), full.len());
        for (a, b) in incremental.iter().zip(&full) {
            assert_eq!(a, b, "pair ({}, {}) diverged from full recompute", a.primary, a.reference);
        }
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::rectangle(BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)))
            .expect("valid rectangle")
    }

    #[test]
    fn bootstrap_matches_full_recompute() {
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let engine =
                IncrementalEngine::bootstrap(mode, 1, map(7, 40), &RunPolicy::default());
            assert_eq!(engine.live_count(), 40);
            assert_eq!(engine.pending_count(), 0);
            assert_matches_full(&engine);
        }
    }

    #[test]
    fn edit_script_stays_bit_identical_to_full_recompute() {
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let mut engine =
                IncrementalEngine::bootstrap(mode, 2, map(11, 25), &RunPolicy::default());
            let mut rng = SplitMix64::seed_from_u64(99);
            let replacements = map(13, 8);
            for (step, replacement) in replacements.into_iter().enumerate() {
                let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
                let delta = match step % 3 {
                    0 => {
                        let victim = live[rng.random_range(0..live.len() as u64) as usize];
                        engine.apply(Edit::Replace(victim, replacement))
                    }
                    1 => engine.apply(Edit::Insert(replacement)),
                    _ => {
                        let victim = live[rng.random_range(0..live.len() as u64) as usize];
                        engine.apply(Edit::Remove(victim))
                    }
                }
                .expect("edit applies");
                assert_eq!(delta.status, CompletionStatus::Complete);
                assert_matches_full(&engine);
            }
            assert_eq!(engine.stats().edits_applied, 8);
        }
    }

    #[test]
    fn invalidation_is_bounded_by_the_edited_slot_degree() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            map(21, 60),
            &RunPolicy::default(),
        );
        let n = engine.live_count();
        let delta = engine.apply(Edit::Replace(5, rect(1.0, 1.0, 9.0, 9.0))).expect("applies");
        assert_eq!(delta.invalidated, 2 * (n - 1));
        // Every recomputed pair involves the edited slot.
        for entry in &delta.installed {
            assert!(entry.primary == 5 || entry.reference == 5);
        }
        assert_matches_full(&engine);
    }

    #[test]
    fn remove_drops_all_pairs_of_the_slot() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Quantitative,
            1,
            vec![rect(0.0, 0.0, 10.0, 10.0), rect(5.0, 5.0, 15.0, 15.0), rect(100.0, 100.0, 110.0, 110.0)],
            &RunPolicy::default(),
        );
        assert!(engine.relation(0, 1).is_some());
        let delta = engine.apply(Edit::Remove(1)).expect("applies");
        assert_eq!(delta.kind, EditKind::Remove);
        assert_eq!(engine.live_count(), 2);
        assert!(engine.relation(0, 1).is_none());
        assert!(engine.relation(1, 0).is_none());
        assert_eq!(engine.apply(Edit::Remove(1)).unwrap_err(), EditError::UnknownRegion(1));
        assert_matches_full(&engine);
    }

    #[test]
    fn inserted_slots_are_never_reused() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            vec![rect(0.0, 0.0, 4.0, 4.0)],
            &RunPolicy::default(),
        );
        engine.apply(Edit::Remove(0)).expect("applies");
        let delta = engine.apply(Edit::Insert(rect(1.0, 1.0, 2.0, 2.0))).expect("applies");
        assert_eq!(delta.id, 1, "removed slot 0 must not be recycled");
        assert_eq!(engine.slots().len(), 2);
    }

    #[test]
    fn decided_pairs_are_derived_not_stored() {
        // Two far-apart boxes: no interacting pairs at all.
        let engine = IncrementalEngine::bootstrap(
            EngineMode::Quantitative,
            1,
            vec![rect(0.0, 0.0, 1.0, 1.0), rect(50.0, 50.0, 51.0, 51.0)],
            &RunPolicy::default(),
        );
        assert_eq!(engine.exact_count(), 0);
        let r = engine.relation(0, 1).expect("derived");
        assert!(r.is_single_tile());
        assert_matches_full(&engine);
    }

    #[test]
    fn rtree_rebuild_keeps_answers_correct() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            map(31, 10),
            &RunPolicy::default(),
        );
        // Enough replaces to out-tombstone the live count.
        let mut rng = SplitMix64::seed_from_u64(5);
        for replacement in map(37, 40) {
            let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
            let victim = live[rng.random_range(0..live.len() as u64) as usize];
            engine.apply(Edit::Replace(victim, replacement)).expect("applies");
        }
        assert!(engine.stats().rtree_rebuilds > 0, "tombstones must trigger a rebuild");
        assert_matches_full(&engine);
    }

    #[test]
    fn replay_reproduces_the_applied_state() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Quantitative,
            1,
            map(41, 12),
            &RunPolicy::default(),
        );
        let mut twin = IncrementalEngine::from_parts(
            EngineMode::Quantitative,
            1,
            engine.slots().to_vec(),
            engine.exact_entries(),
            engine.pending_pairs(),
        )
        .expect("snapshot state is consistent");
        let edits = [
            Edit::Replace(3, rect(2.0, 2.0, 30.0, 20.0)),
            Edit::Insert(rect(7.0, 7.0, 7.5, 9.0)),
            Edit::Remove(0),
        ];
        for edit in edits {
            let delta = engine.apply(edit).expect("applies");
            twin.replay_apply(
                delta.kind,
                delta.id,
                delta.region.clone(),
                delta.installed.clone(),
                delta.pending_added.clone(),
            )
            .expect("replays");
        }
        assert_eq!(engine.materialize().unwrap(), twin.materialize().unwrap());
        assert_eq!(engine.exact_entries(), twin.exact_entries());
    }

    #[test]
    fn from_parts_rejects_corrupted_pair_sets() {
        let slots = vec![Some(rect(0.0, 0.0, 1.0, 1.0)), Some(rect(50.0, 50.0, 51.0, 51.0))];
        // Pair (0, 1) is box-decided, so an exact entry for it is bogus.
        let bogus = InstalledPair {
            primary: 0,
            reference: 1,
            relation: CardinalRelation::single(cardir_core::Tile::B),
            percentages: None,
        };
        let err = IncrementalEngine::from_parts(
            EngineMode::Qualitative,
            1,
            slots.clone(),
            vec![bogus],
            Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, IncrementalError::InconsistentState { primary: 0, reference: 1 });
        // Dead or out-of-range slots are rejected too.
        let err = IncrementalEngine::from_parts(
            EngineMode::Qualitative,
            1,
            slots,
            Vec::new(),
            vec![(0, 9)],
        )
        .unwrap_err();
        assert_eq!(err, IncrementalError::InconsistentState { primary: 0, reference: 9 });
    }

    #[test]
    fn snapshot_is_immutable_under_later_edits() {
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let mut engine =
                IncrementalEngine::bootstrap(mode, 1, map(61, 20), &RunPolicy::default());
            let before = engine.materialize().expect("no pending pairs");
            let snap = engine.snapshot();
            assert_eq!(snap.live_count(), engine.live_count());
            assert_eq!(snap.exact_count(), engine.exact_count());
            // Mutate the engine heavily after the snapshot was taken.
            for replacement in map(67, 6) {
                let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
                engine.apply(Edit::Replace(live[0], replacement)).expect("applies");
            }
            engine.apply(Edit::Remove(3)).expect("applies");
            // The snapshot still answers with the pre-edit state, and its
            // materialization is bit-identical to the pre-edit engine's.
            assert_eq!(snap.materialize().expect("snapshot has no pending"), before);
            assert_ne!(engine.materialize().expect("no pending").len(), 0);
            // Per-pair reads agree with the pre-edit full list.
            let ids: Vec<u32> = snap.live_regions().map(|(id, _)| id).collect();
            for &a in ids.iter().take(5) {
                for &b in ids.iter().take(5) {
                    if a == b {
                        continue;
                    }
                    assert!(snap.relation(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn snapshot_reflects_pending_pairs() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            vec![rect(0.0, 0.0, 10.0, 10.0), rect(5.0, 5.0, 15.0, 15.0)],
            &RunPolicy::default(),
        );
        // Force a pending pair by replaying one verbatim.
        engine
            .replay_apply(
                EditKind::Replace,
                0,
                Some(rect(0.0, 0.0, 10.0, 10.0)),
                Vec::new(),
                vec![(0, 1), (1, 0)],
            )
            .expect("replays");
        let snap = engine.snapshot();
        assert_eq!(snap.pending_count(), 2);
        assert!(snap.relation(0, 1).is_none(), "pending pairs are excluded from reads");
        assert_eq!(snap.materialize().unwrap_err(), IncrementalError::PendingPairs(2));
    }

    #[test]
    fn export_emits_incremental_counters() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            map(51, 8),
            &RunPolicy::default(),
        );
        engine.apply(Edit::Remove(2)).expect("applies");
        let registry = Registry::new();
        engine.export(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("incremental.edits_applied"), Some(1));
        assert_eq!(snap.counter("incremental.live_regions"), Some(7));
        assert_eq!(snap.counter("incremental.pairs_invalidated"), Some(14));
    }
}

//! Incremental relation maintenance: update one region, recompute only
//! what changed.
//!
//! A full batch run over `N` regions costs `N·(N−1)` ordered pairs even
//! when a single region moved. The [`IncrementalEngine`] instead holds
//! the current relation set in *delta form* and, per [`Edit`],
//! invalidates exactly the ordered pairs whose box decision or
//! relation could change — the pairs involving the edited region — and
//! recomputes only the *interacting* subset of those through the same
//! exact pipeline the batch engine uses, with its per-pair panic
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
//! partition, in one **row** per live slot — the slot's outgoing pairs:
//!
//! * **exact** entries — the interacting ordered pairs (those
//!   [`decided_tile`] cannot decide), with their computed relation and
//!   optional percentage matrix. `O(K)` where `K` is the interacting
//!   count, not `O(N²)`.
//! * **pending** entries — interacting pairs whose computation failed
//!   under an armed fault or was skipped by the deadline. They are
//!   excluded from reads until [`IncrementalEngine::repair_with`] recomputes
//!   them, so a faulted edit degrades to "these pairs are unknown",
//!   never to a wrong relation.
//! * everything else is **box-decided** and derived on demand from the
//!   two MBBs — exactly what the join's mask-emit path does, via the
//!   same `emit_decided` code in [`materialize`](EngineSnapshot::materialize).
//!
//! Each slot (geometry + row) sits behind an [`Arc`]; the slot table is
//! the [`EngineSnapshot`] the engine holds, publishes and reads through.
//! See its docs for the copy-on-write cost model.
//!
//! # Invalidation rule
//!
//! For an edit of region `r`, a pair `(a, b)` not involving `r` cannot
//! change: its relation depends only on `a`'s geometry and `b`'s MBB.
//! So the invalidation set is the ordered pairs involving `r` — at most
//! `2·(N−1)` of `N·(N−1)`. Every stored pair on `r` is dropped — its
//! old partners leave through `r`'s row and the `incoming` list of the
//! rows holding a pair on it — and only the pairs that *interact* under
//! the new geometry are recomputed. They are discovered by one pass
//! over the live MBBs, in slot order: `(r, x)` or `(x, r)` interacts
//! only if `x`'s closed x-interval overlaps `r`'s or its closed
//! y-interval does, a four-comparison test; the exact [`decided_tile`]
//! test in each direction then picks the interacting ordered pairs
//! among those candidates. The old MBB plays no part.
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

use crate::batch::{emit_decided, BatchEngine, BatchStats, EngineMode, PairRelation};
use crate::cache::RegionCache;
use crate::policy::{BatchOutcome, CompletionStatus, RunPolicy};
use crate::prefilter::decided_tile;
use cardir_core::{CardinalRelation, PercentageMatrix};
use cardir_geometry::{BoundingBox, Region};
use cardir_telemetry::Registry;
use std::fmt;
use std::ops::Deref;
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
                write!(
                    f,
                    "replayed record names slot {expected} but state assigns {found}"
                )
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
                write!(
                    f,
                    "stored pair ({primary}, {reference}) contradicts the geometry"
                )
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

/// What one [`IncrementalEngine::apply_with`] changed — the delta a journal
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

/// What one [`IncrementalEngine::repair_with`] changed.
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
}

/// One stored pair's value: the computed relation and, in quantitative
/// mode, its percentage matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StoredPair {
    relation: CardinalRelation,
    percentages: Option<PercentageMatrix>,
}

impl StoredPair {
    fn of(p: &InstalledPair) -> Self {
        StoredPair {
            relation: p.relation,
            percentages: p.percentages,
        }
    }
}

/// One live slot's published state: shared geometry plus the slot's
/// outgoing stored pairs, in no particular order — `values[i]` is the
/// pair on reference `refs[i]`, `None` while it awaits repair. The
/// 4-byte references sit apart so a lookup is one short scan, and an
/// unordered row takes and drops pairs without shifting its values.
#[derive(Debug, Clone)]
struct Slot {
    region: Arc<Region>,
    mbb: BoundingBox,
    refs: Vec<u32>,
    values: Vec<Option<StoredPair>>,
}

/// The relation state of an [`IncrementalEngine`] at one instant — the
/// one read type for engine state.
///
/// The engine holds one of these as its current state (every engine
/// read goes through it by `Deref`), and [`IncrementalEngine::snapshot`]
/// clones it. State is sharded per slot behind [`Arc`]s, which sets the
/// cost model:
///
/// * taking a snapshot (or cloning one) costs O(slots) refcount bumps —
///   no region, pair or matrix is copied;
/// * a later edit copies, through `Arc::make_mut`, only the rows it
///   writes: the edited slot is rebuilt, and each partner whose row
///   held or gains a pair with it is copied once. Every other slot
///   stays shared between the snapshot and the engine.
///
/// A snapshot therefore never changes after creation: readers observe
/// the exact state the writer published, never a half-applied edit,
/// which is what lets a server hand snapshots to concurrent reader
/// threads while one writer keeps applying edits.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    mode: EngineMode,
    /// Slot-keyed state; `None` marks a removed slot (never reused).
    slots: Vec<Option<Arc<Slot>>>,
    live: usize,
    /// Stored entries holding a computed value.
    exact: usize,
    /// Stored entries awaiting repair.
    pending: usize,
    stats: IncrementalStats,
}

impl EngineSnapshot {
    fn slot(&self, id: u32) -> Option<&Slot> {
        self.slots.get(id as usize).and_then(Option::as_deref)
    }

    /// The computation mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of live regions.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of slots ever assigned, removed ones included (the next
    /// insert receives this id).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The region in `slot`, when live.
    pub fn region(&self, slot: u32) -> Option<&Region> {
        self.slot(slot).map(|s| &*s.region)
    }

    /// Live `(slot, region)` entries in slot order.
    pub fn live_regions(&self) -> impl Iterator<Item = (u32, &Region)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|s| (id as u32, &*s.region)))
    }

    /// Number of stored exact pairs.
    pub fn exact_count(&self) -> usize {
        self.exact
    }

    /// Number of pairs awaiting repair.
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Every stored `(primary, reference, entry)` in key order.
    fn entries(&self) -> impl Iterator<Item = (u32, u32, &Option<StoredPair>)> {
        self.slots.iter().enumerate().flat_map(|(a, slot)| {
            let mut row: Vec<_> = slot
                .iter()
                .flat_map(|s| s.refs.iter().copied().zip(&s.values))
                .collect();
            row.sort_unstable_by_key(|e| e.0);
            row.into_iter().map(move |(b, entry)| (a as u32, b, entry))
        })
    }

    /// Stored exact pairs in key order (journal snapshot source), all
    /// [`exact_count`](Self::exact_count) of them, produced one row at a
    /// time rather than collected.
    pub fn exact_entries(&self) -> impl Iterator<Item = InstalledPair> + '_ {
        self.entries().filter_map(|(primary, reference, entry)| {
            let StoredPair {
                relation,
                percentages,
            } = (*entry)?;
            Some(InstalledPair {
                primary,
                reference,
                relation,
                percentages,
            })
        })
    }

    /// Pairs awaiting repair, in key order.
    pub fn pending_pairs(&self) -> Vec<(u32, u32)> {
        self.entries()
            .filter(|e| e.2.is_none())
            .map(|(a, b, _)| (a, b))
            .collect()
    }

    /// The relation `primary R reference`: the stored value, else the
    /// box-derived tile, else `None` when either slot is dead, the slots
    /// are equal, or the pair is pending repair.
    pub fn relation(&self, primary: u32, reference: u32) -> Option<CardinalRelation> {
        if primary == reference {
            return None;
        }
        let a = self.slot(primary)?;
        match a.refs.iter().position(|&r| r == reference) {
            Some(i) => a.values[i].as_ref().map(|sp| sp.relation),
            None => decided_tile(a.mbb, self.slot(reference)?.mbb).map(CardinalRelation::single),
        }
    }

    /// Expands the delta state to the full ordered-pair relation list,
    /// primary-major in live-slot order, with decided pairs derived
    /// through the batch engine's own `emit_decided` path — the output
    /// is bit-identical to a fresh full recompute of the same
    /// configuration. Fails while pairs are pending repair.
    pub fn materialize(&self) -> Result<Vec<PairRelation>, IncrementalError> {
        if self.pending > 0 {
            return Err(IncrementalError::PendingPairs(self.pending));
        }
        let live: Vec<(u32, &Slot)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_deref().map(|s| (id as u32, s)))
            .collect();
        let cache = RegionCache::build(live.iter().map(|(_, s)| &*s.region));
        let mut stats = BatchStats::default();
        let n = live.len();
        let mut out = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
        // Row position of each reference of the current primary.
        let mut at = vec![usize::MAX; self.slots.len()];
        for (i, &(a, slot)) in live.iter().enumerate() {
            for (k, &b) in slot.refs.iter().enumerate() {
                at[b as usize] = k;
            }
            for (j, &(b, _)) in live.iter().enumerate() {
                if i == j {
                    continue;
                }
                if let Some(entry) = slot.values.get(at[b as usize]) {
                    let sp = entry.as_ref().expect("no pairs are pending");
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
                    Some(tile) => out.push(emit_decided(&cache, i, j, tile, self.mode, &mut stats)),
                    None => {
                        return Err(IncrementalError::InconsistentState {
                            primary: a,
                            reference: b,
                        })
                    }
                }
            }
            for &b in &slot.refs {
                at[b as usize] = usize::MAX;
            }
        }
        Ok(out)
    }
}

/// The incremental engine: the current [`EngineSnapshot`] plus the
/// writer-only indices that bound each edit's work. See the module docs
/// for the state model. Every read of the current state is an
/// [`EngineSnapshot`] method, reached through `Deref`.
#[derive(Debug)]
pub struct IncrementalEngine {
    state: EngineSnapshot,
    threads: usize,
    /// Per slot, in no particular order: `x ∈ incoming[r]` iff `x`'s
    /// row stores a pair (exact or pending) on `r`. With `r`'s own row
    /// these are `r`'s partners, which bound an edit's work by the
    /// region's degree.
    incoming: Vec<Vec<u32>>,
    /// Per slot: the live slot's MBB, `None` for a removed one. It
    /// repeats `Slot::mbb` contiguously, so [`discover`](Self::discover)
    /// streams it instead of chasing one `Arc` per slot.
    boxes: Vec<Option<BoundingBox>>,
}

impl Deref for IncrementalEngine {
    type Target = EngineSnapshot;

    fn deref(&self) -> &EngineSnapshot {
        &self.state
    }
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
        let outcome = {
            let cache = RegionCache::build(regions.iter());
            BatchEngine::new()
                .with_mode(mode)
                .with_threads(threads.max(1))
                .run_join(&cache, policy)
        };
        let (mut exact, mut pending) = (Vec::new(), Vec::new());
        for outcome in &outcome.interacting {
            let (i, j) = outcome.indices();
            let (primary, reference) = (i as u32, j as u32);
            match outcome.ok() {
                Some(pr) => exact.push(InstalledPair {
                    primary,
                    reference,
                    relation: pr.relation,
                    percentages: pr.percentages,
                }),
                None => pending.push((primary, reference)),
            }
        }
        let slots = regions.into_iter().map(Some).collect();
        IncrementalEngine::from_parts(mode, threads, slots, exact, pending)
            .expect("a join yields each interacting pair once")
    }

    /// Rebuilds an engine from externally stored state (journal replay).
    /// Validates that every stored pair names two distinct live slots,
    /// is actually interacting under the geometry and is stored once,
    /// so corrupted state is rejected instead of silently served. Each
    /// row and `incoming` list is allocated once, at its exact length.
    pub fn from_parts(
        mode: EngineMode,
        threads: usize,
        slots: Vec<Option<Region>>,
        exact: Vec<InstalledPair>,
        pending: Vec<(u32, u32)>,
    ) -> Result<Self, IncrementalError> {
        let n = slots.len();
        let mut engine = IncrementalEngine {
            state: EngineSnapshot {
                mode,
                slots: Vec::with_capacity(n),
                live: 0,
                exact: 0,
                pending: 0,
                stats: IncrementalStats::default(),
            },
            threads: threads.max(1),
            incoming: Vec::new(),
            boxes: Vec::with_capacity(n),
        };
        for region in slots {
            let slot = region.map(|region| engine.new_slot(region));
            engine.boxes.push(slot.as_ref().map(|s| s.mbb));
            engine.state.slots.push(slot);
        }
        let keys = exact
            .iter()
            .map(|p| (p.primary, p.reference))
            .chain(pending.iter().copied());
        let (mut lengths, mut holders) = (vec![0; n], vec![0; n]);
        for (a, b) in keys {
            match (engine.live_mbb(a), engine.live_mbb(b)) {
                (Some(ma), Some(mb)) if a != b && decided_tile(ma, mb).is_none() => {}
                _ => {
                    return Err(IncrementalError::InconsistentState {
                        primary: a,
                        reference: b,
                    })
                }
            }
            lengths[a as usize] += 1;
            holders[b as usize] += 1;
        }
        engine.incoming = holders.into_iter().map(Vec::with_capacity).collect();
        for (slot, length) in engine.state.slots.iter_mut().zip(lengths) {
            if let Some(slot) = slot.as_mut().and_then(Arc::get_mut) {
                slot.refs.reserve_exact(length);
                slot.values.reserve_exact(length);
            }
        }
        let values = exact
            .iter()
            .map(|p| (p.primary, p.reference, Some(StoredPair::of(p))));
        for (a, b, entry) in values.chain(pending.into_iter().map(|(a, b)| (a, b, None))) {
            *engine.counter(&entry) += 1;
            let slot = engine.state.slots[a as usize]
                .as_mut()
                .and_then(Arc::get_mut);
            let slot = slot.expect("validated and not yet shared");
            slot.refs.push(b);
            slot.values.push(entry);
            engine.incoming[b as usize].push(a);
        }
        // A pair stored twice is corrupt state too.
        let mut last = vec![u32::MAX; n];
        for (primary, slot) in engine.state.slots.iter().enumerate() {
            let primary = primary as u32;
            for &reference in slot.iter().flat_map(|s| &s.refs) {
                if std::mem::replace(&mut last[reference as usize], primary) == primary {
                    return Err(IncrementalError::InconsistentState { primary, reference });
                }
            }
        }
        Ok(engine)
    }

    /// A live slot over `region`, with no pairs.
    fn new_slot(&mut self, region: Region) -> Arc<Slot> {
        let mbb = region.mbb();
        self.state.live += 1;
        Arc::new(Slot {
            region: Arc::new(region),
            mbb,
            refs: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Takes an immutable snapshot of the current relation state: a
    /// clone of the engine's [`EngineSnapshot`], O(slots) refcount bumps.
    /// Later edits do not affect it.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.state.clone()
    }

    fn live_mbb(&self, slot: u32) -> Option<BoundingBox> {
        self.boxes.get(slot as usize).copied().flatten()
    }

    /// Applies an edit: invalidates the pairs involving the edited slot,
    /// discovers which of them interact under the new geometry, and
    /// recomputes exactly those under `policy`. Pairs that fail or are
    /// skipped park in the pending set (see [`repair_with`](Self::repair_with)).
    pub fn apply_with(&mut self, edit: Edit, policy: &RunPolicy) -> Result<ApplyDelta, EditError> {
        let (id, kind, region) = self.admit(edit)?;
        let old = self.swap_geometry(id, kind, region.clone());
        let (installed, pending_added, status) = if kind == EditKind::Remove {
            (Vec::new(), Vec::new(), CompletionStatus::Complete)
        } else {
            self.compute(&self.discover(id), policy)
        };
        let pairs = installed
            .iter()
            .map(|p| (p.primary, p.reference, Some(StoredPair::of(p))));
        let pending = pending_added.iter().map(|&(a, b)| (a, b, None));
        let (invalidated, dropped) = self
            .restore(id, old, pairs.chain(pending))
            .expect("recomputed pairs involve the slot");
        self.state.stats.pairs_recomputed += (installed.len() + pending_added.len()) as u64;
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
            return Err(EditError::ReplayMismatch {
                expected: id,
                found: assigned,
            });
        }
        let old = self.swap_geometry(id, kind, region);
        let pairs = installed
            .iter()
            .map(|p| (p.primary, p.reference, Some(StoredPair::of(p))));
        let pending = pending_added.into_iter().map(|(a, b)| (a, b, None));
        self.restore(id, old, pairs.chain(pending))?;
        Ok(())
    }

    /// Replays a recorded repair: moves the recorded pairs from pending
    /// to exact verbatim.
    pub fn replay_repair(&mut self, installed: Vec<InstalledPair>) -> Result<(), EditError> {
        for p in &installed {
            self.put(p.primary, p.reference, StoredPair::of(p))?;
        }
        Ok(())
    }

    /// Recomputes every pending pair under `policy`; pairs that fail
    /// again stay pending.
    pub fn repair_with(&mut self, policy: &RunPolicy) -> RepairDelta {
        self.state.stats.repairs += 1;
        if self.state.pending == 0 {
            return RepairDelta {
                installed: Vec::new(),
                still_pending: 0,
                status: CompletionStatus::Complete,
            };
        }
        let (installed, still_pending, status) = self.compute(&self.pending_pairs(), policy);
        for p in &installed {
            self.put(p.primary, p.reference, StoredPair::of(p))
                .expect("pending pairs are live");
        }
        self.state.stats.pairs_recomputed += (installed.len() + still_pending.len()) as u64;
        RepairDelta {
            installed,
            still_pending: still_pending.len(),
            status,
        }
    }

    /// Folds the engine's counters into `registry` as `incremental.*`
    /// (absolute values — export into a fresh registry per report, like
    /// the bench bins do).
    pub fn export(&self, registry: &Registry) {
        let s = self.state.stats;
        for (name, value) in [
            ("incremental.edits_applied", s.edits_applied),
            ("incremental.pairs_invalidated", s.pairs_invalidated),
            ("incremental.pairs_recomputed", s.pairs_recomputed),
            ("incremental.pairs_reused", s.pairs_reused),
            ("incremental.repairs", s.repairs),
            ("incremental.live_regions", self.state.live as u64),
            ("incremental.exact_stored", self.state.exact as u64),
            ("incremental.pending_pairs", self.state.pending as u64),
        ] {
            registry.counter(name).add(value);
        }
    }

    /// Validates the edit and names the affected slot.
    fn admit(&self, edit: Edit) -> Result<(u32, EditKind, Option<Region>), EditError> {
        match edit {
            Edit::Insert(region) => {
                let id = u32::try_from(self.state.slots.len())
                    .map_err(|_| EditError::SlotSpaceExhausted)?;
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

    /// Installs the slot's new geometry (none for a removal) with an
    /// empty row, and returns the slot it replaced.
    fn swap_geometry(
        &mut self,
        id: u32,
        kind: EditKind,
        region: Option<Region>,
    ) -> Option<Arc<Slot>> {
        if kind == EditKind::Insert {
            self.state.slots.push(None);
            self.incoming.push(Vec::new());
            self.boxes.push(None);
        } else {
            self.state.live -= 1;
        }
        let slot = region.map(|region| self.new_slot(region));
        self.boxes[id as usize] = slot.as_ref().map(|s| s.mbb);
        std::mem::replace(&mut self.state.slots[id as usize], slot)
    }

    /// Makes `pairs` — each involving `id` and another live slot — the
    /// stored pairs on `id`, whose slot `old` held before its geometry
    /// changed. `id`'s row is built from them; each row that held or gains
    /// a pair on `id` is updated in place, copied first if a snapshot
    /// shares it. Counts the edit and returns the ordered pairs it
    /// invalidated (every pair involving the slot, under whichever of the
    /// old/new configurations had it live) and the exact entries it
    /// discarded.
    fn restore(
        &mut self,
        id: u32,
        old: Option<Arc<Slot>>,
        pairs: impl Iterator<Item = (u32, u32, Option<StoredPair>)>,
    ) -> Result<(usize, usize), EditError> {
        let exact_before = self.state.exact;
        let (mut row, mut incoming) = (Vec::new(), Vec::new());
        for (a, b, entry) in pairs {
            let x = if a == id { b } else { a };
            if x == id || (b != id && a != id) || self.state.slot(x).is_none() {
                return Err(EditError::UnknownRegion(x));
            }
            if a == id {
                row.push((b, entry));
            } else {
                incoming.push((a, entry));
            }
        }
        for list in [&mut row, &mut incoming] {
            list.sort_unstable_by_key(|e| e.0);
            if let Some(w) = list.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(EditError::UnknownRegion(w[0].0));
            }
        }
        for (_, entry) in &row {
            *self.counter(entry) += 1;
        }
        let mut dropped = 0;
        // The old row goes whole; the references it loses or gains move
        // out of and into their `incoming` lists.
        let mut old_refs = Vec::new();
        if let Some(slot) = &old {
            for entry in &slot.values {
                *self.counter(entry) -= 1;
                dropped += usize::from(entry.is_some());
            }
            old_refs.clone_from(&slot.refs);
            old_refs.sort_unstable();
        }
        for &x in &old_refs {
            if row.binary_search_by_key(&x, |e| e.0).is_err() {
                let list = &mut self.incoming[x as usize];
                let at = list
                    .iter()
                    .position(|&h| h == id)
                    .expect("incoming mirrors rows");
                list.swap_remove(at);
            }
        }
        for &(x, _) in &row {
            if old_refs.binary_search(&x).is_err() {
                self.incoming[x as usize].push(id);
            }
        }
        // Pairs on `id` held in other rows change in place.
        let holders = incoming.iter().map(|e| e.0).collect();
        for x in std::mem::replace(&mut self.incoming[id as usize], holders) {
            if incoming.binary_search_by_key(&x, |e| e.0).is_err() {
                dropped += usize::from(matches!(self.write(x, id, None), Some(Some(_))));
            }
        }
        for (x, entry) in incoming {
            dropped += usize::from(matches!(self.write(x, id, Some(entry)), Some(Some(_))));
        }
        if let Some(slot) = self.state.slots[id as usize].as_mut() {
            let slot = Arc::get_mut(slot).expect("a fresh slot is not shared");
            (slot.refs, slot.values) = row.into_iter().unzip();
        }
        let invalidated = 2 * (self.state.live - usize::from(self.state.slot(id).is_some()));
        let stats = &mut self.state.stats;
        stats.edits_applied += 1;
        stats.pairs_invalidated += invalidated as u64;
        stats.pairs_reused += (exact_before - dropped) as u64;
        Ok((invalidated, dropped))
    }

    /// The count an entry is tallied in: exact or pending.
    fn counter(&mut self, entry: &Option<StoredPair>) -> &mut usize {
        match entry {
            Some(_) => &mut self.state.exact,
            None => &mut self.state.pending,
        }
    }

    /// Sets (`Some`) or clears (`None`) the stored entry `(a, b)` and
    /// returns the entry it replaced, copying `a`'s row first if a
    /// snapshot shares it. Clearing an absent entry copies nothing.
    fn write(
        &mut self,
        a: u32,
        b: u32,
        new: Option<Option<StoredPair>>,
    ) -> Option<Option<StoredPair>> {
        let slot = self.state.slots[a as usize]
            .as_mut()
            .expect("stored pairs name live slots");
        let found = slot.refs.iter().position(|&r| r == b);
        if found.is_none() && new.is_none() {
            return None;
        }
        let slot = Arc::make_mut(slot);
        let old = match (found, new) {
            (Some(i), Some(entry)) => Some(std::mem::replace(&mut slot.values[i], entry)),
            (Some(i), None) => {
                slot.refs.swap_remove(i);
                Some(slot.values.swap_remove(i))
            }
            (None, _) => {
                slot.refs.push(b);
                slot.values.extend(new);
                None
            }
        };
        if let Some(entry) = &new {
            *self.counter(entry) += 1;
        }
        if let Some(entry) = &old {
            *self.counter(entry) -= 1;
        }
        old
    }

    /// Stores a computed value for `(a, b)`: a repaired pending pair, or
    /// a recorded one on replay. Fails unless the pair names two distinct
    /// live slots.
    fn put(&mut self, a: u32, b: u32, value: StoredPair) -> Result<(), EditError> {
        for x in [a, b] {
            if a == b || self.state.slot(x).is_none() {
                return Err(EditError::UnknownRegion(x));
            }
        }
        if self.write(a, b, Some(Some(value))).is_none() {
            self.incoming[b as usize].push(a);
        }
        Ok(())
    }

    /// Finds the interacting ordered pairs involving `id` under its new
    /// geometry, sorted, in one pass over the live boxes. A box whose
    /// closed x- and y-projections both miss `id`'s is skipped, which is
    /// sound: `strict_band` is `None` on an axis only if `a_hi ≥ b_lo`
    /// and `a_lo ≤ b_hi`, so such a pair is decided both ways. The
    /// [`decided_tile`] test in each direction then picks the pairs
    /// among the rest that need edge work.
    fn discover(&self, id: u32) -> Vec<(u32, u32)> {
        let m = self.live_mbb(id).expect("discover runs on a live slot");
        let mut pairs = Vec::new();
        for (x, mx) in (0u32..).zip(&self.boxes) {
            let Some(mx) = *mx else { continue };
            let x_overlap = m.min.x <= mx.max.x && mx.min.x <= m.max.x;
            let y_overlap = m.min.y <= mx.max.y && mx.min.y <= m.max.y;
            if x == id || !(x_overlap || y_overlap) {
                continue;
            }
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
    /// cache holding only the involved regions; pairs that fail or are
    /// skipped come back as pending.
    #[allow(clippy::type_complexity)]
    fn compute(
        &self,
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
            BatchEngine::new()
                .with_mode(self.state.mode)
                .with_threads(self.threads)
                .run_pairs(&cache, &dense_pairs, policy)
                .expect("pair indices are in range by construction")
        };
        let mut installed = Vec::new();
        let mut pending_added = Vec::new();
        for (outcome, &(a, b)) in outcome.pairs.iter().zip(pairs) {
            match outcome.ok() {
                Some(pr) => installed.push(InstalledPair {
                    primary: a,
                    reference: b,
                    relation: pr.relation,
                    percentages: pr.percentages,
                }),
                None => pending_added.push((a, b)),
            }
        }
        (installed, pending_added, outcome.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEngine;
    use cardir_geometry::Point;
    use cardir_workloads::{random_map, SplitMix64};

    fn extent() -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0))
    }

    fn map(seed: u64, n: usize) -> Vec<Region> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        random_map(&mut rng, n, extent())
            .into_iter()
            .map(|m| m.region)
            .collect()
    }

    fn full_recompute(mode: EngineMode, regions: Vec<&Region>) -> Vec<PairRelation> {
        let cache = RegionCache::build(regions);
        let engine = BatchEngine::new().with_mode(mode).with_threads(1);
        let outcome = engine
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);
        outcome
            .pairs
            .iter()
            .map(|p| p.ok().expect("clean run").clone())
            .collect()
    }

    fn assert_matches_full(engine: &IncrementalEngine) {
        let incremental = engine.materialize().expect("no pending pairs");
        let regions: Vec<&Region> = engine.live_regions().map(|(_, r)| r).collect();
        let full = full_recompute(engine.mode(), regions);
        assert_eq!(incremental.len(), full.len());
        for (a, b) in incremental.iter().zip(&full) {
            assert_eq!(
                a, b,
                "pair ({}, {}) diverged from full recompute",
                a.primary, a.reference
            );
        }
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::rectangle(BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)))
            .expect("valid rectangle")
    }

    #[test]
    fn bootstrap_matches_full_recompute() {
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let engine = IncrementalEngine::bootstrap(mode, 1, map(7, 40), &RunPolicy::default());
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
                        engine.apply_with(Edit::Replace(victim, replacement), &RunPolicy::default())
                    }
                    1 => engine.apply_with(Edit::Insert(replacement), &RunPolicy::default()),
                    _ => {
                        let victim = live[rng.random_range(0..live.len() as u64) as usize];
                        engine.apply_with(Edit::Remove(victim), &RunPolicy::default())
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
        let delta = engine
            .apply_with(
                Edit::Replace(5, rect(1.0, 1.0, 9.0, 9.0)),
                &RunPolicy::default(),
            )
            .expect("applies");
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
            vec![
                rect(0.0, 0.0, 10.0, 10.0),
                rect(5.0, 5.0, 15.0, 15.0),
                rect(100.0, 100.0, 110.0, 110.0),
            ],
            &RunPolicy::default(),
        );
        assert!(engine.relation(0, 1).is_some());
        let delta = engine
            .apply_with(Edit::Remove(1), &RunPolicy::default())
            .expect("applies");
        assert_eq!(delta.kind, EditKind::Remove);
        assert_eq!(engine.live_count(), 2);
        assert!(engine.relation(0, 1).is_none());
        assert!(engine.relation(1, 0).is_none());
        assert_eq!(
            engine
                .apply_with(Edit::Remove(1), &RunPolicy::default())
                .unwrap_err(),
            EditError::UnknownRegion(1)
        );
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
        engine
            .apply_with(Edit::Remove(0), &RunPolicy::default())
            .expect("applies");
        let delta = engine
            .apply_with(
                Edit::Insert(rect(1.0, 1.0, 2.0, 2.0)),
                &RunPolicy::default(),
            )
            .expect("applies");
        assert_eq!(delta.id, 1, "removed slot 0 must not be recycled");
        assert_eq!(engine.slot_count(), 2);
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
    fn forty_replaces_on_ten_regions_match_full_recompute() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            map(31, 10),
            &RunPolicy::default(),
        );
        let mut rng = SplitMix64::seed_from_u64(5);
        for replacement in map(37, 40) {
            let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
            let victim = live[rng.random_range(0..live.len() as u64) as usize];
            engine
                .apply_with(Edit::Replace(victim, replacement), &RunPolicy::default())
                .expect("applies");
        }
        assert_matches_full(&engine);
    }

    /// The exact pairs stored on `id`, in key order.
    fn stored_on(engine: &IncrementalEngine, id: u32) -> Vec<(u32, u32)> {
        let keys = engine.exact_entries().map(|p| (p.primary, p.reference));
        keys.filter(|&(a, b)| a == id || b == id).collect()
    }

    /// The interacting ordered pairs on `id`, by testing every live slot.
    fn oracle(engine: &IncrementalEngine, id: u32) -> Vec<(u32, u32)> {
        let Some(m) = engine.region(id).map(Region::mbb) else {
            return Vec::new();
        };
        let mut pairs = Vec::new();
        for (x, region) in engine.live_regions().filter(|&(x, _)| x != id) {
            let mx = region.mbb();
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

    #[test]
    fn discovery_matches_the_quadratic_oracle_at_shared_coordinates() {
        let up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let down = |v: f64| f64::from_bits(v.to_bits() - 1);
        // Slot 0 is the reference box [10, 14]²; slot 1 moves around it;
        // slot 2 sits above it until it is removed.
        let script = [
            // Closed x-projections share one coordinate, y disjoint: on
            // each side of slot 0, then the same on y.
            Edit::Replace(1, rect(14.0, 20.0, 16.0, 22.0)),
            Edit::Replace(1, rect(6.0, 20.0, 10.0, 22.0)),
            Edit::Replace(1, rect(20.0, 14.0, 22.0, 16.0)),
            Edit::Replace(1, rect(20.0, 6.0, 22.0, 10.0)),
            // One ulp to either side of the shared coordinate.
            Edit::Replace(1, rect(up(14.0), 20.0, 16.0, 22.0)),
            Edit::Replace(1, rect(down(14.0), 20.0, 16.0, 22.0)),
            Edit::Replace(1, rect(20.0, 6.0, 22.0, down(10.0))),
            Edit::Replace(1, rect(20.0, 6.0, 22.0, up(10.0))),
            // Inside slot 0, then around it: one direction interacts.
            Edit::Replace(1, rect(11.0, 11.0, 13.0, 13.0)),
            Edit::Replace(1, rect(8.0, 8.0, 16.0, 16.0)),
            // A removed slot whose last box overlaps the edited one.
            Edit::Remove(2),
            Edit::Replace(1, rect(11.5, 19.0, 12.5, 23.0)),
            // An insert after a remove takes a fresh slot.
            Edit::Insert(rect(12.0, 12.0, 20.0, 20.0)),
            Edit::Replace(3, rect(14.0, 30.0, 15.0, 31.0)),
            Edit::Remove(0),
        ];
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let regions = vec![
                rect(10.0, 10.0, 14.0, 14.0),
                rect(30.0, 30.0, 32.0, 32.0),
                rect(11.0, 20.0, 13.0, 22.0),
            ];
            let policy = RunPolicy::default();
            let mut engine = IncrementalEngine::bootstrap(mode, 1, regions, &policy);
            for edit in script.iter().cloned() {
                let delta = engine.apply_with(edit, &policy).expect("applies");
                assert_eq!(
                    stored_on(&engine, delta.id),
                    oracle(&engine, delta.id),
                    "slot {} after {:?}",
                    delta.id,
                    delta.kind
                );
                assert_matches_full(&engine);
            }
            assert_eq!(engine.slot_count(), 4);
        }
    }

    /// An engine rebuilt from `engine`'s stored state, as replay does.
    fn twin(engine: &IncrementalEngine) -> IncrementalEngine {
        let slots = (0..engine.slot_count() as u32).map(|id| engine.region(id).cloned());
        let (exact, pending) = (engine.exact_entries().collect(), engine.pending_pairs());
        IncrementalEngine::from_parts(engine.mode(), 1, slots.collect(), exact, pending)
            .expect("stored state is consistent")
    }

    #[test]
    fn replay_reproduces_the_applied_state() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Quantitative,
            1,
            map(41, 12),
            &RunPolicy::default(),
        );
        let mut twin = twin(&engine);
        let edits = [
            Edit::Replace(3, rect(2.0, 2.0, 30.0, 20.0)),
            Edit::Insert(rect(7.0, 7.0, 7.5, 9.0)),
            Edit::Remove(0),
        ];
        for edit in edits {
            let delta = engine
                .apply_with(edit, &RunPolicy::default())
                .expect("applies");
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
        assert!(engine.exact_entries().eq(twin.exact_entries()));
    }

    #[test]
    fn from_parts_rejects_corrupted_pair_sets() {
        let slots = vec![
            Some(rect(0.0, 0.0, 1.0, 1.0)),
            Some(rect(50.0, 50.0, 51.0, 51.0)),
        ];
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
            vec![bogus.clone()],
            Vec::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            IncrementalError::InconsistentState {
                primary: 0,
                reference: 1
            }
        );
        // Dead or out-of-range slots are rejected too.
        let err = IncrementalEngine::from_parts(
            EngineMode::Qualitative,
            1,
            slots,
            Vec::new(),
            vec![(0, 9)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            IncrementalError::InconsistentState {
                primary: 0,
                reference: 9
            }
        );
        // So is a pair stored twice, here as both exact and pending.
        let overlapping = vec![
            Some(rect(0.0, 0.0, 10.0, 10.0)),
            Some(rect(5.0, 5.0, 15.0, 15.0)),
        ];
        let err = IncrementalEngine::from_parts(
            EngineMode::Qualitative,
            1,
            overlapping,
            vec![bogus],
            vec![(0, 1)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            IncrementalError::InconsistentState {
                primary: 0,
                reference: 1
            }
        );
    }

    /// Every observable of a snapshot, for before/after comparisons.
    #[allow(clippy::type_complexity)]
    fn observe(
        snap: &EngineSnapshot,
    ) -> (
        Result<Vec<PairRelation>, IncrementalError>,
        Vec<InstalledPair>,
        Vec<(u32, u32)>,
        usize,
    ) {
        (
            snap.materialize(),
            snap.exact_entries().collect(),
            snap.pending_pairs(),
            snap.live_count(),
        )
    }

    #[test]
    fn snapshot_is_immutable_under_later_edits() {
        for mode in [EngineMode::Qualitative, EngineMode::Quantitative] {
            let mut engine =
                IncrementalEngine::bootstrap(mode, 1, map(61, 20), &RunPolicy::default());
            let mut replacements = map(67, 8).into_iter();
            let mut next = || replacements.next().expect("enough replacements");
            let strict = RunPolicy::default().with_deadline(std::time::Duration::from_nanos(0));
            let mut held = Vec::new();
            // One step per copy-on-write path: replace, insert, remove,
            // a replayed apply, an apply that parks pairs as pending, and
            // the repair that graduates them. A snapshot is taken before
            // each step and must never move afterwards.
            for step in 0..6 {
                let snap = engine.snapshot();
                held.push((observe(&snap), snap));
                let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
                match step {
                    0 => drop(
                        engine
                            .apply_with(Edit::Replace(live[0], next()), &RunPolicy::default())
                            .expect("applies"),
                    ),
                    1 => drop(
                        engine
                            .apply_with(Edit::Insert(next()), &RunPolicy::default())
                            .expect("applies"),
                    ),
                    2 => drop(
                        engine
                            .apply_with(Edit::Remove(live[3]), &RunPolicy::default())
                            .expect("applies"),
                    ),
                    3 => {
                        let mut twin = twin(&engine);
                        let d = twin
                            .apply_with(Edit::Replace(live[1], next()), &RunPolicy::default())
                            .expect("applies");
                        engine
                            .replay_apply(d.kind, d.id, d.region, d.installed, d.pending_added)
                            .expect("replays");
                        assert_eq!(engine.materialize(), twin.materialize());
                    }
                    4 => {
                        let delta = engine
                            .apply_with(Edit::Replace(live[2], next()), &strict)
                            .expect("applies");
                        assert!(
                            !delta.pending_added.is_empty(),
                            "a zero deadline parks pairs"
                        );
                    }
                    _ => {
                        // The snapshot taken with pairs pending excludes
                        // them from reads and refuses to materialise.
                        let snap = &held[step].1;
                        let (a, b) = snap.pending_pairs()[0];
                        assert!(snap.relation(a, b).is_none());
                        let pending = IncrementalError::PendingPairs(snap.pending_count());
                        assert_eq!(snap.materialize(), Err(pending));
                        let repair = engine.repair_with(&RunPolicy::default());
                        assert_eq!(repair.status, CompletionStatus::Complete);
                        assert_eq!(engine.pending_count(), 0);
                    }
                }
                for (before, snap) in &held {
                    assert_eq!(
                        &observe(snap),
                        before,
                        "a held snapshot moved at step {step}"
                    );
                }
            }
            assert_matches_full(&engine);
            // Per-pair reads agree with the first snapshot's full list.
            let (first, snap) = &held[0];
            let pairs = first.0.as_ref().expect("no pending pairs at bootstrap");
            let ids: Vec<u32> = snap.live_regions().map(|(id, _)| id).collect();
            for p in pairs {
                assert_eq!(
                    snap.relation(ids[p.primary], ids[p.reference]),
                    Some(p.relation)
                );
            }
        }
    }

    #[test]
    fn replace_shares_every_slot_outside_the_edit_and_its_partners() {
        let policy = RunPolicy::default();
        let mut engine =
            IncrementalEngine::bootstrap(EngineMode::Quantitative, 1, map(71, 60), &policy);
        let id = 17;
        let partners = |engine: &IncrementalEngine| {
            let row = engine.state.slot(id).expect("live").refs.iter().copied();
            row.chain(engine.incoming[id as usize].iter().copied())
                .collect::<Vec<_>>()
        };
        let mut touched = partners(&engine);
        let before = engine.snapshot();
        let moved = before.region(id).expect("live").translated(35.0, -20.0);
        engine
            .apply_with(Edit::Replace(id, moved), &RunPolicy::default())
            .expect("applies");
        touched.extend(partners(&engine));
        touched.push(id);
        let after = engine.snapshot();
        let same = |slot: usize| {
            Arc::ptr_eq(
                before.slots[slot].as_ref().unwrap(),
                after.slots[slot].as_ref().unwrap(),
            )
        };
        let shared: Vec<usize> = (0..after.slot_count())
            .filter(|&s| !touched.contains(&(s as u32)))
            .collect();
        for &slot in &shared {
            assert!(same(slot), "slot {slot} was copied but is not a partner");
        }
        assert!(
            !shared.is_empty() && !same(id as usize),
            "the edit must both share and copy"
        );
        assert_matches_full(&engine);
    }

    #[test]
    fn export_emits_incremental_counters() {
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            map(51, 8),
            &RunPolicy::default(),
        );
        engine
            .apply_with(Edit::Remove(2), &RunPolicy::default())
            .expect("applies");
        let registry = Registry::new();
        engine.export(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("incremental.edits_applied"), Some(1));
        assert_eq!(snap.counter("incremental.live_regions"), Some(7));
        assert_eq!(snap.counter("incremental.pairs_invalidated"), Some(14));
    }
}

//! Named sessions: journaled relation stores behind a snapshot/epoch
//! reader scheme.
//!
//! `IncrementalEngine` is `&mut` single-writer, so naive sharing would
//! serialise every reader behind every edit. A [`Session`] instead
//! splits the two roles:
//!
//! * **Writers** (apply / repair / save) serialise on one `Mutex`
//!   around the [`RelationStore`]. After every successful mutation the
//!   writer publishes the engine's [`EngineSnapshot`] and the annotation
//!   table as the new *current epoch*.
//! * **Readers** (relation lookups, materialize, queries) take a brief
//!   read lock only to clone the current `Arc<SessionSnapshot>`, then
//!   compute entirely on that immutable snapshot. A reader never holds
//!   any lock while computing, so it never blocks behind a long edit —
//!   and an edit never blocks behind a slow reader.
//!
//! Publishing costs O(edit), not O(state). The engine keeps its state
//! in per-slot `Arc` shards, so taking the snapshot is O(slots) refcount
//! bumps and the edit before it copied only the edited slot and its
//! partners' rows. The annotation table is an `Arc` too, copied only
//! when an edit changes a slot's annotation. The replaced epoch is
//! dropped after the lock is released, so freeing the rows only the old
//! epoch held never locks readers out.
//!
//! Epochs are monotone per session; a response built from epoch `e`
//! reports `e`, so clients can detect staleness across requests.
//!
//! Region annotations (ids, colours) are **not journaled**: the wire
//! format of the journal is relation deltas only. A session reopened
//! from its journal therefore serves default `r<slot>` ids until
//! clients re-annotate — documented in DESIGN.md §14.

use crate::api::RegionMeta;
use cardir_cardirect::{Configuration, JournalError, RelationStore, StoreOptions, StoredRelation};
use cardir_engine::{
    ApplyDelta, Edit, EditError, EditKind, EngineSnapshot, RepairDelta, RunPolicy,
};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// An immutable view of a session at one epoch. Cheap to clone the
/// `Arc` of; all reads compute on this without any session lock.
#[derive(Debug)]
pub struct SessionSnapshot {
    /// Monotone per-session epoch (bumped on every published write).
    pub epoch: u64,
    /// The engine state at this epoch.
    pub engine: EngineSnapshot,
    /// Slot-indexed annotations (ids, colours) at this epoch. A slot
    /// with `None`, or past the end, has the default annotation.
    pub meta: Arc<Vec<Option<RegionMeta>>>,
    /// Lazily built query configuration (see [`Self::configuration`]).
    config: OnceLock<Result<Configuration, String>>,
}

impl SessionSnapshot {
    /// The annotation id for `slot` (default `r<slot>`).
    pub fn region_id(&self, slot: u32) -> String {
        match self.meta.get(slot as usize).and_then(Option::as_ref) {
            Some(meta) => meta.id_for(slot),
            None => format!("r{slot}"),
        }
    }

    /// The query-layer [`Configuration`] over this snapshot: every live
    /// region annotated with its id and colour, stored relations filled
    /// from the snapshot's exact pairs when the snapshot is fully
    /// materialisable. With pairs pending repair the configuration is
    /// still built — the evaluator computes relations on demand from
    /// geometry, so queries stay correct (just slower) mid-repair.
    /// Built at most once per snapshot and shared across readers.
    pub fn configuration(&self) -> Result<&Configuration, String> {
        self.config
            .get_or_init(|| self.build_configuration())
            .as_ref()
            .map_err(|e| e.clone())
    }

    fn build_configuration(&self) -> Result<Configuration, String> {
        let mut config = Configuration::new("session", "session.img");
        let mut id_of = BTreeMap::new();
        for (slot, region) in self.engine.live_regions() {
            let meta = self.meta.get(slot as usize).and_then(Option::as_ref);
            let id = meta
                .map(|m| m.id_for(slot))
                .unwrap_or_else(|| format!("r{slot}"));
            let color = meta.and_then(|m| m.color.clone()).unwrap_or_default();
            config
                .add_region(id.clone(), id.clone(), color, region.clone())
                .map_err(|e| format!("bad region annotation: {e}"))?;
            id_of.insert(slot, id);
        }
        if let Ok(pairs) = self.engine.materialize() {
            // Cache order is live-slot order, so index i maps to the
            // i-th live slot.
            let slots: Vec<u32> = id_of.keys().copied().collect();
            let stored = pairs
                .iter()
                .map(|p| StoredRelation {
                    relation: p.relation,
                    primary: id_of[&slots[p.primary]].clone(),
                    reference: id_of[&slots[p.reference]].clone(),
                })
                .collect();
            config
                .set_relations(stored)
                .map_err(|e| format!("bad stored relations: {e}"))?;
        }
        Ok(config)
    }
}

/// One-line description of a session's state (the `GET /sessions/{name}`
/// body, minus the name the caller already knows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// Current published epoch.
    pub epoch: u64,
    /// Live regions.
    pub live: usize,
    /// Stored exact pairs.
    pub exact: usize,
    /// Pairs awaiting repair.
    pub pending: usize,
    /// Journal durability flag (see `RelationStore::journal_healthy`).
    pub journal_healthy: bool,
    /// Whether the journal location ever accepted a write.
    pub journal_writable: bool,
    /// Durable journal bytes.
    pub journal_bytes: u64,
    /// Durable journal records.
    pub journal_records: u64,
    /// How the store came up (`ReplaySource::label`).
    pub replay: &'static str,
}

struct WriterState {
    store: RelationStore,
    /// Shared with every published epoch; copied only when it changes.
    meta: Arc<Vec<Option<RegionMeta>>>,
    epoch: u64,
}

/// A named session: one journaled store, one writer lane, many
/// non-blocking readers.
pub struct Session {
    name: String,
    writer: Mutex<WriterState>,
    current: RwLock<Arc<SessionSnapshot>>,
}

impl Session {
    fn open(name: &str, path: PathBuf, opts: StoreOptions) -> Session {
        let store = RelationStore::open(path, &[], opts);
        let state = WriterState {
            store,
            meta: Arc::default(),
            epoch: 1,
        };
        let snapshot = Arc::new(SessionSnapshot {
            epoch: state.epoch,
            engine: state.store.engine().snapshot(),
            meta: state.meta.clone(),
            config: OnceLock::new(),
        });
        Session {
            name: name.to_string(),
            writer: Mutex::new(state),
            current: RwLock::new(snapshot),
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current epoch's snapshot. This is the entire read path: one
    /// brief read lock to clone an `Arc`, never held during compute.
    pub fn snapshot(&self) -> Arc<SessionSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Applies one edit under `policy` and publishes the next epoch.
    /// The edit lands even when the recompute pass ends early
    /// (deadline): affected pairs are journaled as pending and
    /// the delta's `status` reports how the pass ended — the caller
    /// maps that to its timeout response.
    pub fn apply(
        &self,
        edit: Edit,
        meta: RegionMeta,
        policy: &RunPolicy,
    ) -> Result<ApplyDelta, EditError> {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let delta = w.store.apply(edit, policy)?;
        let slot = delta.id as usize;
        let existing = w.meta.get(slot).cloned().flatten().unwrap_or_default();
        let next = match delta.kind {
            EditKind::Remove => RegionMeta::default(),
            EditKind::Insert => meta,
            EditKind::Replace => RegionMeta {
                id: meta.id.or_else(|| existing.id.clone()),
                color: meta.color.or_else(|| existing.color.clone()),
            },
        };
        // The table is shared with published epochs: copy it only when
        // this slot's annotation changes. Default annotations (`r<slot>`,
        // no colour) are stored as `None`.
        if next != existing {
            let table = Arc::make_mut(&mut w.meta);
            if table.len() <= slot {
                table.resize(slot + 1, None);
            }
            table[slot] = (next != RegionMeta::default()).then_some(next);
        }
        self.publish(&mut w);
        Ok(delta)
    }

    /// Recomputes pending pairs under `policy` and publishes the next
    /// epoch.
    pub fn repair(&self, policy: &RunPolicy) -> RepairDelta {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let delta = w.store.repair(policy);
        self.publish(&mut w);
        delta
    }

    /// Forces the journal durable (compacting an unhealthy one). Errors
    /// when the journal location never accepted a write — the
    /// satellite-3 contract: an unwritable store refuses to pretend it
    /// saved.
    pub fn sync(&self) -> Result<(), JournalError> {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        w.store.sync()
    }

    /// The session's current one-line summary.
    pub fn summary(&self) -> SessionSummary {
        let w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let engine = w.store.engine();
        SessionSummary {
            epoch: w.epoch,
            live: engine.live_count(),
            exact: engine.exact_count(),
            pending: engine.pending_count(),
            journal_healthy: w.store.journal_healthy(),
            journal_writable: w.store.journal_writable(),
            journal_bytes: w.store.journal_bytes(),
            journal_records: w.store.journal_records(),
            replay: w.store.replay_report().source.label(),
        }
    }

    fn publish(&self, w: &mut WriterState) {
        w.epoch += 1;
        let snapshot = Arc::new(SessionSnapshot {
            epoch: w.epoch,
            engine: w.store.engine().snapshot(),
            meta: w.meta.clone(),
            config: OnceLock::new(),
        });
        let replaced = {
            let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, snapshot)
        };
        // Freed (when no reader still holds it) after the lock is gone.
        drop(replaced);
    }
}

/// The set of sessions a server instance carries, each backed by a
/// journal file `<data_dir>/<name>.cdj`.
pub struct SessionRegistry {
    data_dir: PathBuf,
    opts: StoreOptions,
    sessions: RwLock<BTreeMap<String, Arc<Session>>>,
}

impl SessionRegistry {
    /// Creates a registry rooted at `data_dir` (created if absent).
    pub fn new(data_dir: impl Into<PathBuf>, opts: StoreOptions) -> io::Result<SessionRegistry> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        Ok(SessionRegistry {
            data_dir,
            opts,
            sessions: RwLock::new(BTreeMap::new()),
        })
    }

    /// `true` for names safe to embed in a journal filename.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    }

    /// Opens (or creates) the named session. Idempotent: a second open
    /// returns the same live session.
    pub fn open(&self, name: &str) -> Result<Arc<Session>, String> {
        if !Self::valid_name(name) {
            return Err(format!(
                "invalid session name {name:?}: use 1-64 ASCII alphanumerics, '-', '_'"
            ));
        }
        if let Some(session) = self.get(name) {
            return Ok(session);
        }
        let mut sessions = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: another thread may have opened
        // it between our read miss and here.
        if let Some(session) = sessions.get(name) {
            return Ok(session.clone());
        }
        let path = self.data_dir.join(format!("{name}.cdj"));
        let session = Arc::new(Session::open(name, path, self.opts.clone()));
        sessions.insert(name.to_string(), session.clone());
        Ok(session)
    }

    /// The named session, when already open.
    pub fn get(&self, name: &str) -> Option<Arc<Session>> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Names of all open sessions.
    pub fn names(&self) -> Vec<String> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_engine::{CompletionStatus, EngineMode};
    use cardir_geometry::{BoundingBox, Point, Region};

    fn square(x: f64, y: f64, side: f64) -> Region {
        Region::rectangle(BoundingBox::new(
            Point::new(x, y),
            Point::new(x + side, y + side),
        ))
        .unwrap()
    }

    fn registry(dir: &std::path::Path) -> SessionRegistry {
        SessionRegistry::new(
            dir,
            StoreOptions {
                mode: EngineMode::Qualitative,
                threads: 1,
                ..StoreOptions::default()
            },
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cardird-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn readers_hold_their_epoch_while_writers_advance() {
        let dir = temp_dir("epoch");
        let reg = registry(&dir);
        let session = reg.open("demo").unwrap();
        let policy = RunPolicy::default();
        session
            .apply(
                Edit::Insert(square(0.0, 0.0, 10.0)),
                RegionMeta::default(),
                &policy,
            )
            .unwrap();
        session
            .apply(
                Edit::Insert(square(20.0, 20.0, 10.0)),
                RegionMeta::default(),
                &policy,
            )
            .unwrap();

        let before = session.snapshot();
        let pairs_before = before.engine.materialize().unwrap();
        // A writer advances the session; the held snapshot must not move.
        session
            .apply(
                Edit::Insert(square(40.0, 0.0, 10.0)),
                RegionMeta::default(),
                &policy,
            )
            .unwrap();
        let after = session.snapshot();
        assert!(after.epoch > before.epoch);
        assert_eq!(before.engine.live_count(), 2);
        assert_eq!(after.engine.live_count(), 3);
        assert_eq!(before.engine.materialize().unwrap(), pairs_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_shares_the_annotation_table_until_it_changes() {
        let dir = temp_dir("meta");
        let reg = registry(&dir);
        let session = reg.open("meta").unwrap();
        let policy = RunPolicy::default();
        let named = RegionMeta {
            id: Some("a".into()),
            color: None,
        };
        session
            .apply(Edit::Insert(square(0.0, 0.0, 10.0)), named, &policy)
            .unwrap();
        let before = session.snapshot();
        // A replace without annotations publishes the same table.
        session
            .apply(
                Edit::Replace(0, square(1.0, 1.0, 10.0)),
                RegionMeta::default(),
                &policy,
            )
            .unwrap();
        let moved = session.snapshot();
        assert!(Arc::ptr_eq(&before.meta, &moved.meta));
        assert_eq!(moved.region_id(0), "a");
        // An annotated replace copies it; the held epoch keeps its value.
        let red = RegionMeta {
            id: None,
            color: Some("red".into()),
        };
        session
            .apply(Edit::Replace(0, square(2.0, 2.0, 10.0)), red, &policy)
            .unwrap();
        let recoloured = session.snapshot();
        assert!(!Arc::ptr_eq(&moved.meta, &recoloured.meta));
        assert_eq!(
            recoloured.meta[0].as_ref().unwrap().color.as_deref(),
            Some("red")
        );
        assert_eq!(recoloured.region_id(0), "a");
        assert_eq!(moved.meta[0].as_ref().unwrap().color, None);
        session
            .apply(Edit::Remove(0), RegionMeta::default(), &policy)
            .unwrap();
        assert_eq!(session.snapshot().meta[0], None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_configuration_serves_annotated_queries() {
        let dir = temp_dir("config");
        let reg = registry(&dir);
        let session = reg.open("annotated").unwrap();
        let policy = RunPolicy::default();
        session
            .apply(
                Edit::Insert(square(0.0, 0.0, 10.0)),
                RegionMeta {
                    id: Some("sparta".into()),
                    color: Some("red".into()),
                },
                &policy,
            )
            .unwrap();
        session
            .apply(
                Edit::Insert(square(0.0, 20.0, 10.0)),
                RegionMeta {
                    id: Some("athens".into()),
                    color: Some("blue".into()),
                },
                &policy,
            )
            .unwrap();
        let snapshot = session.snapshot();
        let config = snapshot.configuration().unwrap();
        assert_eq!(config.regions().len(), 2);
        // athens sits strictly north of sparta.
        let relation = config.relation_between("athens", "sparta").unwrap();
        assert_eq!(relation.to_string(), "N");
        let query = cardir_cardirect::parse_query("{(x, y) | y = sparta, x N y}").unwrap();
        let bindings = cardir_cardirect::evaluate(&query, config).unwrap();
        assert_eq!(bindings.len(), 1);
        assert_eq!(
            bindings[0].values,
            vec!["athens".to_string(), "sparta".to_string()]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_reopen_from_their_journal_with_default_ids() {
        let dir = temp_dir("reopen");
        {
            let reg = registry(&dir);
            let session = reg.open("persist").unwrap();
            session
                .apply(
                    Edit::Insert(square(0.0, 0.0, 10.0)),
                    RegionMeta {
                        id: Some("named".into()),
                        color: None,
                    },
                    &RunPolicy::default(),
                )
                .unwrap();
            session.sync().unwrap();
        }
        // A fresh registry (fresh process, same data dir) replays the
        // journal; annotations are not journaled, so ids fall back.
        let reg = registry(&dir);
        let session = reg.open("persist").unwrap();
        let summary = session.summary();
        assert_eq!(summary.live, 1);
        assert_eq!(summary.replay, "journal");
        let snapshot = session.snapshot();
        assert_eq!(snapshot.region_id(0), "r0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_zero_lands_the_edit_with_pairs_pending() {
        let dir = temp_dir("deadline");
        let reg = registry(&dir);
        let session = reg.open("slow").unwrap();
        let policy = RunPolicy::default();
        for i in 0..4 {
            session
                .apply(
                    Edit::Insert(square(15.0 * i as f64, 0.0, 10.0)),
                    RegionMeta::default(),
                    &policy,
                )
                .unwrap();
        }
        let strict = RunPolicy::default().with_deadline(std::time::Duration::from_nanos(0));
        let delta = session
            .apply(
                Edit::Insert(square(0.0, 30.0, 80.0)),
                RegionMeta::default(),
                &strict,
            )
            .unwrap();
        assert_eq!(delta.status, CompletionStatus::DeadlineExceeded);
        assert!(!delta.pending_added.is_empty());
        // The edit landed: the region is live, its pairs are pending,
        // and a later repair converges.
        let summary = session.summary();
        assert_eq!(summary.live, 5);
        assert!(summary.pending > 0);
        let repair = session.repair(&policy);
        assert_eq!(repair.status, CompletionStatus::Complete);
        assert_eq!(session.summary().pending, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_rejects_hostile_names() {
        let dir = temp_dir("names");
        let reg = registry(&dir);
        let long = "x".repeat(65);
        for name in ["", "../escape", "a/b", long.as_str(), "dot.dot"] {
            assert!(reg.open(name).is_err(), "{name:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

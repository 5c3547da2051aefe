//! Crash-safety tests for the relation journal: truncation at every
//! byte offset, kills mid-append and mid-compaction, and append-failure
//! recovery — the journal must never panic, never serve garbage
//! relations, and always come back to a state that bit-matches a fresh
//! full recompute of whatever geometry it reports.
//!
//! Each store carries its test's own fault plan in its options, so the
//! tests run in parallel.

use cardir_cardirect::{RebuildReason, RelationStore, ReplaySource, StoreOptions};
use cardir_engine::{
    BatchEngine, Edit, EngineMode, IncrementalEngine, PairRelation, RegionCache, RunPolicy,
};
use cardir_faults::{sites, FaultAction, FaultPlan, Trigger};
use cardir_geometry::{BoundingBox, Point, Region};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cardir-journal-it-{tag}-{}-{}.cdj",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut tmp = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(path.with_file_name(tmp));
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::rectangle(BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)))
        .expect("valid rectangle")
}

/// Default store options carrying a fresh, unarmed fault plan.
fn planned() -> (Arc<FaultPlan>, StoreOptions) {
    let plan = Arc::new(FaultPlan::new());
    let opts = StoreOptions {
        faults: Some(Arc::clone(&plan)),
        ..StoreOptions::default()
    };
    (plan, opts)
}

fn base() -> Vec<Region> {
    vec![
        rect(0.0, 0.0, 10.0, 10.0),
        rect(5.0, 5.0, 15.0, 15.0),
        rect(8.0, 1.0, 20.0, 4.0),
        rect(40.0, 40.0, 50.0, 50.0),
    ]
}

/// The edit script used by the byte-offset sweep: a mix of replaces,
/// an insert, and a remove, all touching the interacting cluster.
fn edits() -> Vec<Edit> {
    vec![
        Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)),
        Edit::Insert(rect(7.0, 7.0, 9.0, 9.0)),
        Edit::Replace(0, rect(1.0, 1.0, 11.0, 11.0)),
        Edit::Remove(2),
        Edit::Replace(4, rect(6.5, 6.5, 9.5, 12.0)),
        Edit::Insert(rect(41.0, 41.0, 42.0, 42.0)),
    ]
}

/// A fresh full batch run over the engine's live geometry — the oracle
/// every replayed state must bit-match.
fn full_recompute(engine: &IncrementalEngine) -> Vec<PairRelation> {
    let regions: Vec<&Region> = engine.live_regions().map(|(_, r)| r).collect();
    let cache = RegionCache::build(regions);
    let batch = BatchEngine::new().with_mode(engine.mode()).with_threads(1);
    let outcome = batch
        .run_join(&cache, &RunPolicy::default())
        .materialize(&cache);
    outcome
        .pairs
        .iter()
        .map(|p| p.ok().expect("clean run").clone())
        .collect()
}

fn assert_matches_full(engine: &IncrementalEngine, context: &str) {
    let materialized = engine.materialize().unwrap_or_else(|e| {
        panic!("{context}: replayed state cannot materialize: {e}");
    });
    let oracle = full_recompute(engine);
    assert_eq!(
        materialized.len(),
        oracle.len(),
        "{context}: pair count diverged"
    );
    for (a, b) in materialized.iter().zip(&oracle) {
        assert_eq!(
            a, b,
            "{context}: pair ({}, {}) diverged",
            a.primary, a.reference
        );
    }
}

/// Satellite: replay never panics and never returns garbage, for a
/// journal truncated at *every* byte offset. Each prefix must open to a
/// state that bit-matches a full recompute of the regions it reports —
/// a clean prefix replays (possibly short), anything unusable degrades
/// to a rebuild of the base.
#[test]
fn truncation_at_every_byte_offset_never_panics_never_serves_garbage() {
    let source = scratch("sweep-src");
    cleanup(&source);
    let opts = StoreOptions {
        mode: EngineMode::Qualitative,
        threads: 1,
        ..StoreOptions::default()
    };
    let policy = RunPolicy::default();

    let mut store = RelationStore::open(&source, &base(), opts.clone());
    for edit in edits() {
        store.apply(edit, &policy).expect("edit applies");
    }
    drop(store);
    let bytes = std::fs::read(&source).unwrap();
    assert!(bytes.len() > 200, "journal too small to exercise the sweep");

    let target = scratch("sweep-cut");
    for cut in 0..=bytes.len() {
        cleanup(&target);
        std::fs::write(&target, &bytes[..cut]).unwrap();
        let context = format!("cut at byte {cut} of {}", bytes.len());
        let store = catch_unwind(AssertUnwindSafe(|| {
            RelationStore::open(&target, &base(), opts.clone())
        }))
        .unwrap_or_else(|_| panic!("{context}: open panicked"));
        // Whatever the outcome, the reported state must be internally
        // consistent and bit-match a fresh recompute of its geometry.
        assert_matches_full(store.engine(), &context);
        match store.replay_report().source {
            // A truncated-but-parsable prefix or a clean journal: the
            // state is some past durable state over the same base.
            ReplaySource::Journal | ReplaySource::TruncatedJournal { .. } => {}
            // Unusable prefix: the state must be the full base set.
            ReplaySource::Rebuilt(_) => {
                assert_eq!(store.engine().live_count(), base().len(), "{context}");
            }
        }
    }
    cleanup(&source);
    cleanup(&target);
}

/// A kill mid-append (injected panic at the `journal.append` failpoint)
/// loses at most the in-flight record: reopening replays the pre-edit
/// durable state, bit-identical to a full recompute.
#[test]
fn kill_mid_append_loses_only_the_inflight_record() {
    let path = scratch("kill-append");
    cleanup(&path);
    let (plan, opts) = planned();
    let policy = RunPolicy::default();

    let mut store = RelationStore::open(&path, &base(), opts.clone());
    store
        .apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)), &policy)
        .expect("edit applies");
    let live_before = store.engine().live_count();

    plan.arm(
        sites::JOURNAL_APPEND,
        FaultAction::Panic("killed mid-append".into()),
        Trigger::Times(1),
    );
    let result = catch_unwind(AssertUnwindSafe(|| {
        store.apply(Edit::Insert(rect(7.0, 7.0, 8.0, 8.0)), &policy)
    }));
    assert!(result.is_err(), "the injected kill escaped the append");
    assert_eq!(plan.fired(sites::JOURNAL_APPEND), 1);
    drop(store);

    let reopened = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(reopened.replay_report().source, ReplaySource::Journal);
    assert_eq!(
        reopened.engine().live_count(),
        live_before,
        "the doomed insert is gone"
    );
    assert_matches_full(reopened.engine(), "after kill mid-append");
    cleanup(&path);
}

/// A torn append (partial frame reaches the disk before the failure
/// surfaces) marks the journal unhealthy; the next write compacts a
/// full snapshot over it, so nothing is lost and reopening replays the
/// complete state — including the edit whose append tore.
#[test]
fn torn_append_recovers_by_compaction_without_losing_the_edit() {
    let path = scratch("torn-append");
    cleanup(&path);
    let (plan, opts) = planned();
    let policy = RunPolicy::default();

    let mut store = RelationStore::open(&path, &base(), opts.clone());
    plan.arm(
        sites::JOURNAL_APPEND,
        FaultAction::TornWrite(7),
        Trigger::Times(1),
    );
    // The edit itself succeeds — in-memory state is authoritative.
    store
        .apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)), &policy)
        .expect("edit applies");
    assert_eq!(plan.fired(sites::JOURNAL_APPEND), 1);
    assert_eq!(store.stats().append_failures, 1);
    assert!(!store.journal_healthy());

    // The next write re-establishes durability via compaction.
    store
        .apply(Edit::Insert(rect(7.0, 7.0, 8.0, 8.0)), &policy)
        .expect("edit applies");
    assert!(store.journal_healthy());
    let live = store.engine().live_count();
    drop(store);

    let reopened = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(reopened.replay_report().source, ReplaySource::Journal);
    assert_eq!(reopened.engine().live_count(), live, "both edits survive");
    assert_matches_full(reopened.engine(), "after torn-append recovery");
    cleanup(&path);
}

/// `sync()` re-establishes durability explicitly after a failed append,
/// without waiting for the next edit.
#[test]
fn sync_after_append_failure_compacts_the_full_state() {
    let path = scratch("sync");
    cleanup(&path);
    let (plan, opts) = planned();
    let policy = RunPolicy::default();

    let mut store = RelationStore::open(&path, &base(), opts.clone());
    plan.arm(
        sites::JOURNAL_APPEND,
        FaultAction::IoError("injected ENOSPC".into()),
        Trigger::Times(1),
    );
    store.apply(Edit::Remove(3), &policy).expect("edit applies");
    plan.disarm(sites::JOURNAL_APPEND);
    assert!(!store.journal_healthy());
    store
        .sync()
        .expect("compaction succeeds once the fault is disarmed");
    assert!(store.journal_healthy());
    drop(store);

    let reopened = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(reopened.replay_report().source, ReplaySource::Journal);
    assert_eq!(
        reopened.engine().live_count(),
        base().len() - 1,
        "the remove survived"
    );
    assert_matches_full(reopened.engine(), "after sync recovery");
    cleanup(&path);
}

/// A kill mid-compaction — at the temp write or at the rename — leaves
/// the old journal authoritative: reopening replays the full pre-kill
/// state from it.
#[test]
fn kill_mid_compaction_keeps_the_old_journal_authoritative() {
    for site in [sites::JOURNAL_COMPACT_WRITE, sites::JOURNAL_COMPACT_RENAME] {
        let path = scratch("kill-compact");
        cleanup(&path);
        let (plan, opts) = planned();
        let policy = RunPolicy::default();

        let mut store = RelationStore::open(&path, &base(), opts.clone());
        // The edit's append lands durably; the kill hits the explicit
        // compaction that follows it.
        store
            .apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)), &policy)
            .expect("edit applies");
        plan.arm(
            site,
            FaultAction::Panic(format!("killed at {site}")),
            Trigger::Times(1),
        );
        let result = catch_unwind(AssertUnwindSafe(|| store.compact()));
        plan.disarm(site);
        assert!(result.is_err(), "{site}: the injected kill escaped");
        drop(store);

        let reopened = RelationStore::open(&path, &base(), opts.clone());
        match reopened.replay_report().source {
            // The append itself was durable before the compaction began,
            // so the edit must be present either way.
            ReplaySource::Journal | ReplaySource::TruncatedJournal { .. } => {}
            ref other => panic!("{site}: journal lost to a compaction kill: {other:?}"),
        }
        assert_eq!(reopened.engine().live_count(), base().len(), "{site}");
        assert!(
            reopened.engine().region(1).expect("slot 1 live").mbb()
                == rect(6.0, 6.0, 16.0, 16.0).mbb(),
            "{site}: the replace preceding the kill was durable and must replay"
        );
        assert_matches_full(reopened.engine(), site);
        cleanup(&path);
    }
}

/// Errored (non-kill) compactions keep the store fully usable: the old
/// journal stays valid and a later successful compaction catches up.
#[test]
fn failed_compaction_degrades_gracefully_and_retries() {
    let path = scratch("compact-err");
    cleanup(&path);
    let (plan, opts) = planned();
    let policy = RunPolicy::default();

    let mut store = RelationStore::open(&path, &base(), opts.clone());
    store
        .apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)), &policy)
        .expect("edit applies");
    plan.arm(
        sites::JOURNAL_COMPACT_WRITE,
        FaultAction::IoError("injected EIO".into()),
        Trigger::Times(1),
    );
    let err = store.compact().expect_err("injected compaction failure");
    plan.disarm(sites::JOURNAL_COMPACT_WRITE);
    assert!(err.to_string().contains("injected EIO"), "{err}");
    assert_eq!(store.stats().compaction_failures, 1);

    // Edits keep flowing; a later compaction catches up cleanly.
    store
        .apply(Edit::Insert(rect(7.0, 7.0, 8.0, 8.0)), &policy)
        .expect("edit applies");
    store.compact().expect("retry compaction lands");
    assert!(store.stats().compactions >= 2, "retry compaction must land");
    let live = store.engine().live_count();
    drop(store);

    let reopened = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(reopened.engine().live_count(), live);
    assert_matches_full(reopened.engine(), "after compaction retry");
    cleanup(&path);
}

/// An injected replay failure degrades to a full rebuild — the store
/// still opens, reports the degradation, and serves correct relations.
#[test]
fn injected_replay_failure_degrades_to_rebuild() {
    let path = scratch("replay-err");
    cleanup(&path);
    let (plan, opts) = planned();

    let mut store = RelationStore::open(&path, &base(), opts.clone());
    store
        .apply(Edit::Remove(3), &RunPolicy::default())
        .expect("edit applies");
    drop(store);

    plan.arm(
        sites::JOURNAL_REPLAY,
        FaultAction::IoError("injected EIO".into()),
        Trigger::Times(1),
    );
    let reopened = RelationStore::open(&path, &base(), opts.clone());
    plan.disarm(sites::JOURNAL_REPLAY);
    assert_eq!(
        reopened.replay_report().source,
        ReplaySource::Rebuilt(RebuildReason::Corrupt),
        "injected replay failure must be reported, not hidden"
    );
    assert_eq!(
        reopened.engine().live_count(),
        base().len(),
        "rebuild recomputes the base"
    );
    assert_matches_full(reopened.engine(), "after replay-failure rebuild");

    // With the fault gone, the rebuild's fresh journal replays normally.
    let again = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(again.replay_report().source, ReplaySource::Journal);
    cleanup(&path);
}

/// Repeated kill/reopen cycles across an edit script converge: every
/// reopen yields a consistent state, and a final clean pass brings the
/// store to the script's end state.
#[test]
fn crash_reopen_cycles_converge_to_the_script_end_state() {
    let path = scratch("cycles");
    cleanup(&path);
    let (plan, opts) = planned();
    let opts = StoreOptions {
        compact_threshold: 1024,
        ..opts
    };
    let policy = RunPolicy::default();

    {
        let store = RelationStore::open(&path, &base(), opts.clone());
        drop(store);
    }
    // Apply each edit in its own open/close cycle, killing every other
    // append mid-flight and re-applying after the reopen.
    for (step, edit) in edits().into_iter().enumerate() {
        let mut store = RelationStore::open(&path, &base(), opts.clone());
        if step % 2 == 1 {
            plan.arm(
                sites::JOURNAL_APPEND,
                FaultAction::Panic("killed in cycle".into()),
                Trigger::Times(1),
            );
            let result = catch_unwind(AssertUnwindSafe(|| store.apply(edit.clone(), &policy)));
            plan.disarm(sites::JOURNAL_APPEND);
            assert!(result.is_err(), "step {step}: injected kill escaped");
            // "Process died" — reopen from disk and apply the edit again.
            drop(store);
            store = RelationStore::open(&path, &base(), opts.clone());
            assert_matches_full(store.engine(), &format!("step {step} post-kill reopen"));
        }
        store
            .apply(edit, &policy)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        drop(store);
    }

    let final_store = RelationStore::open(&path, &base(), opts.clone());
    assert_eq!(final_store.replay_report().source, ReplaySource::Journal);
    assert_matches_full(final_store.engine(), "script end state");
    // The script net effect: 4 base − 1 removed + 2 inserted = 5 live.
    assert_eq!(final_store.engine().live_count(), 5);
    cleanup(&path);
}

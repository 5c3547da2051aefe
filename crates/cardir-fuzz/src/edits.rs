//! The `edits` differential family: random edit scripts driven through
//! the journaled incremental engine, cross-checked bit-for-bit against
//! a fresh full recompute — with and without injected faults and
//! simulated process deaths.
//!
//! The contract under test is the incremental/journal robustness story:
//!
//! * after any prefix of an edit script, `IncrementalEngine::materialize`
//!   equals a full `BatchEngine` run over the same live geometry —
//!   relations, percentages, and `via_prefilter` provenance included,
//! * dropping the [`RelationStore`] at any point and reopening replays
//!   to exactly the durable state (and that state also bit-matches a
//!   full recompute of its geometry),
//! * a kill mid-append or mid-compaction (injected panic unwinding
//!   through the IO path, like a process dying there) never loses more
//!   than the in-flight record and never yields garbage,
//! * probabilistic faults on the compute path park pairs as pending,
//!   never as wrong relations; a repair after disarming converges to
//!   the exact fault-free state.
//!
//! Failpoints are process-global, so these checks must not run
//! concurrently with other failpoint users; the fuzz CLI and the smoke
//! tests serialize them.

use crate::checks::Failure;
use cardir_cardirect::{RelationStore, ReplaySource, StoreOptions};
use cardir_engine::{
    BatchEngine, Edit, EngineMode, IncrementalEngine, PairRelation, RegionCache, RunPolicy,
};
use cardir_faults::{sites, FaultAction, Trigger};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_workloads::{random_map, random_region, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn fail(check: &'static str, detail: String) -> Option<Failure> {
    Some(Failure { check, detail })
}

fn scratch_path(seed: u64, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cardir-fuzz-edits-{tag}-{}-{seed}.cdj",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut tmp = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(path.with_file_name(tmp));
}

fn extent() -> BoundingBox {
    BoundingBox::new(Point::new(0.0, 0.0), Point::new(400.0, 300.0))
}

/// Seed-derived base map: small enough that a full-recompute oracle per
/// step stays cheap, clustered enough that edits hit interacting pairs.
fn base_regions(seed: u64) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = 3 + (rng.random_range(0..4u64) as usize);
    random_map(&mut rng, n, extent()).into_iter().map(|m| m.region).collect()
}

/// The next seed-derived edit against the current live slot set.
fn draw_edit(rng: &mut SplitMix64, engine: &IncrementalEngine, pool: &mut Vec<Region>) -> Edit {
    let live: Vec<u32> = engine.live_regions().map(|(id, _)| id).collect();
    // random_region consumes the same draw sequence random_map(rng, 1, ..)
    // did, but is decoupled from the map generator's grid internals, so
    // pinned seed scripts survive layout changes there (see the
    // seed-script pin test below).
    let fresh = |pool: &mut Vec<Region>, rng: &mut SplitMix64| {
        pool.pop().unwrap_or_else(|| random_region(rng, extent()).region)
    };
    // Keep at least two regions alive so every script keeps exercising
    // real pair work; bias towards replaces, the incremental sweet spot.
    match rng.random_range(0..6u64) {
        0 if live.len() > 2 => {
            Edit::Remove(live[rng.random_range(0..live.len() as u64) as usize])
        }
        1 => Edit::Insert(fresh(pool, rng)),
        _ => {
            let victim = live[rng.random_range(0..live.len() as u64) as usize];
            Edit::Replace(victim, fresh(pool, rng))
        }
    }
}

/// The oracle: a fresh batch join over the engine's live
/// geometry, materialized to the full ordered-pair list.
fn full_recompute(engine: &IncrementalEngine) -> Result<Vec<PairRelation>, String> {
    let regions: Vec<&Region> = engine.live_regions().map(|(_, r)| r).collect();
    let cache = RegionCache::build(regions);
    let batch = BatchEngine::new().with_mode(engine.mode()).with_threads(1);
    let outcome = batch.run_join(&cache, &RunPolicy::default()).materialize(&cache);
    outcome
        .pairs
        .iter()
        .map(|p| p.ok().cloned().ok_or_else(|| "oracle run failed a pair".to_string()))
        .collect()
}

/// Bit-compares the engine's materialized state against the oracle.
fn diff_vs_full(engine: &IncrementalEngine, context: &str) -> Option<String> {
    let materialized = match engine.materialize() {
        Ok(m) => m,
        Err(e) => return Some(format!("{context}: materialize failed: {e}")),
    };
    let oracle = match full_recompute(engine) {
        Ok(o) => o,
        Err(e) => return Some(format!("{context}: {e}")),
    };
    if materialized.len() != oracle.len() {
        return Some(format!(
            "{context}: {} materialized pairs vs {} from full recompute",
            materialized.len(),
            oracle.len()
        ));
    }
    for (got, want) in materialized.iter().zip(&oracle) {
        if got != want {
            return Some(format!(
                "{context}: pair ({}, {}) diverged:\n  incremental: {} via_prefilter={}\n  \
                 full:        {} via_prefilter={}",
                got.primary, got.reference, got.relation, got.via_prefilter,
                want.relation, want.via_prefilter
            ));
        }
    }
    None
}

fn store_options(seed: u64) -> StoreOptions {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xabcd_ef01);
    StoreOptions {
        mode: if rng.random_bool(0.5) {
            EngineMode::Quantitative
        } else {
            EngineMode::Qualitative
        },
        threads: 1 + (rng.random_range(0..2u64) as usize),
        // Small threshold so scripts cross the compaction boundary often.
        compact_threshold: 2048,
    }
}

/// Phase A: a clean seeded edit script with periodic drop/reopen crash
/// cycles. Every step must bit-match the full-recompute oracle, and
/// every reopen must replay to exactly the pre-drop state.
pub fn check_edit_script(seed: u64) -> Option<Failure> {
    cardir_faults::disarm_all();
    let path = scratch_path(seed, "clean");
    cleanup(&path);
    let opts = store_options(seed);
    let policy = RunPolicy::default();
    let base = base_regions(seed);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_0001);
    let mut pool: Vec<Region> = random_map(&mut rng, 10, extent())
        .into_iter()
        .map(|m| m.region)
        .collect();

    let result = (|| {
        let mut store = RelationStore::open(&path, &base, opts);
        let steps = 4 + (rng.random_range(0..7u64));
        for step in 0..steps {
            let edit = draw_edit(&mut rng, store.engine(), &mut pool);
            if let Err(e) = store.apply(edit.clone(), &policy) {
                return fail("edits-apply", format!("step {step}: edit {edit:?} rejected: {e}"));
            }
            if let Some(diff) = diff_vs_full(store.engine(), &format!("step {step}")) {
                return fail("edits-differential", diff);
            }
            // Crash cycle roughly every third step: drop the store cold
            // and reopen from disk.
            if rng.random_bool(0.33) {
                let before = match store.engine().materialize() {
                    Ok(m) => m,
                    Err(e) => {
                        return fail("edits-replay", format!("step {step}: pre-drop state: {e}"))
                    }
                };
                drop(store);
                store = RelationStore::open(&path, &base, opts);
                match store.replay_report().source {
                    ReplaySource::Journal => {}
                    ref other => {
                        return fail(
                            "edits-replay",
                            format!("step {step}: clean journal replayed as {other:?}"),
                        )
                    }
                }
                let after = match store.engine().materialize() {
                    Ok(m) => m,
                    Err(e) => {
                        return fail("edits-replay", format!("step {step}: post-reopen: {e}"))
                    }
                };
                if before != after {
                    return fail(
                        "edits-replay",
                        format!(
                            "step {step}: replayed state diverged from the dropped state \
                             ({} vs {} pairs or content)",
                            after.len(),
                            before.len()
                        ),
                    );
                }
            }
        }
        None
    })();
    cleanup(&path);
    result
}

/// Phase B: the same scripts under fire — probabilistic faults on the
/// compute path and the journal append path, plus seeded kills
/// mid-append and mid-compaction with full crash/replay cycles.
pub fn check_edit_faults(seed: u64) -> Option<Failure> {
    cardir_faults::disarm_all();
    let path = scratch_path(seed, "faults");
    cleanup(&path);
    let opts = store_options(seed);
    let policy = RunPolicy::default();
    let base = base_regions(seed);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_0002);
    let mut pool: Vec<Region> = random_map(&mut rng, 12, extent())
        .into_iter()
        .map(|m| m.region)
        .collect();

    let result = (|| {
        let mut store = RelationStore::open(&path, &base, opts);

        // --- Probabilistic faults on compute + journal-append paths ---
        let compute_guard = cardir_faults::arm(
            sites::ENGINE_PAIR_COMPUTE,
            FaultAction::Error("injected".into()),
            Trigger::Probability { num: 1, den: 4, seed: seed ^ 1 },
        );
        let append_guard = cardir_faults::arm(
            sites::JOURNAL_APPEND,
            if rng.random_bool(0.5) {
                FaultAction::IoError("injected".into())
            } else {
                FaultAction::TornWrite(5 + (seed % 40) as usize)
            },
            Trigger::Probability { num: 1, den: 3, seed: seed ^ 2 },
        );
        for step in 0..4u64 {
            let edit = draw_edit(&mut rng, store.engine(), &mut pool);
            if let Err(e) = store.apply(edit.clone(), &policy) {
                return fail(
                    "edits-faulted-apply",
                    format!("faulted step {step}: edit {edit:?} rejected: {e}"),
                );
            }
            // No oracle here: the compute failpoint is still armed, so a
            // full recompute would fault too. The post-repair differential
            // below asserts the "pending, never wrong" contract once the
            // registry is disarmed.
        }
        drop(compute_guard);
        drop(append_guard);

        // Repair converges to the exact fault-free state.
        let repaired = store.repair(&policy);
        if repaired.still_pending != 0 {
            return fail(
                "edits-repair",
                format!("{} pairs still pending after disarmed repair", repaired.still_pending),
            );
        }
        if let Some(diff) = diff_vs_full(store.engine(), "after repair") {
            return fail("edits-repair", diff);
        }
        // Re-establish durability (appends may have been killed above).
        if let Err(e) = store.sync() {
            return fail("edits-repair", format!("sync after disarm failed: {e}"));
        }

        // --- Kill mid-append: process dies, reopen, replay ---
        let pre_kill = store.engine().materialize().expect("no pending after repair");
        let kill_guard = cardir_faults::arm(
            sites::JOURNAL_APPEND,
            FaultAction::Panic("killed mid-append".into()),
            Trigger::Times(1),
        );
        let edit = draw_edit(&mut rng, store.engine(), &mut pool);
        let killed = cardir_faults::with_silent_panics(|| {
            catch_unwind(AssertUnwindSafe(|| store.apply(edit.clone(), &policy)))
        });
        drop(kill_guard);
        if killed.is_ok() {
            return fail("edits-kill-append", "injected kill did not fire".to_string());
        }
        // "Process death": the poisoned store is abandoned, not synced.
        drop(store);
        let mut store = RelationStore::open(&path, &base, opts);
        match store.replay_report().source {
            ReplaySource::Journal | ReplaySource::TruncatedJournal { .. } => {}
            ref other => {
                return fail(
                    "edits-kill-append",
                    format!("journal unusable after kill mid-append: {other:?}"),
                )
            }
        }
        let after = match store.engine().materialize() {
            Ok(m) => m,
            Err(e) => return fail("edits-kill-append", format!("replayed state: {e}")),
        };
        if after != pre_kill {
            return fail(
                "edits-kill-append",
                format!(
                    "replay after kill mid-append lost more than the in-flight record \
                     ({} vs {} pairs or content)",
                    after.len(),
                    pre_kill.len()
                ),
            );
        }
        if let Some(diff) = diff_vs_full(store.engine(), "after kill mid-append") {
            return fail("edits-kill-append", diff);
        }

        // --- Kill mid-compaction (write or rename, seed-chosen) ---
        let site = if rng.random_bool(0.5) {
            sites::JOURNAL_COMPACT_WRITE
        } else {
            sites::JOURNAL_COMPACT_RENAME
        };
        let kill_guard = cardir_faults::arm(
            site,
            FaultAction::Panic("killed mid-compaction".into()),
            Trigger::Times(1),
        );
        let killed = cardir_faults::with_silent_panics(|| {
            catch_unwind(AssertUnwindSafe(|| store.compact()))
        });
        drop(kill_guard);
        if killed.is_ok() {
            return fail("edits-kill-compact", format!("injected kill at {site} did not fire"));
        }
        drop(store);
        let store = RelationStore::open(&path, &base, opts);
        match store.replay_report().source {
            ReplaySource::Journal | ReplaySource::TruncatedJournal { .. } => {}
            ref other => {
                return fail(
                    "edits-kill-compact",
                    format!("{site}: journal unusable after kill mid-compaction: {other:?}"),
                )
            }
        }
        let after = match store.engine().materialize() {
            Ok(m) => m,
            Err(e) => return fail("edits-kill-compact", format!("{site}: replayed state: {e}")),
        };
        if after != pre_kill {
            return fail(
                "edits-kill-compact",
                format!("{site}: compaction kill changed the durable state"),
            );
        }
        if let Some(diff) = diff_vs_full(store.engine(), "after kill mid-compaction") {
            return fail("edits-kill-compact", diff);
        }
        None
    })();
    cardir_faults::disarm_all();
    cleanup(&path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a seed's first scripted edits as a stable fingerprint:
    /// edit kind, slot, and the fresh geometry's MBB with f64 Debug
    /// (shortest-roundtrip) precision. An empty pool forces every fresh
    /// region through the single-region generator.
    fn script_fingerprint(seed: u64, steps: usize) -> String {
        use std::fmt::Write as _;
        let base = base_regions(seed);
        let mut engine = IncrementalEngine::bootstrap(
            EngineMode::Qualitative,
            1,
            base,
            &RunPolicy::default(),
        );
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_0001);
        let mut pool = Vec::new();
        let mut out = String::new();
        for _ in 0..steps {
            let edit = draw_edit(&mut rng, &engine, &mut pool);
            match &edit {
                Edit::Insert(r) => {
                    let m = r.mbb();
                    let _ = writeln!(
                        out,
                        "insert [{:?} {:?} {:?} {:?}]",
                        m.min.x, m.min.y, m.max.x, m.max.y
                    );
                }
                Edit::Remove(id) => {
                    let _ = writeln!(out, "remove {id}");
                }
                Edit::Replace(id, r) => {
                    let m = r.mbb();
                    let _ = writeln!(
                        out,
                        "replace {id} [{:?} {:?} {:?} {:?}]",
                        m.min.x, m.min.y, m.max.x, m.max.y
                    );
                }
            }
            engine.apply(edit).expect("edit applies");
        }
        out
    }

    /// Pins one known seed's edit script bit-for-bit. This is the replay
    /// stability contract of the single-region generator: swapping
    /// `random_map(rng, 1, ..)` for `random_region` must not shift the
    /// RNG stream, and neither may future changes to `random_map`'s grid
    /// layout — only a deliberate, fingerprint-updating change to the
    /// per-cell draw sequence itself may touch this.
    #[test]
    fn seed_3_edit_script_is_pinned() {
        let got = script_fingerprint(3, 6);
        let want = "\
replace 2 [101.53373945880826 88.30713908396274 268.9071706013763 289.0953795156669]
insert [99.5150365920495 47.06583702666052 277.90170379762606 204.98375084926755]
replace 2 [145.02061955086188 36.2084131201979 297.06837589751854 232.22006302378313]
replace 2 [141.24899277022732 21.057109541974697 275.2186841995124 202.09039762131323]
replace 0 [58.716277854984554 65.54778868516483 250.6792211308039 237.90699590244543]
insert [114.7669569005181 74.4080779232087 294.53730427286075 246.70327984585077]
";
        assert_eq!(got, want, "seed-3 edit script shifted:\n{got}");
    }
}

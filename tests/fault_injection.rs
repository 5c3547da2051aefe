//! Fault-injection sweep over the resilient batch pipeline: failpoint
//! sites × actions (panic | error | latency) × thread counts, plus the
//! policy features (retries, deadlines, cancellation) and the metrics
//! plumbing. The runs hand the engine every ordered pair as an explicit
//! list, so every pair is a work item the failpoints can reach;
//! survivors are checked against the naive `compute_cdr` /
//! `compute_cdr_pct` results. The join's own fault semantics (only the
//! exact subset is work) are pinned in `join_cross_validation.rs`.
//!
//! Failpoints are process-global; every test that arms one (or that
//! depends on none being armed) holds `SERIAL`. This file is its own
//! test binary, so no other suite can race it.

use cardir::cardirect::Configuration;
use cardir::core::{compute_cdr, compute_cdr_pct};
use cardir::engine::{
    BatchEngine, BatchOutcome, CancelToken, CompletionStatus, EngineMode, PairFailure,
    PairOutcome, PairRelation, RegionCache, RunPolicy,
};
use cardir::faults::{self, sites, FaultAction, Trigger};
use cardir::geometry::Region;
use cardir::telemetry::Registry;
use cardir::workloads::SplitMix64;
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

/// `n` random disjoint-ish rectangles, deterministic in `seed`.
fn random_regions(n: usize, seed: u64) -> Vec<Region> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x0 = (rng.next_u64() % 1000) as f64 / 10.0;
            let y0 = (rng.next_u64() % 1000) as f64 / 10.0;
            let w = 1.0 + (rng.next_u64() % 50) as f64 / 10.0;
            let h = 1.0 + (rng.next_u64() % 50) as f64 / 10.0;
            rect(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

/// Every ordered pair `(i, j)`, `i ≠ j`, in primary-major order.
fn every_pair(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect()
}

/// Runs every ordered pair of `cache` as an explicit list.
fn run_every_pair(
    cache: &RegionCache<'_>,
    mode: EngineMode,
    threads: usize,
    policy: &RunPolicy,
) -> BatchOutcome {
    BatchEngine::new()
        .with_mode(mode)
        .with_threads(threads)
        .run_pairs(cache, &every_pair(cache.len()), policy)
        .expect("indices are in range")
}

/// A quantitative pair must match the naive algorithms bit for bit.
fn assert_naive(pr: &PairRelation, regions: &[Region], context: &str) {
    let (a, b) = (&regions[pr.primary], &regions[pr.reference]);
    assert_eq!(pr.relation, compute_cdr(a, b), "{context}: ({}, {})", pr.primary, pr.reference);
    assert_eq!(
        pr.percentages,
        Some(compute_cdr_pct(a, b)),
        "{context}: ({}, {})",
        pr.primary,
        pr.reference
    );
}

#[test]
fn default_policy_join_is_bit_identical_to_naive() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(12, 11);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    for threads in [1usize, 2, 4] {
        let outcome = BatchEngine::new()
            .with_mode(EngineMode::Quantitative)
            .with_threads(threads)
            .run_join(&cache, &RunPolicy::default())
            .materialize(&cache);

        assert_eq!(outcome.status, CompletionStatus::Complete);
        assert!(outcome.is_complete());
        assert_eq!(outcome.succeeded, total);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.skipped, 0);
        assert!(outcome.metrics.faults.is_clean());
        let relations: Vec<_> = outcome.relations().collect();
        assert_eq!(relations.len(), total);
        for (got, (i, j)) in relations.iter().zip(every_pair(regions.len())) {
            assert_eq!((got.primary, got.reference), (i, j), "threads={threads}");
            assert_naive(got, &regions, &format!("threads={threads}"));
        }
    }
}

#[test]
fn site_sweep_accounting_closes_for_every_action_and_thread_count() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(10, 23);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let actions = [
        FaultAction::Panic("sweep".into()),
        FaultAction::Error("sweep".into()),
        FaultAction::Delay(Duration::from_micros(50)),
    ];
    for action in &actions {
        for threads in [1usize, 2, 4] {
            let guard = faults::arm(
                sites::ENGINE_PAIR_COMPUTE,
                action.clone(),
                Trigger::Probability { num: 1, den: 5, seed: 0xFEED ^ threads as u64 },
            );
            let outcome = faults::with_silent_panics(|| {
                run_every_pair(&cache, EngineMode::Quantitative, threads, &RunPolicy::default())
            });
            drop(guard);

            assert_eq!(
                outcome.succeeded + outcome.failed + outcome.skipped,
                total,
                "{action:?} threads={threads}: accounting must close"
            );
            assert_eq!(outcome.skipped, 0, "no deadline or cancel was set");
            assert_eq!(outcome.pairs.len(), total);
            // Latency never fails a pair; panic/error may.
            if matches!(action, FaultAction::Delay(_)) {
                assert_eq!(outcome.failed, 0, "latency must not fail pairs");
                assert_eq!(outcome.status, CompletionStatus::Complete);
            }
            // Every surviving pair is bit-identical to the naive result.
            for pr in outcome.relations() {
                assert_naive(pr, &regions, &format!("{action:?} threads={threads}"));
            }
        }
    }
}

/// Satellite regression: one poisoned pair must not take down the worker
/// scope — all other results still come back, exactly once.
#[test]
fn one_poisoned_pair_still_yields_all_other_results() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(8, 5);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);
    let pairs = every_pair(regions.len());

    for threads in [1usize, 4] {
        // Exactly the 11th pair computation panics.
        let guard = faults::arm(
            sites::ENGINE_PAIR_COMPUTE,
            FaultAction::Panic("poisoned pair".into()),
            Trigger::Nth(11),
        );
        let outcome = faults::with_silent_panics(|| {
            run_every_pair(&cache, EngineMode::Quantitative, threads, &RunPolicy::default())
        });
        drop(guard);

        assert_eq!(outcome.status, CompletionStatus::PartialPanics, "threads={threads}");
        assert_eq!(outcome.failed, 1, "threads={threads}: exactly one PairError");
        assert_eq!(outcome.succeeded, total - 1);
        assert_eq!(outcome.metrics.faults.panics_caught, 1);
        let failures: Vec<_> = outcome.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(matches!(failures[0].failure, PairFailure::Panicked(_)));
        assert!(failures[0].to_string().contains("poisoned pair"), "{}", failures[0]);
        // The N−1 others are correct and in their slots.
        for (got, &want) in outcome.pairs.iter().zip(&pairs) {
            assert_eq!(got.indices(), want);
            match got {
                PairOutcome::Ok(pr) => assert_naive(pr, &regions, &format!("threads={threads}")),
                PairOutcome::Failed(_) => {}
                PairOutcome::Skipped { .. } => panic!("nothing may be skipped"),
            }
        }
    }
}

/// `Configuration::compute_all_relations` promises a relation for every
/// pair, so it re-raises a pair failure — but only after the whole batch
/// has run (the scope no longer aborts mid-flight).
#[test]
fn compute_all_relations_rethrows_an_injected_panic() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    // Overlapping boxes, so the join has exact work for the failpoint.
    let mut config = Configuration::new("rethrow", "rethrow.png");
    for (k, region) in
        [rect(0.0, 0.0, 4.0, 4.0), rect(2.0, 2.0, 6.0, 6.0), rect(1.0, 3.0, 5.0, 7.0)].into_iter().enumerate()
    {
        config.add_region(format!("r{k}"), format!("r{k}"), "red", region).unwrap();
    }
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("legacy".into()),
        Trigger::Nth(3),
    );
    let result = faults::with_silent_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| config.compute_all_relations()))
    });
    drop(guard);
    let message = faults::panic_message(result.expect_err("the failure must re-raise"));
    assert!(message.contains("failed after"), "{message}");
}

#[test]
fn transient_failures_recover_with_retries() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(4, 3);
    let cache = RegionCache::build(&regions);

    // The first two attempts anywhere fail; with two retries the first
    // pair consumes them and everything completes.
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("transient".into()),
        Trigger::Times(2),
    );
    let outcome = run_every_pair(
        &cache,
        EngineMode::Qualitative,
        1,
        &RunPolicy::default().with_retries(2).with_backoff(Duration::ZERO),
    );
    drop(guard);

    assert_eq!(outcome.status, CompletionStatus::Complete);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.metrics.faults.retries, 2);
    assert_eq!(outcome.metrics.faults.injected_failures, 2);
}

#[test]
fn retry_exhaustion_reports_the_attempt_count() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(3, 9);
    let cache = RegionCache::build(&regions);

    // A single-pair run where every attempt fails: true exhaustion.
    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Error("permanent".into()),
        Trigger::Always,
    );
    let outcome = BatchEngine::new()
        .with_threads(1)
        .run_pairs(
            &cache,
            &[(0, 1)],
            &RunPolicy::default().with_retries(3).with_backoff(Duration::ZERO),
        )
        .unwrap();
    drop(guard);

    assert_eq!(outcome.failed, 1);
    let failure = outcome.failures().next().unwrap();
    assert_eq!(failure.attempts, 4, "1 initial + 3 retries");
    assert!(matches!(failure.failure, PairFailure::Injected(_)));
}

#[test]
fn zero_deadline_skips_everything() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(8, 13);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let outcome = run_every_pair(
        &cache,
        EngineMode::Qualitative,
        2,
        &RunPolicy::default().with_deadline(Duration::ZERO),
    );

    assert_eq!(outcome.status, CompletionStatus::DeadlineExceeded);
    assert_eq!(outcome.skipped, total);
    assert_eq!(outcome.succeeded, 0);
    assert!(outcome.metrics.faults.deadline_hits > 0);
    // Every slot still names its pair.
    assert_eq!(outcome.pairs.len(), total);
    for pair in &outcome.pairs {
        assert!(matches!(pair, PairOutcome::Skipped { .. }));
    }
}

#[test]
fn mid_run_deadline_completes_some_chunks_and_skips_the_rest() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    // 30 regions → 870 pairs → 4 chunks of ≤256 on one thread.
    let regions = random_regions(30, 17);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    // Each chunk claim stalls 30 ms; the 50 ms deadline lets roughly one
    // or two chunks through, never all four.
    let guard = faults::arm(
        sites::ENGINE_CHUNK_CLAIM,
        FaultAction::Delay(Duration::from_millis(30)),
        Trigger::Always,
    );
    let outcome = run_every_pair(
        &cache,
        EngineMode::Quantitative,
        1,
        &RunPolicy::default().with_deadline(Duration::from_millis(50)),
    );
    drop(guard);

    assert_eq!(outcome.status, CompletionStatus::DeadlineExceeded);
    assert!(outcome.skipped > 0, "some chunks must miss the deadline");
    assert!(outcome.succeeded > 0, "the first chunk fits in the deadline");
    assert_eq!(outcome.succeeded + outcome.skipped, total);
    // Completed work is contiguous from the front (chunk order on one
    // thread), and all of it is correct.
    let done = outcome.pairs.iter().take_while(|p| p.ok().is_some()).count();
    assert_eq!(done, outcome.succeeded, "completed work is a prefix");
    for pr in outcome.relations() {
        assert_naive(pr, &regions, "mid-run deadline");
    }
}

#[test]
fn pre_cancelled_token_skips_everything() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(6, 19);
    let cache = RegionCache::build(&regions);
    let total = regions.len() * (regions.len() - 1);

    let token = CancelToken::new();
    token.cancel();
    let outcome = run_every_pair(
        &cache,
        EngineMode::Qualitative,
        4,
        &RunPolicy::default().with_cancel(token),
    );

    assert_eq!(outcome.status, CompletionStatus::Cancelled);
    assert_eq!(outcome.skipped, total);
    assert!(outcome.metrics.faults.cancel_hits > 0);
}

#[test]
fn cache_build_failpoint_panics_are_isolated_by_caller() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(5, 29);
    let guard = faults::arm(
        sites::ENGINE_CACHE_INSERT,
        FaultAction::Panic("corrupt geometry".into()),
        Trigger::Nth(3),
    );
    let result = faults::with_silent_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| RegionCache::build(&regions)))
    });
    drop(guard);
    let message = faults::panic_message(result.expect_err("the cache build must panic"));
    assert!(message.contains("corrupt geometry"), "{message}");

    // Disarmed, the same build succeeds.
    assert_eq!(RegionCache::build(&regions).len(), 5);
}

#[test]
fn fault_events_flow_into_telemetry() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    let regions = random_regions(8, 31);
    let cache = RegionCache::build(&regions);

    let guard = faults::arm(
        sites::ENGINE_PAIR_COMPUTE,
        FaultAction::Panic("telemetry".into()),
        Trigger::Nth(5),
    );
    let outcome = faults::with_silent_panics(|| {
        run_every_pair(&cache, EngineMode::Qualitative, 2, &RunPolicy::default())
    });
    drop(guard);
    assert_eq!(outcome.failed, 1);

    let registry = Registry::new();
    outcome.metrics.export(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.faults.panics_caught"), Some(1));
    assert_eq!(snap.counter("engine.faults.failed_pairs"), Some(1));
    // The failpoint registry's own counters export too (delta-based, so
    // at least this run's injected panic is present).
    assert!(snap.counter("faults.injected_panics").unwrap_or(0) >= 1);
}

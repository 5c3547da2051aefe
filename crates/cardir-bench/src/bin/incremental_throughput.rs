//! Incremental-engine throughput: what one edit costs when the relation
//! set is maintained as a delta instead of recomputed from scratch.
//!
//! For each N the bench builds the standard jittered-grid star-region
//! map, bootstraps a journaled [`RelationStore`], and applies K random
//! single-region `Replace` edits (seeded translations that keep the
//! region inside the extent). Reported per N:
//!
//! * the invalidation ratio — ordered pairs invalidated per edit over
//!   the N·(N−1) pair space (the `< 5%` claim at N = 10 000),
//! * mean edit latency and edits/sec through the full store (engine
//!   recompute + durable journal append),
//! * the measured speedup of one edit over a fresh full spatial-join
//!   recompute of the same map,
//! * the cost of taking an engine snapshot after the edits (median of
//!   repeated calls) — what a server pays to publish each edit,
//! * journal traffic (bytes, compactions) and the crash-replay cost:
//!   the store is dropped and reopened, timing the journal replay that
//!   restores the full relation set without recomputing geometry, split
//!   into record decoding and the engine install of the decoded records.
//!
//! Usage: `incremental_throughput [N ...] [--edits K] [--json PATH]`.
//! Default sweep: N ∈ {1000, 10000}, K = 50. `--json` writes one
//! JSON-lines record per N with `"type": "incremental"` (the
//! `incremental.*` fields CI gates on via `json_check --require` and
//! `bench_diff`).

use cardir_bench::SEED;
use cardir_cardirect::{RelationStore, StoreOptions};
use cardir_engine::{BatchEngine, Edit, EngineMode, RegionCache, RunPolicy};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_telemetry::{Json, JsonLines};
use cardir_workloads::{random_map, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

/// Timed `snapshot()` calls per N.
const SNAPSHOTS: usize = 101;

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn main() {
    let mut sizes: Vec<usize> = Vec::new();
    let mut edits: usize = 50;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }));
        } else if arg == "--edits" {
            edits = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--edits requires a count");
                std::process::exit(2);
            });
        } else if let Ok(v) = arg.parse() {
            sizes.push(v);
        } else {
            eprintln!("usage: incremental_throughput [N ...] [--edits K] [--json PATH]");
            std::process::exit(2);
        }
    }
    if sizes.is_empty() {
        sizes = vec![1_000, 10_000];
    }

    let mut sink = json_path.as_deref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        JsonLines::new(std::io::BufWriter::new(file))
    });

    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 3000.0));
    let journal_path = std::env::temp_dir().join(format!(
        "cardir-bench-incremental-{}.cdj",
        std::process::id()
    ));

    for &n in &sizes {
        let mut rng = SplitMix64::seed_from_u64(SEED);
        let regions: Vec<Region> = random_map(&mut rng, n, extent)
            .into_iter()
            .map(|m| m.region)
            .collect();
        let total = n * (n - 1);
        println!("\n== N = {n} ({total} ordered pairs; {edits} edits) ==");

        // Fresh-journal bootstrap: one full spatial join, then the
        // initial snapshot compaction.
        let _ = std::fs::remove_file(&journal_path);
        let opts = StoreOptions {
            mode: EngineMode::Qualitative,
            threads: 1,
            ..StoreOptions::default()
        };
        let start = Instant::now();
        let mut store = RelationStore::open(&journal_path, &regions, opts.clone());
        let bootstrap = start.elapsed();
        assert!(store.journal_healthy(), "bootstrap journal must land");
        println!(
            "bootstrap: {bootstrap:.2?} ({} exact pairs stored, journal {} bytes)",
            store.engine().exact_count(),
            store.journal_bytes()
        );

        // Full-recompute baseline on the same map: the cost an edit
        // would pay without the incremental layer (a full join, same
        // mode and threads; warm best-of-2).
        let cache = RegionCache::build(&regions);
        let batch = BatchEngine::new()
            .with_mode(opts.mode)
            .with_threads(opts.threads);
        let full_recompute = (0..2)
            .map(|_| {
                let start = Instant::now();
                black_box(batch.run_join(&cache, &RunPolicy::default()));
                start.elapsed()
            })
            .min()
            .expect("two runs");

        // K seeded single-region edits: translate a random live region
        // by a small seeded offset, clamped into the extent.
        let policy = RunPolicy::default();
        let stats_before = store.engine().stats();
        let start = Instant::now();
        for _ in 0..edits {
            let live: Vec<u32> = store.engine().live_regions().map(|(id, _)| id).collect();
            let victim = live[rng.random_range(0..live.len() as u64) as usize];
            let region = store.engine().region(victim).expect("victim is live");
            let mbb = region.mbb();
            let dx = (rng.next_f64() - 0.5) * 100.0;
            let dy = (rng.next_f64() - 0.5) * 100.0;
            let dx = dx.clamp(extent.min.x - mbb.min.x, extent.max.x - mbb.max.x);
            let dy = dy.clamp(extent.min.y - mbb.min.y, extent.max.y - mbb.max.y);
            let replacement = region.translated(dx, dy);
            store
                .apply(Edit::Replace(victim, replacement), &policy)
                .expect("edit applies");
        }
        let edit_elapsed = start.elapsed();
        let stats = store.engine().stats();
        let pairs_invalidated = stats.pairs_invalidated - stats_before.pairs_invalidated;
        let pairs_recomputed = stats.pairs_recomputed - stats_before.pairs_recomputed;
        let invalidated_ratio = pairs_invalidated as f64 / (edits as f64 * total as f64);
        let avg_edit_ns = ns(edit_elapsed) / edits.max(1) as u64;
        let edits_per_sec = edits as f64 / edit_elapsed.as_secs_f64();
        let speedup_vs_full = ns(full_recompute) as f64 / avg_edit_ns.max(1) as f64;
        println!(
            "edits: {edits} in {edit_elapsed:.2?} ({edits_per_sec:.0} edits/sec, avg {avg_edit_ns} ns)"
        );
        println!(
            "       invalidated {pairs_invalidated} pairs ({:.3}% of the pair space per edit), \
             recomputed {pairs_recomputed}",
            100.0 * invalidated_ratio
        );
        println!(
            "full recompute baseline: {full_recompute:.2?} → one edit is {speedup_vs_full:.0}x faster"
        );

        // Snapshot cost on the post-edit state: the median of repeated
        // `snapshot()` calls, each dropped before the next is timed.
        let mut snapshot_ns: Vec<u64> = (0..SNAPSHOTS)
            .map(|_| {
                let start = Instant::now();
                let snapshot = black_box(store.engine().snapshot());
                let elapsed = ns(start.elapsed());
                drop(snapshot);
                elapsed
            })
            .collect();
        snapshot_ns.sort_unstable();
        let snapshot_ns = snapshot_ns[SNAPSHOTS / 2];
        println!("snapshot: {snapshot_ns} ns (median of {SNAPSHOTS})");

        let journal_bytes = store.journal_bytes();
        let compactions = store.stats().compactions;
        let appends = store.stats().appends;

        // Crash-replay cost: drop the store cold and reopen — the whole
        // relation set must come back from the journal, no geometry
        // recomputed.
        let final_exact = store.engine().exact_count();
        drop(store);
        let start = Instant::now();
        let reopened = RelationStore::open(&journal_path, &regions, opts.clone());
        let replay_elapsed = start.elapsed();
        let report = reopened.replay_report();
        let replay = report.source.label().to_string();
        assert_eq!(
            reopened.engine().exact_count(),
            final_exact,
            "replay must restore the full relation set"
        );
        println!(
            "journal: {journal_bytes} bytes, {appends} appends, {compactions} compactions; \
             replay ({replay}) in {replay_elapsed:.2?} (decode {:.2?}, install {:.2?})",
            report.decode, report.install
        );

        if let Some(sink) = &mut sink {
            sink.emit(
                "incremental",
                Json::obj([
                    ("regions", Json::from(n)),
                    ("total_pairs", Json::from(total)),
                    ("edits", Json::from(edits)),
                    ("mode", Json::from("qualitative")),
                    ("threads", Json::from(opts.threads)),
                    ("seed", Json::from(SEED)),
                    ("bootstrap_ns", Json::from(ns(bootstrap))),
                    ("pairs_invalidated", Json::from(pairs_invalidated)),
                    ("invalidated_ratio", Json::from(invalidated_ratio)),
                    ("pairs_recomputed", Json::from(pairs_recomputed)),
                    ("exact_stored", Json::from(final_exact)),
                    ("avg_edit_ns", Json::from(avg_edit_ns)),
                    ("edits_per_sec", Json::from(edits_per_sec)),
                    ("full_recompute_ns", Json::from(ns(full_recompute))),
                    ("speedup_vs_full", Json::from(speedup_vs_full)),
                    ("snapshot_ns", Json::from(snapshot_ns)),
                    ("journal_bytes", Json::from(journal_bytes)),
                    ("journal_appends", Json::from(appends)),
                    ("compactions", Json::from(compactions)),
                    ("replay", Json::from(replay.as_str())),
                    ("replay_ns", Json::from(ns(replay_elapsed))),
                    ("replay_decode_ns", Json::from(ns(report.decode))),
                    ("replay_install_ns", Json::from(ns(report.install))),
                ]),
            )
            .expect("write JSON line");
        }
    }
    let _ = std::fs::remove_file(&journal_path);

    if let Some(sink) = &mut sink {
        sink.flush().expect("flush JSON sink");
        println!("\nwrote {}", json_path.as_deref().unwrap_or_default());
    }
}

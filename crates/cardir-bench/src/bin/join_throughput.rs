//! Spatial-join throughput: relations/sec over maps of N regions when the
//! pair space is partitioned by the MBB sweep instead of enumerated.
//!
//! For each N the bench builds the standard jittered-grid star-region
//! map, runs [`BatchEngine::run_join`] (qualitative, default threads),
//! and reports the partition: `join.candidates` sweep contacts,
//! `join.mask_emitted` pairs answered without ever becoming work items,
//! and `join.exact_pairs` routed through the exact pipeline. Memory is
//! bounded by the interacting set — the N·(N−1) mask-emitted relations
//! are counted, not materialised — which is what lets N = 100 000
//! (≈ 10¹⁰ ordered pairs) complete at all.
//!
//! For N up to `--compare-max` (default 1 000) the naive all-pairs loop —
//! `compute_cdr` on every ordered pair, the paper's algorithm verbatim —
//! runs on the same map as the baseline, so the emitted record carries
//! the measured speedup of the join over pair enumeration.
//!
//! Usage: `join_throughput [N ...] [--json PATH] [--compare-max M]
//! [--trace PATH]`. Default sweep: N ∈ {1000, 10000, 100000}. `--json`
//! writes one JSON-lines record per N with `"type": "join"` (the
//! `join.*` telemetry fields CI gates on via `json_check --require`),
//! including `unattributed_ns`: the join's wall time outside its
//! `discover_ns` and `exact_pass_ns` phases.
//! `--trace` records each N's execution timeline (sweep discovery plus
//! the exact pass's per-worker tracks) in Chrome `trace_event` format.

use cardir_bench::SEED;
use cardir_core::compute_cdr;
use cardir_engine::{BatchEngine, EngineMode, RegionCache, RunPolicy};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_telemetry::{ChromeTrace, Json, JsonLines, Tracer};
use cardir_workloads::{random_map, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn main() {
    let mut sizes: Vec<usize> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut compare_max: usize = 1_000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }));
        } else if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--trace requires a path");
                std::process::exit(2);
            }));
        } else if arg == "--compare-max" {
            compare_max = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--compare-max requires a count");
                std::process::exit(2);
            });
        } else if let Ok(v) = arg.parse() {
            sizes.push(v);
        } else {
            eprintln!(
                "usage: join_throughput [N ...] [--json PATH] [--compare-max M] [--trace PATH]"
            );
            std::process::exit(2);
        }
    }
    if sizes.is_empty() {
        sizes = vec![1_000, 10_000, 100_000];
    }
    let mut chrome = trace_path.is_some().then(ChromeTrace::new);

    let mut sink = json_path.as_deref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        JsonLines::new(std::io::BufWriter::new(file))
    });

    for &n in &sizes {
        let mut rng = SplitMix64::seed_from_u64(SEED);
        let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 3000.0));
        let regions: Vec<Region> = random_map(&mut rng, n, extent)
            .into_iter()
            .map(|m| m.region)
            .collect();
        let build_start = Instant::now();
        let cache = RegionCache::build(&regions);
        let build = build_start.elapsed();
        let total = n * (n - 1);
        println!("\n== N = {n} ({total} ordered pairs; cache build {build:.2?}) ==");
        if let Some(sink) = &mut sink {
            sink.emit(
                "map",
                Json::obj([
                    ("regions", Json::from(cache.len())),
                    ("edges", Json::from(cache.total_edges())),
                    ("cache_build_ns", Json::from(ns(build))),
                    ("seed", Json::from(SEED)),
                ]),
            )
            .expect("write JSON line");
        }

        let tracer = if chrome.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let engine = BatchEngine::new()
            .with_mode(EngineMode::Qualitative)
            .with_tracer(tracer.clone());
        let start = Instant::now();
        let outcome = black_box(engine.run_join(&cache, &RunPolicy::default()));
        let elapsed = start.elapsed();
        if let Some(chrome) = &mut chrome {
            chrome.add_process(&format!("join N={n}"), &tracer);
        }
        assert!(outcome.status == cardir_engine::CompletionStatus::Complete);
        let join = &outcome.stats;
        // The part of the join's wall time outside its two timed phases.
        let unattributed = elapsed.saturating_sub(join.discover + join.exact_pass);
        let relations_per_sec = total as f64 / elapsed.as_secs_f64();
        println!("join: {total} relations in {elapsed:.2?} ({relations_per_sec:.0} relations/sec)");
        println!(
            "      candidates {}, mask-emitted {} ({:.2}%), exact {} (pairs materialized: {})",
            join.candidates,
            join.mask_emitted,
            100.0 * join.mask_emitted as f64 / total as f64,
            join.exact_pairs,
            outcome.interacting.len(),
        );

        // Baseline: the naive double loop on the same map, capped because
        // it is quadratic in N.
        let baseline = (n <= compare_max).then(|| {
            let start = Instant::now();
            let mut relations = 0usize;
            for (i, a) in regions.iter().enumerate() {
                for (j, b) in regions.iter().enumerate() {
                    if i != j {
                        black_box(compute_cdr(a, b));
                        relations += 1;
                    }
                }
            }
            let elapsed_all = start.elapsed();
            assert_eq!(relations, total);
            let speedup = elapsed_all.as_secs_f64() / elapsed.as_secs_f64();
            println!(
                "naive all-pairs baseline: {total} relations in {elapsed_all:.2?} (join speedup {speedup:.2}x)"
            );
            (elapsed_all, speedup)
        });

        if let Some(sink) = &mut sink {
            let mut fields = vec![
                ("regions", Json::from(n)),
                ("total_pairs", Json::from(total)),
                ("candidates", Json::from(join.candidates)),
                ("mask_emitted", Json::from(join.mask_emitted)),
                ("exact_pairs", Json::from(join.exact_pairs)),
                ("pairs_materialized", Json::from(outcome.interacting.len())),
                ("elapsed_ns", Json::from(ns(elapsed))),
                ("relations_per_sec", Json::from(relations_per_sec)),
                ("discover_ns", Json::from(ns(join.discover))),
                ("exact_pass_ns", Json::from(ns(join.exact_pass))),
                ("unattributed_ns", Json::from(ns(unattributed))),
                ("threads", Json::from(join.per_thread_pairs.len())),
                ("fused_pairs", Json::from(join.fused_pairs)),
            ];
            if let Some((elapsed_all, speedup)) = baseline {
                fields.push(("allpairs_elapsed_ns", Json::from(ns(elapsed_all))));
                fields.push(("speedup_vs_allpairs", Json::from(speedup)));
            }
            sink.emit("join", Json::obj(fields))
                .expect("write JSON line");
        }
    }

    if let Some(sink) = &mut sink {
        sink.flush().expect("flush JSON sink");
        println!("\nwrote {}", json_path.as_deref().unwrap_or_default());
    }

    if let (Some(chrome), Some(path)) = (&chrome, trace_path.as_deref()) {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }));
        chrome.write_to(&mut file).expect("write trace");
        println!(
            "wrote {path} ({} traced processes; open in Perfetto or run trace_report)",
            chrome.processes.len()
        );
    }
}

//! E4/E5 — Theorems 1 and 2: both algorithms are linear in the total
//! edge count. Prints ns/edge across a doubling sweep; linearity shows
//! as a flat column. The clipping baseline is included for reference.
//!
//! Run with: `cargo run --release -p cardir-bench --bin thm_scaling`
//! Pass `--json PATH` to additionally write one JSON-lines record per
//! sweep point (plus a summary line) for regression tracking.

use cardir_bench::{calibrate_iters, scaling_pair, time_mean, SEED};
use cardir_core::{clipping_cdr, compute_cdr, compute_cdr_pct};
use cardir_telemetry::{Json, JsonLines};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }));
        } else {
            eprintln!("usage: thm_scaling [--json PATH]");
            std::process::exit(2);
        }
    }
    let mut sink = json_path.as_deref().map(|path| {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        JsonLines::new(std::io::BufWriter::new(file))
    });

    println!("E4/E5 — linear-time scaling (Theorems 1 and 2)\n");
    println!(
        "| {:>8} | {:>14} | {:>10} | {:>14} | {:>10} | {:>14} | {:>10} |",
        "edges", "CDR", "ns/edge", "CDR%", "ns/edge", "clipping", "ns/edge"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(10),
        "-".repeat(16),
        "-".repeat(12),
        "-".repeat(16),
        "-".repeat(12),
        "-".repeat(16),
        "-".repeat(12)
    );

    let mut per_edge_first = None;
    let mut per_edge_last = None;
    for edges in cardir_workloads::sweep::doubling(64, 65536) {
        let (a, b) = scaling_pair(edges, SEED);
        let target = Duration::from_millis(20);

        let iters = calibrate_iters(target, || {
            black_box(compute_cdr(black_box(&a), black_box(&b)));
        });
        let t_cdr = time_mean(iters, || {
            black_box(compute_cdr(black_box(&a), black_box(&b)));
        });

        let iters = calibrate_iters(target, || {
            black_box(compute_cdr_pct(black_box(&a), black_box(&b)));
        });
        let t_pct = time_mean(iters, || {
            black_box(compute_cdr_pct(black_box(&a), black_box(&b)));
        });

        let iters = calibrate_iters(target, || {
            black_box(clipping_cdr(black_box(&a), black_box(&b)));
        });
        let t_clip = time_mean(iters, || {
            black_box(clipping_cdr(black_box(&a), black_box(&b)));
        });

        let per_edge = |d: Duration| d.as_nanos() as f64 / edges as f64;
        println!(
            "| {:>8} | {:>14.2?} | {:>10.2} | {:>14.2?} | {:>10.2} | {:>14.2?} | {:>10.2} |",
            edges,
            t_cdr,
            per_edge(t_cdr),
            t_pct,
            per_edge(t_pct),
            t_clip,
            per_edge(t_clip),
        );
        if let Some(sink) = &mut sink {
            sink.emit(
                "scaling_point",
                Json::obj([
                    ("edges", Json::from(edges)),
                    (
                        "cdr_ns",
                        Json::from(t_cdr.as_nanos().min(u64::MAX as u128) as u64),
                    ),
                    ("cdr_ns_per_edge", Json::from(per_edge(t_cdr))),
                    (
                        "pct_ns",
                        Json::from(t_pct.as_nanos().min(u64::MAX as u128) as u64),
                    ),
                    ("pct_ns_per_edge", Json::from(per_edge(t_pct))),
                    (
                        "clipping_ns",
                        Json::from(t_clip.as_nanos().min(u64::MAX as u128) as u64),
                    ),
                    ("clipping_ns_per_edge", Json::from(per_edge(t_clip))),
                ]),
            )
            .expect("write JSON line");
        }
        if per_edge_first.is_none() {
            per_edge_first = Some(per_edge(t_cdr));
        }
        per_edge_last = Some(per_edge(t_cdr));
    }

    let (first, last) = (per_edge_first.unwrap(), per_edge_last.unwrap());
    println!(
        "\nCompute-CDR ns/edge drift across the sweep: {:.2} → {:.2} (ratio {:.2}; \
         ≈1 confirms linear time)",
        first,
        last,
        last / first
    );
    if let Some(sink) = &mut sink {
        sink.emit(
            "scaling_summary",
            Json::obj([
                ("seed", Json::from(SEED)),
                ("cdr_ns_per_edge_first", Json::from(first)),
                ("cdr_ns_per_edge_last", Json::from(last)),
                ("drift_ratio", Json::from(last / first)),
            ]),
        )
        .expect("write JSON line");
        sink.flush().expect("flush JSON sink");
        println!("wrote {}", json_path.as_deref().unwrap_or_default());
    }
}

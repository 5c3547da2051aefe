//! Kernel throughput: ns per primary edge of the fused quantitative
//! kernel [`cdr_areas_from_soa`] — the bottom layer of the batch engine —
//! over star polygons of 8 to `MAX_EDGES` edges (default 16 384).
//!
//! For each edge count the primary is scanned against four reference
//! boxes, chosen so that 0, 1, 2 or all 4 of the reference's grid lines
//! lie strictly inside the primary's bounding box. Only those lines can
//! divide an edge, so the columns show what each crossing line costs.
//! In the 4-line case the reference centre lies inside the primary, so
//! that column also pays the exact centre test. The other three place
//! the centre outside the primary's box, which the kernel rejects
//! without any `orient2d` call. Each cell also reports `orient2d` calls
//! per pair, read from `robust::stats` around one untimed call.
//!
//! Usage: `kernel_throughput [MAX_EDGES] [--json PATH]`.
//! Each cell is the best of [`REPEAT`] calibrated means, after one
//! warm-up call. `--json` additionally writes one `kernel` JSON-lines
//! record per `(edges, lines)` cell through the `cardir-telemetry` sink.

use cardir_bench::{calibrate_iters, time_mean, SEED};
use cardir_core::{cdr_areas_from_soa, SoaStore};
use cardir_geometry::{robust, BoundingBox, Point, Region};
use cardir_telemetry::{Json, JsonLines};
use cardir_workloads::{star_polygon, SplitMix64};
use std::hint::black_box;
use std::time::Duration;

const USAGE: &str = "usage: kernel_throughput [MAX_EDGES] [--json PATH]";

/// Calibrated means timed per cell; the cell reports the fastest.
const REPEAT: usize = 3;

/// Grid lines of the reference box strictly inside the primary's box.
const LINE_COUNTS: [usize; 4] = [0, 1, 2, 4];

/// A reference box with exactly `lines` of its four lines strictly
/// inside `p` (the primary's box). The boxes with fewer than four lines
/// put their centre outside `p`.
fn reference_box(p: BoundingBox, lines: usize) -> BoundingBox {
    let c = p.center();
    let (w, h) = (p.width(), p.height());
    let (x0, y0) = match lines {
        0 => (p.max.x + w, p.max.y + h),
        1 => (c.x, p.max.y + h),
        2 => (c.x, c.y),
        _ => (c.x - w / 8.0, c.y - h / 8.0),
    };
    let (x1, y1) = match lines {
        4 => (c.x + w / 8.0, c.y + h / 8.0),
        _ => (x0 + 4.0 * w, y0 + 4.0 * h),
    };
    BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
}

fn main() {
    let mut max_edges: usize = 16_384;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a value\n{USAGE}");
                std::process::exit(2);
            }));
        } else if let Ok(v) = arg.parse() {
            max_edges = v;
        } else {
            eprintln!("{USAGE}");
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

    println!("cdr_areas_from_soa: ns/edge (orient2d calls per pair) by grid lines inside the primary's box");
    println!("| edges | 0 lines | 1 line | 2 lines | 4 lines |");
    println!("|---|---|---|---|---|");
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let mut edges = 8usize;
    while edges <= max_edges.max(8) {
        let primary = Region::single(star_polygon(&mut rng, Point::ORIGIN, 50.0, 100.0, edges));
        let mut store = SoaStore::new();
        store.push_region(&primary);
        let soa = store.view(0);
        let mut cells = Vec::with_capacity(LINE_COUNTS.len());
        for lines in LINE_COUNTS {
            let mbb = reference_box(primary.mbb(), lines);
            let before = robust::stats();
            black_box(cdr_areas_from_soa(&soa, mbb));
            let orient_calls = robust::stats().since(&before).orient_calls;
            let mut f = || {
                black_box(cdr_areas_from_soa(black_box(&soa), black_box(mbb)));
            };
            let iters = calibrate_iters(Duration::from_millis(20), &mut f);
            let best = (0..REPEAT)
                .map(|_| time_mean(iters, &mut f))
                .min()
                .expect("REPEAT >= 1");
            let ns_per_edge = best.as_nanos() as f64 / edges as f64;
            cells.push(format!("{ns_per_edge:.2} ({orient_calls})"));
            if let Some(sink) = &mut sink {
                sink.emit(
                    "kernel",
                    Json::obj([
                        ("edges", Json::from(edges)),
                        ("lines", Json::from(lines)),
                        ("ns_per_pair", Json::from(best.as_nanos() as f64)),
                        ("ns_per_edge", Json::from(ns_per_edge)),
                        ("orient_calls_per_pair", Json::from(orient_calls)),
                        ("iters", Json::from(iters)),
                    ]),
                )
                .expect("write JSON line");
            }
        }
        println!("| {edges} | {} |", cells.join(" | "));
        edges *= 2;
    }

    if let Some(sink) = &mut sink {
        sink.flush().expect("flush JSON sink");
        println!("\nwrote {}", json_path.as_deref().unwrap_or_default());
    }
}

//! `cdrbench`: the repository benchmark.
//!
//! ```text
//! cdrbench --workload <join-map|edit-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for
//! `--seconds`, checks every answer it times against an independent
//! oracle, and prints two JSON lines: the workload's own named figures,
//! then (last line) `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) listed in `BENCHMARK.json`. A traced run also writes
//! its spans to `cdrbench/out/trace-<workload>-<seed>.json`, readable by
//! `trace_report` and Perfetto. See `cdrbench/README.md`.

mod common;
mod edit_stream;
mod join_map;
mod layers;
mod read_query;
mod stats;

use cardir_telemetry::{ChromeTrace, Json, Tracer};
use stats::Tally;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "latency_ms_p50",
    "latency_ms_tail",
    "throughput_per_s",
    "second_path_ms",
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [&str; 35] = [
    "index.sweep_ms",
    "index.candidates",
    "index.interacting_ratio",
    "core.kernel_ms",
    "core.kernel_ns_per_edge",
    "core.edges_scanned",
    "geometry.exact_fallback_ratio",
    "engine.cache_build_ms",
    "engine.join_ms",
    "engine.join_overhead_ms",
    "engine.mask_emitted_ratio",
    "engine.cache_build_share_pct",
    "engine.edit_ms_p50",
    "engine.pairs_invalidated_per_edit",
    "engine.pairs_recomputed_per_edit",
    "engine.snapshot_ms_p50",
    "engine.relation_us",
    "journal.append_ms_p50",
    "journal.bytes_per_edit",
    "journal.compactions",
    "journal.bytes_per_pair",
    "journal.replay_ms",
    "session.apply_ms_p50",
    "session.publish_ms_p50",
    "session.publish_share_pct",
    "http.apply_ms_p50",
    "http.apply_overhead_ms_p50",
    "http.relation_overhead_us_p50",
    "query.fresh_epoch_ms_p50",
    "query.reused_epoch_ms_p50",
    "query.fresh_epoch_share",
    "loadgen.tracing_overhead_pct",
    "loadgen.tracing_overhead_tail_pct",
    "loadgen.tracing_overhead_throughput_pct",
    "trace.spans",
];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::F64(*value)), ("unit", Json::from(*unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// The e2e figures of one measured loop, as the overhead comparison
/// needs them.
pub struct LoopFigures {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub per_s: f64,
}

/// What recording spans costs each loop metric — `latency_ms_p50`,
/// `latency_ms_tail` and `throughput_per_s` — traced against untraced
/// iterations interleaved in the same loop, in percent (positive =
/// slower).
pub fn tracing_overhead(untraced: &LoopFigures, traced: &LoopFigures) -> Metrics {
    let pct = |off: f64, on: f64| 100.0 * (on - off) / off;
    let mut m = Metrics::default();
    m.push(
        "loadgen.tracing_overhead_pct",
        pct(untraced.p50_ms, traced.p50_ms),
        "%",
    );
    m.push(
        "loadgen.tracing_overhead_tail_pct",
        pct(untraced.tail_ms, traced.tail_ms),
        "%",
    );
    m.push(
        "loadgen.tracing_overhead_throughput_pct",
        -pct(untraced.per_s, traced.per_s),
        "%",
    );
    m
}

/// What a workload hands back: its tally, the metrics of this mode (at
/// least every name in [`END_TO_END`] or [`PER_LAYER`]), and its own
/// named figures.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub named: Metrics,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("cdrbench: {e}");
        eprintln!("usage: cdrbench --workload <join-map|edit-stream> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    // Buffers sized for the busiest lane of a traced run (~30k spans).
    let tracer = if args.trace {
        Tracer::with_capacity(1 << 17)
    } else {
        Tracer::disabled()
    };
    let result = match args.workload.as_str() {
        "join-map" => join_map::run(&args, &tracer),
        "edit-stream" => edit_stream::run(&args, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = result.unwrap_or_else(|e| {
        eprintln!("cdrbench: {}: {e}", args.workload);
        std::process::exit(1);
    });

    if args.trace {
        let mut trace = ChromeTrace::new();
        trace.add_process(&format!("{} seed={}", args.workload, args.seed), &tracer);
        let spans: usize = trace.processes.iter().map(|p| p.events.len()).sum();
        outcome.metrics.push("trace.spans", spans as f64, "count");
        let path = common::out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(common::out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut f| trace.write_to(&mut f));
        match written {
            Ok(()) => eprintln!("cdrbench: trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cdrbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // The last line carries exactly the listed metrics; anything else a
    // workload measured goes on the named line.
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut listed = Metrics::default();
    for name in expected {
        match outcome.metrics.0.iter().position(|(n, _, _)| n == name) {
            Some(i) => listed.0.push(outcome.metrics.0.remove(i)),
            None => {
                eprintln!("cdrbench: {} did not report {name}", args.workload);
                std::process::exit(1);
            }
        }
    }
    outcome.named.extend(outcome.metrics);
    for e in outcome.tally.errors() {
        eprintln!("cdrbench: FAILED: {e}");
    }
    let tally = &outcome.tally;
    let named = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::from(args.trace)),
        ("named", outcome.named.to_json()),
    ]);
    println!("{named}");
    let result = Json::obj([
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", listed.to_json()),
    ]);
    println!("{result}");
}

//! Compares two BENCH-format JSON-lines files with per-series regression
//! thresholds, for CI gating against the committed baselines.
//!
//! Usage:
//!   `bench_diff BASELINE NEW [--threshold X] [--metric TYPE.FIELD[:lower]]...
//!                            [--filter FIELD=VALUE]... [--key TYPE=F1,F2]...`
//!
//! Records are joined across the two files on per-type key fields
//! (defaults: `engine_cell` by `mode`+`threads`, `join` by `regions`).
//! The default tracked metric is `engine_cell.pairs_per_sec`
//! (higher-is-better); `--metric` replaces the default and may repeat.
//! Append `:lower` for metrics where smaller is better (`elapsed_ns`).
//! A baseline series missing from NEW fails — a vanished series is a
//! regression, not a skip. `--filter threads=1` restricts the gate to
//! matching baseline records (useful when the baseline machine had more
//! cores than CI). Exits 0 when every compared series stays within the
//! threshold, 1 otherwise.

use cardir_bench::diff::{run_diff, DiffConfig, MetricSpec};

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut metrics: Vec<MetricSpec> = Vec::new();
    let usage = "usage: bench_diff BASELINE NEW [--threshold X] [--metric TYPE.FIELD[:lower]]... [--filter FIELD=VALUE]... [--key TYPE=F1,F2]...";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_diff: {flag} requires a value\n{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--threshold" => {
                let raw = value_of("--threshold");
                cfg.threshold = raw.parse().unwrap_or_else(|_| {
                    eprintln!("bench_diff: --threshold expects a number, got {raw:?}");
                    std::process::exit(2);
                });
            }
            "--metric" => {
                let spec = value_of("--metric");
                metrics.push(MetricSpec::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bench_diff: {e}");
                    std::process::exit(2);
                }));
            }
            "--filter" => {
                let spec = value_of("--filter");
                match spec.split_once('=') {
                    Some((f, v)) if !f.is_empty() => {
                        cfg.filters.push((f.to_string(), v.to_string()));
                    }
                    _ => {
                        eprintln!("bench_diff: --filter expects FIELD=VALUE, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--key" => {
                let spec = value_of("--key");
                match spec.split_once('=') {
                    Some((ty, fields)) if !ty.is_empty() && !fields.is_empty() => {
                        let fields: Vec<String> = fields.split(',').map(str::to_string).collect();
                        // Later --key flags override the defaults.
                        cfg.keys.retain(|(t, _)| t != ty);
                        cfg.keys.push((ty.to_string(), fields));
                    }
                    _ => {
                        eprintln!("bench_diff: --key expects TYPE=F1,F2, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            _ if !arg.starts_with("--") && paths.len() < 2 => paths.push(arg),
            _ => {
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    if paths.len() != 2 {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    if !metrics.is_empty() {
        cfg.metrics = metrics;
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let baseline = read(&paths[0]);
    let new = read(&paths[1]);
    let report = run_diff(&baseline, &new, &cfg).unwrap_or_else(|e| {
        eprintln!("bench_diff: {e}");
        std::process::exit(1);
    });
    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}

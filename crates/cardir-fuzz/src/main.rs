//! CLI for the differential fuzzer.
//!
//! ```text
//! cargo run -p cardir-fuzz -- --iters 500 --seed 1
//! cargo run -p cardir-fuzz -- --seed 123456   # replay one divergence
//! cargo run -p cardir-fuzz -- --faults --iters 100 --seed 1
//! cargo run -p cardir-fuzz -- --family ulp --iters 200 --seed 1
//! ```
//!
//! `--faults` switches to the fault-injection check family: seeded
//! failpoint arming during differential runs, asserting accounting
//! closure, bit-identical surviving pairs, and clean recovery after torn
//! configuration writes.
//!
//! `--family ulp` (or `ulp-adversarial`) forces every iteration into the
//! ulp-adversarial scenario family: coordinates nudged 1–4 ulps around
//! the reference's grid lines, plus the predicate-level ground-truth
//! audit against the retired epsilon implementations.
//!
//! `--family join` (or `join-clusters`) forces every iteration into the
//! spatial-join family: heavy MBB overlap clusters sharing grid lines
//! with the reference plus strictly separated satellites, at `2^±40`
//! magnitude a quarter of the time — the geometry that stresses the
//! join's partition oracle and its mask-emitted relations.
//!
//! `--family edits` (or `edit-scripts`) drives random edit scripts
//! through the journaled incremental engine: every step is bit-compared
//! against a fresh full recompute, stores are dropped and replayed
//! mid-script, and a second pass arms probabilistic compute/journal
//! faults plus kill-mid-append and kill-mid-compaction crash cycles.
//!
//! Exits non-zero when any divergence (or panic) is found, printing each
//! one with its replay command.

use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: cardir-fuzz [--seed N] [--iters M] [--faults] [--family ulp|join|edits]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut iters = 1u64;
    let mut faults = false;
    let mut family: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => seed = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--iters" => iters = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--faults" => faults = true,
            "--family" => family = Some(value(&mut args)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let report = match (faults, family.as_deref()) {
        (true, None) => cardir_fuzz::run_faults(seed, iters),
        (false, None) => cardir_fuzz::run(seed, iters),
        (false, Some("ulp" | "ulp-adversarial")) => cardir_fuzz::run_ulp(seed, iters),
        (false, Some("join" | "join-clusters")) => cardir_fuzz::run_join(seed, iters),
        (false, Some("edits" | "edit-scripts")) => cardir_fuzz::run_edits(seed, iters),
        _ => usage(),
    };
    for d in &report.divergences {
        eprintln!("{d}\n");
    }
    println!(
        "cardir-fuzz: {} iteration(s) from seed {}: {} divergence(s)",
        report.iterations,
        seed,
        report.divergences.len()
    );
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

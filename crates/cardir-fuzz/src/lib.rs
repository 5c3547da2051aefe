//! Deterministic differential fuzzing harness for the cardir workspace.
//!
//! Each iteration derives everything from a single `u64` seed: a
//! [`gen::Scenario`] of adversarial degenerate-geometry regions, then a
//! battery of [`checks`] that cross-validate independent implementations
//! of the same answer —
//!
//! * `compute_cdr` against the polygon-clipping baseline,
//! * `tile_areas` against the clipped shoelace areas (and the region's
//!   own area),
//! * the batch engine (the materialized join and the exact pass over
//!   every pair, at every thread count) against the naive per-pair loop,
//!   bit for bit,
//! * the spatial join (sweep partition, mask-emitted relations, the
//!   materialized outcome) against `decided_tile`, `compute_cdr`, and
//!   the naive per-pair loop,
//! * XML and query round-trips on a configuration built from the
//!   scenario.
//!
//! A failing check is reported as a [`Divergence`] carrying the exact
//! seed (`cargo run -p cardir-fuzz -- --seed N` replays it) and a
//! polygon-minimized reproduction. Panics anywhere in the checked stack
//! are caught and reported the same way — the stack under test is
//! supposed to be panic-free on valid input.

pub mod checks;
pub mod edits;
pub mod faults;
pub mod gen;
pub mod legacy;

use cardir_geometry::to_wkt;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One confirmed disagreement (or panic), replayable from its seed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The exact seed that reproduces this divergence on its own.
    pub seed: u64,
    /// Scenario family the seed generated.
    pub family: &'static str,
    /// Which check failed.
    pub check: String,
    /// Disagreement details, including a minimized reproduction where
    /// one exists.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "divergence [{}] in family {:?} at seed {}", self.check, self.family, self.seed)?;
        for line in self.detail.lines() {
            writeln!(f, "  {line}")?;
        }
        write!(f, "  replay: cargo run -p cardir-fuzz -- --seed {}", self.seed)
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Every divergence found, in seed order.
    pub divergences: Vec<Divergence>,
}

/// Runs every check for one seed and returns its divergences.
pub fn run_seed(seed: u64) -> Vec<Divergence> {
    run_scenario(seed, gen::generate(seed))
}

/// Runs the checks for one seed *forced into the ulp-adversarial
/// family*, regardless of what family the seed would normally draw.
/// Used by the CI ulp sweep and the pinned ulp regression tests.
pub fn run_seed_ulp(seed: u64) -> Vec<Divergence> {
    run_scenario(seed, gen::generate_ulp(seed))
}

/// Runs the checks for one seed *forced into the join-clusters family*:
/// heavy MBB overlap clusters anchored to shared grid lines plus far
/// satellites, at `2^±40` a quarter of the time. Used by the CI join
/// sweep and the cross-validation suite.
pub fn run_seed_join(seed: u64) -> Vec<Divergence> {
    run_scenario(seed, gen::generate_join(seed))
}

fn run_scenario(seed: u64, scenario: gen::Scenario) -> Vec<Divergence> {
    let family = scenario.family;
    let regions = &scenario.regions;
    let mut out = Vec::new();

    let mut caught = |name: &'static str, result: std::thread::Result<Option<checks::Failure>>| {
        match result {
            Ok(None) => {}
            Ok(Some(failure)) => out.push(Divergence {
                seed,
                family,
                check: failure.check.to_string(),
                detail: failure.detail,
            }),
            Err(payload) => out.push(Divergence {
                seed,
                family,
                check: format!("panic-{name}"),
                detail: panic_message(payload),
            }),
        }
    };

    for i in 0..regions.len() {
        for j in 0..regions.len() {
            if i == j {
                continue;
            }
            let (a, b) = (&regions[i], &regions[j]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                checks::check_pair(a, b).map(|failure| {
                    let (ma, mb) = checks::minimize_pair(a, b);
                    checks::Failure {
                        check: failure.check,
                        detail: format!(
                            "{}\nminimized primary:   {}\nminimized reference: {}",
                            failure.detail,
                            to_wkt(&ma),
                            to_wkt(&mb)
                        ),
                    }
                })
            }));
            caught("pair", result);
        }
    }

    caught("engine", catch_unwind(AssertUnwindSafe(|| checks::check_engine(regions))));
    caught("join", catch_unwind(AssertUnwindSafe(|| checks::check_join(regions))));
    caught("config", catch_unwind(AssertUnwindSafe(|| checks::check_config(regions))));
    if family == "ulp-adversarial" {
        caught(
            "ulp-predicates",
            catch_unwind(AssertUnwindSafe(|| checks::check_ulp_predicates(seed).1)),
        );
    }
    out
}

/// Runs `iters` iterations starting at `base_seed`; iteration `k` uses
/// seed `base_seed + k`, so any failure replays alone with `--seed`.
pub fn run(base_seed: u64, iters: u64) -> FuzzReport {
    let mut report = FuzzReport { iterations: iters, ..FuzzReport::default() };
    for k in 0..iters {
        report.divergences.extend(run_seed(base_seed.wrapping_add(k)));
    }
    report
}

/// The forced-ulp counterpart of [`run`]: every iteration generates an
/// ulp-adversarial scenario (CI runs this for ≥ 200 seeds).
pub fn run_ulp(base_seed: u64, iters: u64) -> FuzzReport {
    let mut report = FuzzReport { iterations: iters, ..FuzzReport::default() };
    for k in 0..iters {
        report.divergences.extend(run_seed_ulp(base_seed.wrapping_add(k)));
    }
    report
}

/// The forced-join counterpart of [`run`]: every iteration generates a
/// join-clusters scenario (CI runs this for ≥ 200 seeds).
pub fn run_join(base_seed: u64, iters: u64) -> FuzzReport {
    let mut report = FuzzReport { iterations: iters, ..FuzzReport::default() };
    for k in 0..iters {
        report.divergences.extend(run_seed_join(base_seed.wrapping_add(k)));
    }
    report
}

/// Runs the fault-injection checks for one seed.
///
/// Arms process-global failpoints: must not run concurrently with other
/// failpoint users (the CLI and the smoke tests serialize it).
pub fn run_faults_seed(seed: u64) -> Vec<Divergence> {
    let scenario = gen::generate(seed);
    let family = scenario.family;
    let regions = &scenario.regions;
    let mut out = Vec::new();

    let mut caught = |name: &'static str, result: std::thread::Result<Option<checks::Failure>>| {
        match result {
            Ok(None) => {}
            Ok(Some(failure)) => out.push(Divergence {
                seed,
                family,
                check: failure.check.to_string(),
                detail: failure.detail,
            }),
            Err(payload) => out.push(Divergence {
                seed,
                family,
                check: format!("panic-{name}"),
                detail: panic_message(payload),
            }),
        }
    };

    // Panics are an expected part of these checks (injected ones are
    // caught by the engine); a panic escaping to *here* is itself a
    // divergence, and either way the registry must be left disarmed.
    let result = cardir_faults::with_silent_panics(|| {
        catch_unwind(AssertUnwindSafe(|| faults::check_engine_faults(regions, seed)))
    });
    cardir_faults::disarm_all();
    caught("engine-faults", result);

    let result =
        catch_unwind(AssertUnwindSafe(|| faults::check_persistence_faults(regions, seed)));
    cardir_faults::disarm_all();
    caught("persistence-faults", result);
    out
}

/// The `--faults` counterpart of [`run`]: `iters` seeded fault-injection
/// iterations starting at `base_seed`.
pub fn run_faults(base_seed: u64, iters: u64) -> FuzzReport {
    let mut report = FuzzReport { iterations: iters, ..FuzzReport::default() };
    for k in 0..iters {
        report.divergences.extend(run_faults_seed(base_seed.wrapping_add(k)));
    }
    report
}

/// Runs the `edits` checks for one seed: a random edit script through
/// the journaled incremental engine, differentially asserted against a
/// fresh full recompute — clean, then under probabilistic faults with
/// kill-mid-append and kill-mid-compaction crash/replay cycles.
///
/// Arms process-global failpoints: must not run concurrently with other
/// failpoint users (the CLI and the smoke tests serialize it).
pub fn run_seed_edits(seed: u64) -> Vec<Divergence> {
    let family = "edit-scripts";
    let mut out = Vec::new();

    let mut caught = |name: &'static str, result: std::thread::Result<Option<checks::Failure>>| {
        match result {
            Ok(None) => {}
            Ok(Some(failure)) => out.push(Divergence {
                seed,
                family,
                check: failure.check.to_string(),
                detail: failure.detail,
            }),
            Err(payload) => out.push(Divergence {
                seed,
                family,
                check: format!("panic-{name}"),
                detail: panic_message(payload),
            }),
        }
    };

    let result = catch_unwind(AssertUnwindSafe(|| edits::check_edit_script(seed)));
    cardir_faults::disarm_all();
    caught("edit-script", result);

    // Injected kills are panics the check itself catches; one escaping
    // to here is a divergence, and the registry is left disarmed either
    // way.
    let result = cardir_faults::with_silent_panics(|| {
        catch_unwind(AssertUnwindSafe(|| edits::check_edit_faults(seed)))
    });
    cardir_faults::disarm_all();
    caught("edit-faults", result);
    out
}

/// The `--family edits` counterpart of [`run`]: `iters` seeded
/// edit-script iterations starting at `base_seed`.
pub fn run_edits(base_seed: u64, iters: u64) -> FuzzReport {
    let mut report = FuzzReport { iterations: iters, ..FuzzReport::default() };
    for k in 0..iters {
        report.divergences.extend(run_seed_edits(base_seed.wrapping_add(k)));
    }
    report
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoints are process-global: the edits block arms them, and any
    /// engine run beside it would receive the injected faults. Every
    /// test that runs the engine or arms a failpoint holds this lock.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The CI smoke contract in miniature: a block of seeded iterations
    /// must produce no divergences and no panics.
    #[test]
    fn seeded_block_is_divergence_free() {
        let _serial = serial();
        let report = run(1, 60);
        assert_eq!(report.iterations, 60);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences:\n{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Replay of a fuzzer-found bug (seed 57, family `needles` at
    /// `2^-40` scale): `Polygon::contains` floored its boundary
    /// tolerance at an absolute constant, so for micro-scale polygons
    /// the tolerance exceeded the whole polygon and the `B`-tile
    /// centre test fired for a centre nowhere near the region —
    /// `compute_cdr` said `B:SW` while the prefilter, the clipping
    /// baseline, and the area matrix all said plain `SW`.
    #[test]
    fn seed_57_microscale_needle_center_containment() {
        let _serial = serial();
        let divergences = run_seed(57);
        assert!(
            divergences.is_empty(),
            "seed 57 regressed:\n{}",
            divergences.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    /// The CI ulp sweep in miniature: a forced ulp-adversarial block
    /// must be divergence-free — `compute_cdr` through the exact
    /// predicates agrees with the clipping baseline, the engine, and the
    /// area accounting on geometry nudged 1–4 ulps around grid lines.
    /// The CI join sweep in miniature: a forced join-clusters block must
    /// be divergence-free — the sweep partition, the mask-emitted
    /// relations, and the materialized join all agree with their oracles
    /// on clustered, grid-anchored, extreme-magnitude geometry.
    #[test]
    fn join_block_is_divergence_free() {
        let _serial = serial();
        let report = run_join(1, 40);
        assert_eq!(report.iterations, 40);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences:\n{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn ulp_block_is_divergence_free() {
        let _serial = serial();
        let report = run_ulp(1, 40);
        assert_eq!(report.iterations, 40);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences:\n{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Pinned ulp-audit regressions: on these seeds' constructed
    /// ground-truth cases the exact predicates are right everywhere,
    /// while the retired epsilon predicates demonstrably disagree (their
    /// tolerance bands accept points that are provably off a segment or
    /// outside a polygon). If the second assertion ever starts failing,
    /// `legacy` was "fixed" — which defeats its purpose as differential
    /// evidence.
    #[test]
    fn pinned_seeds_exact_right_where_legacy_epsilon_diverges() {
        for seed in [1u64, 7, 42] {
            let (audit, failure) = checks::check_ulp_predicates(seed);
            assert!(failure.is_none(), "seed {seed}: exact path wrong: {failure:?}");
            assert!(audit.cases >= 50, "seed {seed}: only {} cases", audit.cases);
            assert!(
                audit.legacy_mismatches > 0,
                "seed {seed}: legacy predicates unexpectedly agreed with ground truth everywhere"
            );
        }
    }

    /// The CI edits sweep in miniature: a seeded block of journaled
    /// edit scripts — crash cycles, kills, probabilistic faults — must
    /// be divergence-free.
    #[test]
    fn edits_block_is_divergence_free() {
        let _serial = serial();
        let report = run_edits(1, 10);
        assert_eq!(report.iterations, 10);
        assert!(
            report.divergences.is_empty(),
            "unexpected divergences:\n{}",
            report
                .divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn divergence_display_carries_the_replay_seed() {
        let d = Divergence {
            seed: 7,
            family: "needles",
            check: "cdr-vs-clipping".to_string(),
            detail: "compute_cdr = B, clipping baseline = B:N".to_string(),
        };
        let rendered = d.to_string();
        assert!(rendered.contains("--seed 7"));
        assert!(rendered.contains("cdr-vs-clipping"));
        assert!(rendered.contains("needles"));
    }
}

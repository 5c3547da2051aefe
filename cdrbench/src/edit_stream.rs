//! `edit-stream`: a quantitative N = 5 000 `cardird` session. The
//! session journal is written through `RelationStore` inserts; set-up is
//! the server opening it by replay. A closed loop then sends single-region
//! `replace` edits on one connection and, after each reply, reads a
//! pair involving the edited slot on the second connection at an epoch
//! no older than the reply's. The run ends by restarting the server on
//! the same data directory. The flush policy is the program's own
//! (fsync per journal append).

use crate::common::{
    boot, copy_journal, ms_since, peak_rss_mb, replace_body, seeded_map, write_journal, EditScript,
    Lane, WorkDir, SESSION,
};
use crate::layers::{batch_suite, edit_suite};
use crate::stats::{chunked_quantile, median, quantile, Tally};
use crate::{read_query, tracing_overhead, Args, LoopFigures, Metrics, Outcome};
use cardir_core::compute_cdr;
use cardir_geometry::Region;
use cardir_telemetry::{Json, Tracer};
use cardir_workloads::SplitMix64;
use cardird::ServerHandle;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const N: usize = 5_000;
const SALT: u64 = 2;
/// Restarts at the end of a run. Recovery replays a ~60 MB journal, and
/// on a shared host it runs in phases of several seconds that are up to a
/// third slower than the rest; even the median of fifteen restarts moved
/// by 10–28 % (interquartile range / median) over ten runs. The fastest
/// of the fifteen — best-of-repeat, as the repository's engine benchmark
/// reports — moved by about 5 %, and a slower replay still raises it.
const RESTARTS: usize = 15;
/// Pairs read before shutdown and compared after each restart.
const RESTART_SAMPLES: usize = 200;
const SUITE_EDITS: usize = 40;
/// Server boots per set-up measurement.
const SETUP_BOOTS: usize = 3;
/// Consecutive stretches of a run whose p90s give the tail metric.
const TAIL_CHUNKS: usize = 5;

/// Boots a server on a fresh copy of the journal in `seed_dir` and lets
/// it replay the journal (the first session request opens it).
fn setup(
    seed_dir: &Path,
    live: usize,
    work: &mut WorkDir,
    tally: &mut Tally,
) -> Result<(ServerHandle, PathBuf, f64), String> {
    let dir = work.fresh("edit-stream")?;
    copy_journal(seed_dir, &dir)?;
    let start = Instant::now();
    let server = boot(&dir)?;
    check_open(&server, live, tally)?;
    Ok((server, dir, start.elapsed().as_secs_f64()))
}

/// Opens the session over HTTP; it must come up from the journal with
/// every region live and nothing pending.
fn check_open(server: &ServerHandle, live: usize, tally: &mut Tally) -> Result<(), String> {
    let mut lane = Lane::connect(server.addr(), &Tracer::disabled(), 0)?;
    let reply = lane.send("http.summary", "GET", &format!("/sessions/{SESSION}"), None)?;
    let field = |k: &str| reply.body.get(k).cloned();
    tally.check(
        reply.status == 200
            && field("replay") == Some(Json::from("journal"))
            && field("live") == Some(Json::from(live))
            && field("pending") == Some(Json::from(0u64)),
        || format!("session open: {} {}", reply.status, reply.body),
    );
    Ok(())
}

#[derive(Default)]
struct LoopOut {
    visible_ms: Vec<f64>,
    relation_ms: Vec<f64>,
    edits: usize,
    /// Time spent in this loop's iterations, checks included.
    seconds: f64,
}

impl LoopOut {
    /// Edit-to-visible p50, the typical stretch's p90 (see
    /// [`chunked_quantile`]; a fifth of a run holds ~90 edits, so its p90
    /// is the highest percentile with about ten samples beyond it) and
    /// edits per second.
    fn figures(&self) -> LoopFigures {
        LoopFigures {
            p50_ms: median(&self.visible_ms),
            tail_ms: chunked_quantile(&self.visible_ms, TAIL_CHUNKS, 0.9),
            per_s: self.edits as f64 / self.seconds,
        }
    }
}

/// The closed edit-then-read loop for `seconds`. Edit-to-visible runs
/// from sending the apply to the end of a read whose epoch is at least
/// the apply's; the relation read is then checked against the naive
/// algorithm over the benchmark's own copy of the regions. With
/// `alternate`, every other iteration is recorded under spans, so
/// traced and untraced edits share the run's position and drift; the
/// figures come back split by kind, `[untraced, traced]`.
fn run_loop(
    server: &ServerHandle,
    script: &mut EditScript,
    rng: &mut SplitMix64,
    seconds: f64,
    tracer: &Tracer,
    alternate: bool,
    tally: &mut Tally,
) -> Result<[LoopOut; 2], String> {
    let mut writer = Lane::connect(server.addr(), tracer, 1)?;
    let mut reader = Lane::connect(server.addr(), tracer, 2)?;
    let apply = format!("/sessions/{SESSION}/apply");
    let mut outs = [LoopOut::default(), LoopOut::default()];
    let start = Instant::now();
    for k in 0.. {
        if k >= 2 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = alternate && k % 2 == 1;
        (writer.traced, reader.traced) = (traced, traced);
        let out = &mut outs[usize::from(traced)];
        let iteration = Instant::now();
        let edit = script.next_edit();
        let (a, b) = if rng.random_bool(0.5) {
            (edit.slot, edit.partner)
        } else {
            (edit.partner, edit.slot)
        };
        let t = Instant::now();
        let applied = writer.send("http.apply", "POST", &apply, Some(&replace_body(&edit)))?;
        let read = reader.send("http.relation", "GET", &relation_path(a, b), None)?;
        out.visible_ms.push(ms_since(t));
        out.relation_ms.push(read.ms);
        out.edits += 1;
        let regions = script.regions();
        let want = compute_cdr(&regions[a as usize], &regions[b as usize]).to_string();
        let got = read.body.get("relation").and_then(Json::as_str);
        tally.check(applied.status == 200, || {
            format!("edit of slot {}: {}", edit.slot, applied.status)
        });
        tally.check(
            read.status == 200
                && applied.epoch().is_some()
                && read.epoch() >= applied.epoch()
                && got == Some(want.as_str()),
            || {
                format!(
                "read ({a},{b}) after the edit at epoch {:?}: {} epoch {:?} {got:?}, naive {want}",
                applied.epoch(),
                read.status,
                read.epoch()
            )
            },
        );
        out.seconds += iteration.elapsed().as_secs_f64();
    }
    Ok(outs)
}

fn relation_path(a: u32, b: u32) -> String {
    format!("/sessions/{SESSION}/relation?primary={a}&reference={b}")
}

/// Restarts the server on `dir` `restarts` times. Before the first
/// shutdown a sample of pairs is read (and checked against the naive
/// algorithm); after each restart every sampled pair must answer
/// identically. Recovery runs from the restart to the first answer that
/// matches. Returns the server and the recovery times.
fn restart(
    mut server: ServerHandle,
    dir: &Path,
    regions: &[Region],
    rng: &mut SplitMix64,
    restarts: usize,
    tally: &mut Tally,
) -> Result<(ServerHandle, Vec<f64>), String> {
    let n = regions.len();
    let mut sample = Vec::with_capacity(RESTART_SAMPLES);
    {
        let mut lane = Lane::connect(server.addr(), &Tracer::disabled(), 0)?;
        for _ in 0..RESTART_SAMPLES {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..n.min(80))) % n;
            let reply = lane.send(
                "http.relation",
                "GET",
                &relation_path(a as u32, b as u32),
                None,
            )?;
            let got = reply
                .body
                .get("relation")
                .and_then(Json::as_str)
                .map(str::to_string);
            let want = compute_cdr(&regions[a], &regions[b]).to_string();
            tally.check(
                reply.status == 200 && got.as_deref() == Some(want.as_str()),
                || {
                    format!(
                        "pre-restart read ({a},{b}): {} {got:?}, naive {want}",
                        reply.status
                    )
                },
            );
            sample.push(((a as u32, b as u32), got));
        }
    }
    let mut recovery_ms = Vec::new();
    for _ in 0..restarts {
        server.shutdown();
        let start = Instant::now();
        server = boot(dir)?;
        let mut lane = Lane::connect(server.addr(), &Tracer::disabled(), 0)?;
        for (k, ((a, b), before)) in sample.iter().enumerate() {
            let reply = lane.send("http.relation", "GET", &relation_path(*a, *b), None)?;
            if k == 0 {
                recovery_ms.push(ms_since(start));
            }
            let after = reply.body.get("relation").and_then(Json::as_str);
            tally.check(reply.status == 200 && after == before.as_deref(), || {
                format!(
                    "after restart ({a},{b}): {} {after:?}, before {before:?}",
                    reply.status
                )
            });
        }
    }
    Ok((server, recovery_ms))
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut work = WorkDir::new()?;
    let initial: Vec<Region> = seeded_map(args.seed, SALT, N)
        .into_iter()
        .map(|m| m.region)
        .collect();
    let script_seed = args.seed ^ 0xED17_0000;
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x2EAD);

    // The journal is the program's input: written once, outside the
    // clock. Set-up is what the server does with it before its first
    // answer — boot, replay, open — on a fresh copy each time.
    let seed_dir = work.fresh("seed")?;
    let start = Instant::now();
    write_journal(&seed_dir, &initial)?;
    let journal_write_s = start.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut served: Option<(ServerHandle, PathBuf)> = None;
    for _ in 0..if args.trace { 1 } else { SETUP_BOOTS } {
        if let Some((server, _)) = served.take() {
            server.shutdown();
        }
        let (server, dir, seconds) = setup(&seed_dir, N, &mut work, &mut tally)?;
        setup_s.push(seconds);
        served = Some((server, dir));
    }
    let (server, dir) = served.expect("at least one set-up");
    let mut script = EditScript::new(script_seed, initial.clone());
    let mut named = Metrics::default();
    named.push("journal_write_s", journal_write_s, "s");

    if !args.trace {
        let [out, _] = run_loop(
            &server,
            &mut script,
            &mut rng,
            args.seconds,
            &Tracer::disabled(),
            false,
            &mut tally,
        )?;
        let (server, recovery_ms) = restart(
            server,
            &dir,
            script.regions(),
            &mut rng,
            RESTARTS,
            &mut tally,
        )?;
        server.shutdown();
        let f = out.figures();
        let mut m = Metrics::default();
        m.push("setup_s", median(&setup_s), "s");
        m.push("peak_rss_mb", peak_rss_mb(), "MB");
        m.push("latency_ms_p50", f.p50_ms, "ms");
        m.push("latency_ms_tail", f.tail_ms, "ms");
        m.push("throughput_per_s", f.per_s, "1/s");
        m.push("second_path_ms", quantile(&recovery_ms, 0.0), "ms");
        named.push("edit_visible_ms_p50", f.p50_ms, "ms");
        named.push("edit_visible_ms_p95", quantile(&out.visible_ms, 0.95), "ms");
        named.push("edit_visible_ms_p90_typical", f.tail_ms, "ms");
        named.push("edits_per_s", f.per_s, "1/s");
        named.push("recovery_s", median(&recovery_ms) / 1e3, "s");
        named.push("recovery_s_best", quantile(&recovery_ms, 0.0) / 1e3, "s");
        named.push("edits", out.edits as f64, "count");
        return Ok(Outcome {
            tally,
            metrics: m,
            named,
        });
    }

    let [untraced, traced] = run_loop(
        &server,
        &mut script,
        &mut rng,
        args.seconds,
        tracer,
        true,
        &mut tally,
    )?;
    let (server, _) = restart(server, &dir, script.regions(), &mut rng, 1, &mut tally)?;
    server.shutdown();

    let mut m = tracing_overhead(&untraced.figures(), &traced.figures());
    m.extend(batch_suite(&initial, tracer, &mut tally));
    let edits = edit_suite(
        &initial,
        &seed_dir,
        script_seed,
        SUITE_EDITS,
        &mut work,
        tracer,
        &mut tally,
    )?;
    let lookup_us = edits.get("engine.relation_us").unwrap_or(f64::NAN);
    let read_ms = [untraced.relation_ms, traced.relation_ms].concat();
    m.push(
        "http.relation_overhead_us_p50",
        median(&read_ms) * 1e3 - lookup_us,
        "us",
    );
    m.extend(edits);
    // The query layer is not driven by this workload; its per-layer
    // figures come from the read/query probe.
    m.extend(read_query::probe(
        args.seed, &mut work, tracer, &mut tally, false,
    )?);
    named.push("edits", (untraced.edits + traced.edits) as f64, "count");
    Ok(Outcome {
        tally,
        metrics: m,
        named,
    })
}

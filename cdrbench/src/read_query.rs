//! The read/query probe of traced runs: a quantitative N = 1 000
//! session seeded over HTTP with ids and colours, driven on one
//! connection in rounds. Each round applies one `replace` edit, sends
//! the same conjunctive `/query` (colour plus direction conjuncts)
//! `QUERIES` times — the first lands on the edit's fresh epoch and pays
//! for building that epoch's query state, the rest reuse it — and then
//! `READS` `/relation` point reads. Every answer is checked against
//! `compute_cdr` over the benchmark's own copy of the regions.
//!
//! It gives the query layer and the HTTP read path their per-layer
//! figures; no end-to-end metric depends on it.

use crate::common::{
    boot, copy_journal, replace_body, seeded_map, EditScript, Lane, WorkDir, SESSION,
};
use crate::layers::edit_suite;
use crate::stats::{median, Tally};
use crate::Metrics;
use cardir_core::compute_cdr;
use cardir_geometry::Region;
use cardir_telemetry::{Json, Tracer};
use cardir_workloads::{MapRegion, SplitMix64};
use cardird::ServerHandle;
use std::path::PathBuf;

const N: usize = 1_000;
const SALT: u64 = 3;
/// Rounds of edit, queries and reads.
const ROUNDS: usize = 8;
/// Queries per round: one on the fresh epoch, the rest reusing it.
const QUERIES: usize = 4;
/// Point reads per round.
const READS: usize = 50;
/// Edits the per-layer replay applies.
const SUITE_EDITS: usize = 40;
/// Pairs of one colour strictly north of one of another colour.
const QUERY: &str = "{(a, b) | color(a) = red, color(b) = blue, a N b}";

/// Boots a server on a fresh directory and inserts `map` over HTTP in
/// batches of 100, with ids `r<i>` and the map's colours.
fn setup(
    map: &[MapRegion],
    work: &mut WorkDir,
    tally: &mut Tally,
) -> Result<(ServerHandle, PathBuf), String> {
    let dir = work.fresh("read-query")?;
    let server = boot(&dir)?;
    let mut lane = Lane::connect(server.addr(), &Tracer::disabled(), 0)?;
    let created = lane.send(
        "http.create",
        "POST",
        "/sessions",
        Some(&format!("{{\"name\":\"{SESSION}\"}}")),
    )?;
    tally.check(created.status == 200, || {
        format!("session create: {}", created.status)
    });
    for (chunk_no, chunk) in map.chunks(100).enumerate() {
        let edits = chunk
            .iter()
            .enumerate()
            .map(|(k, m)| {
                Json::obj([
                    ("op", Json::from("insert")),
                    (
                        "id",
                        Json::from(format!("r{}", chunk_no * 100 + k).as_str()),
                    ),
                    ("color", Json::from(m.color)),
                    ("region", cardird::api::region_to_json(&m.region)),
                ])
            })
            .collect();
        let body = Json::obj([("edits", Json::Arr(edits))]).to_string();
        let reply = lane.send(
            "http.apply",
            "POST",
            &format!("/sessions/{SESSION}/apply"),
            Some(&body),
        )?;
        let first_slot = reply.body.get("slots").and_then(|s| match s {
            Json::Arr(slots) => slots.first().and_then(Json::as_u64),
            _ => None,
        });
        tally.check(
            reply.status == 200 && first_slot == Some((chunk_no * 100) as u64),
            || format!("seeding batch {chunk_no}: {} {}", reply.status, reply.body),
        );
    }
    Ok((server, dir))
}

fn rows_of(body: &Json) -> Vec<(String, String)> {
    let Some(Json::Arr(rows)) = body.get("bindings") else {
        return Vec::new();
    };
    let mut out: Vec<(String, String)> = rows
        .iter()
        .filter_map(|row| match row {
            Json::Arr(v) if v.len() == 2 => {
                Some((v[0].as_str()?.to_string(), v[1].as_str()?.to_string()))
            }
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// The rows [`QUERY`] must return over `regions`, by testing every
/// red × blue pair with the naive `compute_cdr`.
fn expected_rows(regions: &[Region], colors: &[&str]) -> Vec<(String, String)> {
    let slots = |color: &str| -> Vec<usize> {
        (0..regions.len()).filter(|&i| colors[i] == color).collect()
    };
    let blue = slots("blue");
    let mut rows = Vec::new();
    for a in slots("red") {
        for &b in &blue {
            if compute_cdr(&regions[a], &regions[b]).to_string() == "N" {
                rows.push((format!("r{a}"), format!("r{b}")));
            }
        }
    }
    rows.sort();
    rows
}

/// Timings of the probe's rounds.
#[derive(Default)]
struct ProbeOut {
    fresh_ms: Vec<f64>,
    reused_ms: Vec<f64>,
    read_ms: Vec<f64>,
}

/// The probe's rounds, one request at a time on one connection.
fn rounds(
    server: &ServerHandle,
    script: &mut EditScript,
    colors: &[&str],
    rng: &mut SplitMix64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<ProbeOut, String> {
    let mut lane = Lane::connect(server.addr(), tracer, 4)?;
    let query = Json::obj([("query", Json::from(QUERY))]).to_string();
    let (apply, query_path) = (
        format!("/sessions/{SESSION}/apply"),
        format!("/sessions/{SESSION}/query"),
    );
    let mut out = ProbeOut::default();
    let mut seen = None;
    for _ in 0..ROUNDS {
        let edit = script.next_edit();
        let applied = lane.send("http.apply", "POST", &apply, Some(&replace_body(&edit)))?;
        let epoch = applied.epoch();
        tally.check(applied.status == 200 && epoch.is_some(), || {
            format!("probe edit of slot {}: {}", edit.slot, applied.status)
        });
        let want = expected_rows(script.regions(), colors);
        for _ in 0..QUERIES {
            let reply = lane.send("http.query", "POST", &query_path, Some(&query))?;
            // Fresh: the first query to see its epoch.
            if reply.epoch() != seen {
                seen = reply.epoch();
                out.fresh_ms.push(reply.ms);
            } else {
                out.reused_ms.push(reply.ms);
            }
            let rows = rows_of(&reply.body);
            tally.check(
                reply.status == 200 && reply.epoch() == epoch && rows == want,
                || {
                    format!(
                        "query at epoch {:?} after the edit at {epoch:?}: {} with {} rows, \
                         a naive join gives {}",
                        reply.epoch(),
                        reply.status,
                        rows.len(),
                        want.len()
                    )
                },
            );
        }
        let regions = script.regions();
        for _ in 0..READS {
            let a = rng.random_range(0..N);
            let b = (a + rng.random_range(1..N)) % N;
            let path = format!("/sessions/{SESSION}/relation?primary={a}&reference={b}");
            let reply = lane.send("http.relation", "GET", &path, None)?;
            out.read_ms.push(reply.ms);
            let want = compute_cdr(&regions[a], &regions[b]).to_string();
            let got = reply.body.get("relation").and_then(Json::as_str);
            tally.check(
                reply.status == 200 && reply.epoch() == epoch && got == Some(want.as_str()),
                || {
                    format!(
                        "relation ({a},{b}) at {:?}: {} {got:?}, naive {want}",
                        reply.epoch(),
                        reply.status
                    )
                },
            );
        }
    }
    Ok(out)
}

/// Runs the probe on a seeded map, traced, for the per-layer figures of
/// the query layer — and with `edits`, of the edit layers and the HTTP
/// read path too — that the calling workload does not drive itself.
pub fn probe(
    seed: u64,
    work: &mut WorkDir,
    tracer: &Tracer,
    tally: &mut Tally,
    edits: bool,
) -> Result<Metrics, String> {
    let map = seeded_map(seed, SALT, N);
    let initial: Vec<Region> = map.iter().map(|m| m.region.clone()).collect();
    let colors: Vec<&str> = map.iter().map(|m| m.color).collect();
    let script_seed = seed ^ 0x3717_E000;
    let (server, dir) = setup(&map, work, tally)?;
    let seed_dir = work.fresh("probe-seed")?;
    copy_journal(&dir, &seed_dir)?;
    let mut script = EditScript::new(script_seed, initial.clone());
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x2EAD_E000);
    let out = rounds(&server, &mut script, &colors, &mut rng, tracer, tally);
    server.shutdown();
    let out = out?;

    let (fresh, reused) = (out.fresh_ms.len(), out.reused_ms.len());
    let mut m = Metrics::default();
    m.push("query.fresh_epoch_ms_p50", median(&out.fresh_ms), "ms");
    m.push("query.reused_epoch_ms_p50", median(&out.reused_ms), "ms");
    m.push(
        "query.fresh_epoch_share",
        fresh as f64 / (fresh + reused) as f64,
        "ratio",
    );
    if edits {
        let suite = edit_suite(
            &initial,
            &seed_dir,
            script_seed,
            SUITE_EDITS,
            work,
            tracer,
            tally,
        )?;
        let lookup_us = suite.get("engine.relation_us").unwrap_or(f64::NAN);
        m.push(
            "http.relation_overhead_us_p50",
            median(&out.read_ms) * 1e3 - lookup_us,
            "us",
        );
        m.extend(suite);
    }
    Ok(m)
}

//! Concurrent-reader guarantees, stressed loom-free.
//!
//! The snapshot/epoch scheme's whole claim is that readers never
//! observe torn state and never block behind a writer. These tests
//! drive real threads:
//!
//! * a session-level stress — one writer streaming edits while reader
//!   threads continuously materialize and query snapshots, each
//!   materialisation differentially checked against a fresh spatial
//!   join over that snapshot's own geometry (the quiesce check runs
//!   the same differential on the final state);
//! * a server-level test — parallel HTTP clients reading one session
//!   while a writer client edits it, with zero errored responses;
//! * the deadline contract over HTTP — `deadline_ms: 0` returns the
//!   structured 408 body and a later repair converges the session.

use cardir_engine::{BatchEngine, CompletionStatus, EngineMode, RegionCache, RunPolicy};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_telemetry::{parse_json, Json};
use cardir_workloads::{random_region, SplitMix64};
use cardird::{serve, Client, RegionMeta, ServerConfig, SessionRegistry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardird-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn extent() -> BoundingBox {
    BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 800.0))
}

/// Differentially checks one snapshot: its materialisation must be
/// bit-identical to a fresh full spatial join over the snapshot's own
/// live geometry.
fn check_snapshot(snapshot: &cardird::SessionSnapshot) {
    let pairs = snapshot
        .engine
        .materialize()
        .expect("no pending pairs under default policy");
    let regions: Vec<Region> = snapshot
        .engine
        .live_regions()
        .map(|(_, r)| r.clone())
        .collect();
    let n = regions.len();
    assert_eq!(pairs.len(), n.saturating_sub(1) * n, "ordered pair count");
    let cache = RegionCache::build(&regions);
    let oracle = BatchEngine::new()
        .with_mode(snapshot.engine.mode())
        .run_join(&cache, &RunPolicy::default())
        .materialize(&cache);
    assert_eq!(oracle.status, CompletionStatus::Complete);
    let oracle_pairs: Vec<_> = oracle.relations().cloned().collect();
    assert_eq!(
        pairs, oracle_pairs,
        "snapshot materialisation diverged from a fresh join"
    );
}

#[test]
fn readers_materialize_consistent_snapshots_under_concurrent_edits() {
    let dir = temp_dir("stress");
    let reg = SessionRegistry::new(
        &dir,
        cardir_cardirect::StoreOptions {
            mode: EngineMode::Qualitative,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let session = reg.open("stress").unwrap();
    let policy = RunPolicy::default();
    let mut rng = SplitMix64::seed_from_u64(7);
    for _ in 0..6 {
        let region = random_region(&mut rng, extent()).region;
        session
            .apply(
                cardir_engine::Edit::Insert(region),
                RegionMeta::default(),
                &policy,
            )
            .unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for reader_id in 0..4u64 {
        let session = session.clone();
        let done = done.clone();
        let reads = reads.clone();
        readers.push(thread::spawn(move || {
            let mut last_epoch = 0u64;
            let mut iter = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snapshot = session.snapshot();
                // Epochs are monotone per session, so per reader too.
                assert!(snapshot.epoch >= last_epoch, "epoch went backwards");
                last_epoch = snapshot.epoch;
                if iter % 3 == reader_id % 3 {
                    // Full differential check against a fresh join.
                    check_snapshot(&snapshot);
                } else {
                    // Cheap invariant: the pair list length matches the
                    // live count — a torn slot table would break this.
                    let pairs = snapshot.engine.materialize().unwrap();
                    let n = snapshot.engine.live_count();
                    assert_eq!(pairs.len(), n.saturating_sub(1) * n);
                }
                reads.fetch_add(1, Ordering::Relaxed);
                iter += 1;
            }
        }));
    }

    // The writer streams inserts, replaces, and removes while the
    // readers run. Every edit publishes a new epoch.
    let mut writer_rng = SplitMix64::seed_from_u64(99);
    for step in 0..30u32 {
        let edit = match step % 3 {
            0 => cardir_engine::Edit::Insert(random_region(&mut writer_rng, extent()).region),
            1 => {
                let snapshot = session.snapshot();
                let slot = snapshot.engine.live_regions().next().unwrap().0;
                cardir_engine::Edit::Replace(slot, random_region(&mut writer_rng, extent()).region)
            }
            _ => {
                let snapshot = session.snapshot();
                let slot = snapshot.engine.live_regions().last().unwrap().0;
                cardir_engine::Edit::Remove(slot)
            }
        };
        session.apply(edit, RegionMeta::default(), &policy).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
    assert!(reads.load(Ordering::Relaxed) > 0, "readers never ran");

    // Quiesce: the final state must also agree with a fresh full join.
    check_snapshot(&session.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

fn insert_body(region_json: &str) -> String {
    format!("{{\"edits\":[{{\"op\":\"insert\",\"region\":{region_json}}}]}}")
}

fn square_json(x: f64, y: f64, side: f64) -> String {
    format!(
        "{{\"polygons\":[[[{x},{y}],[{x2},{y}],[{x2},{y2}],[{x},{y2}]]]}}",
        x2 = x + side,
        y2 = y + side,
    )
}

#[test]
fn parallel_http_clients_share_one_session_without_errors() {
    let dir = temp_dir("http");
    let handle = serve(ServerConfig {
        workers: 8,
        ..ServerConfig::ephemeral(&dir)
    })
    .unwrap();
    let addr = handle.addr();

    // Seed the session with a few regions.
    let mut seed = Client::connect(addr).unwrap();
    let create = seed.post("/sessions", "{\"name\":\"shared\"}").unwrap();
    assert_eq!(create.status, 200, "{}", create.body);
    for i in 0..4 {
        let resp = seed
            .post(
                "/sessions/shared/apply",
                &insert_body(&square_json(30.0 * i as f64, 0.0, 20.0)),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    let done = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..6u32 {
        let done = done.clone();
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut requests = 0u64;
            let mut last_epoch = 0u64;
            while !done.load(Ordering::Relaxed) {
                let resp = match c % 3 {
                    0 => client.get("/sessions/shared/relations").unwrap(),
                    1 => client
                        .get("/sessions/shared/relation?primary=0&reference=1")
                        .unwrap(),
                    _ => client
                        .post("/sessions/shared/query", "{\"query\":\"{(x, y) | x N y}\"}")
                        .unwrap(),
                };
                assert_eq!(resp.status, 200, "{}", resp.body);
                let body = parse_json(&resp.body).unwrap();
                let epoch = body.get("epoch").and_then(Json::as_u64).unwrap();
                assert!(
                    epoch >= last_epoch,
                    "epoch went backwards over one connection"
                );
                last_epoch = epoch;
                requests += 1;
            }
            requests
        }));
    }

    // Concurrent writer over its own connection.
    let mut writer = Client::connect(addr).unwrap();
    for i in 0..12 {
        let resp = writer
            .post(
                "/sessions/shared/apply",
                &insert_body(&square_json(10.0 * i as f64, 40.0 + 25.0 * i as f64, 18.0)),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    done.store(true, Ordering::Relaxed);
    let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 0, "reader clients never completed a request");

    // The server's own accounting: requests flowed, none errored.
    let metrics = seed.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let mut requests = 0u64;
    let mut errors = 0u64;
    for line in metrics.body.lines() {
        let record = parse_json(line).unwrap();
        match record.get("name").and_then(Json::as_str) {
            Some("server.requests") => {
                requests = record.get("value").and_then(Json::as_u64).unwrap()
            }
            Some("server.errors") => errors = record.get("value").and_then(Json::as_u64).unwrap(),
            _ => {}
        }
    }
    assert!(requests > total, "request counter undercounts");
    assert_eq!(
        errors, 0,
        "no request may error during the stress\n{}",
        metrics.body
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_zero_returns_the_structured_timeout_and_repair_converges() {
    let dir = temp_dir("deadline");
    let handle = serve(ServerConfig::ephemeral(&dir)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for i in 0..4 {
        let resp = client
            .post(
                "/sessions/t/apply",
                &insert_body(&square_json(30.0 * i as f64, 0.0, 20.0)),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    // An impossible deadline: the edit must land, the response must be
    // the structured 408, and the pairs must be pending.
    let body = format!(
        "{{\"deadline_ms\":0,\"edits\":[{{\"op\":\"insert\",\"region\":{}}}]}}",
        square_json(0.0, 50.0, 500.0),
    );
    let resp = client.post("/sessions/t/apply", &body).unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body);
    let json = parse_json(&resp.body).unwrap();
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    assert!(json.get("pending").and_then(Json::as_u64).is_some());

    // Materialisation now reports the pending pairs as a conflict...
    let resp = client.get("/sessions/t/relations").unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    // ...until a repair without deadline converges the session.
    let resp = client.post("/sessions/t/repair", "{}").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let json = parse_json(&resp.body).unwrap();
    assert_eq!(json.get("still_pending").and_then(Json::as_u64), Some(0));
    let resp = client.get("/sessions/t/relations").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panics_and_malformed_traffic_map_to_5xx_and_4xx_bodies() {
    let dir = temp_dir("faults");
    let handle = serve(ServerConfig::ephemeral(&dir)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown route, bad JSON, bad edit op: named 4xx bodies, and the
    // connection stays usable after every one of them.
    let resp = client.get("/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.post("/sessions/f/apply", "{not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("bad_json"), "{}", resp.body);
    let resp = client
        .post("/sessions/f/apply", "{\"edits\":[{\"op\":\"warp\"}]}")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("bad_edit"), "{}", resp.body);
    let resp = client
        .post("/sessions", "{\"name\":\"../escape\"}")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("bad_session_name"), "{}", resp.body);

    // Editing a slot that does not exist is a 409, not a panic.
    let resp = client
        .post(
            "/sessions/f/apply",
            "{\"edits\":[{\"op\":\"remove\",\"slot\":99}]}",
        )
        .unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);

    // The server is still healthy after the abuse.
    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

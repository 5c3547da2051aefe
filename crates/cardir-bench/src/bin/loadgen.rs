//! Concurrent load against a live `cardird` server: the "heavy
//! traffic" number ROADMAP item 3 asks for.
//!
//! Boots an in-process server (or targets `--addr`), seeds one session
//! with a star-region map, then drives K persistent connections in
//! parallel. Each connection issues a seeded mix of reads — single-pair
//! relation lookups, full materialisations, conjunctive queries — while
//! one extra writer connection streams edits, so the measured
//! throughput includes snapshot swaps, not just cached reads. Every
//! response is checked; anything but a 2xx counts as an error and the
//! bench exits non-zero, which is what makes the committed numbers a
//! zero-error claim.
//!
//! Latency is recorded per request into the workspace's own telemetry
//! histogram; p50/p95/p99 come from `HistogramSnapshot` like every
//! other bench artifact.
//!
//! Usage: `loadgen [--connections K] [--requests N] [--regions M]
//!                 [--addr HOST:PORT] [--json PATH]`
//! Defaults: K = 8, N = 200 requests per connection, M = 24 regions.
//! `--json` writes one `"type": "server"` record (the `server.*`
//! fields CI gates on via `json_check --require` and `bench_diff`).

use cardir_geometry::{BoundingBox, Point};
use cardir_telemetry::{Json, JsonLines, Registry, DURATION_BOUNDS_NS};
use cardir_workloads::{random_map, SplitMix64};
use cardird::api::region_to_json;
use cardird::{serve, Client, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 2004;

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn main() {
    let mut connections: usize = 8;
    let mut requests: usize = 200;
    let mut regions: usize = 24;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--connections" => connections = value("--connections").parse().unwrap_or(0),
            "--requests" => requests = value("--requests").parse().unwrap_or(0),
            "--regions" => regions = value("--regions").parse().unwrap_or(0),
            "--addr" => addr = Some(value("--addr")),
            "--json" => json_path = Some(value("--json")),
            _ => {
                eprintln!(
                    "usage: loadgen [--connections K] [--requests N] [--regions M] \
                     [--addr HOST:PORT] [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if connections == 0 || requests == 0 || regions < 2 {
        eprintln!("loadgen: need connections >= 1, requests >= 1, regions >= 2");
        std::process::exit(2);
    }

    // Target: an external server, or an in-process one on an ephemeral
    // port (the reproducible default the committed numbers come from).
    let data_dir = std::env::temp_dir().join(format!("cardird-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let (target, handle): (SocketAddr, Option<cardird::ServerHandle>) = match &addr {
        Some(addr) => (
            addr.parse().unwrap_or_else(|e| {
                eprintln!("loadgen: bad --addr {addr}: {e}");
                std::process::exit(2);
            }),
            None,
        ),
        None => {
            let handle = serve(ServerConfig {
                workers: connections + 1,
                ..ServerConfig::ephemeral(&data_dir)
            })
            .unwrap_or_else(|e| {
                eprintln!("loadgen: cannot boot server: {e}");
                std::process::exit(1);
            });
            (handle.addr(), Some(handle))
        }
    };
    println!("target: {target} ({connections} connections x {requests} requests)");

    // Seed the session over one connection.
    let extent = BoundingBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 3000.0));
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let map = random_map(&mut rng, regions, extent);
    let mut seed_client = Client::connect(target).expect("connect");
    let resp = seed_client
        .post("/sessions", "{\"name\":\"bench\"}")
        .expect("create session");
    assert_eq!(resp.status, 200, "create session: {}", resp.body);
    for m in &map {
        let body = format!(
            "{{\"edits\":[{{\"op\":\"insert\",\"color\":\"{}\",\"region\":{}}}]}}",
            m.color,
            region_to_json(&m.region),
        );
        let resp = seed_client
            .post("/sessions/bench/apply", &body)
            .expect("seed apply");
        assert_eq!(resp.status, 200, "seed apply: {}", resp.body);
    }

    // The measured phase: K reader connections plus one writer
    // connection, all counted, all checked.
    let registry = Arc::new(Registry::new());
    let errors = Arc::new(AtomicU64::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut threads = Vec::new();
    for c in 0..connections {
        let registry = registry.clone();
        let errors = errors.clone();
        let total = total.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(target).expect("connect");
            let mut rng = SplitMix64::seed_from_u64(SEED ^ (c as u64 + 1) << 8);
            let hist = registry.histogram("latency", &DURATION_BOUNDS_NS);
            for _ in 0..requests {
                let roll = rng.random_range(0..10usize);
                let t0 = Instant::now();
                let resp = if roll < 6 {
                    let p = rng.random_range(0..regions);
                    let mut r = rng.random_range(0..regions - 1);
                    if r >= p {
                        r += 1;
                    }
                    client.get(&format!(
                        "/sessions/bench/relation?primary={p}&reference={r}"
                    ))
                } else if roll < 8 {
                    client.get("/sessions/bench/relations")
                } else if roll < 9 {
                    client.post(
                        "/sessions/bench/query",
                        "{\"query\":\"{(x, y) | x N:NE y}\"}",
                    )
                } else {
                    client.get("/sessions/bench")
                };
                hist.record(ns(t0.elapsed()));
                total.fetch_add(1, Ordering::Relaxed);
                match resp {
                    Ok(resp) if resp.status == 200 => {}
                    Ok(resp) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("loadgen: request errored: {} {}", resp.status, resp.body);
                    }
                    Err(e) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("loadgen: request failed: {e}");
                    }
                }
            }
        }));
    }
    // Writer lane: continuous replaces on slot 0 while readers run —
    // every one forces a snapshot swap the readers ride through.
    {
        let registry = registry.clone();
        let errors = errors.clone();
        let total = total.clone();
        let writer_requests = requests / 4;
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(target).expect("connect");
            let mut rng = SplitMix64::seed_from_u64(SEED ^ 0xfeed);
            let hist = registry.histogram("latency", &DURATION_BOUNDS_NS);
            for _ in 0..writer_requests {
                let region = cardir_workloads::random_region(&mut rng, extent).region;
                let body = format!(
                    "{{\"edits\":[{{\"op\":\"replace\",\"slot\":0,\"region\":{}}}]}}",
                    region_to_json(&region),
                );
                let t0 = Instant::now();
                let resp = client.post("/sessions/bench/apply", &body);
                hist.record(ns(t0.elapsed()));
                total.fetch_add(1, Ordering::Relaxed);
                match resp {
                    Ok(resp) if resp.status == 200 => {}
                    Ok(resp) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("loadgen: write errored: {} {}", resp.status, resp.body);
                    }
                    Err(e) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("loadgen: write failed: {e}");
                    }
                }
            }
        }));
    }
    for thread in threads {
        thread.join().expect("load thread");
    }
    let elapsed = start.elapsed();
    let total = total.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    let rps = total as f64 / elapsed.as_secs_f64();
    let hist = registry.snapshot();
    let hist = hist.histogram("latency").expect("latency histogram");

    println!(
        "{total} requests in {elapsed:.2?}: {rps:.0} req/s, errors {errors}, \
         latency p50 {:.0}ns p95 {:.0}ns p99 {:.0}ns",
        hist.p50(),
        hist.p95(),
        hist.p99(),
    );

    if let Some(path) = &json_path {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        let mut sink = JsonLines::new(std::io::BufWriter::new(file));
        sink.emit(
            "server",
            Json::obj([
                ("connections", Json::from(connections)),
                ("requests_per_conn", Json::from(requests)),
                ("regions", Json::from(regions)),
                ("requests", Json::from(total)),
                ("errors", Json::from(errors)),
                ("elapsed_ns", Json::from(ns(elapsed))),
                ("requests_per_sec", Json::from(rps)),
                ("latency_mean_ns", Json::from(hist.mean())),
                ("latency_p50_ns", Json::from(hist.p50())),
                ("latency_p95_ns", Json::from(hist.p95())),
                ("latency_p99_ns", Json::from(hist.p99())),
            ]),
        )
        .and_then(|()| sink.flush())
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("json: wrote {path}");
    }

    if let Some(handle) = handle {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&data_dir);

    if errors > 0 {
        eprintln!("loadgen: {errors} errored request(s)");
        std::process::exit(1);
    }
}

//! Inputs and plumbing shared by the workloads: seeded maps and edit
//! scripts, the work directory, the in-process `cardird`, journals
//! written through `RelationStore`, and the traced HTTP client lane.

use cardir_cardirect::{RelationStore, StoreOptions};
use cardir_engine::{Edit, EngineMode, RunPolicy};
use cardir_geometry::{BoundingBox, Point, Region};
use cardir_telemetry::{parse_json, Json, ThreadTrace, Tracer};
use cardir_workloads::{random_map, MapRegion, SplitMix64};
use cardird::{serve, Client, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The name of the one session every server workload uses.
pub const SESSION: &str = "bench";

/// The extent every generated map covers (the `incremental_throughput`
/// bench's extent, so per-edit figures are comparable).
pub fn extent() -> BoundingBox {
    BoundingBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 3000.0))
}

/// A seeded map of `n` coloured star regions; `salt` separates the
/// input streams of different workloads under one `--seed`.
pub fn seeded_map(seed: u64, salt: u64, n: usize) -> Vec<MapRegion> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    random_map(&mut rng, n, extent())
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Store options matching what `cardird` gives its sessions: the
/// quantitative mode, one engine thread, the default compaction floor.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        mode: EngineMode::Quantitative,
        threads: 1,
        ..StoreOptions::default()
    }
}

/// Boots `cardird` in-process over `data_dir` with two workers and one
/// engine thread per recompute pass, on an ephemeral loopback port.
pub fn boot(data_dir: &Path) -> Result<ServerHandle, String> {
    let mut config = ServerConfig::ephemeral(data_dir);
    config.workers = 2;
    config.mode = EngineMode::Quantitative;
    config.engine_threads = 1;
    serve(config).map_err(|e| format!("cannot boot cardird: {e}"))
}

/// Writes the session journal `<dir>/bench.cdj` by inserting `regions`
/// one by one through `RelationStore::apply` (slot `i` holds region
/// `i`), exactly the journal a server would have written for the same
/// inserts, without paying a publish per insert. The server's replay of
/// it is checked when the session opens.
pub fn write_journal(dir: &Path, regions: &[Region]) -> Result<(), String> {
    let mut store = RelationStore::open(journal_path(dir), &[], store_options());
    let policy = RunPolicy::default();
    for (slot, region) in regions.iter().enumerate() {
        let delta = store
            .apply(Edit::Insert(region.clone()), &policy)
            .map_err(|e| format!("journal insert {slot} rejected: {e}"))?;
        if delta.id as usize != slot || !delta.pending_added.is_empty() {
            return Err(format!(
                "journal insert {slot} landed in slot {} with pending pairs",
                delta.id
            ));
        }
    }
    Ok(())
}

/// The session journal inside a server data directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(format!("{SESSION}.cdj"))
}

/// Copies the session journal of `from` into the fresh directory `to`.
pub fn copy_journal(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(journal_path(from), journal_path(to))
        .map(|_| ())
        .map_err(|e| format!("cannot copy the journal: {e}"))
}

/// The size of the session journal in `dir`, in bytes.
pub fn journal_bytes(dir: &Path) -> Result<u64, String> {
    std::fs::metadata(journal_path(dir))
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat the journal: {e}"))
}

/// Per-run work directory under `cdrbench/out/`, removed on drop, so
/// a run leaves nothing behind but its trace file.
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    pub fn new() -> Result<WorkDir, String> {
        let root = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&mut self, tag: &str) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(format!("{tag}-{}", self.next));
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `cdrbench/out/`: where runs keep journals and write traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One scripted single-region replace.
#[derive(Debug, Clone)]
pub struct ScriptedEdit {
    pub slot: u32,
    pub region: Region,
    /// A grid neighbour of `slot`, read back after the edit.
    pub partner: u32,
}

/// A seeded stream of single-region `replace` edits: a random slot is
/// translated by up to ±50 units on each axis, clamped so it stays in
/// the extent. The script keeps the benchmark's own copy of every
/// region, which is what answers are checked against.
pub struct EditScript {
    rng: SplitMix64,
    regions: Vec<Region>,
    cols: usize,
}

impl EditScript {
    pub fn new(seed: u64, regions: Vec<Region>) -> EditScript {
        let cols = (regions.len() as f64).sqrt().ceil() as usize;
        EditScript {
            rng: SplitMix64::seed_from_u64(seed),
            regions,
            cols,
        }
    }

    /// The next edit; the script's copy of the regions already holds it.
    pub fn next_edit(&mut self) -> ScriptedEdit {
        let n = self.regions.len();
        let slot = self.rng.random_range(0..n);
        let mbb = self.regions[slot].mbb();
        let ext = extent();
        let dx = ((self.rng.next_f64() - 0.5) * 100.0)
            .clamp(ext.min.x - mbb.min.x, ext.max.x - mbb.max.x);
        let dy = ((self.rng.next_f64() - 0.5) * 100.0)
            .clamp(ext.min.y - mbb.min.y, ext.max.y - mbb.max.y);
        let region = self.regions[slot].translated(dx, dy);
        self.regions[slot] = region.clone();
        let neighbours: Vec<usize> = [
            slot.wrapping_sub(1),
            slot + 1,
            slot.wrapping_sub(self.cols),
            slot + self.cols,
        ]
        .into_iter()
        .filter(|&p| p < n)
        .collect();
        let partner = neighbours[self.rng.random_range(0..neighbours.len())] as u32;
        ScriptedEdit {
            slot: slot as u32,
            region,
            partner,
        }
    }

    /// The benchmark's copy of the current regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

/// The JSON body of a one-edit `replace` request.
pub fn replace_body(edit: &ScriptedEdit) -> String {
    Json::obj([(
        "edits",
        Json::Arr(vec![Json::obj([
            ("op", Json::from("replace")),
            ("slot", Json::from(u64::from(edit.slot))),
            ("region", cardird::api::region_to_json(&edit.region)),
        ])]),
    )])
    .to_string()
}

/// A decoded reply and its round trip in milliseconds.
pub struct Reply {
    pub status: u16,
    pub body: Json,
    pub ms: f64,
}

impl Reply {
    /// The `epoch` field every session response carries.
    pub fn epoch(&self) -> Option<u64> {
        self.body.get("epoch").and_then(Json::as_u64)
    }
}

/// One keep-alive client connection. With an enabled tracer and
/// `traced` set (the default), each request is recorded as a span named
/// after its route, tagged with a request id unique across lanes.
pub struct Lane {
    client: Client,
    trace: ThreadTrace,
    tid: u32,
    seq: u64,
    pub traced: bool,
}

impl Lane {
    pub fn connect(addr: SocketAddr, tracer: &Tracer, tid: u32) -> Result<Lane, String> {
        let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Lane {
            client,
            trace: tracer.thread(tid),
            tid,
            seq: 0,
            traced: true,
        })
    }

    /// Sends one request; transport errors and unparseable bodies are
    /// errors, HTTP error statuses are returned for the caller to count.
    pub fn send(
        &mut self,
        span: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Reply, String> {
        self.seq += 1;
        let id = (u64::from(self.tid) << 40) | self.seq;
        let begin = self.traced.then(|| self.trace.begin()).flatten();
        let start = Instant::now();
        let response = self.client.request(method, path, body);
        let ms = ms_since(start);
        self.trace.end(begin, span, Some(id));
        let response = response.map_err(|e| format!("{method} {path}: {e}"))?;
        let body = parse_json(&response.body)
            .map_err(|e| format!("{method} {path}: unparseable body: {e}"))?;
        Ok(Reply {
            status: response.status,
            body,
            ms,
        })
    }
}

/// The peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

//! The `cardird` server: accept loop, fixed worker pool, and routing.
//!
//! Concurrency model: one accept thread hands connections to a fixed
//! pool of worker threads over a channel; each worker owns one
//! connection at a time and serves its keep-alive request loop. All
//! shared state lives in [`ServerState`] (`SessionRegistry` +
//! telemetry `Registry`), both designed for concurrent access —
//! sessions via the snapshot/epoch scheme (readers never block behind
//! writers), telemetry via atomics.
//!
//! Fault mapping, per the ISSUE contract:
//!
//! * request deadlines (`deadline_ms`, or the server default) run the
//!   engine under a [`RunPolicy`] deadline and a hit maps to a
//!   `408` with a structured `{"error": "deadline_exceeded", ...}`
//!   body — the edit still lands with its pairs journaled as pending;
//! * handler panics are caught per request and map to a `500` with a
//!   JSON body (never a dropped connection);
//! * malformed HTTP maps to a `400` and closes the connection (the
//!   framing is unrecoverable), while malformed *payloads* on valid
//!   HTTP keep the connection usable.

use crate::api::{edit_from_json, error_body, pair_to_json, region_from_json, relation_to_json};
use crate::http::{read_request, write_response, HttpError, Request};
use crate::session::{Session, SessionRegistry, SessionSummary};
use cardir_cardirect::StoreOptions;
use cardir_engine::{BatchEngine, CompletionStatus, EngineMode, RegionCache, RunPolicy};
use cardir_telemetry::{render_json_lines, Json, Registry, DURATION_BOUNDS_NS};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections (min 1).
    pub workers: usize,
    /// Directory holding session journals.
    pub data_dir: PathBuf,
    /// Relation computation mode for sessions.
    pub mode: EngineMode,
    /// Engine worker threads per recompute pass.
    pub engine_threads: usize,
    /// Deadline applied to requests that do not set `deadline_ms`.
    pub default_deadline: Option<Duration>,
}

impl ServerConfig {
    /// A loopback config over `data_dir` with an ephemeral port.
    pub fn ephemeral(data_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            data_dir: data_dir.into(),
            mode: EngineMode::Quantitative,
            engine_threads: 1,
            default_deadline: None,
        }
    }
}

/// Shared state of one server instance.
pub struct ServerState {
    /// The sessions this instance carries.
    pub registry: SessionRegistry,
    /// Request/latency metrics, exported by `GET /metrics`.
    pub telemetry: Registry,
    default_deadline: Option<Duration>,
}

/// Live connections, so shutdown can close them instead of waiting
/// out their idle keep-alive reads.
#[derive(Default)]
struct ConnTable {
    streams: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next: std::sync::atomic::AtomicU64,
}

impl ConnTable {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    fn close_all(&self) {
        let streams = self.streams.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in streams.values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// A running server. Dropping the handle does NOT stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnTable>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes live connections, drains the workers,
    /// and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.conns.close_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Boots a server and returns once the listener is bound.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let opts = StoreOptions {
        mode: config.mode,
        threads: config.engine_threads.max(1),
        ..StoreOptions::default()
    };
    let state = Arc::new(ServerState {
        registry: SessionRegistry::new(&config.data_dir, opts)?,
        telemetry: Registry::new(),
        default_deadline: config.default_deadline,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnTable::default());
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::new();
    for _ in 0..config.workers.max(1) {
        let rx = rx.clone();
        let state = state.clone();
        let conns = conns.clone();
        workers.push(thread::spawn(move || loop {
            let conn = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
            match conn {
                Ok(stream) => {
                    let id = conns.register(&stream);
                    serve_connection(&state, stream);
                    if let Some(id) = id {
                        conns.deregister(id);
                    }
                }
                Err(_) => return, // sender dropped: shutdown
            }
        }));
    }

    let accept_stop = stop.clone();
    let accept = thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                return; // tx drops here, draining the workers
            }
            if let Ok(stream) = conn {
                if tx.send(stream).is_err() {
                    return;
                }
            }
        }
    });

    Ok(ServerHandle {
        addr,
        stop,
        conns,
        accept: Some(accept),
        workers,
    })
}

/// One connection's keep-alive loop.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    // Bound idle reads so a silent client cannot pin a worker forever;
    // disable Nagle so small request/response exchanges do not stall
    // on delayed ACKs (~40ms per round trip without it).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(writer);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                // Framing is broken; answer what we can and close.
                state.telemetry.counter("server.errors").add(1);
                let body = error_body("bad_request", &e.to_string());
                let _ = write_response(&mut writer, 400, "application/json", &body, false);
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let start = Instant::now();
        state.telemetry.counter("server.requests").add(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| route(state, &request)));
        let (status, content_type, body) = match outcome {
            Ok(response) => response,
            Err(_) => {
                state.telemetry.counter("server.panics").add(1);
                (
                    500,
                    "application/json",
                    error_body("internal", "request handler panicked"),
                )
            }
        };
        if status >= 400 {
            state.telemetry.counter("server.errors").add(1);
        }
        if status == 408 {
            state.telemetry.counter("server.timeouts").add(1);
        }
        state
            .telemetry
            .histogram("server.request_ns", &DURATION_BOUNDS_NS)
            .record(start.elapsed().as_nanos() as u64);
        if write_response(&mut writer, status, content_type, &body, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

type Response = (u16, &'static str, String);

fn json_response(status: u16, body: Json) -> Response {
    (status, "application/json", body.to_string())
}

/// Routes one request. Pure request → response; all transport concerns
/// stay in [`serve_connection`].
fn route(state: &ServerState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => json_response(200, Json::obj([("ok", Json::from(true))])),
        ("GET", ["metrics"]) => (
            200,
            "application/x-ndjson",
            render_json_lines(&state.telemetry.snapshot()),
        ),
        ("GET", ["sessions"]) => {
            let names = state.registry.names().into_iter().map(Json::Str).collect();
            json_response(200, Json::obj([("sessions", Json::Arr(names))]))
        }
        ("POST", ["sessions"]) => handle_create(state, req),
        ("GET", ["sessions", name]) => with_session(state, name, |s| {
            json_response(200, summary_json(s.name(), &s.summary()))
        }),
        ("POST", ["sessions", name, "save"]) => with_session(state, name, handle_save),
        ("POST", ["sessions", name, "apply"]) => {
            with_session(state, name, |s| handle_apply(state, s, req))
        }
        ("POST", ["sessions", name, "repair"]) => {
            with_session(state, name, |s| handle_repair(state, s, req))
        }
        ("GET", ["sessions", name, "relation"]) => {
            with_session(state, name, |s| handle_relation(s, req))
        }
        ("GET", ["sessions", name, "relations"]) => with_session(state, name, handle_relations),
        ("POST", ["sessions", name, "query"]) => {
            with_session(state, name, |s| handle_query(s, req))
        }
        ("POST", ["compute"]) => handle_compute(state, req),
        (_, ["healthz" | "metrics" | "sessions" | "compute", ..]) => json_response(
            405,
            err_json("method_not_allowed", "unsupported method for this path"),
        ),
        _ => json_response(404, err_json("not_found", "no such endpoint")),
    }
}

fn err_json(kind: &str, detail: &str) -> Json {
    Json::obj([("error", Json::from(kind)), ("detail", Json::from(detail))])
}

fn with_session(state: &ServerState, name: &str, f: impl FnOnce(&Session) -> Response) -> Response {
    // Opening is idempotent and cheap for live sessions, so every
    // session route auto-loads from the journal dir — "load session"
    // needs no dedicated verb.
    match state.registry.open(name) {
        Ok(session) => f(&session),
        Err(detail) => json_response(400, err_json("bad_session_name", &detail)),
    }
}

fn body_json(req: &Request) -> Result<Json, Response> {
    if req.body.is_empty() {
        return Ok(Json::obj::<&str>([]));
    }
    let text = req
        .body_text()
        .map_err(|e| json_response(400, err_json("bad_request", &e.to_string())))?;
    cardir_telemetry::parse_json(text)
        .map_err(|e| json_response(400, err_json("bad_json", &e.to_string())))
}

/// The deadline for this request: `deadline_ms` in the body, else the
/// server default.
fn request_deadline(state: &ServerState, body: &Json) -> Option<Duration> {
    body.get("deadline_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis)
        .or(state.default_deadline)
}

fn summary_json(name: &str, s: &SessionSummary) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("epoch", Json::from(s.epoch)),
        ("live", Json::from(s.live)),
        ("exact", Json::from(s.exact)),
        ("pending", Json::from(s.pending)),
        ("journal_healthy", Json::from(s.journal_healthy)),
        ("journal_writable", Json::from(s.journal_writable)),
        ("journal_bytes", Json::from(s.journal_bytes)),
        ("journal_records", Json::from(s.journal_records)),
        ("replay", Json::from(s.replay)),
    ])
}

fn handle_create(state: &ServerState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let name = match body.get("name").and_then(Json::as_str) {
        Some(name) => name,
        None => return json_response(400, err_json("bad_request", "body needs a \"name\" string")),
    };
    match state.registry.open(name) {
        Ok(session) => json_response(200, summary_json(session.name(), &session.summary())),
        Err(detail) => json_response(400, err_json("bad_session_name", &detail)),
    }
}

fn handle_save(session: &Session) -> Response {
    match session.sync() {
        Ok(()) => json_response(200, Json::obj([("saved", Json::from(true))])),
        // An unwritable journal is a server-side persistence fault, not
        // a client error: 500 with the journal error in the body.
        Err(e) => json_response(500, err_json("journal", &e.to_string())),
    }
}

fn handle_apply(state: &ServerState, session: &Session, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let edits = match body.get("edits") {
        Some(Json::Arr(edits)) if !edits.is_empty() => edits,
        _ => {
            return json_response(
                400,
                err_json("bad_request", "body needs a non-empty \"edits\" array"),
            )
        }
    };
    let deadline = request_deadline(state, &body);
    let start = Instant::now();
    let mut applied = 0usize;
    let mut pending = 0usize;
    let mut slots = Vec::new();
    let mut timed_out = false;
    for edit in edits {
        let (edit, meta) = match edit_from_json(edit) {
            Ok(decoded) => decoded,
            Err(e) => return json_response(400, err_json("bad_edit", &e.to_string())),
        };
        // The per-request deadline shrinks for each successive edit.
        // Past the deadline the budget clamps to zero rather than
        // skipping: the edit still lands (a cheap journaled geometry
        // change) with its recompute parked as pending pairs, so a
        // timed-out request never silently drops edits.
        let policy = RunPolicy {
            deadline: deadline.map(|d| d.saturating_sub(start.elapsed())),
            faults: None,
        };
        match session.apply(edit, meta, &policy) {
            Ok(delta) => {
                applied += 1;
                pending += delta.pending_added.len();
                slots.push(Json::from(u64::from(delta.id)));
                if delta.status == CompletionStatus::DeadlineExceeded {
                    timed_out = true;
                }
            }
            Err(e) => return json_response(409, err_json("edit_rejected", &e.to_string())),
        }
    }
    let epoch = session.snapshot().epoch;
    if timed_out {
        // The structured timeout response: what landed, what is left
        // pending, and that repair will converge it.
        let deadline_ms = deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
        return json_response(
            408,
            Json::obj([
                ("error", Json::from("deadline_exceeded")),
                ("deadline_ms", Json::from(deadline_ms)),
                ("epoch", Json::from(epoch)),
                ("applied", Json::from(applied)),
                ("requested", Json::from(edits.len())),
                ("pending", Json::from(pending)),
                (
                    "detail",
                    Json::from("deadline hit; applied edits keep their pairs pending until repair"),
                ),
            ]),
        );
    }
    json_response(
        200,
        Json::obj([
            ("epoch", Json::from(epoch)),
            ("applied", Json::from(applied)),
            ("slots", Json::Arr(slots)),
            ("pending", Json::from(pending)),
        ]),
    )
}

fn handle_repair(state: &ServerState, session: &Session, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let deadline = request_deadline(state, &body);
    let delta = session.repair(&RunPolicy {
        deadline,
        faults: None,
    });
    let epoch = session.snapshot().epoch;
    if delta.status == CompletionStatus::DeadlineExceeded {
        return json_response(
            408,
            Json::obj([
                ("error", Json::from("deadline_exceeded")),
                ("epoch", Json::from(epoch)),
                ("installed", Json::from(delta.installed.len())),
                ("still_pending", Json::from(delta.still_pending)),
            ]),
        );
    }
    json_response(
        200,
        Json::obj([
            ("epoch", Json::from(epoch)),
            ("installed", Json::from(delta.installed.len())),
            ("still_pending", Json::from(delta.still_pending)),
            ("status", Json::from(delta.status.to_string().as_str())),
        ]),
    )
}

fn handle_relation(session: &Session, req: &Request) -> Response {
    let slot = |key: &str| req.query_param(key).and_then(|v| v.parse::<u32>().ok());
    let (primary, reference) = match (slot("primary"), slot("reference")) {
        (Some(p), Some(r)) => (p, r),
        _ => {
            return json_response(
                400,
                err_json(
                    "bad_request",
                    "needs integer \"primary\" and \"reference\" params",
                ),
            )
        }
    };
    // Reads run on the snapshot alone: no session lock is held here.
    let snapshot = session.snapshot();
    let relation = snapshot.engine.relation(primary, reference);
    let mut body = relation_to_json(primary, reference, relation);
    if let Json::Obj(fields) = &mut body {
        fields.insert(0, ("epoch".to_string(), Json::from(snapshot.epoch)));
    }
    json_response(200, body)
}

fn handle_relations(session: &Session) -> Response {
    let snapshot = session.snapshot();
    match snapshot.engine.materialize() {
        Ok(pairs) => {
            let slots: Vec<u32> = snapshot.engine.live_regions().map(|(id, _)| id).collect();
            let pairs = pairs
                .iter()
                .map(|p| pair_to_json(slots[p.primary], slots[p.reference], p))
                .collect();
            json_response(
                200,
                Json::obj([
                    ("epoch", Json::from(snapshot.epoch)),
                    ("pairs", Json::Arr(pairs)),
                ]),
            )
        }
        Err(e) => json_response(409, err_json("pending_pairs", &e.to_string())),
    }
}

fn handle_query(session: &Session, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let text = match body.get("query").and_then(Json::as_str) {
        Some(text) => text,
        None => {
            return json_response(
                400,
                err_json("bad_request", "body needs a \"query\" string"),
            )
        }
    };
    let query = match cardir_cardirect::parse_query(text) {
        Ok(query) => query,
        Err(e) => return json_response(400, err_json("bad_query", &e.to_string())),
    };
    let snapshot = session.snapshot();
    let config = match snapshot.configuration() {
        Ok(config) => config,
        Err(detail) => return json_response(409, err_json("bad_configuration", &detail)),
    };
    match cardir_cardirect::evaluate(&query, config) {
        Ok(bindings) => {
            let variables = query
                .variables
                .iter()
                .map(|v| Json::from(v.as_str()))
                .collect();
            let rows = bindings
                .iter()
                .map(|b| Json::Arr(b.values.iter().map(|v| Json::from(v.as_str())).collect()))
                .collect();
            json_response(
                200,
                Json::obj([
                    ("epoch", Json::from(snapshot.epoch)),
                    ("variables", Json::Arr(variables)),
                    ("bindings", Json::Arr(rows)),
                ]),
            )
        }
        Err(e) => json_response(400, err_json("query_failed", &e.to_string())),
    }
}

/// Sessionless batch computation over inline regions, via the spatial
/// join strategy — the server face of `BatchEngine::run_join`. Two
/// regions make it the single-pair endpoint; N regions compute all
/// ordered interacting pairs sub-quadratically.
fn handle_compute(state: &ServerState, req: &Request) -> Response {
    let body = match body_json(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let raw_regions = match body.get("regions") {
        Some(Json::Arr(regions)) if regions.len() >= 2 => regions,
        _ => {
            return json_response(
                400,
                err_json(
                    "bad_request",
                    "body needs a \"regions\" array of 2+ regions",
                ),
            )
        }
    };
    let mut regions = Vec::with_capacity(raw_regions.len());
    for raw in raw_regions {
        match region_from_json(raw) {
            Ok(region) => regions.push(region),
            Err(e) => return json_response(400, err_json("bad_region", &e.to_string())),
        }
    }
    let mode = match body.get("mode").and_then(Json::as_str) {
        Some("qualitative") => EngineMode::Qualitative,
        Some("quantitative") | None => EngineMode::Quantitative,
        Some(other) => {
            return json_response(
                400,
                err_json("bad_request", &format!("unknown mode {other:?}")),
            )
        }
    };
    let deadline = request_deadline(state, &body);
    let cache = RegionCache::build(&regions);
    let engine = BatchEngine::new().with_mode(mode);
    let outcome = engine
        .run_join(
            &cache,
            &RunPolicy {
                deadline,
                faults: None,
            },
        )
        .materialize(&cache);
    if outcome.status == CompletionStatus::DeadlineExceeded {
        return json_response(
            408,
            Json::obj([
                ("error", Json::from("deadline_exceeded")),
                ("succeeded", Json::from(outcome.succeeded)),
                ("skipped", Json::from(outcome.skipped)),
            ]),
        );
    }
    let pairs = outcome
        .relations()
        .map(|p| pair_to_json(p.primary as u32, p.reference as u32, p))
        .collect();
    json_response(
        200,
        Json::obj([
            ("regions", Json::from(regions.len())),
            ("pairs", Json::Arr(pairs)),
            ("failed", Json::from(outcome.failed)),
        ]),
    )
}

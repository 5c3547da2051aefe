//! Per-layer replays for the traced run. Each replay feeds one input
//! set to every layer's public entry point in turn, timing each call
//! under a span, so a layer's cost is the difference between adjacent
//! layers on the very same input.

use crate::common::{
    boot, copy_journal, journal_bytes, journal_path, ms_since, replace_body, store_options,
    EditScript, Lane, WorkDir, SESSION,
};
use crate::stats::{median, paired_diff, Tally};
use crate::Metrics;
use cardir_cardirect::RelationStore;
use cardir_core::{cdr_areas_from_soa, compute_cdr};
use cardir_engine::{
    interacting_pairs, ApplyDelta, BatchEngine, CompletionStatus, Edit, EngineMode,
    IncrementalEngine, RegionCache, RunPolicy,
};
use cardir_geometry::{robust, Region};
use cardir_telemetry::Tracer;
use cardird::{RegionMeta, SessionRegistry};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Engine snapshots the replay times after its edits.
const SNAPSHOTS: usize = 10;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The batch layers over one map: `RegionCache::build`, the MBB sweep
/// (`interacting_pairs`), the fused quantitative kernel over every
/// interacting pair, and a full quantitative `run_join`.
pub fn batch_suite(regions: &[Region], tracer: &Tracer, tally: &mut Tally) -> Metrics {
    let mut trace = tracer.thread(0);
    let mut m = Metrics::default();

    let begin = trace.begin();
    let start = Instant::now();
    let cache = RegionCache::build(regions);
    let cache_ms = ms_since(start);
    trace.end(begin, "engine.cache_build", None);

    let begin = trace.begin();
    let start = Instant::now();
    let (pairs, candidates) = interacting_pairs(&cache);
    let sweep_ms = ms_since(start);
    trace.end(begin, "index.sweep", None);

    let before = robust::stats();
    let begin = trace.begin();
    let start = Instant::now();
    for &(i, j) in &pairs {
        black_box(cdr_areas_from_soa(
            &cache.soa(i as usize),
            cache.mbb(j as usize),
        ));
    }
    let kernel_ms = ms_since(start);
    trace.end(begin, "core.kernel", None);
    let predicates = robust::stats().since(&before);
    let edges: usize = pairs
        .iter()
        .map(|&(i, _)| regions[i as usize].edge_count())
        .sum();
    // The kernel must agree with the naive algorithm on the pairs it ran.
    for &(i, j) in pairs.iter().step_by((pairs.len() / 200).max(1)) {
        let (i, j) = (i as usize, j as usize);
        let got = cdr_areas_from_soa(&cache.soa(i), cache.mbb(j)).0;
        let want = compute_cdr(&regions[i], &regions[j]);
        tally.check(got == want, || {
            format!("kernel ({i},{j}): {got} vs naive {want}")
        });
    }

    let engine = BatchEngine::new()
        .with_mode(EngineMode::Quantitative)
        .with_threads(1);
    let begin = trace.begin();
    let start = Instant::now();
    let outcome = engine.run_join(&cache, &RunPolicy::default());
    let join_ms = ms_since(start);
    trace.end(begin, "engine.run_join", None);
    tally.check(
        outcome.status == CompletionStatus::Complete && outcome.interacting.len() == pairs.len(),
        || {
            format!(
                "run_join: {} exact outcomes, sweep found {}",
                outcome.interacting.len(),
                pairs.len()
            )
        },
    );

    let n = regions.len() as f64;
    let total = n * (n - 1.0);
    m.push("index.sweep_ms", sweep_ms, "ms");
    m.push("index.candidates", candidates as f64, "count");
    m.push(
        "index.interacting_ratio",
        pairs.len() as f64 / candidates as f64,
        "ratio",
    );
    m.push("core.kernel_ms", kernel_ms, "ms");
    m.push(
        "core.kernel_ns_per_edge",
        kernel_ms * 1e6 / edges as f64,
        "ns",
    );
    m.push("core.edges_scanned", edges as f64, "count");
    m.push(
        "geometry.exact_fallback_ratio",
        predicates.exact_fallbacks as f64 / predicates.orient_calls.max(1) as f64,
        "ratio",
    );
    m.push("engine.cache_build_ms", cache_ms, "ms");
    m.push("engine.join_ms", join_ms, "ms");
    m.push(
        "engine.join_overhead_ms",
        join_ms - sweep_ms - kernel_ms,
        "ms",
    );
    m.push(
        "engine.mask_emitted_ratio",
        (total - pairs.len() as f64) / total,
        "ratio",
    );
    m.push(
        "engine.cache_build_share_pct",
        100.0 * cache_ms / (cache_ms + join_ms),
        "%",
    );
    m
}

/// The edit layers over one session state: the first `k` edits of the
/// seeded script, replayed against `IncrementalEngine::apply_with` (+
/// `snapshot`), `RelationStore::apply`, `Session::apply`, and HTTP
/// `/apply`, each layer starting from the state journaled in
/// `journal_dir` (which holds `initial`, slot `i` = region `i`).
///
/// The layers advance in lockstep — edit `j` goes to the engine, the
/// store, the session and the server before edit `j + 1` goes to any —
/// so the per-edit differences between adjacent layers compare calls
/// made within a fraction of a second of each other. Run one layer after
/// another, the host's drift between them was larger than the layer
/// costs being compared (publish measured above the HTTP apply that
/// contains it).
///
/// Every layer checks the pairs each edit installed against the naive
/// algorithm, and the layers above the engine must install as many pairs
/// as the engine did: a store that failed to replay would come up empty
/// and reject the first replace, one that replayed wrongly would install
/// different pairs.
pub fn edit_suite(
    initial: &[Region],
    journal_dir: &Path,
    script_seed: u64,
    k: usize,
    work: &mut WorkDir,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let policy = RunPolicy::default();
    let mut trace = tracer.thread(0);
    let mut script = EditScript::new(script_seed, initial.to_vec());
    let mut engine =
        IncrementalEngine::bootstrap(EngineMode::Quantitative, 1, initial.to_vec(), &policy);

    let store_dir = work.fresh("store")?;
    copy_journal(journal_dir, &store_dir)?;
    let begin = trace.begin();
    let start = Instant::now();
    let mut store = RelationStore::open(journal_path(&store_dir), &[], store_options());
    let replay_ms = ms_since(start);
    trace.end(begin, "journal.open", None);
    let interacting = interacting_pairs(&RegionCache::build(initial)).0.len();
    let bytes_per_pair = journal_bytes(&store_dir)? as f64 / interacting.max(1) as f64;

    let session_dir = work.fresh("session")?;
    copy_journal(journal_dir, &session_dir)?;
    let registry =
        SessionRegistry::new(&session_dir, store_options()).map_err(|e| e.to_string())?;
    let session = registry.open(SESSION)?;

    let http_dir = work.fresh("http")?;
    copy_journal(journal_dir, &http_dir)?;
    let server = boot(&http_dir)?;
    let mut lane = Lane::connect(server.addr(), tracer, 3)?;
    let open = lane.send("http.summary", "GET", &format!("/sessions/{SESSION}"), None)?;
    tally.check(open.status == 200, || {
        format!("session open over HTTP: {}", open.status)
    });
    let apply_path = format!("/sessions/{SESSION}/apply");

    let mut t = EditTimes::default();
    let mut step = || -> Result<(), String> {
        let e = script.next_edit();
        let regions = script.regions();
        let edit = || Edit::Replace(e.slot, e.region.clone());

        let begin = trace.begin();
        let start = Instant::now();
        let delta = engine.apply_with(edit(), &policy);
        t.engine.push(ms_since(start));
        trace.end(begin, "engine.apply_with", None);
        let want = match delta {
            Ok(d) => {
                t.invalidated.push(d.invalidated as f64);
                t.installed.push(d.installed.len() as f64);
                check_installed("engine", &d, regions, d.installed.len(), tally);
                let (a, b) = (e.slot, e.partner);
                let naive = compute_cdr(&regions[a as usize], &regions[b as usize]);
                let got = engine.relation(a, b);
                tally.check(got == Some(naive), || {
                    format!(
                        "engine after the edit of slot {a}: ({a}, {b}) = {got:?}, naive {naive}"
                    )
                });
                d.installed.len()
            }
            Err(err) => {
                tally.check(false, || format!("engine edit of slot {}: {err}", e.slot));
                return Err(format!("the engine rejected the edit of slot {}", e.slot));
            }
        };

        let bytes = journal_bytes(&store_dir)?;
        let begin = trace.begin();
        let start = Instant::now();
        let delta = store.apply(edit(), &policy);
        t.store.push(ms_since(start));
        trace.end(begin, "journal.apply", None);
        match delta {
            Ok(d) => check_installed("store", &d, regions, want, tally),
            Err(err) => tally.check(false, || format!("store edit of slot {}: {err}", e.slot)),
        }
        // A compaction rewrites the journal as one snapshot, shorter than
        // the log it replaces.
        match journal_bytes(&store_dir)?.checked_sub(bytes) {
            Some(grown) => t.bytes.push(grown as f64),
            None => t.compactions += 1,
        }

        let begin = trace.begin();
        let start = Instant::now();
        let delta = session.apply(edit(), RegionMeta::default(), &policy);
        t.session.push(ms_since(start));
        trace.end(begin, "session.apply", None);
        match delta {
            Ok(d) => check_installed("session", &d, regions, want, tally),
            Err(err) => tally.check(false, || format!("session edit of slot {}: {err}", e.slot)),
        }

        let reply = lane.send("http.apply", "POST", &apply_path, Some(&replace_body(&e)))?;
        t.http.push(reply.ms);
        tally.check(reply.status == 200, || {
            format!("HTTP edit of slot {}: {}", e.slot, reply.status)
        });
        Ok(())
    };
    let stepped = (0..k).try_for_each(|_| step());
    drop(lane);
    server.shutdown();
    stepped?;
    drop((store, session, registry));

    let mut snapshot_ms = Vec::new();
    for _ in 0..SNAPSHOTS {
        let begin = trace.begin();
        let start = Instant::now();
        let snapshot = engine.snapshot();
        snapshot_ms.push(ms_since(start));
        trace.end(begin, "engine.snapshot", None);
        drop(snapshot);
    }
    // Point lookups, timed in bulk: a single lookup is near clock resolution.
    let lookups = 4096u32;
    let live = initial.len() as u32;
    let start = Instant::now();
    for q in 0..lookups {
        let (a, b) = (
            q.wrapping_mul(2_654_435_761) % live,
            q.wrapping_mul(40_503) % live,
        );
        black_box(engine.relation(a, b));
    }
    let relation_us = ms_since(start) * 1e3 / f64::from(lookups);

    let publish = median(&paired_diff(&t.session, &t.store));
    let http_apply = median(&t.http);
    let mut m = Metrics::default();
    m.push("engine.edit_ms_p50", median(&t.engine), "ms");
    m.push(
        "engine.pairs_invalidated_per_edit",
        mean(&t.invalidated),
        "count",
    );
    m.push(
        "engine.pairs_recomputed_per_edit",
        mean(&t.installed),
        "count",
    );
    m.push("engine.snapshot_ms_p50", median(&snapshot_ms), "ms");
    m.push("engine.relation_us", relation_us, "us");
    m.push(
        "journal.append_ms_p50",
        median(&paired_diff(&t.store, &t.engine)),
        "ms",
    );
    m.push("journal.bytes_per_edit", mean(&t.bytes), "B");
    m.push("journal.compactions", t.compactions as f64, "count");
    m.push("journal.bytes_per_pair", bytes_per_pair, "B");
    m.push("journal.replay_ms", replay_ms, "ms");
    m.push("session.apply_ms_p50", median(&t.session), "ms");
    m.push("session.publish_ms_p50", publish, "ms");
    m.push(
        "session.publish_share_pct",
        100.0 * publish / http_apply,
        "%",
    );
    m.push("http.apply_ms_p50", http_apply, "ms");
    m.push(
        "http.apply_overhead_ms_p50",
        median(&paired_diff(&t.http, &t.session)),
        "ms",
    );
    Ok(m)
}

/// Per-edit figures of the lockstep replay, in edit order.
#[derive(Default)]
struct EditTimes {
    engine: Vec<f64>,
    store: Vec<f64>,
    session: Vec<f64>,
    http: Vec<f64>,
    invalidated: Vec<f64>,
    installed: Vec<f64>,
    bytes: Vec<f64>,
    compactions: usize,
}

/// Checks the pairs one edit installed against the naive algorithm over
/// the regions as they stand after it, and their number against the
/// engine's for the same edit.
fn check_installed(
    layer: &str,
    delta: &ApplyDelta,
    regions: &[Region],
    want_installed: usize,
    tally: &mut Tally,
) {
    let wrong = delta.installed.iter().find(|p| {
        p.relation != compute_cdr(&regions[p.primary as usize], &regions[p.reference as usize])
    });
    tally.check(
        delta.pending_added.is_empty()
            && delta.installed.len() == want_installed
            && wrong.is_none(),
        || {
            format!(
                "{layer} edit of slot {}: {} pairs installed (engine: {want_installed}), \
                 {} pending, first wrong pair {:?}",
                delta.id,
                delta.installed.len(),
                delta.pending_added.len(),
                wrong.map(|p| (p.primary, p.reference)),
            )
        },
    );
}

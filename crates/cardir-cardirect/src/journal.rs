//! A crash-safe, append-only relation journal backing the incremental
//! engine.
//!
//! The [`RelationStore`] pairs an in-memory
//! [`IncrementalEngine`] with a binary journal on disk. Every applied
//! edit appends one framed record carrying the full delta — the edit,
//! the exact pairs it installed, the pairs it parked as pending — so
//! replay is pure IO: no geometry is recomputed to come back up.
//!
//! # File format
//!
//! ```text
//! header  := magic[8]="CDIRJNL1" version:u32 mode:u8 fingerprint:u64
//! frame   := len:u32 checksum:u64 payload[len]     (checksum = FNV-1a 64)
//! payload := tag:u8 body
//! tags    := 1 Snapshot (slots + exact pairs + pending pairs)
//!            2 Apply    (edit kind, slot, geometry, installed, pending)
//!            3 Repair   (installed pairs moved out of pending)
//! ```
//!
//! All integers are little-endian; coordinates are stored as raw `f64`
//! bits, so geometry and percentage matrices round-trip bit-for-bit.
//! The `fingerprint` hashes the *base* region set the store was opened
//! with: a journal whose header does not match the caller's base (or
//! mode) is **stale** and ignored.
//!
//! # Crash matrix
//!
//! The append path reuses the `save_xml_atomic` fsync discipline: a
//! frame is written at the durable end offset and `fsync`ed before the
//! offset advances; compaction rewrites the whole journal as
//! header+snapshot through a temp file, `fsync`, then an atomic rename.
//!
//! | failure point                  | on-disk outcome     | replay result |
//! |--------------------------------|---------------------|---------------|
//! | mid-append (torn frame)        | clean prefix + tail | tail truncated, prefix state |
//! | after append, before next      | clean journal       | full state |
//! | mid-compaction (temp write)    | old journal intact  | full state (temp ignored) |
//! | mid-compaction (rename)        | old XOR new journal | full state either way |
//! | bit rot inside a frame         | checksum mismatch   | reported corrupt → full recompute |
//! | journal deleted / wrong base   | —                   | full recompute |
//!
//! A *torn tail* (the final record incomplete — its length field or
//! payload runs past end of file) is the signature of a crash and is
//! truncated silently; a checksum mismatch on a *complete* record means
//! the bytes changed under us and degrades to a full recompute, reported
//! via [`ReplaySource::Rebuilt`]. Replay never panics and never installs
//! unvalidated state: decoded pairs pass through
//! [`IncrementalEngine::from_parts`]-style validation, so corrupt-but-
//! checksummed state is rejected rather than served.
//!
//! Compaction encodes the snapshot straight into its frame, and replay
//! reads one frame at a time, so beyond the engine state neither holds
//! more than one snapshot's bytes, however long the journal tail.
//!
//! Every IO step carries a `cardir-faults` failpoint (`journal.append`,
//! `journal.compact.write`, `journal.compact.rename`, `journal.replay`),
//! armed through the plan in [`StoreOptions::faults`], so the `edits`
//! fuzz family can kill the protocol at any byte and assert the replayed
//! store still bit-matches a full recompute.

use cardir_core::{CardinalRelation, PercentageMatrix};
use cardir_engine::{
    ApplyDelta, Edit, EditError, EditKind, EngineMode, EngineSnapshot, IncrementalEngine,
    InstalledPair, RepairDelta, RunPolicy,
};
use cardir_faults::{sites, FaultPlan};
use cardir_geometry::{Point, Polygon, Region};
use cardir_telemetry::Registry;
use std::fmt;
use std::fs;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAGIC: [u8; 8] = *b"CDIRJNL1";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8 + 4 + 1 + 8;
/// Frame prefix: length (u32) + checksum (u64).
const FRAME_PREFIX: u64 = 12;

const TAG_SNAPSHOT: u8 = 1;
const TAG_APPLY: u8 = 2;
const TAG_REPAIR: u8 = 3;

/// An IO failure in the journal layer (possibly injected by a
/// failpoint). Mirrors `PersistError::Io`'s shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The protocol step that failed: `append`, `compact-write`,
    /// `compact-rename`, `truncate`.
    pub op: &'static str,
    /// The path the step was operating on.
    pub path: PathBuf,
    /// The underlying error message.
    pub message: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal {} failed for {}: {}",
            self.op,
            self.path.display(),
            self.message
        )
    }
}

impl std::error::Error for JournalError {}

/// Why a journal could not be replayed and the store fell back to a
/// full recompute of the base regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// No journal file existed.
    Missing,
    /// The journal existed but its *contents* were unusable: bad header,
    /// a checksum mismatch on a complete record, or state that failed
    /// validation.
    Corrupt,
    /// The journal belongs to a different base region set or mode.
    Stale,
    /// The journal could not be read at the IO level (permissions, a
    /// non-directory in the path, device errors) — distinct from
    /// [`Corrupt`](RebuildReason::Corrupt) because the bytes were never
    /// seen, and from [`Missing`](RebuildReason::Missing) because a
    /// healthy cold start looks nothing like an unreadable directory.
    Unreadable,
}

/// How a [`RelationStore`] obtained its state at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplaySource {
    /// The whole journal replayed cleanly.
    Journal,
    /// A torn tail (crashed append) was truncated; the surviving prefix
    /// replayed cleanly.
    TruncatedJournal {
        /// Bytes of torn tail dropped.
        dropped_bytes: u64,
    },
    /// The journal was unusable; the state is a fresh full recompute of
    /// the base regions.
    Rebuilt(RebuildReason),
}

impl ReplaySource {
    /// A short machine-readable label (`journal`, `truncated`,
    /// `rebuilt-missing`, `rebuilt-corrupt`, `rebuilt-stale`,
    /// `rebuilt-unreadable`).
    pub fn label(&self) -> &'static str {
        match self {
            ReplaySource::Journal => "journal",
            ReplaySource::TruncatedJournal { .. } => "truncated",
            ReplaySource::Rebuilt(RebuildReason::Missing) => "rebuilt-missing",
            ReplaySource::Rebuilt(RebuildReason::Corrupt) => "rebuilt-corrupt",
            ReplaySource::Rebuilt(RebuildReason::Stale) => "rebuilt-stale",
            ReplaySource::Rebuilt(RebuildReason::Unreadable) => "rebuilt-unreadable",
        }
    }
}

/// What happened when a store came up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Where the state came from.
    pub source: ReplaySource,
    /// Records replayed from disk (0 on rebuild).
    pub records_replayed: u64,
    /// Time spent reading, checksumming and decoding the replayed
    /// records (zero on rebuild).
    pub decode: Duration,
    /// Time spent installing the decoded records into the engine:
    /// `from_parts` for a snapshot, `replay_apply`/`replay_repair` for
    /// the records after it (zero on rebuild).
    pub install: Duration,
    /// Human-readable detail when the journal was rejected.
    pub detail: Option<String>,
}

/// Tunables of a [`RelationStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Relation computation mode. Part of the journal identity: a
    /// journal written in one mode is stale for the other.
    pub mode: EngineMode,
    /// Worker threads for recompute passes.
    pub threads: usize,
    /// Compaction floor in bytes: a snapshot rewrite triggers once the
    /// append tail since the last snapshot exceeds
    /// `max(compact_threshold, snapshot size / 2)`. Scaling by the
    /// snapshot keeps compaction amortized — a large relation set is not
    /// rewritten for every few kilobytes of appends — and the half bounds
    /// what a reopen replays past the snapshot to half its size, so
    /// restart time varies by at most that much with where the last
    /// compaction fell.
    pub compact_threshold: u64,
    /// Failpoints of the journal's IO steps (`journal.*`); `None`
    /// injects nothing. Recompute faults ride the [`RunPolicy`] each
    /// edit takes instead.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            mode: EngineMode::Quantitative,
            threads: 1,
            compact_threshold: 1 << 20,
            faults: None,
        }
    }
}

/// Cumulative counters of a store's journal traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames appended durably.
    pub appends: u64,
    /// Append attempts that failed (torn or errored); the journal is
    /// re-established by the next compaction.
    pub append_failures: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Compaction attempts that failed (old journal kept).
    pub compaction_failures: u64,
}

/// The journaled relation store: an [`IncrementalEngine`] whose every
/// edit is durably appended to a crash-safe journal. See the module
/// docs for the format and crash matrix.
#[derive(Debug)]
pub struct RelationStore {
    engine: IncrementalEngine,
    path: PathBuf,
    opts: StoreOptions,
    /// Fingerprint of the base region set (journal identity).
    fingerprint: u64,
    /// Bytes of journal known durable and frame-aligned; appends write
    /// at this offset (overwriting any torn tail from a failed append).
    durable_len: u64,
    /// Bytes of header + latest snapshot frame — the base the append
    /// tail is measured against for compaction triggering.
    snapshot_len: u64,
    /// Records currently represented in the durable journal.
    records: u64,
    /// False after a failed append: the in-memory state is ahead of the
    /// journal, and the next write re-establishes it via compaction.
    healthy: bool,
    report: ReplayReport,
    stats: StoreStats,
}

impl RelationStore {
    /// Opens (or creates) the journal at `path` for the given base
    /// region set. The journal replays when it is valid for this base;
    /// otherwise the state is rebuilt by a full recompute and a fresh
    /// journal is written. Never errors: every failure mode degrades to
    /// a recompute, reported in the [`ReplayReport`].
    pub fn open(path: impl Into<PathBuf>, base: &[Region], opts: StoreOptions) -> RelationStore {
        let path = path.into();
        let fingerprint = fingerprint(base, opts.mode);
        let (replayed, rebuilt) = match Self::replay(&path, &opts, fingerprint) {
            Ok(replayed) => (replayed, false),
            Err((reason, detail)) => {
                let engine = IncrementalEngine::bootstrap(
                    opts.mode,
                    opts.threads,
                    base.to_vec(),
                    &RunPolicy::default(),
                );
                let report = ReplayReport {
                    source: ReplaySource::Rebuilt(reason),
                    records_replayed: 0,
                    decode: Duration::ZERO,
                    install: Duration::ZERO,
                    detail,
                };
                // No journal behind the rebuilt engine yet.
                let replayed = Replayed {
                    engine,
                    durable_len: 0,
                    snapshot_len: 0,
                    records: 0,
                    report,
                };
                (replayed, true)
            }
        };
        let mut store = RelationStore {
            engine: replayed.engine,
            path,
            opts,
            fingerprint,
            durable_len: replayed.durable_len,
            snapshot_len: replayed.snapshot_len,
            records: replayed.records,
            healthy: !rebuilt,
            report: replayed.report,
            stats: StoreStats::default(),
        };
        if rebuilt {
            // Write a fresh journal; on failure the store stays usable in
            // memory and the next write retries — but the failure is
            // recorded, so an unwritable journal location is
            // distinguishable from a healthy cold start.
            if let Err(e) = store.compact() {
                let msg = format!("journal not writable at open: {e}");
                store.report.detail = Some(match store.report.detail.take() {
                    Some(d) => format!("{d}; {msg}"),
                    None => msg,
                });
            }
        }
        store
    }

    /// The wrapped engine (read access to relations, stats, state).
    pub fn engine(&self) -> &IncrementalEngine {
        &self.engine
    }

    /// How this store came up.
    pub fn replay_report(&self) -> &ReplayReport {
        &self.report
    }

    /// Journal traffic counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Durable journal size in bytes.
    pub fn journal_bytes(&self) -> u64 {
        self.durable_len
    }

    /// Records in the durable journal.
    pub fn journal_records(&self) -> u64 {
        self.records
    }

    /// Whether the durable journal currently reflects the in-memory
    /// state. `false` after a failed append until a compaction
    /// re-establishes it.
    pub fn journal_healthy(&self) -> bool {
        self.healthy
    }

    /// Whether a durable journal was *ever* established for this store —
    /// by a clean replay, a successful append, or a completed
    /// compaction. `false` means every IO attempt against the journal
    /// location has failed since open (e.g. an unwritable directory):
    /// the store works in memory only, and [`sync`](Self::sync) cannot
    /// succeed until the location becomes writable.
    pub fn journal_writable(&self) -> bool {
        self.healthy || self.stats.appends > 0 || self.stats.compactions > 0
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Applies an edit to the engine and journals the delta. A journal
    /// append failure does **not** fail the edit — the in-memory state
    /// is authoritative and durability is re-established by the next
    /// successful write (see [`journal_healthy`](Self::journal_healthy)).
    pub fn apply(&mut self, edit: Edit, policy: &RunPolicy) -> Result<ApplyDelta, EditError> {
        let delta = self.engine.apply_with(edit, policy)?;
        let mut frame = Vec::new();
        push_frame(&mut frame, |out| encode_apply(out, &delta));
        self.persist(&frame);
        Ok(delta)
    }

    /// Recomputes pending pairs and journals the repairs.
    pub fn repair(&mut self, policy: &RunPolicy) -> RepairDelta {
        let delta = self.engine.repair_with(policy);
        if !delta.installed.is_empty() {
            let mut frame = Vec::new();
            push_frame(&mut frame, |out| encode_repair(out, &delta.installed));
            self.persist(&frame);
        }
        delta
    }

    /// Forces the durable journal to reflect the in-memory state:
    /// compacts when the journal is unhealthy, otherwise a no-op.
    ///
    /// On a store that never had a writable journal (see
    /// [`journal_writable`](Self::journal_writable)) this is a hard
    /// error, not a silent no-op: the compaction retry fails against the
    /// same unwritable location and its [`JournalError`] propagates, so
    /// a caller that believes it synced has actually been told the state
    /// is memory-only.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if !self.healthy {
            self.compact()
        } else {
            Ok(())
        }
    }

    /// Rewrites the journal as header + one snapshot of the current
    /// state, via temp/fsync/rename. The old journal stays authoritative
    /// until the rename lands.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let tmp = {
            let mut name = self
                .path
                .file_name()
                .map(|n| n.to_os_string())
                .unwrap_or_default();
            name.push(".tmp");
            self.path.with_file_name(name)
        };
        // One buffer, sized by the last snapshot: the state is encoded
        // straight into its frame, with no intermediate pair list or copy.
        let mut bytes = Vec::with_capacity((self.snapshot_len as usize).max(4096));
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(mode_byte(self.opts.mode));
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        push_frame(&mut bytes, |out| encode_snapshot(out, &self.engine));

        let faults = self.opts.faults.as_deref();
        let result = (|| {
            let torn = step_fault(faults, sites::JOURNAL_COMPACT_WRITE, "compact-write", &tmp)?;
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("compact-write", &tmp, &e))?;
            match torn {
                Some(n) => {
                    let n = n.min(bytes.len());
                    file.write_all(&bytes[..n])
                        .map_err(|e| io_err("compact-write", &tmp, &e))?;
                    let _ = file.sync_all();
                    return Err(JournalError {
                        op: "compact-write",
                        path: tmp.clone(),
                        message: format!("torn write: {n} of {} bytes persisted", bytes.len()),
                    });
                }
                None => file
                    .write_all(&bytes)
                    .map_err(|e| io_err("compact-write", &tmp, &e))?,
            }
            file.sync_all()
                .map_err(|e| io_err("compact-write", &tmp, &e))?;
            step_fault(
                faults,
                sites::JOURNAL_COMPACT_RENAME,
                "compact-rename",
                &self.path,
            )?;
            fs::rename(&tmp, &self.path).map_err(|e| io_err("compact-rename", &self.path, &e))?;
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    if let Ok(dir) = fs::File::open(parent) {
                        let _ = dir.sync_all();
                    }
                }
            }
            Ok(())
        })();

        match result {
            Ok(()) => {
                self.durable_len = bytes.len() as u64;
                self.snapshot_len = bytes.len() as u64;
                self.records = 1;
                self.healthy = true;
                self.stats.compactions += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.compaction_failures += 1;
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Folds the store's counters into `registry` as `incremental.*`
    /// (on top of the engine's own export).
    pub fn export(&self, registry: &Registry) {
        self.engine.export(registry);
        for (name, value) in [
            ("incremental.journal_bytes", self.durable_len),
            ("incremental.journal_records", self.records),
            ("incremental.journal_appends", self.stats.appends),
            (
                "incremental.journal_append_failures",
                self.stats.append_failures,
            ),
            ("incremental.compactions", self.stats.compactions),
            (
                "incremental.compaction_failures",
                self.stats.compaction_failures,
            ),
        ] {
            registry.counter(name).add(value);
        }
        registry
            .counter(&format!(
                "incremental.replay.{}",
                self.report.source.label()
            ))
            .add(1);
    }

    /// Appends one encoded frame at the durable end offset. On failure
    /// the store is marked unhealthy and the next write compacts
    /// instead; injected panics unwind (a kill mid-append).
    fn persist(&mut self, frame: &[u8]) {
        if !self.healthy {
            let _ = self.compact();
            return;
        }
        match self.append(frame) {
            Ok(()) => {
                self.durable_len += frame.len() as u64;
                self.records += 1;
                self.stats.appends += 1;
                let tail = self.durable_len.saturating_sub(self.snapshot_len);
                if tail > self.opts.compact_threshold.max(self.snapshot_len / 2) {
                    let _ = self.compact();
                }
            }
            Err(_) => {
                self.stats.append_failures += 1;
                self.healthy = false;
            }
        }
    }

    fn append(&self, frame: &[u8]) -> Result<(), JournalError> {
        let faults = self.opts.faults.as_deref();
        let torn = step_fault(faults, sites::JOURNAL_APPEND, "append", &self.path)?;
        let mut file = fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("append", &self.path, &e))?;
        // Write at the durable offset, not EOF: a previous torn append
        // may have left garbage past `durable_len`, which this
        // overwrites, keeping the frame sequence contiguous.
        file.seek(SeekFrom::Start(self.durable_len))
            .map_err(|e| io_err("append", &self.path, &e))?;
        match torn {
            Some(n) => {
                let n = n.min(frame.len());
                file.write_all(&frame[..n])
                    .map_err(|e| io_err("append", &self.path, &e))?;
                let _ = file.sync_data();
                return Err(JournalError {
                    op: "append",
                    path: self.path.clone(),
                    message: format!("torn write: {n} of {} bytes persisted", frame.len()),
                });
            }
            None => file
                .write_all(frame)
                .map_err(|e| io_err("append", &self.path, &e))?,
        }
        file.sync_data()
            .map_err(|e| io_err("append", &self.path, &e))?;
        Ok(())
    }

    /// Replays the journal at `path` into a fresh engine. `Err` carries
    /// the reason the journal must be abandoned (the caller rebuilds).
    #[allow(clippy::result_large_err)]
    fn replay(
        path: &Path,
        opts: &StoreOptions,
        fingerprint: u64,
    ) -> Result<Replayed, (RebuildReason, Option<String>)> {
        if let Some(plan) = &opts.faults {
            if let Err(msg) = plan.step(sites::JOURNAL_REPLAY) {
                return Err((RebuildReason::Corrupt, Some(format!("injected: {msg}"))));
            }
        }
        // Frames are read one at a time, so replay holds one record's
        // bytes — never the whole journal — and its memory does not grow
        // with the tail appended since the last snapshot.
        let (mut reader, total) =
            match fs::File::open(path).and_then(|file| Ok((file.metadata()?.len(), file))) {
                Ok((total, file)) => (BufReader::new(file), total),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err((RebuildReason::Missing, None));
                }
                // Any other open failure means the bytes were never
                // inspected — an IO-level problem (permissions, ENOTDIR,
                // device error), not corruption.
                Err(e) => return Err((RebuildReason::Unreadable, Some(e.to_string()))),
            };
        let unreadable = |e: std::io::Error| (RebuildReason::Unreadable, Some(e.to_string()));
        if total < HEADER_LEN {
            return Err((RebuildReason::Corrupt, Some("truncated header".into())));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header).map_err(unreadable)?;
        if header[..8] != MAGIC {
            return Err((RebuildReason::Corrupt, Some("bad magic".into())));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err((
                RebuildReason::Corrupt,
                Some(format!("unknown version {version}")),
            ));
        }
        if header[12] != mode_byte(opts.mode) {
            return Err((
                RebuildReason::Stale,
                Some("journal written in a different mode".into()),
            ));
        }
        let fp = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
        if fp != fingerprint {
            return Err((
                RebuildReason::Stale,
                Some("journal belongs to a different base region set".into()),
            ));
        }

        let mut offset = HEADER_LEN;
        let mut records = 0u64;
        let mut engine: Option<IncrementalEngine> = None;
        let mut truncated = 0u64;
        let mut snapshot_end = HEADER_LEN;
        let mut prefix = [0u8; FRAME_PREFIX as usize];
        let (mut decode, mut install) = (Duration::ZERO, Duration::ZERO);
        while offset < total {
            let started = Instant::now();
            let remaining = total - offset;
            if remaining >= FRAME_PREFIX {
                reader.read_exact(&mut prefix).map_err(unreadable)?;
            }
            let len = u64::from(u32::from_le_bytes(prefix[..4].try_into().expect("4 bytes")));
            if remaining < FRAME_PREFIX || remaining - FRAME_PREFIX < len {
                // The final record is incomplete: the signature of a
                // crashed append. Truncate to the clean prefix.
                truncated = remaining;
                break;
            }
            let checksum = u64::from_le_bytes(prefix[4..].try_into().expect("8 bytes"));
            let mut payload = vec![0u8; len as usize];
            reader.read_exact(&mut payload).map_err(unreadable)?;
            if fnv1a64(&payload) != checksum {
                // A complete record whose bytes changed: corruption, not
                // a crash.
                return Err((
                    RebuildReason::Corrupt,
                    Some(format!("checksum mismatch in record at byte {offset}")),
                ));
            }
            let decoded = decode_record(&payload).map_err(|e| {
                (
                    RebuildReason::Corrupt,
                    Some(format!("record at byte {offset}: {e}")),
                )
            })?;
            drop(payload);
            let decoded_at = Instant::now();
            decode += decoded_at - started;
            let corrupt = |e: String| {
                (
                    RebuildReason::Corrupt,
                    Some(format!("record at byte {offset}: {e}")),
                )
            };
            match decoded {
                Record::Snapshot {
                    slots,
                    exact,
                    pending,
                } => {
                    let rebuilt = IncrementalEngine::from_parts(
                        opts.mode,
                        opts.threads,
                        slots,
                        exact,
                        pending,
                    )
                    .map_err(|e| corrupt(e.to_string()))?;
                    engine = Some(rebuilt);
                    snapshot_end = offset + FRAME_PREFIX + len;
                }
                Record::Apply {
                    kind,
                    id,
                    region,
                    installed,
                    pending_added,
                } => {
                    let engine = engine
                        .as_mut()
                        .ok_or_else(|| corrupt("apply record before any snapshot".to_string()))?;
                    engine
                        .replay_apply(kind, id, region, installed, pending_added)
                        .map_err(|e| corrupt(e.to_string()))?;
                }
                Record::Repair { installed } => {
                    let engine = engine
                        .as_mut()
                        .ok_or_else(|| corrupt("repair record before any snapshot".to_string()))?;
                    engine
                        .replay_repair(installed)
                        .map_err(|e| corrupt(e.to_string()))?;
                }
            }
            install += decoded_at.elapsed();
            records += 1;
            offset += FRAME_PREFIX + len;
        }
        let Some(engine) = engine else {
            return Err((
                RebuildReason::Corrupt,
                Some("journal has no snapshot".into()),
            ));
        };
        if truncated > 0 {
            // Drop the torn tail on disk so future appends and replays
            // see a frame-aligned file.
            let file = fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| (RebuildReason::Corrupt, Some(e.to_string())))?;
            file.set_len(offset)
                .map_err(|e| (RebuildReason::Corrupt, Some(e.to_string())))?;
            let _ = file.sync_all();
        }
        Ok(Replayed {
            engine,
            durable_len: offset,
            snapshot_len: snapshot_end,
            records,
            report: ReplayReport {
                source: if truncated > 0 {
                    ReplaySource::TruncatedJournal {
                        dropped_bytes: truncated,
                    }
                } else {
                    ReplaySource::Journal
                },
                records_replayed: records,
                decode,
                install,
                detail: None,
            },
        })
    }
}

/// What [`RelationStore::open`] builds a store from: an engine, the
/// journal offsets that describe it on disk, and how it was obtained.
struct Replayed {
    engine: IncrementalEngine,
    /// Frame-aligned journal length after the replay.
    durable_len: u64,
    /// Header plus the latest snapshot frame.
    snapshot_len: u64,
    /// Records in the journal.
    records: u64,
    report: ReplayReport,
}

fn mode_byte(mode: EngineMode) -> u8 {
    match mode {
        EngineMode::Qualitative => 0,
        EngineMode::Quantitative => 1,
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> JournalError {
    JournalError {
        op,
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Checks the failpoint for one journal step ([`FaultPlan::step`]),
/// mapping an injected error into a [`JournalError`].
fn step_fault(
    faults: Option<&FaultPlan>,
    site: &str,
    op: &'static str,
    path: &Path,
) -> Result<Option<usize>, JournalError> {
    faults
        .map_or(Ok(None), |plan| plan.step(site))
        .map_err(|message| JournalError {
            op,
            path: path.to_path_buf(),
            message,
        })
}

/// FNV-1a 64-bit — the workspace's stdlib-only frame checksum. Not
/// cryptographic; it guards against torn writes and bit rot, not
/// adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Identity of a base region set + mode: what the journal header pins.
fn fingerprint(base: &[Region], mode: EngineMode) -> u64 {
    let mut bytes = Vec::new();
    bytes.push(mode_byte(mode));
    bytes.extend_from_slice(&(base.len() as u32).to_le_bytes());
    for region in base {
        encode_region(&mut bytes, region);
    }
    fnv1a64(&bytes)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one frame to `out`: the length and checksum of the payload
/// `encode` writes, then that payload, encoded in place.
fn push_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    let payload = start + FRAME_PREFIX as usize;
    out.resize(payload, 0);
    encode(out);
    let len = (out.len() - payload) as u32;
    let sum = fnv1a64(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..payload].copy_from_slice(&sum.to_le_bytes());
}

fn encode_region(out: &mut Vec<u8>, region: &Region) {
    let polygons = region.polygons();
    out.extend_from_slice(&(polygons.len() as u32).to_le_bytes());
    for polygon in polygons {
        let vertices = polygon.vertices();
        out.extend_from_slice(&(vertices.len() as u32).to_le_bytes());
        for v in vertices {
            out.extend_from_slice(&v.x.to_bits().to_le_bytes());
            out.extend_from_slice(&v.y.to_bits().to_le_bytes());
        }
    }
}

fn encode_pairs(out: &mut Vec<u8>, pairs: &[InstalledPair]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for p in pairs {
        encode_pair(out, p);
    }
}

fn encode_pair(out: &mut Vec<u8>, p: &InstalledPair) {
    out.extend_from_slice(&p.primary.to_le_bytes());
    out.extend_from_slice(&p.reference.to_le_bytes());
    out.extend_from_slice(&p.relation.bits().to_le_bytes());
    match &p.percentages {
        Some(m) => {
            out.push(1);
            for row in m.rows() {
                for cell in row {
                    out.extend_from_slice(&cell.to_bits().to_le_bytes());
                }
            }
        }
        None => out.push(0),
    }
}

fn encode_pending(out: &mut Vec<u8>, pending: &[(u32, u32)]) {
    out.extend_from_slice(&(pending.len() as u32).to_le_bytes());
    for &(a, b) in pending {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn encode_snapshot(out: &mut Vec<u8>, state: &EngineSnapshot) {
    out.push(TAG_SNAPSHOT);
    let slots = state.slot_count() as u32;
    out.extend_from_slice(&slots.to_le_bytes());
    for slot in 0..slots {
        match state.region(slot) {
            Some(region) => {
                out.push(1);
                encode_region(out, region);
            }
            None => out.push(0),
        }
    }
    out.extend_from_slice(&(state.exact_count() as u32).to_le_bytes());
    for p in state.exact_entries() {
        encode_pair(out, &p);
    }
    encode_pending(out, &state.pending_pairs());
}

fn encode_apply(out: &mut Vec<u8>, delta: &ApplyDelta) {
    out.push(TAG_APPLY);
    out.push(match delta.kind {
        EditKind::Insert => 0,
        EditKind::Remove => 1,
        EditKind::Replace => 2,
    });
    out.extend_from_slice(&delta.id.to_le_bytes());
    match &delta.region {
        Some(region) => {
            out.push(1);
            encode_region(out, region);
        }
        None => out.push(0),
    }
    encode_pairs(out, &delta.installed);
    encode_pending(out, &delta.pending_added);
}

fn encode_repair(out: &mut Vec<u8>, installed: &[InstalledPair]) {
    out.push(TAG_REPAIR);
    encode_pairs(out, installed);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Record {
    Snapshot {
        slots: Vec<Option<Region>>,
        exact: Vec<InstalledPair>,
        pending: Vec<(u32, u32)>,
    },
    Apply {
        kind: EditKind,
        id: u32,
        region: Option<Region>,
        installed: Vec<InstalledPair>,
        pending_added: Vec<(u32, u32)>,
    },
    Repair {
        installed: Vec<InstalledPair>,
    },
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "record truncated: wanted {n} bytes, had {}",
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let bits = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        Ok(f64::from_bits(bits))
    }

    /// A count field, sanity-bounded by the bytes actually present so a
    /// corrupt count cannot trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(format!("count {n} exceeds record size"));
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes in record", self.remaining()));
        }
        Ok(())
    }
}

fn decode_region(r: &mut Reader<'_>) -> Result<Region, String> {
    let polygon_count = r.count(4)?;
    let mut polygons = Vec::with_capacity(polygon_count);
    for _ in 0..polygon_count {
        let vertex_count = r.count(16)?;
        let mut vertices = Vec::with_capacity(vertex_count);
        for _ in 0..vertex_count {
            let x = r.f64()?;
            let y = r.f64()?;
            vertices.push(Point::new(x, y));
        }
        polygons.push(Polygon::new(vertices).map_err(|e| format!("invalid polygon: {e}"))?);
    }
    Region::new(polygons).map_err(|e| format!("invalid region: {e}"))
}

fn decode_pairs(r: &mut Reader<'_>) -> Result<Vec<InstalledPair>, String> {
    let count = r.count(11)?;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        // One bounds check for the fixed fields and one for a matrix.
        let head = r.take(11)?;
        let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
        let bits = u16::from_le_bytes([head[8], head[9]]);
        let relation = CardinalRelation::from_bits(bits)
            .ok_or_else(|| format!("invalid relation bits {bits:#06x}"))?;
        let percentages = match head[10] {
            0 => None,
            1 => {
                let mut cells = [[0.0f64; 3]; 3];
                for (cell, bytes) in cells.iter_mut().flatten().zip(r.take(72)?.chunks_exact(8)) {
                    *cell = f64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                }
                Some(PercentageMatrix::from_rows(cells))
            }
            other => return Err(format!("invalid percentage flag {other}")),
        };
        pairs.push(InstalledPair {
            primary: word(0),
            reference: word(4),
            relation,
            percentages,
        });
    }
    Ok(pairs)
}

fn decode_pending(r: &mut Reader<'_>) -> Result<Vec<(u32, u32)>, String> {
    let count = r.count(8)?;
    let mut pending = Vec::with_capacity(count);
    for _ in 0..count {
        let a = r.u32()?;
        let b = r.u32()?;
        pending.push((a, b));
    }
    Ok(pending)
}

fn decode_record(payload: &[u8]) -> Result<Record, String> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_SNAPSHOT => {
            let slot_count = r.count(1)?;
            let mut slots = Vec::with_capacity(slot_count);
            for _ in 0..slot_count {
                match r.u8()? {
                    0 => slots.push(None),
                    1 => slots.push(Some(decode_region(&mut r)?)),
                    other => return Err(format!("invalid slot flag {other}")),
                }
            }
            let exact = decode_pairs(&mut r)?;
            let pending = decode_pending(&mut r)?;
            Record::Snapshot {
                slots,
                exact,
                pending,
            }
        }
        TAG_APPLY => {
            let kind = match r.u8()? {
                0 => EditKind::Insert,
                1 => EditKind::Remove,
                2 => EditKind::Replace,
                other => return Err(format!("invalid edit kind {other}")),
            };
            let id = r.u32()?;
            let region = match r.u8()? {
                0 => None,
                1 => Some(decode_region(&mut r)?),
                other => return Err(format!("invalid geometry flag {other}")),
            };
            let installed = decode_pairs(&mut r)?;
            let pending_added = decode_pending(&mut r)?;
            Record::Apply {
                kind,
                id,
                region,
                installed,
                pending_added,
            }
        }
        TAG_REPAIR => {
            let installed = decode_pairs(&mut r)?;
            Record::Repair { installed }
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    r.done()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::BoundingBox;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "cardir-journal-{tag}-{}-{}.cdj",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::rectangle(BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)))
            .expect("valid rectangle")
    }

    fn base() -> Vec<Region> {
        vec![
            rect(0.0, 0.0, 10.0, 10.0),
            rect(5.0, 5.0, 15.0, 15.0),
            rect(40.0, 40.0, 50.0, 50.0),
            rect(42.0, 0.0, 44.0, 2.0),
        ]
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let mut tmp = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        tmp.push(".tmp");
        let _ = fs::remove_file(path.with_file_name(tmp));
    }

    fn assert_same_state(a: &IncrementalEngine, b: &IncrementalEngine) {
        assert_eq!(
            a.slot_count(),
            b.slot_count(),
            "slot tables differ: {} vs {}",
            a.slot_count(),
            b.slot_count()
        );
        assert!(a.exact_entries().eq(b.exact_entries()));
        assert_eq!(a.pending_pairs(), b.pending_pairs());
        assert_eq!(a.materialize().unwrap(), b.materialize().unwrap());
    }

    #[test]
    fn fresh_store_rebuilds_then_replays_cleanly() {
        let path = scratch("fresh");
        cleanup(&path);
        let opts = StoreOptions::default();
        let policy = RunPolicy::default();

        let mut store = RelationStore::open(&path, &base(), opts.clone());
        assert_eq!(
            store.replay_report().source,
            ReplaySource::Rebuilt(RebuildReason::Missing)
        );
        assert!(store.journal_healthy());

        store
            .apply(Edit::Replace(1, rect(6.0, 6.0, 12.0, 16.0)), &policy)
            .unwrap();
        store
            .apply(Edit::Insert(rect(7.0, 7.0, 8.0, 8.0)), &policy)
            .unwrap();
        store.apply(Edit::Remove(0), &policy).unwrap();
        assert_eq!(store.stats().appends, 3);

        let reopened = RelationStore::open(&path, &base(), opts.clone());
        assert_eq!(reopened.replay_report().source, ReplaySource::Journal);
        assert_eq!(
            reopened.replay_report().records_replayed,
            4,
            "snapshot + 3 applies"
        );
        assert_same_state(store.engine(), reopened.engine());
        cleanup(&path);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_journal() {
        let path = scratch("compact");
        cleanup(&path);
        // Tiny threshold: compact after nearly every edit.
        let opts = StoreOptions {
            compact_threshold: 512,
            ..StoreOptions::default()
        };
        let policy = RunPolicy::default();
        let mut store = RelationStore::open(&path, &base(), opts.clone());
        for i in 0..6 {
            let dx = f64::from(i);
            store
                .apply(
                    Edit::Replace(1, rect(5.0 + dx, 5.0, 15.0 + dx, 15.0)),
                    &policy,
                )
                .unwrap();
        }
        assert!(
            store.stats().compactions > 1,
            "threshold must have triggered compactions"
        );

        let reopened = RelationStore::open(&path, &base(), opts.clone());
        assert_eq!(reopened.replay_report().source, ReplaySource::Journal);
        assert_same_state(store.engine(), reopened.engine());
        cleanup(&path);
    }

    #[test]
    fn stale_journal_is_detected_by_fingerprint_and_mode() {
        let path = scratch("stale");
        cleanup(&path);
        let opts = StoreOptions::default();
        let mut store = RelationStore::open(&path, &base(), opts.clone());
        store.apply(Edit::Remove(0), &RunPolicy::default()).unwrap();

        // Different base set → stale.
        let other_base = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let store2 = RelationStore::open(&path, &other_base, opts.clone());
        assert_eq!(
            store2.replay_report().source,
            ReplaySource::Rebuilt(RebuildReason::Stale)
        );
        assert_eq!(
            store2.engine().live_count(),
            1,
            "state is the new base, fully recomputed"
        );

        // Same base, different mode → stale (store2's rebuild re-wrote
        // the journal for other_base, so open with other_base).
        let qualitative = StoreOptions {
            mode: EngineMode::Qualitative,
            ..opts.clone()
        };
        let store3 = RelationStore::open(&path, &other_base, qualitative);
        assert_eq!(
            store3.replay_report().source,
            ReplaySource::Rebuilt(RebuildReason::Stale)
        );
        cleanup(&path);
    }

    #[test]
    fn corrupt_record_degrades_to_full_recompute() {
        let path = scratch("corrupt");
        cleanup(&path);
        let opts = StoreOptions::default();
        let mut store = RelationStore::open(&path, &base(), opts.clone());
        store
            .apply(
                Edit::Replace(0, rect(1.0, 1.0, 9.0, 9.0)),
                &RunPolicy::default(),
            )
            .unwrap();
        drop(store);

        // Flip one byte inside the first record's payload (well past the
        // header) — a complete frame with a checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let target = HEADER_LEN as usize + FRAME_PREFIX as usize + 3;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let store = RelationStore::open(&path, &base(), opts.clone());
        assert_eq!(
            store.replay_report().source,
            ReplaySource::Rebuilt(RebuildReason::Corrupt)
        );
        assert!(store
            .replay_report()
            .detail
            .as_deref()
            .unwrap()
            .contains("checksum mismatch"));
        // The rebuild recomputed the *base* — the journaled edit is lost
        // with the journal, but the state is complete and correct.
        assert_eq!(store.engine().live_count(), 4);
        assert!(store.engine().materialize().is_ok());
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_replays() {
        let path = scratch("torn");
        cleanup(&path);
        let opts = StoreOptions::default();
        let policy = RunPolicy::default();
        let mut store = RelationStore::open(&path, &base(), opts.clone());
        store
            .apply(Edit::Replace(1, rect(6.0, 6.0, 16.0, 16.0)), &policy)
            .unwrap();
        let durable = store.journal_bytes();
        store
            .apply(Edit::Insert(rect(0.5, 0.5, 0.75, 0.75)), &policy)
            .unwrap();
        drop(store);

        // Cut the last record in half: a crashed append.
        let bytes = fs::read(&path).unwrap();
        let cut = durable as usize + (bytes.len() - durable as usize) / 2;
        fs::write(&path, &bytes[..cut]).unwrap();

        let store = RelationStore::open(&path, &base(), opts.clone());
        match store.replay_report().source {
            ReplaySource::TruncatedJournal { dropped_bytes } => {
                assert_eq!(dropped_bytes as usize, cut - durable as usize);
            }
            ref other => panic!("expected truncated replay, got {other:?}"),
        }
        // The surviving state is the pre-crash durable state.
        assert_eq!(store.engine().live_count(), 4, "the torn insert is gone");
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            durable,
            "tail removed on disk"
        );

        // And the truncated journal replays cleanly next time.
        let again = RelationStore::open(&path, &base(), opts.clone());
        assert_eq!(again.replay_report().source, ReplaySource::Journal);
        assert_same_state(store.engine(), again.engine());
        cleanup(&path);
    }

    #[test]
    fn unreadable_journal_location_is_not_a_healthy_cold_start() {
        // A regular file as the parent "directory" makes every journal
        // IO fail with ENOTDIR — the portable stand-in for an unreadable
        // directory, and unlike permission bits it also stops root (the
        // CI user).
        let blocker = scratch("unreadable-blocker");
        cleanup(&blocker);
        fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("journal.cdj");

        let mut store = RelationStore::open(&path, &base(), StoreOptions::default());
        let report = store.replay_report().clone();
        assert_eq!(
            report.source,
            ReplaySource::Rebuilt(RebuildReason::Unreadable),
            "an IO-level read failure must not masquerade as missing or corrupt"
        );
        assert_eq!(report.source.label(), "rebuilt-unreadable");
        let detail = report
            .detail
            .as_deref()
            .expect("detail carries both failures");
        assert!(detail.contains("journal not writable at open"), "{detail}");
        assert!(!store.journal_healthy(), "no durable journal exists");
        assert!(!store.journal_writable(), "no journal IO ever succeeded");

        // The store still works in memory…
        store.apply(Edit::Remove(0), &RunPolicy::default()).unwrap();
        assert_eq!(store.engine().live_count(), 3);
        // …but sync() must reject rather than pretend durability.
        let err = store.sync().expect_err("sync on a never-writable journal");
        assert_eq!(err.op, "compact-write");
        assert!(!store.journal_writable());
        assert_eq!(store.stats().appends, 0);

        // A healthy cold start, for contrast, reports Missing + writable.
        let ok_path = scratch("coldstart");
        cleanup(&ok_path);
        let store = RelationStore::open(&ok_path, &base(), StoreOptions::default());
        assert_eq!(
            store.replay_report().source,
            ReplaySource::Rebuilt(RebuildReason::Missing)
        );
        assert!(store.journal_healthy());
        assert!(store.journal_writable());
        cleanup(&ok_path);
        cleanup(&blocker);
    }

    #[test]
    fn export_carries_journal_counters_and_replay_outcome() {
        let path = scratch("export");
        cleanup(&path);
        let mut store = RelationStore::open(&path, &base(), StoreOptions::default());
        store.apply(Edit::Remove(3), &RunPolicy::default()).unwrap();
        let registry = Registry::new();
        store.export(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("incremental.journal_appends"), Some(1));
        assert_eq!(
            snap.counter("incremental.compactions"),
            Some(1),
            "creation compacts once"
        );
        assert_eq!(snap.counter("incremental.replay.rebuilt-missing"), Some(1));
        assert!(snap.counter("incremental.journal_bytes").unwrap() > HEADER_LEN);
        cleanup(&path);
    }

    #[test]
    fn decode_rejects_malformed_records_without_panicking() {
        // Unknown tag.
        assert!(decode_record(&[99]).is_err());
        // Truncated snapshot.
        assert!(decode_record(&[TAG_SNAPSHOT, 1, 0, 0]).is_err());
        // Apply with an invalid relation-bits value.
        let mut bad = vec![TAG_APPLY, 0];
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.push(0);
        bad.extend_from_slice(&1u32.to_le_bytes()); // one installed pair
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&0u16.to_le_bytes()); // relation bits 0: invalid
        bad.push(0);
        bad.extend_from_slice(&0u32.to_le_bytes());
        let err = decode_record(&bad).unwrap_err();
        assert!(err.contains("invalid relation bits"), "{err}");
        // Trailing garbage is rejected.
        let mut snapshot = Vec::new();
        encode_snapshot(
            &mut snapshot,
            &IncrementalEngine::bootstrap(
                EngineMode::Qualitative,
                1,
                Vec::new(),
                &RunPolicy::default(),
            ),
        );
        snapshot.push(0);
        assert!(decode_record(&snapshot).unwrap_err().contains("trailing"));
    }
}

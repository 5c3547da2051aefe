//! Crash-safe persistence for configuration XML files.
//!
//! Overwriting a configuration in place means a crash mid-write (power
//! loss, a killed process, a full disk) can leave the only copy torn:
//! half the new bytes, none of the old. [`save_xml_atomic`] closes that
//! window with the classic write-temp / fsync / rename protocol:
//!
//! 1. serialise into `<file>.tmp` in the same directory and `fsync` it,
//! 2. copy the current primary (if any) to `<file>.bak` — the previous
//!    generation survives as a recovery point,
//! 3. atomically `rename` the temp over the primary, then best-effort
//!    `fsync` the parent directory so the rename itself is durable.
//!
//! A crash before the rename leaves the old primary untouched; a crash
//! after leaves the new one complete. There is no interleaving that
//! loses both generations. [`load_config`] is the matching recovery
//! path: it tries the primary and silently falls back to `<file>.bak`
//! when the primary is missing, unreadable, or fails XML validation,
//! reporting which [`LoadSource`] won.
//!
//! Every step carries a `cardir-faults` failpoint
//! (`xml.write.{create,data,flush,backup,rename}`, `xml.read.primary`),
//! so tests can kill the protocol at any point and assert the
//! configuration is still loadable.

use super::schema::{from_xml, to_xml, XmlError};
use crate::model::Configuration;
use cardir_faults::{sites, FaultAction};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// An error from the crash-safe persistence layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// A filesystem operation failed (or a failpoint injected a
    /// failure). `op` names the protocol step: `create`, `write`,
    /// `flush`, `backup`, `rename`, `read`.
    Io {
        /// The protocol step that failed.
        op: &'static str,
        /// The path the step was operating on.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// The file was readable but not a valid configuration document.
    Xml(XmlError),
    /// The primary failed *and* an existing backup also failed. Both
    /// causes are preserved: the primary's error says why the file
    /// operators care about was rejected, the backup's why recovery
    /// could not paper over it.
    RecoveryFailed {
        /// Why the primary was rejected.
        primary: Box<PersistError>,
        /// Why the `.bak` generation was rejected too.
        backup: Box<PersistError>,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, path, message } => {
                write!(f, "{op} failed for {}: {message}", path.display())
            }
            PersistError::Xml(e) => write!(f, "invalid configuration XML: {e}"),
            PersistError::RecoveryFailed { primary, backup } => {
                write!(f, "primary failed ({primary}); backup recovery failed ({backup})")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<XmlError> for PersistError {
    fn from(e: XmlError) -> Self {
        PersistError::Xml(e)
    }
}

/// What [`save_xml_atomic`] did, for callers that report to users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Serialised size of the document in bytes.
    pub bytes: usize,
    /// `true` when a previous primary existed and was preserved as the
    /// `.bak` generation.
    pub backup_created: bool,
    /// `true` when the save replaced an existing primary (as opposed to
    /// creating the file fresh).
    pub replaced: bool,
}

/// Which file satisfied a [`load_config`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// The primary file was intact.
    Primary,
    /// The primary was missing or corrupt; the `.bak` generation was
    /// loaded instead.
    Backup,
}

/// A successfully recovered configuration plus its provenance.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The parsed configuration.
    pub config: Configuration,
    /// Where it came from.
    pub source: LoadSource,
}

/// The backup generation's path: the primary's file name with `.bak`
/// appended (`map.xml` → `map.xml.bak`).
pub fn backup_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".bak");
    path.with_file_name(name)
}

/// The in-flight temp path used by [`save_xml_atomic`] (`map.xml` →
/// `map.xml.tmp`). Exposed so tests can assert no temp debris is left
/// behind.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Checks the failpoint for one protocol step. Returns the torn-write
/// byte budget if one was injected; propagates injected errors; injected
/// panics unwind from here (the step is "mid-write" from the caller's
/// point of view).
fn step_fault(
    site: &str,
    op: &'static str,
    path: &Path,
) -> Result<Option<usize>, PersistError> {
    match cardir_faults::hit(site) {
        Some(FaultAction::Panic(msg)) => panic!("injected panic at {site}: {msg}"),
        Some(FaultAction::Error(msg)) | Some(FaultAction::IoError(msg)) => {
            Err(PersistError::Io { op, path: path.to_path_buf(), message: msg })
        }
        Some(FaultAction::TornWrite(n)) => Ok(Some(n)),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(None)
        }
        None => Ok(None),
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> PersistError {
    PersistError::Io { op, path: path.to_path_buf(), message: e.to_string() }
}

/// Serialises `config` and saves it to `path` with the atomic
/// write-temp / fsync / backup / rename protocol: the fsynced `<file>.tmp`
/// is renamed over the primary after the old primary is copied to
/// `<file>.bak`. On any failure the primary is left exactly as it was and
/// the temp file is removed.
pub fn save_xml_atomic(config: &Configuration, path: &Path) -> Result<SaveReport, PersistError> {
    let xml = to_xml(config);
    let tmp = temp_path(path);
    let bak = backup_path(path);

    // Write + fsync the temp file; on any error, remove the debris so a
    // retry starts clean.
    let write_result = write_temp(&xml, &tmp);
    if let Err(e) = write_result {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }

    // Preserve the previous generation before the rename makes the new
    // one primary.
    let had_primary = path.exists();
    if had_primary {
        if let Err(e) = step_fault(sites::XML_WRITE_BACKUP, "backup", &bak) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::copy(path, &bak).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err("backup", &bak, &e)
        })?;
    }

    if let Err(e) = step_fault(sites::XML_WRITE_RENAME, "rename", path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err("rename", path, &e)
    })?;

    // Make the rename itself durable. Not all platforms support opening
    // a directory for fsync, so this is best-effort.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }

    Ok(SaveReport { bytes: xml.len(), backup_created: had_primary, replaced: had_primary })
}

/// The temp-file half of the protocol: create, write (honouring an
/// injected torn-write budget), flush, fsync.
fn write_temp(xml: &str, tmp: &Path) -> Result<(), PersistError> {
    step_fault(sites::XML_WRITE_CREATE, "create", tmp)?;
    let mut file = fs::File::create(tmp).map_err(|e| io_err("create", tmp, &e))?;

    let torn = step_fault(sites::XML_WRITE_DATA, "write", tmp)?;
    let bytes = xml.as_bytes();
    match torn {
        // A torn write: only the first `n` bytes reach the disk, then
        // the "process dies" — surfaced as an error after the partial
        // payload is really in the file, like a crashed writer leaves it.
        Some(n) => {
            let n = n.min(bytes.len());
            file.write_all(&bytes[..n]).map_err(|e| io_err("write", tmp, &e))?;
            let _ = file.sync_all();
            return Err(PersistError::Io {
                op: "write",
                path: tmp.to_path_buf(),
                message: format!("torn write: {n} of {} bytes persisted", bytes.len()),
            });
        }
        None => file.write_all(bytes).map_err(|e| io_err("write", tmp, &e))?,
    }

    step_fault(sites::XML_WRITE_FLUSH, "flush", tmp)?;
    file.sync_all().map_err(|e| io_err("flush", tmp, &e))?;
    Ok(())
}

/// Loads a configuration from `path`, falling back to the `.bak`
/// generation when the primary is missing, unreadable, or torn.
///
/// When no backup exists the primary's error is returned as-is; when a
/// backup exists but also fails, both errors are surfaced together as
/// [`PersistError::RecoveryFailed`], so operators still see why the
/// primary was rejected. A successful backup recovery is not an error,
/// but it is counted via [`cardir_faults::note_recovery`] so telemetry
/// shows it.
pub fn load_config(path: &Path) -> Result<Loaded, PersistError> {
    let primary_err = match read_parse(path, sites::XML_READ_PRIMARY) {
        Ok(config) => return Ok(Loaded { config, source: LoadSource::Primary }),
        Err(e) => e,
    };
    let bak = backup_path(path);
    if bak.exists() {
        match read_parse(&bak, "") {
            Ok(config) => {
                cardir_faults::note_recovery();
                return Ok(Loaded { config, source: LoadSource::Backup });
            }
            Err(backup_err) => {
                return Err(PersistError::RecoveryFailed {
                    primary: Box::new(primary_err),
                    backup: Box::new(backup_err),
                })
            }
        }
    }
    Err(primary_err)
}

/// Reads and parses one candidate file; `site` optionally names a read
/// failpoint (empty for the backup — recovery itself is not injectable).
fn read_parse(path: &Path, site: &str) -> Result<Configuration, PersistError> {
    if !site.is_empty() {
        step_fault(site, "read", path)?;
    }
    let text = fs::read_to_string(path).map_err(|e| io_err("read", path, &e))?;
    Ok(from_xml(&text)?)
}

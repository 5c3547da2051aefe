//! Crash-safe persistence tests: the atomic save protocol, the `.bak`
//! generation, and recovery from torn or killed writes — driven by
//! `cardir-faults` plans that each test hands to the calls it faults, so
//! the tests run in parallel.

use cardir_cardirect::xml::{backup_path, load_config, save_xml_atomic, temp_path, LoadSource};
use cardir_cardirect::Configuration;
use cardir_faults::{sites, FaultAction, FaultPlan, Trigger};
use cardir_geometry::Region;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cardir-persist-{tag}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
    Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
}

fn sample(name: &str) -> Configuration {
    let mut config = Configuration::new(name, "map.png");
    config
        .add_region("a", "A", "red", rect(0.0, 0.0, 1.0, 1.0))
        .unwrap();
    config
        .add_region("b", "B", "blue", rect(3.0, 0.0, 4.0, 1.0))
        .unwrap();
    config.compute_all_relations();
    config
}

#[test]
fn fresh_save_then_load_roundtrips() {
    let dir = tempdir("fresh");
    let path = dir.join("config.xml");

    let report = save_xml_atomic(&sample("v1"), &path, None).unwrap();
    assert!(report.bytes > 0);
    assert!(!report.backup_created, "no previous generation existed");
    assert!(!report.replaced);
    assert!(!temp_path(&path).exists(), "no temp debris");
    assert!(!backup_path(&path).exists());

    let loaded = load_config(&path, None).unwrap();
    assert_eq!(loaded.source, LoadSource::Primary);
    assert_eq!(loaded.config.name, "v1");
    assert_eq!(loaded.config.relations().len(), 2);
}

#[test]
fn resave_keeps_previous_generation_as_backup() {
    let dir = tempdir("resave");
    let path = dir.join("config.xml");

    save_xml_atomic(&sample("v1"), &path, None).unwrap();
    let report = save_xml_atomic(&sample("v2"), &path, None).unwrap();
    assert!(report.backup_created);
    assert!(report.replaced);

    // Primary is the new generation; `.bak` is the old one.
    assert_eq!(load_config(&path, None).unwrap().config.name, "v2");
    let bak = load_config(&backup_path(&path), None);
    // Loading the backup path directly reads it as a primary.
    assert_eq!(bak.unwrap().config.name, "v1");
}

#[test]
fn torn_write_leaves_primary_loadable() {
    let dir = tempdir("torn");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();

    // The next save tears mid-stream: only 40 bytes reach the temp file.
    let plan = FaultPlan::new();
    plan.arm(
        sites::XML_WRITE_DATA,
        FaultAction::TornWrite(40),
        Trigger::Times(1),
    );
    let err = save_xml_atomic(&sample("v2"), &path, Some(&plan)).unwrap_err();
    assert!(err.to_string().contains("torn write"), "{err}");

    // The failed save touched only the temp file — and cleaned it up.
    assert!(!temp_path(&path).exists(), "temp debris was removed");
    let loaded = load_config(&path, None).unwrap();
    assert_eq!(loaded.source, LoadSource::Primary);
    assert_eq!(loaded.config.name, "v1");
}

#[test]
fn mid_write_kill_leaves_configuration_loadable() {
    let dir = tempdir("kill");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();

    // "Kill" the writer mid-stream: an injected panic unwinds out of the
    // data step, before the rename — like a process dying there.
    let plan = FaultPlan::new();
    plan.arm(
        sites::XML_WRITE_DATA,
        FaultAction::Panic("killed mid-write".into()),
        Trigger::Times(1),
    );
    let config = sample("v2");
    let result = catch_unwind(AssertUnwindSafe(|| {
        save_xml_atomic(&config, &path, Some(&plan))
    }));
    assert!(result.is_err(), "the injected panic escaped the save");

    // The primary never saw a single byte of the doomed save.
    let loaded = load_config(&path, None).unwrap();
    assert_eq!(loaded.source, LoadSource::Primary);
    assert_eq!(loaded.config.name, "v1");
}

#[test]
fn corrupt_primary_recovers_from_backup() {
    let dir = tempdir("recover");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();
    save_xml_atomic(&sample("v2"), &path, None).unwrap();

    // Simulate a torn in-place overwrite by an older tool: truncate the
    // primary mid-document.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    let loaded = load_config(&path, None).unwrap();
    assert_eq!(
        loaded.source,
        LoadSource::Backup,
        "the load reports its recovery"
    );
    assert_eq!(loaded.config.name, "v1", "the previous generation survives");
}

#[test]
fn unreadable_primary_recovers_from_backup() {
    let dir = tempdir("unreadable");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();
    save_xml_atomic(&sample("v2"), &path, None).unwrap();

    // The read itself fails (EIO, say) — injected at the read failpoint.
    let plan = FaultPlan::new();
    plan.arm(
        sites::XML_READ_PRIMARY,
        FaultAction::IoError("injected EIO".into()),
        Trigger::Times(1),
    );
    let loaded = load_config(&path, Some(&plan)).unwrap();
    assert_eq!(plan.fired(sites::XML_READ_PRIMARY), 1);
    assert_eq!(loaded.source, LoadSource::Backup);
    assert_eq!(loaded.config.name, "v1");
}

#[test]
fn missing_primary_and_backup_reports_the_primary_error() {
    let dir = tempdir("missing");
    let err = load_config(&dir.join("nope.xml"), None).unwrap_err();
    assert!(err.to_string().contains("read failed"), "{err}");
}

#[test]
fn corrupt_primary_and_backup_surface_both_errors() {
    let dir = tempdir("bothbad");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();
    save_xml_atomic(&sample("v2"), &path, None).unwrap();

    // Corrupt both generations differently, so the message provably
    // carries each file's own cause.
    std::fs::write(&path, "<configuration but torn").unwrap();
    std::fs::write(backup_path(&path), "not xml at all").unwrap();

    let err = load_config(&path, None).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("primary failed (") && msg.contains("backup recovery failed ("),
        "message must name both causes: {msg}"
    );
    assert!(
        msg.contains("invalid configuration XML"),
        "primary parse cause lost: {msg}"
    );
    match err {
        cardir_cardirect::PersistError::RecoveryFailed { primary, backup } => {
            assert!(
                primary.to_string().contains("invalid configuration XML"),
                "{primary}"
            );
            assert!(
                backup.to_string().contains("invalid configuration XML"),
                "{backup}"
            );
        }
        other => panic!("expected RecoveryFailed, got {other:?}"),
    }
}

#[test]
fn injected_failures_at_every_write_step_leave_old_generation_intact() {
    let dir = tempdir("steps");
    let path = dir.join("config.xml");
    save_xml_atomic(&sample("v1"), &path, None).unwrap();

    for site in [
        sites::XML_WRITE_CREATE,
        sites::XML_WRITE_DATA,
        sites::XML_WRITE_FLUSH,
        sites::XML_WRITE_BACKUP,
        sites::XML_WRITE_RENAME,
    ] {
        let plan = FaultPlan::new();
        plan.arm(
            site,
            FaultAction::IoError(format!("injected at {site}")),
            Trigger::Times(1),
        );
        let err = save_xml_atomic(&sample("v2"), &path, Some(&plan)).unwrap_err();
        assert!(err.to_string().contains("injected"), "{site}: {err}");
        assert!(
            !temp_path(&path).exists(),
            "{site}: temp debris left behind"
        );
        let loaded = load_config(&path, None).unwrap();
        assert_eq!(loaded.config.name, "v1", "{site}: old generation lost");
    }

    // With no failpoint armed the same save goes through.
    save_xml_atomic(&sample("v2"), &path, None).unwrap();
    assert_eq!(load_config(&path, None).unwrap().config.name, "v2");
}

#[test]
fn write_latency_injection_does_not_change_the_outcome() {
    let dir = tempdir("latency");
    let path = dir.join("config.xml");
    let plan = FaultPlan::new();
    plan.arm(
        sites::XML_WRITE_FLUSH,
        FaultAction::Delay(Duration::from_millis(5)),
        Trigger::Always,
    );
    save_xml_atomic(&sample("v1"), &path, Some(&plan)).unwrap();
    assert_eq!(plan.fired(sites::XML_WRITE_FLUSH), 1);
    assert_eq!(load_config(&path, None).unwrap().config.name, "v1");
}

#[test]
fn configuration_convenience_methods_roundtrip() {
    let dir = tempdir("methods");
    let path = dir.join("config.xml");
    let config = sample("via-methods");
    config.save_to(&path).unwrap();
    let loaded = Configuration::load_from(&path).unwrap();
    assert_eq!(loaded.config.name, "via-methods");
    assert_eq!(loaded.config.relations().len(), config.relations().len());
}

//! End-to-end tests of the `cardirect` CLI binary.

use cardir_cardirect::{to_xml, Configuration};
use cardir_geometry::Region;
use std::process::Command;

fn sample_xml() -> String {
    let mut config = Configuration::new("strip", "map.png");
    let rect = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Region::from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]).unwrap()
    };
    config
        .add_region("left", "Left", "red", rect(0.0, 0.0, 1.0, 1.0))
        .unwrap();
    config
        .add_region("mid", "Middle", "blue", rect(2.0, 0.0, 3.0, 1.0))
        .unwrap();
    config
        .add_region("right", "Right", "red", rect(4.0, 0.0, 5.0, 1.0))
        .unwrap();
    to_xml(&config)
}

fn write_sample(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("config.xml");
    std::fs::write(&path, sample_xml()).unwrap();
    path
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cardirect"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cardirect-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn show_lists_regions() {
    let dir = tempdir("show");
    let path = write_sample(&dir);
    let out = bin().arg("show").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("3 regions"), "{text}");
    assert!(text.contains("left"));
    assert!(text.contains("color=blue"));
}

#[test]
fn compute_writes_relations() {
    let dir = tempdir("compute");
    let path = write_sample(&dir);
    let out_path = dir.join("out.xml");
    let out = bin()
        .arg("compute")
        .arg(&path)
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    assert!(text.contains("<Relation"), "{text}");
    // 3 regions → 6 ordered pairs.
    assert_eq!(text.matches("<Relation").count(), 6);
}

#[test]
fn compute_to_stdout() {
    let dir = tempdir("stdout");
    let path = write_sample(&dir);
    let out = bin().arg("compute").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("<?xml"));
    assert!(text.contains("<Relation"));
}

#[test]
fn query_returns_bindings() {
    let dir = tempdir("query");
    let path = write_sample(&dir);
    let out = bin()
        .arg("query")
        .arg(&path)
        .arg("{(x, y) | color(x) = red, color(y) = blue, x W y}")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("left\tmid"), "{text}");
    assert!(text.contains("1 answer(s)"), "{text}");
}

#[test]
fn pct_prints_matrix() {
    let dir = tempdir("pct");
    let path = write_sample(&dir);
    let out = bin()
        .arg("pct")
        .arg(&path)
        .arg("left")
        .arg("mid")
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("left W mid"), "{text}");
    assert!(text.contains("100.0%"), "{text}");
}

#[test]
fn errors_are_reported() {
    let out = bin()
        .arg("show")
        .arg("/nonexistent/nope.xml")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let dir = tempdir("badquery");
    let path = write_sample(&dir);
    let out = bin()
        .arg("query")
        .arg(&path)
        .arg("{(x | broken")
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Subcommands"));
}

//! Validates a telemetry JSON-lines file: every line must parse with the
//! workspace's own hand-rolled parser, be an object, and carry a string
//! `type` field; the file must contain at least one record. Used by the
//! CI telemetry smoke so bench emission stays machine-readable without
//! any external tooling.
//!
//! Usage: `json_check PATH [--require TYPE.FIELD]...` — exits 0 and
//! prints a record tally on success, exits 1 with a diagnostic on the
//! first malformed line. Each `--require TYPE.FIELD` additionally
//! demands at least one record of the given `type` carrying the given
//! field (e.g. `--require geometry.exact_fallback` pins the robust
//! predicate counters into the bench emission contract).

use cardir_telemetry::{parse_json, Json};

fn main() {
    let mut path: Option<String> = None;
    let mut requires: Vec<(String, String)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require" {
            let spec = args.next().unwrap_or_default();
            match spec.split_once('.') {
                Some((ty, field)) if !ty.is_empty() && !field.is_empty() => {
                    requires.push((ty.to_string(), field.to_string()));
                }
                _ => {
                    eprintln!("json_check: --require expects TYPE.FIELD, got {spec:?}");
                    std::process::exit(2);
                }
            }
        } else if path.is_none() {
            path = Some(arg);
        } else {
            eprintln!("usage: json_check PATH [--require TYPE.FIELD]...");
            std::process::exit(2);
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("usage: json_check PATH [--require TYPE.FIELD]...");
        std::process::exit(2);
    });
    let content = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("json_check: cannot read {path}: {e}");
        std::process::exit(1);
    });

    let mut records = 0usize;
    let mut satisfied = vec![false; requires.len()];
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json(line).unwrap_or_else(|e| {
            eprintln!("json_check: {path}:{}: {e}", lineno + 1);
            std::process::exit(1);
        });
        if !matches!(value, Json::Obj(_)) {
            eprintln!("json_check: {path}:{}: record is not an object", lineno + 1);
            std::process::exit(1);
        }
        let Some(ty) = value.get("type").and_then(Json::as_str) else {
            eprintln!(
                "json_check: {path}:{}: record has no string \"type\" field",
                lineno + 1
            );
            std::process::exit(1);
        };
        for (i, (req_ty, req_field)) in requires.iter().enumerate() {
            if ty == req_ty && value.get(req_field).is_some() {
                satisfied[i] = true;
            }
        }
        records += 1;
    }
    if records == 0 {
        eprintln!("json_check: {path}: no records");
        std::process::exit(1);
    }
    let mut missing = false;
    for ((ty, field), ok) in requires.iter().zip(&satisfied) {
        if !ok {
            eprintln!("json_check: {path}: no \"{ty}\" record carries field \"{field}\"");
            missing = true;
        }
    }
    if missing {
        std::process::exit(1);
    }
    println!("{path}: {records} well-formed records");
}

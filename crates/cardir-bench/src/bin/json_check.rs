//! Validates a telemetry JSON-lines file: every line must parse with the
//! workspace's own hand-rolled parser, be an object, and carry a string
//! `type` field; the file must contain at least one record. Used by the
//! CI telemetry smoke so bench emission stays machine-readable without
//! any external tooling.
//!
//! Usage: `json_check PATH [--require TYPE.FIELD]...
//! [--max-ratio TYPE.NUM/TYPE.DEN=BOUND]...` — exits 0 and prints a
//! record tally on success, exits 1 with a diagnostic on the first
//! malformed line. Each `--require TYPE.FIELD` additionally demands at
//! least one record of the given `type` carrying the given field (e.g.
//! `--require geometry.exact_fallback` pins the robust predicate counters
//! into the bench emission contract). Each `--max-ratio` demands at least
//! one record of `TYPE` carrying both fields, and fails when any such
//! record's `NUM / DEN` exceeds `BOUND` or is not a finite number (e.g.
//! `--max-ratio join.unattributed_ns/join.elapsed_ns=0.05` bounds the
//! join's wall time outside its named phases to 5 %).

use cardir_telemetry::{parse_json, Json};

const USAGE: &str =
    "usage: json_check PATH [--require TYPE.FIELD]... [--max-ratio TYPE.NUM/TYPE.DEN=BOUND]...";

/// One `--max-ratio` bound: records of type `ty` must keep
/// `num / den <= bound`.
struct RatioBound {
    ty: String,
    num: String,
    den: String,
    bound: f64,
}

/// Parses `TYPE.NUM/TYPE.DEN=BOUND`; both fields must name one type.
fn parse_ratio(spec: &str) -> Option<RatioBound> {
    let (ratio, bound) = spec.split_once('=')?;
    let (num, den) = ratio.split_once('/')?;
    let (ty, num) = num.split_once('.')?;
    let (den_ty, den) = den.split_once('.')?;
    let bound: f64 = bound.parse().ok()?;
    let named = [ty, num, den].iter().all(|s| !s.is_empty());
    (named && ty == den_ty && bound.is_finite()).then(|| RatioBound {
        ty: ty.to_string(),
        num: num.to_string(),
        den: den.to_string(),
        bound,
    })
}

fn main() {
    let mut path: Option<String> = None;
    let mut requires: Vec<(String, String)> = Vec::new();
    let mut ratios: Vec<RatioBound> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-ratio" {
            let spec = args.next().unwrap_or_default();
            let Some(ratio) = parse_ratio(&spec) else {
                eprintln!("json_check: --max-ratio expects TYPE.NUM/TYPE.DEN=BOUND, got {spec:?}");
                std::process::exit(2);
            };
            ratios.push(ratio);
        } else if arg == "--require" {
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
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let path = path.unwrap_or_else(|| {
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let content = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("json_check: cannot read {path}: {e}");
        std::process::exit(1);
    });

    let mut records = 0usize;
    let mut satisfied = vec![false; requires.len()];
    let mut ratios_seen = vec![false; ratios.len()];
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
        for (i, r) in ratios.iter().enumerate() {
            let field = |name: &str| value.get(name).and_then(Json::as_f64);
            let (true, Some(num), Some(den)) = (ty == r.ty, field(&r.num), field(&r.den)) else {
                continue;
            };
            ratios_seen[i] = true;
            let ratio = num / den;
            // A zero denominator gives NaN or infinity, which fails too.
            if !ratio.is_finite() || ratio > r.bound {
                eprintln!(
                    "json_check: {path}:{}: {ty}.{} / {ty}.{} = {num} / {den} = {ratio}, not <= {}",
                    lineno + 1,
                    r.num,
                    r.den,
                    r.bound
                );
                std::process::exit(1);
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
    for (r, seen) in ratios.iter().zip(&ratios_seen) {
        if !seen {
            eprintln!(
                "json_check: {path}: no \"{}\" record carries both \"{}\" and \"{}\"",
                r.ty, r.num, r.den
            );
            missing = true;
        }
    }
    if missing {
        std::process::exit(1);
    }
    println!("{path}: {records} well-formed records");
}

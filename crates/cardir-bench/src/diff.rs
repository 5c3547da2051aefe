//! Regression comparison between two BENCH-format JSON-lines files.
//!
//! The committed baselines (BENCH_engine.json, BENCH_join.json) are
//! JSON-lines streams of typed records; this module joins a baseline
//! file against a freshly produced one on per-type key fields
//! (`engine_cell` cells are keyed by `mode` + `threads`, `join` records
//! by `regions`) and checks each tracked metric against a regression
//! threshold. The `bench_diff` bin is a thin CLI over [`run_diff`]; CI
//! gates on its exit status with a generous threshold so hard
//! regressions fail the offline gate without flaking on machine noise.

use cardir_telemetry::{parse_json, Json};
use std::fmt;
use std::fmt::Write as _;

/// Why a diff run could not produce a verdict. Every variant is a hard
/// gate failure: CI treats an error exactly like a failed report.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// A config threshold that cannot express a regression allowance.
    BadThreshold(f64),
    /// An input file failed to parse as BENCH-format JSON lines.
    Parse(String),
    /// A compared value or the resulting improvement ratio is NaN or
    /// infinite. Ratio arithmetic is meaningless there, and letting the
    /// row through would let it sort as `Equal` and slide past the gate
    /// — so a non-finite series is a named, hard failure instead.
    NonFiniteRatio {
        /// `TYPE.FIELD` of the offending metric.
        metric: String,
        /// The record's identity, e.g. `mode=qualitative threads=1`.
        key: String,
        /// Baseline value as parsed.
        baseline: f64,
        /// New value as parsed.
        new: f64,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::BadThreshold(t) => write!(f, "threshold must be > 1, got {t}"),
            DiffError::Parse(msg) => write!(f, "{msg}"),
            DiffError::NonFiniteRatio {
                metric,
                key,
                baseline,
                new,
            } => write!(
                f,
                "non-finite ratio: {metric} [{key}] baseline {baseline} vs new {new} \
                 does not admit a finite improvement ratio; refusing to gate"
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// One tracked metric: a record type, the field holding the number, and
/// its direction (throughput-style fields are higher-is-better; latency
/// fields set `lower_is_better`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// The record `type` this metric lives in (e.g. `engine_cell`).
    pub record_type: String,
    /// The numeric field to compare (e.g. `pairs_per_sec`).
    pub field: String,
    /// `true` when smaller is better (e.g. `elapsed_ns`).
    pub lower_is_better: bool,
}

impl MetricSpec {
    /// Parses `TYPE.FIELD` or `TYPE.FIELD:lower`.
    pub fn parse(spec: &str) -> Result<MetricSpec, String> {
        let (body, lower) = match spec.strip_suffix(":lower") {
            Some(body) => (body, true),
            None => (spec, false),
        };
        match body.split_once('.') {
            Some((ty, field)) if !ty.is_empty() && !field.is_empty() => Ok(MetricSpec {
                record_type: ty.to_string(),
                field: field.to_string(),
                lower_is_better: lower,
            }),
            _ => Err(format!(
                "metric spec must be TYPE.FIELD[:lower], got {spec:?}"
            )),
        }
    }
}

/// Configuration of one diff run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Allowed regression factor (> 1). A higher-is-better metric fails
    /// when `new < baseline / threshold`; a lower-is-better one when
    /// `new > baseline * threshold`.
    pub threshold: f64,
    /// Metrics to compare. Records of other types are ignored.
    pub metrics: Vec<MetricSpec>,
    /// Only baseline records whose `field` stringifies to `value` are
    /// compared — e.g. `("threads", "1")` restricts an `engine_cell`
    /// gate to the single-thread cells.
    pub filters: Vec<(String, String)>,
    /// Per-type key fields identifying a record across the two files.
    /// Types not listed fall back to comparing the first record of the
    /// type in each file.
    pub keys: Vec<(String, Vec<String>)>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threshold: 3.0,
            metrics: vec![MetricSpec {
                record_type: "engine_cell".to_string(),
                field: "pairs_per_sec".to_string(),
                lower_is_better: false,
            }],
            filters: Vec::new(),
            keys: vec![
                (
                    "engine_cell".to_string(),
                    vec!["mode".to_string(), "threads".to_string()],
                ),
                ("join".to_string(), vec!["regions".to_string()]),
            ],
        }
    }
}

impl DiffConfig {
    fn key_fields(&self, record_type: &str) -> &[String] {
        self.keys
            .iter()
            .find(|(ty, _)| ty == record_type)
            .map(|(_, fields)| fields.as_slice())
            .unwrap_or(&[])
    }
}

/// One compared series.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// `TYPE.FIELD` of the metric.
    pub metric: String,
    /// The record's identity, e.g. `mode=qualitative threads=1`.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// New value, `None` when the new file has no matching record.
    pub new: Option<f64>,
    /// Improvement factor `≥ 0` oriented so bigger is always better:
    /// `new/baseline` for higher-is-better metrics, `baseline/new` for
    /// lower-is-better ones. `0.0` when the new record is missing.
    pub ratio: f64,
    /// Whether the series stays within the regression threshold.
    pub ok: bool,
}

/// Result of a diff: every compared row, worst first.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Compared series, sorted ascending by improvement ratio (worst
    /// regression first).
    pub rows: Vec<DiffRow>,
    /// The threshold the rows were judged against.
    pub threshold: f64,
}

impl DiffReport {
    /// `true` when every compared series stays within the threshold and
    /// at least one series was compared.
    pub fn passed(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(|r| r.ok)
    }

    /// Human summary, one line per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let verdict = if r.ok { "ok  " } else { "FAIL" };
            match r.new {
                Some(new) => {
                    let _ = writeln!(
                        out,
                        "{verdict} {:<32} {:<28} base {:>14.1}  new {:>14.1}  x{:.3}",
                        r.metric, r.key, r.baseline, new, r.ratio
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{verdict} {:<32} {:<28} base {:>14.1}  new        MISSING",
                        r.metric, r.key, r.baseline
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{} series compared, threshold {:.2}x: {}",
            self.rows.len(),
            self.threshold,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// A parsed record's field as a comparable string (numbers canonicalised
/// through their JSON rendering).
fn field_str(record: &Json, field: &str) -> Option<String> {
    let v = record.get(field)?;
    Some(match v {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    })
}

fn parse_lines(text: &str, what: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_json(line).map_err(|e| format!("{what} line {}: {e}", i + 1)))
        .collect()
}

fn record_key(record: &Json, fields: &[String]) -> String {
    if fields.is_empty() {
        return "(single)".to_string();
    }
    fields
        .iter()
        .map(|f| {
            format!(
                "{f}={}",
                field_str(record, f).unwrap_or_else(|| "?".to_string())
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compares two BENCH-format JSON-lines documents under `cfg`.
///
/// Every baseline record that (a) has a tracked metric's type, (b)
/// passes the filters, and (c) carries the metric field becomes one
/// [`DiffRow`]; a missing counterpart in `new` is a failed row (a
/// vanished series is a regression, not a skip). Errors on unparseable
/// input and on any series whose values or ratio are non-finite
/// ([`DiffError::NonFiniteRatio`]).
pub fn run_diff(baseline: &str, new: &str, cfg: &DiffConfig) -> Result<DiffReport, DiffError> {
    if cfg.threshold <= 1.0 {
        return Err(DiffError::BadThreshold(cfg.threshold));
    }
    let base_records = parse_lines(baseline, "baseline").map_err(DiffError::Parse)?;
    let new_records = parse_lines(new, "new").map_err(DiffError::Parse)?;
    let mut rows = Vec::new();
    for metric in &cfg.metrics {
        let key_fields = cfg.key_fields(&metric.record_type);
        let of_type = |records: &[Json]| -> Vec<Json> {
            records
                .iter()
                .filter(|r| {
                    r.get("type").and_then(Json::as_str) == Some(metric.record_type.as_str())
                })
                .cloned()
                .collect()
        };
        let passes_filters = |r: &Json| {
            cfg.filters
                .iter()
                .all(|(f, want)| field_str(r, f).as_deref() == Some(want))
        };
        let news = of_type(&new_records);
        for base in of_type(&base_records).iter().filter(|r| passes_filters(r)) {
            let Some(base_value) = base.get(&metric.field).and_then(Json::as_f64) else {
                continue;
            };
            let key = record_key(base, key_fields);
            let counterpart = news.iter().find(|r| record_key(r, key_fields) == key);
            let new_value = counterpart
                .and_then(|r| r.get(&metric.field))
                .and_then(Json::as_f64);
            let metric_name = format!("{}.{}", metric.record_type, metric.field);
            let non_finite = |new_value: f64| DiffError::NonFiniteRatio {
                metric: format!("{}.{}", metric.record_type, metric.field),
                key: key.clone(),
                baseline: base_value,
                new: new_value,
            };
            let row = match new_value {
                Some(new_value) if !base_value.is_finite() || !new_value.is_finite() => {
                    // A NaN or infinity on either side (the JSON layer
                    // parses over-range literals like 1e999 to infinity)
                    // poisons every comparison downstream; fail loudly
                    // instead of letting the row sort as Equal.
                    return Err(non_finite(new_value));
                }
                Some(new_value) if base_value > 0.0 && new_value > 0.0 => {
                    let ratio = if metric.lower_is_better {
                        base_value / new_value
                    } else {
                        new_value / base_value
                    };
                    if !ratio.is_finite() {
                        // Finite inputs can still overflow the division
                        // (1e308 / 1e-308); same hard failure.
                        return Err(non_finite(new_value));
                    }
                    DiffRow {
                        metric: metric_name,
                        key,
                        baseline: base_value,
                        new: Some(new_value),
                        ratio,
                        ok: ratio >= 1.0 / cfg.threshold,
                    }
                }
                Some(new_value) => DiffRow {
                    // A zero on either side defeats ratio arithmetic;
                    // pass only on exact agreement (0 vs 0).
                    metric: metric_name,
                    key,
                    baseline: base_value,
                    new: Some(new_value),
                    ratio: 0.0,
                    ok: base_value == new_value,
                },
                None => DiffRow {
                    metric: metric_name,
                    key,
                    baseline: base_value,
                    new: None,
                    ratio: 0.0,
                    ok: false,
                },
            };
            rows.push(row);
        }
    }
    // Non-finite ratios errored out above, but sort under a total order
    // anyway — partial_cmp's Equal fallback would leave any future NaN
    // wherever it happened to sit instead of surfacing it first.
    rows.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    Ok(DiffReport {
        rows,
        threshold: cfg.threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"type":"map","regions":100}
{"type":"engine_cell","mode":"qualitative","threads":1,"pairs_per_sec":1000000.0}
{"type":"engine_cell","mode":"qualitative","threads":2,"pairs_per_sec":2000000.0}
{"type":"engine_cell","mode":"quantitative","threads":1,"pairs_per_sec":5000000.0}
"#;

    fn cells(q1: f64, q2: f64, p1: f64) -> String {
        format!(
            "{{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":1,\"pairs_per_sec\":{q1}}}\n\
             {{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":2,\"pairs_per_sec\":{q2}}}\n\
             {{\"type\":\"engine_cell\",\"mode\":\"quantitative\",\"threads\":1,\"pairs_per_sec\":{p1}}}\n"
        )
    }

    #[test]
    fn within_threshold_passes() {
        // Halved throughput stays inside the default 3x allowance.
        let new = cells(500_000.0, 1_900_000.0, 5_500_000.0);
        let report = run_diff(BASE, &new, &DiffConfig::default()).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn hard_regression_fails_and_sorts_worst_first() {
        let new = cells(100_000.0, 1_900_000.0, 5_000_000.0); // 10x drop on q t=1
        let report = run_diff(BASE, &new, &DiffConfig::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.rows[0].key, "mode=qualitative threads=1",
            "worst first"
        );
        assert!(!report.rows[0].ok);
        assert!((report.rows[0].ratio - 0.1).abs() < 1e-12);
        assert!(report.rows[1].ok && report.rows[2].ok);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn missing_series_fails() {
        // The quantitative cell vanished from the new file.
        let new = "{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":1,\"pairs_per_sec\":1000000.0}\n\
                   {\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":2,\"pairs_per_sec\":2000000.0}\n";
        let report = run_diff(BASE, new, &DiffConfig::default()).unwrap();
        assert!(!report.passed());
        let missing = report
            .rows
            .iter()
            .find(|r| r.new.is_none())
            .expect("a missing row");
        assert_eq!(missing.key, "mode=quantitative threads=1");
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn filters_restrict_the_compared_set() {
        // Only threads=1 cells gate: the t=2 regression is filtered out.
        let new = cells(900_000.0, 1.0, 4_900_000.0);
        let cfg = DiffConfig {
            filters: vec![("threads".to_string(), "1".to_string())],
            ..DiffConfig::default()
        };
        let report = run_diff(BASE, &new, &cfg).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn lower_is_better_inverts_the_direction() {
        let base = "{\"type\":\"join\",\"regions\":1000,\"elapsed_ns\":1000000}\n";
        let slower = "{\"type\":\"join\",\"regions\":1000,\"elapsed_ns\":10000000}\n";
        let faster = "{\"type\":\"join\",\"regions\":1000,\"elapsed_ns\":100000}\n";
        let cfg = DiffConfig {
            metrics: vec![MetricSpec::parse("join.elapsed_ns:lower").unwrap()],
            ..DiffConfig::default()
        };
        assert!(
            !run_diff(base, slower, &cfg).unwrap().passed(),
            "10x slower fails"
        );
        assert!(
            run_diff(base, faster, &cfg).unwrap().passed(),
            "10x faster passes"
        );
    }

    #[test]
    fn metric_spec_parsing() {
        assert_eq!(
            MetricSpec::parse("engine_cell.pairs_per_sec").unwrap(),
            MetricSpec {
                record_type: "engine_cell".to_string(),
                field: "pairs_per_sec".to_string(),
                lower_is_better: false,
            }
        );
        assert!(
            MetricSpec::parse("join.elapsed_ns:lower")
                .unwrap()
                .lower_is_better
        );
        assert!(MetricSpec::parse("nodot").is_err());
        assert!(MetricSpec::parse(".field").is_err());
    }

    #[test]
    fn empty_comparison_does_not_pass() {
        let report = run_diff("", "", &DiffConfig::default()).unwrap();
        assert!(report.rows.is_empty());
        assert!(!report.passed(), "nothing compared must not read as a pass");
    }

    #[test]
    fn garbage_input_is_an_error() {
        assert!(run_diff("not json", "", &DiffConfig::default()).is_err());
        let cfg = DiffConfig {
            threshold: 0.5,
            ..DiffConfig::default()
        };
        assert!(run_diff("", "", &cfg).is_err(), "threshold must exceed 1");
    }

    #[test]
    fn non_finite_input_value_is_a_hard_named_failure() {
        // The workspace JSON parser turns over-range literals (1e999)
        // into f64::INFINITY; before the named error this produced an
        // inf or NaN ratio that sorted Equal and could pass the gate.
        let inf_new =
            "{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":1,\"pairs_per_sec\":1e999}\n";
        let err = run_diff(BASE, inf_new, &DiffConfig::default()).unwrap_err();
        match err {
            DiffError::NonFiniteRatio {
                ref metric,
                ref key,
                baseline,
                new,
            } => {
                assert_eq!(metric, "engine_cell.pairs_per_sec");
                assert_eq!(key, "mode=qualitative threads=1");
                assert_eq!(baseline, 1_000_000.0);
                assert!(new.is_infinite());
            }
            other => panic!("expected NonFiniteRatio, got {other:?}"),
        }
        assert!(err.to_string().contains("non-finite ratio"), "{err}");

        // An infinite baseline is just as poisonous as an infinite new.
        let ok_new = cells(1_000_000.0, 2_000_000.0, 5_000_000.0);
        assert!(matches!(
            run_diff(inf_new, &ok_new, &DiffConfig::default()),
            Err(DiffError::NonFiniteRatio { .. })
        ));
    }

    #[test]
    fn overflowing_ratio_from_finite_values_is_a_hard_failure() {
        // Both sides finite, but the division overflows to infinity.
        let base = "{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":1,\"pairs_per_sec\":1e-308}\n";
        let new = "{\"type\":\"engine_cell\",\"mode\":\"qualitative\",\"threads\":1,\"pairs_per_sec\":1e308}\n";
        assert!(matches!(
            run_diff(base, new, &DiffConfig::default()),
            Err(DiffError::NonFiniteRatio { .. })
        ));
    }

    #[test]
    fn committed_baseline_compares_clean_against_itself() {
        // The real committed baseline must gate against itself: same
        // file on both sides → every series ratio is exactly 1.
        let text = include_str!("../../../BENCH_engine.json");
        let report = run_diff(text, text, &DiffConfig::default()).unwrap();
        assert_eq!(report.rows.len(), 8, "2 modes x 4 thread counts");
        assert!(report.passed());
        assert!(report.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-12));
    }
}

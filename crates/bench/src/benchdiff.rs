//! Bench-to-bench regression diffing for the `BENCH_*.json` artifacts.
//!
//! Every experiment can emit machine-readable metrics
//! ([`crate::benchjson`]); CI archives them as JSONL artifacts. This
//! module compares two such files — a committed baseline and a fresh
//! run — and classifies every shared metric by its unit:
//!
//! * `ms` is **lower-better**: the fresh value may grow by at most
//!   `max_time_ratio` (default 1.5×) before it counts as a regression.
//! * `x` and `ops_per_s` are **higher-better**: the fresh value may
//!   shrink to no less than `1 / max_drop_ratio` of the baseline.
//! * counting units (`states`, `edges`, `bool`, …) must match
//!   **exactly** for parity runs — a parallel exploration that loses
//!   states is a bug, not noise. Runs that *declare* a state-space
//!   reduction (`full` symmetry or POR — detected by
//!   the [`Thresholds::reduced_markers`] name segments the experiment
//!   naming schemes embed) compare `states`/`edges` **lower-better**
//!   instead: a tighter reduction is an improvement, only a *grown*
//!   count regresses. Exact-match semantics would flag every reduction
//!   improvement as a failure.
//!
//! `--require NAME=FLOOR` adds absolute floors on fresh metrics (suffix
//! match, so `reduction=2` covers every `*_reduction`), which is how
//! the E16 CI gate expresses "full symmetry still reduces ≥ 2×" without
//! re-deriving thresholds inside the workflow. `check bench-diff` exits
//! nonzero iff [`Diff::regressed`].

use std::collections::BTreeMap;

use anonreg_obs::Json;

use crate::table::Table;

/// One metric parsed back from a bench JSONL file.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedMetric {
    /// Experiment id, e.g. `E16`.
    pub experiment: String,
    /// Metric name, e.g. `consensus_n3_r2_full_t4_reduction`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string — decides the comparison direction.
    pub unit: String,
}

/// How a shared metric compared against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold (or an improvement).
    Ok,
    /// Out of threshold in the losing direction, or an exact-match
    /// unit that changed, or a `--require` floor violated.
    Regressed,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// `experiment/name` key.
    pub key: String,
    /// Baseline value (`None` for metrics only in the fresh file).
    pub before: Option<f64>,
    /// Fresh value (`None` for metrics only in the baseline).
    pub after: Option<f64>,
    /// Unit of the metric.
    pub unit: String,
    /// after/before where both sides exist and before is nonzero.
    pub ratio: Option<f64>,
    /// The comparison verdict.
    pub verdict: Verdict,
    /// Human reason when regressed or skipped.
    pub note: String,
}

/// Comparison thresholds.
#[derive(Clone, Debug)]
pub struct Thresholds {
    /// Max allowed `after/before` for lower-better (`ms`) metrics.
    pub max_time_ratio: f64,
    /// Max allowed `before/after` for higher-better (`x`, `ops_per_s`)
    /// metrics.
    pub max_drop_ratio: f64,
    /// Metrics present in only one file are tolerated instead of
    /// counting as regressions.
    pub allow_missing: bool,
    /// Absolute floors on fresh metrics, matched by name suffix.
    pub require: Vec<(String, f64)>,
    /// Underscore-delimited name segments that mark a run as using a
    /// state-space reduction. `states`/`edges` metrics whose name
    /// contains one of these segments compare lower-better; all other
    /// counting metrics stay exact-match. Clear this to restore
    /// exact-count semantics everywhere (`--exact-counts`).
    pub reduced_markers: Vec<String>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_time_ratio: 1.5,
            max_drop_ratio: 1.5,
            allow_missing: false,
            require: Vec::new(),
            reduced_markers: ["full", "por"].map(str::to_string).to_vec(),
        }
    }
}

/// The full comparison result.
#[derive(Clone, Debug)]
pub struct Diff {
    /// Every compared (or missing) metric, regressions first.
    pub rows: Vec<DiffRow>,
}

impl Diff {
    /// `true` if any row regressed — the exit-code signal.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Count of regressed rows.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count()
    }
}

/// Parses bench JSONL text into metrics, ignoring non-`bench` records
/// (meta lines, v2 stream records, blank lines).
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_bench_jsonl(text: &str) -> Result<Vec<ParsedMetric>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        if json.get("t").and_then(Json::as_str) != Some("bench") {
            continue;
        }
        let field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: bench record missing `{key}`", i + 1))
        };
        let value = json
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: bench record missing numeric `value`", i + 1))?;
        out.push(ParsedMetric {
            experiment: field("experiment")?,
            name: field("name")?,
            value,
            unit: field("unit")?,
        });
    }
    Ok(out)
}

/// Parses a `--require NAME=FLOOR` value. Rust's `f64` parser accepts
/// `nan` and `inf`, and a NaN floor would pass every metric, so only a
/// finite floor is taken.
///
/// # Errors
///
/// Returns a message naming `--require` when the value is not
/// `NAME=FLOOR` with a finite floor.
pub fn parse_require(value: &str) -> Result<(String, f64), String> {
    let refuse = || format!("--require wants NAME=FLOOR with a finite FLOOR, got {value:?}");
    let (name, floor) = value.split_once('=').ok_or_else(refuse)?;
    match floor.parse::<f64>() {
        Ok(floor) if floor.is_finite() => Ok((name.to_string(), floor)),
        _ => Err(refuse()),
    }
}

/// Parses the value of a ratio flag (`--max-time-ratio`,
/// `--max-drop-ratio`). A NaN limit would pass every comparison and a
/// non-positive one has no meaning, so only a finite ratio above 0 is
/// taken.
///
/// # Errors
///
/// Returns a message naming `flag` when the value is not a finite
/// number above 0.
pub fn parse_ratio(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(ratio) if ratio.is_finite() && ratio > 0.0 => Ok(ratio),
        _ => Err(format!("{flag} wants a finite ratio > 0, got {value:?}")),
    }
}

fn is_lower_better(unit: &str) -> bool {
    unit == "ms" || unit == "ns" || unit == "s"
}

fn is_higher_better(unit: &str) -> bool {
    unit == "x" || unit == "ops_per_s"
}

/// `true` when the metric's name declares a state-space reduction: one
/// of its underscore-delimited segments is a reduction marker. Segment
/// matching (not substring) keeps `full` from hitting `fullness` etc.
fn is_reduced_run(name: &str, markers: &[String]) -> bool {
    name.split('_').any(|seg| markers.iter().any(|m| m == seg))
}

/// Compares fresh metrics against a baseline under the thresholds.
#[must_use]
pub fn diff(before: &[ParsedMetric], after: &[ParsedMetric], thresholds: &Thresholds) -> Diff {
    let key = |m: &ParsedMetric| format!("{}/{}", m.experiment, m.name);
    let before_map: BTreeMap<String, &ParsedMetric> = before.iter().map(|m| (key(m), m)).collect();
    let after_map: BTreeMap<String, &ParsedMetric> = after.iter().map(|m| (key(m), m)).collect();
    let mut keys: Vec<&String> = before_map.keys().chain(after_map.keys()).collect();
    keys.sort();
    keys.dedup();

    let mut rows = Vec::new();
    for k in keys {
        let b = before_map.get(k).copied();
        let a = after_map.get(k).copied();
        let row = match (b, a) {
            (Some(b), Some(a)) => compare(k, b, a, thresholds),
            (Some(b), None) => missing_row(k, Some(b.value), None, &b.unit, thresholds, "after"),
            (None, Some(a)) => missing_row(k, None, Some(a.value), &a.unit, thresholds, "before"),
            (None, None) => unreachable!("key came from one of the maps"),
        };
        rows.push(row);
    }
    for (suffix, floor) in &thresholds.require {
        let hits: Vec<&ParsedMetric> = after
            .iter()
            .filter(|m| m.name.ends_with(suffix.as_str()))
            .collect();
        if hits.is_empty() {
            rows.push(DiffRow {
                key: format!("require:{suffix}"),
                before: None,
                after: None,
                unit: String::new(),
                ratio: None,
                verdict: Verdict::Regressed,
                note: format!("no fresh metric matches required suffix `{suffix}`"),
            });
        }
        for m in hits {
            if m.value < *floor {
                rows.push(DiffRow {
                    key: format!("require:{}/{}", m.experiment, m.name),
                    before: None,
                    after: Some(m.value),
                    unit: m.unit.clone(),
                    ratio: None,
                    verdict: Verdict::Regressed,
                    note: format!("{:.3} below required floor {floor}", m.value),
                });
            }
        }
    }
    rows.sort_by_key(|r| r.verdict == Verdict::Ok);
    Diff { rows }
}

fn missing_row(
    key: &str,
    before: Option<f64>,
    after: Option<f64>,
    unit: &str,
    thresholds: &Thresholds,
    side: &str,
) -> DiffRow {
    let (verdict, note) = if thresholds.allow_missing {
        (Verdict::Ok, format!("missing in {side} (allowed)"))
    } else {
        (Verdict::Regressed, format!("missing in {side}"))
    };
    DiffRow {
        key: key.to_string(),
        before,
        after,
        unit: unit.to_string(),
        ratio: None,
        verdict,
        note,
    }
}

fn compare(key: &str, b: &ParsedMetric, a: &ParsedMetric, thresholds: &Thresholds) -> DiffRow {
    let ratio = (b.value.abs() > f64::EPSILON).then(|| a.value / b.value);
    let mut verdict = Verdict::Ok;
    let mut note = String::new();
    if b.unit != a.unit {
        verdict = Verdict::Regressed;
        note = format!("unit changed {} -> {}", b.unit, a.unit);
    } else if is_lower_better(&a.unit) {
        if let Some(r) = ratio {
            if r > thresholds.max_time_ratio {
                verdict = Verdict::Regressed;
                note = format!("{r:.2}x slower (limit {:.2}x)", thresholds.max_time_ratio);
            }
        }
    } else if is_higher_better(&a.unit) {
        if a.value < b.value / thresholds.max_drop_ratio {
            verdict = Verdict::Regressed;
            note = format!(
                "dropped {:.3} -> {:.3} (limit {:.2}x)",
                b.value, a.value, thresholds.max_drop_ratio
            );
        }
    } else if matches!(a.unit.as_str(), "states" | "edges")
        && is_reduced_run(&a.name, &thresholds.reduced_markers)
    {
        // A reduction-mode run may legitimately visit fewer states when
        // the reduction tightens; only a grown count regresses.
        if a.value > b.value {
            verdict = Verdict::Regressed;
            note = format!(
                "reduced run grew its `{}` count {} -> {}",
                a.unit, b.value, a.value
            );
        } else if a.value < b.value {
            note = "reduction tightened (lower-better)".to_string();
        }
    } else if (a.value - b.value).abs() > f64::EPSILON {
        verdict = Verdict::Regressed;
        note = format!(
            "exact-match unit `{}` changed {} -> {}",
            a.unit, b.value, a.value
        );
    }
    DiffRow {
        key: key.to_string(),
        before: Some(b.value),
        after: Some(a.value),
        unit: a.unit.clone(),
        ratio,
        verdict,
        note,
    }
}

/// Renders the diff as a table (regressions first).
#[must_use]
pub fn render(diff: &Diff) -> String {
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
    let mut t = Table::new(vec![
        "metric", "before", "after", "ratio", "unit", "verdict",
    ]);
    for r in &diff.rows {
        t.row(vec![
            r.key.clone(),
            fmt(r.before),
            fmt(r.after),
            r.ratio
                .map_or_else(|| "-".to_string(), |x| format!("{x:.2}x")),
            r.unit.clone(),
            match r.verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => format!("REGRESSED: {}", r.note),
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchjson::{to_jsonl, BenchMetric};

    fn metric(name: &str, value: f64, unit: &'static str) -> ParsedMetric {
        ParsedMetric {
            experiment: "E16".to_string(),
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    #[test]
    fn identical_inputs_have_no_regressions() {
        let m = vec![
            metric("a_time", 100.0, "ms"),
            metric("a_states", 5000.0, "states"),
            metric("a_reduction", 3.0, "x"),
        ];
        let d = diff(&m, &m, &Thresholds::default());
        assert!(!d.regressed(), "{}", render(&d));
    }

    #[test]
    fn doubled_time_regresses() {
        let before = vec![metric("a_time", 100.0, "ms")];
        let after = vec![metric("a_time", 200.0, "ms")];
        let d = diff(&before, &after, &Thresholds::default());
        assert!(d.regressed());
        assert_eq!(d.regressions(), 1);
        assert!(render(&d).contains("REGRESSED"));
    }

    #[test]
    fn faster_time_and_better_reduction_pass() {
        let before = vec![
            metric("a_time", 100.0, "ms"),
            metric("a_reduction", 2.0, "x"),
        ];
        let after = vec![
            metric("a_time", 20.0, "ms"),
            metric("a_reduction", 4.0, "x"),
        ];
        assert!(!diff(&before, &after, &Thresholds::default()).regressed());
    }

    #[test]
    fn state_count_must_match_exactly() {
        let before = vec![metric("a_states", 5000.0, "states")];
        let after = vec![metric("a_states", 4999.0, "states")];
        assert!(diff(&before, &after, &Thresholds::default()).regressed());
    }

    #[test]
    fn parity_run_counts_stay_exact_in_both_directions() {
        // `off` is not a reduction marker: both shrinking and growing
        // the count regress, exactly as before.
        let before = vec![metric("mutex_m3_l3_off_t4_states", 5000.0, "states")];
        for fresh in [4999.0, 5001.0] {
            let after = vec![metric("mutex_m3_l3_off_t4_states", fresh, "states")];
            assert!(
                diff(&before, &after, &Thresholds::default()).regressed(),
                "off-mode count {fresh} must be exact-match"
            );
        }
    }

    #[test]
    fn reduced_run_counts_are_lower_better() {
        for name in [
            "mutex_m3_l3_full_t4_states",
            "consensus_n3_r2_full_t4_edges",
            "mutex_m4_l3_por_t1_states",
        ] {
            let before = vec![metric(name, 5000.0, "states")];
            let tighter = vec![metric(name, 4000.0, "states")];
            let d = diff(&before, &tighter, &Thresholds::default());
            assert!(!d.regressed(), "tighter reduction flagged: {}", render(&d));
            let grown = vec![metric(name, 5001.0, "states")];
            assert!(
                diff(&before, &grown, &Thresholds::default()).regressed(),
                "{name}: grown count must regress"
            );
        }
    }

    #[test]
    fn reduced_marker_matches_segments_not_substrings() {
        // `fullness` contains `full` but is not the `full` segment.
        let before = vec![metric("queue_fullness_t4_states", 5000.0, "states")];
        let after = vec![metric("queue_fullness_t4_states", 4999.0, "states")];
        assert!(diff(&before, &after, &Thresholds::default()).regressed());
    }

    #[test]
    fn exact_counts_override_disables_lower_better() {
        let exact = Thresholds {
            reduced_markers: Vec::new(),
            ..Thresholds::default()
        };
        let before = vec![metric("mutex_m3_l3_full_t4_states", 5000.0, "states")];
        let after = vec![metric("mutex_m3_l3_full_t4_states", 4000.0, "states")];
        assert!(diff(&before, &after, &exact).regressed());
    }

    #[test]
    fn reduced_runs_keep_non_count_units_exact() {
        // Lower-better applies to states/edges only; a bool verdict on a
        // reduced run must still match exactly.
        let before = vec![metric("mutex_m3_l3_full_t4_parity", 1.0, "bool")];
        let after = vec![metric("mutex_m3_l3_full_t4_parity", 0.0, "bool")];
        assert!(diff(&before, &after, &Thresholds::default()).regressed());
    }

    #[test]
    fn missing_metric_gated_by_allow_missing() {
        let before = vec![metric("a_time", 100.0, "ms"), metric("b_time", 50.0, "ms")];
        let after = vec![metric("a_time", 100.0, "ms")];
        assert!(diff(&before, &after, &Thresholds::default()).regressed());
        let lenient = Thresholds {
            allow_missing: true,
            ..Thresholds::default()
        };
        assert!(!diff(&before, &after, &lenient).regressed());
    }

    #[test]
    fn require_floor_is_suffix_matched() {
        let after = vec![metric("consensus_n3_r2_full_t4_reduction", 2.5, "x")];
        let floor_ok = Thresholds {
            allow_missing: true,
            require: vec![("reduction".to_string(), 2.0)],
            ..Thresholds::default()
        };
        assert!(!diff(&[], &after, &floor_ok).regressed());
        let floor_high = Thresholds {
            allow_missing: true,
            require: vec![("reduction".to_string(), 3.0)],
            ..Thresholds::default()
        };
        assert!(diff(&[], &after, &floor_high).regressed());
        let floor_unmatched = Thresholds {
            allow_missing: true,
            require: vec![("no_such_metric".to_string(), 1.0)],
            ..Thresholds::default()
        };
        assert!(diff(&[], &after, &floor_unmatched).regressed());
    }

    /// One suffix gates every row it matches, not just the first: the
    /// E19 `throughput` floor covers the `off`, `por` and `por_spill` rows.
    #[test]
    fn require_floor_gates_every_matching_row() {
        let rows = |last: f64| {
            vec![
                metric("consensus_n3_r2_off_t4_throughput", 5000.0, "ops_per_s"),
                metric("consensus_n3_r2_por_t4_throughput", 4000.0, "ops_per_s"),
                metric("consensus_n3_r2_por_spill_t4_throughput", last, "ops_per_s"),
            ]
        };
        let floor = Thresholds {
            allow_missing: true,
            require: vec![("throughput".to_string(), 1000.0)],
            ..Thresholds::default()
        };
        assert!(!diff(&[], &rows(3000.0), &floor).regressed());
        let d = diff(&[], &rows(500.0), &floor);
        assert_eq!(d.regressions(), 1, "{}", render(&d));
        assert!(d.rows[0].key.ends_with("por_spill_t4_throughput"));
    }

    #[test]
    fn roundtrips_through_benchjson_writer() {
        let written = to_jsonl(&[
            BenchMetric::new("E14", "consensus", "a_time".to_string(), 12.5, "ms"),
            BenchMetric::new("E14", "consensus", "a_speedup".to_string(), 1.8, "x"),
        ]);
        let parsed = parse_bench_jsonl(&written).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a_time");
        assert_eq!(parsed[0].value, 12.5);
        assert_eq!(parsed[1].unit, "x");
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse_bench_jsonl("{\"t\":\"bench\",").is_err());
        assert!(parse_bench_jsonl("{\"t\":\"bench\",\"experiment\":\"E1\"}").is_err());
    }
    #[test]
    fn require_parses_a_finite_floor() {
        assert_eq!(
            parse_require("coverage=0.7"),
            Ok(("coverage".to_string(), 0.7))
        );
        // The parsed floor gates: 0.1 is below it.
        let floor = Thresholds {
            allow_missing: true,
            require: vec![parse_require("coverage=0.7").unwrap()],
            ..Thresholds::default()
        };
        let m = [metric("a_coverage", 0.1, "x")];
        assert!(diff(&m, &m, &floor).regressed());
    }

    #[test]
    fn require_refuses_a_non_finite_or_missing_floor() {
        for value in [
            "coverage=nan",
            "coverage=inf",
            "coverage=-inf",
            "coverage",
            "coverage=",
        ] {
            let err = parse_require(value).unwrap_err();
            assert!(err.contains("--require"), "{value}: {err}");
        }
    }

    #[test]
    fn ratio_parses_a_positive_finite_limit() {
        assert_eq!(parse_ratio("--max-time-ratio", "10"), Ok(10.0));
        assert_eq!(parse_ratio("--max-drop-ratio", "1.5"), Ok(1.5));
    }

    #[test]
    fn ratio_refuses_a_non_finite_limit_naming_the_flag() {
        for (flag, value) in [
            ("--max-time-ratio", "nan"),
            ("--max-drop-ratio", "NaN"),
            ("--max-time-ratio", "inf"),
        ] {
            let err = parse_ratio(flag, value).unwrap_err();
            assert!(err.contains(flag), "{value}: {err}");
        }
    }

    #[test]
    fn ratio_refuses_zero_and_negative_limits() {
        assert!(parse_ratio("--max-time-ratio", "0").is_err());
        assert!(parse_ratio("--max-drop-ratio", "-1.5").is_err());
    }
}

//! Bench-trajectory analytics over the checked-in `BENCH_PR<N>.json`
//! reports.
//!
//! Every PR lands a `perf_report` snapshot; this module parses all of
//! them, tracks each guardrail metric *across* PRs, and flags the
//! latest PR when a metric moved outside its noise band — the
//! trend-level complement to `perf_guard`'s absolute baseline gate
//! (which only sees one report at a time and cannot tell "slow drift"
//! from "this PR regressed it").
//!
//! Noise bands are derived from the history itself: a metric's band is
//! the wider of the baseline's warn band and twice the coefficient of
//! variation of its historical values (excluding the newest point, so
//! the point being judged does not widen its own band).
//!
//! Files are ordered by the PR number in the *filename*, not the `pr`
//! field inside — at least one checked-in report carries a stale field,
//! and loading warns on stderr about every such mislabeled file.
//!
//! Only comparable reports are trended: those whose `quick` and
//! `host_cores` fields equal the newest report's. A quick-mode run is
//! never banded against full-mode runs, nor one host's core count
//! against another's; the excluded files are named in the report.

use std::path::Path;

use arvi_stats::{change_percent, cv_percent};

use crate::report::{io_error_at, Json};

/// One parsed `BENCH_PR<N>.json`.
#[derive(Debug)]
pub struct BenchFile {
    /// PR number, parsed from the filename.
    pub pr: u64,
    /// The filename (for messages).
    pub file: String,
    /// The parsed report.
    pub json: Json,
}

/// One guardrail metric's trajectory across the PR history.
#[derive(Debug)]
pub struct MetricTrend {
    /// Metric key (`guardrail.<key>` in the reports).
    pub key: String,
    /// Whether larger values are better (from the baseline's
    /// `direction`, else inferred: `speedup` keys are higher-is-better,
    /// everything else lower).
    pub higher_is_better: bool,
    /// The noise band in percent: `max(baseline warn_pct, 2 × CV)` of
    /// the historical values.
    pub band_pct: f64,
    /// `(pr, value)` per history file, `None` where the report predates
    /// the metric.
    pub series: Vec<(u64, Option<f64>)>,
    /// Percent change of the newest value vs the previous one
    /// (positive = increased), `None` without two points.
    pub change_pct: Option<f64>,
    /// Whether the newest change moves in the worse direction beyond
    /// the band.
    pub flagged: bool,
}

/// The full trend report over a PR history.
#[derive(Debug)]
pub struct HistoryReport {
    /// PR numbers in history order (the trended, comparable reports).
    pub prs: Vec<u64>,
    /// Files left out because their `quick` or `host_cores` differs
    /// from the newest report's, in history order.
    pub excluded: Vec<String>,
    /// One trend per guardrail key, in first-appearance order.
    pub trends: Vec<MetricTrend>,
}

/// Loads every `BENCH_PR<N>.json` under `dir`, ordered by the filename
/// PR number. Non-matching files (`BENCH_BASELINE.json`, sources) are
/// ignored; a matching file that does not parse is an error naming the
/// file, and one whose `"pr"` field disagrees with its filename is kept
/// with a stderr warning (`mislabel_warning`). An empty history is
/// fine (the caller decides whether that's an error).
pub fn load_bench_history(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}", io_error_at(dir, e)))?;
    let mut files: Vec<BenchFile> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}", io_error_at(dir, e)))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pr) = bench_file_pr(&name) else {
            continue;
        };
        let path = entry.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}", io_error_at(&path, e)))?;
        let json =
            Json::parse(&text).map_err(|e| format!("{}: malformed JSON: {e}", path.display()))?;
        if let Some(warning) = mislabel_warning(&name, pr, &json) {
            eprintln!("{warning}");
        }
        files.push(BenchFile {
            pr,
            file: name,
            json,
        });
    }
    files.sort_by_key(|f| f.pr);
    Ok(files)
}

/// The PR number `N` of a report file named `BENCH_PR<N>.json`; `None`
/// for any other file name. `perf_report` stamps its `"pr"` field from
/// this, so a report always agrees with the name it is written under.
pub fn bench_file_pr(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix("BENCH_PR")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The warning for a report whose `"pr"` field disagrees with the PR
/// number `pr` in its filename `file`; `None` when they agree or the
/// field is absent.
fn mislabel_warning(file: &str, pr: u64, json: &Json) -> Option<String> {
    let field = json.num("pr").filter(|&n| n != pr as f64)?;
    Some(format!(
        "warning: {file} says \"pr\": {field} but its filename says PR {pr}; ordering by the filename"
    ))
}

fn direction_of(key: &str, baseline: Option<&Json>) -> bool {
    if let Some(Json::Arr(metrics)) = baseline.and_then(|b| b.get("metrics")) {
        for m in metrics {
            if matches!(m.get("key"), Some(Json::Str(k)) if k == key) {
                return matches!(m.get("direction"), Some(Json::Str(d)) if d == "higher");
            }
        }
    }
    key.contains("speedup")
}

fn warn_band_of(key: &str, baseline: Option<&Json>) -> Option<f64> {
    let Some(Json::Arr(metrics)) = baseline.and_then(|b| b.get("metrics")) else {
        return None;
    };
    metrics
        .iter()
        .find(|m| matches!(m.get("key"), Some(Json::Str(k)) if k == key))
        .and_then(|m| m.num("warn_pct"))
}

/// Builds the trend report: guardrail keys in first-appearance order
/// across the PR-ordered `files` whose `quick` and `host_cores` match
/// the newest file's, one [`MetricTrend`] each. `baseline` (the
/// `BENCH_BASELINE.json` document) supplies directions and warn bands
/// when given; without it, directions are inferred from key names and
/// the band floor is 10%.
pub fn bench_history(files: &[BenchFile], baseline: Option<&Json>) -> HistoryReport {
    fn mode(f: &BenchFile) -> (Option<&Json>, Option<&Json>) {
        (f.json.get("quick"), f.json.get("host_cores"))
    }
    let newest = files.last().map(mode);
    let (files, excluded): (Vec<&BenchFile>, Vec<&BenchFile>) =
        files.iter().partition(|f| Some(mode(f)) == newest);
    let excluded = excluded.into_iter().map(|f| f.file.clone()).collect();
    let prs: Vec<u64> = files.iter().map(|f| f.pr).collect();
    // Keys in first-appearance order across the history.
    let mut keys: Vec<String> = Vec::new();
    for f in &files {
        if let Some(Json::Obj(fields)) = f.json.get("guardrail") {
            for (k, v) in fields {
                if matches!(v, Json::Num(_)) && !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    let trends = keys
        .into_iter()
        .map(|key| {
            let series: Vec<(u64, Option<f64>)> = files
                .iter()
                .map(|f| (f.pr, f.json.num(&format!("guardrail.{key}"))))
                .collect();
            let values: Vec<(u64, f64)> = series
                .iter()
                .filter_map(|(pr, v)| v.map(|v| (*pr, v)))
                .collect();
            // The band judges the newest point, so it is derived from
            // the points before it.
            let historical: Vec<f64> = values
                .iter()
                .take(values.len().saturating_sub(1))
                .map(|(_, v)| *v)
                .collect();
            let band_pct = warn_band_of(&key, baseline)
                .unwrap_or(10.0)
                .max(2.0 * cv_percent(&historical));
            let higher_is_better = direction_of(&key, baseline);
            let change_pct = (values.len() >= 2).then(|| {
                let (_, prev) = values[values.len() - 2];
                let (_, last) = values[values.len() - 1];
                change_percent(prev, last)
            });
            let flagged = change_pct.is_some_and(|c| {
                if higher_is_better {
                    c < -band_pct
                } else {
                    c > band_pct
                }
            });
            MetricTrend {
                key,
                higher_is_better,
                band_pct,
                series,
                change_pct,
                flagged,
            }
        })
        .collect();
    HistoryReport {
        prs,
        excluded,
        trends,
    }
}

impl HistoryReport {
    /// The PRs a flagged change happened between: `(from, to)` of the
    /// trend's last two valued points.
    fn endpoints(trend: &MetricTrend) -> Option<(u64, u64)> {
        let valued: Vec<u64> = trend
            .series
            .iter()
            .filter_map(|(pr, v)| v.map(|_| *pr))
            .collect();
        match valued.as_slice() {
            [.., from, to] => Some((*from, *to)),
            _ => None,
        }
    }

    /// Trends whose newest change regressed beyond the noise band.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricTrend> {
        self.trends.iter().filter(|t| t.flagged)
    }

    /// Markdown trend table: one row per metric, one column per PR,
    /// with the latest change, band and verdict.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("## Bench trajectory (guardrail metrics across PRs)\n\n");
        if !self.excluded.is_empty() {
            out.push_str(&format!(
                "Not trended (`quick` or `host_cores` differs from the newest report): {}\n\n",
                self.excluded.join(", ")
            ));
        }
        out.push_str("| metric |");
        for pr in &self.prs {
            out.push_str(&format!(" PR{pr} |"));
        }
        out.push_str(" Δ last | band | trend |\n|---|");
        for _ in &self.prs {
            out.push_str("---:|");
        }
        out.push_str("---:|---:|---|\n");
        for t in &self.trends {
            out.push_str(&format!("| `{}` |", t.key));
            for (_, v) in &t.series {
                match v {
                    Some(v) => out.push_str(&format!(" {v:.3} |")),
                    None => out.push_str(" — |"),
                }
            }
            let arrow = match t.change_pct {
                Some(c) => format!("{c:+.1}%"),
                None => "—".to_string(),
            };
            let verdict = if t.flagged {
                "🔺 regressed"
            } else if t.change_pct.is_some() {
                "✅ in band"
            } else {
                "—"
            };
            out.push_str(&format!(" {arrow} | ±{:.1}% | {verdict} |\n", t.band_pct));
        }
        let flagged: Vec<&MetricTrend> = self.regressions().collect();
        out.push('\n');
        if flagged.is_empty() {
            out.push_str("No guardrail metric regressed beyond its noise band in the latest PR.\n");
        } else {
            for t in flagged {
                let (from, to) = HistoryReport::endpoints(t).unwrap_or((0, 0));
                out.push_str(&format!(
                    "- `{}` moved {:+.1}% between PR{from} and PR{to} \
                     (band ±{:.1}%, {} is better)\n",
                    t.key,
                    t.change_pct.unwrap_or(0.0),
                    t.band_pct,
                    if t.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                ));
            }
        }
        out
    }

    /// JSON rendering; the `regressions` array is what
    /// `perf_guard --trends` and [`crate::guard::trend_flags`] consume.
    pub fn to_json(&self) -> Json {
        let trends = self
            .trends
            .iter()
            .map(|t| {
                Json::obj([
                    ("key", Json::str(t.key.as_str())),
                    (
                        "direction",
                        Json::str(if t.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    ),
                    ("band_pct", Json::Num(t.band_pct)),
                    (
                        "series",
                        Json::Arr(
                            t.series
                                .iter()
                                .map(|(pr, v)| {
                                    Json::obj([
                                        ("pr", Json::Num(*pr as f64)),
                                        ("value", v.map_or(Json::Null, Json::Num)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("change_pct", t.change_pct.map_or(Json::Null, Json::Num)),
                    ("flagged", Json::Bool(t.flagged)),
                ])
            })
            .collect();
        let regressions = self
            .regressions()
            .map(|t| {
                let (from, to) = HistoryReport::endpoints(t).unwrap_or((0, 0));
                Json::obj([
                    ("key", Json::str(t.key.as_str())),
                    ("change_pct", Json::Num(t.change_pct.unwrap_or(0.0))),
                    ("band_pct", Json::Num(t.band_pct)),
                    ("from_pr", Json::Num(from as f64)),
                    ("to_pr", Json::Num(to as f64)),
                ])
            })
            .collect();
        Json::obj([
            (
                "prs",
                Json::Arr(self.prs.iter().map(|pr| Json::Num(*pr as f64)).collect()),
            ),
            ("metrics", Json::Arr(trends)),
            ("regressions", Json::Arr(regressions)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pr: u64, guardrail: &str) -> BenchFile {
        BenchFile {
            pr,
            file: format!("BENCH_PR{pr}.json"),
            json: Json::parse(&format!(r#"{{"pr":{pr},"guardrail":{guardrail}}}"#)).unwrap(),
        }
    }

    #[test]
    fn tracks_keys_across_prs_and_tolerates_gaps() {
        let files = vec![
            file(5, r#"{"a_ns":10.0}"#),
            file(6, r#"{"a_ns":10.5,"b_speedup":2.0}"#),
            file(7, r#"{"a_ns":10.2,"b_speedup":2.1}"#),
        ];
        let report = bench_history(&files, None);
        assert_eq!(report.prs, vec![5, 6, 7]);
        assert_eq!(report.trends.len(), 2);
        let a = &report.trends[0];
        assert_eq!(a.key, "a_ns");
        assert!(!a.higher_is_better);
        assert_eq!(
            a.series,
            vec![(5, Some(10.0)), (6, Some(10.5)), (7, Some(10.2))]
        );
        assert!(!a.flagged, "-2.9% on a lower-is-better metric is fine");
        let b = &report.trends[1];
        assert!(b.higher_is_better, "speedup keys infer higher-is-better");
        assert_eq!(b.series[0], (5, None), "pre-metric PRs render as gaps");
        let md = report.to_markdown();
        assert!(md.contains("| PR5 |"), "{md}");
        assert!(md.contains("No guardrail metric regressed"), "{md}");
    }

    #[test]
    fn flags_a_regression_beyond_the_band() {
        let files = vec![
            file(5, r#"{"x_ns":10.0}"#),
            file(6, r#"{"x_ns":10.1}"#),
            file(7, r#"{"x_ns":14.0}"#),
        ];
        let report = bench_history(&files, None);
        let t = &report.trends[0];
        assert!(t.change_pct.unwrap() > 38.0);
        assert!(t.flagged, "+39% on a quiet lower-is-better series");
        let j = report.to_json();
        let Some(Json::Arr(regressions)) = j.get("regressions") else {
            panic!("regressions array missing: {}", j.render_compact());
        };
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].num("from_pr"), Some(6.0));
        assert_eq!(regressions[0].num("to_pr"), Some(7.0));
        let md = report.to_markdown();
        assert!(md.contains("🔺 regressed"), "{md}");
        assert!(md.contains("between PR6 and PR7"), "{md}");
    }

    #[test]
    fn noisy_series_widen_their_band() {
        // ±20% swings historically: the same +25% jump that would flag
        // a quiet series stays inside the noise band here.
        let files = vec![
            file(1, r#"{"x_ns":10.0}"#),
            file(2, r#"{"x_ns":14.0}"#),
            file(3, r#"{"x_ns":9.0}"#),
            file(4, r#"{"x_ns":13.5}"#),
            file(5, r#"{"x_ns":16.8}"#),
        ];
        let report = bench_history(&files, None);
        let t = &report.trends[0];
        assert!(t.band_pct > 30.0, "band {}", t.band_pct);
        assert!(!t.flagged);
    }

    #[test]
    fn baseline_supplies_direction_and_band_floor() {
        let baseline = Json::parse(
            r#"{"metrics":[{"key":"odd","baseline":2.0,"direction":"higher",
                "warn_pct":25,"fail_pct":50}]}"#,
        )
        .unwrap();
        let files = vec![file(6, r#"{"odd":2.0}"#), file(7, r#"{"odd":1.7}"#)];
        let report = bench_history(&files, Some(&baseline));
        let t = &report.trends[0];
        assert!(t.higher_is_better, "direction comes from the baseline");
        assert!((t.band_pct - 25.0).abs() < 1e-9, "warn band is the floor");
        assert!(!t.flagged, "-15% is inside the 25% band");
    }

    #[test]
    fn quick_report_is_trended_only_against_comparable_ones() {
        let report = |pr: u64, quick: bool, cores: u64, x: f64| BenchFile {
            pr,
            file: format!("BENCH_PR{pr}.json"),
            json: Json::parse(&format!(
                r#"{{"pr":{pr},"quick":{quick},"host_cores":{cores},"guardrail":{{"x_ns":{x}}}}}"#
            ))
            .unwrap(),
        };
        let files = vec![
            report(4, false, 1, 10.0),
            report(5, false, 1, 10.1),
            report(7, true, 2, 30.0),
            report(8, true, 1, 20.0),
            report(9, true, 1, 20.5),
        ];
        let history = bench_history(&files, None);
        assert_eq!(history.prs, vec![8, 9], "only quick, 1-core reports");
        assert_eq!(
            history.excluded,
            vec!["BENCH_PR4.json", "BENCH_PR5.json", "BENCH_PR7.json"]
        );
        let t = &history.trends[0];
        assert_eq!(t.series, vec![(8, Some(20.0)), (9, Some(20.5))]);
        assert!((t.band_pct - 10.0).abs() < 1e-9, "band from PR8 alone");
        assert!(!t.flagged);
        let md = history.to_markdown();
        assert!(
            md.contains("Not trended") && md.contains("BENCH_PR4.json, BENCH_PR5.json"),
            "{md}"
        );
        assert!(!md.contains("| PR4 |"), "{md}");
    }

    #[test]
    fn ordering_comes_from_filenames() {
        let dir = std::env::temp_dir().join(format!("arvi_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The `pr` field inside lies (PR 6's checked-in report says 5);
        // the filename is the truth.
        std::fs::write(
            dir.join("BENCH_PR10.json"),
            r#"{"pr":9,"guardrail":{"x":1.0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_PR9.json"),
            r#"{"pr":9,"guardrail":{"x":2.0}}"#,
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_BASELINE.json"), r#"{"metrics":[]}"#).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let files = load_bench_history(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(files.len(), 2, "only BENCH_PR<N>.json files count");
        assert_eq!(files[0].pr, 9);
        assert_eq!(files[1].pr, 10);
        assert_eq!(files[1].file, "BENCH_PR10.json");
        assert_eq!(bench_file_pr("BENCH_PR7.json"), Some(7));
        for other in ["BENCH_BASELINE.json", "BENCH_PR.json", "bench-smoke.json"] {
            assert_eq!(bench_file_pr(other), None, "{other}");
        }
    }

    #[test]
    fn mislabeled_reports_are_flagged() {
        let json = |text: &str| Json::parse(text).unwrap();
        assert_eq!(
            mislabel_warning("BENCH_PR6.json", 6, &json(r#"{"pr":5}"#)).as_deref(),
            Some(
                "warning: BENCH_PR6.json says \"pr\": 5 but its filename says PR 6; \
                 ordering by the filename"
            )
        );
        assert_eq!(
            mislabel_warning("BENCH_PR9.json", 9, &json(r#"{"pr":9}"#)),
            None
        );
        assert_eq!(mislabel_warning("BENCH_PR9.json", 9, &json("{}")), None);
    }

    #[test]
    fn degrades_gracefully_below_two_reports() {
        // Zero reports: empty table skeleton, no trends, no regressions.
        let empty = bench_history(&[], None);
        assert!(empty.prs.is_empty());
        assert!(empty.trends.is_empty());
        assert_eq!(empty.regressions().count(), 0);
        let md = empty.to_markdown();
        assert!(md.contains("## Bench trajectory"), "{md}");
        assert!(md.contains("No guardrail metric regressed"), "{md}");
        let j = empty.to_json();
        assert!(matches!(j.get("regressions"), Some(Json::Arr(r)) if r.is_empty()));

        // One report: a column but no deltas, nothing flagged.
        let one = bench_history(&[file(9, r#"{"x_ns":10.0,"y_speedup":4.0}"#)], None);
        assert_eq!(one.prs, vec![9]);
        assert_eq!(one.trends.len(), 2);
        for t in &one.trends {
            assert!(t.change_pct.is_none(), "no delta from a single point");
            assert!(!t.flagged);
        }
        let md = one.to_markdown();
        assert!(md.contains("| PR9 |"), "{md}");
        assert!(md.contains("No guardrail metric regressed"), "{md}");
    }

    #[test]
    fn load_error_names_the_path() {
        let dir = std::env::temp_dir().join(format!("arvi_hist_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_PR3.json"), "{not json").unwrap();
        let err = load_bench_history(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("BENCH_PR3.json"), "{err}");
    }
}

//! Compares two sets of benchmark runs, workload by workload and metric
//! by metric, against the directions and bounds in `BENCHMARK.json`.
//!
//! A report file holds one JSON object per line, as `--out` appends them:
//! `{"workload": ..., "seed": ..., "trace": 0, "result": {"correct": ...,
//! "attempted": ..., "failed": ..., "metrics": {name: {"value": ...}}}}`.

use serde_json::Value;
use std::collections::BTreeMap;

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// One untraced run read from a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// The run's own output checks passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Outcome for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, and the candidate does not
    /// beat every base run with every one of its own.
    Unresolved,
    /// Absent from one side.
    Missing,
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// Candidate median.
    pub candidate: f64,
    /// Relative change of the median, positive when worse.
    pub worse_by: f64,
    /// Larger of the two sides' quartile spreads over their medians.
    pub spread: f64,
    /// The verdict.
    pub outcome: Outcome,
}

/// Reads the end-to-end gates from `BENCHMARK.json` text.
///
/// # Errors
///
/// When the text is not JSON or an end-to-end entry lacks a field.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Array(entries) = &doc["end_to_end"] else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    entries
        .iter()
        .map(|entry| {
            let name = entry["name"].as_str().ok_or("metric without a name")?;
            let better = entry["better"]
                .as_str()
                .ok_or("metric without a direction")?;
            let bound = entry["bound"].as_f64().ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// Reads the untraced runs of a report; traced runs are skipped.
///
/// # Errors
///
/// When a line is not a run record.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        if record["trace"].as_f64().is_some_and(|t| t > 0.0) {
            continue;
        }
        let workload = record["workload"]
            .as_str()
            .ok_or("run without a workload")?;
        let result = &record["result"];
        let Value::Object(metrics) = &result["metrics"] else {
            return Err(format!("{workload} run without metrics"));
        };
        runs.push(Run {
            workload: workload.to_string(),
            correct: matches!(result["correct"], Value::Bool(true)),
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

/// The three quartiles of `values` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4usize).zip(&mut out) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median and quartile spread (interquartile range over the median).
fn centre(values: &[f64]) -> Option<(f64, f64)> {
    match values {
        [] => None,
        [one] => Some((*one, 0.0)),
        _ => {
            let [q1, q2, q3] = quartiles(values)?;
            let spread = if q2.abs() > 0.0 {
                (q3 - q1) / q2.abs()
            } else {
                0.0
            };
            Some((q2, spread))
        }
    }
}

/// Compares every workload present in either report on every gated
/// metric.
pub fn compare(bounds: &[Bound], base: &[Run], candidate: &[Run]) -> Vec<Row> {
    let workloads: std::collections::BTreeSet<&str> = base
        .iter()
        .chain(candidate)
        .map(|r| r.workload.as_str())
        .collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (b, c) = (values(base), values(candidate));
            let row = match (centre(&b), centre(&c)) {
                (Some((bm, bs)), Some((cm, cs))) => {
                    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
                    let worse_by = if bm.abs() > 0.0 {
                        sign * (cm - bm) / bm.abs()
                    } else {
                        0.0
                    };
                    let spread = bs.max(cs);
                    // Every candidate run better than every base run.
                    let clear_win = c
                        .iter()
                        .all(|&cv| b.iter().all(|&bv| sign * (cv - bv) < 0.0));
                    let outcome = if spread > bound.bound && !clear_win {
                        Outcome::Unresolved
                    } else if worse_by > bound.bound {
                        Outcome::Regressed
                    } else {
                        Outcome::Ok
                    };
                    Row {
                        workload: workload.to_string(),
                        metric: bound.name.clone(),
                        base: bm,
                        candidate: cm,
                        worse_by,
                        spread,
                        outcome,
                    }
                }
                _ => Row {
                    workload: workload.to_string(),
                    metric: bound.name.clone(),
                    base: f64::NAN,
                    candidate: f64::NAN,
                    worse_by: f64::NAN,
                    spread: f64::NAN,
                    outcome: Outcome::Missing,
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// Runs the gate: prints one row per workload and metric and returns
/// whether the candidate passes (no regression, nothing missing, every
/// run correct).
///
/// # Errors
///
/// When a file cannot be read or parsed.
pub fn gate(benchmark: &str, base: &str, candidate: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = parse_bounds(&read(benchmark)?)?;
    let base = parse_runs(&read(base)?)?;
    let candidate = parse_runs(&read(candidate)?)?;
    let mut pass = true;
    for run in base.iter().chain(&candidate).filter(|r| !r.correct) {
        println!("{}: a run failed its output checks", run.workload);
        pass = false;
    }
    println!("workload metric base candidate worse_by spread outcome");
    for row in compare(&bounds, &base, &candidate) {
        println!(
            "{} {} {} {} {:+.4} {:.4} {:?}",
            row.workload,
            row.metric,
            row.base,
            row.candidate,
            row.worse_by,
            row.spread,
            row.outcome
        );
        pass &= matches!(row.outcome, Outcome::Ok | Outcome::Unresolved);
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, fps: f64, latency: f64) -> Run {
        Run {
            workload: workload.into(),
            correct: true,
            metrics: [("fps".to_string(), fps), ("lat".to_string(), latency)]
                .into_iter()
                .collect(),
        }
    }

    fn bounds() -> Vec<Bound> {
        parse_bounds(
            r#"{"end_to_end": [
                {"name": "fps", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}
            ]}"#,
        )
        .expect("bounds")
    }

    fn outcome(rows: &[Row], metric: &str) -> Outcome {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row")
            .outcome
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn direction_and_bound_decide_regressions() {
        let base: Vec<Run> = (0..5)
            .map(|i| run("w", 100.0 + f64::from(i), 1.0))
            .collect();
        // fps 15 % lower: worse for a higher-is-better metric.
        let slower: Vec<Run> = (0..5).map(|i| run("w", 86.0 + f64::from(i), 1.0)).collect();
        let rows = compare(&bounds(), &base, &slower);
        assert_eq!(outcome(&rows, "fps"), Outcome::Regressed);
        assert_eq!(outcome(&rows, "lat"), Outcome::Ok);
        // Latency 15 % higher: worse for a lower-is-better metric.
        let laggy: Vec<Run> = (0..5)
            .map(|i| run("w", 100.0 + f64::from(i), 1.15))
            .collect();
        let rows = compare(&bounds(), &base, &laggy);
        assert_eq!(outcome(&rows, "lat"), Outcome::Regressed);
        assert!(
            rows.iter()
                .find(|r| r.metric == "lat")
                .expect("row")
                .worse_by
                > 0.14
        );
        // 5 % worse stays within the 10 % bound.
        let close: Vec<Run> = (0..5)
            .map(|i| run("w", 95.0 + f64::from(i), 1.05))
            .collect();
        let rows = compare(&bounds(), &base, &close);
        assert_eq!(outcome(&rows, "fps"), Outcome::Ok);
        assert_eq!(outcome(&rows, "lat"), Outcome::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let base: Vec<Run> = [60.0, 100.0, 140.0, 80.0, 120.0]
            .iter()
            .map(|&fps| run("w", fps, 1.0))
            .collect();
        let worse: Vec<Run> = [50.0, 90.0, 130.0, 70.0, 110.0]
            .iter()
            .map(|&fps| run("w", fps, 1.0))
            .collect();
        assert_eq!(
            outcome(&compare(&bounds(), &base, &worse), "fps"),
            Outcome::Unresolved
        );
        let better: Vec<Run> = (0..5)
            .map(|i| run("w", 150.0 + f64::from(i), 1.0))
            .collect();
        assert_eq!(
            outcome(&compare(&bounds(), &base, &better), "fps"),
            Outcome::Ok
        );
    }

    #[test]
    fn workloads_are_compared_separately_and_missing_ones_flagged() {
        let base = vec![run("a", 100.0, 1.0), run("b", 100.0, 1.0)];
        let candidate = vec![run("a", 50.0, 1.0)];
        let rows = compare(&bounds(), &base, &candidate);
        let a = rows
            .iter()
            .find(|r| r.workload == "a" && r.metric == "fps")
            .expect("a");
        let b = rows
            .iter()
            .find(|r| r.workload == "b" && r.metric == "fps")
            .expect("b");
        assert_eq!(a.outcome, Outcome::Regressed);
        assert_eq!(b.outcome, Outcome::Missing);
    }

    #[test]
    fn reports_skip_traced_runs() {
        let text = concat!(
            r#"{"workload":"a","seed":1,"trace":0,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"fps":{"value":7.5,"unit":"1/s"}}}}"#,
            "\n",
            r#"{"workload":"a","seed":1,"trace":1,"result":{"correct":true,"attempted":3,"failed":0,"metrics":{"x":{"value":1,"unit":"ns"}}}}"#,
            "\n"
        );
        let runs = parse_runs(text).expect("runs");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metrics["fps"], 7.5);
        assert!(runs[0].correct);
    }
}

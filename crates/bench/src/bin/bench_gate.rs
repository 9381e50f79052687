//! `bench_gate` — throughput regression gate over the committed benchmark
//! artifacts (ROADMAP item 5 prerequisite).
//!
//! ```text
//! bench_gate --baseline FILE --candidate FILE [--max-drop-pct P]
//! ```
//!
//! Both files are reports produced by `pipeline_throughput`: JSON objects
//! with a `runs` array where every run carries a `frames_per_sec`
//! measurement plus the identity fields that name the configuration
//! (`backend` and/or `variant`, and `workers`).
//! The gate pairs each baseline run with the candidate run of the same
//! identity and fails (exit code 1) when any pairing shows a
//! frames-per-second drop greater than `--max-drop-pct` (default 10 %),
//! or when the candidate is missing a run the baseline has.
//!
//! CI stashes the committed artifacts before regenerating them on the
//! runner, then gates the fresh numbers against the stash — so a change
//! that silently costs more than 10 % of pipeline throughput fails the
//! build instead of landing as a slow creep across PRs. Improvements
//! (negative drop) always pass; the artifacts themselves record the
//! environment (`available_parallelism`) for post-hoc reading.

use serde_json::Value;
use std::process::ExitCode;

/// Largest tolerated frames-per-second drop, in percent of baseline.
const DEFAULT_MAX_DROP_PCT: f64 = 10.0;

/// One baseline/candidate pairing.
#[derive(Debug)]
struct Comparison {
    key: String,
    baseline_fps: f64,
    candidate_fps: f64,
    drop_pct: f64,
    passed: bool,
}

struct Options {
    baseline: String,
    candidate: String,
    max_drop_pct: f64,
}

fn main() -> ExitCode {
    let mut baseline = None;
    let mut candidate = None;
    let mut max_drop_pct = DEFAULT_MAX_DROP_PCT;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--baseline" => match iter.next() {
                Some(v) => baseline = Some(v.clone()),
                None => return usage_error("--baseline needs a file path"),
            },
            "--candidate" => match iter.next() {
                Some(v) => candidate = Some(v.clone()),
                None => return usage_error("--candidate needs a file path"),
            },
            "--max-drop-pct" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if (0.0..100.0).contains(&v) => max_drop_pct = v,
                _ => return usage_error("--max-drop-pct needs a number in [0, 100)"),
            },
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }
    let (Some(baseline), Some(candidate)) = (baseline, candidate) else {
        return usage_error("--baseline and --candidate are both required");
    };
    let options = Options {
        baseline,
        candidate,
        max_drop_pct,
    };

    let comparisons = match gate(&options) {
        Ok(comparisons) => comparisons,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for c in &comparisons {
        let verdict = if c.passed { "ok" } else { "REGRESSION" };
        eprintln!(
            "{verdict:>10} [{}]: {:.0} → {:.0} frames/s ({:+.1} %)",
            c.key, c.baseline_fps, c.candidate_fps, -c.drop_pct
        );
        if !c.passed {
            failures += 1;
        }
    }
    if failures == 0 {
        eprintln!(
            "PASS: {} runs within {:.1} % of {}",
            comparisons.len(),
            options.max_drop_pct,
            options.baseline
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: {failures}/{} runs dropped more than {:.1} % below {}",
            comparisons.len(),
            options.max_drop_pct,
            options.baseline
        );
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("usage: bench_gate --baseline FILE --candidate FILE [--max-drop-pct P]");
    ExitCode::FAILURE
}

/// Loads both reports and pairs every baseline run with its candidate.
fn gate(options: &Options) -> Result<Vec<Comparison>, String> {
    let baseline = load(&options.baseline)?;
    let candidate = load(&options.candidate)?;
    compare(&baseline, &candidate, options.max_drop_pct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The identity of one run: every configuration field that names it,
/// excluding the measurements. Runs of `pipeline_throughput` carry
/// `backend`, `variant` and `workers`; a field a run lacks is left out of
/// its key.
fn run_key(run: &Value) -> String {
    let mut parts = Vec::new();
    for field in ["backend", "variant"] {
        if let Some(v) = run.get(field).and_then(Value::as_str) {
            parts.push(format!("{field}={v}"));
        }
    }
    match run.get("workers") {
        Some(Value::I64(workers)) => parts.push(format!("workers={workers}")),
        Some(Value::U64(workers)) => parts.push(format!("workers={workers}")),
        _ => {}
    }
    parts.join(" ")
}

fn fps_of(run: &Value, key: &str, source: &str) -> Result<f64, String> {
    match run.get("frames_per_sec").and_then(Value::as_f64) {
        Some(fps) if fps.is_finite() && fps > 0.0 => Ok(fps),
        _ => Err(format!(
            "{source} run `{key}` has no positive frames_per_sec"
        )),
    }
}

/// Pairs baseline runs with candidate runs by identity and scores each
/// frames-per-second delta against the tolerance.
fn compare(
    baseline: &Value,
    candidate: &Value,
    max_drop_pct: f64,
) -> Result<Vec<Comparison>, String> {
    let base_runs = runs_of(baseline, "baseline")?;
    let cand_runs = runs_of(candidate, "candidate")?;
    let mut comparisons = Vec::with_capacity(base_runs.len());
    for base in base_runs {
        let key = run_key(base);
        if key.is_empty() {
            return Err("baseline run has no identity fields (backend/variant/workers)".into());
        }
        let baseline_fps = fps_of(base, &key, "baseline")?;
        let cand = cand_runs
            .iter()
            .find(|run| run_key(run) == key)
            .ok_or_else(|| format!("candidate is missing run `{key}`"))?;
        let candidate_fps = fps_of(cand, &key, "candidate")?;
        let drop_pct = (1.0 - candidate_fps / baseline_fps) * 100.0;
        comparisons.push(Comparison {
            key,
            baseline_fps,
            candidate_fps,
            drop_pct,
            passed: drop_pct <= max_drop_pct,
        });
    }
    Ok(comparisons)
}

fn runs_of<'a>(report: &'a Value, source: &str) -> Result<Vec<&'a Value>, String> {
    let runs: Vec<&Value> = match report.get("runs") {
        Some(Value::Array(runs)) => runs.iter().collect(),
        _ => Vec::new(),
    };
    if runs.is_empty() {
        return Err(format!("{source} report has no runs"));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON")
    }

    fn report(runs: &str) -> Value {
        parse(&format!(r#"{{ "benchmark": "test", "runs": {runs} }}"#))
    }

    #[test]
    fn identical_reports_pass_with_zero_drop() {
        let r = report(
            r#"[
                { "variant": "clean", "workers": 1, "frames_per_sec": 1000.0 },
                { "variant": "clean", "workers": 2, "frames_per_sec": 1800.0 }
            ]"#,
        );
        let comparisons = compare(&r, &r, DEFAULT_MAX_DROP_PCT).expect("compare");
        assert_eq!(comparisons.len(), 2);
        assert!(comparisons.iter().all(|c| c.passed));
        assert!(comparisons.iter().all(|c| c.drop_pct.abs() < 1e-12));
    }

    #[test]
    fn a_drop_beyond_the_tolerance_fails_only_that_run() {
        let base = report(
            r#"[
                { "backend": "vprofile", "workers": 1, "frames_per_sec": 1000.0 },
                { "backend": "viden", "workers": 1, "frames_per_sec": 1000.0 }
            ]"#,
        );
        let cand = report(
            r#"[
                { "backend": "vprofile", "workers": 1, "frames_per_sec": 950.0 },
                { "backend": "viden", "workers": 1, "frames_per_sec": 880.0 }
            ]"#,
        );
        let comparisons = compare(&base, &cand, 10.0).expect("compare");
        assert!(comparisons[0].passed, "5 % drop is inside the tolerance");
        assert!(!comparisons[1].passed, "12 % drop must fail the gate");
    }

    #[test]
    fn an_improvement_always_passes() {
        let base = report(r#"[{ "variant": "clean", "workers": 4, "frames_per_sec": 1000.0 }]"#);
        let cand = report(r#"[{ "variant": "clean", "workers": 4, "frames_per_sec": 2500.0 }]"#);
        let comparisons = compare(&base, &cand, 0.0).expect("compare");
        assert!(comparisons[0].passed);
        assert!(comparisons[0].drop_pct < 0.0, "negative drop = speedup");
    }

    #[test]
    fn a_missing_candidate_run_is_an_error() {
        let base = report(
            r#"[
                { "variant": "clean", "workers": 1, "frames_per_sec": 1000.0 },
                { "variant": "dropout_1pct", "workers": 1, "frames_per_sec": 900.0 }
            ]"#,
        );
        let cand = report(r#"[{ "variant": "clean", "workers": 1, "frames_per_sec": 1000.0 }]"#);
        let err = compare(&base, &cand, 10.0).expect_err("missing run");
        assert!(err.contains("variant=dropout_1pct"), "{err}");
    }

    #[test]
    fn keys_distinguish_backend_variant_and_workers() {
        let a = parse(r#"{ "backend": "vprofile", "workers": 1, "frames_per_sec": 1.0 }"#);
        let b = parse(r#"{ "backend": "vprofile", "workers": 2, "frames_per_sec": 1.0 }"#);
        let c = parse(r#"{ "variant": "clean", "workers": 1, "frames_per_sec": 1.0 }"#);
        assert_ne!(run_key(&a), run_key(&b));
        assert_ne!(run_key(&a), run_key(&c));
        assert_eq!(run_key(&a), "backend=vprofile workers=1");
    }

    #[test]
    fn malformed_reports_are_rejected() {
        let empty = report("[]");
        assert!(compare(&empty, &empty, 10.0).is_err());
        let no_fps = report(r#"[{ "variant": "clean", "workers": 1 }]"#);
        assert!(compare(&no_fps, &no_fps, 10.0).is_err());
        let no_identity = report(r#"[{ "frames_per_sec": 10.0 }]"#);
        assert!(compare(&no_identity, &no_identity, 10.0).is_err());
    }
}

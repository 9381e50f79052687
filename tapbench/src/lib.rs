//! End-to-end benchmark of the vProfile IDS monitoring a continuous bus
//! tap.
//!
//! A deployed vProfile monitor samples a 250 kb/s bus at 10 MS/s and 12
//! bits without pause (thesis §4.3), so it must keep pace with bus time,
//! idle included. This benchmark synthesizes such a tap from a seed
//! ([`tap`]), replays it through the public `IdsPipeline` /
//! `FusionPipeline` API from one generator thread ([`drive`]), and reports
//! what an operator sees — throughput against real time, alarm latency,
//! cores and memory per monitored bus, and detection quality — plus, in a
//! separate traced run, where the time goes layer by layer ([`trace`]).
//! `BENCHMARK.md` in this directory defines every workload and metric.
//!
//! ```text
//! tapbench --workload NAME|all --seed S [--seconds N] [--trace 0|1] [--spans FILE] [--out FILE]
//! tapbench gate --benchmark BENCHMARK.json BASE.jsonl CANDIDATE.jsonl
//! ```

#![forbid(unsafe_code)]

pub mod drive;
pub mod gate;
pub mod run;
pub mod stats;
pub mod tap;
pub mod trace;
pub mod workload;

use run::{AllocReader, Options};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: tapbench --workload NAME|all --seed S [--seconds N] [--trace 0|1] \
                     [--spans FILE] [--out FILE]\n       \
                     tapbench gate --benchmark BENCHMARK.json BASE.jsonl CANDIDATE.jsonl";

/// Command-line flags of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
        spans: None,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => parsed.spans = Some(value()?.clone()),
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The benchmark's `main`. `alloc` reads the counting allocator; only the
/// `tapbench-alloc` binary installs one, and traced runs need it.
pub fn main_with(alloc: Option<AllocReader>) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gate") {
        return match argv.as_slice() {
            [_, flag, benchmark, base, candidate] if flag == "--benchmark" => {
                match gate::gate(benchmark, base, candidate) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => fail(&e),
                }
            }
            _ => fail("gate needs --benchmark FILE BASE CANDIDATE"),
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => return fail(&e),
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = workload::find(&args.workload) else {
        return fail(&format!("unknown workload {}", args.workload));
    };
    if args.trace && alloc.is_none() {
        return fail("traced runs need the counting allocator: run tapbench-alloc");
    }
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spans: args.spans.clone(),
    };
    let report = match run::run(&options, alloc) {
        Ok(report) => report,
        Err(e) => return fail(&format!("{}: {e}", workload.name)),
    };
    let json = report.json();
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {json}}}\n",
            workload.name,
            args.seed,
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            return fail(&format!("appending to {path}: {e}"));
        }
    }
    let mut stdout = std::io::stdout().lock();
    for line in &report.lines {
        let _ = writeln!(stdout, "{line}");
    }
    let _ = writeln!(stdout, "{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process so allocator and
/// cache state cannot leak from one workload into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(&format!("locating this executable: {e}")),
    };
    let mut ok = true;
    for w in &workload::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args([
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if let Some(spans) = &args.spans {
            child.args(["--spans", &format!("{spans}.{}", w.name)]);
        }
        if let Some(out) = &args.out {
            child.args(["--out", out]);
        }
        match child.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => return fail(&format!("running {}: {e}", w.name)),
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_and_reject_bad_values() {
        let parsed = parse(&args(
            "--workload idle_bus --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("ok");
        assert_eq!(parsed.workload, "idle_bus");
        assert_eq!(parsed.seed, 7);
        assert!((parsed.seconds - 2.5).abs() < 1e-12);
        assert!(parsed.trace);
        assert!(parse(&args("--workload x --trace 2")).is_err());
        assert!(parse(&args("--workload x --seconds 0")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload x --bogus 1")).is_err());
    }
}

//! One benchmark run of one workload: synthesize, set up, warm up, rounds
//! of closed loop and open loop, and (traced) the replay; then the metrics
//! and checks.

use crate::drive::{self, ClosedRep, Observer, OpenLoop, Tally};
use crate::stats::{self, Schedule};
use crate::tap::CHUNK;
use crate::trace::{self, Replay, Tracer};
use crate::workload::{Detector, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vprofile_ids::{PipelineStats, StageBreakdown};

/// Measurement rounds. Each round runs one closed-loop repetition and then
/// one open-loop stretch, each on a fresh pipeline. The host's speed
/// drifts by 10-20 % over tens of seconds; alternating the loops spreads
/// both over the whole run, so that some rounds of each fall in its
/// faster stretches.
const ROUNDS: usize = 12;
/// Closed-loop warm-up before the measured repetitions.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-up repetitions (`setup_s` is their median): at least the first,
/// and more up to the second while set-up has taken less than
/// `SETUP_SHARE` of `--seconds`. They run before the loops, so that their
/// allocations stay out of the loops' peak memory.
const SETUP_REPS: (usize, usize) = (3, 15);
const SETUP_SHARE: f64 = 0.1;
/// Shares of `--seconds` spent in the closed and the open loop; the rest
/// covers synthesis, set-up and checks.
const CLOSED_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.5;

/// Reads the counting allocator: (allocations + reallocations, bytes).
pub type AllocReader = fn() -> (u64, u64);

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every synthesized input.
    pub seed: u64,
    /// Measurement time budget, s.
    pub seconds: f64,
    /// Report per-layer metrics (from a traced run) instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<String>,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Frames fed.
    pub attempted: u64,
    /// Frames that did not get a verdict.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: context, every metric, every check.
    pub lines: Vec<String>,
}

impl Report {
    /// The result object the benchmark prints last.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Named pass/fail output checks.
#[derive(Debug, Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs one workload.
///
/// # Errors
///
/// When inputs cannot be synthesized, the detector cannot be trained, or
/// the pipeline fails outright (refuses input, stalls, panics).
pub fn run(options: &Options, alloc: Option<AllocReader>) -> Result<Report, String> {
    let w = options.workload;
    let mut lines = Vec::new();
    let t = Instant::now();
    let inputs = w.synthesize(options.seed)?;
    let stream = &inputs.stream;
    let rate_hz = inputs.training.adc().sample_rate_hz;
    let pass_bus_s = stream.pass_samples() as f64 / rate_hz;
    lines.push(format!(
        "workload {} seed {}: {} ECUs, {}, {} worker(s), updates {}, open loop {}x real time",
        w.name,
        options.seed,
        w.ecus,
        match w.detector {
            Detector::VProfile => "vprofile",
            Detector::Fused => "fusion of vprofile+viden+scission",
        },
        w.workers,
        if w.updates { "on" } else { "off" },
        w.speedup
    ));
    lines.push(format!(
        "tap pass: {} frames in {pass_bus_s:.4} bus-s ({} samples), synthesized in {:.2} s, available_parallelism {}",
        stream.frames().len(),
        stream.pass_samples(),
        secs(t.elapsed()),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    ));

    let mut setup = Vec::with_capacity(SETUP_REPS.1);
    let mut core = None;
    while setup.len() < SETUP_REPS.0
        || (setup.len() < SETUP_REPS.1 && setup.iter().sum::<f64>() < options.seconds * SETUP_SHARE)
    {
        let t0 = Instant::now();
        let trained = w.train(&inputs)?;
        let monitor = trained.spawn(w.workers);
        setup.push(secs(t0.elapsed()));
        monitor
            .close()
            .map_err(|e| format!("close after set-up: {e}"))?;
        core = Some(trained);
    }
    let core = core.ok_or("no set-up ran")?;

    let mut obs = Observer::new(options.trace.then(Tracer::new));
    let mut checks = Checks::default();
    let expect_frames = |passes: u64| passes * stream.frames().len() as u64;

    // Closed loop: warm up for WARMUP, doubling the passes per rep until
    // a rep lasts half the target. Without the warm-up, the first second
    // or two of reps in a process ran at about one core's throughput on a
    // two-core host.
    obs.spans = false;
    let rep_target = options.seconds * CLOSED_SHARE / ROUNDS as f64;
    let warm_start = Instant::now();
    let mut warmup: Vec<(u64, ClosedRep)> = Vec::new();
    let mut warm_passes = 1;
    while warmup.is_empty() || warm_start.elapsed() < WARMUP {
        let rep = drive::closed_rep(&core, w.workers, stream, warm_passes, &mut obs)?;
        let short = secs(rep.wall) < rep_target / 2.0;
        warmup.push((warm_passes, rep));
        if short {
            warm_passes *= 2;
        }
    }
    let (last_passes, last) = warmup.last().ok_or("no warm-up ran")?;
    let pass_s = secs(last.wall).max(1e-9) / *last_passes as f64;
    let passes = ((rep_target / pass_s).round() as u64).max(1);

    // The rounds. The open loop runs whole passes at the workload's rate.
    let open_passes = ((options.seconds * OPEN_SHARE * w.speedup / pass_bus_s / ROUNDS as f64)
        .round() as u64)
        .max(1);
    let schedule = Schedule::new(CHUNK, rate_hz, w.speedup);
    let mut reps: Vec<ClosedRep> = Vec::with_capacity(ROUNDS);
    let mut opens: Vec<OpenLoop> = Vec::with_capacity(ROUNDS);
    let mut closed_alloc = (0, 0);
    for i in 0..ROUNDS {
        // Traced runs leave spans off in odd reps to measure their cost.
        obs.spans = options.trace && i % 2 == 0;
        let before = alloc.map(|read| read());
        reps.push(drive::closed_rep(
            &core, w.workers, stream, passes, &mut obs,
        )?);
        if let (Some(read), Some((n0, b0))) = (alloc, before) {
            let (n1, b1) = read();
            closed_alloc.0 += n1.saturating_sub(n0);
            closed_alloc.1 += b1.saturating_sub(b0);
        }
        obs.spans = options.trace;
        opens.push(drive::open_loop(
            &core,
            w.workers,
            stream,
            open_passes,
            schedule,
            &mut obs,
        )?);
    }

    // Checks.
    let fed = warmup
        .iter()
        .map(|(p, rep)| (*p, rep))
        .chain(reps.iter().map(|rep| (passes, rep)));
    for (i, (fed, rep)) in fed.enumerate() {
        checks.check(
            format!("closed rep {i}: one event per frame"),
            rep.tally.events == expect_frames(fed) && rep.stats.frames == rep.tally.events,
        );
        checks.check(
            format!("closed rep {i}: frame identity"),
            identity(&rep.stats),
        );
    }
    for (i, open) in opens.iter().enumerate() {
        checks.check(
            format!("open loop {i}: one event per frame"),
            open.tally.events == expect_frames(open_passes)
                && open.stats.frames == open.tally.events,
        );
        checks.check(
            format!("open loop {i}: frame identity"),
            identity(&open.stats),
        );
    }
    let open = OpenLoop::combine(&opens);
    checks.check(
        "open loop: no event before its frame was due",
        open.early == 0,
    );
    let misplaced: u64 = reps.iter().map(|r| r.tally.misplaced).sum::<u64>() + open.tally.misplaced;
    checks.check("every scored window starts at its frame", misplaced == 0);
    let reference = &reps[0].tally.pass_digests;
    checks.check(
        "verdict streams identical across closed-loop reps",
        reps.iter().all(|r| &r.tally.pass_digests == reference)
            && warmup
                .iter()
                .all(|(_, r)| prefix_equal(&r.tally.pass_digests, reference)),
    );
    checks.check(
        "open-loop verdicts identical to closed-loop verdicts",
        opens
            .iter()
            .all(|o| prefix_equal(&o.tally.pass_digests, reference)),
    );
    if w.workers > 1 {
        obs.spans = false;
        let single = drive::closed_rep(&core, 1, stream, 1, &mut obs)?;
        checks.check(
            format!("verdicts identical at 1 and {} workers", w.workers),
            prefix_equal(&single.tally.pass_digests, reference),
        );
    }

    let mut closed = Tally::default();
    for rep in &reps {
        closed.add(&rep.tally);
    }
    let attempted = closed.events + open.tally.events;
    let scored = closed.scored + open.tally.scored;

    let metrics = if options.trace {
        let tracer_replay = obs.tracer.as_mut().ok_or("traced run without a tracer")?;
        let replay = trace::replay(&core, &inputs.config, stream, tracer_replay)?;
        if alloc.is_none() {
            return Err("per-layer metrics need the counting allocator (tapbench-alloc)".into());
        }
        per_layer(&PerLayer {
            reps: &reps,
            open: &open,
            replay: &replay,
            alloc: closed_alloc,
            samples_per_rep: passes * stream.pass_samples(),
        })
    } else {
        end_to_end(&EndToEnd {
            setup: &setup,
            reps: &reps,
            opens: &opens,
            closed: &closed,
            scored,
            attempted,
            bus_s_per_rep: passes as f64 * pass_bus_s,
            mem_peak: obs.mem_peak_bytes(),
        })
    };
    for m in &metrics {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    if options.trace {
        lines.extend(span_lines(&obs));
        if let (Some(path), Some(tracer)) = (&options.spans, &obs.tracer) {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing spans to {path}: {e}"))?;
            lines.push(format!("spans written to {path}"));
        }
    } else {
        lines.extend(latency_lines(&open));
        let fps: Vec<String> = reps
            .iter()
            .map(|r| format!("{:.0}", r.tally.events as f64 / secs(r.wall)))
            .collect();
        let p50s: Vec<String> = opens
            .iter()
            .map(|o| format!("{:.3}", o.p50_ns().unwrap_or(f64::NAN) / 1e6))
            .collect();
        let setups: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
        lines.push(format!(
            "{ROUNDS} rounds: closed reps of {passes} pass(es), frames/s {}; open loops of {open_passes} pass(es), {:.2} bus-s in all, p50 ms {}; set-up reps s {}",
            fps.join(" "),
            open.bus_s,
            p50s.join(" "),
            setups.join(" ")
        ));
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    checks.check("every metric is a finite number", finite);
    for (name, ok) in &checks.0 {
        let outcome = if *ok { "ok" } else { "FAILED" };
        lines.push(format!("check {name}: {outcome}"));
    }
    Ok(Report {
        correct: checks.all_ok(),
        attempted,
        failed: attempted - scored,
        metrics,
        lines,
    })
}

/// The five-way frame identity of a statistics snapshot.
fn identity(s: &PipelineStats) -> bool {
    s.frames == s.anomalies + s.normals + s.extraction_failures + s.dropped + s.degraded
}

/// `a` and `b` agree on their common prefix, which is not empty.
fn prefix_equal(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    n > 0 && a[..n] == b[..n]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The largest value; NaN when there is none.
fn highest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::NAN, f64::max)
}

/// The smallest value; NaN when there is none.
fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::NAN, f64::min)
}

struct EndToEnd<'a> {
    setup: &'a [f64],
    reps: &'a [ClosedRep],
    opens: &'a [OpenLoop],
    closed: &'a Tally,
    scored: u64,
    attempted: u64,
    bus_s_per_rep: f64,
    mem_peak: u64,
}

/// The end-to-end metrics. Each timing of the loops is the best round:
/// the host's other tenants only ever slow a round down, and on a shared
/// two-core host the median round moved with them by 15 % from one
/// half-minute to the next, the best round by 7 %.
fn end_to_end(e: &EndToEnd<'_>) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("setup_s", stats::median(e.setup).unwrap_or(f64::NAN), "s"),
        metric(
            "frames_per_s",
            highest(e.reps.iter().map(|r| r.tally.events as f64 / secs(r.wall))),
            "1/s",
        ),
        metric(
            "realtime_factor",
            highest(e.reps.iter().map(|r| e.bus_s_per_rep / secs(r.wall))),
            "x",
        ),
        metric(
            "lat_p50_ms",
            lowest(e.opens.iter().map(|o| o.p50_ns().unwrap_or(f64::NAN))) / 1e6,
            "ms",
        ),
        metric("mem_peak_mb", e.mem_peak as f64 / 1e6, "MB"),
        metric("scored_frac", ratio(e.scored, e.attempted), "ratio"),
        metric(
            "clean_pass_frac",
            ratio(e.closed.legit_clean_passed, e.closed.legit_clean),
            "ratio",
        ),
        metric(
            "attack_recall",
            ratio(e.closed.attacks_flagged, e.closed.attacks),
            "ratio",
        ),
    ]
}

/// Latency tail lines: the reported percentiles, each with the samples
/// beyond it, the deepest tail the sample supports, and generator
/// lateness.
fn latency_lines(open: &OpenLoop) -> Vec<String> {
    let lat = &open.latencies_ns;
    let mut lines = vec![format!(
        "lat samples {}, pooled p50 {} ms; pipeline cpu_per_bus_s {} s/s (not gated)",
        lat.len(),
        open.p50_ns().unwrap_or(0.0) / 1e6,
        open.cpu_per_bus_s()
    )];
    for (name, pct) in [
        ("lat_p90_ms", 90.0),
        ("lat_p99_ms", 99.0),
        ("lat_p999_ms", 99.9),
    ] {
        if let Some(v) = stats::percentile(lat, pct) {
            lines.push(format!(
                "{name} {} ms ({} samples beyond, not gated)",
                v / 1e6,
                stats::beyond(lat.len(), pct)
            ));
        }
    }
    if let Some((pct, v)) = stats::supported_tail(lat) {
        lines.push(format!(
            "lat_tail p{pct} {} ms (highest percentile with >=10 samples beyond)",
            v / 1e6
        ));
    }
    lines.push(format!(
        "generator lateness p50 {} ms, p99 {} ms over {} chunks",
        stats::percentile(&open.late_ns, 50.0).unwrap_or(0.0) / 1e6,
        stats::percentile(&open.late_ns, 99.0).unwrap_or(0.0) / 1e6,
        open.late_ns.len()
    ));
    lines
}

struct PerLayer<'a> {
    reps: &'a [ClosedRep],
    open: &'a OpenLoop,
    replay: &'a Replay,
    alloc: (u64, u64),
    samples_per_rep: u64,
}

fn per_layer(p: &PerLayer<'_>) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    // Per-frame and per-sample costs come from the closed loop (all reps);
    // busy times and counts from the open loops together, whose length
    // does not depend on speed.
    let mut stage = StageBreakdown::default();
    for rep in p.reps {
        let s = rep.stats.stage_ns;
        stage.router_ns += s.router_ns;
        stage.frame_ns += s.frame_ns;
        stage.extract_ns += s.extract_ns;
        stage.score_ns += s.score_ns;
        stage.shadow_ns += s.shadow_ns;
        stage.merge_ns += s.merge_ns;
    }
    let frames: u64 = p.reps.iter().map(|r| r.tally.events).sum();
    let wall_ns: u64 = p.reps.iter().map(|r| r.wall.as_nanos() as u64).sum();
    let samples = p.samples_per_rep * p.reps.len() as u64;
    let open = &p.open.stats;
    let busy = |ns: u64| ns as f64 / 1e9;
    let r = p.replay;
    let replay_per_frame = ratio(r.framer_ns + r.peek_ns + r.process_ns, r.frames);
    // Even reps ran with spans on, odd reps with spans off.
    let per_frame = |on: bool| {
        median_of(
            p.reps
                .iter()
                .enumerate()
                .filter(|(i, _)| (i % 2 == 0) == on)
                .map(|(_, rep)| secs(rep.wall) / rep.tally.events as f64),
        )
    };
    let skew = {
        let shards = &open.shard_frames;
        let max = shards.iter().copied().max().unwrap_or(0) as f64;
        let mean = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };
    vec![
        metric("feed.wait_s", secs(p.open.feed_wait), "s"),
        metric("feed.calls", p.open.feed_calls as f64, "count"),
        metric("router.busy_s", busy(open.stage_ns.router_ns), "s"),
        metric(
            "router.ns_per_sample",
            ratio(stage.router_ns, samples),
            "ns",
        ),
        metric("framer.busy_s", busy(open.stage_ns.frame_ns), "s"),
        metric("framer.ns_per_frame", ratio(stage.frame_ns, frames), "ns"),
        metric(
            "extract.ns_per_frame",
            ratio(stage.extract_ns, frames),
            "ns",
        ),
        metric("extract.failures", open.extraction_failures as f64, "count"),
        metric("score.busy_s", busy(open.stage_ns.score_ns), "s"),
        metric("score.ns_per_frame", ratio(stage.score_ns, frames), "ns"),
        metric("score.anomalies", open.anomalies as f64, "count"),
        metric("update.absorbed", r.absorbed as f64, "count"),
        metric(
            "update.ns_per_absorb",
            ratio(
                r.process_ns.saturating_sub(r.process_read_only_ns),
                r.absorbed,
            ),
            "ns",
        ),
        metric(
            "update.quarantined_sas",
            open.quarantined_sas.iter().sum::<usize>() as f64,
            "count",
        ),
        metric("fusion.ns_per_frame", ratio(r.fusion_ns, r.frames), "ns"),
        metric(
            "fusion.voter_disagreements",
            open.voter_disagreements.iter().sum::<u64>() as f64,
            "count",
        ),
        metric("fusion.drift_verdicts", open.drift_verdicts as f64, "count"),
        metric("merge.busy_s", busy(open.stage_ns.merge_ns), "s"),
        metric(
            "queue.depth_p50",
            stats::median(&p.open.depths).unwrap_or(0.0),
            "count",
        ),
        metric(
            "queue.depth_max",
            p.open.depths.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        metric("shard.skew", skew, "ratio"),
        metric("health.degraded", open.degraded as f64, "count"),
        metric("health.dropped", open.dropped as f64, "count"),
        metric(
            "health.restarts",
            open.restarts.iter().map(|&r| u64::from(r)).sum::<u64>() as f64,
            "count",
        ),
        metric("alarm.incidents", r.incidents as f64, "count"),
        metric("alarm.ns_per_event", ratio(r.alarm_ns, r.frames), "ns"),
        metric(
            "pipeline.stage_sum_over_wall",
            ratio(
                stage.router_ns
                    + stage.frame_ns
                    + stage.extract_ns
                    + stage.score_ns
                    + stage.shadow_ns
                    + stage.merge_ns,
                wall_ns,
            ),
            "ratio",
        ),
        metric(
            "pipeline.replay_vs_wall",
            ratio(wall_ns, frames) - replay_per_frame,
            "ns",
        ),
        metric("pipeline.cpu_per_bus_s", p.open.cpu_per_bus_s(), "s/s"),
        metric("alloc.per_frame", ratio(p.alloc.0, frames), "count"),
        metric("alloc.bytes_per_frame", ratio(p.alloc.1, frames), "B"),
        metric("gen.cpu_s", secs(p.open.generator_cpu), "s"),
        metric(
            "gen.late_p99_ms",
            stats::percentile(&p.open.late_ns, 99.0).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        metric(
            "trace.overhead_frac",
            per_frame(true) / per_frame(false) - 1.0,
            "ratio",
        ),
    ]
}

/// Count, total and self time of every span name.
fn span_lines(obs: &Observer) -> Vec<String> {
    let Some(tracer) = &obs.tracer else {
        return Vec::new();
    };
    let mut lines = vec![format!(
        "spans: {} kept, {} beyond the in-memory cap",
        tracer.spans().len(),
        tracer.dropped()
    )];
    for (name, t) in tracer.totals() {
        lines.push(format!(
            "span {name}: count {} total {} ms self {} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use serde_json::Value;

    /// (name, unit) of every entry of one `BENCHMARK.json` list.
    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Array(entries) = &doc[list] else {
            panic!("BENCHMARK.json has no {list}");
        };
        entries
            .iter()
            .map(|e| {
                let field = |key: &str| e[key].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        let open = OpenLoop::default();
        let end_to_end = end_to_end(&EndToEnd {
            setup: &[],
            reps: &[],
            opens: &[],
            closed: &Tally::default(),
            scored: 0,
            attempted: 0,
            bus_s_per_rep: 1.0,
            mem_peak: 0,
        });
        assert_eq!(declared(&doc, "end_to_end"), emitted(&end_to_end));
        let per_layer = per_layer(&PerLayer {
            reps: &[],
            open: &open,
            replay: &Replay::default(),
            alloc: (0, 0),
            samples_per_rep: 0,
        });
        assert_eq!(declared(&doc, "per_layer"), emitted(&per_layer));
        let Value::Array(workloads) = &doc["workloads"] else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().expect("name"),
                    w["why"].as_str().expect("why"),
                )
            })
            .collect();
        let defined: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(names, defined);
    }

    #[test]
    fn result_object_has_the_four_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "lat_p50_ms",
                value: 0.125,
                unit: "ms",
            }],
            lines: Vec::new(),
        };
        let doc: Value = serde_json::from_str(&report.json()).expect("valid JSON");
        assert!(matches!(doc["correct"], Value::Bool(true)));
        assert_eq!(doc["attempted"].as_f64(), Some(3.0));
        assert_eq!(doc["failed"].as_f64(), Some(0.0));
        assert_eq!(doc["metrics"]["lat_p50_ms"]["value"].as_f64(), Some(0.125));
        assert_eq!(doc["metrics"]["lat_p50_ms"]["unit"].as_str(), Some("ms"));
    }
}

//! The load generator: one thread replaying a tap through a pipeline,
//! either as fast as `feed` accepts (closed loop) or on a real-time
//! schedule (open loop), checking every event against ground truth.

use crate::stats::{self, Schedule};
use crate::tap::{FrameTruth, TapStream, CHUNK};
use crate::trace::Tracer;
use crate::workload::Core;
use crossbeam::channel::RecvTimeoutError;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use vprofile::{AnomalyKind, Verdict};
use vprofile_ids::{IdsEvent, PipelineStats};

/// How long the generator waits for an event it is owed before it
/// declares the pipeline stalled.
const STALL: Duration = Duration::from_secs(30);
/// Resident memory is sampled at most this often.
const RSS_EVERY: Duration = Duration::from_millis(5);
/// Pipeline statistics are snapshotted this often in traced open loops.
const SNAPSHOT_EVERY: Duration = Duration::from_millis(10);

/// FNV-1a over 64-bit words: the verdict-stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Folds everything an event says into `h`, with its stream position
/// taken relative to its pass so repeated passes can be compared. Shard
/// numbers are left out: they differ between worker counts by design.
fn digest(h: &mut Fnv, event: &IdsEvent, pass_start: u64) {
    h.word(event.stream_pos().wrapping_sub(pass_start));
    match event {
        IdsEvent::Scored(scored) => {
            h.word(0);
            h.word(scored.sa.map_or(256, |sa| u64::from(sa.raw())));
            h.word(u64::from(scored.extraction_failed));
            h.word(u64::from(scored.retrain_due));
            match scored.verdict {
                Verdict::Ok { cluster, distance } => {
                    h.word(0);
                    h.word(cluster.0 as u64);
                    h.word(distance.to_bits());
                }
                Verdict::Anomaly { kind } => match kind {
                    AnomalyKind::UnknownSa { sa } => {
                        h.word(1);
                        h.word(u64::from(sa.raw()));
                    }
                    AnomalyKind::ClusterMismatch {
                        expected,
                        predicted,
                        distance,
                    } => {
                        h.word(2);
                        h.word(expected.0 as u64);
                        h.word(predicted.0 as u64);
                        h.word(distance.to_bits());
                    }
                    AnomalyKind::ThresholdExceeded {
                        cluster,
                        distance,
                        limit,
                    } => {
                        h.word(3);
                        h.word(cluster.0 as u64);
                        h.word(distance.to_bits());
                        h.word(limit.to_bits());
                    }
                    AnomalyKind::Unscorable => h.word(4),
                },
            }
        }
        IdsEvent::Degraded { reason, .. } => {
            h.word(1);
            for byte in format!("{reason:?}").bytes() {
                h.word(u64::from(byte));
            }
        }
        IdsEvent::Dropped { reason, .. } => {
            h.word(2);
            for byte in format!("{reason:?}").bytes() {
                h.word(u64::from(byte));
            }
        }
    }
}

/// Per-frame accounting of one event stream against ground truth.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Events received (event `i` belongs to frame `i`).
    pub events: u64,
    /// Events carrying a verdict.
    pub scored: u64,
    /// Legitimate frames whose trace was not faulted.
    pub legit_clean: u64,
    /// ... of which were accepted.
    pub legit_clean_passed: u64,
    /// Attack frames.
    pub attacks: u64,
    /// ... of which were flagged anomalous.
    pub attacks_flagged: u64,
    /// Scored events whose window does not start at their frame.
    pub misplaced: u64,
    /// Verdict digest of each completed pass.
    pub pass_digests: Vec<u64>,
    current: Fnv,
}

impl Tally {
    /// Accounts for the next event; returns the truth of its frame.
    pub fn record(&mut self, stream: &TapStream, event: &IdsEvent) -> FrameTruth {
        let per_pass = stream.frames().len() as u64;
        let index = self.events;
        let truth = stream.frame(index);
        digest(
            &mut self.current,
            event,
            index / per_pass * stream.pass_samples(),
        );
        self.events += 1;
        if self.events.is_multiple_of(per_pass) {
            self.pass_digests.push(self.current.0);
            self.current = Fnv::default();
        }
        let (scored, flagged) = match event {
            IdsEvent::Scored(scored) => {
                // A window starts two bits of lead-in before SOF; allow a
                // bit either way for jitter and dropped samples.
                let bit = stream.samples_per_bit();
                if scored.stream_pos + 3 * bit < truth.sof || scored.stream_pos + bit > truth.sof {
                    self.misplaced += 1;
                }
                (
                    true,
                    scored.extraction_failed || scored.verdict.is_anomaly(),
                )
            }
            IdsEvent::Degraded { .. } | IdsEvent::Dropped { .. } => (false, false),
        };
        self.scored += u64::from(scored);
        if truth.attack {
            self.attacks += 1;
            self.attacks_flagged += u64::from(flagged);
        } else if !truth.faulted {
            self.legit_clean += 1;
            self.legit_clean_passed += u64::from(scored && !flagged);
        }
        truth
    }

    /// Adds another tally's counts (digests are not merged).
    pub fn add(&mut self, other: &Tally) {
        self.events += other.events;
        self.scored += other.scored;
        self.legit_clean += other.legit_clean;
        self.legit_clean_passed += other.legit_clean_passed;
        self.attacks += other.attacks;
        self.attacks_flagged += other.attacks_flagged;
        self.misplaced += other.misplaced;
    }
}

/// State shared by every loop of one run: the resident-memory watch and,
/// in a traced run, the span store.
#[derive(Debug)]
pub struct Observer {
    rss_base: u64,
    rss_peak: u64,
    rss_at: Instant,
    /// The span store of a traced run.
    pub tracer: Option<Tracer>,
    /// Record spans in the next loop (a traced run turns them off for
    /// some closed-loop reps to measure their overhead).
    pub spans: bool,
}

impl Observer {
    /// Starts watching memory from the current resident set.
    pub fn new(tracer: Option<Tracer>) -> Self {
        let rss = stats::rss_bytes().unwrap_or(0);
        Observer {
            rss_base: rss,
            rss_peak: rss,
            rss_at: Instant::now(),
            spans: tracer.is_some(),
            tracer,
        }
    }

    /// Peak resident memory seen since [`Observer::new`], above the
    /// resident set at that time.
    pub fn mem_peak_bytes(&self) -> u64 {
        self.rss_peak.saturating_sub(self.rss_base)
    }

    fn tick(&mut self) {
        if self.rss_at.elapsed() >= RSS_EVERY {
            if let Some(rss) = stats::rss_bytes() {
                self.rss_peak = self.rss_peak.max(rss);
            }
            self.rss_at = Instant::now();
        }
    }

    fn tracing(&mut self) -> Option<&mut Tracer> {
        if self.spans {
            self.tracer.as_mut()
        } else {
            None
        }
    }
}

/// One loop's span bookkeeping: its root span and the (chunk, span, end)
/// of the feed calls whose events may still arrive, oldest first.
struct Spans {
    root: Option<usize>,
    feeds: VecDeque<(u64, Option<usize>, Instant)>,
}

impl Spans {
    fn open(obs: &mut Observer, name: &'static str, id: u64) -> Self {
        let root = obs.tracing().and_then(|t| t.open(name, None, id));
        Spans {
            root,
            feeds: VecDeque::new(),
        }
    }

    fn fed(&mut self, obs: &mut Observer, chunk: u64, t0: Instant, t1: Instant) {
        if let Some(tracer) = obs.tracing() {
            let span = tracer.record("feed", t0, t1, self.root, chunk);
            self.feeds.push_back((chunk, span, t1));
        }
    }

    /// Records the event span of frame `frame`: from `since` (or, when
    /// `None`, from the feed of the chunk holding its EOF) to `at`, caused
    /// by that feed.
    fn received(
        &mut self,
        obs: &mut Observer,
        frame: u64,
        truth: &FrameTruth,
        since: Option<Instant>,
        at: Instant,
    ) {
        let Some(tracer) = obs.tracing() else {
            return;
        };
        let chunk = truth.eof / CHUNK as u64;
        while self.feeds.front().is_some_and(|f| f.0 < chunk) {
            self.feeds.pop_front();
        }
        let (span, fed) = match self.feeds.front() {
            Some(&(c, span, fed)) if c == chunk => (span, fed),
            _ => (None, at),
        };
        tracer.record("event", since.unwrap_or(fed), at, span, frame);
    }

    fn close(self, obs: &mut Observer) {
        if let Some(tracer) = obs.tracing() {
            tracer.close(self.root);
        }
    }
}

/// One closed-loop repetition.
#[derive(Debug)]
pub struct ClosedRep {
    /// Event accounting.
    pub tally: Tally,
    /// First feed to last event.
    pub wall: Duration,
    /// Pipeline statistics after close.
    pub stats: PipelineStats,
}

/// Feeds `passes` passes of `stream` into a fresh `workers`-wide pipeline
/// as fast as `feed` accepts, draining events between feeds.
///
/// # Errors
///
/// When the pipeline refuses a chunk, stalls, or fails to close.
pub fn closed_rep(
    core: &Core,
    workers: usize,
    stream: &TapStream,
    passes: u64,
    obs: &mut Observer,
) -> Result<ClosedRep, String> {
    let mut monitor = core.spawn(workers);
    let mut spans = Spans::open(obs, "closed.rep", passes);
    let mut tally = Tally::default();
    let chunks = passes * stream.chunks_per_pass() as u64;
    let start = Instant::now();
    let mut last = start;
    let mut receive = |event: IdsEvent, obs: &mut Observer, spans: &mut Spans| {
        let at = Instant::now();
        last = at;
        let truth = tally.record(stream, &event);
        spans.received(obs, tally.events - 1, &truth, None, at);
    };
    for c in 0..chunks {
        let samples = stream.chunk(c);
        let t0 = Instant::now();
        monitor.feed(samples).map_err(|e| format!("feed: {e}"))?;
        spans.fed(obs, c, t0, Instant::now());
        while let Ok(event) = monitor.events().try_recv() {
            receive(event, obs, &mut spans);
        }
        obs.tick();
    }
    monitor.close_input();
    loop {
        match monitor.events().recv_timeout(STALL) {
            Ok(event) => receive(event, obs, &mut spans),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => return Err("closed loop stalled".into()),
        }
    }
    obs.tick();
    let wall = last.saturating_duration_since(start);
    spans.close(obs);
    let stats = monitor.close().map_err(|e| format!("close: {e}"))?;
    Ok(ClosedRep { tally, wall, stats })
}

/// One open-loop run.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Event accounting.
    pub tally: Tally,
    /// Feed-to-event latency of every frame, ns, ascending.
    pub latencies_ns: Vec<f64>,
    /// Events that arrived before their frame was due.
    pub early: u64,
    /// How late each chunk was fed, ns, ascending.
    pub late_ns: Vec<f64>,
    /// Bus time replayed, s.
    pub bus_s: f64,
    /// CPU time of the pipeline threads.
    pub pipeline_cpu: Duration,
    /// CPU time of the generator thread.
    pub generator_cpu: Duration,
    /// Time spent inside `feed`, and the number of calls.
    pub feed_wait: Duration,
    /// `feed` calls.
    pub feed_calls: u64,
    /// Windows queued at the workers, every 10 ms (traced runs only).
    pub depths: Vec<f64>,
    /// Pipeline statistics after close.
    pub stats: PipelineStats,
}

/// CPU time of all live threads and of the calling one.
fn cpu_mark() -> Result<(Duration, Duration), String> {
    let all = stats::live_threads_cpu().ok_or("cannot read thread CPU time")?;
    let own = stats::thread_cpu().ok_or("cannot read thread CPU time")?;
    Ok((all, own))
}

impl OpenLoop {
    /// Median feed-to-event latency, ns.
    pub fn p50_ns(&self) -> Option<f64> {
        stats::percentile(&self.latencies_ns, 50.0)
    }

    /// Pipeline CPU seconds per bus-second replayed.
    pub fn cpu_per_bus_s(&self) -> f64 {
        self.pipeline_cpu.as_secs_f64() / self.bus_s
    }

    /// Everything `loops` measured, as one loop: counts and times summed,
    /// samples pooled (ascending), pipeline counters summed, except
    /// quarantined SAs, the most any loop ended with. Verdict digests are
    /// not carried over.
    pub fn combine(loops: &[OpenLoop]) -> OpenLoop {
        let mut all = OpenLoop::default();
        for run in loops {
            all.tally.add(&run.tally);
            all.latencies_ns.extend_from_slice(&run.latencies_ns);
            all.early += run.early;
            all.late_ns.extend_from_slice(&run.late_ns);
            all.bus_s += run.bus_s;
            all.pipeline_cpu += run.pipeline_cpu;
            all.generator_cpu += run.generator_cpu;
            all.feed_wait += run.feed_wait;
            all.feed_calls += run.feed_calls;
            all.depths.extend_from_slice(&run.depths);
            add_stats(&mut all.stats, &run.stats);
        }
        all.latencies_ns.sort_by(f64::total_cmp);
        all.late_ns.sort_by(f64::total_cmp);
        all
    }
}

/// Adds `b[i]` to `a[i]` for every `i`, growing `a` to `b`'s length.
fn add_each<T: Copy + Default>(a: &mut Vec<T>, b: &[T], add: impl Fn(T, T) -> T) {
    if a.len() < b.len() {
        a.resize(b.len(), T::default());
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x = add(*x, y);
    }
}

/// Adds the counters of `s` that the benchmark reports to `total`.
fn add_stats(total: &mut PipelineStats, s: &PipelineStats) {
    total.frames += s.frames;
    total.anomalies += s.anomalies;
    total.normals += s.normals;
    total.extraction_failures += s.extraction_failures;
    total.dropped += s.dropped;
    total.degraded += s.degraded;
    total.drift_verdicts += s.drift_verdicts;
    add_each(&mut total.shard_frames, &s.shard_frames, |a, b| a + b);
    add_each(&mut total.restarts, &s.restarts, |a, b| a + b);
    add_each(
        &mut total.voter_disagreements,
        &s.voter_disagreements,
        |a, b| a + b,
    );
    add_each(&mut total.quarantined_sas, &s.quarantined_sas, usize::max);
    let (t, s) = (&mut total.stage_ns, s.stage_ns);
    t.router_ns += s.router_ns;
    t.frame_ns += s.frame_ns;
    t.extract_ns += s.extract_ns;
    t.score_ns += s.score_ns;
    t.shadow_ns += s.shadow_ns;
    t.merge_ns += s.merge_ns;
}

/// Replays `passes` passes of `stream` into a fresh pipeline on
/// `schedule`: chunk `n` is fed when it is due, and between due times the
/// generator blocks on the event stream, so each event is stamped as it
/// arrives. Latency runs from the due time of the chunk holding the
/// frame's EOF.
///
/// # Errors
///
/// When the pipeline refuses a chunk, stalls, emits more events than
/// frames, or fails to close.
pub fn open_loop(
    core: &Core,
    workers: usize,
    stream: &TapStream,
    passes: u64,
    schedule: Schedule,
    obs: &mut Observer,
) -> Result<OpenLoop, String> {
    let chunks = passes * stream.chunks_per_pass() as u64;
    let expected = passes * stream.frames().len() as u64;
    let mut monitor = core.spawn(workers);
    let mut spans = Spans::open(obs, "open.loop", passes);
    let mut run = OpenLoop {
        latencies_ns: Vec::with_capacity(expected as usize),
        late_ns: Vec::with_capacity(chunks as usize),
        bus_s: schedule.bus_s(chunks),
        ..OpenLoop::default()
    };
    let first = cpu_mark()?;
    let mut next = stream.chunk(0);
    let origin = Instant::now();
    let mut snapshot_at = origin;
    let mut n = 0u64;
    let receive = |event: IdsEvent, run: &mut OpenLoop, obs: &mut Observer, spans: &mut Spans| {
        let at = Instant::now();
        let truth = run.tally.record(stream, &event);
        let due = origin + schedule.frame_due(truth.eof);
        match at.checked_duration_since(due) {
            Some(latency) => run.latencies_ns.push(latency.as_nanos() as f64),
            None => run.early += 1,
        }
        spans.received(obs, run.tally.events - 1, &truth, Some(due), at);
    };
    loop {
        if obs.tracer.is_some() && snapshot_at.elapsed() >= SNAPSHOT_EVERY {
            snapshot_at = Instant::now();
            run.depths
                .push(monitor.stats().queue_depths.iter().sum::<usize>() as f64);
        }
        if n < chunks {
            let due = origin + schedule.due(n);
            let now = Instant::now();
            if now >= due {
                run.late_ns.push((now - due).as_nanos() as f64);
                let samples = std::mem::take(&mut next);
                monitor.feed(samples).map_err(|e| format!("feed: {e}"))?;
                let fed = Instant::now();
                run.feed_wait += fed - now;
                run.feed_calls += 1;
                spans.fed(obs, n, now, fed);
                n += 1;
                if n < chunks {
                    next = stream.chunk(n);
                }
                obs.tick();
                continue;
            }
            match monitor.events().recv_timeout(due - now) {
                Ok(event) => receive(event, &mut run, obs, &mut spans),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("event stream ended early".into())
                }
            }
        } else if run.tally.events < expected {
            match monitor.events().recv_timeout(STALL) {
                Ok(event) => receive(event, &mut run, obs, &mut spans),
                Err(_) => {
                    return Err(format!(
                        "open loop stalled after {} of {expected} events",
                        run.tally.events
                    ))
                }
            }
        } else {
            break;
        }
    }
    // Every frame closes inside its pass, so all events are in while the
    // pipeline threads are still alive to be read.
    let last = cpu_mark()?;
    run.generator_cpu = last.1.saturating_sub(first.1);
    run.pipeline_cpu = last
        .0
        .saturating_sub(first.0)
        .saturating_sub(run.generator_cpu);
    monitor.close_input();
    let extra = monitor.events().iter().count();
    if extra > 0 {
        return Err(format!("{extra} events beyond the {expected} frames fed"));
    }
    spans.close(obs);
    run.stats = monitor.close().map_err(|e| format!("close: {e}"))?;
    run.latencies_ns.sort_by(f64::total_cmp);
    run.late_ns.sort_by(f64::total_cmp);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_loops_sum_counts_and_pool_samples() {
        let a = OpenLoop {
            latencies_ns: vec![1.0, 5.0],
            bus_s: 2.0,
            pipeline_cpu: Duration::from_millis(100),
            feed_calls: 3,
            stats: PipelineStats {
                frames: 2,
                shard_frames: vec![1, 1],
                quarantined_sas: vec![2, 0],
                ..PipelineStats::default()
            },
            ..OpenLoop::default()
        };
        let b = OpenLoop {
            latencies_ns: vec![3.0],
            bus_s: 1.0,
            pipeline_cpu: Duration::from_millis(50),
            feed_calls: 4,
            stats: PipelineStats {
                frames: 1,
                shard_frames: vec![0, 1],
                quarantined_sas: vec![1, 1],
                ..PipelineStats::default()
            },
            ..OpenLoop::default()
        };
        assert_eq!(a.p50_ns(), Some(1.0));
        assert!((a.cpu_per_bus_s() - 0.05).abs() < 1e-12);
        let all = OpenLoop::combine(&[a, b]);
        assert_eq!(all.latencies_ns, vec![1.0, 3.0, 5.0]);
        assert_eq!(all.p50_ns(), Some(3.0));
        assert!((all.cpu_per_bus_s() - 0.05).abs() < 1e-12);
        assert_eq!(all.feed_calls, 7);
        assert_eq!(all.stats.frames, 3);
        assert_eq!(all.stats.shard_frames, vec![1, 2]);
        assert_eq!(all.stats.quarantined_sas, vec![2, 1]);
    }
}

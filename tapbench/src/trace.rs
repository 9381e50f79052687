//! Spans recorded by the benchmark around its calls into each layer, and
//! the single-thread replay of one pass through the public layer calls.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! started), the span that caused it, and an identifier: the frame index
//! for frame-level spans, the chunk index for chunk-level ones. Spans are
//! kept in memory and written as JSON lines when the run ends. A span's
//! self time is its duration minus the part of it its children cover.

use crate::tap::TapStream;
use crate::workload::Core;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use vprofile::{EdgeSetExtractor, ScratchArena, VProfileConfig};
use vprofile_ids::{
    AlarmAggregator, Backend, DetectionBackend, IdsEngine, StreamFramer, UpdatePolicy,
};

/// Spans kept for the output file; later spans are counted, not kept.
const MAX_SPANS: usize = 1 << 19;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call or phase name.
    pub name: &'static str,
    /// Start, in ns since the tracer started.
    pub start: u64,
    /// End, in ns since the tracer started (0 while still open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Frame index (frame spans) or chunk index (chunk spans).
    pub id: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// `t` in ns since the tracer started.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index when it was kept.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            id,
        };
        self.push(span)
    }

    /// Opens a span that will have children; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let start = self.at(Instant::now());
        self.push(Span {
            name,
            start,
            end: 0,
            parent,
            id,
        })
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: Option<usize>) {
        let end = self.at(Instant::now());
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i)) {
            span.end = end;
        }
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Spans that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(list) = span.parent.and_then(|p| children.get_mut(p)) {
                list.push((span.start, span.end));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let duration = span.end.saturating_sub(span.start);
            let covered = covered(span.start, span.end, kids);
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered.min(duration);
        }
        totals
    }

    /// Writes every kept span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                span.name, span.start, span.end, span.id
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// What the single-thread replay measured over one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Windows framed.
    pub frames: u64,
    /// `StreamFramer::push_into`, ns.
    pub framer_ns: u64,
    /// `EdgeSetExtractor::peek_sa`, ns.
    pub peek_ns: u64,
    /// `EdgeSetExtractor::extract_into`, ns.
    pub extract_ns: u64,
    /// `DetectionBackend::classify_into`, every voter, ns.
    pub classify_ns: u64,
    /// `FusionEngine::classify_extracted`, ns (fused workloads).
    pub fusion_ns: u64,
    /// Engine `process_window` with the workload's update policy, ns.
    pub process_ns: u64,
    /// The same windows with updates off, ns (updating workloads only).
    pub process_read_only_ns: u64,
    /// Edge sets absorbed into the vProfile model.
    pub absorbed: u64,
    /// `AlarmAggregator::absorb`, ns.
    pub alarm_ns: u64,
    /// Alarm incidents open after the pass.
    pub incidents: u64,
}

/// Replays one pass of `stream` through the layer calls one at a time,
/// recording a span around each.
///
/// # Errors
///
/// When the framer finds a different number of windows than frames.
pub fn replay(
    core: &Core,
    config: &VProfileConfig,
    stream: &TapStream,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let root = tracer.open("replay", None, 0);
    let mut out = Replay::default();
    let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    let mut windows = Vec::new();
    for c in 0..stream.chunks_per_pass() as u64 {
        let chunk = stream.chunk(c);
        let t0 = Instant::now();
        framer.push_into(&chunk, &mut windows);
        let t1 = Instant::now();
        out.framer_ns += ns(t0, t1);
        tracer.record("framer.push_into", t0, t1, root, c);
    }
    if windows.len() != stream.frames().len() {
        return Err(format!(
            "replay framed {} windows for {} frames",
            windows.len(),
            stream.frames().len()
        ));
    }
    let extractor = EdgeSetExtractor::new(config.clone());
    let mut scratch = ScratchArena::new();
    let mut voters: Vec<Backend> = match core {
        Core::Single(engine) => vec![engine.backend().clone()],
        Core::Fused(engine) => engine.voters().to_vec(),
    };
    let mut fusion = match core {
        Core::Single(_) => None,
        Core::Fused(engine) => Some(engine.clone()),
    };
    let mut engine = core.clone();
    let mut alarm = AlarmAggregator::new(16);
    for (i, (pos, window)) in windows.iter().enumerate() {
        let id = i as u64;
        let frame = tracer.open("replay.frame", root, id);
        let t0 = Instant::now();
        let peeked = extractor.peek_sa(window);
        let t1 = Instant::now();
        let extracted = extractor.extract_into(window, &mut scratch);
        let t2 = Instant::now();
        tracer.record("extract.peek_sa", t0, t1, frame, id);
        tracer.record("extract.extract_into", t1, t2, frame, id);
        out.peek_ns += ns(t0, t1);
        out.extract_ns += ns(t1, t2);
        std::hint::black_box(peeked.ok());
        if let Ok(sa) = extracted {
            for voter in &mut voters {
                let t0 = Instant::now();
                std::hint::black_box(voter.classify_into(&mut scratch, sa));
                let t1 = Instant::now();
                tracer.record("score.classify_into", t0, t1, frame, id);
                out.classify_ns += ns(t0, t1);
            }
            if let Some(fusion) = &mut fusion {
                let t0 = Instant::now();
                std::hint::black_box(fusion.classify_extracted(sa, &scratch.edge_set));
                let t1 = Instant::now();
                tracer.record("fusion.classify_extracted", t0, t1, frame, id);
                out.fusion_ns += ns(t0, t1);
            }
        }
        let t0 = Instant::now();
        let event = engine.process_window(*pos, window);
        let t1 = Instant::now();
        tracer.record("engine.process_window", t0, t1, frame, id);
        out.process_ns += ns(t0, t1);
        let t0 = Instant::now();
        alarm.absorb(&event);
        let t1 = Instant::now();
        tracer.record("alarm.absorb", t0, t1, frame, id);
        out.alarm_ns += ns(t0, t1);
        tracer.close(frame);
    }
    out.frames = windows.len() as u64;
    out.incidents = alarm.incidents().len() as u64;
    if let (Core::Single(before), Core::Single(after)) = (core, &mut engine) {
        if before.model().is_some() && after.model().is_some() {
            after.apply_pending_updates();
            out.absorbed = cluster_count(after).saturating_sub(cluster_count(before));
        }
        if out.absorbed > 0 {
            let mut read_only = IdsEngine::with_backend(
                before.backend().clone(),
                before.config().clone(),
                UpdatePolicy::disabled(),
            );
            let t0 = Instant::now();
            for (pos, window) in &windows {
                std::hint::black_box(read_only.process_window(*pos, window));
            }
            out.process_read_only_ns = ns(t0, Instant::now());
        }
    }
    tracer.close(root);
    Ok(out)
}

/// Observations held by the engine's vProfile clusters.
fn cluster_count(engine: &IdsEngine) -> u64 {
    engine
        .model()
        .map_or(0, |m| m.clusters().iter().map(|c| c.count() as u64).sum())
}

fn ns(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new();
        let t = tracer.epoch;
        let at = |ns: u64| t + Duration::from_nanos(ns);
        let root = tracer.record("root", at(0), at(100), None, 0);
        // Two overlapping children cover 10..50; one reaches past the end.
        tracer.record("child", at(10), at(40), root, 0);
        tracer.record("child", at(30), at(50), root, 0);
        tracer.record("late", at(90), at(130), root, 0);
        let totals = tracer.totals();
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 100 - 40 - 10);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_ns, 50);
        assert_eq!(totals["late"].self_ns, 40);
    }

    #[test]
    fn open_spans_close_in_place() {
        let mut tracer = Tracer::new();
        let parent = tracer.open("outer", None, 7);
        tracer.record("inner", Instant::now(), Instant::now(), parent, 7);
        tracer.close(parent);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(spans[1].parent, Some(0));
    }
}

//! A threaded, sharded, self-healing IDS pipeline: sample chunks in,
//! detection events out.
//!
//! There is no router thread and no chunk queue. [`IdsPipeline::feed`] is
//! the router: on the calling thread, under one lock, it
//!
//! * wraps the caller's `Vec<f64>` in an `Arc` (no copy of the samples);
//! * *splits* it into frame windows with a [`FrameSplitter`] — the
//!   framer's boundary state machine over borrowed chunk slices — and
//!   peeks each frame's claimed source address
//!   ([`vprofile::EdgeSetExtractor::peek_sa`]) on exactly the frame's
//!   sample range;
//! * publishes each window to a worker shard chosen by
//!   [`crate::stable_shard_seeded`], over bounded per-shard SPSC rings
//!   ([`SpscRing`]) in batches of [`ROUTE_BATCH`], so the hand-off costs
//!   one atomic per batch, not per frame. Routing by the claimed SA means
//!   each worker owns a *disjoint* set of per-SA cluster state, so online
//!   updates never race across workers.
//!
//! Behind the rings run
//!
//! * **N supervised detection workers**, each owning a clone of the
//!   [`IdsEngine`]. A routed segment already *is* the framer's window, so
//!   the worker scores it in place: a frame that closed in its own chunk
//!   is borrowed from that chunk, and only a frame straddling a chunk
//!   boundary is copied once into a reusable per-worker buffer. Each
//!   worker runs under a supervisor that catches panics and respawns the
//!   scoring loop from a periodically-refreshed engine checkpoint, with
//!   exponential backoff and a bounded restart budget; past the budget the
//!   shard fails permanently and its windows drain as
//!   [`IdsEvent::Dropped`] placeholders. Each worker also runs a
//!   [`crate::health::HealthMonitor`]: sustained extraction failures or
//!   unscorable verdicts trip a circuit breaker into degraded mode
//!   ([`IdsEvent::Degraded`] instead of hard verdicts, affected SAs
//!   quarantined from online updates) until recovery probes succeed;
//! * a **merger** that feeds events through a [`crate::ReorderBuffer`]
//!   keyed by the feed's sequence numbers, so the emitted event order is
//!   deterministic, and updates the shared [`PipelineStats`] *in the same
//!   critical section* that emits each event — a stats snapshot can
//!   therefore never disagree with the events already delivered.
//!
//! Events leave over an unbounded channel. What `feed` does at a full
//! shard ring (capacity [`PipelineConfig::high_water`] windows) is the
//! configured [`BackpressurePolicy`]: `Block` waits for the worker,
//! `Reject` refuses the whole chunk before splitting it (safe to retry;
//! counted in `rejected_chunks`, outside the frame identity), and
//! `DropOldest` sheds the incoming windows as [`IdsEvent::Dropped`]
//! placeholders with [`DropReason::Backlogged`], counted in `dropped` and
//! [`PipelineStats::shard_sheds`].
//!
//! Every split frame becomes exactly one event, so
//! `frames == anomalies + normals + extraction_failures + dropped + degraded`
//! holds in every stats snapshot.

use crate::engine::elapsed_ns;
use crate::fusion::{FusionEngine, FusionEvent, FusionRecord};
use crate::health::{
    BackpressurePolicy, BreakerState, DropReason, HealthConfig, HealthMonitor, WindowOutcome,
};
use crate::ring::SpscRing;
use crate::shadow::{ShadowEvent, ShadowVerdict};
use crate::splitter::{FrameSplitter, RawSegment};
use crate::{stable_shard_seeded, IdsEngine, IdsEvent, ReorderBuffer};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vprofile::{EdgeSetExtractor, VProfileConfig};
use vprofile_fusion::DriftLedger;

/// Failure modes of the threaded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// [`IdsPipeline::feed`] was called after the input was closed.
    InputClosed,
    /// A shard's worker is gone beyond supervision, so the chunk could not
    /// be delivered.
    WorkerUnavailable,
    /// A pipeline thread panicked beyond what supervision covers; its
    /// engine (and possibly trailing events) are lost.
    WorkerPanicked,
    /// A shard ring is full and the pipeline runs the
    /// [`BackpressurePolicy::Reject`] policy; the chunk was not accepted
    /// and may be fed again.
    Backlogged,
    /// [`IdsPipeline::finish`] was called on a pipeline with more than one
    /// worker; use [`IdsPipeline::close`] to collect all engines.
    NotSingleWorker,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InputClosed => f.write_str("pipeline input already closed"),
            PipelineError::WorkerUnavailable => {
                f.write_str("detection workers are no longer receiving samples")
            }
            PipelineError::WorkerPanicked => f.write_str("a pipeline thread panicked"),
            PipelineError::Backlogged => {
                f.write_str("a shard ring is full and the backpressure policy rejects")
            }
            PipelineError::NotSingleWorker => {
                f.write_str("finish() requires a single-worker pipeline; use close()")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Hook invoked by each worker before scoring a window; test-only fault
/// injection.
type FaultHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// The engine a shard worker runs: a single-backend [`IdsEngine`] or a
/// multi-voter [`FusionEngine`]. One enum keeps the routing, supervisor,
/// breaker, checkpoint, and merger machinery identical for both — a
/// fused pipeline is the same pipeline with a different core.
#[derive(Debug, Clone)]
pub(crate) enum CoreEngine {
    /// One detection backend (the historical pipeline).
    Single(IdsEngine),
    /// An N-voter fusion ensemble (boxed: the fusion core preallocates
    /// per-SA state for every voter, so the variant is large).
    Fused(Box<FusionEngine>),
}

impl CoreEngine {
    /// The framing/extraction configuration, for the feed-side splitter.
    fn config(&self) -> &VProfileConfig {
        match self {
            CoreEngine::Single(engine) => engine.config(),
            CoreEngine::Fused(engine) => engine.config(),
        }
    }

    /// Scores one window; the fused variant also returns its per-frame
    /// fusion telemetry.
    fn process_window_shard(
        &mut self,
        stream_pos: u64,
        window: &[f64],
        shard: usize,
    ) -> (IdsEvent, u64, u64, Option<FusionRecord>) {
        match self {
            CoreEngine::Single(engine) => {
                let (event, extract_ns, score_ns) = engine.process_window_timed(stream_pos, window);
                (event, extract_ns, score_ns, None)
            }
            CoreEngine::Fused(engine) => engine.process_window_shard(stream_pos, window, shard),
        }
    }

    fn apply_pending_updates(&mut self) {
        match self {
            CoreEngine::Single(engine) => engine.apply_pending_updates(),
            CoreEngine::Fused(engine) => engine.apply_pending_updates(),
        }
    }

    fn quarantine_sa(&mut self, sa: u8) {
        match self {
            CoreEngine::Single(engine) => engine.quarantine_sa(sa),
            CoreEngine::Fused(engine) => engine.quarantine_sa(sa),
        }
    }

    fn release_all_quarantined(&mut self) {
        match self {
            CoreEngine::Single(engine) => engine.release_all_quarantined(),
            CoreEngine::Fused(engine) => engine.release_all_quarantined(),
        }
    }

    fn quarantined_len(&self) -> usize {
        match self {
            CoreEngine::Single(engine) => engine.quarantined().len(),
            CoreEngine::Fused(engine) => engine.quarantined().len(),
        }
    }

    /// Number of fusion voters (0 for a single-backend core).
    fn voter_count(&self) -> usize {
        match self {
            CoreEngine::Single(_) => 0,
            CoreEngine::Fused(engine) => engine.voters().len(),
        }
    }

    /// Unwraps the single-backend engine.
    pub(crate) fn into_single(self) -> Option<IdsEngine> {
        match self {
            CoreEngine::Single(engine) => Some(engine),
            CoreEngine::Fused(_) => None,
        }
    }

    /// Unwraps the fusion engine.
    pub(crate) fn into_fused(self) -> Option<FusionEngine> {
        match self {
            CoreEngine::Fused(engine) => Some(*engine),
            CoreEngine::Single(_) => None,
        }
    }
}

/// Construction parameters for [`IdsPipeline::spawn_sharded`].
#[derive(Clone)]
pub struct PipelineConfig {
    /// Number of detection workers; `0` means one per available CPU.
    pub workers: usize,
    /// Capacity of each shard ring, in frame windows. What
    /// [`IdsPipeline::feed`] does at a full ring is
    /// [`PipelineConfig::backpressure`].
    pub high_water: usize,
    /// Largest number of queued windows a worker drains per wakeup; the
    /// batch shares one scoring-cache lookup run.
    pub batch_max: usize,
    /// What [`IdsPipeline::feed`] does at a full shard ring.
    pub backpressure: BackpressurePolicy,
    /// How many times a panicked worker is respawned from its checkpoint
    /// before the shard fails permanently.
    pub restart_budget: u32,
    /// Base of the exponential restart backoff (doubles per restart,
    /// capped at `base << 6`).
    pub backoff_base_ms: u64,
    /// Refresh the restart checkpoint every this many scored windows (the
    /// checkpoint is also refreshed on every breaker transition).
    pub checkpoint_interval: usize,
    /// Per-shard health-monitor tuning.
    pub health: HealthConfig,
    /// Rebalance seed folded into the SA→shard hash
    /// ([`crate::stable_shard_seeded`]). `0` (default) is the historical
    /// pinned mapping; any other value deterministically reshuffles shard
    /// ownership, the knob a deployment turns when its chatty SAs happen
    /// to collide on one worker (measure with
    /// [`PipelineStats::shard_frames`], pick a seed offline, pin it).
    pub shard_seed: u64,
    fault_hook: Option<FaultHook>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 0,
            high_water: 64,
            batch_max: 32,
            backpressure: BackpressurePolicy::Block,
            restart_budget: 3,
            backoff_base_ms: 5,
            checkpoint_interval: 256,
            health: HealthConfig::default(),
            shard_seed: 0,
            fault_hook: None,
        }
    }
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workers", &self.workers)
            .field("high_water", &self.high_water)
            .field("batch_max", &self.batch_max)
            .field("backpressure", &self.backpressure)
            .field("restart_budget", &self.restart_budget)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("health", &self.health)
            .field("shard_seed", &self.shard_seed)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

impl PipelineConfig {
    /// Sets the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the shard ring capacity in frame windows.
    #[must_use]
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        self.high_water = high_water;
        self
    }

    /// Sets the per-wakeup worker drain bound.
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// Sets the feed-side overflow policy.
    #[must_use]
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the per-shard restart budget.
    #[must_use]
    pub fn with_restart_budget(mut self, budget: u32) -> Self {
        self.restart_budget = budget;
        self
    }

    /// Sets the restart backoff base in milliseconds.
    #[must_use]
    pub fn with_backoff_base_ms(mut self, base_ms: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self
    }

    /// Sets the checkpoint refresh interval in scored windows.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the health-monitor tuning.
    #[must_use]
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Sets the SA→shard rebalance seed (see [`PipelineConfig::shard_seed`]).
    #[must_use]
    pub fn with_shard_seed(mut self, seed: u64) -> Self {
        self.shard_seed = seed;
        self
    }

    /// Installs a hook called as `(shard, seq)` before each window is
    /// scored. Exists so tests can inject worker faults (e.g. panics) at
    /// precise points; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }
}

/// Aggregate pipeline counters.
///
/// The per-frame counters are mutually exclusive and partition the total:
/// `frames == anomalies + normals + extraction_failures + dropped +
/// degraded` holds in every snapshot, because the merger updates them in
/// the same critical section that emits the corresponding event.
/// `rejected_chunks` counts chunks refused at the feed boundary — a refused
/// chunk never became frames, so it sits outside the frame identity by
/// construction. Ring-level shedding is different: a shed window is already
/// a split frame, so it is counted in `dropped` (inside the identity) and
/// attributed to its shard in `shard_sheds`.
// xtask: frame-identity: frames == anomalies + normals + extraction_failures + dropped + degraded
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Framed windows that produced an event (scored, degraded or dropped).
    pub frames: u64,
    /// Frames whose verdict was anomalous (extraction failures excluded).
    pub anomalies: u64,
    /// Frames accepted as consistent with their claimed sender.
    pub normals: u64,
    /// Frames whose extraction failed (reported as anomalous events, but
    /// counted separately here).
    pub extraction_failures: u64,
    /// Frames lost to worker restarts, permanently failed shards, or
    /// ring-level backpressure shedding (emitted as [`IdsEvent::Dropped`]
    /// placeholders).
    pub dropped: u64,
    /// Frames consumed while a shard's breaker was open (emitted as
    /// [`IdsEvent::Degraded`]).
    pub degraded: u64,
    /// Raw sample chunks refused by [`BackpressurePolicy::Reject`] before
    /// framing.
    // xtask: outside-frame-identity
    pub rejected_chunks: u64,
    /// Frames handled by each worker shard; sums to `frames`.
    // xtask: shard-breakdown(frames)
    pub shard_frames: Vec<u64>,
    /// Frame windows shed by each shard's full ring under
    /// [`BackpressurePolicy::DropOldest`]; the subset of `dropped` with
    /// [`DropReason::Backlogged`], attributed to exactly one shard.
    // xtask: shard-breakdown(dropped)
    pub shard_sheds: Vec<u64>,
    /// Instantaneous queue depth (windows routed but not yet handled) per
    /// shard at snapshot time; all zero after a clean [`IdsPipeline::close`].
    pub queue_depths: Vec<usize>,
    /// Supervisor restarts performed per shard.
    pub restarts: Vec<u32>,
    /// Circuit-breaker position per shard at snapshot time.
    pub breaker: Vec<BreakerState>,
    /// `true` for shards whose restart budget is exhausted.
    pub shard_failed: Vec<bool>,
    /// Number of SAs currently quarantined from online updates, per shard.
    pub quarantined_sas: Vec<usize>,
    /// Frames that were also scored by shadow backends (zero unless the
    /// pipeline was spawned through [`crate::ShadowPipeline`]).
    // xtask: outside-frame-identity
    pub shadow_frames: u64,
    /// Frames on which each shadow backend's anomaly/normal call differed
    /// from the primary's, indexed in shadow order.
    // xtask: outside-frame-identity
    pub shadow_disagreements: Vec<u64>,
    /// Frames scored through the fusion ensemble (zero unless the
    /// pipeline was spawned through [`crate::FusionPipeline`]). Counts
    /// fused frames, which already partition into the per-frame counters
    /// above, so it sits outside the frame identity.
    // xtask: outside-frame-identity
    pub fusion_frames: u64,
    /// Frames on which each fusion voter's individual calibrated call
    /// differed from the fused call, indexed by voter (0 = primary).
    // xtask: outside-frame-identity
    pub voter_disagreements: Vec<u64>,
    /// Typed change-point verdicts emitted by the fusion drift detectors
    /// (a property of fused frames, not a frame class of its own).
    // xtask: outside-frame-identity
    pub drift_verdicts: u64,
    /// Fusion voters suspended mid-stream. The outage *frames* are
    /// already counted in `degraded`; this counts the transitions.
    // xtask: outside-frame-identity
    pub voter_outages: u64,
    /// Cumulative wall-clock time spent in each pipeline stage, summed
    /// across the threads running it.
    pub stage_ns: StageBreakdown,
}

/// Per-stage wall-clock attribution of pipeline work, in nanoseconds.
///
/// Counters are cumulative and monotonic; `extract_ns` and `score_ns` sum
/// over every detection worker, so with N busy workers their sum can
/// exceed the pipeline's elapsed wall time. Time `feed` spends blocked on a
/// full shard ring (backpressure) is *not* counted — the counters
/// attribute compute, not waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Splitting the raw sample stream into frame windows plus the SA
    /// peek that picks each window's shard, inside [`IdsPipeline::feed`]
    /// on the feeding thread.
    pub router_ns: u64,
    /// Copying windows that straddle a chunk boundary into one contiguous
    /// buffer, across all workers; every other window is scored in place.
    pub frame_ns: u64,
    /// Algorithm 1 edge-set extraction, across all workers.
    pub extract_ns: u64,
    /// Scoring — cache upkeep, nearest-cluster classification, and online
    /// update absorption — across all workers.
    pub score_ns: u64,
    /// Shadow-backend scoring (extraction + classification for every
    /// shadow engine), across all workers; zero without shadow mode.
    pub shadow_ns: u64,
    /// Reorder-buffer pushes and the stats/emit critical sections in the
    /// merger thread.
    pub merge_ns: u64,
}

/// Live atomics behind [`StageBreakdown`], shared by all pipeline threads.
#[derive(Debug, Default)]
struct StageClocks {
    router: AtomicU64,
    frame: AtomicU64,
    extract: AtomicU64,
    score: AtomicU64,
    shadow: AtomicU64,
    merge: AtomicU64,
}

impl StageClocks {
    fn snapshot(&self) -> StageBreakdown {
        StageBreakdown {
            router_ns: self.router.load(Ordering::Relaxed),
            frame_ns: self.frame.load(Ordering::Relaxed),
            extract_ns: self.extract.load(Ordering::Relaxed),
            score_ns: self.score.load(Ordering::Relaxed),
            shadow_ns: self.shadow.load(Ordering::Relaxed),
            merge_ns: self.merge.load(Ordering::Relaxed),
        }
    }
}

/// One frame window travelling from `feed` to a worker over the shard's
/// ring; the worker scores it in place.
#[derive(Debug)]
struct SegmentItem {
    seq: u64,
    segment: RawSegment,
}

/// One event travelling from a worker to the merger. `shadow` is empty
/// unless the pipeline runs shadow backends, so the non-shadow hot path
/// stays allocation-free; `fusion` is `None` unless the core is a
/// [`FusionEngine`] (the record itself is `Copy`, so attaching it costs
/// no allocation either way).
struct ScoredItem {
    seq: u64,
    shard: usize,
    event: IdsEvent,
    shadow: Vec<ShadowVerdict>,
    fusion: Option<FusionRecord>,
}

/// Live per-shard gauges, written by supervisors and read by
/// [`IdsPipeline::stats`].
#[derive(Default)]
struct ShardGauges {
    depth: AtomicUsize,
    restarts: AtomicU32,
    breaker_open: AtomicBool,
    failed: AtomicBool,
    quarantined: AtomicUsize,
}

/// A running threaded IDS. Drop-free shutdown: close the sample input
/// (call [`IdsPipeline::close`] / [`IdsPipeline::finish`]) and join.
#[derive(Debug)]
pub struct IdsPipeline {
    /// The feed-side router; `None` once the input is closed. `feed`
    /// takes `&self`, so concurrent feeders serialize on this lock.
    router: Mutex<Option<FeedRouter>>,
    /// Chunks refused under [`BackpressurePolicy::Reject`]: an atomic, so
    /// [`IdsPipeline::stats`] never waits on a `feed` parked on a ring.
    rejected_chunks: AtomicU64,
    event_rx: Receiver<IdsEvent>,
    stats: Arc<Mutex<PipelineStats>>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    workers: Vec<JoinHandle<CoreEngine>>,
    merger: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardGauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGauges")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("restarts", &self.restarts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl IdsPipeline {
    /// Spawns a single-worker pipeline around an engine — the original
    /// one-thread-per-stage topology, kept as the compatibility entry point.
    ///
    /// `ring_capacity` bounds the worker's ring (frame windows, not
    /// samples).
    pub fn spawn(engine: IdsEngine, ring_capacity: usize) -> Self {
        Self::spawn_sharded(
            engine,
            PipelineConfig::default()
                .with_workers(1)
                .with_high_water(ring_capacity),
        )
    }

    /// Spawns the sharded pipeline: `config.workers` supervised detection
    /// workers (each a clone of `engine`) and one merging thread; the
    /// routing runs inside [`IdsPipeline::feed`].
    ///
    /// Windows are routed by a stable hash of the claimed source address,
    /// so each worker owns a disjoint set of per-SA cluster state; the
    /// merger re-serializes events into framing order, making the output
    /// stream deterministic and — when online updates are disabled —
    /// identical to a single-worker run.
    pub fn spawn_sharded(engine: IdsEngine, config: PipelineConfig) -> Self {
        let (pipeline, _shadow_rx) = Self::spawn_with_shadows(engine, Vec::new(), config);
        pipeline
    }

    /// Spawns the sharded pipeline with `shadows` scored alongside the
    /// primary engine on every shard; used by [`crate::ShadowPipeline`].
    pub(crate) fn spawn_with_shadows(
        engine: IdsEngine,
        shadows: Vec<IdsEngine>,
        config: PipelineConfig,
    ) -> (Self, Receiver<ShadowEvent>) {
        let (pipeline, shadow_rx, _fusion_rx) =
            Self::spawn_core(CoreEngine::Single(engine), shadows, config, None);
        (pipeline, shadow_rx)
    }

    /// Spawns the sharded pipeline around any [`CoreEngine`] — the one
    /// construction path behind every public `spawn*`. `ledger`, when
    /// given, receives every notable fusion frame from the merger.
    pub(crate) fn spawn_core(
        engine: CoreEngine,
        shadows: Vec<IdsEngine>,
        config: PipelineConfig,
        ledger: Option<Arc<DriftLedger>>,
    ) -> (Self, Receiver<ShadowEvent>, Receiver<FusionEvent>) {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let high_water = config.high_water.max(1);
        let batch_max = config.batch_max.max(1);
        let checkpoint_interval = config.checkpoint_interval.max(1);

        let (event_tx, event_rx) = unbounded::<IdsEvent>();
        let (scored_tx, scored_rx) = unbounded::<ScoredItem>();
        let (shadow_tx, shadow_rx) = unbounded::<ShadowEvent>();
        let (fusion_tx, fusion_rx) = unbounded::<FusionEvent>();
        let stats = Arc::new(Mutex::new(PipelineStats {
            shard_frames: vec![0; workers],
            shard_sheds: vec![0; workers],
            queue_depths: vec![0; workers],
            restarts: vec![0; workers],
            breaker: vec![BreakerState::Closed; workers],
            shard_failed: vec![false; workers],
            quarantined_sas: vec![0; workers],
            shadow_disagreements: vec![0; shadows.len()],
            voter_disagreements: vec![0; engine.voter_count()],
            ..PipelineStats::default()
        }));
        let gauges: Arc<Vec<ShardGauges>> =
            Arc::new((0..workers).map(|_| ShardGauges::default()).collect());
        let clocks = Arc::new(StageClocks::default());

        let mut rings: Vec<Arc<SpscRing<SegmentItem>>> = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let ring = Arc::new(SpscRing::new(high_water));
            rings.push(Arc::clone(&ring));
            let rt = WorkerRuntime {
                shard,
                ring,
                scored_tx: scored_tx.clone(),
                gauges: Arc::clone(&gauges),
                clocks: Arc::clone(&clocks),
                hook: config.fault_hook.clone(),
                batch_max,
                checkpoint_interval,
                restart_budget: config.restart_budget,
                backoff_base_ms: config.backoff_base_ms,
                health: config.health,
            };
            let worker_engine = engine.clone();
            let worker_shadows = shadows.clone();
            worker_handles.push(std::thread::spawn(move || {
                supervised_worker(worker_engine, worker_shadows, rt)
            }));
        }

        // The router keeps the last scored sender, for its DropOldest shed
        // placeholders, until the input closes; beyond that only workers
        // hold one, so the merger exits once the input is closed and the
        // last worker has drained its ring.
        let model_config = engine.config();
        let router = FeedRouter {
            splitter: FrameSplitter::new(
                model_config.bit_width_samples,
                model_config.bit_threshold,
            ),
            peeker: EdgeSetExtractor::new(model_config.clone()),
            segments: Vec::new(),
            publisher: Publisher {
                batches: (0..workers).map(|_| Vec::new()).collect(),
                rings,
                scored_tx,
                gauges: Arc::clone(&gauges),
                policy: config.backpressure,
                shard_seed: config.shard_seed,
                next_seq: 0,
                consumer_gone: false,
            },
        };

        let merger_stats = Arc::clone(&stats);
        let merger_clocks = Arc::clone(&clocks);
        let merger = std::thread::spawn(move || {
            merger_loop(
                scored_rx,
                event_tx,
                shadow_tx,
                fusion_tx,
                ledger,
                merger_stats,
                merger_clocks,
            )
        });

        let pipeline = IdsPipeline {
            router: Mutex::new(Some(router)),
            rejected_chunks: AtomicU64::new(0),
            event_rx,
            stats,
            gauges,
            clocks,
            workers: worker_handles,
            merger: Some(merger),
        };
        (pipeline, shadow_rx, fusion_rx)
    }

    /// Number of detection workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Feeds one chunk of samples. The chunk is split into frame windows
    /// on the calling thread, and each window is published to its shard's
    /// ring without copying the samples. What happens at a full ring is
    /// the configured [`BackpressurePolicy`]: wait for the worker
    /// (default), refuse the whole chunk before splitting it, or shed the
    /// incoming windows as [`IdsEvent::Dropped`] placeholders.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InputClosed`] if called after the input was closed,
    /// [`PipelineError::WorkerUnavailable`] if a shard's worker died beyond
    /// supervision, [`PipelineError::Backlogged`] under the reject policy
    /// while any shard ring is full (the chunk may be fed again).
    pub fn feed(&self, samples: Vec<f64>) -> Result<(), PipelineError> {
        let mut router = self.router.lock();
        let router = router.as_mut().ok_or(PipelineError::InputClosed)?;
        router.admit(&self.rejected_chunks)?;
        router.route_chunk(Arc::new(samples), &self.clocks)
    }

    /// The event stream, in framing order.
    pub fn events(&self) -> &Receiver<IdsEvent> {
        &self.event_rx
    }

    /// Closes the sample input without joining: routes the trailing open
    /// frame, if any, and closes the shard rings. The workers drain
    /// whatever was already fed and exit, at which point the event stream
    /// disconnects — so a caller can iterate [`IdsPipeline::events`] to the
    /// end before collecting engines with [`IdsPipeline::close`].
    /// Idempotent; [`IdsPipeline::feed`] fails with
    /// [`PipelineError::InputClosed`] afterwards.
    pub fn close_input(&mut self) {
        if let Some(router) = self.router.get_mut().take() {
            router.finish_input();
        }
    }

    /// Snapshot of the aggregate counters. The per-frame counters are
    /// internally consistent (taken under the merger's lock); the queue
    /// depths, restart counts, breaker states and quarantine sizes are
    /// sampled from the live gauges at call time.
    pub fn stats(&self) -> PipelineStats {
        let mut snapshot = self.stats.lock().clone();
        snapshot.queue_depths = self
            .gauges
            .iter()
            .map(|g| g.depth.load(Ordering::Relaxed))
            .collect();
        snapshot.restarts = self
            .gauges
            .iter()
            .map(|g| g.restarts.load(Ordering::Relaxed))
            .collect();
        snapshot.breaker = self
            .gauges
            .iter()
            .map(|g| {
                if g.breaker_open.load(Ordering::Relaxed) {
                    BreakerState::Open
                } else {
                    BreakerState::Closed
                }
            })
            .collect();
        snapshot.shard_failed = self
            .gauges
            .iter()
            .map(|g| g.failed.load(Ordering::Relaxed))
            .collect();
        snapshot.quarantined_sas = self
            .gauges
            .iter()
            .map(|g| g.quarantined.load(Ordering::Relaxed))
            .collect();
        snapshot.rejected_chunks = self.rejected_chunks.load(Ordering::Relaxed);
        snapshot.stage_ns = self.clocks.snapshot();
        snapshot
    }

    /// Closes the input, waits for every thread to drain, and returns all
    /// worker engines (in shard order) with the final statistics. A shard
    /// whose restart budget was exhausted returns its last checkpoint.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WorkerPanicked`] if any pipeline thread panicked
    /// beyond what supervision covers (worker panics are absorbed by the
    /// supervisors and surface in [`PipelineStats::restarts`] /
    /// [`PipelineStats::shard_failed`] instead). All threads are joined
    /// before the error returns, so `close` never hangs.
    pub fn close(self) -> Result<(Vec<IdsEngine>, PipelineStats), PipelineError> {
        let (cores, stats) = self.close_core()?;
        let engines = cores
            .into_iter()
            .filter_map(CoreEngine::into_single)
            .collect();
        Ok((engines, stats))
    }

    /// [`IdsPipeline::close`] without unwrapping the engine kind; used by
    /// the typed wrappers ([`crate::FusionPipeline`]) to recover their
    /// own engine type.
    pub(crate) fn close_core(mut self) -> Result<(Vec<CoreEngine>, PipelineStats), PipelineError> {
        self.close_input();
        let mut panicked = false;
        let mut engines = Vec::with_capacity(self.workers.len());
        for worker in std::mem::take(&mut self.workers) {
            match worker.join() {
                Ok(engine) => engines.push(engine),
                Err(_) => panicked = true,
            }
        }
        if let Some(merger) = self.merger.take() {
            panicked |= merger.join().is_err();
        }
        if panicked {
            return Err(PipelineError::WorkerPanicked);
        }
        let stats = self.stats();
        Ok((engines, stats))
    }

    /// Closes a **single-worker** pipeline and returns its engine (with the
    /// possibly-updated model) — the historical API.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NotSingleWorker`] when more than one worker was
    /// spawned (use [`IdsPipeline::close`]), [`PipelineError::WorkerPanicked`]
    /// if a thread panicked.
    pub fn finish(self) -> Result<(IdsEngine, PipelineStats), PipelineError> {
        if self.workers.len() != 1 {
            return Err(PipelineError::NotSingleWorker);
        }
        let (mut engines, stats) = self.close()?;
        let engine = engines.pop().ok_or(PipelineError::WorkerPanicked)?;
        Ok((engine, stats))
    }
}

impl Drop for IdsPipeline {
    fn drop(&mut self) {
        self.close_input();
        // Best effort: never panic in drop.
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        if let Some(merger) = self.merger.take() {
            let _ = merger.join();
        }
    }
}

/// Windows `feed` accumulates per shard before publishing them to the
/// shard's ring in one batch — one `Release` store (plus at most one
/// condvar signal) per [`ROUTE_BATCH`] frames instead of per frame.
/// Batches are also flushed at the end of every chunk so a trickle of
/// input never strands a frame in a half-full batch.
const ROUTE_BATCH: usize = 8;

/// The routing state [`IdsPipeline::feed`] runs under its lock: the one
/// framing state machine of the pipeline, and the producer ends of the
/// shard rings.
#[derive(Debug)]
struct FeedRouter {
    splitter: FrameSplitter,
    peeker: EdgeSetExtractor,
    /// Windows of the chunk being routed; empty between `feed` calls.
    segments: Vec<RawSegment>,
    publisher: Publisher,
}

impl FeedRouter {
    /// Whether a chunk may enter: never after a worker died beyond
    /// supervision, and under `Reject` not while any shard ring is full.
    /// A refused chunk leaves the splitter untouched, so retrying it is
    /// safe.
    fn admit(&self, rejected: &AtomicU64) -> Result<(), PipelineError> {
        let publisher = &self.publisher;
        if publisher.consumer_gone {
            return Err(PipelineError::WorkerUnavailable);
        }
        if publisher.policy == BackpressurePolicy::Reject
            && publisher.rings.iter().any(|ring| ring.is_full())
        {
            rejected.fetch_add(1, Ordering::Relaxed);
            return Err(PipelineError::Backlogged);
        }
        Ok(())
    }

    /// Splits one chunk and publishes every window that closes in it to
    /// its shard's ring, flushing every shard's batch before returning.
    // xtask: hot-path
    fn route_chunk(
        &mut self,
        chunk: Arc<Vec<f64>>,
        clocks: &StageClocks,
    ) -> Result<(), PipelineError> {
        let splitting = Instant::now();
        self.splitter
            .split_chunk(&chunk, &self.peeker, &mut self.segments);
        clocks
            .router
            .fetch_add(elapsed_ns(splitting), Ordering::Relaxed);
        // Publishing (or parking on) the rings is deliberately untimed:
        // that wait is backpressure, not routing.
        for segment in self.segments.drain(..) {
            self.publisher.route_segment(segment)?;
        }
        self.publisher.flush_shards()
    }

    /// Routes the trailing open frame, if any, and closes every ring so
    /// the workers drain and exit.
    // xtask: cold
    fn finish_input(mut self) {
        if let Some(segment) = self.splitter.flush(&self.peeker) {
            let _ = self.publisher.route_segment(segment);
        }
        let _ = self.publisher.flush_shards();
        for ring in &self.publisher.rings {
            ring.close();
        }
    }
}

/// The producer ends of the shard rings, with one pending batch per shard.
#[derive(Debug)]
struct Publisher {
    rings: Vec<Arc<SpscRing<SegmentItem>>>,
    batches: Vec<Vec<SegmentItem>>,
    /// Sender for the `DropOldest` shed placeholders; dropped with the
    /// router when the input closes.
    scored_tx: Sender<ScoredItem>,
    gauges: Arc<Vec<ShardGauges>>,
    policy: BackpressurePolicy,
    shard_seed: u64,
    /// Sequence number of the next routed window.
    next_seq: u64,
    /// A shard's worker exited beyond supervision; later feeds fail.
    consumer_gone: bool,
}

impl Publisher {
    /// Appends one window to its shard's batch, publishing the batch once
    /// it holds [`ROUTE_BATCH`] windows.
    // xtask: hot-path
    fn route_segment(&mut self, segment: RawSegment) -> Result<(), PipelineError> {
        // A segment whose SA could not be decoded (sa == 0xFF, the J1939
        // global address, never a legitimate claimed sender) still lands
        // on one stable shard.
        let shard = stable_shard_seeded(segment.sa, self.rings.len(), self.shard_seed);
        let Some(batch) = self.batches.get_mut(shard) else {
            return Ok(());
        };
        batch.push(SegmentItem {
            seq: self.next_seq,
            segment,
        });
        self.next_seq += 1;
        if batch.len() >= ROUTE_BATCH {
            self.publish_batch(shard)
        } else {
            Ok(())
        }
    }

    /// Publishes every shard's non-empty batch.
    // xtask: hot-path
    fn flush_shards(&mut self) -> Result<(), PipelineError> {
        for shard in 0..self.batches.len() {
            if self
                .batches
                .get(shard)
                .is_some_and(|batch| !batch.is_empty())
            {
                self.publish_batch(shard)?;
            }
        }
        Ok(())
    }

    /// Publishes one shard's batch onto its ring under the configured
    /// policy; the batch is empty afterwards. Fails when the shard's
    /// worker is gone beyond supervision, which ends routing.
    // xtask: hot-path
    fn publish_batch(&mut self, shard: usize) -> Result<(), PipelineError> {
        let (Some(ring), Some(gauge), Some(batch)) = (
            self.rings.get(shard),
            self.gauges.get(shard),
            self.batches.get_mut(shard),
        ) else {
            return Ok(());
        };
        let published = match self.policy {
            BackpressurePolicy::Block | BackpressurePolicy::Reject => {
                // A full ring parks the feeding thread, so backpressure
                // reaches the caller of `feed` directly. `Reject` admitted
                // this chunk while no ring was full, and every window of
                // an admitted chunk is delivered.
                gauge.depth.fetch_add(batch.len(), Ordering::Relaxed);
                let pushed = ring.push_batch(batch);
                if !pushed {
                    gauge.depth.fetch_sub(batch.len(), Ordering::Relaxed);
                    batch.clear();
                }
                pushed
            }
            BackpressurePolicy::DropOldest => {
                if ring.is_consumer_gone() {
                    batch.clear();
                    false
                } else {
                    let accepted = ring.try_push_batch(batch);
                    gauge.depth.fetch_add(accepted, Ordering::Relaxed);
                    batch.is_empty() || shed_overflow(&self.scored_tx, shard, batch)
                }
            }
        };
        if published {
            Ok(())
        } else {
            self.consumer_gone = true;
            Err(PipelineError::WorkerUnavailable)
        }
    }
}

/// Sheds a full ring's incoming overflow under `DropOldest`. An SPSC
/// producer cannot retract items it already published, so the ring-level
/// analogue of "drop oldest" sheds the *incoming* windows: each becomes a
/// `Dropped` placeholder sent straight to the merger, keeping the sequence
/// space gapless and the loss attributed to exactly this shard. Returns
/// `false` when the merger is gone.
// xtask: cold
fn shed_overflow(
    scored_tx: &Sender<ScoredItem>,
    shard: usize,
    batch: &mut Vec<SegmentItem>,
) -> bool {
    let mut merger_alive = true;
    for item in batch.drain(..) {
        if merger_alive {
            merger_alive = scored_tx
                .send(ScoredItem {
                    seq: item.seq,
                    shard,
                    event: IdsEvent::Dropped {
                        stream_pos: item.segment.base,
                        shard,
                        reason: DropReason::Backlogged,
                    },
                    shadow: Vec::new(),
                    fusion: None,
                })
                .is_ok();
        }
    }
    merger_alive
}

/// Everything a shard's supervisor and scoring loop need; owned by the
/// supervisor thread.
struct WorkerRuntime {
    shard: usize,
    ring: Arc<SpscRing<SegmentItem>>,
    scored_tx: Sender<ScoredItem>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    hook: Option<FaultHook>,
    batch_max: usize,
    checkpoint_interval: usize,
    restart_budget: u32,
    backoff_base_ms: u64,
    health: HealthConfig,
}

/// Mutable worker state that survives a panic of the scoring loop: the
/// supervisor rolls `engine` back to `checkpoint` and resumes from
/// `pending`, dropping only the window that was in flight when the panic
/// hit.
struct WorkerState {
    engine: CoreEngine,
    checkpoint: CoreEngine,
    shadows: Vec<IdsEngine>,
    shadow_checkpoints: Vec<IdsEngine>,
    pending: VecDeque<SegmentItem>,
    /// Scratch for ring pops; drained into `pending` immediately.
    batch: Vec<SegmentItem>,
    /// Reusable buffer for windows that straddle a chunk boundary; every
    /// other window is scored in place.
    window: Vec<f64>,
    in_flight: Option<(u64, u64)>,
    monitor: HealthMonitor,
    processed: usize,
}

impl WorkerState {
    /// Refreshes the restart checkpoint — primary and shadows together,
    /// so a rollback replays both from the same stream position.
    fn refresh_checkpoint(&mut self) {
        self.checkpoint = self.engine.clone();
        self.shadow_checkpoints = self.shadows.clone();
    }

    /// Scores the window through every shadow engine, marking each
    /// verdict that disagrees with the primary's anomaly/normal call.
    /// Shadow time is attributed to its own stage clock, not `score_ns`.
    fn score_shadows(
        &mut self,
        rt: &WorkerRuntime,
        stream_pos: u64,
        window: &[f64],
        primary_anomaly: bool,
    ) -> Vec<ShadowVerdict> {
        if self.shadows.is_empty() {
            return Vec::new();
        }
        let shadowing = Instant::now();
        let verdicts = self
            .shadows
            .iter_mut()
            .map(|shadow| {
                let name = shadow.backend_name();
                let (event, _, _) = shadow.process_window_timed(stream_pos, window);
                let verdict = event
                    .verdict()
                    .copied()
                    .unwrap_or(vprofile::Verdict::Anomaly {
                        kind: vprofile::AnomalyKind::Unscorable,
                    });
                ShadowVerdict {
                    backend: name,
                    verdict,
                    disagrees: verdict.is_anomaly() != primary_anomaly,
                }
            })
            .collect();
        rt.clocks
            .shadow
            .fetch_add(elapsed_ns(shadowing), Ordering::Relaxed);
        verdicts
    }

    /// The scoring loop proper; returns when the shard's ring closes and
    /// drains (clean shutdown) or the merger is gone. May panic — the
    /// supervisor catches it.
    fn run(&mut self, rt: &WorkerRuntime) {
        loop {
            if self.pending.is_empty() {
                let got = rt.ring.pop_batch(&mut self.batch, rt.batch_max);
                if got == 0 {
                    return;
                }
                rt.gauges[rt.shard].depth.fetch_sub(got, Ordering::Relaxed);
                self.pending.extend(self.batch.drain(..));
            }
            while let Some(item) = self.pending.pop_front() {
                let stream_pos = item.segment.base;
                // The in-flight marker must be set before any fallible
                // work so a panic anywhere in scoring maps to exactly this
                // window, and its placeholder lands where the scored event
                // would have.
                self.in_flight = Some((item.seq, stream_pos));
                if let Some(hook) = &rt.hook {
                    hook(rt.shard, item.seq);
                }
                // Taken out for the frame so the window can borrow it
                // while scoring mutates the rest of the state.
                let mut scratch = std::mem::take(&mut self.window);
                let window = if item.segment.straddles() {
                    let copying = Instant::now();
                    item.segment.assemble_into(&mut scratch);
                    rt.clocks
                        .frame
                        .fetch_add(elapsed_ns(copying), Ordering::Relaxed);
                    scratch.as_slice()
                } else {
                    item.segment.tail_slice()
                };
                let (event, fusion) = self.score(rt, stream_pos, window);
                // Shadows only mirror frames the primary actually scored:
                // degraded/dropped placeholders carry no primary verdict
                // to disagree with.
                let shadow = match &event {
                    IdsEvent::Scored(scored) if !scored.extraction_failed => {
                        self.score_shadows(rt, stream_pos, window, scored.verdict.is_anomaly())
                    }
                    _ => Vec::new(),
                };
                self.window = scratch;
                self.in_flight = None;
                self.processed += 1;
                if self.processed.is_multiple_of(rt.checkpoint_interval) {
                    self.refresh_checkpoint();
                }
                let scored = ScoredItem {
                    seq: item.seq,
                    shard: rt.shard,
                    event,
                    shadow,
                    fusion,
                };
                if rt.scored_tx.send(scored).is_err() {
                    // Merger gone (panicked): nothing downstream to feed.
                    return;
                }
            }
        }
    }

    /// Scores one window through the engine, attributing extraction and
    /// scoring time to the shared stage clocks.
    fn process_timed(
        &mut self,
        rt: &WorkerRuntime,
        stream_pos: u64,
        window: &[f64],
    ) -> (IdsEvent, Option<FusionRecord>) {
        let (event, extract_ns, score_ns, fusion) = self
            .engine
            .process_window_shard(stream_pos, window, rt.shard);
        rt.clocks.extract.fetch_add(extract_ns, Ordering::Relaxed);
        rt.clocks.score.fetch_add(score_ns, Ordering::Relaxed);
        (event, fusion)
    }

    /// Scores one window through the circuit breaker.
    fn score(
        &mut self,
        rt: &WorkerRuntime,
        stream_pos: u64,
        window: &[f64],
    ) -> (IdsEvent, Option<FusionRecord>) {
        match self.monitor.state() {
            BreakerState::Closed => {
                let (event, fusion) = self.process_timed(rt, stream_pos, window);
                if let Some(sa) = event.sa() {
                    self.monitor.note_sa(sa.0);
                }
                if let Some(reason) = self.monitor.observe(outcome_of(&event)) {
                    // Trip: the capture feeding this shard is suspect.
                    // Quarantine the SAs the fault was flowing through so
                    // corrupt observations cannot poison the model, and
                    // checkpoint so a restart preserves the quarantine.
                    for sa in self.monitor.drain_recent_sas() {
                        self.engine.quarantine_sa(sa);
                    }
                    let gauges = &rt.gauges[rt.shard];
                    gauges.breaker_open.store(true, Ordering::Relaxed);
                    gauges
                        .quarantined
                        .store(self.engine.quarantined_len(), Ordering::Relaxed);
                    self.refresh_checkpoint();
                    return (
                        IdsEvent::Degraded {
                            stream_pos,
                            shard: rt.shard,
                            reason,
                        },
                        fusion,
                    );
                }
                (event, fusion)
            }
            BreakerState::Open => {
                let reason = self.monitor.reason();
                if self.monitor.take_probe_slot() {
                    let (event, fusion) = self.process_timed(rt, stream_pos, window);
                    let healthy = matches!(outcome_of(&event), WindowOutcome::Healthy);
                    if self.monitor.record_probe(healthy) {
                        // Fault cleared: release the quarantine and resume
                        // hard verdicts, starting with this probe's.
                        self.engine.release_all_quarantined();
                        let gauges = &rt.gauges[rt.shard];
                        gauges.breaker_open.store(false, Ordering::Relaxed);
                        gauges.quarantined.store(0, Ordering::Relaxed);
                        self.refresh_checkpoint();
                        return (event, fusion);
                    }
                    return (
                        IdsEvent::Degraded {
                            stream_pos,
                            shard: rt.shard,
                            reason,
                        },
                        fusion,
                    );
                }
                (
                    IdsEvent::Degraded {
                        stream_pos,
                        shard: rt.shard,
                        reason,
                    },
                    None,
                )
            }
        }
    }
}

/// How the health monitor sees one scored event. Anomaly verdicts are
/// deliberately `Healthy` here: an attack storm must never open the
/// breaker and silence the alarms it should raise.
fn outcome_of(event: &IdsEvent) -> WindowOutcome {
    if event.extraction_failed() {
        WindowOutcome::ExtractionFailure
    } else if event.verdict().is_some_and(|v| v.is_unscorable()) {
        WindowOutcome::Unscorable
    } else {
        WindowOutcome::Healthy
    }
}

/// Runs one shard's scoring loop under supervision: panics roll the engine
/// back to its checkpoint and resume (bounded by the restart budget with
/// exponential backoff); past the budget the shard fails permanently and
/// its windows drain as [`IdsEvent::Dropped`] placeholders so the merger's
/// reorder buffer never stalls on a sequence gap.
fn supervised_worker(engine: CoreEngine, shadows: Vec<IdsEngine>, rt: WorkerRuntime) -> CoreEngine {
    // Held for the whole thread: if this worker dies in any way
    // supervision does not cover, `feed` must not park forever on a ring
    // nobody will ever drain again.
    let _consumer_guard = RingConsumerGuard(Arc::clone(&rt.ring));
    let mut state = WorkerState {
        checkpoint: engine.clone(),
        engine,
        shadow_checkpoints: shadows.clone(),
        shadows,
        pending: VecDeque::new(),
        batch: Vec::new(),
        window: Vec::new(),
        in_flight: None,
        monitor: HealthMonitor::new(rt.health),
        processed: 0,
    };
    let mut restarts = 0u32;
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| state.run(&rt)));
        match outcome {
            Ok(()) => {
                state.engine.apply_pending_updates();
                return state.engine;
            }
            Err(_) => {
                restarts += 1;
                rt.gauges[rt.shard].restarts.fetch_add(1, Ordering::Relaxed);
                // The window that was in flight died with the panic. It is
                // *not* retried: a deterministic fault would otherwise
                // panic-loop the shard through its whole budget. A
                // placeholder keeps the merger's sequence space gapless.
                if let Some((seq, stream_pos)) = state.in_flight.take() {
                    let _ = rt.scored_tx.send(ScoredItem {
                        seq,
                        shard: rt.shard,
                        event: IdsEvent::Dropped {
                            stream_pos,
                            shard: rt.shard,
                            reason: DropReason::WorkerRestart,
                        },
                        shadow: Vec::new(),
                        fusion: None,
                    });
                }
                if restarts > rt.restart_budget {
                    rt.gauges[rt.shard].failed.store(true, Ordering::Relaxed);
                    let pending = std::mem::take(&mut state.pending);
                    drain_failed_shard(&rt, pending, &mut state.batch);
                    return state.checkpoint;
                }
                let exponent = restarts.saturating_sub(1).min(6);
                std::thread::sleep(Duration::from_millis(rt.backoff_base_ms << exponent));
                state.engine = state.checkpoint.clone();
                state.shadows = state.shadow_checkpoints.clone();
            }
        }
    }
}

/// Marks the shard's ring consumer as gone when the worker thread exits
/// by any path — clean return, permanent failure, or a panic that escapes
/// the supervisor — so `feed` cannot park forever publishing to a ring
/// with no reader.
struct RingConsumerGuard(Arc<SpscRing<SegmentItem>>);

impl Drop for RingConsumerGuard {
    fn drop(&mut self) {
        self.0.mark_consumer_gone();
    }
}

/// Drains a permanently failed shard: everything still queued (and
/// everything `feed` routes here from now on) becomes a `Dropped`
/// placeholder at its window's stream position, so `feed` never blocks on
/// a dead shard and the merger never waits on a missing sequence number.
fn drain_failed_shard(
    rt: &WorkerRuntime,
    pending: VecDeque<SegmentItem>,
    batch: &mut Vec<SegmentItem>,
) {
    let drop_item = |item: SegmentItem| {
        let _ = rt.scored_tx.send(ScoredItem {
            seq: item.seq,
            shard: rt.shard,
            event: IdsEvent::Dropped {
                stream_pos: item.segment.base,
                shard: rt.shard,
                reason: DropReason::ShardFailed,
            },
            shadow: Vec::new(),
            fusion: None,
        });
    };
    for item in pending {
        drop_item(item);
    }
    loop {
        let got = rt.ring.pop_batch(batch, rt.batch_max);
        if got == 0 {
            return;
        }
        rt.gauges[rt.shard].depth.fetch_sub(got, Ordering::Relaxed);
        for item in batch.drain(..) {
            drop_item(item);
        }
    }
}

/// Re-serializes events into framing order and keeps the shared
/// statistics consistent with the emitted event stream.
// xtask: hot-path
// xtask: accounting(IdsEvent)
fn merger_loop(
    scored_rx: Receiver<ScoredItem>,
    event_tx: Sender<IdsEvent>,
    shadow_tx: Sender<ShadowEvent>,
    fusion_tx: Sender<FusionEvent>,
    ledger: Option<Arc<DriftLedger>>,
    stats: Arc<Mutex<PipelineStats>>,
    clocks: Arc<StageClocks>,
) {
    let mut buffer: ReorderBuffer<(usize, IdsEvent, Vec<ShadowVerdict>, Option<FusionRecord>)> =
        ReorderBuffer::new();
    // xtask: allow(hot-path-alloc): one scratch Vec per merger-thread lifetime, drained and reused across frames
    let mut ready: Vec<(usize, IdsEvent, Vec<ShadowVerdict>, Option<FusionRecord>)> = Vec::new();
    // xtask: allow(hot-path-alloc): one scratch Vec per merger-thread lifetime, drained and reused across frames
    let mut notables: Vec<(u64, usize, FusionRecord)> = Vec::new();
    for item in scored_rx {
        let merging = Instant::now();
        buffer.push(
            item.seq,
            (item.shard, item.event, item.shadow, item.fusion),
            &mut ready,
        );
        if ready.is_empty() {
            clocks
                .merge
                .fetch_add(elapsed_ns(merging), Ordering::Relaxed);
            continue;
        }
        // Counter update and event emission share one critical section, so
        // `stats()` can never observe a count without its event (or vice
        // versa) — `frames == anomalies + normals + extraction_failures +
        // dropped + degraded` holds in every snapshot. Shadow counters
        // live in the same section for the same reason.
        // xtask: allow(hot-path-lock): counters and event emission must share one critical section so stats snapshots never disagree with the emitted stream
        let mut s = stats.lock();
        for (shard, event, shadow, fusion) in ready.drain(..) {
            s.frames += 1;
            match &event {
                IdsEvent::Scored(scored) => {
                    if scored.extraction_failed {
                        s.extraction_failures += 1;
                    } else if scored.verdict.is_anomaly() {
                        s.anomalies += 1;
                    } else {
                        s.normals += 1;
                    }
                }
                IdsEvent::Degraded { .. } => s.degraded += 1,
                IdsEvent::Dropped { reason, .. } => {
                    s.dropped += 1;
                    // Ring-shed segments are additionally attributed to
                    // the shard whose full ring shed them.
                    if matches!(reason, DropReason::Backlogged) {
                        if let Some(count) = s.shard_sheds.get_mut(shard) {
                            *count += 1;
                        }
                    }
                }
            }
            if let Some(count) = s.shard_frames.get_mut(shard) {
                *count += 1;
            }
            if let Some(record) = fusion {
                s.fusion_frames += 1;
                let mut mask = record.disagree_mask;
                let mut index = 0usize;
                while mask != 0 {
                    if mask & 1 != 0 {
                        if let Some(count) = s.voter_disagreements.get_mut(index) {
                            *count += 1;
                        }
                    }
                    mask >>= 1;
                    index += 1;
                }
                if record.drift.is_some() {
                    s.drift_verdicts += 1;
                }
                if record.outage.is_some() {
                    s.voter_outages += 1;
                }
                if record.drift.is_some() || record.outage.is_some() {
                    notables.push((event.stream_pos(), shard, record));
                }
            }
            if !shadow.is_empty() {
                s.shadow_frames += 1;
                let mut any_disagree = false;
                for (index, verdict) in shadow.iter().enumerate() {
                    if verdict.disagrees {
                        any_disagree = true;
                        if let Some(count) = s.shadow_disagreements.get_mut(index) {
                            *count += 1;
                        }
                    }
                }
                if any_disagree {
                    let stream_pos = event.stream_pos();
                    let primary_anomaly =
                        event.verdict().is_some_and(vprofile::Verdict::is_anomaly);
                    // xtask: allow(guard-across-blocking): shadow_tx is unbounded, send never blocks; atomicity of counters+events requires the guard
                    let _ = shadow_tx.send(ShadowEvent {
                        stream_pos,
                        primary_anomaly,
                        shadows: shadow,
                    });
                }
            }
            // Receiver gone: keep counting so stats stay truthful, but
            // stop forwarding.
            // xtask: allow(guard-across-blocking): event_tx is unbounded, send never blocks; atomicity of counters+events requires the guard
            let _ = event_tx.send(event);
        }
        drop(s);
        clocks
            .merge
            .fetch_add(elapsed_ns(merging), Ordering::Relaxed);
        if !notables.is_empty() {
            publish_fusion_notables(&fusion_tx, ledger.as_deref(), &mut notables);
        }
    }
}

/// Records drift and outage frames in the [`DriftLedger`] and forwards them
/// on the fusion event channel, outside the stats critical section.
// xtask: cold
fn publish_fusion_notables(
    fusion_tx: &Sender<FusionEvent>,
    ledger: Option<&DriftLedger>,
    notables: &mut Vec<(u64, usize, FusionRecord)>,
) {
    for (stream_pos, shard, record) in notables.drain(..) {
        if let Some(ledger) = ledger {
            if let Some(verdict) = record.drift {
                ledger.record_drift(stream_pos, shard, verdict);
            }
            if let Some(voter) = record.outage {
                ledger.record_outage(stream_pos, shard, voter);
            }
        }
        let _ = fusion_tx.send(FusionEvent {
            stream_pos,
            shard,
            record,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UpdatePolicy;
    use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
    use vprofile_vehicle::{CaptureConfig, Vehicle};

    fn engine_and_capture() -> (IdsEngine, vprofile_vehicle::Capture) {
        let vehicle = Vehicle::vehicle_b(23);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(800).with_seed(23))
            .unwrap();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let model = Trainer::new(config)
            .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
            .unwrap();
        (
            IdsEngine::new(model, 2.0, UpdatePolicy::disabled()),
            capture,
        )
    }

    #[test]
    fn pipeline_processes_chunked_stream() {
        let (engine, capture) = engine_and_capture();
        let pipeline = IdsPipeline::spawn(engine, 4);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(40) {
            stream.extend(frame.trace.to_f64());
        }
        for chunk in stream.chunks(2048) {
            pipeline.feed(chunk.to_vec()).unwrap();
        }
        let (_, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 40);
        assert_eq!(stats.anomalies, 0);
        assert_eq!(stats.normals, 40);
        assert_eq!(stats.extraction_failures, 0);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.degraded, 0);
        assert_eq!(stats.shard_frames, vec![40]);
        assert_eq!(stats.shard_sheds, vec![0]);
        assert_eq!(stats.queue_depths, vec![0]);
        assert_eq!(stats.restarts, vec![0]);
        assert_eq!(stats.breaker, vec![BreakerState::Closed]);
        assert_eq!(stats.shard_failed, vec![false]);
    }

    #[test]
    fn events_are_received_while_running() {
        let (engine, capture) = engine_and_capture();
        let pipeline = IdsPipeline::spawn(engine, 4);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(5) {
            stream.extend(frame.trace.to_f64());
        }
        pipeline.feed(stream).unwrap();
        // At least the first few events arrive without finishing.
        let mut seen = 0;
        for _ in 0..4 {
            if pipeline
                .events()
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok()
            {
                seen += 1;
            }
        }
        assert!(seen >= 4);
        let (_, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 5);
    }

    #[test]
    fn finish_returns_engine_with_updates_applied() {
        let (engine, capture) = engine_and_capture();
        let model = engine.model().unwrap().clone();
        let before: usize = model.clusters().iter().map(|c| c.count()).sum();
        let engine = IdsEngine::new(model, 2.0, UpdatePolicy::every(1, usize::MAX));
        let pipeline = IdsPipeline::spawn(engine, 2);
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }
        pipeline.feed(stream).unwrap();
        let (engine, stats) = pipeline.finish().unwrap();
        assert_eq!(stats.frames, 60);
        let after: usize = engine
            .model()
            .unwrap()
            .clusters()
            .iter()
            .map(|c| c.count())
            .sum();
        assert!(after > before);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let (engine, _) = engine_and_capture();
        let pipeline = IdsPipeline::spawn(engine, 2);
        pipeline.feed(vec![1000.0; 100]).unwrap();
        drop(pipeline); // must join cleanly
    }

    #[test]
    fn sharded_run_matches_single_worker_events() {
        let (engine, capture) = engine_and_capture();
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(60) {
            stream.extend(frame.trace.to_f64());
        }

        let run = |workers: usize| -> (Vec<IdsEvent>, PipelineStats) {
            let mut pipeline = IdsPipeline::spawn_sharded(
                engine.clone(),
                PipelineConfig::default().with_workers(workers),
            );
            assert_eq!(pipeline.worker_count(), workers);
            for chunk in stream.chunks(4096) {
                pipeline.feed(chunk.to_vec()).unwrap();
            }
            pipeline.close_input();
            let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
            let (engines, stats) = pipeline.close().unwrap();
            assert_eq!(engines.len(), workers);
            (events, stats)
        };

        let (single_events, single_stats) = run(1);
        let (quad_events, quad_stats) = run(4);
        assert_eq!(single_events, quad_events);
        assert_eq!(single_stats.frames, quad_stats.frames);
        assert_eq!(single_stats.anomalies, quad_stats.anomalies);
        assert_eq!(
            quad_stats.shard_frames.iter().sum::<u64>(),
            quad_stats.frames
        );
        assert!(
            quad_stats.shard_frames.iter().filter(|&&n| n > 0).count() > 1,
            "vehicle-B SAs should spread over multiple shards: {:?}",
            quad_stats.shard_frames
        );
    }

    #[test]
    fn finish_refuses_multi_worker_pipelines() {
        let (engine, _) = engine_and_capture();
        let pipeline =
            IdsPipeline::spawn_sharded(engine, PipelineConfig::default().with_workers(2));
        assert_eq!(
            pipeline.finish().unwrap_err(),
            PipelineError::NotSingleWorker
        );
    }

    #[test]
    fn auto_worker_count_uses_available_parallelism() {
        let (engine, _) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(engine, PipelineConfig::default());
        let workers = pipeline.worker_count();
        assert!(workers >= 1);
        let (engines, stats) = pipeline.close().unwrap();
        assert_eq!(engines.len(), workers);
        assert_eq!(stats.shard_frames.len(), workers);
    }
}

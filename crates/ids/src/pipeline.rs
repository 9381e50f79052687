//! A threaded, sharded, self-healing IDS pipeline: sample chunks in,
//! detection events out.
//!
//! One type, [`Pipeline<E>`], runs either engine: [`IdsPipeline`] is a
//! pipeline of [`IdsEngine`]s (one primary backend, optional shadows) and
//! [`FusionPipeline`] one of [`FusionEngine`]s (a voting ensemble). The
//! engine is the only difference; routing, supervision, the breaker,
//! checkpoints and the merge are the same code.
//!
//! There is no router thread and no chunk queue. [`Pipeline::feed`] is
//! the router: on the calling thread, under one lock, it
//!
//! * wraps the caller's `Vec<f64>` in an `Arc` (no copy of the samples);
//! * *splits* it into frame windows with a [`FrameSplitter`] — the one
//!   framing state machine, over borrowed chunk slices — and peeks each
//!   frame's claimed source address
//!   ([`vprofile::EdgeSetExtractor::peek_sa`]) from the frame's SOF on;
//! * publishes each window to a worker shard chosen by
//!   [`crate::stable_shard_seeded`], over bounded per-shard SPSC rings
//!   ([`SpscRing`]) in batches of [`ROUTE_BATCH`], so the hand-off costs
//!   one atomic per batch, not per frame. Routing by the claimed SA means
//!   each worker owns a *disjoint* set of per-SA cluster state, so online
//!   updates never race across workers.
//!
//! Behind the rings run **N supervised detection workers**, each owning a
//! clone of the engine, and they are the only threads a pipeline
//! starts. A routed segment already *is* the frame's window, so the
//! worker scores it in place: a frame that closed in its own chunk is
//! borrowed from that chunk, and only a frame straddling a chunk boundary
//! is copied once into a reusable per-worker buffer. Each worker runs
//! under a supervisor that catches panics and respawns the scoring loop
//! from a periodically-refreshed engine checkpoint, with exponential
//! backoff and a bounded restart budget; past the budget the shard fails
//! permanently and its windows drain as [`IdsEvent::Dropped`]
//! placeholders. Each worker also runs a
//! [`crate::health::HealthMonitor`]: sustained extraction failures or
//! unscorable verdicts trip a circuit breaker into degraded mode
//! ([`IdsEvent::Degraded`] instead of hard verdicts, affected SAs
//! quarantined from online updates) until recovery probes succeed.
//!
//! Merging needs no thread of its own either. Whichever thread finishes
//! a window — the worker that scored it, its supervisor's restart
//! placeholder, a failed shard's drain, or `feed` shedding under
//! `DropOldest` — takes the one lock around the shared [`PipelineStats`]
//! and pushes the window into a [`crate::ReorderBuffer`] keyed by the
//! feed's sequence numbers (flat combining). In that same critical
//! section it counts and emits every event now in framing order, so the
//! emitted order is deterministic and a stats snapshot can never disagree
//! with the events already delivered.
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
use crate::fusion::FusionEngine;
use crate::health::{
    BackpressurePolicy, BreakerState, DropReason, HealthConfig, HealthMonitor, WindowOutcome,
};
use crate::ring::SpscRing;
use crate::splitter::{FrameSplitter, RawSegment};
use crate::{stable_shard_seeded, IdsEngine, IdsEvent, ReorderBuffer};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sealed::{Engine, Outcome};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vprofile::EdgeSetExtractor;
use vprofile_can::SourceAddress;
use vprofile_fusion::{DriftLedger, FusionEvent, FusionRecord};

/// Failure modes of the threaded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// [`Pipeline::feed`] was called after the input was closed.
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
    /// [`Pipeline::finish`] was called on a pipeline with more than one
    /// worker; use [`Pipeline::close`] to collect all engines.
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

/// The engines a [`Pipeline`] runs on its workers: [`IdsEngine`] and
/// [`FusionEngine`]. The trait is sealed; what the pipeline asks of an
/// engine is crate-internal.
pub trait PipelineEngine: Engine {}

/// The crate-internal side of [`PipelineEngine`].
pub(crate) mod sealed {
    use crate::{FusionRecord, IdsEvent};
    use vprofile::{QuarantineSet, VProfileConfig};

    /// What an engine hands the pipeline for one window.
    #[derive(Debug)]
    pub struct Outcome {
        /// The window's event.
        pub event: IdsEvent,
        /// Bit `i` set when voter `i` (0 = the primary) disagreed: a
        /// shadow whose anomaly call differed from the primary's, or a
        /// fusion voter whose call differed from the fused call.
        pub disagree_mask: u8,
        /// The fused frame's telemetry; `None` for an [`crate::IdsEngine`].
        pub fusion: Option<FusionRecord>,
        /// Algorithm 1 extraction time.
        pub extract_ns: u64,
        /// Scoring and online-update time of the deciding backends.
        pub score_ns: u64,
        /// Shadow scoring time.
        pub shadow_ns: u64,
    }

    /// The operations a pipeline worker and its supervisor need.
    pub trait Engine: Clone + Send + 'static {
        /// The framing/extraction configuration, for the feed-side
        /// splitter.
        fn config(&self) -> &VProfileConfig;
        /// Length of `PipelineStats::voter_disagreements`.
        fn voter_count(&self) -> usize;
        /// Scores one framed window; `shard` is stamped into any event the
        /// engine itself degrades.
        fn score_window(&mut self, stream_pos: u64, window: &[f64], shard: usize) -> Outcome;
        /// Applies buffered online updates.
        fn apply_pending_updates(&mut self);
        /// Quarantines an SA from online updates.
        fn quarantine_sa(&mut self, sa: u8);
        /// Releases every quarantined SA.
        fn release_all_quarantined(&mut self);
        /// The SAs quarantined from online updates.
        fn quarantined(&self) -> &QuarantineSet;
    }
}

/// Construction parameters for [`Pipeline::spawn_sharded`].
#[derive(Clone)]
pub struct PipelineConfig {
    /// Number of detection workers; `0` means one per available CPU.
    pub workers: usize,
    /// Capacity of each shard ring, in frame windows. What
    /// [`Pipeline::feed`] does at a full ring is
    /// [`PipelineConfig::backpressure`].
    pub high_water: usize,
    /// What [`Pipeline::feed`] does at a full shard ring.
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
/// degraded` holds in every snapshot, because each is updated in the same
/// critical section that emits the corresponding event.
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
    /// shard at snapshot time; all zero after a clean [`Pipeline::close`].
    pub queue_depths: Vec<usize>,
    /// Supervisor restarts performed per shard.
    pub restarts: Vec<u32>,
    /// Circuit-breaker position per shard at snapshot time.
    pub breaker: Vec<BreakerState>,
    /// `true` for shards whose restart budget is exhausted.
    pub shard_failed: Vec<bool>,
    /// Number of SAs currently quarantined from online updates, per shard.
    pub quarantined_sas: Vec<usize>,
    /// Frames scored through the fusion ensemble (zero in an
    /// [`IdsPipeline`]). Counts fused frames, which already partition into
    /// the per-frame counters above, so it sits outside the frame
    /// identity.
    // xtask: outside-frame-identity
    pub fusion_frames: u64,
    /// Frames on which each voter disagreed, indexed by voter (0 = the
    /// primary): in a [`FusionPipeline`], a voter's calibrated call
    /// differing from the fused call; in an [`IdsPipeline`], shadow `i`'s
    /// anomaly call differing from the primary's, at index `1 + i`. Empty
    /// for an [`IdsEngine`] without shadows.
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
    /// peek that picks each window's shard, inside [`Pipeline::feed`]
    /// on the feeding thread.
    pub router_ns: u64,
    /// Copying windows that straddle a chunk boundary into one contiguous
    /// buffer, across all workers; every other window is scored in place.
    pub frame_ns: u64,
    /// Algorithm 1 edge-set extraction, across all workers.
    pub extract_ns: u64,
    /// Scoring — nearest-cluster classification and online update
    /// absorption — across all workers; shadows excluded.
    pub score_ns: u64,
    /// Scoring the primary's extracted edge set with every shadow backend
    /// ([`IdsEngine::with_shadows`]), across all workers; zero without
    /// shadows.
    pub shadow_ns: u64,
    /// The merge critical sections — reorder-buffer push, counting and
    /// event emission — summed over every thread that merges a window.
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

/// One finished window waiting in the reorder buffer: its shard, event,
/// voter disagreement mask and fusion record (`None` unless the engine is
/// a [`FusionEngine`]). Only the event can own heap memory.
type Finished = (usize, IdsEvent, u8, Option<FusionRecord>);

/// What every producing thread merges into, under the one
/// `pipeline_stats` lock: the counters, the reorder buffer, and the
/// scratch its releases drain through.
#[derive(Debug)]
struct MergeState {
    stats: PipelineStats,
    reorder: ReorderBuffer<Finished>,
    /// Windows released by the current critical section; empty between
    /// sections.
    ready: Vec<Finished>,
}

/// A producing thread's end of the merge: the shared [`MergeState`], the
/// thread's own clone of the event sender, and the drift ledger. Every
/// worker owns one, and the feed router owns one until the input closes,
/// so the event stream ends only once the last producer is done, with
/// every notable fusion frame already in the ledger.
#[derive(Debug, Clone)]
struct Emitter {
    merge: Arc<Mutex<MergeState>>,
    event_tx: Sender<IdsEvent>,
    ledger: Arc<DriftLedger>,
    clocks: Arc<StageClocks>,
}

/// Live per-shard gauges, written by supervisors and read by
/// [`Pipeline::stats`].
#[derive(Default)]
struct ShardGauges {
    depth: AtomicUsize,
    restarts: AtomicU32,
    breaker_open: AtomicBool,
    failed: AtomicBool,
    quarantined: AtomicUsize,
}

/// A running threaded IDS around engine `E`. Drop-free shutdown: close
/// the sample input (call [`Pipeline::close`] / [`Pipeline::finish`]) and
/// join.
#[derive(Debug)]
pub struct Pipeline<E: PipelineEngine> {
    /// The feed-side router; `None` once the input is closed. `feed`
    /// takes `&self`, so concurrent feeders serialize on this lock.
    router: Mutex<Option<FeedRouter>>,
    /// Chunks refused under [`BackpressurePolicy::Reject`]: an atomic, so
    /// [`Pipeline::stats`] never waits on a `feed` parked on a ring.
    rejected_chunks: AtomicU64,
    event_rx: Receiver<IdsEvent>,
    /// Notable fusion frames; empty in an [`IdsPipeline`].
    ledger: Arc<DriftLedger>,
    merge: Arc<Mutex<MergeState>>,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    workers: Vec<JoinHandle<E>>,
}

/// A pipeline of [`IdsEngine`]s: one deciding backend, optional shadows.
pub type IdsPipeline = Pipeline<IdsEngine>;

/// A pipeline of [`FusionEngine`]s: fused verdicts drive the event stream,
/// the circuit breaker and the drift-gated online updates, and notable
/// frames (drift verdicts, voter outages) are also kept in the
/// [`DriftLedger`].
pub type FusionPipeline = Pipeline<FusionEngine>;

impl std::fmt::Debug for ShardGauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGauges")
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .field("restarts", &self.restarts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<E: PipelineEngine> Pipeline<E> {
    /// Spawns the sharded pipeline: `config.workers` supervised detection
    /// workers (each a clone of `engine`), the only threads it starts.
    /// Routing runs inside [`Pipeline::feed`], and merging on whichever
    /// thread finishes a window.
    ///
    /// Windows are routed by a stable hash of the claimed source address,
    /// so each worker owns a disjoint set of per-SA state; the merge
    /// re-serializes events into framing order, making the output stream
    /// deterministic and — when online updates are disabled — identical
    /// to a single-worker run.
    pub fn spawn_sharded(engine: E, config: PipelineConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let high_water = config.high_water.max(1);
        let checkpoint_interval = config.checkpoint_interval.max(1);

        let (event_tx, event_rx) = unbounded::<IdsEvent>();
        let ledger = Arc::new(DriftLedger::new());
        let merge = Arc::new(Mutex::new(MergeState {
            stats: PipelineStats {
                shard_frames: vec![0; workers],
                shard_sheds: vec![0; workers],
                queue_depths: vec![0; workers],
                restarts: vec![0; workers],
                breaker: vec![BreakerState::Closed; workers],
                shard_failed: vec![false; workers],
                quarantined_sas: vec![0; workers],
                voter_disagreements: vec![0; engine.voter_count()],
                ..PipelineStats::default()
            },
            reorder: ReorderBuffer::new(),
            ready: Vec::new(),
        }));
        let gauges: Arc<Vec<ShardGauges>> =
            Arc::new((0..workers).map(|_| ShardGauges::default()).collect());
        let clocks = Arc::new(StageClocks::default());
        let emitter = Emitter {
            merge: Arc::clone(&merge),
            event_tx,
            ledger: Arc::clone(&ledger),
            clocks: Arc::clone(&clocks),
        };

        let mut rings: Vec<Arc<SpscRing<SegmentItem>>> = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let ring = Arc::new(SpscRing::new(high_water));
            rings.push(Arc::clone(&ring));
            let rt = WorkerRuntime {
                shard,
                ring,
                emitter: emitter.clone(),
                gauges: Arc::clone(&gauges),
                clocks: Arc::clone(&clocks),
                hook: config.fault_hook.clone(),
                checkpoint_interval,
                restart_budget: config.restart_budget,
                backoff_base_ms: config.backoff_base_ms,
            };
            // Built here, restart checkpoint included, so that a worker
            // allocates nothing until it scores: per-thread allocator
            // arenas keep what their threads once held, and a worker that
            // copied its engine on start-up would leave an engine-sized
            // block behind even when closed unused.
            let state = WorkerState::new(engine.clone(), config.health);
            worker_handles.push(std::thread::spawn(move || supervised_worker(state, rt)));
        }

        // The router keeps the last emitter, for its DropOldest shed
        // placeholders, until the input closes; beyond that only workers
        // hold one, so the event stream ends once the input is closed and
        // the last worker has drained its ring.
        let model_config = engine.config();
        let router = FeedRouter {
            splitter: FrameSplitter::new(
                model_config.bit_width_samples,
                model_config.bit_threshold,
            ),
            peeker: EdgeSetExtractor::new(model_config.clone()),
            peek_scratch: Vec::new(),
            segments: Vec::new(),
            publisher: Publisher {
                batches: (0..workers).map(|_| Vec::new()).collect(),
                rings,
                emitter,
                gauges: Arc::clone(&gauges),
                policy: config.backpressure,
                shard_seed: config.shard_seed,
                next_seq: 0,
                consumer_gone: false,
            },
        };

        Pipeline {
            router: Mutex::new(Some(router)),
            rejected_chunks: AtomicU64::new(0),
            event_rx,
            ledger,
            merge,
            gauges,
            clocks,
            workers: worker_handles,
        }
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
    /// disconnects — so a caller can iterate [`Pipeline::events`] to the
    /// end before collecting engines with [`Pipeline::close`].
    /// Idempotent; [`Pipeline::feed`] fails with
    /// [`PipelineError::InputClosed`] afterwards.
    pub fn close_input(&mut self) {
        if let Some(router) = self.router.get_mut().take() {
            router.finish_input();
        }
    }

    /// Snapshot of the aggregate counters. The per-frame counters are
    /// internally consistent (taken under the merge lock); the queue
    /// depths, restart counts, breaker states and quarantine sizes are
    /// sampled from the live gauges at call time.
    pub fn stats(&self) -> PipelineStats {
        let mut snapshot = self.merge.lock().stats.clone();
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
    pub fn close(mut self) -> Result<(Vec<E>, PipelineStats), PipelineError> {
        self.close_input();
        let mut panicked = false;
        let mut engines = Vec::with_capacity(self.workers.len());
        for worker in std::mem::take(&mut self.workers) {
            match worker.join() {
                Ok(engine) => engines.push(engine),
                Err(_) => panicked = true,
            }
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
    /// spawned (use [`Pipeline::close`]), [`PipelineError::WorkerPanicked`]
    /// if a thread panicked.
    pub fn finish(self) -> Result<(E, PipelineStats), PipelineError> {
        if self.workers.len() != 1 {
            return Err(PipelineError::NotSingleWorker);
        }
        let (mut engines, stats) = self.close()?;
        let engine = engines.pop().ok_or(PipelineError::WorkerPanicked)?;
        Ok((engine, stats))
    }
}

impl FusionPipeline {
    /// Alias of [`Pipeline::spawn_sharded`].
    pub fn spawn(engine: FusionEngine, config: PipelineConfig) -> Self {
        Self::spawn_sharded(engine, config)
    }

    /// The cross-shard drift ledger: the most recent notable fusion frames
    /// (drift verdicts, voter outages) in framing order, and their counts.
    pub fn ledger(&self) -> &Arc<DriftLedger> {
        &self.ledger
    }
}

impl<E: PipelineEngine> Drop for Pipeline<E> {
    fn drop(&mut self) {
        self.close_input();
        // Best effort: never panic in drop.
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

/// Windows `feed` accumulates per shard before publishing them to the
/// shard's ring in one batch — one `Release` store (plus at most one
/// condvar signal) per [`ROUTE_BATCH`] frames instead of per frame.
/// Batches are also flushed at the end of every chunk so a trickle of
/// input never strands a frame in a half-full batch.
const ROUTE_BATCH: usize = 8;

/// Largest number of queued windows a worker pops from its ring per
/// wakeup.
const WORKER_BATCH: usize = 32;

/// The routing state [`Pipeline::feed`] runs under its lock: the one
/// framing state machine of the pipeline, and the producer ends of the
/// shard rings.
#[derive(Debug)]
struct FeedRouter {
    splitter: FrameSplitter,
    peeker: EdgeSetExtractor,
    /// Reusable assembly buffer for SA peeks whose prefix straddles a
    /// chunk boundary; grows to one capped prefix and stays.
    peek_scratch: Vec<f64>,
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

    /// Splits one chunk, peeks the claimed SA of every window that closes
    /// in it, and publishes each window to its shard's ring, flushing
    /// every shard's batch before returning.
    // xtask: hot-path
    fn route_chunk(
        &mut self,
        chunk: Arc<Vec<f64>>,
        clocks: &StageClocks,
    ) -> Result<(), PipelineError> {
        let splitting = Instant::now();
        self.splitter.split_chunk(&chunk, &mut self.segments);
        for segment in &mut self.segments {
            segment.sa = peek_sa(&self.peeker, segment, &mut self.peek_scratch);
        }
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
        if let Some(mut segment) = self.splitter.flush() {
            segment.sa = peek_sa(&self.peeker, &segment, &mut self.peek_scratch);
            let _ = self.publisher.route_segment(segment);
        }
        let _ = self.publisher.flush_shards();
        for ring in &self.publisher.rings {
            ring.close();
        }
    }
}

/// Decodes `segment`'s claimed source address from its SOF on, `0xFF`
/// when the arbitration field cannot be decoded.
///
/// The walk reads at most the frame's arbitration prefix: 31 unstuffed
/// bits plus worst-case stuffing stay under 41 sampled bits, and resync
/// only ever moves the cursor backward, so capping the slice at 64 bits
/// never changes the outcome. The peek therefore borrows the in-chunk
/// tail from SOF when the SOF sits in it, borrows the capped prefix in
/// place when it fits in `mid`, and otherwise assembles the capped prefix
/// into `scratch` (at most once per boundary-straddling frame). Either
/// way it decodes the same samples, so the routed shard of every frame is
/// a pure function of the stream, independent of its chunking.
// xtask: hot-path
fn peek_sa(peeker: &EdgeSetExtractor, segment: &RawSegment, scratch: &mut Vec<f64>) -> u8 {
    let cap = (64.0 * peeker.config().bit_width_samples) as usize;
    let (head, mid, tail) = (
        segment.head.as_slice(),
        segment.mid_slice(),
        segment.tail_slice(),
    );
    let frame = if let Some(at) = segment.sof.checked_sub(head.len() + mid.len()) {
        tail.get(at..).unwrap_or(&[])
    } else if let Some(prefix) = segment
        .sof
        .checked_sub(head.len())
        .and_then(|at| mid.get(at..at.saturating_add(cap)))
    {
        prefix
    } else {
        scratch.clear();
        let mut skip = segment.sof;
        for piece in [head, mid, tail] {
            let from = skip.min(piece.len());
            skip -= from;
            let take = (cap - scratch.len()).min(piece.len() - from);
            scratch.extend_from_slice(piece.get(from..from + take).unwrap_or(&[]));
        }
        scratch.as_slice()
    };
    peeker.peek_sa(frame).map_or(0xFF, SourceAddress::raw)
}

/// The producer ends of the shard rings, with one pending batch per shard.
#[derive(Debug)]
struct Publisher {
    rings: Vec<Arc<SpscRing<SegmentItem>>>,
    batches: Vec<Vec<SegmentItem>>,
    /// Merges the `DropOldest` shed placeholders; dropped with the router
    /// when the input closes.
    emitter: Emitter,
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
                    shed_overflow(&self.emitter, shard, batch);
                    true
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
/// analogue of "drop oldest" sheds the *incoming* windows: the feeding
/// thread merges each as a `Dropped` placeholder, keeping the sequence
/// space gapless and the loss attributed to exactly this shard.
// xtask: cold
fn shed_overflow(emitter: &Emitter, shard: usize, batch: &mut Vec<SegmentItem>) {
    for item in batch.drain(..) {
        let event = IdsEvent::Dropped {
            stream_pos: item.segment.base,
            shard,
            reason: DropReason::Backlogged,
        };
        emitter.merge_window(item.seq, shard, event, 0, None);
    }
}

/// Everything a shard's supervisor and scoring loop need; owned by the
/// supervisor thread.
struct WorkerRuntime {
    shard: usize,
    ring: Arc<SpscRing<SegmentItem>>,
    emitter: Emitter,
    gauges: Arc<Vec<ShardGauges>>,
    clocks: Arc<StageClocks>,
    hook: Option<FaultHook>,
    checkpoint_interval: usize,
    restart_budget: u32,
    backoff_base_ms: u64,
}

/// Mutable worker state that survives a panic of the scoring loop: the
/// supervisor rolls `engine` back to `checkpoint` and resumes from
/// `pending`, dropping only the window that was in flight when the panic
/// hit.
struct WorkerState<E> {
    engine: E,
    checkpoint: E,
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

impl<E: PipelineEngine> WorkerState<E> {
    /// A shard's state before its first window: `engine` and its restart
    /// checkpoint.
    fn new(engine: E, health: HealthConfig) -> Self {
        WorkerState {
            checkpoint: engine.clone(),
            engine,
            pending: VecDeque::new(),
            batch: Vec::new(),
            window: Vec::new(),
            in_flight: None,
            monitor: HealthMonitor::new(health),
            processed: 0,
        }
    }

    /// Refreshes the restart checkpoint.
    fn refresh_checkpoint(&mut self) {
        self.checkpoint = self.engine.clone();
    }

    /// The scoring loop proper; returns when the shard's ring closes and
    /// drains. May panic — the supervisor catches it.
    fn run(&mut self, rt: &WorkerRuntime) {
        loop {
            if self.pending.is_empty() {
                let got = rt.ring.pop_batch(&mut self.batch, WORKER_BATCH);
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
                let outcome = self.score(rt, stream_pos, window);
                self.window = scratch;
                self.in_flight = None;
                self.processed += 1;
                if self.processed.is_multiple_of(rt.checkpoint_interval) {
                    self.refresh_checkpoint();
                }
                rt.emitter.merge_window(
                    item.seq,
                    rt.shard,
                    outcome.event,
                    outcome.disagree_mask,
                    outcome.fusion,
                );
            }
        }
    }

    /// Scores one window through the engine, attributing extraction,
    /// scoring and shadow time to the shared stage clocks.
    fn process_timed(&mut self, rt: &WorkerRuntime, stream_pos: u64, window: &[f64]) -> Outcome {
        let outcome = self.engine.score_window(stream_pos, window, rt.shard);
        rt.clocks
            .extract
            .fetch_add(outcome.extract_ns, Ordering::Relaxed);
        rt.clocks
            .score
            .fetch_add(outcome.score_ns, Ordering::Relaxed);
        // Without shadows, skip one write per frame to a counter every
        // worker shares.
        if outcome.shadow_ns > 0 {
            rt.clocks
                .shadow
                .fetch_add(outcome.shadow_ns, Ordering::Relaxed);
        }
        outcome
    }

    /// Scores one window through the circuit breaker. A window the
    /// breaker turns into [`IdsEvent::Degraded`] keeps what the engine
    /// scored besides its event: voter disagreements and fusion record.
    fn score(&mut self, rt: &WorkerRuntime, stream_pos: u64, window: &[f64]) -> Outcome {
        let degraded = |reason| IdsEvent::Degraded {
            stream_pos,
            shard: rt.shard,
            reason,
        };
        match self.monitor.state() {
            BreakerState::Closed => {
                let mut outcome = self.process_timed(rt, stream_pos, window);
                if let Some(sa) = outcome.event.sa() {
                    self.monitor.note_sa(sa.0);
                }
                if let Some(reason) = self.monitor.observe(outcome_of(&outcome.event)) {
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
                        .store(self.engine.quarantined().len(), Ordering::Relaxed);
                    self.refresh_checkpoint();
                    outcome.event = degraded(reason);
                }
                outcome
            }
            BreakerState::Open => {
                let reason = self.monitor.reason();
                if self.monitor.take_probe_slot() {
                    let mut outcome = self.process_timed(rt, stream_pos, window);
                    let healthy = matches!(outcome_of(&outcome.event), WindowOutcome::Healthy);
                    if self.monitor.record_probe(healthy) {
                        // Fault cleared: release the quarantine and resume
                        // hard verdicts, starting with this probe's.
                        self.engine.release_all_quarantined();
                        let gauges = &rt.gauges[rt.shard];
                        gauges.breaker_open.store(false, Ordering::Relaxed);
                        gauges.quarantined.store(0, Ordering::Relaxed);
                        self.refresh_checkpoint();
                    } else {
                        outcome.event = degraded(reason);
                    }
                    return outcome;
                }
                Outcome {
                    event: degraded(reason),
                    disagree_mask: 0,
                    fusion: None,
                    extract_ns: 0,
                    score_ns: 0,
                    shadow_ns: 0,
                }
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
/// its windows drain as [`IdsEvent::Dropped`] placeholders so the reorder
/// buffer never stalls on a sequence gap.
fn supervised_worker<E: PipelineEngine>(mut state: WorkerState<E>, rt: WorkerRuntime) -> E {
    // Held for the whole thread: if this worker dies in any way
    // supervision does not cover, `feed` must not park forever on a ring
    // nobody will ever drain again.
    let _consumer_guard = RingConsumerGuard(Arc::clone(&rt.ring));
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
                // placeholder keeps the sequence space gapless.
                if let Some((seq, stream_pos)) = state.in_flight.take() {
                    let event = IdsEvent::Dropped {
                        stream_pos,
                        shard: rt.shard,
                        reason: DropReason::WorkerRestart,
                    };
                    rt.emitter.merge_window(seq, rt.shard, event, 0, None);
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
/// a dead shard and the reorder buffer never waits on a missing sequence
/// number.
fn drain_failed_shard(
    rt: &WorkerRuntime,
    pending: VecDeque<SegmentItem>,
    batch: &mut Vec<SegmentItem>,
) {
    let drop_item = |item: SegmentItem| {
        let event = IdsEvent::Dropped {
            stream_pos: item.segment.base,
            shard: rt.shard,
            reason: DropReason::ShardFailed,
        };
        rt.emitter.merge_window(item.seq, rt.shard, event, 0, None);
    };
    for item in pending {
        drop_item(item);
    }
    loop {
        let got = rt.ring.pop_batch(batch, WORKER_BATCH);
        if got == 0 {
            return;
        }
        rt.gauges[rt.shard].depth.fetch_sub(got, Ordering::Relaxed);
        for item in batch.drain(..) {
            drop_item(item);
        }
    }
}

impl Emitter {
    /// Merges one finished window: pushes it into the reorder buffer, then
    /// for every window that is now in framing order counts it and its
    /// voter disagreements, records a drift or outage frame in the ledger,
    /// and sends its event. All of it is one critical section, so a stats
    /// snapshot never disagrees with the events already delivered and the
    /// ledger keeps framing order across threads.
    // xtask: hot-path
    // xtask: accounting(IdsEvent)
    fn merge_window(
        &self,
        seq: u64,
        shard: usize,
        event: IdsEvent,
        disagree_mask: u8,
        fusion: Option<FusionRecord>,
    ) {
        // xtask: allow(hot-path-lock): counters and event emission must share one critical section so stats snapshots never disagree with the emitted stream
        let mut merge = self.merge.lock();
        let merging = Instant::now();
        let MergeState {
            stats: s,
            reorder,
            ready,
        } = &mut *merge;
        reorder.push(seq, (shard, event, disagree_mask, fusion), ready);
        for (shard, event, disagree_mask, fusion) in ready.drain(..) {
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
            let mut mask = disagree_mask;
            for count in &mut s.voter_disagreements {
                if mask == 0 {
                    break;
                }
                *count += u64::from(mask & 1);
                mask >>= 1;
            }
            if let Some(record) = fusion {
                s.fusion_frames += 1;
                if record.drift.is_some() {
                    s.drift_verdicts += 1;
                }
                if record.outage.is_some() {
                    s.voter_outages += 1;
                }
                if record.drift.is_some() || record.outage.is_some() {
                    self.publish_notable(event.stream_pos(), shard, record);
                }
            }
            // Receiver gone: keep counting so stats stay truthful, but
            // stop forwarding.
            // xtask: allow(guard-across-blocking): event_tx is unbounded, send never blocks; atomicity of counters+events requires the guard
            let _ = self.event_tx.send(event);
        }
        let merged = elapsed_ns(merging);
        drop(merge);
        self.clocks.merge.fetch_add(merged, Ordering::Relaxed);
    }

    /// Records one drift or outage frame in the [`DriftLedger`]. Runs
    /// inside the merge critical section, so the ledger lock nests under
    /// the stats lock.
    // xtask: cold
    fn publish_notable(&self, stream_pos: u64, shard: usize, record: FusionRecord) {
        self.ledger.record(FusionEvent {
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
        let pipeline = IdsPipeline::spawn_sharded(
            engine,
            PipelineConfig::default().with_workers(1).with_high_water(4),
        );
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
    fn peeked_sa_is_chunking_invariant() {
        // Twelve frames, then half of one more for the flush to peek.
        let (engine, capture) = engine_and_capture();
        let config = engine.config();
        let mut stream = Vec::new();
        for frame in capture.frames().iter().take(12) {
            stream.extend(frame.trace.to_f64());
        }
        let cut = capture.frames()[12].trace.to_f64();
        stream.extend(&cut[..cut.len() / 2]);

        // Every window's SA, decoded from the whole window.
        let peeker = EdgeSetExtractor::new(config.clone());
        let mut framer = crate::StreamFramer::new(config.bit_width_samples, config.bit_threshold);
        let mut windows = framer.push(&stream);
        windows.extend(framer.flush());
        let expected: Vec<u8> = windows
            .iter()
            .map(|(_, window)| peeker.peek_sa(window).map_or(0xFF, SourceAddress::raw))
            .collect();
        assert_eq!(expected.len(), 13);
        assert!(expected.iter().all(|&sa| sa != 0xFF), "{expected:?}");

        let mut scratch = Vec::new();
        for chunk_len in [7, 333, 1000, 2500, 6000, stream.len()] {
            let mut splitter = FrameSplitter::new(config.bit_width_samples, config.bit_threshold);
            let mut segments = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                splitter.split_chunk(&Arc::new(chunk.to_vec()), &mut segments);
            }
            segments.extend(splitter.flush());
            let sas: Vec<u8> = segments
                .iter()
                .map(|segment| peek_sa(&peeker, segment, &mut scratch))
                .collect();
            assert_eq!(sas, expected, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn events_are_received_while_running() {
        let (engine, capture) = engine_and_capture();
        let pipeline = IdsPipeline::spawn_sharded(
            engine,
            PipelineConfig::default().with_workers(1).with_high_water(4),
        );
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
        let pipeline = IdsPipeline::spawn_sharded(
            engine,
            PipelineConfig::default().with_workers(1).with_high_water(2),
        );
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
        let pipeline = IdsPipeline::spawn_sharded(
            engine,
            PipelineConfig::default().with_workers(1).with_high_water(2),
        );
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

    /// splitmix64: tiny, seedable, and good enough to pick interleavings.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn shuffle<T>(&mut self, v: &mut [T]) {
            for i in (1..v.len()).rev() {
                v.swap(i, self.below(i + 1));
            }
        }
    }

    /// Turn token: thread `k` may merge only while `schedule[cursor] ==
    /// k`, which pins the interleaving of merges to the schedule whatever
    /// the OS scheduler does.
    struct Turns {
        schedule: Vec<usize>,
        cursor: std::sync::Mutex<usize>,
        cv: std::sync::Condvar,
    }

    impl Turns {
        fn wait_for(&self, thread: usize) {
            let mut cursor = self.cursor.lock().unwrap();
            while self.schedule.get(*cursor) != Some(&thread) {
                let (guard, timeout) = self
                    .cv
                    .wait_timeout(cursor, Duration::from_secs(10))
                    .unwrap();
                cursor = guard;
                assert!(!timeout.timed_out(), "merge schedule deadlocked");
            }
        }

        fn advance(&self) {
            *self.cursor.lock().unwrap() += 1;
            self.cv.notify_all();
        }
    }

    /// Stream position of sequence `seq` (strictly increasing in `seq`).
    fn pos(seq: u64) -> u64 {
        seq * 1000 + 7
    }

    /// What a worker on `shard` finishes for `seq`: every event kind, and
    /// a fusion record on every other window, some carrying drift and
    /// outage notables.
    fn worker_window(seq: u64, shard: usize) -> (IdsEvent, Option<FusionRecord>) {
        let scored = |verdict, extraction_failed| {
            IdsEvent::Scored(crate::ScoredEvent {
                stream_pos: pos(seq),
                sa: None,
                verdict,
                extraction_failed,
                retrain_due: false,
            })
        };
        let normal = vprofile::Verdict::Ok {
            cluster: vprofile::ClusterId(0),
            distance: 1.0,
        };
        let anomaly = vprofile::Verdict::Anomaly {
            kind: vprofile::AnomalyKind::Unscorable,
        };
        let event = match seq % 5 {
            0 => scored(normal, false),
            1 => scored(anomaly, false),
            2 => scored(anomaly, true),
            3 => IdsEvent::Degraded {
                stream_pos: pos(seq),
                shard,
                reason: crate::DegradeReason::ExtractionFailures,
            },
            _ => IdsEvent::Dropped {
                stream_pos: pos(seq),
                shard,
                reason: DropReason::WorkerRestart,
            },
        };
        let fusion = seq.is_multiple_of(2).then(|| FusionRecord {
            sa: 0x10,
            score: 0.5,
            threshold: 1.0,
            anomaly: false,
            scored: true,
            episode: false,
            absorbed: false,
            disagree_mask: (seq % 8) as u8,
            drift: seq
                .is_multiple_of(7)
                .then_some(vprofile_fusion::DriftVerdict {
                    sa: 0x10,
                    kind: vprofile_fusion::DriftKind::EnsembleDisagreement,
                    magnitude: 1.5,
                }),
            outage: seq.is_multiple_of(11).then_some(1),
        });
        (event, fusion)
    }

    /// Runs `schedule` over `owned` (see [`run_merge_schedule`]), each
    /// thread merging through its own clone of `emitter`, and returns the
    /// stats snapshot each thread took right after each of its merges.
    fn drive_schedule(
        emitter: &Emitter,
        workers: usize,
        owned: Vec<Vec<u64>>,
        schedule: Vec<usize>,
        seed: u64,
    ) -> Vec<PipelineStats> {
        let turns = Arc::new(Turns {
            schedule,
            cursor: std::sync::Mutex::new(0),
            cv: std::sync::Condvar::new(),
        });
        let mut shed_shards = SplitMix64(seed ^ 0xfeed);
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(thread, order)| {
                let emitter = emitter.clone();
                let turns = Arc::clone(&turns);
                let plan: Vec<_> = order
                    .into_iter()
                    .map(|seq| {
                        if thread == workers {
                            let shard = shed_shards.below(workers);
                            let event = IdsEvent::Dropped {
                                stream_pos: pos(seq),
                                shard,
                                reason: DropReason::Backlogged,
                            };
                            (seq, shard, event, None)
                        } else {
                            let (event, fusion) = worker_window(seq, thread);
                            (seq, thread, event, fusion)
                        }
                    })
                    .collect();
                std::thread::spawn(move || {
                    let mut snapshots = Vec::new();
                    for (seq, shard, event, fusion) in plan {
                        turns.wait_for(thread);
                        let mask = fusion.map_or(0, |r: FusionRecord| r.disagree_mask);
                        emitter.merge_window(seq, shard, event, mask, fusion);
                        snapshots.push(emitter.merge.lock().stats.clone());
                        turns.advance();
                    }
                    snapshots
                })
            })
            .collect();
        let mut snapshots = Vec::new();
        for handle in handles {
            snapshots.extend(handle.join().unwrap());
        }
        snapshots
    }

    /// Drives `merge_window` from `workers` worker threads and one feed
    /// thread through `schedule` (one entry per merge; thread `workers` is
    /// the feed thread). `owned[k]` lists the sequences thread `k` merges,
    /// in its order; the feed thread sheds its own as `Backlogged`
    /// placeholders of a seeded shard. Asserts the identity in every
    /// snapshot taken between turns, a gapless event stream in sequence
    /// order, and notables in framing order in the ledger.
    fn run_merge_schedule(workers: usize, owned: Vec<Vec<u64>>, schedule: Vec<usize>, seed: u64) {
        let total: u64 = owned.iter().map(|o| o.len() as u64).sum();
        let (event_tx, event_rx) = unbounded();
        let ledger = Arc::new(DriftLedger::new());
        let emitter = Emitter {
            merge: Arc::new(Mutex::new(MergeState {
                stats: PipelineStats {
                    shard_frames: vec![0; workers],
                    shard_sheds: vec![0; workers],
                    voter_disagreements: vec![0; 3],
                    ..PipelineStats::default()
                },
                reorder: ReorderBuffer::new(),
                ready: Vec::new(),
            })),
            event_tx,
            ledger: Arc::clone(&ledger),
            clocks: Arc::new(StageClocks::default()),
        };
        let snapshots = drive_schedule(&emitter, workers, owned, schedule, seed);
        drop(emitter);

        let events: Vec<IdsEvent> = event_rx.iter().collect();
        let positions: Vec<u64> = events.iter().map(IdsEvent::stream_pos).collect();
        assert_eq!(
            positions,
            (0..total).map(pos).collect::<Vec<_>>(),
            "seed {seed}: events must be gapless and in sequence order"
        );
        assert_eq!(snapshots.len() as u64, total);
        for s in &snapshots {
            assert_eq!(
                s.frames,
                s.anomalies + s.normals + s.extraction_failures + s.dropped + s.degraded,
                "seed {seed}: five-way identity broken in {s:?}"
            );
            assert_eq!(s.shard_frames.iter().sum::<u64>(), s.frames, "seed {seed}");
            assert!(
                s.shard_sheds.iter().sum::<u64>() <= s.dropped,
                "seed {seed}"
            );
        }
        let last = snapshots.iter().max_by_key(|s| s.frames).unwrap();
        assert_eq!(last.frames, total, "seed {seed}: every window counted");

        // Worker windows in framing order; the rest are the feed's sheds.
        let worker_seqs: Vec<u64> = (0..total)
            .filter(|&seq| {
                !matches!(
                    events[seq as usize],
                    IdsEvent::Dropped {
                        reason: DropReason::Backlogged,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(
            last.shard_sheds.iter().sum::<u64>(),
            total - worker_seqs.len() as u64,
            "seed {seed}: every shed window attributed to one shard"
        );
        let expected = |keep: fn(u64) -> bool| -> Vec<u64> {
            worker_seqs
                .iter()
                .copied()
                .filter(|&seq| keep(seq))
                .map(pos)
                .collect()
        };
        // `worker_window` attaches a drift to every 14th window and an
        // outage to every 22nd.
        let notables = ledger.events();
        let positions = |keep: fn(&FusionRecord) -> bool| -> Vec<u64> {
            notables
                .iter()
                .filter(|e| keep(&e.record))
                .map(|e| e.stream_pos)
                .collect()
        };
        let ledger_drifts = positions(|r| r.drift.is_some());
        let ledger_outages = positions(|r| r.outage.is_some());
        let drift_or_outage = |seq: u64| seq.is_multiple_of(14) || seq.is_multiple_of(22);
        assert_eq!(
            ledger_drifts,
            expected(|seq| seq.is_multiple_of(14)),
            "seed {seed}: ledger drifts"
        );
        assert_eq!(
            ledger_outages,
            expected(|seq| seq.is_multiple_of(22)),
            "seed {seed}: ledger outages"
        );
        assert_eq!(
            positions(|_| true),
            expected(drift_or_outage),
            "seed {seed}: notable frames"
        );
        assert_eq!(ledger.drift_count(), ledger_drifts.len());
        assert_eq!(ledger.outage_count(), ledger_outages.len());
    }

    /// Seeded ownership, per-thread order and global schedule: every
    /// sequence goes to one of the `workers` worker threads or the feed
    /// thread, each thread merges its own in a shuffled order, and the
    /// turns interleave at random.
    fn seeded_merge_schedule(seed: u64, workers: usize, total: u64) {
        let mut rng = SplitMix64(seed);
        let mut owned = vec![Vec::new(); workers + 1];
        for seq in 0..total {
            owned[rng.below(workers + 1)].push(seq);
        }
        let mut schedule = Vec::new();
        for (thread, order) in owned.iter_mut().enumerate() {
            rng.shuffle(order);
            schedule.extend(std::iter::repeat_n(thread, order.len()));
        }
        rng.shuffle(&mut schedule);
        run_merge_schedule(workers, owned, schedule, seed);
    }

    #[test]
    fn merge_window_orders_seeded_interleavings() {
        for (seed, workers) in [(1, 2), (42, 3), (0xdead_beef, 2), (7_777_777, 3), (9104, 3)] {
            seeded_merge_schedule(seed, workers, 240);
        }
    }

    #[test]
    fn merge_window_survives_sequence_zero_held_to_the_last_turn() {
        // Worker 0 merges sequence 0 on its last turn, which is also the
        // last turn of the run: every other window buffers before any
        // release.
        let (workers, total) = (2, 200u64);
        let mut rng = SplitMix64(0x5eed);
        let mut owned = vec![Vec::new(); workers + 1];
        for seq in 1..total {
            owned[rng.below(workers + 1)].push(seq);
        }
        owned[0].push(0);
        // Worker 0's turns come first in the flattened list, so dropping
        // the first entry keeps one of them back for the end.
        let mut schedule: Vec<usize> = owned
            .iter()
            .enumerate()
            .flat_map(|(thread, order)| std::iter::repeat_n(thread, order.len()))
            .skip(1)
            .collect();
        rng.shuffle(&mut schedule);
        schedule.push(0);
        run_merge_schedule(workers, owned, schedule, 0x5eed);
    }
}

//! Per-shard health monitoring: rolling failure rates, a circuit breaker
//! with automatic recovery probes, and the feed backpressure policy.
//!
//! The monitor watches *capture integrity*, not attack activity: only
//! extraction failures and unscorable verdicts count against a shard.
//! Anomaly verdicts — the thing the IDS exists to raise — never trip the
//! breaker, because an attack storm opening the breaker would silence the
//! very alarms it should amplify. The failure modes that do trip it
//! (unparseable windows, dimension/numeric scoring failures) are exactly
//! what capture-layer faults produce.
//!
//! Breaker lifecycle: `Closed` → (rolling failure ratio ≥ `trip_ratio`
//! over ≥ `min_samples` windows) → `Open`. While open, the shard emits
//! [`crate::IdsEvent::Degraded`] instead of hard verdicts, but every
//! `probe_interval`-th window is still scored as a recovery probe;
//! `close_after` consecutive healthy probes close the breaker again.

use crate::backend::BackendKind;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// What [`crate::IdsPipeline::feed`] does when a shard ring (capacity
/// [`crate::PipelineConfig::high_water`] windows) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Block the producer until the worker makes room (a DMA ring
    /// asserting flow control). The default, and the only loss-free policy.
    #[default]
    Block,
    /// Refuse the whole chunk with [`crate::PipelineError::Backlogged`]
    /// while any shard ring is full, before splitting it, so feeding it
    /// again is safe. Counted in `rejected_chunks`, outside the frame
    /// identity; every frame of an accepted chunk is delivered.
    Reject,
    /// Shed the incoming windows of a full ring (a ring buffer overwriting
    /// its tail). Lossy: each shed window becomes an
    /// [`crate::IdsEvent::Dropped`] placeholder with
    /// [`DropReason::Backlogged`], counted in `dropped` and in its shard's
    /// `shard_sheds`.
    DropOldest,
}

/// Why a shard entered degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// The rolling extraction-failure rate tripped the breaker.
    ExtractionFailures,
    /// The rolling unscorable-verdict rate tripped the breaker.
    UnscorableVerdicts,
    /// A fusion ensemble voter dropped out mid-stream; the ensemble
    /// reweighted around it and kept scoring, consuming this one frame as
    /// an explicit, backend-attributed degradation marker.
    VoterOutage {
        /// Index of the voter that dropped out (0 = primary).
        voter: u8,
        /// Which detection backend the voter was running.
        backend: BackendKind,
        /// What took the voter out.
        cause: OutageCause,
    },
}

/// Why a fusion voter dropped out of the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutageCause {
    /// The voter returned `Unscorable` for enough consecutive frames to
    /// be suspended (it keeps getting recovery probes).
    UnscorableStreak,
    /// The voter was taken out by an injected fault (chaos testing); it
    /// is never readmitted.
    Fault,
}

impl fmt::Display for OutageCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutageCause::UnscorableStreak => f.write_str("unscorable streak"),
            OutageCause::Fault => f.write_str("injected fault"),
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::ExtractionFailures => f.write_str("extraction failures"),
            DegradeReason::UnscorableVerdicts => f.write_str("unscorable verdicts"),
            DegradeReason::VoterOutage {
                voter,
                backend,
                cause,
            } => write!(f, "voter {voter} ({}) outage: {cause}", backend.label()),
        }
    }
}

/// Why a window was dropped instead of scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The window was in flight when its worker panicked; it is not
    /// retried (a deterministic fault would panic-loop the shard).
    WorkerRestart,
    /// The window was queued to a shard whose restart budget was already
    /// exhausted.
    ShardFailed,
    /// The frame's window was shed by `feed` because its shard's ring was
    /// full under the `DropOldest` policy.
    Backlogged,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::WorkerRestart => f.write_str("worker restart"),
            DropReason::ShardFailed => f.write_str("shard permanently failed"),
            DropReason::Backlogged => f.write_str("shed by shard backpressure"),
        }
    }
}

/// Circuit-breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: windows are scored and hard verdicts issued.
    #[default]
    Closed,
    /// Degraded: hard verdicts suspended, recovery probes running.
    Open,
}

/// Health-monitor tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Rolling window length, in scored windows.
    pub window: usize,
    /// Minimum observations before the breaker may trip (a single early
    /// failure must not blackout a shard).
    pub min_samples: usize,
    /// Failure ratio (extraction failures + unscorable verdicts over the
    /// rolling window) at which the breaker opens. A ratio never exceeds
    /// 1, so a value above 1 never opens the breaker.
    pub trip_ratio: f64,
    /// While open, score every `probe_interval`-th window as a recovery
    /// probe.
    pub probe_interval: usize,
    /// Consecutive healthy probes required to close the breaker.
    pub close_after: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 32,
            min_samples: 8,
            trip_ratio: 0.5,
            probe_interval: 8,
            close_after: 3,
        }
    }
}

/// Outcome of scoring one window, as the monitor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOutcome {
    /// Scored, parseable, scorable (verdict content irrelevant).
    Healthy,
    /// Algorithm 1 could not parse the window.
    ExtractionFailure,
    /// The detector could not score the observation at all.
    Unscorable,
}

/// The per-shard rolling health monitor and circuit breaker.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    ring: VecDeque<WindowOutcome>,
    state: BreakerState,
    reason: DegradeReason,
    windows_since_probe: usize,
    healthy_probes: usize,
    recent_sas: Vec<u8>,
}

impl HealthMonitor {
    /// Creates a closed monitor.
    pub fn new(config: HealthConfig) -> Self {
        HealthMonitor {
            config: HealthConfig {
                window: config.window.max(1),
                min_samples: config.min_samples.max(1),
                trip_ratio: config.trip_ratio.max(0.0),
                probe_interval: config.probe_interval.max(1),
                close_after: config.close_after.max(1),
            },
            ring: VecDeque::new(),
            state: BreakerState::Closed,
            reason: DegradeReason::ExtractionFailures,
            windows_since_probe: 0,
            healthy_probes: 0,
            recent_sas: Vec::new(),
        }
    }

    /// Current breaker position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The reason recorded at the last trip.
    pub fn reason(&self) -> DegradeReason {
        self.reason
    }

    /// Remembers an SA observed shortly before a potential trip, so the
    /// engine can quarantine the clusters the fault was flowing through.
    pub fn note_sa(&mut self, sa: u8) {
        if !self.recent_sas.contains(&sa) {
            self.recent_sas.push(sa);
        }
        // Bound to the rolling window's worth of distinct SAs.
        if self.recent_sas.len() > self.config.window {
            self.recent_sas.remove(0);
        }
    }

    /// Takes the recently-seen SAs (for quarantining on a trip).
    pub fn drain_recent_sas(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recent_sas)
    }

    /// Records one scored window while closed. Returns `Some(reason)` when
    /// this observation trips the breaker.
    pub fn observe(&mut self, outcome: WindowOutcome) -> Option<DegradeReason> {
        if self.state == BreakerState::Open {
            return None;
        }
        self.ring.push_back(outcome);
        while self.ring.len() > self.config.window {
            self.ring.pop_front();
        }
        if self.ring.len() < self.config.min_samples {
            return None;
        }
        let mut extraction = 0usize;
        let mut unscorable = 0usize;
        for o in &self.ring {
            match o {
                WindowOutcome::ExtractionFailure => extraction += 1,
                WindowOutcome::Unscorable => unscorable += 1,
                WindowOutcome::Healthy => {}
            }
        }
        let ratio = (extraction + unscorable) as f64 / self.ring.len() as f64;
        if ratio < self.config.trip_ratio {
            return None;
        }
        self.reason = if unscorable > extraction {
            DegradeReason::UnscorableVerdicts
        } else {
            DegradeReason::ExtractionFailures
        };
        self.state = BreakerState::Open;
        self.ring.clear();
        self.windows_since_probe = 0;
        self.healthy_probes = 0;
        Some(self.reason)
    }

    /// While open: counts one arriving window and decides whether it is a
    /// recovery probe (every `probe_interval`-th window).
    pub fn take_probe_slot(&mut self) -> bool {
        if self.state == BreakerState::Closed {
            return false;
        }
        self.windows_since_probe += 1;
        if self.windows_since_probe >= self.config.probe_interval {
            self.windows_since_probe = 0;
            true
        } else {
            false
        }
    }

    /// Records a probe result. Returns `true` when this probe closes the
    /// breaker (after `close_after` consecutive healthy probes).
    pub fn record_probe(&mut self, healthy: bool) -> bool {
        if self.state == BreakerState::Closed {
            return false;
        }
        if !healthy {
            self.healthy_probes = 0;
            return false;
        }
        self.healthy_probes += 1;
        if self.healthy_probes >= self.config.close_after {
            self.state = BreakerState::Closed;
            self.ring.clear();
            self.healthy_probes = 0;
            self.windows_since_probe = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HealthConfig {
        HealthConfig {
            window: 8,
            min_samples: 4,
            trip_ratio: 0.5,
            probe_interval: 3,
            close_after: 2,
        }
    }

    #[test]
    fn healthy_stream_never_trips() {
        let mut m = HealthMonitor::new(config());
        for _ in 0..100 {
            assert!(m.observe(WindowOutcome::Healthy).is_none());
        }
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_needs_min_samples_before_tripping() {
        let mut m = HealthMonitor::new(config());
        // 3 straight failures: ratio 1.0 but below min_samples.
        for _ in 0..3 {
            assert!(m.observe(WindowOutcome::ExtractionFailure).is_none());
        }
        assert_eq!(
            m.observe(WindowOutcome::ExtractionFailure),
            Some(DegradeReason::ExtractionFailures),
            "4th failure reaches min_samples and trips"
        );
        assert_eq!(m.state(), BreakerState::Open);
    }

    #[test]
    fn trip_reason_reflects_the_dominant_failure() {
        let mut m = HealthMonitor::new(config());
        m.observe(WindowOutcome::Unscorable);
        m.observe(WindowOutcome::Unscorable);
        m.observe(WindowOutcome::Unscorable);
        let reason = m.observe(WindowOutcome::Unscorable);
        assert_eq!(reason, Some(DegradeReason::UnscorableVerdicts));
        assert_eq!(m.reason(), DegradeReason::UnscorableVerdicts);
    }

    #[test]
    fn rolling_window_forgets_old_failures() {
        let mut m = HealthMonitor::new(config());
        // 1-in-4 failure density stays below the 0.5 trip ratio in every
        // rolling window, no matter how many failures accumulate in total
        // (10 here, window 8): old failures roll out instead of piling up.
        for _ in 0..10 {
            assert!(m.observe(WindowOutcome::ExtractionFailure).is_none());
            for _ in 0..3 {
                assert!(m.observe(WindowOutcome::Healthy).is_none());
            }
        }
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn probes_run_on_schedule_and_close_after_consecutive_healthy() {
        let mut m = HealthMonitor::new(config());
        for _ in 0..4 {
            m.observe(WindowOutcome::ExtractionFailure);
        }
        assert_eq!(m.state(), BreakerState::Open);
        // probe_interval 3: windows 1,2 are not probes, 3 is.
        assert!(!m.take_probe_slot());
        assert!(!m.take_probe_slot());
        assert!(m.take_probe_slot());
        assert!(!m.record_probe(true), "one healthy probe is not enough");
        assert!(!m.take_probe_slot());
        assert!(!m.take_probe_slot());
        assert!(m.take_probe_slot());
        assert!(m.record_probe(true), "close_after=2 closes on the 2nd");
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn unhealthy_probe_resets_the_close_countdown() {
        let mut m = HealthMonitor::new(config());
        for _ in 0..4 {
            m.observe(WindowOutcome::ExtractionFailure);
        }
        assert!(!m.record_probe(true));
        assert!(!m.record_probe(false), "fault still active");
        assert!(!m.record_probe(true), "countdown restarted");
        assert!(m.record_probe(true));
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn observations_while_open_are_ignored() {
        let mut m = HealthMonitor::new(config());
        for _ in 0..4 {
            m.observe(WindowOutcome::ExtractionFailure);
        }
        assert_eq!(m.state(), BreakerState::Open);
        assert!(m.observe(WindowOutcome::ExtractionFailure).is_none());
        assert_eq!(m.state(), BreakerState::Open);
    }

    #[test]
    fn recent_sas_dedupe_and_drain() {
        let mut m = HealthMonitor::new(config());
        m.note_sa(0x10);
        m.note_sa(0x11);
        m.note_sa(0x10);
        assert_eq!(m.drain_recent_sas(), vec![0x10, 0x11]);
        assert!(m.drain_recent_sas().is_empty());
    }

    #[test]
    fn trip_ratio_above_one_never_trips() {
        let mut m = HealthMonitor::new(HealthConfig {
            trip_ratio: 2.0,
            ..HealthConfig::default()
        });
        for _ in 0..100 {
            assert_eq!(m.observe(WindowOutcome::ExtractionFailure), None);
            assert_eq!(m.observe(WindowOutcome::Unscorable), None);
        }
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let m = HealthMonitor::new(HealthConfig {
            window: 0,
            min_samples: 0,
            trip_ratio: 7.0,
            probe_interval: 0,
            close_after: 0,
        });
        assert_eq!(m.state(), BreakerState::Closed);
    }

    #[test]
    fn reasons_display() {
        assert_eq!(
            DegradeReason::ExtractionFailures.to_string(),
            "extraction failures"
        );
        assert_eq!(DropReason::WorkerRestart.to_string(), "worker restart");
        assert_eq!(
            DropReason::ShardFailed.to_string(),
            "shard permanently failed"
        );
        assert_eq!(
            DropReason::Backlogged.to_string(),
            "shed by shard backpressure"
        );
        assert_eq!(
            DegradeReason::VoterOutage {
                voter: 2,
                backend: BackendKind::Scission,
                cause: OutageCause::UnscorableStreak,
            }
            .to_string(),
            "voter 2 (scission) outage: unscorable streak"
        );
    }
}

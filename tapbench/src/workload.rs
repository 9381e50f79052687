//! The four workloads: what traffic each replays, which detector and
//! pipeline shape it runs, and how its inputs are synthesized from the
//! seed.

use crate::tap::{Marks, TapStream};
use crossbeam::channel::Receiver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vprofile::{EdgeSetExtractor, Trainer, VProfileConfig};
use vprofile_analog::{Environment, Fault, FrameSynthesizer};
use vprofile_baselines::{ScissionDetector, VidenDetector};
use vprofile_can::WireFrame;
use vprofile_ids::{
    Backend, FusionConfig, FusionEngine, FusionPipeline, IdsEngine, IdsEvent, IdsPipeline,
    PipelineConfig, PipelineError, PipelineStats, UpdatePolicy,
};
use vprofile_vehicle::adversary::{external_attacker_id, mimicry_attacker, AdversaryPlan};
use vprofile_vehicle::scenario::{chaos_inject, stress_fleet, warmup_drive};
use vprofile_vehicle::{Capture, CaptureConfig, CapturedFrame, Vehicle};

/// Which detector a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// vProfile alone, in an [`IdsPipeline`].
    VProfile,
    /// vProfile + Viden + Scission voters in a [`FusionPipeline`].
    Fused,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// ECUs in the `stress_fleet` vehicle.
    pub ecus: usize,
    /// Frames in one pass of the replayed tap (about one bus-second).
    pub pass_frames: usize,
    /// Detector run by the monitor.
    pub detector: Detector,
    /// Detection workers.
    pub workers: usize,
    /// Online updates on every accepted frame, with the drift guard.
    pub updates: bool,
    /// Train at 20 °C and replay a 20 → 45 °C warm-up each pass.
    pub drift: bool,
    /// Corrupt a tenth of the frames with sample dropout.
    pub dropout: bool,
    /// Open-loop replay rate, in multiples of real time.
    pub speedup: f64,
}

/// Every workload, in `--workload all` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "idle_bus",
        why: "deployment shape: 25% bus load, one worker, so router idle scan and framing dominate",
        ecus: 8,
        pass_frames: 450,
        detector: Detector::VProfile,
        workers: 1,
        updates: false,
        drift: false,
        dropout: false,
        speedup: 24.0,
    },
    Workload {
        name: "saturated_fused",
        why: "full bus, three-voter fusion, two workers: scoring, fusion and shard hand-off dominate",
        ecus: 32,
        pass_frames: 1800,
        detector: Detector::Fused,
        workers: 2,
        updates: false,
        drift: false,
        dropout: false,
        speedup: 12.0,
    },
    Workload {
        name: "drift_update",
        why: "20 to 45 C warm-up with online updates on every frame: the model write path beside reads",
        ecus: 8,
        pass_frames: 450,
        detector: Detector::VProfile,
        workers: 1,
        updates: true,
        drift: true,
        dropout: false,
        speedup: 16.0,
    },
    Workload {
        name: "attack_faulted",
        why: "sample dropout on a tenth of frames, two workers: anomaly, alarm and fault paths",
        ecus: 8,
        pass_frames: 450,
        detector: Detector::VProfile,
        workers: 2,
        updates: false,
        drift: false,
        dropout: true,
        speedup: 24.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Training frames per ECU. Fewer leave the per-cluster covariances too
/// loose: at 60 per ECU a fresh capture of the same vehicle raises false
/// alarms on ~40 % of its frames.
const TRAIN_FRAMES_PER_ECU: usize = 200;
/// Every `ATTACK_EVERY`-th replayed frame is re-sent by a mimicry attacker.
const ATTACK_EVERY: usize = 50;
/// Dropout corrupts the last `DROPOUT_BURST` frames of every
/// `DROPOUT_PERIOD`: in a tenth of the frames a gap starts at 1 % of the
/// samples, at 0.1 % of the tap's samples overall.
const DROPOUT_PERIOD: usize = 250;
const DROPOUT_BURST: usize = 25;
/// vProfile detection margin, as in the existing harnesses.
const MARGIN: f64 = 2.0;
/// Online-update drift guard, as in the poisoning tests.
const DRIFT_GUARD: f64 = 400.0;
/// Temperatures of the drift workload.
const TRAIN_C: f64 = 20.0;
const WARM_C: f64 = 45.0;

/// Everything a run needs that is synthesized from the seed, before the
/// timed set-up starts.
#[derive(Debug)]
pub struct Inputs {
    /// The monitored vehicle.
    pub vehicle: Vehicle,
    /// Training capture (seed `S`).
    pub training: Capture,
    /// One pass of the replayed tap (seed `S + 1`).
    pub stream: TapStream,
    /// Framing and extraction parameters of the tap.
    pub config: VProfileConfig,
}

impl Workload {
    /// Synthesizes the workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// When a capture, the attacker or the stream cannot be built.
    pub fn synthesize(&self, seed: u64) -> Result<Inputs, String> {
        let vehicle = stress_fleet(self.ecus, seed);
        let env = if self.drift {
            Environment::idling_at(TRAIN_C)
        } else {
            Environment::default()
        };
        let training = vehicle
            .capture(
                &CaptureConfig::default()
                    .with_frames(TRAIN_FRAMES_PER_ECU * self.ecus)
                    .with_seed(seed)
                    .with_env(env),
            )
            .map_err(|e| format!("training capture: {e}"))?;
        let replay_seed = seed.wrapping_add(1);
        let replay = if self.drift {
            warmup_drive(&vehicle, self.pass_frames, TRAIN_C, WARM_C, replay_seed)
        } else {
            vehicle.capture(
                &CaptureConfig::default()
                    .with_frames(self.pass_frames)
                    .with_seed(replay_seed),
            )
        }
        .map_err(|e| format!("replay capture: {e}"))?;
        let config = VProfileConfig::for_adc(replay.adc(), replay.bit_rate_bps());
        let (frames, marks) = self.corrupt(&vehicle, &replay, seed)?;
        let stream = TapStream::build(
            &frames,
            &marks,
            config.bit_width_samples as usize,
            config.bit_threshold,
        )?;
        Ok(Inputs {
            vehicle,
            training,
            stream,
            config,
        })
    }

    /// Injects the mimicry frames, then (for `dropout` workloads) the
    /// dropout bursts, marking each frame.
    fn corrupt(
        &self,
        vehicle: &Vehicle,
        replay: &Capture,
        seed: u64,
    ) -> Result<(Vec<CapturedFrame>, Vec<Marks>), String> {
        let synth = FrameSynthesizer::new(replay.bit_rate_bps(), *replay.adc());
        let mut frames = replay.frames().to_vec();
        let mut marks = vec![Marks::default(); frames.len()];
        for (k, (cf, mark)) in frames.iter_mut().zip(&mut marks).enumerate() {
            if k % ATTACK_EVERY != ATTACK_EVERY / 2 {
                continue;
            }
            // Alternate a foreign device (effort 0) with one tuned half
            // way toward the victim's electricals.
            let effort = if (k / ATTACK_EVERY).is_multiple_of(2) {
                0.0
            } else {
                0.5
            };
            let plan = AdversaryPlan::new(cf.true_ecu, effort, seed);
            let attacker = mimicry_attacker(vehicle, &plan).map_err(|e| e.to_string())?;
            let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 20));
            let wire = WireFrame::encode(&cf.frame);
            cf.trace = synth.synthesize(wire.bits(), &attacker, replay.env(), &mut rng);
            cf.true_ecu = external_attacker_id(vehicle);
            mark.attack = true;
        }
        if self.dropout {
            let clean = Capture::from_frames(
                replay.vehicle_name(),
                replay.bit_rate_bps(),
                *replay.adc(),
                *replay.env(),
                frames.clone(),
            );
            let faulted = chaos_inject(
                &clean,
                seed,
                &[Fault::Dropout {
                    prob: 0.01,
                    max_gap: 4,
                }],
            );
            for (k, ((cf, mark), bad)) in frames
                .iter_mut()
                .zip(&mut marks)
                .zip(faulted.frames())
                .enumerate()
            {
                if k % DROPOUT_PERIOD >= DROPOUT_PERIOD - DROPOUT_BURST && cf.trace != bad.trace {
                    cf.trace = bad.trace.clone();
                    mark.faulted = true;
                }
            }
        }
        Ok((frames, marks))
    }

    /// The timed part of set-up: extract the training capture, train every
    /// backend and build the engine.
    ///
    /// # Errors
    ///
    /// When training extraction fails or a backend cannot be fitted.
    pub fn train(&self, inputs: &Inputs) -> Result<Core, String> {
        let config = inputs.config.clone();
        let extracted = inputs
            .training
            .extract(&EdgeSetExtractor::new(config.clone()));
        if extracted.failures != 0 {
            return Err(format!(
                "{} training frames failed extraction",
                extracted.failures
            ));
        }
        let labeled = extracted.labeled();
        let lut = inputs.vehicle.sa_lut();
        let model = Trainer::new(config.clone())
            .train_with_lut(&labeled, &lut)
            .map_err(|e| format!("vprofile training: {e}"))?;
        let policy = if self.updates {
            UpdatePolicy::every(1, usize::MAX)
        } else {
            UpdatePolicy::disabled()
        };
        Ok(match self.detector {
            Detector::VProfile => {
                let engine = IdsEngine::new(model, MARGIN, policy);
                Core::Single(if self.updates {
                    engine.with_drift_guard(DRIFT_GUARD)
                } else {
                    engine
                })
            }
            Detector::Fused => {
                let viden = VidenDetector::fit(&labeled, &lut, 6.0)
                    .map_err(|e| format!("viden training: {e}"))?;
                let scission = ScissionDetector::fit(&labeled, &lut, 0.5)
                    .map_err(|e| format!("scission training: {e}"))?;
                let voters = vec![
                    Backend::vprofile(model, MARGIN),
                    Backend::from(viden),
                    Backend::from(scission),
                ];
                Core::Fused(Box::new(FusionEngine::new(
                    voters,
                    config,
                    FusionConfig::default(),
                    policy,
                )))
            }
        })
    }
}

/// A trained detector, ready to be spawned into a pipeline.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Core {
    /// One backend.
    Single(IdsEngine),
    /// A fusion ensemble (boxed: it preallocates per-SA voter state).
    Fused(Box<FusionEngine>),
}

impl Core {
    /// Classifies one framed window with this detector.
    pub fn process_window(&mut self, stream_pos: u64, window: &[f64]) -> IdsEvent {
        match self {
            Core::Single(engine) => engine.process_window(stream_pos, window),
            Core::Fused(engine) => engine.process_window(stream_pos, window),
        }
    }

    /// Spawns a fresh pipeline around a copy of this detector.
    pub fn spawn(&self, workers: usize) -> Monitor {
        let config = PipelineConfig::default().with_workers(workers);
        match self {
            Core::Single(engine) => {
                Monitor::Single(IdsPipeline::spawn_sharded(engine.clone(), config))
            }
            Core::Fused(engine) => {
                Monitor::Fused(FusionPipeline::spawn((**engine).clone(), config))
            }
        }
    }
}

/// A running pipeline of either kind, behind the calls the benchmark
/// makes.
#[derive(Debug)]
pub enum Monitor {
    /// A single-backend pipeline.
    Single(IdsPipeline),
    /// A fusion pipeline.
    Fused(FusionPipeline),
}

impl Monitor {
    /// Feeds one chunk.
    ///
    /// # Errors
    ///
    /// As [`IdsPipeline::feed`].
    pub fn feed(&self, samples: Vec<f64>) -> Result<(), PipelineError> {
        match self {
            Monitor::Single(p) => p.feed(samples),
            Monitor::Fused(p) => p.feed(samples),
        }
    }

    /// The event stream, in framing order.
    pub fn events(&self) -> &Receiver<IdsEvent> {
        match self {
            Monitor::Single(p) => p.events(),
            Monitor::Fused(p) => p.events(),
        }
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> PipelineStats {
        match self {
            Monitor::Single(p) => p.stats(),
            Monitor::Fused(p) => p.stats(),
        }
    }

    /// Closes the input; the event stream ends once everything fed has
    /// been processed.
    pub fn close_input(&mut self) {
        match self {
            Monitor::Single(p) => p.close_input(),
            Monitor::Fused(p) => p.close_input(),
        }
    }

    /// Joins every pipeline thread and returns the final statistics.
    ///
    /// # Errors
    ///
    /// As [`IdsPipeline::close`].
    pub fn close(self) -> Result<PipelineStats, PipelineError> {
        match self {
            Monitor::Single(p) => p.close().map(|(_, stats)| stats),
            Monitor::Fused(p) => p.close().map(|(_, stats)| stats),
        }
    }
}

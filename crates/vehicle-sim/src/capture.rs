use crate::Vehicle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vprofile::{EdgeSetExtractor, LabeledEdgeSet, VProfileError};
use vprofile_analog::{AdcConfig, AnalogError, Environment, FrameSynthesizer, VoltageTrace};
use vprofile_can::bus::BusSimulator;
use vprofile_can::{DataFrame, WireFrame};

/// Parameters of one capture session.
///
/// The thesis records each vehicle's traffic once and replays it into
/// vProfile for repeatability (§4.1); a `CaptureConfig` with a fixed seed
/// plays the same role here — identical configs reproduce identical
/// captures byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaptureConfig {
    /// Number of frames to capture.
    pub frames: usize,
    /// Seed for traffic phases, payloads, and analog noise.
    pub seed: u64,
    /// Operating environment during the capture.
    pub env: Environment,
}

impl Default for CaptureConfig {
    /// 600 frames at reference conditions, fixed seed.
    fn default() -> Self {
        CaptureConfig {
            frames: 600,
            seed: 0x5EED,
            env: Environment::default(),
        }
    }
}

impl CaptureConfig {
    /// Sets the frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the environment.
    pub fn with_env(mut self, env: Environment) -> Self {
        self.env = env;
        self
    }
}

/// One frame as captured off the bus: the decoded frame, ground truth about
/// who sent it, and the raw digitized voltage trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapturedFrame {
    /// The transmitted frame.
    pub frame: DataFrame,
    /// Ground-truth index of the transmitting ECU (never shown to the
    /// detector).
    pub true_ecu: usize,
    /// Bus bit time of the SOF.
    pub start_bit_time: u64,
    /// The digitized differential-voltage trace.
    pub trace: VoltageTrace,
}

/// A recorded capture session: every transmitted frame with its voltage
/// trace, ready to be replayed into vProfile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Capture {
    vehicle_name: String,
    bit_rate_bps: u32,
    adc: AdcConfig,
    env: Environment,
    frames: Vec<CapturedFrame>,
}

impl Capture {
    /// Records a session on a vehicle (called through
    /// [`Vehicle::capture`]).
    pub(crate) fn record(vehicle: &Vehicle, config: &CaptureConfig) -> Capture {
        Capture::record_with_env(vehicle, config, |_| config.env)
    }

    /// Records a session whose environment evolves over the session: the
    /// closure maps bus time (seconds from session start) to the
    /// [`Environment`] in force — e.g. an engine warming up while driving
    /// (see [`crate::scenario::warmup_drive`]). The constant-environment
    /// [`Vehicle::capture`] is the special case of a constant closure.
    pub fn record_with_env(
        vehicle: &Vehicle,
        config: &CaptureConfig,
        env_of: impl Fn(f64) -> Environment,
    ) -> Capture {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let bit_rate = vehicle.bit_rate_bps();
        let mut bus = BusSimulator::new(bit_rate);
        for ecu in vehicle.ecus() {
            bus.add_node(&ecu.name);
        }

        // Aggregate message rate decides how long the session must run to
        // produce the requested frame count.
        let rate_per_ms: f64 = vehicle
            .ecus()
            .iter()
            .flat_map(|e| &e.schedules)
            .map(|s| 1.0 / s.period_ms)
            .sum();
        let duration_ms = config.frames as f64 / rate_per_ms * 1.2 + 20.0;

        // Drive cycle timeline: the manoeuvre sequence of thesis §4.1
        // sampled at 10 ms, so modelled PGNs (engine speed, vehicle speed,
        // brake) carry physically plausible bit patterns.
        let timeline_steps = (duration_ms / 10.0).ceil() as usize + 2;
        let mut driving = crate::signals::DrivingState::new();
        let timeline: Vec<crate::signals::DrivingState> = (0..timeline_steps)
            .map(|k| {
                driving.set_maneuver(crate::signals::thesis_drive_cycle(k as f64 * 0.010));
                driving.step(0.010);
                driving
            })
            .collect();

        for (node, ecu) in vehicle.ecus().iter().enumerate() {
            let mut releases: Vec<(u64, DataFrame)> = Vec::new();
            for schedule in &ecu.schedules {
                let period_bits = schedule.period_bits(bit_rate);
                let phase_ms: f64 = rng.random_range(0.0..schedule.period_ms);
                let phase_bits = (phase_ms / 1000.0 * f64::from(bit_rate)) as u64;
                let count = (duration_ms / schedule.period_ms).ceil() as u64;
                for k in 0..count {
                    let release_bits = phase_bits + k * period_bits;
                    let mut payload = [0u8; 8];
                    rng.fill(&mut payload[..]);
                    let t_ms = release_bits as f64 / f64::from(bit_rate) * 1000.0;
                    let step = ((t_ms / 10.0) as usize).min(timeline.len() - 1);
                    timeline[step].fill_payload(schedule.pgn.raw(), &mut payload);
                    let Ok(frame) = DataFrame::new(schedule.id().into(), &payload[..schedule.dlc])
                    else {
                        // Unreachable: MessageSchedule::new enforces
                        // dlc ≤ 8, the only failure mode of
                        // DataFrame::new. Skip the message otherwise.
                        continue;
                    };
                    releases.push((release_bits, frame));
                }
            }
            releases.sort_by_key(|(t, _)| *t);
            for (t, frame) in releases {
                bus.queue_frame(node, t, frame);
            }
        }

        let log = bus.run();
        let synth = FrameSynthesizer::new(bit_rate, *vehicle.adc());
        let frames: Vec<CapturedFrame> = log
            .into_iter()
            .take(config.frames)
            .map(|record| {
                let wire = WireFrame::encode(&record.frame);
                let transceiver = &vehicle.ecus()[record.node].transceiver;
                let env = env_of(record.start_time_secs(bit_rate));
                let trace = synth.synthesize(wire.bits(), transceiver, &env, &mut rng);
                CapturedFrame {
                    frame: record.frame,
                    true_ecu: record.node,
                    start_bit_time: record.start_bit_time,
                    trace,
                }
            })
            .collect();

        Capture {
            vehicle_name: vehicle.name().to_owned(),
            bit_rate_bps: bit_rate,
            adc: *vehicle.adc(),
            env: env_of(0.0),
            frames,
        }
    }

    /// Assembles a capture from pre-synthesized frames (used by the attack
    /// builders, which inject frames from devices outside the vehicle).
    pub fn from_frames(
        vehicle_name: impl Into<String>,
        bit_rate_bps: u32,
        adc: AdcConfig,
        env: Environment,
        frames: Vec<CapturedFrame>,
    ) -> Capture {
        Capture {
            vehicle_name: vehicle_name.into(),
            bit_rate_bps,
            adc,
            env,
            frames,
        }
    }

    /// Name of the captured vehicle.
    pub fn vehicle_name(&self) -> &str {
        &self.vehicle_name
    }

    /// Bus bit rate during the capture.
    pub fn bit_rate_bps(&self) -> u32 {
        self.bit_rate_bps
    }

    /// The capture hardware configuration.
    pub fn adc(&self) -> &AdcConfig {
        &self.adc
    }

    /// The environment the capture ran under.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The captured frames, chronologically.
    pub fn frames(&self) -> &[CapturedFrame] {
        &self.frames
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the session captured nothing.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Software-downsamples every trace by an integer factor (the
    /// Tables 4.6/4.7 method).
    ///
    /// # Errors
    ///
    /// Propagates [`AnalogError`] for a zero factor.
    pub fn downsample(&self, factor: usize) -> Result<Capture, AnalogError> {
        self.map_traces(|t| t.downsample(factor))
    }

    /// Software-requantizes every trace to a lower resolution.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalogError`] for a zero or above-native resolution.
    pub fn requantize(&self, to_bits: u32) -> Result<Capture, AnalogError> {
        self.map_traces(|t| t.requantize(to_bits))
    }

    fn map_traces(
        &self,
        f: impl Fn(&VoltageTrace) -> Result<VoltageTrace, AnalogError>,
    ) -> Result<Capture, AnalogError> {
        let frames: Vec<CapturedFrame> = self
            .frames
            .iter()
            .map(|cf| {
                let trace = f(&cf.trace)?;
                Ok(CapturedFrame {
                    frame: cf.frame.clone(),
                    true_ecu: cf.true_ecu,
                    start_bit_time: cf.start_bit_time,
                    trace,
                })
            })
            .collect::<Result<_, AnalogError>>()?;
        let adc = frames.first().map(|cf| *cf.trace.adc()).unwrap_or(self.adc);
        Ok(Capture {
            vehicle_name: self.vehicle_name.clone(),
            bit_rate_bps: self.bit_rate_bps,
            adc,
            env: self.env,
            frames,
        })
    }

    /// Runs Algorithm 1 over every captured frame.
    pub fn extract(&self, extractor: &EdgeSetExtractor) -> ExtractedCapture {
        let mut observations = Vec::with_capacity(self.frames.len());
        let mut failures = 0usize;
        for cf in &self.frames {
            match extractor.extract(&cf.trace.to_f64()) {
                Ok(observation) => observations.push(TruthObservation {
                    observation,
                    true_ecu: cf.true_ecu,
                }),
                Err(_) => failures += 1,
            }
        }
        ExtractedCapture {
            observations,
            failures,
        }
    }
}

/// One extracted observation with its ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TruthObservation {
    /// The SA + edge set pair the detector sees.
    pub observation: LabeledEdgeSet,
    /// Ground-truth transmitting ECU.
    pub true_ecu: usize,
}

/// The result of running extraction over a whole capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedCapture {
    /// Successful extractions, in capture order.
    pub observations: Vec<TruthObservation>,
    /// Frames whose extraction failed (e.g. truncated traces).
    pub failures: usize,
}

impl ExtractedCapture {
    /// The plain labeled edge sets, for training.
    pub fn labeled(&self) -> Vec<LabeledEdgeSet> {
        self.observations
            .iter()
            .map(|o| o.observation.clone())
            .collect()
    }

    /// Splits into train/test halves by interleaving (even indices train,
    /// odd test), preserving per-ECU balance.
    ///
    /// # Errors
    ///
    /// [`VProfileError::DataUnavailable`] if the extraction holds no
    /// observations at all, and [`VProfileError::NotEnoughTrainingData`]
    /// if any source address appears fewer than twice — an interleaved
    /// split would then silently leave that SA out of the train or the
    /// test half, and every downstream per-SA metric over the missing
    /// half would be computed on nothing.
    pub fn split_train_test(
        &self,
    ) -> Result<(Vec<TruthObservation>, Vec<TruthObservation>), VProfileError> {
        if self.observations.is_empty() {
            return Err(VProfileError::DataUnavailable {
                context: "train/test split of an empty extraction",
            });
        }
        let mut per_sa: BTreeMap<u8, usize> = BTreeMap::new();
        for obs in &self.observations {
            *per_sa.entry(obs.observation.sa.raw()).or_insert(0) += 1;
        }
        if let Some((&sa, &have)) = per_sa.iter().find(|(_, &have)| have < 2) {
            return Err(VProfileError::NotEnoughTrainingData {
                cluster: format!("SA 0x{sa:02X}"),
                have,
                need: 2,
            });
        }
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, obs) in self.observations.iter().enumerate() {
            if i % 2 == 0 {
                train.push(obs.clone());
            } else {
                test.push(obs.clone());
            }
        }
        Ok((train, test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vprofile::VProfileConfig;
    use vprofile_can::SourceAddress;

    fn small_capture() -> (Vehicle, Capture) {
        let vehicle = Vehicle::vehicle_b(3);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(40).with_seed(9))
            .unwrap();
        (vehicle, capture)
    }

    #[test]
    fn capture_produces_requested_frames() {
        let (_, capture) = small_capture();
        assert_eq!(capture.len(), 40);
        assert!(!capture.is_empty());
    }

    #[test]
    fn captures_are_reproducible() {
        let vehicle = Vehicle::vehicle_b(3);
        let config = CaptureConfig::default().with_frames(10).with_seed(9);
        let a = vehicle.capture(&config).unwrap();
        let b = vehicle.capture(&config).unwrap();
        assert_eq!(a, b);
        let c = vehicle
            .capture(&CaptureConfig::default().with_frames(10).with_seed(10))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn frame_sa_matches_true_ecu_assignment() {
        let (vehicle, capture) = small_capture();
        let lut = vehicle.sa_lut();
        for cf in capture.frames() {
            let sa = cf.frame.j1939_id().source_address;
            assert_eq!(lut[&sa].0, cf.true_ecu, "frame SA maps to wrong ECU");
        }
    }

    #[test]
    fn extraction_decodes_the_true_sa() {
        let (_, capture) = small_capture();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extractor = EdgeSetExtractor::new(config);
        let extracted = capture.extract(&extractor);
        assert_eq!(extracted.failures, 0, "no extraction should fail");
        for (obs, cf) in extracted.observations.iter().zip(capture.frames()) {
            assert_eq!(
                obs.observation.sa,
                cf.frame.j1939_id().source_address,
                "extracted SA disagrees with transmitted SA"
            );
        }
    }

    #[test]
    fn traffic_covers_multiple_ecus() {
        let (_, capture) = small_capture();
        let mut seen = std::collections::BTreeSet::new();
        for cf in capture.frames() {
            seen.insert(cf.true_ecu);
        }
        assert!(seen.len() >= 3, "expected several ECUs, saw {seen:?}");
    }

    #[test]
    fn frames_are_chronological() {
        let (_, capture) = small_capture();
        for pair in capture.frames().windows(2) {
            assert!(pair[0].start_bit_time <= pair[1].start_bit_time);
        }
    }

    #[test]
    fn downsample_and_requantize_propagate_to_all_traces() {
        let (_, capture) = small_capture();
        let reduced = capture.downsample(2).unwrap().requantize(10).unwrap();
        assert_eq!(reduced.adc().sample_rate_hz.to_bits(), 5e6_f64.to_bits());
        assert_eq!(reduced.adc().resolution_bits, 10);
        for cf in reduced.frames() {
            assert_eq!(cf.trace.adc().resolution_bits, 10);
        }
        // Reduced traces remain extractable.
        let config = VProfileConfig::for_adc(reduced.adc(), reduced.bit_rate_bps());
        let extracted = reduced.extract(&EdgeSetExtractor::new(config));
        assert_eq!(extracted.failures, 0);
    }

    /// A capture long enough that every scheduled SA shows up at least
    /// twice — the 40-frame `small_capture` leaves the rarest SA with one
    /// observation, which `split_train_test` now rejects by design.
    fn splittable_capture() -> Capture {
        let vehicle = Vehicle::vehicle_b(3);
        vehicle
            .capture(&CaptureConfig::default().with_frames(160).with_seed(9))
            .unwrap()
    }

    #[test]
    fn split_train_test_balances_order() {
        let capture = splittable_capture();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config));
        let (train, test) = extracted.split_train_test().unwrap();
        assert_eq!(train.len() + test.len(), extracted.observations.len());
        assert!((train.len() as i64 - test.len() as i64).abs() <= 1);
    }

    #[test]
    fn split_train_test_rejects_underrepresented_sas() {
        let capture = splittable_capture();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config));

        // Empty extraction: typed error, not an empty split.
        let empty = ExtractedCapture {
            observations: Vec::new(),
            failures: 0,
        };
        assert!(matches!(
            empty.split_train_test(),
            Err(VProfileError::DataUnavailable { .. })
        ));

        // A single observation for one SA: previously this silently
        // produced an empty test set; now it names the starved SA.
        let lone = ExtractedCapture {
            observations: vec![extracted.observations[0].clone()],
            failures: 0,
        };
        let err = lone.split_train_test().unwrap_err();
        match err {
            VProfileError::NotEnoughTrainingData {
                cluster,
                have,
                need,
            } => {
                let sa = extracted.observations[0].observation.sa.raw();
                assert_eq!(cluster, format!("SA 0x{sa:02X}"));
                assert_eq!(have, 1);
                assert_eq!(need, 2);
            }
            other => panic!("expected NotEnoughTrainingData, got {other:?}"),
        }

        // A healthy capture still splits.
        assert!(extracted.split_train_test().is_ok());
    }

    #[test]
    fn from_frames_round_trips_metadata() {
        let (_, capture) = small_capture();
        let rebuilt = Capture::from_frames(
            capture.vehicle_name(),
            capture.bit_rate_bps(),
            *capture.adc(),
            *capture.env(),
            capture.frames().to_vec(),
        );
        assert_eq!(rebuilt, capture);
    }

    #[test]
    fn labeled_view_preserves_sas() {
        let (_, capture) = small_capture();
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config));
        let labeled = extracted.labeled();
        let sas: std::collections::BTreeSet<SourceAddress> = labeled.iter().map(|l| l.sa).collect();
        assert!(sas.len() >= 3);
    }
}

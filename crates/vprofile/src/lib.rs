//! # vProfile — voltage-based sender identification for CAN
//!
//! A from-scratch reproduction of *vProfile: Voltage-Based Anomaly Detection
//! in Controller Area Networks* (DATE 2021; extended in N. D. Liu's 2021
//! MASc thesis). vProfile verifies the origin of CAN messages from the
//! analog voltage waveform of the transmitting ECU: manufacturing variation
//! makes each transceiver's edges and levels unique and practically
//! impossible to imitate (thesis §2.2.1), so a single *edge set* — the first
//! rising and falling edge after the arbitration field — suffices to
//! identify the sender.
//!
//! The pipeline has the three stages of thesis §3.2:
//!
//! 1. **Preprocessing** — [`EdgeSetExtractor`] walks a raw sampled voltage
//!    trace bit by bit (stuff-bit aware, edge-resynchronizing), decodes the
//!    J1939 source address from bits 24–31, and extracts the edge set right
//!    after arbitration (Algorithm 1).
//! 2. **Training** — [`Trainer`] groups edge sets by SA, clusters SAs into
//!    ECUs (by database lookup or by waveform distance), and fits each
//!    cluster's mean, covariance, and max-distance threshold (Algorithm 2).
//! 3. **Detection** — [`Detector`] compares an incoming edge set against
//!    every cluster: a claimed-SA/nearest-cluster mismatch or a distance
//!    beyond `threshold + margin` raises an anomaly (Algorithm 3).
//!
//! The Chapter 5 enhancements are all here: per-cluster extraction
//! thresholds (§5.1), multi-edge-set averaging (§5.2), and the online
//! mean/covariance model update (§5.3, Algorithm 4).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use vprofile::{Detector, EdgeSetExtractor, Trainer, VProfileConfig, Verdict};
//! use vprofile_analog::{AdcConfig, Environment, FrameSynthesizer, TransceiverModel};
//! use vprofile_can::{DataFrame, ExtendedId, WireFrame};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let ecu = TransceiverModel::sample_new(&mut rng);
//! let synth = FrameSynthesizer::new(250_000, AdcConfig::vehicle_b());
//! // A small margin absorbs the sampling noise a short training session
//! // does not cover (§3.2.3).
//! let config = VProfileConfig::for_adc(synth.adc(), 250_000).with_margin(8.0);
//! let extractor = EdgeSetExtractor::new(config.clone());
//!
//! // Capture 60 legitimate frames from one ECU (SA 0x17).
//! let frame = DataFrame::new(ExtendedId::new(0x0CF0_0417)?, &[0xA5; 4])?;
//! let wire = WireFrame::encode(&frame);
//! let mut training = Vec::new();
//! for _ in 0..60 {
//!     let trace = synth.synthesize(wire.bits(), &ecu, &Environment::default(), &mut rng);
//!     training.push(extractor.extract(&trace.to_f64())?);
//! }
//!
//! let model = Trainer::new(config).train(&training)?;
//! let detector = Detector::new(&model);
//!
//! // A fresh frame from the same ECU passes.
//! let trace = synth.synthesize(wire.bits(), &ecu, &Environment::default(), &mut rng);
//! let probe = extractor.extract(&trace.to_f64())?;
//! assert!(matches!(detector.classify(&probe), Verdict::Ok { .. }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod detect;
mod edge;
mod error;
mod extract;
mod io;
mod model;
mod quarantine;
mod scratch;
mod train;
mod update;

pub use cluster::{cluster_by_distance, cluster_by_lut, group_by_sa, ClusterId, SaGroups};
pub use config::VProfileConfig;
pub use detect::{AnomalyKind, Detector, Verdict};
pub use edge::{EdgeSet, LabeledEdgeSet};
pub use error::{InvalidModel, VProfileError};
pub use extract::{cluster_extraction_threshold, EdgeSetExtractor};
pub use io::ModelIoError;
pub use model::{ClusterStats, Model};
pub use quarantine::QuarantineSet;
pub use scratch::ScratchArena;
pub use train::Trainer;
pub use update::{UpdateBatch, UpdateOutcome, UpdateScratch};

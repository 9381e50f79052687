//! Model persistence.
//!
//! The deployment split the thesis envisions — train off-line on recorded
//! captures, run detection on an embedded monitor — needs models to move
//! between processes. Models serialize to JSON: self-describing,
//! versionable, and human-inspectable when debugging a fleet.

use crate::model::StoredModel;
use crate::{Model, VProfileError};
use std::fmt;
use std::path::Path;

/// Errors from model persistence.
#[derive(Debug)]
pub enum ModelIoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The payload is not a valid serialized model.
    Format(serde_json::Error),
    /// The payload deserialized but violates model invariants.
    Invalid(VProfileError),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(err) => write!(f, "model file i/o failed: {err}"),
            ModelIoError::Format(err) => write!(f, "model payload malformed: {err}"),
            ModelIoError::Invalid(err) => write!(f, "model rejected: {err}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io(err) => Some(err),
            ModelIoError::Format(err) => Some(err),
            ModelIoError::Invalid(err) => Some(err),
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(err: std::io::Error) -> Self {
        ModelIoError::Io(err)
    }
}

impl From<serde_json::Error> for ModelIoError {
    fn from(err: serde_json::Error) -> Self {
        ModelIoError::Format(err)
    }
}

impl Model {
    /// Serializes the model's sufficient statistics to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Format`] on serialization failure (should
    /// not occur for well-formed models).
    pub fn to_json(&self) -> Result<String, ModelIoError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Restores a model from its JSON form: the stored statistics are
    /// validated and the factors, scoring rows and SA table re-derived, as
    /// training derives them.
    ///
    /// # Errors
    ///
    /// * [`ModelIoError::Format`] for malformed JSON;
    /// * [`ModelIoError::Invalid`] when the payload parses but describes an
    ///   unusable model, with the broken invariant
    ///   ([`VProfileError::InvalidModel`], or
    ///   [`VProfileError::EmptyModel`] for no clusters).
    pub fn from_json(json: &str) -> Result<Model, ModelIoError> {
        let stored: StoredModel = serde_json::from_str(json)?;
        Model::from_stored(stored).map_err(ModelIoError::Invalid)
    }

    /// Writes the model to a file as JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads and validates a model from a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem, format, and validation failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Model, ModelIoError> {
        let json = std::fs::read_to_string(path)?;
        Model::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterId, EdgeSet, InvalidModel, LabeledEdgeSet, Trainer, VProfileConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vprofile_can::SourceAddress;

    fn model() -> Model {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Vec::new();
        for (sa, center) in [(1u8, 100.0), (2u8, 500.0)] {
            for _ in 0..12 {
                let samples: Vec<f64> = (0..4)
                    .map(|i| center + i as f64 * 3.0 + rng.random_range(-1.0..1.0))
                    .collect();
                data.push(LabeledEdgeSet::new(
                    SourceAddress(sa),
                    EdgeSet::new(samples),
                ));
            }
        }
        let mut config = VProfileConfig::for_adc(&vprofile_analog::AdcConfig::vehicle_b(), 250_000);
        config.prefix_len = 1;
        config.suffix_len = 1;
        Trainer::new(config).train(&data).unwrap()
    }

    #[test]
    fn json_round_trip_is_exact() {
        let model = model();
        let restored = Model::from_json(&model.to_json().unwrap()).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn malformed_json_is_a_format_error() {
        let err = Model::from_json("{not json").unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)));
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn duplicate_sa_is_rejected_and_a_stored_lut_ignored() {
        let model = model();
        let mut value: serde_json::Value = serde_json::from_str(&model.to_json().unwrap()).unwrap();
        // A stale SA table from an older file has no say.
        value["sa_lut"]["1"] = serde_json::json!(99);
        assert_eq!(Model::from_json(&value.to_string()).unwrap(), model);
        value["clusters"][1]["sas"][0] = serde_json::json!(1);
        let err = Model::from_json(&value.to_string()).unwrap_err();
        assert!(matches!(
            err,
            ModelIoError::Invalid(VProfileError::InvalidModel(InvalidModel::DuplicateSa {
                sa: SourceAddress(1),
                first: ClusterId(0),
                second: ClusterId(1),
            }))
        ));
    }

    #[test]
    fn tampered_max_distance_is_rejected() {
        let model = model();
        let mut value: serde_json::Value = serde_json::from_str(&model.to_json().unwrap()).unwrap();
        value["clusters"][0]["max_distance"] = serde_json::json!(-1.0);
        let err = Model::from_json(&value.to_string()).unwrap_err();
        assert!(matches!(
            err,
            ModelIoError::Invalid(VProfileError::InvalidModel(
                InvalidModel::NegativeThreshold { .. }
            ))
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let model = model();
        let dir = std::env::temp_dir().join("vprofile-model-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        assert_eq!(Model::load(&path).unwrap(), model);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Model::load("/definitely/not/here.json").unwrap_err();
        assert!(matches!(err, ModelIoError::Io(_)));
        use std::error::Error;
        assert!(err.source().is_some());
    }
}

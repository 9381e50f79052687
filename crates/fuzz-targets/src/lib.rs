//! Fuzz targets for the code that faces raw, untrusted data: the stream
//! framer ([`vprofile_ids::StreamFramer`]), the Algorithm 1 edge-set
//! extractor ([`vprofile::EdgeSetExtractor`]), the pipeline's feed path
//! ([`vprofile_ids::IdsPipeline::feed`]), whose splitter runs on the
//! caller's thread, and model loading ([`Model::from_json`]).
//!
//! The sample targets take an arbitrary byte slice, decode it into a
//! sample stream (plus framer parameters), and check structural invariants
//! that must hold for *any* input — crashing on violation, which is what a
//! fuzz engine looks for:
//!
//! * **no panics** on any input, including NaN/±∞ samples, negative
//!   thresholds, and truncated frames;
//! * **exact sample accounting** — [`StreamFramer::samples_consumed`]
//!   equals the number of samples pushed, for every chunking;
//! * **chunking invariance** — pushing the stream in arbitrary chunk sizes
//!   emits bit-identical windows at identical stream positions as one
//!   whole-stream push, and both equal the per-sample reference framer
//!   ([`vprofile_ids::scan::ReferenceFramer`]);
//! * **entry-point agreement** — [`EdgeSetExtractor::extract`] and
//!   [`EdgeSetExtractor::extract_into`] agree on success/failure, the
//!   decoded SA, and every extracted bit, and a scratch-reusing second
//!   call reproduces the first;
//! * **pipeline agreement** — feeding the stream in arbitrary chunks
//!   through [`IdsPipeline`] at 1 and 2 workers yields one event per
//!   reference-framer window and the same event stream, byte for byte, as
//!   the synchronous [`IdsEngine`];
//! * **fail-closed scoring** — no accepted frame ([`Verdict::Ok`]) carries
//!   a NaN or infinite distance: a non-finite edge set is unscorable.
//!
//! The model target ([`model_json_target`]) reads its bytes as a model
//! file: each one is rejected at load, or loads into a model that scores
//! fail-closed and survives a JSON round trip bit for bit.
//!
//! The same functions back the in-workspace `fuzz_smoke` binary
//! (deterministic corpus + seeded mutations, run in CI) and plain unit
//! tests replaying the committed corpus.
//!
//! # Input encoding
//!
//! Samples are little-endian `u16` pairs mapped to ADC-code `f64`s, with
//! the top codes reserved for the non-finite specials a corrupted DMA
//! stream can contain ([`SPECIAL_NAN`], [`SPECIAL_POS_INF`],
//! [`SPECIAL_NEG_INF`], [`SPECIAL_HUGE`]). The framer target additionally
//! reads a 4-byte header (bit width, threshold, chunk size) so the fuzzer
//! can explore parameter space; see [`FramerInput::decode`]. The feed
//! target reads the same header but uses only its chunk size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::sync::OnceLock;
use vprofile::{
    ClusterId, Detector, EdgeSet, EdgeSetExtractor, LabeledEdgeSet, Model, ScratchArena, Trainer,
    VProfileConfig, Verdict,
};
use vprofile_analog::AdcConfig;
use vprofile_can::SourceAddress;
use vprofile_ids::scan::ReferenceFramer;
use vprofile_ids::{
    HealthConfig, IdsEngine, IdsEvent, IdsPipeline, PipelineConfig, StreamFramer, UpdatePolicy,
};
use vprofile_vehicle::{CaptureConfig, Vehicle};

/// `u16` code decoding to NaN (a corrupted DMA word).
pub const SPECIAL_NAN: u16 = 0xFFFF;
/// `u16` code decoding to `+∞`.
pub const SPECIAL_POS_INF: u16 = 0xFFFE;
/// `u16` code decoding to `−∞`.
pub const SPECIAL_NEG_INF: u16 = 0xFFFD;
/// `u16` code decoding to a huge-but-finite value (overflow bait).
pub const SPECIAL_HUGE: u16 = 0xFFFC;
/// The huge-but-finite value [`SPECIAL_HUGE`] decodes to.
pub const HUGE_SAMPLE: f64 = 1.0e300;

/// Decodes fuzz bytes into a sample stream: little-endian `u16` pairs,
/// with the top four codes mapped to non-finite/huge specials. A trailing
/// odd byte is ignored.
pub fn decode_samples(data: &[u8]) -> Vec<f64> {
    data.chunks_exact(2)
        .map(|pair| match u16::from_le_bytes([pair[0], pair[1]]) {
            SPECIAL_NAN => f64::NAN,
            SPECIAL_POS_INF => f64::INFINITY,
            SPECIAL_NEG_INF => f64::NEG_INFINITY,
            SPECIAL_HUGE => HUGE_SAMPLE,
            code => f64::from(code),
        })
        .collect()
}

/// Encodes a sample stream back into the fuzz byte format — the inverse
/// of [`decode_samples`] for in-range codes, used to build seed corpora
/// from synthesized captures. Finite codes are clamped to the encodable
/// range and rounded.
pub fn encode_samples(samples: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 2);
    for &v in samples {
        let code = if v.is_nan() {
            SPECIAL_NAN
        } else if v.is_infinite() {
            if v > 0.0 {
                SPECIAL_POS_INF
            } else {
                SPECIAL_NEG_INF
            }
        } else if v >= f64::from(SPECIAL_HUGE) {
            SPECIAL_HUGE
        } else if v <= 0.0 {
            0
        } else {
            // In-range code (clamped above): round to the nearest u16.
            (v + 0.5) as u16
        };
        out.extend_from_slice(&code.to_le_bytes());
    }
    out
}

/// Decoded framer-target input: the framer's constructor parameters, the
/// chunk size for the chunked replay, and the sample stream.
#[derive(Debug, Clone)]
pub struct FramerInput {
    /// Samples per bit, in `[2.0, 17.75]` (the framer requires ≥ 2).
    pub bit_width: f64,
    /// Dominant/recessive threshold, in `[-1024, 64511]` — negative
    /// thresholds make every finite sample dominant.
    pub threshold: f64,
    /// Chunk size for the chunked replay, ≥ 1.
    pub chunk: usize,
    /// The decoded sample stream.
    pub samples: Vec<f64>,
}

impl FramerInput {
    /// Decodes a fuzz input: a 4-byte header (bit-width code, `u16`
    /// threshold code, chunk code) followed by sample bytes. Inputs
    /// shorter than the header run with default parameters so tiny seeds
    /// still exercise the framer.
    pub fn decode(data: &[u8]) -> FramerInput {
        // Defaults mirror the framer's own unit fixtures: 4 samples/bit,
        // threshold 1500.
        let mut header = [8u8, 0xDC, 0x09, 7];
        let body = if data.len() >= 4 {
            header.copy_from_slice(&data[..4]);
            &data[4..]
        } else {
            data
        };
        FramerInput {
            bit_width: 2.0 + f64::from(header[0] % 64) * 0.25,
            threshold: f64::from(u16::from_le_bytes([header[1], header[2]])) - 1024.0,
            chunk: 1 + usize::from(header[3]) * 13,
            samples: decode_samples(body),
        }
    }

    /// Encodes header + samples into the fuzz byte format (corpus
    /// construction). `bit_width` and `threshold` are quantized to the
    /// nearest encodable values.
    pub fn encode(&self) -> Vec<u8> {
        let bw_code = (((self.bit_width - 2.0) / 0.25).clamp(0.0, 63.0) + 0.5) as u8;
        let threshold_code = ((self.threshold + 1024.0).clamp(0.0, 65535.0) + 0.5) as u16;
        let chunk_code = ((self.chunk.saturating_sub(1)) / 13).min(255) as u8;
        let mut out = vec![bw_code, 0, 0, chunk_code];
        out[1..3].copy_from_slice(&threshold_code.to_le_bytes());
        out.extend(encode_samples(&self.samples));
        out
    }
}

/// Bit-exact slice equality (NaN-safe: compares IEEE-754 bit patterns, so
/// NaN == NaN and -0.0 != 0.0).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fuzz target for [`StreamFramer`]: frames the decoded stream with the
/// per-sample [`ReferenceFramer`], then as one whole push and in
/// fuzzer-chosen chunks, asserting no panic, exact sample accounting on
/// every replay, and bit-identical windows at identical stream positions.
pub fn framer_target(data: &[u8]) {
    let input = FramerInput::decode(data);
    let total = input.samples.len() as u64;

    let mut reference = ReferenceFramer::new(input.bit_width, input.threshold);
    let mut expected = reference.push(&input.samples);
    assert_eq!(
        reference.samples_consumed(),
        total,
        "the reference must account for every sample exactly once"
    );
    expected.extend(reference.flush());

    let mut whole = StreamFramer::new(input.bit_width, input.threshold);
    let mut got = whole.push(&input.samples);
    assert_eq!(
        whole.samples_consumed(),
        total,
        "whole push must account for every sample exactly once"
    );
    got.extend(whole.flush());
    assert_same_windows(&expected, &got, "whole push");

    let mut chunked = StreamFramer::new(input.bit_width, input.threshold);
    let mut got = Vec::new();
    for chunk in input.samples.chunks(input.chunk.max(1)) {
        got.append(&mut chunked.push(chunk));
    }
    assert_eq!(
        chunked.samples_consumed(),
        total,
        "chunked push must account for every sample exactly once"
    );
    got.extend(chunked.flush());
    assert_same_windows(&expected, &got, &format!("chunk {}", input.chunk));
}

/// Asserts that `got` holds `expected`'s windows, bit for bit and at the
/// same stream positions.
fn assert_same_windows(expected: &[(u64, Vec<f64>)], got: &[(u64, Vec<f64>)], replay: &str) {
    assert_eq!(
        expected.len(),
        got.len(),
        "{replay}: framing must emit the reference's number of windows"
    );
    for (i, ((pos_a, win_a), (pos_b, win_b))) in expected.iter().zip(got).enumerate() {
        assert_eq!(
            pos_a, pos_b,
            "{replay}, window {i}: stream position differs"
        );
        assert!(
            bits_eq(win_a, win_b),
            "{replay}, window {i}: samples differ bitwise"
        );
    }
}

/// Seed of the vehicle and capture the committed corpus is synthesized
/// from; the feed target's engine is trained on the same vehicle.
pub const CORPUS_SEED: u64 = 7;

/// Frames in the feed target's training capture.
const FEED_TRAINING_FRAMES: usize = 640;

/// The feed target's engine: vProfile trained once on a clean capture of
/// the corpus vehicle, with online updates off so every run starts from
/// the same model.
fn feed_engine() -> &'static Result<IdsEngine, String> {
    static ENGINE: OnceLock<Result<IdsEngine, String>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let vehicle = Vehicle::vehicle_a(CORPUS_SEED);
        let capture = vehicle
            .capture(
                &CaptureConfig::default()
                    .with_frames(FEED_TRAINING_FRAMES)
                    .with_seed(CORPUS_SEED),
            )
            .map_err(|e| format!("training capture: {e}"))?;
        let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps());
        let extracted = capture.extract(&EdgeSetExtractor::new(config.clone()));
        let model = Trainer::new(config)
            .train_with_lut(&extracted.labeled(), &vehicle.sa_lut())
            .map_err(|e| format!("training: {e}"))?;
        Ok(IdsEngine::new(model, 2.0, UpdatePolicy::disabled()))
    })
}

/// Serialized events with the shard attribution of placeholders set to 0:
/// which shard owned a lost window is topology, not detection output.
fn normalized_json(mut events: Vec<IdsEvent>) -> String {
    for event in &mut events {
        if let IdsEvent::Degraded { shard, .. } | IdsEvent::Dropped { shard, .. } = event {
            *shard = 0;
        }
    }
    let json = serde_json::to_string(&events);
    assert!(json.is_ok(), "events must serialize");
    json.unwrap_or_default()
}

/// Fuzz target for [`IdsPipeline::feed`]: feeds the decoded stream in
/// fuzzer-chosen chunks through pipelines at 1 and 2 workers (breaker
/// disabled, so every window is scored) and asserts no panic, one event per
/// window of a reference [`StreamFramer`], and an event stream
/// byte-identical to [`IdsEngine::process_samples`] plus
/// [`IdsEngine::finish`].
pub fn feed_target(data: &[u8]) {
    let input = FramerInput::decode(data);
    let engine = feed_engine();
    assert!(
        engine.is_ok(),
        "feed target engine: {:?}",
        engine.as_ref().err()
    );
    let Ok(engine) = engine else {
        return;
    };
    let geometry = engine.config();
    let mut framer = StreamFramer::new(geometry.bit_width_samples, geometry.bit_threshold);
    let windows = framer.push(&input.samples).len() + usize::from(framer.flush().is_some());

    let mut reference = engine.clone();
    let mut expected = reference.process_samples(&input.samples);
    expected.extend(reference.finish());
    for event in &expected {
        if let Some(Verdict::Ok { distance, .. }) = event.verdict() {
            assert!(
                distance.is_finite(),
                "frame at {} accepted with distance {distance}",
                event.stream_pos()
            );
        }
    }
    let expected = normalized_json(expected);

    for workers in [1, 2] {
        let config = PipelineConfig::default()
            .with_workers(workers)
            .with_health(HealthConfig {
                trip_ratio: 2.0,
                ..HealthConfig::default()
            });
        let mut pipeline = IdsPipeline::spawn_sharded(engine.clone(), config);
        for chunk in input.samples.chunks(input.chunk.max(1)) {
            let fed = pipeline.feed(chunk.to_vec());
            assert!(fed.is_ok(), "feed at {workers} workers: {fed:?}");
        }
        pipeline.close_input();
        let events: Vec<IdsEvent> = pipeline.events().into_iter().collect();
        let closed = pipeline.close();
        assert!(
            closed.is_ok(),
            "close at {workers} workers: {:?}",
            closed.as_ref().err()
        );
        let frames = closed.map_or(0, |(_, stats)| stats.frames);
        assert_eq!(
            frames, windows as u64,
            "{workers} workers: one frame per reference window (chunk {})",
            input.chunk
        );
        assert!(
            normalized_json(events) == expected,
            "{workers} workers: event stream differs from process_samples + finish (chunk {})",
            input.chunk
        );
    }
}

/// `input` with one sample of an edge set set to NaN: the first frame, in
/// the feed target's framing, whose claimed SA maps to cluster 0 of the
/// feed target's model, at the first sample whose overwrite leaves the
/// extraction in place. Scored, such a frame gets a NaN distance that
/// passes every threshold as [`Verdict::Ok`], so it must fail closed
/// instead. `None` when the stream has no such frame.
pub fn nan_in_edge_set(input: &FramerInput) -> Option<FramerInput> {
    let engine = feed_engine().as_ref().ok()?;
    let model = engine.model()?;
    let config = engine.config();
    let extractor = EdgeSetExtractor::new(config.clone());
    let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    let mut windows = framer.push(&input.samples);
    windows.extend(framer.flush());
    for (pos, window) in windows {
        let Ok(clean) = extractor.extract(&window) else {
            continue;
        };
        if model.lookup_sa(clean.sa) != Some(ClusterId(0)) {
            continue;
        }
        let mut probe = window.clone();
        for (i, &sample) in window.iter().enumerate() {
            probe[i] = f64::NAN;
            let kept = extractor.extract(&probe).is_ok_and(|obs| {
                obs.sa == clean.sa && obs.edge_set.samples().iter().any(|v| v.is_nan())
            });
            if kept {
                let mut out = input.clone();
                out.samples[usize::try_from(pos).ok()? + i] = f64::NAN;
                return Some(out);
            }
            probe[i] = sample;
        }
    }
    None
}

/// `count` unparseable windows in a row, in the feed target's geometry:
/// 20-sample dominant blips, each closed by an idle gap of twice the
/// framer's end-of-frame run. Every blip frames as a window whose
/// extraction fails, so a breaker that trips on a run of failures would
/// turn the pipeline's events into `Degraded` ones the engine never emits.
/// `None` when the feed target's engine is unavailable.
pub fn unparseable_blips(count: usize) -> Option<FramerInput> {
    let config = feed_engine().as_ref().ok()?.config();
    let idle = vec![0.0; (16.0 * config.bit_width_samples) as usize];
    let blip = [2.0 * config.bit_threshold; 20];
    let mut samples = idle.clone();
    for _ in 0..count {
        samples.extend_from_slice(&blip);
        samples.extend_from_slice(&idle);
    }
    Some(FramerInput {
        bit_width: config.bit_width_samples,
        threshold: config.bit_threshold,
        chunk: 131,
        samples,
    })
}

/// The fixed extractor configuration the extractor target runs under: the
/// deployment ADC at the workspace's standard 500 kbit/s.
pub fn extractor() -> EdgeSetExtractor {
    EdgeSetExtractor::new(VProfileConfig::for_adc(&AdcConfig::deployment(), 500_000))
}

/// Fuzz target for [`EdgeSetExtractor`]: decodes the bytes into a frame
/// window and asserts no panic, agreement between the owned and the
/// scratch-based entry points (success/failure, SA, every sample bit),
/// and that a scratch-reusing second call is bit-identical.
pub fn extractor_target(data: &[u8]) {
    let samples = decode_samples(data);
    let extractor = extractor();
    let owned = extractor.extract(&samples);
    let mut scratch = ScratchArena::new();
    let streamed = extractor.extract_into(&samples, &mut scratch);
    match (&owned, &streamed) {
        (Ok(labeled), Ok(sa)) => {
            assert_eq!(labeled.sa, *sa, "entry points must decode the same SA");
            assert!(
                bits_eq(labeled.edge_set.samples(), &scratch.edge_set),
                "entry points must extract bit-identical edge sets"
            );
            let first = scratch.edge_set.clone();
            let again = extractor.extract_into(&samples, &mut scratch);
            assert!(
                matches!(again, Ok(s) if s == *sa),
                "a warm re-extraction must succeed with the same SA"
            );
            assert!(
                bits_eq(&first, &scratch.edge_set),
                "a warm re-extraction must be bit-identical"
            );
        }
        (Err(a), Err(b)) => {
            assert!(
                std::mem::discriminant(a) == std::mem::discriminant(b),
                "entry points must fail the same way: {a} vs {b}"
            );
        }
        _ => {
            assert!(
                owned.is_ok() == streamed.is_ok(),
                "extract ({}) and extract_into ({}) must agree on success",
                owned.is_ok(),
                streamed.is_ok()
            );
        }
    }
}

/// Fuzz target for [`Model::from_json`]: the bytes are read as a model
/// file. An input that loads must score a fixed probe set under every
/// cluster's first SA — each cluster's mean, and that SA's cluster mean
/// with its first sample, or all of them, set to NaN, ±∞ or
/// [`HUGE_SAMPLE`] — with no panic and no [`Verdict::Ok`] carrying a
/// non-finite distance, and `from_json(to_json(m))` must equal `m` bit for
/// bit, its derived factors and scoring rows included.
pub fn model_json_target(data: &[u8]) {
    let Ok(text) = std::str::from_utf8(data) else {
        return;
    };
    let Ok(model) = Model::from_json(text) else {
        return;
    };
    let detector = Detector::new(&model);
    for claimed in model.clusters() {
        let Some(&sa) = claimed.sas().first() else {
            continue;
        };
        let mut probes: Vec<Vec<f64>> =
            model.clusters().iter().map(|c| c.mean().to_vec()).collect();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, HUGE_SAMPLE] {
            let mut one = claimed.mean().to_vec();
            if let Some(first) = one.first_mut() {
                *first = special;
            }
            probes.push(one);
            probes.push(vec![special; model.dim()]);
        }
        for x in &probes {
            if let Verdict::Ok { distance, .. } = detector.classify_parts(sa, x) {
                assert!(
                    distance.is_finite(),
                    "SA {sa:?} accepted {x:?} with distance {distance}"
                );
            }
        }
    }
    let back = model.to_json().map(|json| Model::from_json(&json));
    assert!(
        matches!(&back, Ok(Ok(_))),
        "a loaded model must serialize and reload: {back:?}"
    );
    // Debug renders every f64 in shortest round-trip form: equal strings
    // are equal bits, -0.0 included.
    if let Ok(Ok(back)) = back {
        assert!(
            format!("{back:?}") == format!("{model:?}"),
            "from_json(to_json(m)) must equal m bit for bit"
        );
    }
}

/// The model the `model_json` seeds are edited from: SAs 1 and 2, twelve
/// 4-sample edge sets each around 100 and 500, trained Mahalanobis.
///
/// # Errors
///
/// Training failure, rendered.
pub fn seed_model() -> Result<Model, String> {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let mut data = Vec::new();
    for (sa, center) in [(1u8, 100.0), (2u8, 500.0)] {
        for _ in 0..12 {
            let samples: Vec<f64> = (0..4u8)
                .map(|i| center + f64::from(i) * 3.0 + rng.random_range(-1.0..1.0))
                .collect();
            data.push(LabeledEdgeSet::new(
                SourceAddress(sa),
                EdgeSet::new(samples),
            ));
        }
    }
    let mut config = VProfileConfig::for_adc(&AdcConfig::vehicle_b(), 250_000);
    config.prefix_len = 1;
    config.suffix_len = 1;
    Trainer::new(config)
        .train(&data)
        .map_err(|e| format!("seed model: {e}"))
}

/// A number no seed model holds: edits write it, and the rendered JSON
/// swaps it for `1e999`, which parses as `+∞` (JSON has no literal for it).
const INFINITY_MARKER: f64 = 0.987_654_321;

/// Sets the value at `path`, object keys and array indices joined by `/`.
fn set(json: &mut Value, path: &str, to: Value) {
    let mut at = json;
    for key in path.split('/') {
        at = match key.parse::<usize>() {
            Ok(index) => &mut at[index],
            Err(_) => &mut at[key],
        };
    }
    *at = to;
}

/// The `model_json` seed corpus as `(file name, JSON)`: the clean
/// [`seed_model`] and one edit per invariant [`Model::from_json`] checks.
///
/// # Errors
///
/// Training or serialization failure, rendered.
pub fn model_json_seeds() -> Result<Vec<(String, String)>, String> {
    let clean = seed_model()?.to_json().map_err(|e| e.to_string())?;
    let base: Value = serde_json::from_str(&clean).map_err(|e| e.to_string())?;
    let inf = || Value::from(INFINITY_MARKER);
    let array = |v: f64, n: usize| Value::Array(vec![Value::from(v); n]);
    // A 1e-300 covariance inverts to 1e150, which times a 1e200 mean
    // overflows the scoring offsets.
    let tiny = (0..16).map(|i| Value::from(if i % 5 == 0 { 1e-300 } else { 0.0 }));
    let c0 = "clusters/0/gaussian/covariance";
    // A valid model whose 1e-18 variances invert to 1e9: a huge edge set
    // overflows its residuals to ±∞ of both signs, and a distance to NaN.
    let Value::Array(covariance) = &base["clusters"][0]["gaussian"]["covariance"]["data"] else {
        return Err("the seed model has no covariance".into());
    };
    let scaled = covariance.iter().filter_map(Value::as_f64);
    let tiny_variances = Value::Array(scaled.map(|v| Value::from(v * 1e-18)).collect());
    // One edit per file; consecutive edits of one file stack.
    let edits = [
        ("nonfinite_mean", "clusters/0/mean/1".to_string(), inf()),
        ("nonfinite_covariance", format!("{c0}/data/5"), inf()),
        (
            "nonfinite_threshold",
            "clusters/1/max_distance".into(),
            inf(),
        ),
        (
            "nonfinite_extraction_threshold",
            "clusters/0/extraction_threshold".into(),
            inf(),
        ),
        (
            "negative_threshold",
            "clusters/0/max_distance".into(),
            Value::from(-1.0),
        ),
        (
            "mixed_dimensions",
            "clusters/1/mean".into(),
            array(500.0, 3),
        ),
        ("covariance_shape", format!("{c0}/rows"), Value::from(3)),
        (
            "missing_covariance",
            "clusters/1/gaussian".into(),
            Value::Null,
        ),
        (
            "asymmetric_covariance",
            format!("{c0}/data/1"),
            Value::from(0.5),
        ),
        (
            "indefinite_covariance",
            format!("{c0}/data/0"),
            Value::from(-1.0),
        ),
        (
            "nonfinite_rows",
            format!("{c0}/data"),
            Value::Array(tiny.collect()),
        ),
        ("nonfinite_rows", "clusters/0/mean".into(), array(1e200, 4)),
        ("tiny_variances", format!("{c0}/data"), tiny_variances),
        ("duplicate_sa", "clusters/1/sas/0".into(), Value::from(1)),
        ("empty_model", "clusters".into(), Value::Array(Vec::new())),
        (
            "config_nonfinite_float",
            "config/bit_threshold".into(),
            inf(),
        ),
        (
            "config_bit_width",
            "config/bit_width_samples".into(),
            Value::from(0.0),
        ),
        (
            "config_negative_margin",
            "config/margin".into(),
            Value::from(-1e9),
        ),
        (
            "config_negative_ridge",
            "config/max_ridge".into(),
            Value::from(-1.0),
        ),
        (
            "config_edge_sets",
            "config/edge_sets_per_message".into(),
            Value::from(0),
        ),
    ];
    let mut seeds = vec![("clean_model.json".to_string(), clean)];
    for file in edits.chunk_by(|a, b| a.0 == b.0) {
        let mut model = base.clone();
        for (_, path, to) in file {
            set(&mut model, path, to.clone());
        }
        let json = model.to_string();
        seeds.push((
            format!("{}.json", file[0].0),
            json.replace(&INFINITY_MARKER.to_string(), "1e999"),
        ));
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Replays every committed corpus file through its target — the same
    /// seeds CI's fuzz smoke starts from must pass as plain unit tests.
    #[test]
    fn committed_corpus_replays_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
        let mut replayed = 0usize;
        for (dir, target) in [
            ("framer", framer_target as fn(&[u8])),
            ("extractor", extractor_target as fn(&[u8])),
            ("feed", feed_target as fn(&[u8])),
            ("model_json", model_json_target as fn(&[u8])),
        ] {
            let mut entries: Vec<_> = std::fs::read_dir(root.join(dir))
                .expect("corpus dir (regenerate with fuzz_smoke --regen-corpus)")
                .map(|e| e.expect("corpus entry").path())
                .collect();
            entries.sort();
            assert!(!entries.is_empty(), "empty {dir} corpus");
            for path in entries {
                target(&std::fs::read(&path).expect("corpus file"));
                replayed += 1;
            }
        }
        assert!(
            replayed >= 37,
            "expected a seeded corpus, got {replayed} files"
        );
    }

    /// Each invariant seed of the committed model corpus is rejected at
    /// load with the typed error of the invariant it breaks; the clean
    /// model and the files in the format that stored the factor load.
    #[test]
    fn model_seeds_are_rejected_with_their_typed_error() {
        let expected = [
            ("nonfinite_mean", r#"NonFinite { cluster: ClusterId(0), field: "mean" }"#),
            (
                "nonfinite_covariance",
                r#"NonFinite { cluster: ClusterId(0), field: "covariance" }"#,
            ),
            (
                "nonfinite_threshold",
                r#"NonFinite { cluster: ClusterId(1), field: "max_distance" }"#,
            ),
            (
                "nonfinite_extraction_threshold",
                r#"NonFinite { cluster: ClusterId(0), field: "extraction_threshold" }"#,
            ),
            (
                "negative_threshold",
                "NegativeThreshold { cluster: ClusterId(0), threshold: -1.0 }",
            ),
            (
                "mixed_dimensions",
                r#"MixedDimensions { cluster: ClusterId(1), field: "mean", expected: 4, actual: 3 }"#,
            ),
            (
                "covariance_shape",
                r#"MixedDimensions { cluster: ClusterId(0), field: "covariance", expected: 4, actual: 3 }"#,
            ),
            ("missing_covariance", "MissingCovariance { cluster: ClusterId(1) }"),
            ("asymmetric_covariance", "AsymmetricCovariance { cluster: ClusterId(0) }"),
            (
                "indefinite_covariance",
                "Unfactorable { cluster: ClusterId(0), source: NotPositiveDefinite { pivot: 0, diagonal: -1.0 } }",
            ),
            (
                "nonfinite_rows",
                "NonFiniteRows { cluster: ClusterId(0) }",
            ),
            (
                "duplicate_sa",
                "DuplicateSa { sa: SourceAddress(1), first: ClusterId(0), second: ClusterId(1) }",
            ),
            ("config_nonfinite_float", r#"Config { field: "bit_threshold" }"#),
            ("config_bit_width", r#"Config { field: "bit_width_samples" }"#),
            ("config_negative_margin", r#"Config { field: "margin" }"#),
            ("config_negative_ridge", r#"Config { field: "max_ridge" }"#),
            ("config_edge_sets", r#"Config { field: "edge_sets_per_message" }"#),
        ];
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/model_json");
        let load = |name: &str| {
            let json = std::fs::read_to_string(dir.join(format!("{name}.json")));
            Model::from_json(&json.expect("model corpus file"))
        };
        for (name, defect) in expected {
            let err = load(name).expect_err(name);
            assert_eq!(
                format!("{err:?}"),
                format!("Invalid(InvalidModel({defect}))")
            );
        }
        assert_eq!(
            format!("{:?}", load("empty_model").expect_err("empty")),
            "Invalid(EmptyModel)"
        );
        for name in [
            "clean_model",
            "tiny_variances",
            "old_chol_zero_pivot",
            "old_chol_truncated",
            "old_gaussian_mean_1e308",
        ] {
            assert!(load(name).is_ok(), "{name} must load");
        }
    }

    #[test]
    fn sample_codec_round_trips_specials() {
        let samples = [
            0.0,
            1.0,
            4095.0,
            HUGE_SAMPLE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let decoded = decode_samples(&encode_samples(&samples));
        assert_eq!(decoded.len(), samples.len());
        for (a, b) in samples.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} did not round-trip");
        }
    }

    #[test]
    fn framer_header_round_trips() {
        let input = FramerInput {
            bit_width: 4.0,
            threshold: 1500.0,
            chunk: 92,
            samples: vec![0.0, 3000.0, f64::NAN],
        };
        let decoded = FramerInput::decode(&input.encode());
        assert_eq!(decoded.bit_width.to_bits(), input.bit_width.to_bits());
        assert_eq!(decoded.threshold.to_bits(), input.threshold.to_bits());
        assert_eq!(decoded.chunk, input.chunk);
        assert!(bits_eq(&decoded.samples, &input.samples));
    }

    /// The targets hold on handcrafted adversarial inputs even without the
    /// corpus: empty, header-only, pure specials, and a real capture frame.
    #[test]
    fn targets_survive_adversarial_inputs() {
        framer_target(&[]);
        extractor_target(&[]);
        feed_target(&[]);
        model_json_target(&[]);
        model_json_target(b"{\"clusters\":[],\"config\":null}");
        model_json_target(&[0xFF, 0xFE]);
        framer_target(&[0, 0, 0, 0]);
        let specials: Vec<u8> = [SPECIAL_NAN, SPECIAL_POS_INF, SPECIAL_NEG_INF, SPECIAL_HUGE]
            .iter()
            .cycle()
            .take(64)
            .flat_map(|c| c.to_le_bytes())
            .collect();
        framer_target(&specials);
        extractor_target(&specials);
        feed_target(&specials);

        let vehicle = Vehicle::vehicle_a(5);
        let capture = vehicle
            .capture(&CaptureConfig::default().with_frames(3).with_seed(5))
            .expect("capture");
        let window = capture.frames()[0].trace.to_f64();
        extractor_target(&encode_samples(&window));
        // Truncations of a real frame walk the TraceTooShort paths.
        let encoded = encode_samples(&window);
        for cut in [1usize, 7, 33, encoded.len() / 2] {
            extractor_target(&encoded[..cut.min(encoded.len())]);
        }
    }
}

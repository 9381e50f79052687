//! Fuzz targets for the code that faces raw, untrusted sample data: the
//! stream framer ([`vprofile_ids::StreamFramer`]), the Algorithm 1 edge-set
//! extractor ([`vprofile::EdgeSetExtractor`]), and the pipeline's feed path
//! ([`vprofile_ids::IdsPipeline::feed`]), whose splitter runs on the
//! caller's thread.
//!
//! Each target takes an arbitrary byte slice, decodes it into a sample
//! stream (plus framer parameters), and checks structural invariants that
//! must hold for *any* input — crashing on violation, which is what a fuzz
//! engine looks for:
//!
//! * **no panics** on any input, including NaN/±∞ samples, negative
//!   thresholds, and truncated frames;
//! * **exact sample accounting** — [`StreamFramer::samples_consumed`]
//!   equals the number of samples pushed, for every chunking;
//! * **chunking invariance** — pushing the stream in arbitrary chunk sizes
//!   emits bit-identical windows at identical stream positions as one
//!   whole-stream push;
//! * **entry-point agreement** — [`EdgeSetExtractor::extract`] and
//!   [`EdgeSetExtractor::extract_into`] agree on success/failure, the
//!   decoded SA, and every extracted bit, and a scratch-reusing second
//!   call reproduces the first;
//! * **pipeline agreement** — feeding the stream in arbitrary chunks
//!   through [`IdsPipeline`] at 1 and 2 workers yields one event per
//!   reference-framer window and the same event stream, byte for byte, as
//!   the synchronous [`IdsEngine`].
//!
//! The same functions back the in-workspace `fuzz_smoke` binary
//! (deterministic corpus + seeded mutations, run in CI), plain unit tests
//! replaying the committed corpus, and — framer and extractor only — the
//! `cargo fuzz` targets under the repository's `fuzz/` directory.
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

use std::sync::OnceLock;
use vprofile::{EdgeSetExtractor, ScratchArena, Trainer, VProfileConfig};
use vprofile_analog::AdcConfig;
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

/// Fuzz target for [`StreamFramer`]: frames the decoded stream once as a
/// whole push and once in fuzzer-chosen chunks, asserting no panic, exact
/// sample accounting on both replays, and bit-identical windows at
/// identical stream positions.
pub fn framer_target(data: &[u8]) {
    let input = FramerInput::decode(data);
    let total = input.samples.len() as u64;

    let mut whole = StreamFramer::new(input.bit_width, input.threshold);
    let mut expected = whole.push(&input.samples);
    assert_eq!(
        whole.samples_consumed(),
        total,
        "whole push must account for every sample exactly once"
    );
    if let Some(tail) = whole.flush() {
        expected.push(tail);
    }

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
    if let Some(tail) = chunked.flush() {
        got.push(tail);
    }

    assert_eq!(
        expected.len(),
        got.len(),
        "chunked framing must emit the same number of windows (chunk {})",
        input.chunk
    );
    for (i, ((pos_a, win_a), (pos_b, win_b))) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            pos_a, pos_b,
            "window {i}: stream position differs (chunk {})",
            input.chunk
        );
        assert!(
            bits_eq(win_a, win_b),
            "window {i}: samples differ bitwise (chunk {})",
            input.chunk
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
            replayed >= 10,
            "expected a seeded corpus, got {replayed} files"
        );
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
        assert_eq!(decoded.bit_width, input.bit_width);
        assert_eq!(decoded.threshold, input.threshold);
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

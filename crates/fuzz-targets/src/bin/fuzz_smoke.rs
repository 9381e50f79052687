//! `fuzz_smoke` — deterministic fuzzing without `cargo-fuzz`: replays the
//! committed seed corpus through every fuzz target, then runs a seeded
//! mutation loop over it. Any invariant violation panics (non-zero exit),
//! which is what the CI job gates on.
//!
//! ```text
//! fuzz_smoke [--runs N] [--target framer|extractor|feed|model_json|all]
//!            [--seed S] [--corpus DIR] [--regen-corpus]
//! ```
//!
//! `--regen-corpus` rebuilds the seed corpus from synthesized captures:
//! clean frame windows and streams, chaos-corrupted twins (dropout, EMI
//! burst, non-finite DMA words), and truncations. The feed target starts
//! from the framer's streams plus the clean stream with one NaN in a
//! cluster-0 frame's edge set, and a run of twelve unparseable windows.
//! The model target starts from a clean model
//! file and one edit per invariant model loading checks; regeneration
//! rewrites only those, so the committed files in the format before the
//! stored factor was dropped (`old_*.json`) stay as they were written. The
//! corpus is committed, so regeneration is only needed when the capture
//! substrate or the model format changes.
//!
//! Sample inputs mutate at the byte level. Model files mutate their number
//! tokens instead, so most mutants still parse and reach validation.
//!
//! The binary installs the counting allocator and additionally checks the
//! hot-path claim on every successfully parsed input: a *warm*
//! `extract_into` performs zero heap allocations.

use alloc_counter::CountingAllocator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vprofile::ScratchArena;
use vprofile_analog::Fault;
use vprofile_fuzz_targets::{
    decode_samples, encode_samples, extractor, extractor_target, feed_target, framer_target,
    model_json_seeds, model_json_target, nan_in_edge_set, unparseable_blips, FramerInput,
    CORPUS_SEED,
};
use vprofile_vehicle::scenario::{chaos_inject, chaos_stream};
use vprofile_vehicle::{CaptureConfig, Vehicle};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

struct Options {
    runs: usize,
    target: Target,
    seed: u64,
    corpus: PathBuf,
    regen: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Target {
    Framer,
    Extractor,
    Feed,
    ModelJson,
    All,
}

fn main() -> ExitCode {
    let mut options = Options {
        runs: 2_000,
        target: Target::All,
        seed: 0x5EED,
        corpus: default_corpus_dir(),
        regen: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--runs" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.runs = v,
                None => return usage_error("--runs needs a non-negative integer"),
            },
            "--target" => match iter.next().map(String::as_str) {
                Some("framer") => options.target = Target::Framer,
                Some("extractor") => options.target = Target::Extractor,
                Some("feed") => options.target = Target::Feed,
                Some("model_json") => options.target = Target::ModelJson,
                Some("all") => options.target = Target::All,
                _ => return usage_error("--target needs framer|extractor|feed|model_json|all"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.seed = v,
                None => return usage_error("--seed needs an integer"),
            },
            "--corpus" => match iter.next() {
                Some(v) => options.corpus = PathBuf::from(v),
                None => return usage_error("--corpus needs a directory"),
            },
            "--regen-corpus" => options.regen = true,
            other => return usage_error(&format!("unknown flag {other}")),
        }
    }

    if options.regen {
        return match regen_corpus(&options.corpus) {
            Ok(written) => {
                eprintln!(
                    "wrote {written} corpus files under {}",
                    options.corpus.display()
                );
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }

    match run(&options) {
        Ok((seeds, mutations)) => {
            eprintln!(
                "fuzz smoke clean: {seeds} corpus replays + {mutations} seeded mutations, \
                 zero invariant violations"
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: fuzz_smoke [--runs N] [--target framer|extractor|feed|model_json|all] \
         [--seed S] [--corpus DIR] [--regen-corpus]"
    );
    ExitCode::FAILURE
}

/// The committed corpus location, resolved relative to this crate so the
/// binary works from any working directory.
fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// A fuzz target and the mutator its inputs take.
type Harness = (fn(&[u8]), fn(&mut Vec<u8>, &mut StdRng));

/// One named sub-corpus per target.
fn sub_corpora(target: Target) -> Vec<(&'static str, Harness)> {
    let all: [(Target, &'static str, Harness); 4] = [
        (Target::Framer, "framer", (framer_target, mutate)),
        (
            Target::Extractor,
            "extractor",
            (run_extractor_checks, mutate),
        ),
        (Target::Feed, "feed", (feed_target, mutate)),
        (
            Target::ModelJson,
            "model_json",
            (model_json_target, mutate_numbers),
        ),
    ];
    all.into_iter()
        .filter(|&(t, _, _)| target == Target::All || target == t)
        .map(|(_, name, harness)| (name, harness))
        .collect()
}

/// The extractor target plus the binary's allocation gate: once an input
/// parses, re-extracting it into warm scratch must not touch the heap.
fn run_extractor_checks(data: &[u8]) {
    extractor_target(data);
    let samples = decode_samples(data);
    let extractor = extractor();
    let mut scratch = ScratchArena::new();
    if extractor.extract_into(&samples, &mut scratch).is_ok() {
        let before = ALLOC.snapshot();
        let warm = extractor.extract_into(&samples, &mut scratch);
        let delta = ALLOC.snapshot().since(&before);
        assert!(warm.is_ok(), "warm re-extraction must stay Ok");
        assert_eq!(
            delta.total_allocations(),
            0,
            "warm extract_into must be allocation-free"
        );
    }
}

/// Replays the corpus, then mutates it for `runs` iterations per target.
fn run(options: &Options) -> Result<(usize, usize), String> {
    let mut seeds = 0usize;
    let mut mutations = 0usize;
    for (name, (target, mutator)) in sub_corpora(options.target) {
        let dir = options.corpus.join(name);
        let corpus = load_corpus(&dir)?;
        if corpus.is_empty() {
            return Err(format!(
                "empty corpus in {} (regenerate with --regen-corpus)",
                dir.display()
            ));
        }
        for entry in &corpus {
            target(entry);
            seeds += 1;
        }
        // The mutation loop is fully determined by (--seed, corpus): CI
        // failures reproduce locally with the same flags.
        let mut rng = StdRng::seed_from_u64(options.seed ^ name.len() as u64);
        let mut input = Vec::new();
        for _ in 0..options.runs {
            let base = &corpus[rng.random_range(0..corpus.len())];
            input.clear();
            input.extend_from_slice(base);
            mutator(&mut input, &mut rng);
            target(&input);
            mutations += 1;
        }
    }
    Ok((seeds, mutations))
}

/// Reads every file of one sub-corpus, sorted by name for determinism.
fn load_corpus(dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display())))
        .collect()
}

/// Applies 1–8 random byte-level mutations: flips, arbitrary writes,
/// truncations, duplications, and special-code injections (the structured
/// way to reach NaN/±∞ samples).
fn mutate(input: &mut Vec<u8>, rng: &mut StdRng) {
    let ops = 1 + rng.random_range(0..8usize);
    for _ in 0..ops {
        match rng.random_range(0..5u8) {
            0 if !input.is_empty() => {
                // Bit flip.
                let i = rng.random_range(0..input.len());
                input[i] ^= 1 << rng.random_range(0..8u8);
            }
            1 if !input.is_empty() => {
                // Arbitrary byte write.
                let i = rng.random_range(0..input.len());
                input[i] = rng.random_range(0..=255u8);
            }
            2 if input.len() > 4 => {
                // Truncate (often mid-sample, exercising odd tails).
                input.truncate(rng.random_range(1..input.len()));
            }
            3 if !input.is_empty() => {
                // Duplicate a slice onto the end (longer runs, repeated
                // frames).
                let start = rng.random_range(0..input.len());
                let len = rng.random_range(0..(input.len() - start).min(512) + 1);
                let extension: Vec<u8> = input[start..start + len].to_vec();
                input.extend_from_slice(&extension);
            }
            _ => {
                // Inject a special sample code at an even offset.
                let specials = [0xFFFFu16, 0xFFFE, 0xFFFD, 0xFFFC];
                let code = specials[rng.random_range(0..specials.len())].to_le_bytes();
                if input.len() >= 6 {
                    let slot = rng.random_range(0..(input.len() - 4) / 2);
                    input[4 + slot * 2..6 + slot * 2].copy_from_slice(&code);
                } else {
                    input.extend_from_slice(&code);
                }
            }
        }
    }
}

/// Byte spans of the number tokens of a JSON text (outside strings).
fn number_tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < text.len() {
        let b = text[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < text.len()
                && matches!(text[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Replaces 1–4 number tokens of a JSON text with boundary values
/// (zeros, ±1, huge, tiny, overflowing to ±∞), another token of the same
/// text, a negation, or a nudged last digit: the values a model file's
/// validation has to catch, in a text that still parses.
fn mutate_numbers(input: &mut Vec<u8>, rng: &mut StdRng) {
    const BOUNDARY: [&[u8]; 12] = [
        b"0", b"-0", b"-0.0", b"1", b"-1", b"1e308", b"-1e308", b"1e300", b"1e-300", b"5e-324",
        b"1e999", b"-1e999",
    ];
    for _ in 0..1 + rng.random_range(0..4usize) {
        let spans = number_tokens(input);
        if spans.is_empty() {
            return;
        }
        let (start, end) = spans[rng.random_range(0..spans.len())];
        let token = input[start..end].to_vec();
        let replacement = match rng.random_range(0..4u8) {
            0 => BOUNDARY[rng.random_range(0..BOUNDARY.len())].to_vec(),
            1 => {
                let (s, e) = spans[rng.random_range(0..spans.len())];
                input[s..e].to_vec()
            }
            2 => match token.split_first() {
                Some((b'-', rest)) => rest.to_vec(),
                _ => [b"-".as_slice(), &token].concat(),
            },
            _ => {
                let mut nudged = token.clone();
                if let Some(d) = nudged.iter_mut().rev().find(|b| b.is_ascii_digit()) {
                    *d = b'0' + (*d - b'0' + 1 + rng.random_range(0..9u8)) % 10;
                }
                nudged
            }
        };
        input.splice(start..end, replacement);
    }
}

/// Rebuilds the committed seed corpus from synthesized captures.
fn regen_corpus(dir: &Path) -> Result<usize, String> {
    let vehicle = Vehicle::vehicle_a(CORPUS_SEED);
    let capture = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(12)
                .with_seed(CORPUS_SEED),
        )
        .map_err(|e| format!("capture failed: {e}"))?;
    let samples_per_bit = capture.adc().samples_per_bit(capture.bit_rate_bps());
    // Mid-scale threshold, matching how the IDS frames this capture.
    let threshold = capture.adc().full_scale_code() as f64 / 2.0;
    let chaos = chaos_inject(
        &capture,
        CORPUS_SEED,
        &[
            Fault::Dropout {
                prob: 0.002,
                max_gap: 12,
            },
            Fault::Burst {
                prob: 0.001,
                max_len: 48,
                sigma_codes: 220.0,
            },
        ],
    );
    let mut nonfinite_stream =
        chaos_stream(&capture, CORPUS_SEED, &[Fault::NonFinite { prob: 0.003 }]);
    // Keep the non-finite seed around 4k samples: big enough to cover
    // several frames, small enough to mutate cheaply.
    nonfinite_stream.truncate(4_096);

    let mut written = 0usize;
    let mut write = |sub: &str, name: &str, bytes: &[u8]| -> Result<(), String> {
        let sub_dir = dir.join(sub);
        std::fs::create_dir_all(&sub_dir)
            .map_err(|e| format!("cannot create {}: {e}", sub_dir.display()))?;
        let path = sub_dir.join(name);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written += 1;
        Ok(())
    };

    // Framer and feed corpus: headered multi-frame streams (clean, chaos,
    // and non-finite twins) plus a pure-idle stretch.
    let framed = |samples: Vec<f64>, chunk: usize| FramerInput {
        bit_width: samples_per_bit,
        threshold,
        chunk,
        samples,
    };
    let clean_stream: Vec<f64> = capture
        .frames()
        .iter()
        .take(6)
        .flat_map(|f| f.trace.to_f64())
        .collect();
    let chaos_frames: Vec<f64> = chaos
        .frames()
        .iter()
        .take(6)
        .flat_map(|f| f.trace.to_f64())
        .collect();
    let streams = [
        ("clean_stream.bin", framed(clean_stream, 92)),
        ("chaos_stream.bin", framed(chaos_frames, 17)),
        ("nonfinite_stream.bin", framed(nonfinite_stream, 255)),
        ("pure_idle.bin", framed(vec![0.0; 700], 41)),
    ];
    for (name, input) in &streams {
        for sub in ["framer", "feed"] {
            write(sub, name, &input.encode())?;
        }
    }
    // Feed only: the clean stream with one NaN in the edge set of a frame
    // claiming a cluster-0 SA, which must fail closed.
    let clean = FramerInput::decode(&streams[0].1.encode());
    let poisoned =
        nan_in_edge_set(&clean).ok_or("the clean stream has no cluster-0 frame to poison")?;
    write("feed", "nan_in_edge_set.bin", &poisoned.encode())?;
    // Feed only: twelve unparseable windows in a row, which a breaker
    // configured never to trip must score, one extraction failure each.
    let blips = unparseable_blips(12).ok_or("the feed target's engine is unavailable")?;
    write("feed", "unparseable_run.bin", &blips.encode())?;

    // Extractor corpus: single frame windows — clean, chaos-corrupted,
    // non-finite, and a truncation.
    let window = capture.frames()[0].trace.to_f64();
    let chaos_window = chaos.frames()[1].trace.to_f64();
    let encoded = encode_samples(&window);
    write("extractor", "clean_frame.bin", &encoded)?;
    write(
        "extractor",
        "clean_frame_2.bin",
        &encode_samples(&capture.frames()[5].trace.to_f64()),
    )?;
    write(
        "extractor",
        "chaos_frame.bin",
        &encode_samples(&chaos_window),
    )?;
    write(
        "extractor",
        "truncated_frame.bin",
        &encoded[..encoded.len() / 3],
    )?;

    // Model corpus: the clean model file and one edit per invariant.
    for (name, json) in model_json_seeds()? {
        write("model_json", &name, json.as_bytes())?;
    }
    Ok(written)
}

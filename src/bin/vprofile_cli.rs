//! `vprofile-cli` — record, train, and monitor from the command line.
//!
//! ```text
//! vprofile-cli simulate --vehicle a --frames 2000 --seed 7 --out capture.json
//! vprofile-cli train    --capture capture.json --out model.json
//! vprofile-cli detect   --model model.json --capture capture.json [--margin M] [--hijack P]
//! vprofile-cli info     --model model.json
//! ```
//!
//! Captures and models are JSON files, so the three stages can run on
//! different machines — record in the vehicle, train in the lab, monitor
//! on the gateway.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vprofile_suite::core::{Detector, EdgeSetExtractor, Model, Trainer, VProfileConfig};
use vprofile_suite::ids::AlarmAggregator;
use vprofile_suite::ids::{IdsEvent, ScoredEvent};
use vprofile_suite::sigstat::DistanceMetric;
use vprofile_suite::vehicle::attack::hijack_imitation_test;
use vprofile_suite::vehicle::{Capture, CaptureConfig, Vehicle};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "simulate" => simulate(&flags),
        "train" => train(&flags),
        "detect" => detect(&flags),
        "info" => info(&flags),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  vprofile-cli simulate --vehicle a|b --frames N [--seed S] --out capture.json
  vprofile-cli train    --capture capture.json --out model.json [--metric euclidean|mahalanobis]
  vprofile-cli detect   --model model.json --capture capture.json [--margin M] [--hijack P]
  vprofile-cli info     --model model.json";

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got {flag}"));
        };
        let value = iter
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn require<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
}

fn simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let vehicle = match require(flags, "vehicle")? {
        "a" | "A" => Vehicle::vehicle_a(seed(flags)?),
        "b" | "B" => Vehicle::vehicle_b(seed(flags)?),
        other => return Err(format!("unknown vehicle {other}; use a or b")),
    };
    let frames: usize = require(flags, "frames")?
        .parse()
        .map_err(|_| "--frames needs a positive integer".to_string())?;
    let out = require(flags, "out")?;
    let capture = vehicle
        .capture(
            &CaptureConfig::default()
                .with_frames(frames)
                .with_seed(seed(flags)?),
        )
        .map_err(|e| e.to_string())?;
    let json = serde_json::to_string(&capture).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| e.to_string())?;
    println!(
        "recorded {} frames from {} ({:.1} MS/s @ {} bit) → {out}",
        capture.len(),
        capture.vehicle_name(),
        capture.adc().sample_rate_hz / 1e6,
        capture.adc().resolution_bits,
    );
    Ok(())
}

fn seed(flags: &BTreeMap<String, String>) -> Result<u64, String> {
    flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed needs an integer".to_string()))
        .unwrap_or(Ok(0x5EED))
}

fn load_capture(path: &str) -> Result<Capture, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))
}

fn train(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let capture = load_capture(require(flags, "capture")?)?;
    let out = require(flags, "out")?;
    let metric = match flags.get("metric").map(String::as_str) {
        None | Some("mahalanobis") => DistanceMetric::Mahalanobis,
        Some("euclidean") => DistanceMetric::Euclidean,
        Some(other) => return Err(format!("unknown metric {other}")),
    };
    let config = VProfileConfig::for_adc(capture.adc(), capture.bit_rate_bps()).with_metric(metric);
    let extractor = EdgeSetExtractor::new(config.clone());
    let extracted = capture.extract(&extractor);
    if extracted.failures > 0 {
        eprintln!("warning: {} frames failed extraction", extracted.failures);
    }
    // No SA database on the wire: cluster by waveform distance, the
    // no-database branch of Algorithm 2.
    let model = Trainer::new(config)
        .train(&extracted.labeled())
        .map_err(|e| e.to_string())?;
    model.save(out).map_err(|e| e.to_string())?;
    println!(
        "trained {} clusters from {} edge sets → {out}",
        model.cluster_count(),
        extracted.observations.len()
    );
    for (idx, cluster) in model.clusters().iter().enumerate() {
        let sas: Vec<String> = cluster.sas().iter().map(|sa| format!("0x{sa}")).collect();
        println!(
            "  ECU {idx}: SAs [{}], {} edge sets, max distance {:.2}",
            sas.join(", "),
            cluster.count(),
            cluster.max_distance()
        );
    }
    Ok(())
}

fn detect(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let model = Model::load(require(flags, "model")?).map_err(|e| e.to_string())?;
    let capture = load_capture(require(flags, "capture")?)?;
    let margin: f64 = flags
        .get("margin")
        .map(|m| m.parse().map_err(|_| "--margin needs a number".to_string()))
        .unwrap_or(Ok(default_margin(&model)))?;
    let hijack: f64 = flags
        .get("hijack")
        .map(|p| {
            p.parse()
                .map_err(|_| "--hijack needs a probability".to_string())
        })
        .unwrap_or(Ok(0.0))?;

    let config = model.config().clone();
    let extractor = EdgeSetExtractor::new(config);
    let extracted = capture.extract(&extractor);
    let mut messages = vprofile_suite::vehicle::attack::false_positive_test(&extracted);
    if hijack > 0.0 {
        messages = hijack_imitation_test(&extracted, model.sa_table(), hijack, 0xC11);
    }

    let detector = Detector::with_margin(&model, margin);
    let mut aggregator = AlarmAggregator::new(25);
    let mut anomalies = 0u64;
    for (idx, message) in messages.iter().enumerate() {
        let verdict = detector.classify(&message.observation);
        if verdict.is_anomaly() {
            anomalies += 1;
        }
        let event = IdsEvent::Scored(ScoredEvent {
            stream_pos: idx as u64,
            sa: Some(message.observation.sa),
            verdict,
            extraction_failed: false,
            retrain_due: false,
        });
        if let Some(incident) = aggregator.absorb(&event) {
            println!(
                "escalation: [{}] count {} under SA {:?}",
                incident.class, incident.count, incident.sa
            );
        }
    }
    println!();
    print!("{}", aggregator.summary());
    println!(
        "margin {margin:.2}; {} of {} frames anomalous",
        anomalies,
        messages.len()
    );
    Ok(())
}

fn default_margin(model: &Model) -> f64 {
    let mean_max = model
        .clusters()
        .iter()
        .map(|c| c.max_distance())
        .sum::<f64>()
        / model.cluster_count() as f64;
    0.5 * mean_max
}

fn info(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let model = Model::load(require(flags, "model")?).map_err(|e| e.to_string())?;
    println!(
        "metric: {}; {} clusters; edge-set dimension {}",
        model.metric(),
        model.cluster_count(),
        model.dim()
    );
    for (idx, cluster) in model.clusters().iter().enumerate() {
        let sas: Vec<String> = cluster.sas().iter().map(|sa| format!("0x{sa}")).collect();
        let names: Vec<&str> = cluster
            .sas()
            .iter()
            .filter_map(|sa| vprofile_suite::vehicle::j1939db::sa_name(sa.raw()))
            .collect();
        println!(
            "  ECU {idx}: SAs [{}]{} — {} edge sets, max distance {:.2}{}",
            sas.join(", "),
            if names.is_empty() {
                String::new()
            } else {
                format!(" ({})", names.join(", "))
            },
            cluster.count(),
            cluster.max_distance(),
            cluster
                .extraction_threshold()
                .map(|t| format!(", extraction threshold {t:.0}"))
                .unwrap_or_default()
        );
    }
    Ok(())
}

//! `train`: the offline vaccination pipeline after collection — AM-GAN
//! training, `engineer_features`, vaccination (augment + EVAX detector
//! training + sensitivity tuning), the PerSpectron baseline and
//! `evaluate_holdout` — at the `experiments` Small shape with fewer GAN
//! epochs. The corpus is collected during set-up.
//!
//! Each stage is one public call (or the fixed sequence `EvaxPipeline::run`
//! makes), so the traced run is the same code with spans on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use evax_core::collect::{collect_dataset_stats, CollectConfig};
use evax_core::dataset::{Dataset, Normalizer};
use evax_core::feature_engineering::{engineer_features, N_ENGINEERED};
use evax_core::gan::{AmGan, AmGanConfig};
use evax_core::par::Parallelism;
use evax_core::pipeline::{EvaxConfig, EvaxPipeline, StageTimings};
use evax_core::prelude::{Detector, DetectorKind, ModelDetector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{median, median_metrics, put_wall, repeated_setup, Ctx, Fnv, Metrics, Outcome};
use crate::trace::{Layer, Recorder};

/// AM-GAN epochs per pass: the `experiments` Small shape trains 60; two
/// keep one pass near a second while still exercising every stage.
const GAN_EPOCHS: usize = 2;

/// Stages per pass (the `error_rate` base).
const STAGES: u64 = 5;

/// `experiments` Small: collection shape, AM-GAN shape and augmentation.
fn small_config(threads: usize) -> EvaxConfig {
    EvaxConfig {
        collect: CollectConfig {
            interval: 100,
            runs_per_attack: 2,
            runs_per_benign: 4,
            max_instrs: 8_000,
            benign_scale: 8_000,
            parallelism: Parallelism::Fixed(threads),
            ..Default::default()
        },
        gan: AmGanConfig {
            epochs: GAN_EPOCHS,
            hidden_width: 96,
            generator_hidden: 3,
            ..AmGanConfig::small()
        },
        augment_per_class: 80,
        augment_benign: 300,
        ..Default::default()
    }
}

/// The collected corpus, split as `EvaxPipeline::run` splits it, with the
/// pipeline's random stream positioned after the split.
struct Corpus {
    train: Dataset,
    holdout: Dataset,
    normalizer: Normalizer,
    rng: StdRng,
}

fn collect_corpus(cfg: &EvaxConfig, seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let (dataset, stats) = collect_dataset_stats(&cfg.collect, seed);
    let (train, holdout) = dataset.split(cfg.holdout, &mut rng);
    Corpus {
        train,
        holdout,
        normalizer: stats.normalizer(),
        rng,
    }
}

/// What one pass produced.
struct PassOut {
    /// Serialized EVAX and PerSpectron detectors.
    evax: Vec<u8>,
    perspectron: Vec<u8>,
    accuracy: f64,
    gan_steps: u64,
}

/// One pass; `stages` counts the stages that finished, so a panic leaves
/// it at the failing stage.
fn pass(cfg: &EvaxConfig, corpus: &Corpus, rec: &mut Recorder, stages: &mut u64) -> PassOut {
    let mut rng = corpus.rng.clone();
    let train = &corpus.train;
    let gan = rec.time(Layer::CoreGan, 0, || {
        AmGan::train(train, &cfg.gan, &mut rng)
    });
    *stages += 1;
    let engineered = rec.time(Layer::CoreEngineer, 0, || {
        let schema = evax_sim::FeatureSchema::for_dim(train.feature_dim());
        engineer_features(gan.generator(), N_ENGINEERED, 2, &schema.names_vec())
    });
    *stages += 1;
    let evax = rec.time(Layer::CoreVaccinate, 0, || {
        let augmented = gan.augment(train, cfg.augment_per_class, cfg.augment_benign, &mut rng);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &augmented,
            engineered.clone(),
            &cfg.detector,
            &mut rng,
        );
        det.tune_above_benign(train, 0.9995, 0.05);
        det
    });
    *stages += 1;
    let perspectron = rec.time(Layer::CoreBaseline, 0, || {
        let mut det = Detector::train(
            DetectorKind::PerSpectron,
            train,
            vec![],
            &cfg.detector,
            &mut rng,
        );
        det.tune_above_benign(train, 0.9995, 0.05);
        det
    });
    *stages += 1;
    let gan_steps = (cfg.gan.epochs * (train.len() / cfg.gan.batch).max(1)) as u64;
    let out_bytes = (
        ModelDetector::save_bytes(&evax),
        ModelDetector::save_bytes(&perspectron),
    );
    let pipeline = EvaxPipeline {
        train: corpus.train.clone(),
        holdout: corpus.holdout.clone(),
        normalizer: corpus.normalizer.clone(),
        gan,
        engineered,
        evax,
        perspectron,
        config: cfg.clone(),
        sample_interval: cfg.collect.interval,
        timings: StageTimings::default(),
    };
    let report = rec.time(Layer::CoreEval, 0, || pipeline.evaluate_holdout());
    *stages += 1;
    PassOut {
        evax: out_bytes.0,
        perspectron: out_bytes.1,
        accuracy: report.accuracy,
        gan_steps,
    }
}

fn layer_metrics(rec: &Recorder, wall: f64, gan_steps: u64) -> Metrics {
    let t = rec.self_times();
    let mut m = Metrics::default();
    let (gan, _) = t.get(Layer::CoreGan);
    m.put("core.gan.busy_s", gan, "s");
    m.put("core.gan.steps", gan_steps as f64, "count");
    m.put(
        "core.gan.ms_per_step",
        gan * 1e3 / gan_steps.max(1) as f64,
        "ms",
    );
    m.put(
        "core.engineer.busy_ms",
        t.get(Layer::CoreEngineer).0 * 1e3,
        "ms",
    );
    m.put("core.vaccinate.busy_s", t.get(Layer::CoreVaccinate).0, "s");
    m.put("core.baseline.busy_s", t.get(Layer::CoreBaseline).0, "s");
    m.put("core.eval.busy_ms", t.get(Layer::CoreEval).0 * 1e3, "ms");
    // The stages run on one thread (the nn kernels are serial), so the
    // accounting base is wall × 1.
    m.put(
        "unattributed_frac",
        1.0 - rec.root_ns() as f64 / (wall * 1e9),
        "ratio",
    );
    m
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = small_config(ctx.threads);
    let reps = if ctx.trace { 1 } else { ctx.setup_reps };
    let (corpus, setup_digests, setup_s) = repeated_setup(
        reps,
        || collect_corpus(&cfg, ctx.seed),
        |c| {
            let mut h = Fnv::default();
            for s in c.train.samples.iter().chain(&c.holdout.samples) {
                h.eat(s.class as u64);
                for &f in &s.features {
                    h.eat(f.to_bits() as u64);
                }
            }
            h.0
        },
    );
    out.gates
        .check(setup_digests.windows(2).all(|w| w[0] == w[1]), || {
            "set-up collected different corpora from one seed".into()
        });

    // Passes alternate untraced / traced in a traced run; every pass is
    // untraced otherwise.
    let start = Instant::now();
    let mut results: Vec<(PassOut, f64, bool)> = Vec::new();
    let mut layers = Vec::new();
    let mut last_traced = None;
    let min_passes = if ctx.trace { 4 } else { 3 };
    while results.len() < min_passes || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && results.len() % 2 == 1;
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0, traced);
        let mut stages = 0;
        match catch_unwind(AssertUnwindSafe(|| {
            pass(&cfg, &corpus, &mut rec, &mut stages)
        })) {
            Ok(p) => {
                let wall = t0.elapsed().as_secs_f64();
                out.attempted += STAGES;
                if !p.accuracy.is_finite() {
                    out.failed += 1;
                }
                if traced {
                    layers.push(layer_metrics(&rec, wall, p.gan_steps));
                    last_traced = Some(rec);
                }
                results.push((p, wall, traced));
            }
            Err(_) => {
                out.attempted += STAGES;
                out.failed += STAGES - stages;
                out.gates
                    .check(false, || "a training stage panicked".into());
                return out;
            }
        }
    }
    let first = &results[0].0;
    for (p, _, _) in &results {
        out.gates.check(
            p.evax == first.evax && p.perspectron == first.perspectron,
            || "trained detectors differ between passes of one seed".into(),
        );
        out.gates.check(p.accuracy.is_finite(), || {
            "non-finite holdout accuracy".into()
        });
    }
    let mut h = Fnv::default();
    h.bytes(&first.evax);
    out.env
        .push(("train_windows", corpus.train.len().to_string()));
    out.env
        .push(("holdout_windows", corpus.holdout.len().to_string()));
    out.env.push(("gan_epochs", GAN_EPOCHS.to_string()));
    out.env.push(("passes", results.len().to_string()));
    out.env.push(("setup_reps", reps.to_string()));
    out.env.push((
        "modelled_caches",
        "n/a (no simulation in the timed phase)".into(),
    ));
    out.env.push(("detector_digest", format!("{:016x}", h.0)));

    let walls = |traced: bool| -> Vec<f64> {
        results
            .iter()
            .filter(|r| r.2 == traced)
            .map(|r| r.1)
            .collect()
    };
    if let Some(rec) = &last_traced {
        crate::write_spans(rec, ctx);
    }
    if ctx.trace {
        let mut m = median_metrics(&layers);
        m.put(
            "trace_overhead_frac",
            median(&walls(true)) / median(&walls(false)) - 1.0,
            "ratio",
        );
        out.metrics = m;
        return out;
    }
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    put_wall(m, &walls(false));
    m.put("holdout_accuracy", first.accuracy, "ratio");
    out
}

//! The fleet service contract: the deterministic block of
//! `BENCH_fleet.json` is byte-identical at any thread count, the pinned
//! verdict digests hold, and the quantized kernel agrees with the f32
//! oracle on real simulated windows within its provable bound.

use evax_bench::fleet_bench::{run_fleet_bench, FleetBenchConfig};
use evax_core::collect::{collect_dataset, CollectConfig};
use evax_core::prelude::{Detector, DetectorKind, Featurizer, Parallelism, TrainConfig};
use evax_defense::adaptive::AdaptiveConfig;
use evax_defense::fleet::{run_fleet, FleetConfig, InferenceMode};
use evax_sim::CpuConfig;
use rand::SeedableRng;

fn small_collect() -> CollectConfig {
    CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        ..Default::default()
    }
}

fn trained(seed: u64) -> (Detector, Featurizer, evax_core::prelude::Dataset) {
    let (ds, norm) = collect_dataset(&small_collect(), seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut det = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    det.tune_for_tpr(&ds, 0.99);
    let feat = Featurizer::new(norm, det.engineered().to_vec());
    (det, feat, ds)
}

fn fleet_cfg(n_streams: usize, inference: InferenceMode) -> FleetConfig {
    FleetConfig {
        n_streams,
        attack_every: 4,
        max_instrs: 1_500,
        adaptive: AdaptiveConfig {
            sample_interval: 200,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        n_shards: 8,
        inference,
        seed: 7,
        warm_start: false,
    }
}

#[test]
fn fleet_deterministic_block_is_byte_identical_across_thread_counts() {
    let (det, feat, _) = trained(7);
    let cpu_cfg = CpuConfig::default();
    for mode in [InferenceMode::F32, InferenceMode::Quant] {
        let cfg = fleet_cfg(48, mode);
        let json_at = |n: usize| {
            run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(n)).deterministic_json()
        };
        let one = json_at(1);
        assert_eq!(one, json_at(4), "1 vs 4 threads diverged ({mode:?})");
        assert_eq!(one, json_at(16), "1 vs 16 threads diverged ({mode:?})");
    }
}

/// The 48-stream fleet's verdict digests, cold and warm-started. Both
/// inference kernels land on the same digests: the quantized kernel's
/// ambiguity band holds no window of this fleet.
#[test]
fn fleet_verdict_digests_are_pinned() {
    let (det, feat, _) = trained(7);
    let cpu_cfg = CpuConfig::default();
    for mode in [InferenceMode::F32, InferenceMode::Quant] {
        for (warm_start, want) in [
            (false, 0x143f_08f8_ebe6_6a0c),
            (true, 0x2712_1cd8_ce40_5ac2),
        ] {
            let cfg = FleetConfig {
                warm_start,
                ..fleet_cfg(48, mode)
            };
            let got =
                run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(2)).verdict_digest();
            assert_eq!(
                got, want,
                "{mode:?} warm_start={warm_start}: digest {got:016x}, pinned {want:016x}"
            );
        }
    }
}

#[test]
fn quantized_verdicts_agree_with_f32_oracle_on_real_windows() {
    // Real simulated windows — the collection corpus the detector trained
    // on — pushed through both kernels row by row.
    let (det, _, ds) = trained(11);
    let quant = det.quantize_linear();
    let mut ext = Vec::new();
    let mut xq = Vec::new();
    let mut flips = 0u64;
    let mut total = 0u64;
    for s in &ds.samples {
        det.transform_into(&s.features, &mut ext);
        xq.clear();
        xq.resize(ext.len(), 0);
        evax_nn::QuantLinear::quantize_input_into(&ext, &mut xq);
        let q_verdict = quant.score_q(&xq) >= quant.threshold_q();
        let f32_score = det.score(&s.features);
        let f32_verdict = f32_score >= det.threshold();
        assert!(
            quant.agrees_with_f32(f32_score, det.threshold(), q_verdict),
            "quant verdict flipped outside the ambiguity band: \
             f32 score {f32_score}, threshold {}, bound {}",
            det.threshold(),
            quant.score_error_bound()
        );
        total += 1;
        if q_verdict != f32_verdict {
            flips += 1;
        }
    }
    assert!(total > 100, "corpus too small to mean anything");
    // Aggregate flip rate stays small on real windows: ≤ 2%.
    assert!(
        flips * 50 <= total,
        "quantization flipped {flips}/{total} verdicts (> 2%)"
    );
}

#[test]
fn fleet_bench_smoke_produces_well_formed_artifact() {
    let report = run_fleet_bench(&FleetBenchConfig {
        n_streams: 32,
        seed: 5,
        parallelism: Parallelism::Fixed(2),
        quantized: true,
        smoke: true,
    });
    let json = report.to_json();
    // The keys the CI fleet smoke step greps for.
    for key in [
        "f32",
        "quant",
        "windows_per_sec",
        "p99_ns",
        "verdict_digest",
    ] {
        let key = format!("\"{key}\"");
        assert!(json.contains(&key), "{key} missing from artifact:\n{json}");
    }
    let quant = report.quant.expect("quantized pass requested");
    assert_eq!(
        report.f32.windows, quant.windows,
        "inference kernel must not change the sampling schedule"
    );
}

#[test]
fn full_fleet_determinism_and_throughput_slow() {
    // Full-size fleet (the ≥1k-stream acceptance shape): opt in via
    // EVAX_SLOW_TESTS=1, like the full fault matrix.
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping full_fleet_determinism_and_throughput_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let (det, feat, _) = trained(42);
    let cpu_cfg = CpuConfig::default();
    let cfg = FleetConfig {
        n_shards: 64,
        ..fleet_cfg(1024, InferenceMode::F32)
    };
    let json_at = |n: usize| {
        run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(n)).deterministic_json()
    };
    let one = json_at(1);
    assert_eq!(one, json_at(4), "full fleet: 1 vs 4 threads diverged");
    assert_eq!(one, json_at(16), "full fleet: 1 vs 16 threads diverged");

    let report = run_fleet_bench(&FleetBenchConfig {
        n_streams: 1024,
        seed: 42,
        parallelism: Parallelism::Auto,
        quantized: true,
        smoke: false,
    });
    let pinned = "\"verdict_digest\":\"bd78a140ed66c048\"";
    assert!(
        report.f32.deterministic.contains(pinned),
        "fleet bench f32 digest moved: {}",
        report.f32.deterministic
    );
}

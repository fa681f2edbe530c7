//! Fleet service benchmark (`BENCH_fleet.json`): drives
//! [`evax_defense::fleet`] over ≥1k concurrent tenant streams and reports,
//! for the f32 and the 9-bit quantized inference kernels,
//!
//! * sustained end-to-end windows/sec,
//! * p50/p99 window→verdict latency (an [`evax_obs`] pow-2 histogram over
//!   the fleet's wall-clock latency samples),
//! * the simulation vs verdict CPU-time split,
//! * the deterministic fleet block (per-stream verdict digest) the
//!   `tests/fleet.rs` determinism test compares across thread counts.
//!
//! End-to-end fleet throughput is simulation-dominated (the detector is a
//! perceptron; the cores are cycle-accurate): verdicting is about 1% of a
//! shard's CPU time.

use evax_core::collect::{collect_dataset, CollectConfig};
use evax_core::prelude::{
    Detector, DetectorKind, Featurizer, MetricsSink, Parallelism, Registry, TrainConfig,
};
use evax_defense::adaptive::AdaptiveConfig;
use evax_defense::fleet::{run_fleet, FleetConfig, FleetReport, InferenceMode};
use evax_sim::CpuConfig;
use rand::SeedableRng;

use crate::harness::timed;

/// Fleet benchmark configuration (CLI-shaped).
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Concurrent tenant streams.
    pub n_streams: usize,
    /// Master seed (detector training and stream programs).
    pub seed: u64,
    /// Shard fan-out parallelism.
    pub parallelism: Parallelism,
    /// Also run the quantized inference pass.
    pub quantized: bool,
    /// CI-scale run: fewer, shorter streams.
    pub smoke: bool,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            n_streams: 1024,
            seed: 42,
            parallelism: Parallelism::Auto,
            quantized: true,
            smoke: false,
        }
    }
}

/// One fleet pass distilled for the report.
#[derive(Debug, Clone)]
pub struct FleetPass {
    /// Inference mode name.
    pub mode: &'static str,
    /// Total windows classified.
    pub windows: u64,
    /// Wall-clock seconds for the pass.
    pub secs: f64,
    /// Sustained end-to-end windows/sec (simulation + featurization +
    /// inference + verdict application).
    pub windows_per_sec: f64,
    /// CPU seconds spent verdicting windows (featurization, inference,
    /// verdict application), summed across shard workers
    /// (`FleetReport::inference_ns`) — the inference side of the
    /// end-to-end split.
    pub inference_secs: f64,
    /// CPU seconds spent stepping simulated cores, measured the same way
    /// (`FleetReport::sim_ns`) — the simulation side of the split. The two
    /// are mutually comparable; on a multi-core run their sum can exceed
    /// the pass's wall-clock `secs`.
    pub sim_secs: f64,
    /// Median window→verdict latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile window→verdict latency, nanoseconds.
    pub p99_ns: u64,
    /// The deterministic block (`FleetReport::deterministic_json`).
    pub deterministic: String,
}

/// The full benchmark artifact.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// The configuration the run used.
    pub config: FleetBenchConfig,
    /// Cores the machine exposes.
    pub cores: usize,
    /// f32 pass.
    pub f32: FleetPass,
    /// Quantized pass (if requested).
    pub quant: Option<FleetPass>,
}

fn quantiles(latencies: &[u64]) -> (u64, u64) {
    let registry = Registry::shared();
    let sink = MetricsSink::recording(&registry);
    let h = sink.histogram("fleet_window_to_verdict_ns");
    for &ns in latencies {
        h.observe(ns);
    }
    (h.quantile(0.50), h.quantile(0.99))
}

fn fleet_pass(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    parallelism: Parallelism,
) -> FleetPass {
    let (report, secs): (FleetReport, f64) =
        timed(|| run_fleet(cfg, cpu_cfg, detector, featurizer, parallelism));
    let windows = report.windows();
    let (p50_ns, p99_ns) = quantiles(&report.latencies_ns);
    FleetPass {
        mode: cfg.inference.name(),
        windows,
        secs,
        windows_per_sec: if secs > 0.0 {
            windows as f64 / secs
        } else {
            0.0
        },
        inference_secs: report.inference_ns as f64 / 1e9,
        sim_secs: report.sim_ns as f64 / 1e9,
        p50_ns,
        p99_ns,
        deterministic: report.deterministic_json(),
    }
}

/// Trains a small detector (collection corpus + perceptron, tuned to 99%
/// TPR) and runs the full fleet benchmark.
pub fn run_fleet_bench(cfg: &FleetBenchConfig) -> FleetBenchReport {
    let collect = CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        ..Default::default()
    };
    eprintln!("[fleet] training detector (collect + perceptron)...");
    let (ds, norm) = collect_dataset(&collect, cfg.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::new(norm, detector.engineered().to_vec());

    let (max_instrs, n_shards) = if cfg.smoke { (1_200, 8) } else { (2_000, 64) };
    let fleet = FleetConfig {
        n_streams: cfg.n_streams,
        attack_every: 4,
        max_instrs,
        adaptive: AdaptiveConfig {
            sample_interval: 200,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        n_shards,
        inference: InferenceMode::F32,
        seed: cfg.seed,
        warm_start: false,
    };
    let cpu_cfg = CpuConfig::default();

    eprintln!(
        "[fleet] {} streams x {} instrs, {} shards",
        fleet.n_streams, fleet.max_instrs, fleet.n_shards
    );
    let f32 = fleet_pass(&fleet, &cpu_cfg, &detector, &featurizer, cfg.parallelism);
    let quant = cfg.quantized.then(|| {
        fleet_pass(
            &FleetConfig {
                inference: InferenceMode::Quant,
                ..fleet.clone()
            },
            &cpu_cfg,
            &detector,
            &featurizer,
            cfg.parallelism,
        )
    });

    FleetBenchReport {
        config: cfg.clone(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        f32,
        quant,
    }
}

fn pass_json(p: &FleetPass) -> String {
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"windows\": {}, \"secs\": {:.3}, ",
            "\"windows_per_sec\": {:.0}, \"sim_secs\": {:.3}, ",
            "\"inference_secs\": {:.3}, \"p50_ns\": {}, \"p99_ns\": {}, ",
            "\"deterministic\": {}}}"
        ),
        p.mode,
        p.windows,
        p.secs,
        p.windows_per_sec,
        p.sim_secs,
        p.inference_secs,
        p.p50_ns,
        p.p99_ns,
        p.deterministic
    )
}

impl FleetBenchReport {
    /// Renders `BENCH_fleet.json`.
    pub fn to_json(&self) -> String {
        let threads = match self.config.parallelism {
            Parallelism::Fixed(n) => n.to_string(),
            _ => "\"auto\"".to_string(),
        };
        let quant = self.quant.as_ref().map_or("null".to_string(), pass_json);
        format!(
            "{{\n  \"streams\": {}, \"seed\": {}, \"threads\": {}, \"smoke\": {}, \"cores\": {},\n  \
             \"f32\": {},\n  \
             \"quant\": {},\n  \
             \"note\": \"end-to-end passes are simulation-dominated; every window \
             is verdicted where it is produced, so p50_ns/p99_ns time one \
             featurize + score + verdict step\"\n}}\n",
            self.config.n_streams,
            self.config.seed,
            threads,
            self.config.smoke,
            self.cores,
            pass_json(&self.f32),
            quant,
        )
    }
}

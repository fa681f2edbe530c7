//! Fleet-scale detection service: a sharded multi-stream scheduler.
//!
//! The paper's HMD guards *many* programs at once with tiny per-window
//! inference cost (its hardware model even quantizes weights to 9-bit
//! integers, §VI-B) — yet a per-program `run_adaptive` call drives one
//! tenant to completion. This module is the many-tenant deployment shape:
//!
//! * **Streams** — one per simulated tenant, seeded deterministically from
//!   the attack/benign registry. A stream's [`Cpu`] is built when the
//!   stream starts, and a [`SampledCursor`](evax_sim::SampledCursor)
//!   advances it one sampling window at a time.
//! * **Shards** — streams are assigned round-robin to a *fixed* number of
//!   shards ([`evax_core::par::round_robin_shards`]); shards fan out over
//!   [`evax_core::par::map`]. The shard count comes from configuration,
//!   never from the worker count, so the work decomposition is identical at
//!   any thread count.
//! * **One stream at a time** — a shard runs each of its streams to
//!   completion in turn and drops its core before building the next, so at
//!   most one core per worker is live. Every window is verdicted right after
//!   the cursor returns it: the shard's one [`VerdictStep`] featurizes,
//!   scores and moves the stream's [`SecureModeState`], and the mitigation
//!   switch goes to the stream's core before it runs another instruction.
//!   This is the same step the single-stream [`AdaptiveController`] applies.
//!
//! # Determinism contract
//!
//! A window's verdict depends only on its own counters and its stream's
//! state, never on the other streams of the shard or on the thread count:
//! the [`VerdictStep`] carries only scratch buffers between streams, so the
//! order in which a shard runs its streams cannot change any verdict.
//! `FleetReport`'s deterministic block is **byte-identical** at 1, 4, or 16
//! threads; the `fleet` bench binary's determinism test pins this.
//!
//! [`AdaptiveController`]: crate::adaptive::AdaptiveController

use std::collections::HashMap;
use std::time::Instant;

use evax_core::par::{self, round_robin_shards, Parallelism};
use evax_core::prelude::{Detector, Featurizer, ModelDetector};
use evax_sim::{Cpu, CpuConfig, Program, SampledStep};
use rand::SeedableRng;

use crate::adaptive::{AdaptiveConfig, SecureModeState, VerdictStep};

/// Inference kernel the fleet scores windows with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// The detector's f32 perceptron.
    F32,
    /// The 9-bit integer kernel ([`evax_nn::QuantLinear`]). Verdicts may
    /// differ from f32 only inside the kernel's provable ambiguity band
    /// around the threshold.
    Quant,
}

impl InferenceMode {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InferenceMode::F32 => "f32",
            InferenceMode::Quant => "quant",
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenant streams.
    pub n_streams: usize,
    /// Every `attack_every`-th stream runs an attack kernel (cycling the
    /// registry's 21 classes); the rest run benign kernels (cycling the 10
    /// kinds). `0` makes the whole fleet benign.
    pub attack_every: usize,
    /// Per-stream committed-instruction budget.
    pub max_instrs: u64,
    /// Sampling interval / secure window / mitigation policy.
    pub adaptive: AdaptiveConfig,
    /// Fixed shard count — the determinism unit (see module docs).
    pub n_shards: usize,
    /// Inference kernel.
    pub inference: InferenceMode,
    /// Master seed; per-stream program seeds derive from it by stream id.
    pub seed: u64,
    /// Warm-start tenant cores from a per-program-class snapshot pool: one
    /// representative core per distinct registry program is fast-forwarded
    /// (functional execution with approximate cache/TLB/predictor warm-up)
    /// and snapshotted before sharding, and every tenant stream of that
    /// class forks from the warm snapshot instead of a cold core. Windows
    /// are approximate (warm microarchitectural state from a sibling run);
    /// the `ff` bench quantifies the verdict drift.
    pub warm_start: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_streams: 1024,
            attack_every: 4,
            max_instrs: 2_000,
            adaptive: AdaptiveConfig {
                sample_interval: 200,
                secure_window: 1_000,
                ..AdaptiveConfig::default()
            },
            n_shards: 64,
            inference: InferenceMode::F32,
            seed: 0xF1EE7,
            warm_start: false,
        }
    }
}

/// Per-stream tallies, in ascending `stream_id` order in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The stream's fleet-wide id.
    pub stream_id: usize,
    /// Attack class label (1-based registry label), or 0 for benign.
    pub class_label: usize,
    /// Sampling windows produced.
    pub windows: u64,
    /// Detector flags raised.
    pub flags: u64,
    /// Untrustworthy verdicts routed to secure mode.
    pub fail_secure_switches: u64,
    /// Cycle of the first flag.
    pub first_flag_cycle: Option<u64>,
    /// Instructions spent in secure mode.
    pub secure_instructions: u64,
    /// Instructions committed by the stream.
    pub committed_instructions: u64,
    /// Cycles the stream ran for.
    pub cycles: u64,
}

/// Outcome of a fleet run: per-stream tallies (deterministic) plus
/// wall-clock window→verdict latencies (not deterministic — excluded from
/// [`FleetReport::deterministic_json`]).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-stream outcomes, ascending `stream_id`.
    pub outcomes: Vec<StreamOutcome>,
    /// Wall-clock nanoseconds from window production to verdict
    /// application (featurize, score, secure-mode transition, mitigation
    /// switch), one entry per window: shard by shard, and stream by stream
    /// within a shard.
    pub latencies_ns: Vec<u64>,
    /// Always 0: every window gets its verdict where it is produced, so
    /// nothing is batched or flushed. Kept so reports built by struct
    /// literal still compile; not part of the deterministic block.
    pub full_flushes: u64,
    /// Always 0, like [`FleetReport::full_flushes`].
    pub tail_flushes: u64,
    /// CPU nanoseconds spent stepping simulated cores (summed across shard
    /// workers, so this can exceed wall-clock on a multi-core run; compare
    /// against [`FleetReport::inference_ns`], measured the same way).
    pub sim_ns: u64,
    /// CPU nanoseconds spent verdicting windows (featurization, inference,
    /// verdict and mitigation switch), summed across shard workers like
    /// [`FleetReport::sim_ns`].
    pub inference_ns: u64,
    /// Inference kernel the run used.
    pub inference: InferenceMode,
}

impl FleetReport {
    /// Total sampling windows across the fleet.
    pub fn windows(&self) -> u64 {
        self.outcomes.iter().map(|o| o.windows).sum()
    }

    /// Total detector flags across the fleet.
    pub fn flags(&self) -> u64 {
        self.outcomes.iter().map(|o| o.flags).sum()
    }

    /// Total fail-secure switches across the fleet.
    pub fn fail_secure_switches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.fail_secure_switches).sum()
    }

    /// Attack streams that raised at least one flag.
    pub fn flagged_attack_streams(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.class_label != 0 && o.flags > 0)
            .count() as u64
    }

    /// Benign streams that raised at least one (false) flag.
    pub fn false_flag_streams(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.class_label == 0 && o.flags > 0)
            .count() as u64
    }

    /// FNV-1a digest over every per-stream outcome field, in stream order —
    /// one u64 that changes if any window's verdict anywhere in the fleet
    /// changes. The determinism tests compare this (inside
    /// [`FleetReport::deterministic_json`]) across thread counts.
    pub fn verdict_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for o in &self.outcomes {
            eat(o.stream_id as u64);
            eat(o.class_label as u64);
            eat(o.windows);
            eat(o.flags);
            eat(o.fail_secure_switches);
            eat(o.first_flag_cycle.map_or(u64::MAX, |c| c));
            eat(o.secure_instructions);
            eat(o.committed_instructions);
            eat(o.cycles);
        }
        h
    }

    /// The deterministic block of `BENCH_fleet.json`: aggregates plus the
    /// per-stream verdict digest, rendered with a fixed field order. Every
    /// value is an integer derived from simulated quantities, so the string
    /// is byte-identical at any thread count.
    pub fn deterministic_json(&self) -> String {
        let committed: u64 = self.outcomes.iter().map(|o| o.committed_instructions).sum();
        let cycles: u64 = self.outcomes.iter().map(|o| o.cycles).sum();
        let secure: u64 = self.outcomes.iter().map(|o| o.secure_instructions).sum();
        format!(
            concat!(
                "{{\"inference\":\"{}\",\"streams\":{},\"windows\":{},\"flags\":{},",
                "\"fail_secure_switches\":{},\"flagged_attack_streams\":{},",
                "\"false_flag_streams\":{},\"secure_instructions\":{},",
                "\"committed_instructions\":{},\"cycles\":{},",
                "\"verdict_digest\":\"{:016x}\"}}"
            ),
            self.inference.name(),
            self.outcomes.len(),
            self.windows(),
            self.flags(),
            self.fail_secure_switches(),
            self.flagged_attack_streams(),
            self.false_flag_streams(),
            secure,
            committed,
            cycles,
            self.verdict_digest(),
        )
    }
}

/// Builds stream `id`'s program deterministically from the registry: the
/// program choice and its seed depend only on `(cfg.seed, id)`.
fn stream_program(id: usize, cfg: &FleetConfig) -> (Program, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    if cfg.attack_every > 0 && id.is_multiple_of(cfg.attack_every) {
        let class = evax_attacks::ATTACK_CLASSES
            [(id / cfg.attack_every) % evax_attacks::ATTACK_CLASSES.len()];
        (
            evax_attacks::build_attack(class, &evax_attacks::KernelParams::default(), &mut rng),
            class.label(),
        )
    } else {
        let kind = evax_attacks::BENIGN_KINDS[id % evax_attacks::BENIGN_KINDS.len()];
        (
            evax_attacks::build_benign(kind, evax_attacks::benign::Scale(cfg.max_instrs), &mut rng),
            0,
        )
    }
}

/// The per-program-class warm-start pool: `name → warm template core` for
/// one representative per distinct registry program. Templates are produced
/// by a snapshot→restore round trip (exercising the serialized format) and
/// then cloned per tenant stream — cloning forks the full core state at
/// memcpy speed, far cheaper than re-parsing the snapshot word stream per
/// stream.
type WarmPool = HashMap<String, Cpu>;

/// Warms one core per distinct registry program name (sequentially, before
/// the shard fan-out, so the pool is identical at any thread count): the
/// representative is fast-forwarded through half the stream budget and
/// snapshotted. That prefix then counts against every forked stream's
/// retirement budget (see [`run_shard`]), so half of each tenant's
/// instructions retire once per class at functional speed instead of per
/// stream at detailed speed. Programs that finish inside the warm-up budget
/// stay cold — they are cheap to run exactly, and a fully retired core has
/// nothing left to sample.
fn build_warm_pool(cfg: &FleetConfig, cpu_cfg: &CpuConfig) -> WarmPool {
    let warm = cfg.max_instrs / 2;
    let mut pool = WarmPool::new();
    if warm == 0 {
        return pool;
    }
    for id in 0..cfg.n_streams {
        let (program, _) = stream_program(id, cfg);
        if pool.contains_key(program.name()) {
            continue;
        }
        let mut cpu = Cpu::new(cpu_cfg.clone());
        if cpu.fast_forward(&program, warm) < warm {
            continue;
        }
        let snap = cpu.snapshot();
        if let Ok(template) = Cpu::restore(cpu_cfg.clone(), &snap) {
            pool.insert(program.name().to_string(), template);
        }
    }
    pool
}

/// What one shard hands back: outcomes, window→verdict latencies, and the
/// CPU nanoseconds spent stepping cores and verdicting windows.
type ShardResult = (Vec<StreamOutcome>, Vec<u64>, u64, u64);

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Runs one shard to completion, one stream at a time: each stream's core
/// is built (forked from its class's warm template when the pool has one,
/// cold otherwise), run to the end of its budget with every window verdicted
/// the moment it is produced, and dropped before the next stream starts. At
/// most one core per worker is live.
fn run_shard(
    indices: &[usize],
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    mut step: VerdictStep<'_>,
    pool: &WarmPool,
) -> ShardResult {
    let mut raw = vec![0.0f64; evax_sim::dim_for(cpu_cfg)];
    let mut latencies: Vec<u64> = Vec::new();
    // Sim-vs-verdict CPU split. Pure observability — never branches behavior.
    let mut sim_ns = 0u64;
    let mut infer_ns = 0u64;
    let outcomes = indices
        .iter()
        .map(|&id| {
            let (program, class_label) = stream_program(id, cfg);
            let mut cpu = match pool.get(program.name()) {
                Some(template) => template.clone(),
                None => Cpu::new(cpu_cfg.clone()),
            };
            // `max_instrs` is the stream's total retirement budget:
            // instructions the warm template already retired functionally
            // (once per program class, at fast-forward speed) are not re-run
            // on the detailed core per stream — that amortization is what
            // makes warm-start a throughput win.
            let budget = cfg.max_instrs.saturating_sub(cpu.stats().committed_insts);
            let mut cursor = cpu.begin_sampled(budget, cfg.adaptive.sample_interval);
            let mut state = SecureModeState::default();
            let mut windows = 0;
            let result = loop {
                let t0 = Instant::now();
                let produced = cursor.next_window_into(&mut cpu, &program, &mut raw);
                sim_ns += elapsed_ns(t0);
                match produced {
                    SampledStep::Window { cycle, .. } => {
                        windows += 1;
                        let t0 = Instant::now();
                        if let Some(mode) = step.apply(&mut state, &raw, cycle, &cfg.adaptive) {
                            cpu.set_mitigation(mode);
                        }
                        let ns = elapsed_ns(t0);
                        latencies.push(ns);
                        infer_ns += ns;
                    }
                    SampledStep::Done(result) => break *result,
                }
            };
            StreamOutcome {
                stream_id: id,
                class_label,
                windows,
                flags: state.flags,
                fail_secure_switches: state.fail_secure_switches,
                first_flag_cycle: state.first_flag_cycle,
                secure_instructions: state.secure_instructions,
                committed_instructions: result.committed_instructions,
                cycles: result.cycles,
            }
        })
        .collect();
    (outcomes, latencies, sim_ns, infer_ns)
}

/// Runs the whole fleet: `cfg.n_streams` tenant streams, round-robin
/// sharded over `cfg.n_shards` shards, shards fanned out across `par`.
///
/// The featurizer must share the detector's engineered-feature chain
/// (`featurizer.feature_dim() == detector.extended_dim()`), as produced by
/// one `EvaxPipeline`; scores are then bit-identical to the single-stream
/// `AdaptiveController` path.
///
/// # Panics
/// Panics on a degenerate configuration (zero streams, zero sampling
/// interval) or a featurizer/detector dimension mismatch.
pub fn run_fleet(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    parallelism: Parallelism,
) -> FleetReport {
    match cfg.inference {
        InferenceMode::F32 => run_fleet_with_model(cfg, cpu_cfg, featurizer, detector, parallelism),
        InferenceMode::Quant => {
            let quant = detector.quantize_linear();
            run_fleet_with_model(cfg, cpu_cfg, featurizer, &quant, parallelism)
        }
    }
}

/// [`run_fleet`] with an explicit scoring model: any [`ModelDetector`]
/// whose feature dimension matches the featurizer — including hardened
/// variants ([`evax_nn::StochasticDetector`], [`evax_nn::Ensemble`]) that
/// have no [`InferenceMode`] of their own. `cfg.inference` only labels the
/// report.
///
/// # Panics
/// Panics on a degenerate configuration or a featurizer/model dimension
/// mismatch.
pub fn run_fleet_with_model(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    featurizer: &Featurizer,
    model: &dyn ModelDetector,
    parallelism: Parallelism,
) -> FleetReport {
    assert!(cfg.n_streams > 0, "fleet needs at least one stream");
    assert!(
        cfg.adaptive.sample_interval > 0,
        "sampling interval must be positive"
    );
    // Schema negotiation: the featurizer refuses windows from a core whose
    // sensor configuration produces a different counter schema (typed
    // `EvaxError::Config` context instead of a slice-length panic mid-run).
    if let Err(e) = featurizer.check_config(cpu_cfg) {
        panic!("fleet schema negotiation failed: {e}");
    }
    let step = VerdictStep::new(featurizer.clone(), model);
    // Warm the per-program snapshot pool sequentially before the fan-out:
    // every shard forks tenant cores from the same snapshots, so warm-start
    // runs stay bit-identical at any thread count.
    let pool = if cfg.warm_start {
        build_warm_pool(cfg, cpu_cfg)
    } else {
        WarmPool::new()
    };
    let shards = round_robin_shards(cfg.n_streams, cfg.n_shards.max(1));
    let shard_results = par::map(parallelism, &shards, |indices| {
        run_shard(indices, cfg, cpu_cfg, step.clone(), &pool)
    });
    let mut outcomes: Vec<StreamOutcome> = Vec::with_capacity(cfg.n_streams);
    let mut latencies: Vec<u64> = Vec::new();
    let mut sim_ns = 0u64;
    let mut inference_ns = 0u64;
    for (o, l, s, i) in shard_results {
        outcomes.extend(o);
        latencies.extend(l);
        sim_ns += s;
        inference_ns += i;
    }
    outcomes.sort_by_key(|o| o.stream_id);
    FleetReport {
        outcomes,
        latencies_ns: latencies,
        full_flushes: 0,
        tail_flushes: 0,
        sim_ns,
        inference_ns,
        inference: cfg.inference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_core::collect::{collect_dataset, CollectConfig};
    use evax_core::prelude::{DetectorKind, DetectorScratch, Normalizer, TrainConfig};

    fn trained(seed: u64) -> (Detector, Normalizer) {
        let cfg = CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        };
        let (ds, norm) = collect_dataset(&cfg, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &TrainConfig::default(),
            &mut rng,
        );
        det.tune_for_tpr(&ds, 0.99);
        (det, norm)
    }

    fn small_cfg(inference: InferenceMode) -> FleetConfig {
        FleetConfig {
            n_streams: 24,
            attack_every: 3,
            max_instrs: 2_000,
            adaptive: AdaptiveConfig {
                sample_interval: 200,
                secure_window: 1_000,
                ..AdaptiveConfig::default()
            },
            n_shards: 4,
            inference,
            seed: 11,
            warm_start: false,
        }
    }

    #[test]
    fn deterministic_block_is_byte_identical_across_thread_counts() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::F32);
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(1));
        for threads in [2usize, 4, 16] {
            let r = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(threads));
            assert_eq!(
                base.deterministic_json(),
                r.deterministic_json(),
                "fleet verdicts must not depend on thread count ({} threads)",
                threads
            );
        }
    }

    #[test]
    #[should_panic(expected = "schema negotiation")]
    fn fleet_refuses_mismatched_sensor_schema() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        // The featurizer was fitted on baseline-133 windows; an
        // energy-enabled core produces a wider schema and must be refused
        // up front (typed Config context), not by a slice panic mid-run.
        let cpu_cfg = CpuConfig {
            sensor: evax_sim::SensorConfig::builder()
                .energy(true)
                .build()
                .unwrap(),
            ..CpuConfig::default()
        };
        run_fleet(
            &small_cfg(InferenceMode::F32),
            &cpu_cfg,
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
    }

    #[test]
    fn fleet_flags_attack_streams_and_accounts_every_window() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::F32);
        let report = run_fleet(
            &cfg,
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        assert_eq!(report.outcomes.len(), cfg.n_streams);
        assert!(report.windows() > 0, "streams must produce windows");
        assert!(
            report.flagged_attack_streams() > 0,
            "a 99%-TPR detector must flag some attack streams"
        );
        // Every produced window gets exactly one verdict (and one latency
        // sample).
        assert_eq!(report.latencies_ns.len() as u64, report.windows());
        // Stream outcomes come back in stream-id order regardless of
        // sharding.
        assert!(report
            .outcomes
            .windows(2)
            .all(|w| w[0].stream_id < w[1].stream_id));
    }

    #[test]
    fn warm_start_fleet_is_deterministic_and_covers_every_stream() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = FleetConfig {
            warm_start: true,
            ..small_cfg(InferenceMode::F32)
        };
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(1));
        assert_eq!(base.outcomes.len(), cfg.n_streams);
        assert!(base.windows() > 0);
        // Every window still gets exactly one verdict.
        assert_eq!(base.latencies_ns.len() as u64, base.windows());
        // Forking from the shared snapshot pool must not break the
        // thread-count determinism contract.
        for threads in [4usize, 16] {
            let r = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(threads));
            assert_eq!(base.deterministic_json(), r.deterministic_json());
        }
        // Warm streams run on pre-touched caches/predictors, so their cycle
        // totals should differ from a cold fleet (the snapshot actually
        // changed microarchitectural state).
        let cold = run_fleet(
            &small_cfg(InferenceMode::F32),
            &cpu_cfg,
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
        assert_eq!(cold.outcomes.len(), base.outcomes.len());
        assert_ne!(
            base.outcomes.iter().map(|o| o.cycles).sum::<u64>(),
            cold.outcomes.iter().map(|o| o.cycles).sum::<u64>(),
            "warm-start must change timing-visible state"
        );
    }

    #[test]
    fn quantized_mode_runs_the_fleet_with_bounded_divergence() {
        let (det, norm) = trained(9);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let f32_report = run_fleet(
            &small_cfg(InferenceMode::F32),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        let q_report = run_fleet(
            &small_cfg(InferenceMode::Quant),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        assert_eq!(q_report.outcomes.len(), f32_report.outcomes.len());
        assert_eq!(q_report.windows(), f32_report.windows());
        assert!(
            q_report.flagged_attack_streams() > 0,
            "quantized detector must still flag attacks"
        );
    }

    /// Scores every row NaN: no verdict of this model can be trusted.
    #[derive(Debug, Clone)]
    struct NanScorer(usize);

    impl ModelDetector for NanScorer {
        fn n_features(&self) -> usize {
            self.0
        }
        fn threshold(&self) -> f32 {
            0.0
        }
        fn kind(&self) -> &'static str {
            "nan-scorer"
        }
        fn score_into(&self, x: &[f32], _scratch: &mut DetectorScratch) -> f32 {
            assert_eq!(x.len(), self.0, "row width");
            f32::NAN
        }
        fn save_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn clone_box(&self) -> Box<dyn ModelDetector> {
            Box::new(self.clone())
        }
    }

    /// Fail-secure gate #2 in the fleet: a non-finite score engages secure
    /// mode on every window instead of comparing false against the
    /// threshold (failing open).
    #[test]
    fn non_finite_scores_fail_secure_on_every_window() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let nan = NanScorer(feat.feature_dim());
        let report = run_fleet_with_model(
            &small_cfg(InferenceMode::F32),
            &CpuConfig::default(),
            &feat,
            &nan,
            Parallelism::Fixed(2),
        );
        assert!(report.windows() > 0, "streams must produce windows");
        assert_eq!(report.fail_secure_switches(), report.windows());
        assert_eq!(report.flags(), 0, "fail-secure switches are not flags");
        for o in &report.outcomes {
            assert!(
                o.secure_instructions > 0,
                "stream {} never ran in secure mode",
                o.stream_id
            );
        }
    }

    /// Hardened variants ride the same verdict step: a zero-jitter stochastic
    /// wrapper is byte-identical to the plain f32 fleet, and a mixed
    /// committee still flags attacks under the thread-count contract.
    #[test]
    fn hardened_models_drive_the_fleet() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::F32);
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(2));

        // jitter = 0 pins the stochastic wrapper to the base perceptron
        // bitwise (w * (1 + 0*eps) == w exactly in IEEE 754).
        let frozen = det.harden_stochastic(0xD1CE, 0.0);
        let via_frozen =
            run_fleet_with_model(&cfg, &cpu_cfg, &feat, &frozen, Parallelism::Fixed(2));
        assert_eq!(
            base.deterministic_json(),
            via_frozen.deterministic_json(),
            "zero-jitter stochastic model must match the plain fleet byte-for-byte"
        );

        // A mixed committee (f32 + jittered + 9-bit integer member) has no
        // InferenceMode of its own but scores through the same step.
        let committee = evax_nn::Ensemble::new(vec![
            Box::new(det.to_model()),
            Box::new(det.harden_stochastic(7, 0.02)),
            Box::new(det.quantize_linear()),
        ]);
        let ens = run_fleet_with_model(&cfg, &cpu_cfg, &feat, &committee, Parallelism::Fixed(1));
        assert_eq!(ens.outcomes.len(), cfg.n_streams);
        assert_eq!(ens.windows(), base.windows());
        assert!(
            ens.flagged_attack_streams() > 0,
            "the committee must still flag attack streams"
        );
        for threads in [4usize, 16] {
            let r = run_fleet_with_model(
                &cfg,
                &cpu_cfg,
                &feat,
                &committee,
                Parallelism::Fixed(threads),
            );
            assert_eq!(
                ens.deterministic_json(),
                r.deterministic_json(),
                "committee verdicts must not depend on thread count ({} threads)",
                threads
            );
        }
    }
}

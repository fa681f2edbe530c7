//! Sample collection: run attack/benign programs on the simulator, sample
//! all counters every N committed instructions, normalize by running max.
//!
//! Paper §VII: "We have extended our framework to collect statistics once
//! every 100,000, 10,000, 1000 and 100 instructions ... Contrary to typical
//! architectural studies, we generate many more, smaller simpoints of benign
//! codes, since we need to train to detect short patterns quickly."
//!
//! Collection rides the unified streaming featurization pipeline
//! ([`crate::featurize`]) and simulates every run **once**. A global-max
//! normalizer cannot emit a sample before every window has been seen, so
//! each run's sink folds its windows into per-run [`StreamStats`] and also
//! *parks* them raw in the `f32` feature slots of the samples they will
//! become. Almost every counter is an integer delta that `f32` holds
//! exactly; the few values that do not survive the `f64 → f32` round trip
//! bit for bit (the ratio columns, in practice) are spilled beside the run
//! as `f64`. Once the per-run statistics have merged in canonical order,
//! each parked window is rebuilt exactly and normalized in place, so every
//! sample is bitwise what [`DatasetSink`] emits. Peak memory is the output
//! dataset plus the spilled values — no raw `f64` window matrix is ever
//! materialized.

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_obs::MetricsSink;
use evax_sim::{CpuConfig, MitigationMode, Program, SampleSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, Normalizer, Sample, BENIGN_CLASS};
use crate::featurize::{
    CollectingSink, DatasetSink, ProgramSource, RawWindow, StreamStats, WindowSink, WindowSource,
};
use crate::par::{self, Parallelism};

/// Collection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectConfig {
    /// Sampling interval in committed instructions (paper: 100–100k).
    pub interval: u64,
    /// Program runs per attack class.
    pub runs_per_attack: usize,
    /// Program runs per benign kind (paper: "many more, smaller simpoints").
    pub runs_per_benign: usize,
    /// Instruction budget per run.
    pub max_instrs: u64,
    /// Benign workload scale (dynamic instructions per program).
    pub benign_scale: u64,
    /// Worker threads for the simulation fan-out. Collection is
    /// bit-deterministic at any setting (see [`crate::par`]).
    pub parallelism: Parallelism,
    /// Fast-forward interval schedule. The default (all-detailed) keeps
    /// collection bitwise-identical to the historical behavior; a nonzero
    /// `warmup_instrs` fast-forwards between sampling windows for large
    /// corpus-throughput gains at the cost of approximate windows.
    pub schedule: SampleSchedule,
    /// Simulated core configuration for every run. The default is
    /// bit-compatible with the historical hard-coded
    /// `CpuConfig::default()`; enabling the energy sensor here widens the
    /// collected windows (the dataset dimension follows
    /// `FeatureSchema::for_config(&cpu)`).
    pub cpu: CpuConfig,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            interval: 100,
            runs_per_attack: 4,
            runs_per_benign: 8,
            max_instrs: 12_000,
            benign_scale: 12_000,
            parallelism: Parallelism::Auto,
            schedule: SampleSchedule::default(),
            cpu: CpuConfig::default(),
        }
    }
}

/// Collects the raw (unnormalized) HPC windows for one program.
///
/// Diagnostic/figure helper over the shared streaming source — the
/// production collection path never materializes windows like this.
pub fn raw_windows(program: &Program, cfg: &CollectConfig, cpu_cfg: &CpuConfig) -> Vec<Vec<f64>> {
    let mut sink = CollectingSink::new();
    ProgramSource::new(program, cpu_cfg, cfg.interval, cfg.max_instrs)
        .with_schedule(cfg.schedule)
        .stream(&mut sink);
    sink.into_windows()
}

/// One unit of collection work: a single program run with its own
/// pre-assigned random stream.
enum RunSpec {
    /// One attack-kernel run (`run` indexes the per-class jitter schedule).
    Attack { class: AttackClass, run: usize },
    /// One benign-workload run.
    Benign { kind: BenignKind },
}

/// Builds the program and label for one run. Construction is a pure
/// function of `(spec, child_seed)`, so a run's program does not depend on
/// which worker builds it.
fn build_run(spec: &RunSpec, child_seed: u64, cfg: &CollectConfig) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(child_seed);
    match spec {
        RunSpec::Attack { class, run } => {
            // Enough attack rounds to fill the instruction budget, so
            // every class yields a comparable number of windows
            // (short kernels like LVI would otherwise contribute
            // almost no samples).
            let params = KernelParams {
                seed: rng.gen(),
                iterations: 150 + (*run as u32 % 4) * 75,
                ..Default::default()
            };
            (build_attack(*class, &params, &mut rng), class.label())
        }
        RunSpec::Benign { kind } => (
            build_benign(*kind, Scale(cfg.benign_scale), &mut rng),
            BENIGN_CLASS,
        ),
    }
}

/// The canonical work list: every attack class plus every benign kind, with
/// per-run child seeds drawn from the master RNG in canonical run order.
fn run_specs(cfg: &CollectConfig, seed: u64) -> Vec<(RunSpec, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs: Vec<(RunSpec, u64)> = Vec::new();
    for class in evax_attacks::ATTACK_CLASSES {
        for run in 0..cfg.runs_per_attack {
            runs.push((RunSpec::Attack { class, run }, rng.gen()));
        }
    }
    for kind in evax_attacks::BENIGN_KINDS {
        for _ in 0..cfg.runs_per_benign {
            runs.push((RunSpec::Benign { kind }, rng.gen()));
        }
    }
    runs
}

/// A full labeled collection run: every attack class plus every benign kind,
/// with per-run parameter jitter so samples are not identical.
///
/// Runs fan out across `cfg.parallelism` worker threads; every run's random
/// stream is a child seed drawn from the master RNG in canonical run order
/// before the fan-out, per-stream statistics and samples are merged back in
/// that same order, so the result is **bit-identical at any thread count**
/// (see [`crate::par`]).
///
/// Returns the dataset (normalized) and the full streaming statistics
/// (maxima for the [`Normalizer`], Welford mean/variance) fitted over every
/// raw window.
pub fn collect_dataset_stats(cfg: &CollectConfig, seed: u64) -> (Dataset, StreamStats) {
    collect_dataset_stats_with(cfg, seed, &MetricsSink::default())
}

/// [`collect_dataset_stats`] with observability: each worker records into a
/// private [`MetricsSink::fork`] (the thread-local-recorder discipline),
/// and forks are absorbed back in canonical run order alongside the
/// `StreamStats` merge — so `metrics`' deterministic export is
/// byte-identical at any thread count. With the default no-op sink this is
/// exactly [`collect_dataset_stats`].
pub fn collect_dataset_stats_with(
    cfg: &CollectConfig,
    seed: u64,
    metrics: &MetricsSink,
) -> (Dataset, StreamStats) {
    let runs = run_specs(cfg, seed);
    let parked = par::map(cfg.parallelism, &runs, |(spec, child_seed)| {
        let (program, label) = build_run(spec, *child_seed, cfg);
        park_run(&program, label, cfg, metrics)
    });
    normalize_parked(parked, evax_sim::dim_for(&cfg.cpu), metrics)
}

/// Collects a prebuilt labeled corpus — `(class, program)` pairs — the way
/// [`collect_dataset_stats`] collects the attack/benign registry: every run
/// on a fresh core under `cfg`'s interval, budget, schedule and core
/// configuration, fanned out across `cfg.parallelism`, with per-run
/// statistics and samples merged in corpus order (bit-identical at any
/// thread count). `cfg`'s run counts and benign scale are unused.
pub fn collect_corpus_stats(
    corpus: &[(usize, Program)],
    cfg: &CollectConfig,
) -> (Dataset, StreamStats) {
    let metrics = MetricsSink::default();
    let parked = par::map(cfg.parallelism, corpus, |(class, program)| {
        park_run(program, *class, cfg, &metrics)
    });
    normalize_parked(parked, evax_sim::dim_for(&cfg.cpu), &metrics)
}

/// Marks a feature slot whose raw value was spilled. No raw value is parked
/// inline as a NaN, so any NaN slot is a marker, whatever its payload.
const SPILLED: f32 = f32::NAN;

/// One run's windows, simulated once and parked raw until the corpus
/// maxima are known (see the module docs).
struct ParkedRun {
    stats: StreamStats,
    /// Feature slots hold the raw values, or [`SPILLED`] where the value
    /// is in `spill`.
    samples: Vec<Sample>,
    /// Raw values that `f32` cannot hold exactly, in window/column order.
    spill: Vec<f64>,
    metrics: MetricsSink,
}

/// The single-pass collection sink: fits the run's [`StreamStats`] and
/// parks every window's raw values in one pre-sized row buffer. Samples are
/// built from the buffer only after the run (and its core) is finished, so
/// their allocations never interleave with the simulator's.
struct ParkingSink {
    stats: StreamStats,
    rows: Vec<f32>,
    spill: Vec<f64>,
}

impl ParkingSink {
    /// A sink for `dim`-wide windows with room for `windows` of them.
    fn new(dim: usize, windows: usize) -> Self {
        ParkingSink {
            stats: StreamStats::new(dim),
            rows: Vec::with_capacity(windows * dim),
            spill: Vec::new(),
        }
    }

    /// Splits the parked rows into `class`-labeled samples.
    fn into_run(mut self, class: usize, metrics: MetricsSink) -> ParkedRun {
        let dim = self.stats.dim();
        // The spill lives until the whole corpus is in: drop its growth slack.
        self.spill.shrink_to_fit();
        ParkedRun {
            samples: self
                .rows
                .chunks_exact(dim)
                .map(|row| Sample::new(row.to_vec(), class))
                .collect(),
            stats: self.stats,
            spill: self.spill,
            metrics,
        }
    }
}

impl WindowSink for ParkingSink {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        // A non-finite window is rejected by the fit but still becomes a
        // (saturated) sample, exactly as `DatasetSink` emits it.
        self.stats.observe(w.values);
        for &v in w.values {
            let slot = v as f32;
            if !v.is_nan() && f64::from(slot).to_bits() == v.to_bits() {
                self.rows.push(slot);
            } else {
                self.rows.push(SPILLED);
                self.spill.push(v);
            }
        }
        None
    }
}

/// Simulates one run once, fitting its statistics and parking its windows.
fn park_run(
    program: &Program,
    class: usize,
    cfg: &CollectConfig,
    metrics: &MetricsSink,
) -> ParkedRun {
    // Room for every window the budget allows, capped so a huge budget
    // cannot reserve unbounded memory up front.
    let windows = (cfg.max_instrs / cfg.interval.max(1)).min(1 << 14) as usize + 1;
    let mut sink = ParkingSink::new(evax_sim::dim_for(&cfg.cpu), windows);
    let local = metrics.fork();
    ProgramSource::new(program, &cfg.cpu, cfg.interval, cfg.max_instrs)
        .with_schedule(cfg.schedule)
        .with_metrics(local.clone())
        .stream(&mut sink);
    sink.into_run(class, local)
}

/// Merges the runs' statistics in canonical order, then rebuilds every
/// parked window's exact raw row and normalizes it in place.
fn normalize_parked(
    runs: Vec<ParkedRun>,
    dim: usize,
    metrics: &MetricsSink,
) -> (Dataset, StreamStats) {
    let mut stats = StreamStats::new(dim);
    for run in &runs {
        stats.merge(&run.stats);
        metrics.absorb(&run.metrics);
    }
    let norm = stats.normalizer();
    metrics.add("collect.runs", runs.len() as u64);
    let mut samples = Vec::with_capacity(runs.iter().map(|r| r.samples.len()).sum());
    let mut raw = vec![0.0f64; dim];
    for run in runs {
        let mut spill = run.spill.into_iter();
        for mut sample in run.samples {
            for (r, &f) in raw.iter_mut().zip(&sample.features) {
                *r = if f.is_nan() {
                    spill.next().expect("one spilled value per marked slot")
                } else {
                    f64::from(f)
                };
            }
            norm.normalize_into(&raw, &mut sample.features);
            samples.push(sample);
        }
        debug_assert!(spill.next().is_none(), "unclaimed spilled values");
    }
    metrics.add("collect.samples", samples.len() as u64);
    (Dataset { samples }, stats)
}

/// [`collect_dataset_stats`], returning just the fitted normalizer (the
/// historical interface; byte-identical output).
pub fn collect_dataset(cfg: &CollectConfig, seed: u64) -> (Dataset, Normalizer) {
    let (ds, stats) = collect_dataset_stats(cfg, seed);
    let norm = stats.normalizer();
    (ds, norm)
}

/// Collects samples for a single prebuilt program under an existing
/// normalizer (used for evasive corpora and detector deployment). Streams
/// each window straight into its normalized sample.
pub fn collect_program(
    program: &Program,
    class: usize,
    cfg: &CollectConfig,
    norm: &Normalizer,
) -> Vec<Sample> {
    let cpu_cfg = cfg.cpu.clone();
    let mut sink = DatasetSink::new(norm, class);
    ProgramSource::new(program, &cpu_cfg, cfg.interval, cfg.max_instrs)
        .with_schedule(cfg.schedule)
        .stream(&mut sink);
    sink.into_dataset().samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> CollectConfig {
        CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            parallelism: Parallelism::serial(),
            ..Default::default()
        }
    }

    #[test]
    fn collection_produces_labeled_normalized_samples() {
        let (ds, norm) = collect_dataset(&tiny(), 7);
        assert!(ds.len() > 100, "got {} samples", ds.len());
        assert_eq!(ds.feature_dim(), evax_sim::HPC_BASE_DIM);
        assert_eq!(norm.dim(), evax_sim::HPC_BASE_DIM);
        assert!(ds.n_malicious() > 0 && ds.n_benign() > 0);
        for s in &ds.samples {
            assert!(s.features.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn stats_cover_every_window() {
        let (ds, stats) = collect_dataset_stats(&tiny(), 7);
        assert_eq!(stats.count(), ds.len() as u64);
        assert_eq!(stats.dim(), evax_sim::HPC_BASE_DIM);
        // Welford means of |x| are bounded by the fitted maxima.
        for i in 0..stats.dim() {
            assert!(stats.means()[i].abs() <= stats.normalizer().maxima()[i] + 1e-12);
        }
    }

    #[test]
    fn attack_and_benign_windows_differ() {
        let (ds, _) = collect_dataset(&tiny(), 8);
        // Mean squashed-work feature should be higher for attacks.
        let idx = evax_sim::hpc_index("iew.ExecSquashedInsts").unwrap();
        let mean = |malicious: bool| -> f32 {
            let xs: Vec<f32> = ds
                .samples
                .iter()
                .filter(|s| s.malicious == malicious)
                .map(|s| s.features[idx])
                .collect();
            xs.iter().sum::<f32>() / xs.len().max(1) as f32
        };
        assert!(
            mean(true) > mean(false),
            "attacks should squash more: {} vs {}",
            mean(true),
            mean(false)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = collect_dataset(&tiny(), 9);
        let (b, _) = collect_dataset(&tiny(), 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.samples[0], b.samples[0]);
    }

    /// Feeds each run's windows through a [`ParkingSink`] and
    /// [`normalize_parked`], and through the two-pass reference — per-run
    /// [`StreamStats`] merged in order, then a [`DatasetSink`] per run —
    /// and requires the same statistics and bitwise-identical samples.
    fn assert_parking_matches_two_pass(dim: usize, runs: &[Vec<Vec<f64>>]) -> Dataset {
        fn window(values: &[f64]) -> RawWindow<'_> {
            RawWindow {
                values,
                instructions: 0,
                cycle: 0,
            }
        }
        let class = |run: usize| run % 3;
        let parked = runs
            .iter()
            .enumerate()
            .map(|(i, windows)| {
                // Room for one window, so the row buffer also has to grow.
                let mut sink = ParkingSink::new(dim, 1);
                for w in windows {
                    assert_eq!(sink.window(&window(w)), None);
                }
                sink.into_run(class(i), MetricsSink::default())
            })
            .collect();
        let (ds, stats) = normalize_parked(parked, dim, &MetricsSink::default());

        let mut want_stats = StreamStats::new(dim);
        for windows in runs {
            let mut run_stats = StreamStats::new(dim);
            for w in windows {
                run_stats.observe(w);
            }
            want_stats.merge(&run_stats);
        }
        let norm = want_stats.normalizer();
        let mut want = Dataset::new();
        for (i, windows) in runs.iter().enumerate() {
            let mut sink = DatasetSink::new(&norm, class(i));
            for w in windows {
                sink.window(&window(w));
            }
            want.extend(sink.into_dataset());
        }

        assert_eq!(format!("{stats:?}"), format!("{want_stats:?}"));
        assert_eq!(ds.len(), want.len());
        for (i, (got, want)) in ds.samples.iter().zip(&want.samples).enumerate() {
            assert_eq!(got.class, want.class, "sample {i}");
            let bits = |s: &Sample| s.features.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "sample {i}");
        }
        ds
    }

    /// Values that stress the parking: NaNs with payloads (and the marker
    /// itself), infinities, signed zeros, subnormals of both widths,
    /// integers past `f32`'s exact range and non-integer ratios.
    #[test]
    fn parking_is_exact_on_special_values() {
        let specials = [
            f64::from_bits(0x7ff0_0000_dead_beef),
            f64::from_bits(0xfff8_0000_0000_0042),
            f64::from(SPILLED),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            f64::from(f32::from_bits(1)),
            16_777_217.0,
            -9_007_199_254_740_993.0,
            1.0 / 3.0,
            0.1,
            0.5,
            255.0,
        ];
        let dim = 4;
        let mut windows: Vec<Vec<f64>> = specials.chunks(dim).map(<[f64]>::to_vec).collect();
        windows.push(vec![1.0, 2.0, 3.0, 4.0]);
        windows.push(vec![0.25, -7.0, 1e300, 2e-310]);
        let runs = vec![windows[..3].to_vec(), Vec::new(), windows[3..].to_vec()];
        let ds = assert_parking_matches_two_pass(dim, &runs);

        // Rejected by the fit, yet still a sample, saturated where the raw
        // value was not finite.
        assert_eq!(ds.samples[0].features[..3], [1.0; 3]);
        assert_eq!(ds.samples[1].features[..2], [1.0; 2]);
        assert_eq!(ds.len(), windows.len());
    }

    fn raw_value() -> impl Strategy<Value = f64> {
        (0u8..9, any::<u64>()).prop_map(|(kind, bits)| match kind {
            0 => f64::from_bits(bits),
            1 => f64::from_bits(bits | 0x7ff0_0000_0000_0001),
            2 => f64::INFINITY.copysign(bits as i64 as f64),
            3 => 0.0f64.copysign(bits as i64 as f64),
            4 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
            5 => ((1u64 << 24) + bits % (1 << 40)) as f64,
            6 => (bits % 4096) as f64,
            7 => (bits % 10_000) as f64 / ((bits >> 32) % 997 + 1) as f64,
            _ => f64::from(f32::from_bits(bits as u32)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parking_matches_two_pass(
            runs in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(raw_value(), 5), 0..6),
                1..4,
            ),
        ) {
            assert_parking_matches_two_pass(5, &runs);
        }
    }

    /// FNV-1a over every sample's class and feature bits, then the full
    /// statistics (`Debug` prints every accumulator, each `f64` in a
    /// round-trip-exact form).
    fn collection_digest(ds: &Dataset, stats: &StreamStats) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(&(ds.len() as u64).to_le_bytes());
        for s in &ds.samples {
            eat(&(s.class as u64).to_le_bytes());
            for f in &s.features {
                eat(&f.to_bits().to_le_bytes());
            }
        }
        eat(format!("{stats:?}").as_bytes());
        h
    }

    /// Collection pinned by value: the dataset and the statistics of a
    /// small registry corpus at 1, 2 and 4 threads.
    #[test]
    fn collection_is_pinned_by_value() {
        for threads in [1, 2, 4] {
            let cfg = CollectConfig {
                parallelism: Parallelism::Fixed(threads),
                ..tiny()
            };
            let (ds, stats) = collect_dataset_stats(&cfg, 5);
            assert_eq!(ds.len(), 405, "threads={threads}");
            assert_eq!(
                collection_digest(&ds, &stats),
                0x2af4_35d6_1d6b_6ae2,
                "threads={threads}"
            );
        }
    }

    /// The tentpole contract: the whole dataset (every sample, in order) and
    /// the fitted normalizer are byte-identical whether collection ran on
    /// one thread or many — including more threads than this machine has
    /// cores.
    #[test]
    fn parallel_collection_matches_serial_bitwise() {
        let serial = tiny();
        let (a, stats_a) = collect_dataset_stats(&serial, 11);
        for threads in [2, 4, 7] {
            let parallel = CollectConfig {
                parallelism: Parallelism::Fixed(threads),
                ..serial.clone()
            };
            let (b, stats_b) = collect_dataset_stats(&parallel, 11);
            assert_eq!(a.samples, b.samples, "threads={threads}");
            // The full streaming statistics — maxima *and* Welford
            // mean/variance — are bit-identical, because per-stream stats
            // merge in canonical stream order regardless of thread count.
            assert_eq!(stats_a, stats_b, "threads={threads}");
        }
    }
}

//! Shared pieces: run context, metric lists, correctness gates, statistics
//! and the modelled-counter tally.

use std::time::Instant;

use evax_sim::Cpu;

use crate::trace::{Layer, Recorder};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fixed worker-thread count for every parallel call.
    pub threads: usize,
    /// Set-up repetitions (the reported `setup_s` is their median).
    pub setup_reps: usize,
}

/// Named metrics with units, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Correctness gates: any failure makes the run incorrect. Each distinct
/// failure is kept once, however many passes repeat it.
#[derive(Debug, Default)]
pub struct Gates(pub Vec<String>);

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if !self.0.contains(&msg) {
                eprintln!("[perfbench] gate failed: {msg}");
                self.0.push(msg);
            }
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Operations attempted and failed (the `error_rate` base).
    pub attempted: u64,
    pub failed: u64,
    pub gates: Gates,
    /// Extra environment entries (repetitions, cache state, sizes).
    pub env: Vec<(&'static str, String)>,
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Puts `wall_s` (the median pass wall time) and its quartiles over the
/// run's passes; returns the median.
pub fn put_wall(m: &mut Metrics, walls: &[f64]) -> f64 {
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted[((p * (sorted.len() - 1) as f64).round()) as usize];
    let wall = median(walls);
    m.put("wall_s", wall, "s");
    m.put("wall_s_q1", q(0.25), "s");
    m.put("wall_s_q3", q(0.75), "s");
    wall
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of nothing");
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.eat(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Runs `f` `reps` times; returns the first result, every result's digest
/// (for the determinism gate) and the median wall time in seconds.
pub fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> T,
    digest: impl Fn(&T) -> u64,
) -> (T, Vec<u64>, f64) {
    let mut first = None;
    let mut digests = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        digests.push(digest(&r));
        first.get_or_insert(r);
    }
    (first.expect("at least one set-up"), digests, median(&times))
}

/// Calls `pass` until `seconds` have elapsed and at least `min_passes`
/// passes ran; returns every pass result with its wall time.
pub fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = pass();
        out.push((r, t0.elapsed().as_secs_f64()));
    }
    out
}

/// Simulated (modelled) counters summed over finished cores. All integer,
/// so they repeat exactly for a seed under any host-speed change.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Model {
    pub committed: u64,
    pub cycles: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub bp_predicted: u64,
    pub bp_incorrect: u64,
    pub fetched: u64,
    pub squashed: u64,
    pub secure: u64,
}

impl Model {
    /// Adds one finished core: `committed`/`cycles` come from its
    /// `RunResult`, the rest from the core's own statistics.
    pub fn add_core(&mut self, cpu: &Cpu, committed: u64, cycles: u64) {
        let s = cpu.stats();
        let d = cpu.dcache().stats();
        let l2 = cpu.l2().stats();
        self.committed += committed;
        self.cycles += cycles;
        self.l1d_misses += d.read_misses + d.write_misses;
        self.l1d_accesses += d.read_hits + d.read_misses + d.write_hits + d.write_misses;
        self.l2_misses += l2.read_misses + l2.write_misses;
        self.l2_accesses += l2.read_hits + l2.read_misses + l2.write_hits + l2.write_misses;
        self.bp_predicted += s.bp_cond_predicted;
        self.bp_incorrect += s.bp_cond_incorrect;
        self.fetched += s.fetch_insts;
        self.squashed += s.commit_squashed_insts;
    }

    pub fn merge(&mut self, o: &Model) {
        self.committed += o.committed;
        self.cycles += o.cycles;
        self.l1d_accesses += o.l1d_accesses;
        self.l1d_misses += o.l1d_misses;
        self.l2_accesses += o.l2_accesses;
        self.l2_misses += o.l2_misses;
        self.bp_predicted += o.bp_predicted;
        self.bp_incorrect += o.bp_incorrect;
        self.fetched += o.fetched;
        self.squashed += o.squashed;
        self.secure += o.secure;
    }

    /// The `model.*` per-layer metrics.
    pub fn put(&self, m: &mut Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.put("model.committed_instrs", self.committed as f64, "count");
        m.put("model.cycles", self.cycles as f64, "count");
        m.put(
            "model.l1d.miss_rate",
            ratio(self.l1d_misses, self.l1d_accesses),
            "ratio",
        );
        m.put(
            "model.l2.miss_rate",
            ratio(self.l2_misses, self.l2_accesses),
            "ratio",
        );
        m.put(
            "model.bp.mispredict_rate",
            ratio(self.bp_incorrect, self.bp_predicted),
            "ratio",
        );
        m.put(
            "model.wrong_path_frac",
            ratio(self.squashed, self.fetched),
            "ratio",
        );
        m.put("model.secure_instrs", self.secure as f64, "count");
    }
}

/// Per-layer metrics derived from one traced pass, keyed by name; a
/// traced run reports each key's median over its traced passes.
pub fn median_metrics(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    if let Some(first) = passes.first() {
        for (name, _, unit) in &first.0 {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name)).collect();
            out.put(name, median(&values), unit);
        }
    }
    out
}

/// The per-layer metrics the fleets and collection share: program build,
/// core build and teardown, detailed simulation (per detailed instruction),
/// featurization, and the share of `wall × threads` outside every span.
pub fn put_sim_layers(
    m: &mut Metrics,
    rec: &Recorder,
    detailed_instrs: u64,
    wall: f64,
    threads: usize,
) {
    let t = rec.self_times();
    m.put("attacks.build.busy_s", t.get(Layer::AttacksBuild).0, "s");
    m.put("sim.new.count", t.get(Layer::SimNew).1 as f64, "count");
    m.put("sim.new.us_per_call", t.per_call(Layer::SimNew, 1e6), "us");
    m.put(
        "sim.drop.us_per_call",
        t.per_call(Layer::SimDrop, 1e6),
        "us",
    );
    let detailed = t.get(Layer::SimDetailed).0;
    m.put("sim.detailed.busy_s", detailed, "s");
    let per_instr = if detailed_instrs == 0 {
        0.0
    } else {
        detailed * 1e9 / detailed_instrs as f64
    };
    m.put("sim.detailed.ns_per_instr", per_instr, "ns");
    m.put("core.featurize.busy_s", t.get(Layer::CoreFeaturize).0, "s");
    m.put(
        "core.featurize.ns_per_window",
        t.per_call(Layer::CoreFeaturize, 1e9),
        "ns",
    );
    let capacity = wall * 1e9 * threads as f64;
    m.put(
        "unattributed_frac",
        1.0 - rec.root_ns() as f64 / capacity,
        "ratio",
    );
}

//! `collect`: corpus collection at the `CollectConfig::default()` shape.
//!
//! The untraced run times `collect_dataset_stats` as shipped. The traced
//! run performs the same two passes (fit, then emit) from outside through
//! public calls — registry build, `Cpu::new`, `Cpu::run_sampled_with_schedule`
//! and the `StreamStats` / `DatasetSink` window sinks — and must reproduce
//! the untraced dataset and statistics exactly.

use std::time::Instant;

use evax_attacks::benign::Scale;
use evax_attacks::{
    build_attack, build_benign, AttackClass, BenignKind, KernelParams, ATTACK_CLASSES, BENIGN_KINDS,
};
use evax_core::collect::{collect_dataset_stats, CollectConfig};
use evax_core::dataset::{Dataset, BENIGN_CLASS};
use evax_core::featurize::{DatasetSink, RawWindow, StreamStats, WindowSink};
use evax_core::par::{self, Parallelism};
use evax_sim::{Cpu, Program, RunResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    median, median_metrics, put_sim_layers, put_wall, repeated_setup, timed_passes, Ctx, Fnv,
    Metrics, Model, Outcome,
};
use crate::trace::{Layer, Recorder};

#[derive(Clone, Copy)]
enum Spec {
    Attack { class: AttackClass, run: usize },
    Benign { kind: BenignKind },
}

/// Every run of a collection with its child seed, in the order and with
/// the seeds `collect_dataset_stats` draws them.
fn run_specs(cfg: &CollectConfig, seed: u64) -> Vec<(Spec, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs = Vec::new();
    for class in ATTACK_CLASSES {
        for run in 0..cfg.runs_per_attack {
            runs.push((Spec::Attack { class, run }, rng.gen()));
        }
    }
    for kind in BENIGN_KINDS {
        for _ in 0..cfg.runs_per_benign {
            runs.push((Spec::Benign { kind }, rng.gen()));
        }
    }
    runs
}

/// One run's program and label from the public registry.
fn build_run(spec: Spec, child_seed: u64, cfg: &CollectConfig) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(child_seed);
    match spec {
        Spec::Attack { class, run } => {
            let params = KernelParams {
                seed: rng.gen(),
                iterations: 150 + (run as u32 % 4) * 75,
                ..Default::default()
            };
            (build_attack(class, &params, &mut rng), class.label())
        }
        Spec::Benign { kind } => (
            build_benign(kind, Scale(cfg.benign_scale), &mut rng),
            BENIGN_CLASS,
        ),
    }
}

/// One run of the replica: a fresh core with the kernel secret planted
/// (as the collection source plants it), every window into `sink`.
/// Returns the run result, its window count and the core's modelled
/// counters.
fn stream_run(
    program: &Program,
    cfg: &CollectConfig,
    sink: &mut dyn WindowSink,
    rec: &mut Recorder,
    id: u32,
) -> (RunResult, u64, Model) {
    let mut cpu = rec.time(Layer::SimNew, id, || Cpu::new(cfg.cpu.clone()));
    cpu.memory_mut()
        .write_u64(evax_attacks::mds::KERNEL_SECRET_ADDR, 5);
    let mut windows = 0u64;
    let open = rec.enter(Layer::SimDetailed, id);
    let result =
        cpu.run_sampled_with_schedule(program, cfg.max_instrs, cfg.interval, cfg.schedule, |s| {
            windows += 1;
            rec.time(Layer::CoreFeaturize, id, || {
                sink.window(&RawWindow {
                    values: &s.values,
                    instructions: s.instructions,
                    cycle: s.cycle,
                })
            })
        });
    rec.exit(open);
    let mut model = Model::default();
    model.add_core(&cpu, result.committed_instructions, result.cycles);
    rec.time(Layer::SimDrop, id, || drop(cpu));
    (result, windows, model)
}

fn dataset_digest(ds: &Dataset) -> u64 {
    let mut h = Fnv::default();
    h.eat(ds.len() as u64);
    for s in &ds.samples {
        h.eat(s.class as u64);
        for &f in &s.features {
            h.eat(f.to_bits() as u64);
        }
    }
    h.0
}

/// The replica's two passes and what they measured.
struct Replica {
    dataset: Dataset,
    stats: StreamStats,
    fit_s: f64,
    emit_s: f64,
    wall: f64,
    runs: u64,
    /// Runs that hit the cycle ceiling or produced no window.
    failed_runs: u64,
    /// Instructions simulated in the fit pass (one per distinct instruction).
    fit_instrs: u64,
    emit_instrs: u64,
    model: Model,
    rec: Recorder,
}

fn replica(cfg: &CollectConfig, seed: u64, traced: bool) -> Replica {
    let t0 = Instant::now();
    let base = Recorder::new(t0, traced);
    let runs: Vec<(u32, Spec, u64)> = run_specs(cfg, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (spec, child))| (i as u32, spec, child))
        .collect();
    let dim = evax_sim::dim_for(&cfg.cpu);

    let fit: Vec<_> = par::map(cfg.parallelism, &runs, |&(id, spec, child)| {
        let mut rec = base.fork();
        let (program, _) = rec.time(Layer::AttacksBuild, id, || build_run(spec, child, cfg));
        let mut stats = StreamStats::new(dim);
        let (result, windows, model) = stream_run(&program, cfg, &mut stats, &mut rec, id);
        let ceiling = !result.halted && result.committed_instructions < cfg.max_instrs;
        (stats, model, ceiling || windows == 0, rec)
    });
    let mut stats = StreamStats::new(dim);
    let mut r = Replica {
        dataset: Dataset::new(),
        stats: StreamStats::new(dim),
        fit_s: 0.0,
        emit_s: 0.0,
        wall: 0.0,
        runs: runs.len() as u64,
        failed_runs: 0,
        fit_instrs: 0,
        emit_instrs: 0,
        model: Model::default(),
        rec: base.fork(),
    };
    for (s, model, failed, rec) in fit {
        stats.merge(&s);
        r.model.merge(&model);
        r.failed_runs += failed as u64;
        r.rec.absorb(rec);
    }
    r.fit_instrs = r.model.committed;
    let norm = stats.normalizer();
    r.fit_s = t0.elapsed().as_secs_f64();

    let emit: Vec<_> = par::map(cfg.parallelism, &runs, |&(id, spec, child)| {
        let mut rec = base.fork();
        let (program, label) = rec.time(Layer::AttacksBuild, id, || build_run(spec, child, cfg));
        let mut sink = DatasetSink::new(&norm, label);
        let (result, _, _) = stream_run(&program, cfg, &mut sink, &mut rec, id);
        (sink.into_dataset(), result.committed_instructions, rec)
    });
    for (ds, instrs, rec) in emit {
        r.dataset.extend(ds);
        r.emit_instrs += instrs;
        r.rec.absorb(rec);
    }
    r.wall = t0.elapsed().as_secs_f64();
    r.emit_s = r.wall - r.fit_s;
    r.stats = stats;
    r
}

fn layer_metrics(r: &Replica, threads: usize) -> Metrics {
    let mut m = Metrics::default();
    let simulated = r.fit_instrs + r.emit_instrs;
    put_sim_layers(&mut m, &r.rec, simulated, r.wall, threads);
    m.put("core.collect.fit_s", r.fit_s, "s");
    m.put("core.collect.emit_s", r.emit_s, "s");
    let resim = simulated as f64 / r.fit_instrs.max(1) as f64;
    m.put("core.collect.resim_ratio", resim, "ratio");
    r.model.put(&mut m);
    m
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = CollectConfig {
        parallelism: Parallelism::Fixed(ctx.threads),
        ..CollectConfig::default()
    };
    // Set-up: the reference collection through public calls, whose dataset
    // every timed pass must reproduce.
    let reps = if ctx.trace { 1 } else { ctx.setup_reps };
    let (reference, setup_digests, setup_s) = repeated_setup(
        reps,
        || replica(&cfg, ctx.seed, false),
        |r| {
            let mut h = Fnv(dataset_digest(&r.dataset));
            for v in [
                r.model.committed,
                r.model.cycles,
                r.model.l1d_misses,
                r.model.l2_misses,
            ] {
                h.eat(v);
            }
            h.0
        },
    );
    out.gates
        .check(setup_digests.windows(2).all(|w| w[0] == w[1]), || {
            "reference collections differ between set-ups of one seed".into()
        });
    let ref_digest = dataset_digest(&reference.dataset);

    let collect_pass = || {
        let (ds, stats) = collect_dataset_stats(&cfg, ctx.seed);
        (dataset_digest(&ds), stats)
    };
    let mut replicas = Vec::new();
    let passes = if ctx.trace {
        let mut passes = Vec::new();
        let start = Instant::now();
        while passes.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
            let t0 = Instant::now();
            let p = collect_pass();
            passes.push((p, t0.elapsed().as_secs_f64()));
            replicas.push(replica(&cfg, ctx.seed, true));
        }
        passes
    } else {
        timed_passes(ctx.seconds, 3, collect_pass)
    };

    for ((digest, stats), _) in &passes {
        out.gates.check(*digest == ref_digest && *stats == reference.stats, || {
            format!(
                "collect_dataset_stats digest {digest:016x} != public-call reference digest {ref_digest:016x}"
            )
        });
    }
    for r in &replicas {
        out.gates.check(
            dataset_digest(&r.dataset) == ref_digest && r.stats == reference.stats,
            || "traced collection differs from the untraced one".into(),
        );
        out.gates.check(r.model == reference.model, || {
            "modelled counters changed between collections of one seed".into()
        });
    }
    out.attempted = reference.runs;
    out.failed = reference.failed_runs;
    out.env.push(("runs", reference.runs.to_string()));
    out.env
        .push(("windows", reference.dataset.len().to_string()));
    out.env.push(("passes", passes.len().to_string()));
    out.env.push(("setup_reps", reps.to_string()));
    out.env.push(("modelled_caches", "empty".into()));
    out.env
        .push(("dataset_digest", format!("{ref_digest:016x}")));

    if ctx.trace {
        let layers: Vec<Metrics> = replicas
            .iter()
            .map(|r| layer_metrics(r, ctx.threads))
            .collect();
        let mut m = median_metrics(&layers);
        let traced = median(&replicas.iter().map(|r| r.wall).collect::<Vec<_>>());
        let untraced = median(&passes.iter().map(|p| p.1).collect::<Vec<_>>());
        m.put("trace_overhead_frac", traced / untraced - 1.0, "ratio");
        out.metrics = m;
        if let Some(last) = replicas.last() {
            crate::write_spans(&last.rec, ctx);
        }
        return out;
    }

    let r = &reference;
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    let wall = put_wall(m, &passes.iter().map(|p| p.1).collect::<Vec<_>>());
    m.put("windows_per_s", r.dataset.len() as f64 / wall, "1/s");
    m.put(
        "sim_minstr_per_s",
        (r.fit_instrs + r.emit_instrs) as f64 / wall / 1e6,
        "instr/us",
    );
    m.put(
        "modelled_ipc",
        r.model.committed as f64 / r.model.cycles as f64,
        "instr/cycle",
    );
    out
}

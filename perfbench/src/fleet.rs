//! `fleet` and `fleet_warm`: many tenant streams through `run_fleet`.
//!
//! The untraced run times `evax_defense::fleet::run_fleet` as shipped. The
//! traced run drives the same streams from outside through the public
//! calls `run_fleet` is made of — registry program build, `Cpu::new` or a
//! warm-template `clone`, `SampledCursor::next_window_into`,
//! `Featurizer::featurize_into`, the detector's scoring call and
//! `SecureModeState` + `Cpu::set_mitigation` — one span per call. Its
//! per-stream outcomes must hash to the untraced run's verdict digest.

use std::collections::HashMap;
use std::time::Instant;

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, KernelParams, ATTACK_CLASSES, BENIGN_KINDS};
use evax_core::collect::{collect_dataset, CollectConfig};
use evax_core::par::{self, round_robin_shards, Parallelism};
use evax_core::prelude::{
    Detector, DetectorKind, DetectorScratch, Featurizer, ModelDetector, TrainConfig,
};
use evax_defense::adaptive::SecureModeState;
use evax_defense::fleet::{run_fleet, FleetConfig, FleetReport, StreamOutcome};
use evax_sim::{Cpu, CpuConfig, Program, SampledStep};
use rand::SeedableRng;

use crate::common::{
    median, median_metrics, percentile, put_sim_layers, put_wall, repeated_setup, timed_passes,
    Ctx, Fnv, Metrics, Model, Outcome,
};
use crate::trace::{Layer, Recorder};

/// Tenant streams per pass: twice `FleetConfig::default()`'s 1024, so one
/// pass (about a second on two cores) is long enough to time.
const N_STREAMS: usize = 2048;

/// The deployed detector and its featurizer (the fleet's set-up).
struct Trained {
    detector: Detector,
    featurizer: Featurizer,
}

/// Detector training as the fleet service deploys it: a small labelled
/// corpus, an EVAX perceptron, tuned to 99% window sensitivity.
fn train_detector(seed: u64, threads: usize) -> Trained {
    let collect = CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        parallelism: Parallelism::Fixed(threads),
        ..Default::default()
    };
    let (ds, norm) = collect_dataset(&collect, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &ds,
        vec![],
        &TrainConfig::default(),
        &mut rng,
    );
    detector.tune_for_tpr(&ds, 0.99);
    let featurizer = Featurizer::new(norm, detector.engineered().to_vec());
    Trained {
        detector,
        featurizer,
    }
}

fn fleet_config(seed: u64, warm_start: bool) -> FleetConfig {
    FleetConfig {
        n_streams: N_STREAMS,
        seed,
        warm_start,
        ..FleetConfig::default()
    }
}

/// Stream `id`'s program from the public registry, derived from the fleet
/// seed and the stream id exactly as the fleet service derives it.
fn stream_program(id: usize, cfg: &FleetConfig) -> (Program, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    if cfg.attack_every > 0 && id.is_multiple_of(cfg.attack_every) {
        let class = ATTACK_CLASSES[(id / cfg.attack_every) % ATTACK_CLASSES.len()];
        (
            build_attack(class, &KernelParams::default(), &mut rng),
            class.label(),
        )
    } else {
        let kind = BENIGN_KINDS[id % BENIGN_KINDS.len()];
        (build_benign(kind, Scale(cfg.max_instrs), &mut rng), 0)
    }
}

/// Warm templates plus what building them cost in modelled work.
#[derive(Default)]
struct Pool {
    templates: HashMap<String, Cpu>,
    ff_instrs: u64,
    snapshots: u64,
    snapshot_bytes: u64,
}

/// The warm-start pool, built the way the fleet service builds it: one
/// fast-forwarded, snapshot→restored template per registry program.
fn build_pool(cfg: &FleetConfig, cpu_cfg: &CpuConfig, rec: &mut Recorder) -> Pool {
    let mut pool = Pool::default();
    let warm = cfg.max_instrs / 2;
    if !cfg.warm_start || warm == 0 {
        return pool;
    }
    for id in 0..cfg.n_streams {
        let sid = id as u32;
        let (program, _) = rec.time(Layer::AttacksBuild, sid, || stream_program(id, cfg));
        if pool.templates.contains_key(program.name()) {
            continue;
        }
        let mut cpu = rec.time(Layer::SimNew, sid, || Cpu::new(cpu_cfg.clone()));
        let ff = rec.time(Layer::SimFf, sid, || cpu.fast_forward(&program, warm));
        pool.ff_instrs += ff;
        if ff < warm {
            continue;
        }
        let (snap, restored) = rec.time(Layer::SimSnapshot, sid, || {
            let snap = cpu.snapshot();
            let restored = Cpu::restore(cpu_cfg.clone(), &snap);
            (snap, restored)
        });
        pool.snapshots += 1;
        pool.snapshot_bytes += snap.to_bytes().len() as u64;
        if let Ok(template) = restored {
            pool.templates.insert(program.name().to_string(), template);
        }
    }
    pool
}

struct Stream {
    id: usize,
    class_label: usize,
    program: Program,
    cpu: Cpu,
    cursor: evax_sim::SampledCursor,
    state: SecureModeState,
    windows: u64,
    verdicts: u64,
    outcome: Option<StreamOutcome>,
}

/// What one shard of the replica hands back.
struct ShardOut {
    outcomes: Vec<StreamOutcome>,
    /// Streams whose window count differs from their verdict count.
    unverdicted: u64,
    model: Model,
    detailed_instrs: u64,
    mode_switches: u64,
    rec: Recorder,
}

/// One shard of the replica: round-robin passes over its live streams,
/// one verdict applied per window.
fn replica_shard(
    indices: &[usize],
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    trained: &Trained,
    pool: &Pool,
    mut rec: Recorder,
) -> ShardOut {
    let mut streams: Vec<Stream> = indices
        .iter()
        .map(|&id| {
            let sid = id as u32;
            let (program, class_label) =
                rec.time(Layer::AttacksBuild, sid, || stream_program(id, cfg));
            let mut cpu = match pool.templates.get(program.name()) {
                Some(t) => rec.time(Layer::SimFork, sid, || t.clone()),
                None => rec.time(Layer::SimNew, sid, || Cpu::new(cpu_cfg.clone())),
            };
            let budget = cfg.max_instrs.saturating_sub(cpu.stats().committed_insts);
            let cursor = cpu.begin_sampled(budget, cfg.adaptive.sample_interval);
            Stream {
                id,
                class_label,
                program,
                cpu,
                cursor,
                state: SecureModeState::default(),
                windows: 0,
                verdicts: 0,
                outcome: None,
            }
        })
        .collect();
    let detector: &dyn ModelDetector = &trained.detector;
    let mut raw = vec![0.0f64; evax_sim::dim_for(cpu_cfg)];
    let mut row = vec![0.0f32; trained.featurizer.feature_dim()];
    let mut scratch = DetectorScratch::new();
    let (mut score, mut verdict) = ([0.0f32], [false]);
    let mut model = Model::default();
    let mut detailed_instrs = 0;
    let mut mode_switches = 0;
    let mut live: Vec<usize> = (0..streams.len()).collect();
    while !live.is_empty() {
        let mut next_live = Vec::with_capacity(live.len());
        for &slot in &live {
            let s = &mut streams[slot];
            let sid = s.id as u32;
            let open = rec.enter(Layer::SimDetailed, sid);
            let step = s.cursor.next_window_into(&mut s.cpu, &s.program, &mut raw);
            rec.exit(open);
            match step {
                SampledStep::Window { cycle, .. } => {
                    s.windows += 1;
                    let mode = if raw.iter().any(|v| !v.is_finite()) {
                        rec.time(Layer::DefenseVerdict, sid, || {
                            s.state.fail_secure(&cfg.adaptive)
                        })
                    } else {
                        rec.time(Layer::CoreFeaturize, sid, || {
                            trained.featurizer.featurize_into(&raw, &mut row)
                        });
                        rec.time(Layer::NnInfer, sid, || {
                            detector.classify_rows_into(
                                &row,
                                1,
                                &mut scratch,
                                &mut score,
                                &mut verdict,
                            )
                        });
                        rec.time(Layer::DefenseVerdict, sid, || {
                            if score[0].is_finite() {
                                s.state.apply_verdict(verdict[0], cycle, &cfg.adaptive)
                            } else {
                                s.state.fail_secure(&cfg.adaptive)
                            }
                        })
                    };
                    if let Some(mode) = mode {
                        rec.time(Layer::DefenseVerdict, sid, || s.cpu.set_mitigation(mode));
                        mode_switches += 1;
                    }
                    s.verdicts += 1;
                    next_live.push(slot);
                }
                SampledStep::Done(result) => {
                    detailed_instrs += result.committed_instructions;
                    model.add_core(&s.cpu, result.committed_instructions, result.cycles);
                    model.secure += s.state.secure_instructions;
                    s.outcome = Some(StreamOutcome {
                        stream_id: s.id,
                        class_label: s.class_label,
                        windows: s.windows,
                        flags: s.state.flags,
                        fail_secure_switches: s.state.fail_secure_switches,
                        first_flag_cycle: s.state.first_flag_cycle,
                        secure_instructions: s.state.secure_instructions,
                        committed_instructions: result.committed_instructions,
                        cycles: result.cycles,
                    });
                }
            }
        }
        live = next_live;
    }
    let unverdicted = streams.iter().filter(|s| s.windows != s.verdicts).count() as u64;
    ShardOut {
        outcomes: streams
            .into_iter()
            .map(|mut s| {
                let outcome = s.outcome.take().expect("stream finished");
                rec.time(Layer::SimDrop, s.id as u32, || drop(s));
                outcome
            })
            .collect(),
        unverdicted,
        model,
        detailed_instrs,
        mode_switches,
        rec,
    }
}

/// A full replica pass and everything measured along it.
struct Replica {
    wall: f64,
    digest: u64,
    unverdicted: u64,
    model: Model,
    detailed_instrs: u64,
    ff_instrs: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    mode_switches: u64,
    rec: Recorder,
    shard_busy_ns: Vec<u64>,
}

fn replica(cfg: &FleetConfig, trained: &Trained, threads: usize, traced: bool) -> Replica {
    let cpu_cfg = CpuConfig::default();
    let t0 = Instant::now();
    let mut rec = Recorder::new(t0, traced);
    let pool = build_pool(cfg, &cpu_cfg, &mut rec);
    let shards = round_robin_shards(cfg.n_streams, cfg.n_shards.max(1));
    let outs = par::map(Parallelism::Fixed(threads), &shards, |indices| {
        replica_shard(indices, cfg, &cpu_cfg, trained, &pool, rec.fork())
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut outcomes = Vec::with_capacity(cfg.n_streams);
    let mut r = Replica {
        wall,
        digest: 0,
        unverdicted: 0,
        model: Model::default(),
        detailed_instrs: 0,
        ff_instrs: pool.ff_instrs,
        snapshots: pool.snapshots,
        snapshot_bytes: pool.snapshot_bytes,
        mode_switches: 0,
        rec: Recorder::new(t0, traced),
        shard_busy_ns: Vec::new(),
    };
    r.rec.absorb(rec);
    for o in outs {
        r.unverdicted += o.unverdicted;
        r.model.merge(&o.model);
        r.detailed_instrs += o.detailed_instrs;
        r.mode_switches += o.mode_switches;
        r.shard_busy_ns.push(o.rec.root_ns());
        r.rec.absorb(o.rec);
        outcomes.extend(o.outcomes);
    }
    outcomes.sort_by_key(|o| o.stream_id);
    let report = FleetReport {
        outcomes,
        latencies_ns: Vec::new(),
        full_flushes: 0,
        tail_flushes: 0,
        sim_ns: 0,
        inference_ns: 0,
        inference: cfg.inference,
    };
    r.digest = report.verdict_digest();
    r
}

/// Per-layer metrics of one traced replica pass.
fn layer_metrics(r: &Replica, threads: usize) -> Metrics {
    let mut m = Metrics::default();
    put_sim_layers(&mut m, &r.rec, r.detailed_instrs, r.wall, threads);
    let t = r.rec.self_times();
    m.put(
        "sim.fork.us_per_call",
        t.per_call(Layer::SimFork, 1e6),
        "us",
    );
    let ff = t.get(Layer::SimFf).0;
    m.put("sim.ff.busy_s", ff, "s");
    let ff_per_instr = if r.ff_instrs == 0 {
        0.0
    } else {
        ff * 1e9 / r.ff_instrs as f64
    };
    m.put("sim.ff.ns_per_instr", ff_per_instr, "ns");
    m.put(
        "sim.snapshot.busy_ms",
        t.get(Layer::SimSnapshot).0 * 1e3,
        "ms",
    );
    let bytes = r.snapshot_bytes as f64 / r.snapshots.max(1) as f64;
    m.put("sim.snapshot.bytes", bytes, "bytes");
    m.put("nn.infer.busy_s", t.get(Layer::NnInfer).0, "s");
    m.put(
        "nn.infer.ns_per_window",
        t.per_call(Layer::NnInfer, 1e9),
        "ns",
    );
    m.put(
        "defense.verdict.busy_s",
        t.get(Layer::DefenseVerdict).0,
        "s",
    );
    m.put(
        "defense.verdict.mode_switches",
        r.mode_switches as f64,
        "count",
    );
    let busy: Vec<f64> = r.shard_busy_ns.iter().map(|&ns| ns as f64).collect();
    let max = busy.iter().copied().fold(0.0, f64::max);
    m.put("par.shard_skew", max / median(&busy).max(1.0), "ratio");
    r.model.put(&mut m);
    m
}

pub fn run(ctx: &Ctx, warm_start: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = fleet_config(ctx.seed, warm_start);
    let cpu_cfg = CpuConfig::default();
    let par = Parallelism::Fixed(ctx.threads);
    let reps = if ctx.trace { 1 } else { ctx.setup_reps };
    let (trained, setup_digests, setup_s) = repeated_setup(
        reps,
        || train_detector(ctx.seed, ctx.threads),
        |t| {
            let mut h = Fnv::default();
            h.bytes(&ModelDetector::save_bytes(&t.detector));
            h.0
        },
    );
    out.gates
        .check(setup_digests.windows(2).all(|w| w[0] == w[1]), || {
            "set-up trained different detectors from one seed".into()
        });
    let fleet_pass = || run_fleet(&cfg, &cpu_cfg, &trained.detector, &trained.featurizer, par);

    let (passes, replicas): (Vec<(FleetReport, f64)>, Vec<Replica>) = if ctx.trace {
        let mut passes = Vec::new();
        let mut replicas = Vec::new();
        let start = Instant::now();
        while passes.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
            let t0 = Instant::now();
            let p = fleet_pass();
            passes.push((p, t0.elapsed().as_secs_f64()));
            replicas.push(replica(&cfg, &trained, ctx.threads, true));
        }
        (passes, replicas)
    } else {
        let passes = timed_passes(ctx.seconds, 3, fleet_pass);
        (passes, vec![replica(&cfg, &trained, ctx.threads, false)])
    };

    // Correctness gates.
    let reference = &passes[0].0;
    let ref_json = reference.deterministic_json();
    for (p, _) in &passes {
        out.gates.check(p.deterministic_json() == ref_json, || {
            format!(
                "simulated counters or verdict digest changed between passes of one seed: {} vs {}",
                p.deterministic_json(),
                ref_json
            )
        });
        out.gates
            .check(p.latencies_ns.len() as u64 == p.windows(), || {
                format!(
                    "{} windows got {} verdicts",
                    p.windows(),
                    p.latencies_ns.len()
                )
            });
    }
    for r in &replicas {
        out.gates.check(r.digest == reference.verdict_digest(), || {
            format!(
                "public-call replica digest {:016x} != run_fleet digest {:016x}",
                r.digest,
                reference.verdict_digest()
            )
        });
        out.gates.check(r.unverdicted == 0, || {
            format!(
                "{} replica streams have windows without exactly one verdict",
                r.unverdicted
            )
        });
        out.gates.check(r.model == replicas[0].model, || {
            "modelled counters changed between replica passes of one seed".into()
        });
    }

    // error_rate base: windows; failures are windows without a verdict plus
    // fail-secure verdicts.
    for (p, _) in &passes {
        let windows = p.windows();
        out.attempted += windows;
        out.failed +=
            windows.saturating_sub(p.latencies_ns.len() as u64) + p.fail_secure_switches();
    }

    let r0 = &replicas[0];
    out.env.push(("streams", N_STREAMS.to_string()));
    out.env.push(("passes", passes.len().to_string()));
    out.env.push(("setup_reps", reps.to_string()));
    out.env.push((
        "modelled_caches",
        if warm_start { "warmed" } else { "empty" }.into(),
    ));
    out.env.push((
        "verdict_digest",
        format!("{:016x}", reference.verdict_digest()),
    ));

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

    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    let windows = reference.windows() as f64;
    let instrs = (r0.detailed_instrs + r0.ff_instrs) as f64;
    let mut lat: Vec<u64> = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for (p, _) in &passes {
        lat.clear();
        lat.extend_from_slice(&p.latencies_ns);
        p50.push(percentile(&mut lat, 0.50) as f64 / 1e3);
        p99.push(percentile(&mut lat, 0.99) as f64 / 1e3);
    }
    let attack = reference
        .outcomes
        .iter()
        .filter(|o| o.class_label != 0)
        .count() as f64;
    let benign = reference.outcomes.len() as f64 - attack;
    let committed: u64 = reference
        .outcomes
        .iter()
        .map(|o| o.committed_instructions)
        .sum();
    let cycles: u64 = reference.outcomes.iter().map(|o| o.cycles).sum();
    let secure: u64 = reference
        .outcomes
        .iter()
        .map(|o| o.secure_instructions)
        .sum();
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    let wall = put_wall(m, &walls);
    m.put("windows_per_s", windows / wall, "1/s");
    m.put("sim_minstr_per_s", instrs / wall / 1e6, "instr/us");
    m.put("verdict_p50_us", median(&p50), "us");
    m.put("verdict_p99_us", median(&p99), "us");
    m.put(
        "verdict_samples",
        reference.latencies_ns.len() as f64,
        "count",
    );
    m.put(
        "detect_rate",
        reference.flagged_attack_streams() as f64 / attack,
        "ratio",
    );
    m.put(
        "false_flag_rate",
        reference.false_flag_streams() as f64 / benign,
        "ratio",
    );
    m.put("secure_frac", secure as f64 / committed as f64, "ratio");
    m.put(
        "modelled_ipc",
        committed as f64 / cycles as f64,
        "instr/cycle",
    );
    out
}

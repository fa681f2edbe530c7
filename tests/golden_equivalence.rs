//! Golden equivalence of the two scheduling cores.
//!
//! The event-driven scheduler (`SchedulerKind::EventDriven`, the default)
//! must be **bit-identical** to the reference scan scheduler
//! (`SchedulerKind::Scan`) — same `PipelineStats`, same HPC sample vectors
//! bit for bit, same committed architectural state — on every attack and
//! benign program in the registry, under every mitigation mode, and across
//! mid-run adaptive mode switches. Debug builds additionally cross-check the
//! event scheduler's incremental state against full scans every cycle via
//! `debug_assert!`s inside the core.

use evax::attacks::benign::Scale;
use evax::attacks::{
    build_attack, build_benign, AttackClass, BenignKind, KernelParams, ATTACK_CLASSES, BENIGN_KINDS,
};
use evax::dram::DramConfig;
use evax::sim::isa::{AluOp, Cond, Program, ProgramBuilder, Reg};
use evax::sim::{
    CacheConfig, Cpu, CpuConfig, HpcSample, MitigationMode, PipelineStats, SchedulerKind,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SAMPLE_INTERVAL: u64 = 500;

/// One full observable outcome of a run: every pipeline counter, every HPC
/// sampling window, and the committed architectural state.
struct Outcome {
    stats: PipelineStats,
    samples: Vec<HpcSample>,
    regs: [u64; 32],
    committed: u64,
    cycles: u64,
    halted: bool,
}

fn run_outcome(
    program: &Program,
    scheduler: SchedulerKind,
    mitigation: MitigationMode,
    max_instrs: u64,
    on_sample: impl FnMut(usize, &HpcSample) -> Option<MitigationMode>,
) -> Outcome {
    let cfg = CpuConfig {
        scheduler,
        mitigation,
        ..Default::default()
    };
    run_outcome_cfg(program, cfg, max_instrs, SAMPLE_INTERVAL, on_sample)
}

fn run_outcome_cfg(
    program: &Program,
    cfg: CpuConfig,
    max_instrs: u64,
    sample_interval: u64,
    on_sample: impl FnMut(usize, &HpcSample) -> Option<MitigationMode>,
) -> Outcome {
    let mut cpu = Cpu::new(cfg);
    cpu.memory_mut()
        .write_u64(evax::attacks::mds::KERNEL_SECRET_ADDR, 5);
    run_cpu(cpu, program, max_instrs, sample_interval, on_sample)
}

fn run_cpu(
    mut cpu: Cpu,
    program: &Program,
    max_instrs: u64,
    sample_interval: u64,
    mut on_sample: impl FnMut(usize, &HpcSample) -> Option<MitigationMode>,
) -> Outcome {
    let mut samples = Vec::new();
    let result = cpu.run_sampled(program, max_instrs, sample_interval, |s| {
        let switch = on_sample(samples.len(), &s);
        samples.push(s);
        switch
    });
    Outcome {
        stats: cpu.stats().clone(),
        samples,
        regs: result.regs,
        committed: result.committed_instructions,
        cycles: result.cycles,
        halted: result.halted,
    }
}

/// Asserts two outcomes are bitwise identical (floats compared by bits).
fn assert_identical(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.stats, b.stats, "[{label}] PipelineStats diverged");
    assert_eq!(a.regs, b.regs, "[{label}] architectural registers diverged");
    assert_eq!(
        a.committed, b.committed,
        "[{label}] committed count diverged"
    );
    assert_eq!(a.cycles, b.cycles, "[{label}] cycle count diverged");
    assert_eq!(a.halted, b.halted, "[{label}] halt status diverged");
    assert_eq!(
        a.samples.len(),
        b.samples.len(),
        "[{label}] sample count diverged"
    );
    for (w, (sa, sb)) in a.samples.iter().zip(&b.samples).enumerate() {
        assert_eq!(
            sa.instructions, sb.instructions,
            "[{label}] window {w} instruction mark diverged"
        );
        assert_eq!(sa.cycle, sb.cycle, "[{label}] window {w} cycle diverged");
        assert_eq!(
            sa.values.len(),
            sb.values.len(),
            "[{label}] window {w} dimension diverged"
        );
        for (i, (va, vb)) in sa.values.iter().zip(&sb.values).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "[{label}] window {w} HPC {i} diverged: {va} vs {vb}"
            );
        }
    }
}

fn attack_program(class: AttackClass, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = KernelParams {
        iterations: 24,
        ..Default::default()
    };
    build_attack(class, &params, &mut rng)
}

fn benign_program(kind: BenignKind, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    build_benign(kind, Scale(3_000), &mut rng)
}

/// The acceptance criterion: every registry program, both schedulers,
/// bitwise-identical outcomes.
#[test]
fn every_registry_program_is_bit_identical_across_schedulers() {
    for class in ATTACK_CLASSES {
        let program = attack_program(class, 0xE0AF + class as u64);
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("attack {class}"), &scan, &event);
    }
    for kind in BENIGN_KINDS {
        let program = benign_program(kind, 0xBE9 + kind as u64);
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("benign {kind}"), &scan, &event);
    }
}

/// Mitigation gating (fencing and InvisiSpec exposure both interact with
/// scheduling: issue gating, and the only Done→Executing regression).
#[test]
fn mitigation_modes_are_bit_identical_across_schedulers() {
    let classes = [
        AttackClass::SpectrePht,
        AttackClass::Meltdown,
        AttackClass::Lvi,
        AttackClass::Fallout,
    ];
    let modes = [
        MitigationMode::None,
        MitigationMode::FenceSpectre,
        MitigationMode::FenceFuturistic,
        MitigationMode::InvisiSpecSpectre,
        MitigationMode::InvisiSpecFuturistic,
    ];
    for class in classes {
        let program = attack_program(class, 0x517E + class as u64);
        for mode in modes {
            let scan = run_outcome(&program, SchedulerKind::Scan, mode, 120_000, |_, _| None);
            let event = run_outcome(
                &program,
                SchedulerKind::EventDriven,
                mode,
                120_000,
                |_, _| None,
            );
            assert_identical(&format!("{class} under {mode:?}"), &scan, &event);
        }
    }
}

/// Mid-run adaptive mode switches (the controller's lever) must also be
/// schedule-independent.
#[test]
fn adaptive_mode_switching_is_bit_identical_across_schedulers() {
    let rotation = [
        MitigationMode::FenceSpectre,
        MitigationMode::InvisiSpecFuturistic,
        MitigationMode::None,
        MitigationMode::FenceFuturistic,
        MitigationMode::InvisiSpecSpectre,
    ];
    let switcher =
        |w: usize, _s: &HpcSample| -> Option<MitigationMode> { Some(rotation[w % rotation.len()]) };
    for (label, program) in [
        (
            "spectre_pht",
            attack_program(AttackClass::SpectrePht, 0xADA),
        ),
        ("lvi", attack_program(AttackClass::Lvi, 0xADA)),
        (
            "compression",
            benign_program(BenignKind::Compression, 0xADA),
        ),
    ] {
        let scan = run_outcome(
            &program,
            SchedulerKind::Scan,
            MitigationMode::None,
            60_000,
            switcher,
        );
        let event = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            60_000,
            switcher,
        );
        assert_identical(&format!("adaptive {label}"), &scan, &event);
    }
}

/// Pipeline-width sweep: scheduler equivalence must hold off the default
/// config too. Widths stress different scheduling regimes — width 1 is a
/// strict in-order-issue-rate machine (maximal structural stalls), width 8
/// saturates the wakeup logic with simultaneous completions — and both
/// schedulers must agree bit for bit in each regime.
#[test]
fn pipeline_width_sweep_is_bit_identical_across_schedulers() {
    let programs = [
        (
            "spectre_pht",
            attack_program(AttackClass::SpectrePht, 0x31D7),
        ),
        (
            "flush_reload",
            attack_program(AttackClass::FlushReload, 0x31D7),
        ),
        ("rowhammer", attack_program(AttackClass::Rowhammer, 0x31D7)),
        (
            "compression",
            benign_program(BenignKind::Compression, 0x31D7),
        ),
    ];
    for width in [1usize, 2, 8] {
        for (label, program) in &programs {
            let with_width = |scheduler| CpuConfig {
                scheduler,
                fetch_width: width,
                issue_width: width,
                commit_width: width,
                ..Default::default()
            };
            let scan = run_outcome_cfg(
                program,
                with_width(SchedulerKind::Scan),
                60_000,
                SAMPLE_INTERVAL,
                |_, _| None,
            );
            let event = run_outcome_cfg(
                program,
                with_width(SchedulerKind::EventDriven),
                60_000,
                SAMPLE_INTERVAL,
                |_, _| None,
            );
            assert_identical(&format!("{label} at width {width}"), &scan, &event);
        }
    }
}

/// Slow-gated golden determinism: every registry program run **twice**
/// through `run_sampled` on fresh cores must produce bitwise-identical
/// stats and sample vectors — catches hidden iteration-order or state-reuse
/// nondeterminism in the scheduler (heaps, wakeup lists, seq reuse).
#[test]
fn golden_determinism_run_twice_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping golden_determinism_run_twice_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let check = |label: String, program: Program| {
        let first = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        let second = run_outcome(
            &program,
            SchedulerKind::EventDriven,
            MitigationMode::None,
            120_000,
            |_, _| None,
        );
        assert_identical(&format!("determinism {label}"), &first, &second);
    };
    for class in ATTACK_CLASSES {
        check(
            format!("{class}"),
            attack_program(class, 0xD373 + class as u64),
        );
    }
    for kind in BENIGN_KINDS {
        check(
            format!("{kind}"),
            benign_program(kind, 0xD373 + kind as u64),
        );
    }
}

/// Fence switching: the two patterns that park and release fence-gated
/// loads across mode changes, at the fleet's sampling interval and secure
/// window. The first is the fleet's secure window: a flagged window engages
/// `FenceSpectre` for `secure_window` instructions, counted down by the
/// benign windows that follow, then drops back to `None`. The second
/// switches directly between the two fencing modes at window boundaries
/// (Spectre → Futuristic → Spectre), so loads parked under one gate are
/// released under the other.
#[test]
fn fence_switching_is_bit_identical_across_schedulers() {
    use evax::defense::adaptive::{AdaptiveConfig, SecureModeState};

    let cfg = AdaptiveConfig {
        sample_interval: 200,
        secure_window: 1_000,
        ..AdaptiveConfig::default()
    };
    // Flags at irregular windows, some re-arming a live secure window.
    let flagged = |w: usize| w % 11 == 1 || w % 13 == 3;
    let direct = [
        MitigationMode::FenceSpectre,
        MitigationMode::FenceFuturistic,
        MitigationMode::FenceSpectre,
    ];
    let attack = |class| {
        let mut rng = StdRng::seed_from_u64(0xFE0C);
        let params = KernelParams {
            iterations: 256,
            ..Default::default()
        };
        build_attack(class, &params, &mut rng)
    };
    for (label, program) in [
        (
            "compression",
            benign_program(BenignKind::Compression, 0xFE0C),
        ),
        ("matrix_ai", benign_program(BenignKind::MatrixAi, 0xFE0C)),
        ("spectre_pht", attack(AttackClass::SpectrePht)),
        ("lvi", attack(AttackClass::Lvi)),
    ] {
        for secure_window in [true, false] {
            let pattern = if secure_window {
                "secure window"
            } else {
                "direct"
            };
            let run = |scheduler| {
                let mut state = SecureModeState::default();
                let (mut engaged, mut lifted) = (0, 0);
                let cpu_cfg = CpuConfig {
                    scheduler,
                    ..Default::default()
                };
                let outcome =
                    run_outcome_cfg(&program, cpu_cfg, 60_000, cfg.sample_interval, |w, s| {
                        let switch = if secure_window {
                            state.apply_verdict(flagged(w), s.cycle, &cfg)
                        } else {
                            Some(direct[w % direct.len()])
                        };
                        match switch {
                            Some(MitigationMode::None) => lifted += 1,
                            Some(_) => engaged += 1,
                            None => {}
                        }
                        switch
                    });
                // The pattern must really fence, and the secure window must
                // really expire, or the comparison proves nothing.
                assert!(engaged >= 2, "[{label} ({pattern})] fencing never engaged");
                assert!(
                    !secure_window || lifted >= 1,
                    "[{label} ({pattern})] secure window never expired"
                );
                outcome
            };
            let scan = run(SchedulerKind::Scan);
            let event = run(SchedulerKind::EventDriven);
            assert_identical(&format!("{label} ({pattern})"), &scan, &event);
        }
    }
}

/// Scheduling-work guard: under either fencing mode, the event-driven
/// issue stage must not re-queue fence-gated loads every cycle. Each issued
/// instruction is pushed onto the ready heap about once (at dispatch or
/// wakeup) and once more if a fence parked it, so the total stays within
/// twice the issue count. The counts are deterministic.
#[test]
fn fenced_loads_are_not_requeued_every_cycle() {
    let mut rng = StdRng::seed_from_u64(0x5C4E);
    let programs = [
        (
            "compression",
            build_benign(BenignKind::Compression, Scale::default(), &mut rng),
        ),
        (
            "matrix_ai",
            build_benign(BenignKind::MatrixAi, Scale::default(), &mut rng),
        ),
        (
            "spectre_pht",
            build_attack(
                AttackClass::SpectrePht,
                &KernelParams {
                    iterations: 256,
                    ..Default::default()
                },
                &mut rng,
            ),
        ),
    ];
    for (label, program) in &programs {
        for mode in [
            MitigationMode::FenceSpectre,
            MitigationMode::FenceFuturistic,
        ] {
            let mut cpu = Cpu::new(CpuConfig {
                scheduler: SchedulerKind::EventDriven,
                mitigation: mode,
                ..Default::default()
            });
            cpu.run(program, 20_000);
            let pushes = cpu.sched_counters().ready_pushes;
            let issued = cpu.stats().iq_issued_insts;
            assert!(issued > 0, "[{label} under {mode:?}] nothing issued");
            assert!(
                pushes <= 2 * issued,
                "[{label} under {mode:?}] {pushes} ready pushes for {issued} issued \
                 instructions: fenced loads are re-queued every cycle"
            );
        }
    }
}

/// Lines in the DRAM-bound programs' footprint: more than the L2 of
/// [`dram_bound_cfg`] holds (512 lines), so even a lap that flushes
/// nothing misses to DRAM on every hop.
const CHASE_LINES: u64 = 768;
/// Base address of the pointer-chase region.
const CHASE_BASE: u64 = 0x0100_0000;

/// A core whose caches are smaller than the chase footprint: a 4 KiB L1D
/// and a 32 KiB L2.
fn dram_bound_cfg(scheduler: SchedulerKind, mitigation: MitigationMode) -> CpuConfig {
    let base = CpuConfig::default();
    CpuConfig {
        scheduler,
        mitigation,
        l1d: CacheConfig {
            size: 4 * 1024,
            ways: 2,
            ..base.l1d.clone()
        },
        l2: CacheConfig {
            size: 32 * 1024,
            ..base.l2.clone()
        },
        ..base
    }
}

/// Plants one pointer cycle through every chase line, in a shuffled order
/// so consecutive hops share no stride the prefetcher could learn.
fn plant_chase(cpu: &mut Cpu) {
    let mut order: Vec<u64> = (0..CHASE_LINES).collect();
    order.shuffle(&mut StdRng::seed_from_u64(0xC4A5E));
    let line = |i: u64| CHASE_BASE + i * 64;
    for (k, &from) in order.iter().enumerate() {
        let to = order[(k + 1) % order.len()];
        cpu.memory_mut().write_u64(line(from), line(to));
    }
}

/// Two laps of the pointer chase. `flush` evicts each line right after its
/// hop; `timed` brackets every hop with `RdCycle`, which serializes, so the
/// pipeline drains around each DRAM access (the timing loop of a cache
/// attack, and the longest idle stretches the core produces).
fn chase_program(flush: bool, timed: bool) -> Program {
    let (p, next, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let (t0, t1, acc) = (Reg::new(5), Reg::new(6), Reg::new(7));
    let mut b = ProgramBuilder::new("chase");
    b.li(p, CHASE_BASE)
        .li(i, 0)
        .li(n, 2 * CHASE_LINES)
        .li(acc, 0);
    let top = b.label();
    if timed {
        b.rdcycle(t0);
    }
    b.load(next, p, 0);
    if timed {
        b.rdcycle(t1);
        b.alu(AluOp::Sub, t1, t1, t0);
        b.alu(AluOp::Add, acc, acc, t1);
    }
    if flush {
        b.flush(p, 0);
    }
    b.alu_imm(AluOp::Add, p, next, 0);
    b.alu_imm(AluOp::Add, i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    b.build()
}

fn run_chase(program: &Program, cfg: CpuConfig, max_instrs: u64) -> Outcome {
    let mut cpu = Cpu::new(cfg);
    plant_chase(&mut cpu);
    run_cpu(cpu, program, max_instrs, SAMPLE_INTERVAL, |_, _| None)
}

/// Long DRAM-bound stretches, in which almost every cycle moves nothing:
/// flushed and unflushed pointer chases and a serialized `RdCycle` timing
/// loop, each over more lines than the L2 holds, under every mitigation
/// mode.
#[test]
fn dram_bound_stretches_are_bit_identical_across_schedulers() {
    let modes = [
        MitigationMode::None,
        MitigationMode::FenceSpectre,
        MitigationMode::FenceFuturistic,
        MitigationMode::InvisiSpecSpectre,
        MitigationMode::InvisiSpecFuturistic,
    ];
    let programs = [
        ("flushed chase", chase_program(true, false)),
        ("chase", chase_program(false, false)),
        ("timed flushed chase", chase_program(true, true)),
    ];
    for (label, program) in &programs {
        for mode in modes {
            let scan = run_chase(program, dram_bound_cfg(SchedulerKind::Scan, mode), 7_000);
            let event = run_chase(
                program,
                dram_bound_cfg(SchedulerKind::EventDriven, mode),
                7_000,
            );
            // The stretches must really be DRAM-bound, or the comparison
            // proves little about long waits.
            assert!(
                scan.cycles > 10 * scan.committed,
                "[{label} under {mode:?}] not DRAM-bound: {} cycles for {} instructions",
                scan.cycles,
                scan.committed
            );
            assert_identical(&format!("{label} under {mode:?}"), &scan, &event);
        }
    }
}

/// The cursor's cycle ceiling (200 cycles per budgeted instruction, at
/// least 100,000) must trip at the same cycle under both schedulers when
/// it falls inside a long wait: DRAM this slow leaves the core idle for
/// thousands of cycles per hop, so 400 instructions cannot retire in time.
#[test]
fn cycle_ceiling_inside_an_idle_stretch_is_bit_identical_across_schedulers() {
    let program = chase_program(true, false);
    let slow = |scheduler| CpuConfig {
        dram: DramConfig {
            t_cas: 5_000,
            ..DramConfig::default()
        },
        ..dram_bound_cfg(scheduler, MitigationMode::None)
    };
    let scan = run_chase(&program, slow(SchedulerKind::Scan), 400);
    let event = run_chase(&program, slow(SchedulerKind::EventDriven), 400);
    assert!(
        !scan.halted && scan.committed < 400,
        "the ceiling did not trip"
    );
    assert_eq!(scan.cycles, 100_000, "the run ended at the ceiling");
    assert_identical("ceiling", &scan, &event);
}

/// The instruction budget must end the run at the same cycle under both
/// schedulers when its last instruction retires just before a long wait.
/// Budgets a few instructions apart end at every phase of the chase loop.
#[test]
fn instruction_budget_before_an_idle_stretch_is_bit_identical_across_schedulers() {
    for (label, program) in [
        ("flushed chase", chase_program(true, false)),
        ("timed flushed chase", chase_program(true, true)),
    ] {
        for max_instrs in 300..316 {
            let run = |scheduler| {
                run_chase(
                    &program,
                    dram_bound_cfg(scheduler, MitigationMode::None),
                    max_instrs,
                )
            };
            let scan = run(SchedulerKind::Scan);
            assert!(!scan.halted, "the budget did not end the run");
            let event = run(SchedulerKind::EventDriven);
            assert_identical(&format!("{label} at {max_instrs}"), &scan, &event);
        }
    }
}

/// Skipping guard: on a DRAM-bound chase the event-driven core must jump
/// over most cycles instead of stepping them, and Scan, the cycle-by-cycle
/// oracle, must never skip. A silent loss of skipping fails here rather
/// than only slowing the simulator down.
#[test]
fn idle_cycles_are_skipped() {
    let program = chase_program(true, false);
    for scheduler in [SchedulerKind::EventDriven, SchedulerKind::Scan] {
        let mut cpu = Cpu::new(dram_bound_cfg(scheduler, MitigationMode::None));
        plant_chase(&mut cpu);
        let r = cpu.run(&program, 4_000);
        let skipped = cpu.sched_counters().skipped_cycles;
        match scheduler {
            SchedulerKind::EventDriven => assert!(
                2 * skipped >= r.cycles,
                "only {skipped} of {} cycles skipped",
                r.cycles
            ),
            SchedulerKind::Scan => assert_eq!(skipped, 0, "the scan core skipped cycles"),
        }
    }
}

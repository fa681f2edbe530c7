//! One benchmark for the EVAX workspace.
//!
//! ```text
//! perfbench --workload <fleet|fleet_warm|collect|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up runs several times (its median is `setup_s`), then the workload's
//! pass repeats for `--seconds` and every end-to-end metric is the median
//! over passes. `--trace 1` instead alternates untraced passes with a
//! traced pass that records one span per call into a layer's public API and
//! reports the per-layer metrics. Correctness gates (digest equality
//! between the traced and untraced runs, exact repetition of simulated
//! counters, one verdict per window, bit-identical trained detectors) fail
//! the run.
//!
//! The second-to-last line of stdout is the full artifact (environment and
//! every metric the workload defines); the last line is the summary
//! `{"correct", "attempted", "failed", "metrics"}` object. Both, plus the
//! traced run's spans, are also written under `.bench_out/`.

mod collect;
mod common;
mod fleet;
mod trace;
mod train;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{Ctx, Outcome};

/// Worker threads: fixed, never more than the machine has.
const THREADS: usize = 2;
/// Worker threads of the nn kernels (`EVAX_THREADS`). At the training
/// workload's sizes every product forks and joins its workers, so on two
/// vCPUs one preempted vCPU stalls each step; serial kernels were faster in
/// paired runs and do not double in wall time when the host steals a vCPU.
const NN_KERNEL_THREADS: usize = 1;
/// Set-up repetitions in an untraced run.
const SETUP_REPS: usize = 5;

/// End-to-end metrics every workload reports in its summary line.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run's summary line, with units. A layer
/// a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("attacks.build.busy_s", "s"),
    ("sim.new.count", "count"),
    ("sim.new.us_per_call", "us"),
    ("sim.fork.us_per_call", "us"),
    ("sim.drop.us_per_call", "us"),
    ("sim.detailed.busy_s", "s"),
    ("sim.detailed.ns_per_instr", "ns"),
    ("sim.ff.busy_s", "s"),
    ("sim.ff.ns_per_instr", "ns"),
    ("sim.snapshot.busy_ms", "ms"),
    ("sim.snapshot.bytes", "bytes"),
    ("core.featurize.busy_s", "s"),
    ("core.featurize.ns_per_window", "ns"),
    ("core.collect.fit_s", "s"),
    ("core.collect.emit_s", "s"),
    ("core.collect.resim_ratio", "ratio"),
    ("nn.infer.busy_s", "s"),
    ("nn.infer.ns_per_window", "ns"),
    ("defense.verdict.busy_s", "s"),
    ("defense.verdict.mode_switches", "count"),
    ("par.shard_skew", "ratio"),
    ("core.gan.busy_s", "s"),
    ("core.gan.steps", "count"),
    ("core.gan.ms_per_step", "ms"),
    ("core.engineer.busy_ms", "ms"),
    ("core.vaccinate.busy_s", "s"),
    ("core.baseline.busy_s", "s"),
    ("core.eval.busy_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("model.committed_instrs", "count"),
    ("model.cycles", "count"),
    ("model.l1d.miss_rate", "ratio"),
    ("model.l2.miss_rate", "ratio"),
    ("model.bp.mispredict_rate", "ratio"),
    ("model.wrong_path_frac", "ratio"),
    ("model.secure_instrs", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a traced pass's spans to `.bench_out/spans-<workload>-<seed>.csv`.
pub fn write_spans(rec: &trace::Recorder, ctx: &Ctx) {
    let path = out_dir().join(format!("spans-{}-{}.csv", ctx.workload, ctx.seed));
    if let Err(e) = rec.write_csv(&path) {
        eprintln!("[perfbench] could not write {}: {e}", path.display());
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_json(entries: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet|fleet_warm|collect|train> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(cores);
    // The nn kernels resolve their own worker count from EVAX_THREADS; pin
    // it before any thread starts. Every other parallel call takes
    // `Parallelism::Fixed(threads)`.
    std::env::set_var("EVAX_THREADS", NN_KERNEL_THREADS.to_string());
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        setup_reps: SETUP_REPS,
    };
    let mut out: Outcome = match args.workload.as_str() {
        "fleet" => fleet::run(&ctx, false),
        "fleet_warm" => fleet::run(&ctx, true),
        "collect" => collect::run(&ctx),
        "train" => train::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !ctx.trace {
        out.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        let rate = out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.put("error_rate", rate, "ratio");
    }
    for (name, value, _) in &out.metrics.0 {
        out.gates
            .check(value.is_finite(), || format!("metric {name} is not finite"));
        assert!(
            !ctx.trace || PER_LAYER.iter().any(|p| p.0 == name),
            "per-layer metric {name} is missing from PER_LAYER"
        );
    }
    if !ctx.trace {
        for (name, _) in END_TO_END {
            let value = out.metrics.get(name).unwrap_or(0.0);
            out.gates.check(value > 0.0, || {
                format!("end-to-end metric {name} reads {value}")
            });
        }
    }
    let correct = out.gates.0.is_empty() && out.attempted > 0;

    let mut env = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.trace.to_string()),
        ("cores", cores.to_string()),
        ("threads", threads.to_string()),
        ("nn_kernel_threads", NN_KERNEL_THREADS.to_string()),
        ("load", json_str("closed batch: every stream or run admitted at t=0, one process")),
        (
            "model_validation",
            json_str(
                "unvalidated: the repository holds no real-hardware reference results, so no simulator error figure is given",
            ),
        ),
    ];
    env.extend(out.env.iter().map(|(k, v)| (*k, json_str(v))));
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let gates: Vec<String> = out.gates.0.iter().map(|g| json_str(g)).collect();
    let artifact = format!(
        "{{\"environment\": {{{}}}, \"correct\": {correct}, \"gate_failures\": [{}], \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        env_json.join(", "),
        gates.join(", "),
        out.attempted,
        out.failed,
        metric_json(&out.metrics.0)
    );

    let listed: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let summary_metrics: Vec<(String, f64, &str)> = listed
        .iter()
        .map(|&(name, unit)| (name.to_string(), out.metrics.get(name).unwrap_or(0.0), unit))
        .collect();
    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metric_json(&summary_metrics)
    );
    let name = format!(
        "{}-{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(out_dir().join(name), format!("{artifact}\n"));
    println!("{artifact}");
    println!("{summary}");
    if !correct {
        std::process::exit(1);
    }
}

//! Fleet service benchmark driver: runs the sharded multi-stream detection
//! service and writes `BENCH_fleet.json`.
//!
//! ```text
//! fleet [--streams N] [--seed N] [--threads N] [--smoke] [--no-quant] [--out PATH]
//! ```
//!
//! Runs one fleet pass with the f32 kernel and, unless `--no-quant`, one
//! with the 9-bit quantized kernel. `--smoke` is the CI setting: a small
//! fleet with short streams, enough to prove the artifact is produced and
//! well-formed. Exits non-zero on a bad argument or if the artifact cannot
//! be written.

use std::process::ExitCode;

use evax_bench::fleet_bench::{run_fleet_bench, FleetBenchConfig};
use evax_core::prelude::Parallelism;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FleetBenchConfig::default();
    let mut out = String::from("BENCH_fleet.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--streams" => {
                i += 1;
                cfg.n_streams = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--streams requires a positive integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed requires an integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--threads" => {
                i += 1;
                cfg.parallelism = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => Parallelism::Fixed(n),
                    _ => {
                        eprintln!("--threads requires a positive integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--smoke" => {
                cfg.smoke = true;
                cfg.n_streams = cfg.n_streams.min(64);
            }
            "--no-quant" => cfg.quantized = false,
            "--out" => {
                i += 1;
                out = match args.get(i) {
                    Some(p) => p.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: fleet [--streams N] [--seed N] [--threads N] \
                     [--smoke] [--no-quant] [--out PATH]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let report = run_fleet_bench(&cfg);
    let json = report.to_json();
    print!("{json}");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let f32 = &report.f32;
    eprintln!(
        "[fleet] f32 {:.0} windows/s (p50 {} ns, p99 {} ns)",
        f32.windows_per_sec, f32.p50_ns, f32.p99_ns
    );
    ExitCode::SUCCESS
}

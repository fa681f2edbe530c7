//! Peak-RSS comparison of streaming vs. materializing collection at a
//! corpus ≥ 10× the default — the memory-bound claim behind the unified
//! streaming featurization pipeline, recorded in `BENCH_stream.json`.
//!
//! `VmHWM` is a per-process high-water mark, so each path runs in its own
//! child process (the binary re-executes itself with `--mode ...`). The
//! parent runs each mode [`RUNS_PER_MODE`] times, alternating the two, and
//! reports the quartiles of time and peak RSS and of the paired ratios
//! (`peak_rss_ratio` is materialize ÷ streaming, `secs_ratio` streaming ÷
//! materialize):
//!
//! ```text
//! cargo run -p evax-bench --release --bin collect_rss > BENCH_stream.json
//! ```

use evax_bench::stream_bench::{
    collect_materialized, collect_streaming, corpus, peak_rss_kb, INTERVAL, MAX_INSTRS,
};
use evax_core::par::Parallelism;

/// 12 × (21 attacks + 10 benigns) = 372 runs; the default collection corpus
/// is 21×4 + 10×8 = 164 runs at the same budget, so this is > 10× the
/// default per-class run counts (and ~2.3× the default total).
const REPEAT: usize = 12;

fn run_one(mode: &str) {
    let programs = corpus(REPEAT);
    let baseline_kb = peak_rss_kb();
    let (ds, secs) = evax_bench::harness::timed(|| match mode {
        "streaming" => collect_streaming(&programs, Parallelism::Auto),
        "materialize" => collect_materialized(&programs, Parallelism::Auto),
        other => {
            eprintln!("unknown mode {other:?} (streaming|materialize)");
            std::process::exit(2);
        }
    });
    println!(
        "{{\"mode\": \"{mode}\", \"runs\": {}, \"samples\": {}, \"secs\": {secs:.3}, \
         \"baseline_rss_kb\": {baseline_kb}, \"peak_rss_kb\": {}}}",
        programs.len(),
        ds.len(),
        peak_rss_kb()
    );
}

/// Child processes per mode. One timing is too noisy to compare (a
/// single-shot `secs_ratio` ranged from 1.47 to 2.81 on one machine), so
/// each mode runs this many times, alternating with the other.
const RUNS_PER_MODE: usize = 5;

fn field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let rest = &json[json.find(&pat).expect("missing field") + pat.len()..];
    let end = rest.find([',', '}']).expect("unterminated field");
    rest[..end].trim().parse().expect("non-numeric field")
}

/// Lower quartile, median and upper quartile (linear interpolation
/// between order statistics).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

fn spread_json(values: &[f64], decimals: usize) -> String {
    let [p25, median, p75] = quartiles(values);
    format!(
        "{{\"p25\": {p25:.decimals$}, \"median\": {median:.decimals$}, \"p75\": {p75:.decimals$}}}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--mode" {
        run_one(&args[2]);
        return;
    }

    let exe = std::env::current_exe().expect("own path");
    let modes = ["streaming", "materialize"];
    // reports[m][rep]: one child's JSON line per mode and repetition. The
    // order alternates between repetitions so neither mode always runs
    // first on a warm (or cold) machine.
    let mut reports: [Vec<String>; 2] = Default::default();
    for rep in 0..RUNS_PER_MODE {
        for k in 0..modes.len() {
            let m = (k + rep) % modes.len();
            let out = std::process::Command::new(&exe)
                .args(["--mode", modes[m]])
                .output()
                .expect("spawn child");
            assert!(out.status.success(), "child {} failed", modes[m]);
            reports[m].push(String::from_utf8(out.stdout).expect("child output utf8"));
        }
    }
    let series =
        |m: usize, key: &str| -> Vec<f64> { reports[m].iter().map(|r| field(r, key)).collect() };
    for (m, mode) in modes.iter().enumerate() {
        for key in ["runs", "samples"] {
            let v = series(m, key);
            assert!(v.iter().all(|&x| x == v[0]), "{mode} {key} varies");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{{");
    println!(
        "  \"corpus_runs\": {}, \"interval\": {INTERVAL}, \"max_instrs\": {MAX_INSTRS}, \
         \"cores\": {cores}, \"threads\": \"auto\", \"repeats\": {RUNS_PER_MODE},",
        field(&reports[0][0], "runs") as u64
    );
    for (m, mode) in modes.iter().enumerate() {
        println!(
            "  \"{mode}\": {{\"samples\": {}, \"secs\": {}, \"peak_rss_kb\": {}, \
             \"baseline_rss_kb\": {}}},",
            field(&reports[m][0], "samples") as u64,
            spread_json(&series(m, "secs"), 3),
            spread_json(&series(m, "peak_rss_kb"), 0),
            spread_json(&series(m, "baseline_rss_kb"), 0),
        );
    }
    // Ratios pair the two modes' children of one repetition, which ran
    // back to back, so slow drift on the machine cancels. `num` is the
    // numerator mode; the other mode is the denominator.
    let ratios = |num: usize, key: &str| -> Vec<f64> {
        let (a, b) = (series(num, key), series(1 - num, key));
        a.iter().zip(&b).map(|(a, b)| a / b.max(1e-9)).collect()
    };
    println!(
        "  \"peak_rss_ratio\": {},",
        spread_json(&ratios(1, "peak_rss_kb"), 3)
    );
    println!("  \"secs_ratio\": {}", spread_json(&ratios(0, "secs"), 3));
    println!("}}");
}

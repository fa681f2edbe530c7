//! Streaming vs. materializing collection throughput.
//!
//! Both paths simulate every run once. The streaming path parks each window
//! in its `f32` sample buffer and normalizes it in place; the materializing
//! baseline holds every raw `f64` window. This bench puts a number on the
//! time side at a small corpus — the memory side is the `collect_rss`
//! binary (`BENCH_stream.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use evax_bench::stream_bench::{collect_materialized, collect_streaming, corpus};
use evax_core::par::Parallelism;

fn bench_streaming(c: &mut Criterion) {
    let programs = corpus(1); // 21 attacks + 10 benigns
    let mut group = c.benchmark_group("collect_streaming");
    group.throughput(Throughput::Elements(programs.len() as u64));
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(20));
    group.bench_function("streaming/serial", |b| {
        b.iter(|| {
            black_box(collect_streaming(
                black_box(&programs),
                Parallelism::serial(),
            ))
        })
    });
    group.bench_function("materialize/serial", |b| {
        b.iter(|| {
            black_box(collect_materialized(
                black_box(&programs),
                Parallelism::serial(),
            ))
        })
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("streaming/threads/{threads}"), |b| {
            b.iter(|| {
                black_box(collect_streaming(
                    black_box(&programs),
                    Parallelism::Fixed(threads),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);

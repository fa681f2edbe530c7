//! The metrics layer must be invisible to the simulation: a recording
//! [`MetricsSink`] wired through collection produces bit-identical datasets
//! and maxima to the default no-op sink, and the deterministic metrics
//! export itself is byte-identical at any worker thread count.

use evax::core::collect::{collect_dataset_stats, collect_dataset_stats_with, CollectConfig};
use evax::core::prelude::{Dataset, MetricsSink, Normalizer, Parallelism, Registry};

fn small_collect(parallelism: Parallelism) -> CollectConfig {
    CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: 3_000,
        benign_scale: 3_000,
        parallelism,
        ..Default::default()
    }
}

fn assert_datasets_identical(a: &Dataset, b: &Dataset) {
    assert_eq!(a.len(), b.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa.class, sb.class);
        assert_eq!(sa.features.len(), sb.features.len());
        for (va, vb) in sa.features.iter().zip(&sb.features) {
            assert_eq!(va.to_bits(), vb.to_bits(), "feature bits diverged");
        }
    }
}

fn assert_maxima_identical(a: &Normalizer, b: &Normalizer) {
    for (ma, mb) in a.maxima().iter().zip(b.maxima().iter()) {
        assert_eq!(ma.to_bits(), mb.to_bits(), "maxima bits diverged");
    }
}

#[test]
fn recording_sink_leaves_collection_bitwise_unchanged() {
    let cfg = small_collect(Parallelism::Fixed(2));
    let (plain_ds, plain_stats) = collect_dataset_stats(&cfg, 42);

    let registry = Registry::shared();
    let sink = MetricsSink::recording(&registry);
    let (metered_ds, metered_stats) = collect_dataset_stats_with(&cfg, 42, &sink);

    assert_datasets_identical(&plain_ds, &metered_ds);
    assert_maxima_identical(&plain_stats.normalizer(), &metered_stats.normalizer());
    // ...while actually recording something.
    assert!(registry.get("collect.samples").unwrap_or(0) > 0);
    assert_eq!(
        registry.get("collect.samples"),
        Some(metered_ds.len() as u64)
    );
    // Every run is simulated, and every window featurized, exactly once.
    assert!(registry.get("collect.runs").unwrap_or(0) > 0);
    assert_eq!(registry.get("featurize.runs"), registry.get("collect.runs"));
    assert_eq!(
        registry.get("featurize.windows"),
        registry.get("collect.samples")
    );
}

#[test]
fn metrics_export_is_thread_count_invariant() {
    let export_at = |threads: usize| {
        let registry = Registry::shared();
        let sink = MetricsSink::recording(&registry);
        collect_dataset_stats_with(&small_collect(Parallelism::Fixed(threads)), 7, &sink);
        registry.to_json()
    };
    let one = export_at(1);
    assert_eq!(one, export_at(4), "1-thread vs 4-thread export diverged");
    assert_eq!(one, export_at(16), "1-thread vs 16-thread export diverged");
    assert!(
        one.contains("\"featurize.windows\""),
        "missing metric in {one}"
    );
}

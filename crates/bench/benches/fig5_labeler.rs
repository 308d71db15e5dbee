//! Figure 5 — disclosure labeler performance.
//!
//! The paper plots the time to analyze one million randomly generated
//! queries against the maximum number of atoms per query (3–15), for four
//! configurations: query generation only, the baseline `LabelGen`
//! adaptation, hash partitioning, and hash partitioning plus bit-vector
//! labels.  This bench measures the same four series as throughput
//! (queries/second); multiply out to recover the per-million-queries time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdc_bench::{labeling_workload, BATCH_SIZE};
use fdc_core::QueryLabeler;
use fdc_ecosystem::{Ecosystem, WorkloadConfig};
use std::hint::black_box;
use std::time::Duration;

fn fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_labeler");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for max_atoms in [3usize, 6, 9, 12, 15] {
        let workload = labeling_workload(max_atoms, BATCH_SIZE);
        group.throughput(Throughput::Elements(workload.queries.len() as u64));

        // Series 1: query generation only.
        group.bench_with_input(
            BenchmarkId::new("generation_only", max_atoms),
            &max_atoms,
            |b, &max_atoms| {
                let ecosystem = Ecosystem::new();
                let max_subqueries = (max_atoms / 3).max(1);
                b.iter(|| {
                    let mut generator =
                        ecosystem.workload(WorkloadConfig::stress(max_subqueries, 0xBEEF));
                    black_box(generator.batch(BATCH_SIZE))
                });
            },
        );

        // Series 2: baseline (LabelGen, linear scan over all views).
        group.bench_with_input(
            BenchmarkId::new("baseline", max_atoms),
            &workload,
            |b, w| {
                b.iter(|| {
                    for q in &w.queries {
                        black_box(w.ecosystem.baseline.label_query(q));
                    }
                });
            },
        );

        // Series 3: hashing only.
        group.bench_with_input(
            BenchmarkId::new("hashing_only", max_atoms),
            &workload,
            |b, w| {
                b.iter(|| {
                    for q in &w.queries {
                        black_box(w.ecosystem.hashed.label_query(q));
                    }
                });
            },
        );

        // Series 4: bit vectors + hashing.
        group.bench_with_input(
            BenchmarkId::new("bitvectors_hashing", max_atoms),
            &workload,
            |b, w| {
                b.iter(|| {
                    for q in &w.queries {
                        black_box(w.ecosystem.bitvec.label_query(q));
                    }
                });
            },
        );

        // Series 5 (beyond the paper): canonical-form label cache.
        group.bench_with_input(BenchmarkId::new("cached", max_atoms), &workload, |b, w| {
            b.iter(|| {
                for q in &w.queries {
                    black_box(w.ecosystem.cached.label_query(q));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fig5);
criterion_main!(benches);

//! Figure 6 — policy checker performance.
//!
//! The paper plots the time to analyze one million disclosure labels against
//! the maximum number of elements (single-atom views) per policy partition,
//! for six configurations: {1-way, 5-way partitions} × {1K, 50K, 1M
//! principals}.  This bench measures the same grid as throughput
//! (labels/second) for the compiled/interned store, on the unpacked and the
//! packed submission path.  The full grid (including the 1M-principal axis,
//! now the default) runs under `cargo bench`; under `cargo test` the sweep
//! shrinks to its smallest point so the measurement path stays a fast smoke
//! test.  For the seed-store baseline see the `fig6_json` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdc_bench::{fig6_principal_counts, policy_workload};
use fdc_policy::PrincipalId;
use std::hint::black_box;
use std::time::Duration;

fn fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_policy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Only `cargo bench` passes --bench; anything else (cargo test runs the
    // body once as a smoke test) gets the smallest grid so the heavyweight
    // workload setup does not dominate the test suite.
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let (principal_counts, label_batch, element_sweep): (Vec<usize>, usize, &[usize]) =
        if bench_mode {
            (fig6_principal_counts(), 10_000, &[5, 25, 50])
        } else {
            (vec![1_000], 1_000, &[5])
        };

    for &num_principals in &principal_counts {
        for &max_partitions in &[1usize, 5] {
            for &max_elements in element_sweep {
                let workload =
                    policy_workload(num_principals, max_partitions, max_elements, label_batch);
                group.throughput(Throughput::Elements(workload.labels.len() as u64));
                let id = format!("{max_partitions}way_{num_principals}principals");
                // The store is mutated across iterations (as a long-running
                // reference monitor would be); the per-label cost is the
                // same whether or not the consistency bits have already
                // converged, and per-principal state is 24 bytes, so the
                // one-time clone is cheap even at a million principals.
                let mut store = workload.store.clone();
                group.bench_with_input(BenchmarkId::new(&id, max_elements), &workload, |b, w| {
                    b.iter(|| {
                        for (i, label) in w.labels.iter().enumerate() {
                            let principal = PrincipalId((i % w.num_principals) as u32);
                            black_box(store.submit(principal, label));
                        }
                    });
                });
                let mut packed_store = workload.store.clone();
                group.bench_with_input(
                    BenchmarkId::new(format!("{id}_packed"), max_elements),
                    &workload,
                    |b, w| {
                        b.iter(|| {
                            for (i, packed) in w.packed.iter().enumerate() {
                                let principal = PrincipalId((i % w.num_principals) as u32);
                                black_box(packed_store.submit_packed(principal, packed));
                            }
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, fig6);
criterion_main!(benches);

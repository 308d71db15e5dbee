//! Figure 6 sweep: policy checker performance, printed as the series of the
//! paper's figure.
//!
//! The paper reports the time to analyze one million disclosure labels as
//! the maximum number of elements per policy partition grows from 5 to 50,
//! for 1-way and 5-way policies and 1K / 50K / 1M principals.  This example
//! measures smaller batches with `std::time` and scales to a per-million
//! figure.  For statistically rigorous numbers use
//! `cargo bench -p fdc-bench --bench fig6_policy`.
//!
//! Run with `cargo run --release --example fig6_policy_sweep`.  The full
//! 1M-principal axis is the default now that the store interns compiled
//! policies (24 bytes of state per principal); set `FDC_FIG6_FULL=0` to
//! shrink the largest point on memory-constrained machines.

use std::time::Instant;

use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use fdc::policy::PrincipalId;

fn main() {
    let ecosystem = Ecosystem::new();
    let label_batch: usize = std::env::var("FDC_SWEEP_LABELS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let principal_counts: Vec<usize> = if std::env::var("FDC_FIG6_FULL").is_ok_and(|v| v == "0") {
        vec![1_000, 50_000, 250_000]
    } else {
        vec![1_000, 50_000, 1_000_000]
    };

    // Pre-label one batch of base-workload queries (1-3 atoms, as in the
    // paper), through the caching labeler so setup stays cheap.
    let mut generator = ecosystem.workload(WorkloadConfig::base(0xF16F));
    let labels = ecosystem.label_batch_cached(&generator.batch(label_batch.min(50_000)));

    println!("Figure 6 — policy checker performance");
    println!("(seconds to analyze one million disclosure labels, extrapolated)\n");
    println!(
        "{:>28} | {:>6} | {:>6} | {:>6}  (max elements per partition)",
        "configuration", 5, 25, 50
    );
    println!("{}", "-".repeat(64));

    for &partitions in &[5usize, 1] {
        for &principals in &principal_counts {
            let mut cells = Vec::new();
            for &max_elements in &[5usize, 25, 50] {
                let mut policy_gen = ecosystem.policy_generator(PolicyGeneratorConfig {
                    max_partitions: partitions,
                    max_elements_per_partition: max_elements,
                    template_pool: 1_000,
                    seed: 0xF16,
                });
                let mut store = policy_gen.build_store(&ecosystem.views, principals);
                let start = Instant::now();
                let mut allowed = 0usize;
                for (i, label) in labels.iter().enumerate() {
                    let principal = PrincipalId((i % principals) as u32);
                    if store.submit(principal, label).is_allow() {
                        allowed += 1;
                    }
                }
                let elapsed = start.elapsed();
                assert!(allowed <= labels.len());
                cells.push(elapsed.as_secs_f64() * 1_000_000.0 / labels.len() as f64);
            }
            println!(
                "{:>28} | {:>5.2}s | {:>5.2}s | {:>5.2}s",
                format!("{partitions}-way, {principals} principals"),
                cells[0],
                cells[1],
                cells[2]
            );
        }
    }

    println!(
        "\nExpected shape (paper, C on a 2.9 GHz Core i7): well under a second per million labels; \
         throughput degrades gently as the number of principals grows (cache locality) and is \
         higher for 1-way than for 5-way policies; the number of elements per partition has \
         little effect thanks to the bit-mask representation."
    );
}

//! The dynamic disclosure-control service end to end: one mixed stream of
//! admissions, permission grants/revokes and online security-view additions
//! flows through the `DisclosureService`, and the epoch-versioned label
//! caches absorb the churn without a flush.
//!
//! The run prints the served throughput together with the cache counters
//! that tell the story: mutations bump per-relation epochs
//! (`invalidations`), stale entries re-derive lazily and only for their
//! stale atoms (`query_refreshes` / `atom_refreshes`), and everything else
//! keeps hitting.  A twin serving the identical stream, whose label cache
//! this example clears after every mutation, shows what the epoch
//! machinery saves.
//!
//! Run with `cargo run --release --example dynamic_service`.

use std::time::Instant;

use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc::service::ServiceConfig;

fn main() {
    let ecosystem = Ecosystem::new();
    let num_principals = 10_000;
    let policy_config = PolicyGeneratorConfig {
        max_partitions: 5,
        max_elements_per_partition: 25,
        template_pool: 500,
        seed: 0xD15C,
    };
    let churn_config = ChurnConfig {
        mutation_ratio: 0.01,
        add_view_share: 0.1,
        check_share: 0.05,
        query_pool: 1_000,
        num_principals,
        seed: 0xD15C,
        workload: WorkloadConfig::stress(2, 0xD15D),
    };
    let warmup_ops = 5_000;
    let stream_ops = 30_000;

    println!("Building two identically seeded services ({num_principals} principals)…");
    for (label, flush_on_mutation) in [
        ("incremental (epoch-versioned)", false),
        ("flush-on-mutation baseline", true),
    ] {
        let mut service = ecosystem.disclosure_service(
            policy_config,
            num_principals,
            ServiceConfig {
                history_cap: 0,
                ..ServiceConfig::default()
            },
        );
        let mut churn = ecosystem.churn(churn_config);
        let warmup = churn.admissions(warmup_ops);
        let stream = churn.ops(stream_ops);
        service.run_pipelined(&warmup);

        // The baseline is a way of driving the service, not a mode of it:
        // serve up to and including each mutation, then drop every cached
        // label ("something changed, recompute the world").
        let mut flushes = 0;
        let start = Instant::now();
        for chunk in stream.chunks(1_024) {
            if flush_on_mutation {
                for run in chunk.chunk_by(|before, _| !before.is_mutation()) {
                    service.run_pipelined(run);
                    if run[run.len() - 1].is_mutation() {
                        service.flush_label_cache();
                        flushes += 1;
                    }
                }
            } else {
                service.run_pipelined(chunk);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cache = service.labeler().stats();
        let stats = service.stats();
        let (answered, refused) = service.totals();
        println!("\n{label}:");
        println!(
            "  {:.0} ops/s over {} ops ({} mutations, {} flushes)",
            stream.len() as f64 / elapsed,
            stream.len(),
            stats.mutations,
            flushes,
        );
        println!(
            "  label cache: {} hits, {} misses, {} invalidations, \
             {} query refreshes, {} atom refreshes",
            cache.hits,
            cache.misses,
            cache.invalidations,
            cache.query_refreshes,
            cache.atom_refreshes,
        );
        println!("  decisions: {answered} answered, {refused} refused");
    }
    println!(
        "\nSame stream, same decisions — the incremental service just never \
         throws its cache away."
    );
}

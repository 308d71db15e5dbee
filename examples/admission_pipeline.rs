//! The fused admission path end to end, served by the `DisclosureService`
//! front door: parsed queries go in, policy decisions come out, and the
//! label never leaves the packed 64-bit form between the caching labeler
//! and the interned policy store.
//!
//! The third pass shows the interned query plane: the workload's query
//! shapes are interned **once** through the service's `QueryInterner`, and
//! the steady state then streams 8-byte `QueryId`s — no per-request
//! canonical hashing at all.
//!
//! Run with `cargo run --release --example admission_pipeline`.

use std::time::Instant;

use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use fdc::policy::PrincipalId;
use fdc::service::{Operation, ServiceConfig};

fn main() {
    let ecosystem = Ecosystem::new();
    let num_principals = 10_000;
    let config = PolicyGeneratorConfig {
        max_partitions: 5,
        max_elements_per_partition: 25,
        template_pool: 500,
        seed: 0xADC,
    };

    println!("Building the disclosure service…");
    let mut service = ecosystem.disclosure_service(
        config,
        num_principals,
        ServiceConfig {
            history_cap: 0, // pure admission benchmark: no audit history
            ..ServiceConfig::default()
        },
    );
    let store = service.store();
    println!(
        "  {} principals, {} distinct compiled policies, \
         {} bytes of per-principal state ({} bytes each)\n",
        store.len(),
        store.unique_policies(),
        store.state_bytes(),
        store.state_bytes() / store.len().max(1),
    );

    // A batch of incoming requests: round-robin principals, workload queries.
    let batch_size = 50_000;
    let mut workload = ecosystem.workload(WorkloadConfig::base(0xADC0));
    let queries = workload.batch(batch_size);
    let ops: Vec<Operation> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| Operation::Submit {
            principal: PrincipalId((i % num_principals) as u32),
            query: query.clone(),
        })
        .collect();

    println!("Admitting {batch_size} requests (label → packed check, on the calling thread)…");
    let start = Instant::now();
    let responses = service.run_pipelined(&ops);
    let elapsed = start.elapsed();

    let allowed = responses
        .iter()
        .filter(|r| r.decision().is_some_and(|d| d.is_allow()))
        .count();
    let (answered, refused) = service.totals();
    println!(
        "  {} allowed, {} refused in {:.1} ms ({:.2} M requests/s)\n",
        allowed,
        batch_size - allowed,
        elapsed.as_secs_f64() * 1e3,
        batch_size as f64 / elapsed.as_secs_f64() / 1e6,
    );
    assert_eq!((answered + refused) as usize, batch_size);

    // The second pass is the serving steady state: every query shape is a
    // label-cache hit, every decision a handful of bit-mask operations.
    let start = Instant::now();
    let _ = service.run_pipelined(&ops);
    let warm = start.elapsed();
    let stats = service.labeler().stats();
    println!(
        "Warm pass: {:.1} ms ({:.2} M requests/s); label cache: {} hits, {} misses ({:.0}% hit rate)",
        warm.as_secs_f64() * 1e3,
        batch_size as f64 / warm.as_secs_f64() / 1e6,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );

    // Third pass on the interned plane: intern each shape once, then stream
    // dense ids — the canonical hash disappears from the hot loop.
    let interned_ops: Vec<Operation> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| Operation::SubmitInterned {
            principal: PrincipalId((i % num_principals) as u32),
            query: service.intern(query).unwrap(),
        })
        .collect();
    let distinct = service.interner().len();
    let start = Instant::now();
    let interned_responses = service.run_pipelined(&interned_ops);
    let interned = start.elapsed();
    assert_eq!(interned_responses.len(), batch_size);
    println!(
        "Interned pass: {:.1} ms ({:.2} M requests/s) over {} distinct interned shapes",
        interned.as_secs_f64() * 1e3,
        batch_size as f64 / interned.as_secs_f64() / 1e6,
        distinct,
    );
}

//! Recovery cold-start, machine-readable: checkpoint bulkload vs
//! from-generator rebuild.
//!
//! The durable state plane (`crates/durability` + the service's
//! `open_durable` lifecycle) exists so a restarted service does not have to
//! re-derive its world.  This benchmark quantifies that: at the Figure 7
//! population (100K principals, pooled random Chinese-Wall policies, a
//! churn slice applied on top), it times two ways of reaching the same
//! serving state from a cold process:
//!
//! * `rebuild` — the pre-durability path: re-generate every policy from the
//!   deterministic generator, register each principal, and re-apply the
//!   churn slice through `run_pipelined`.
//! * `bulkload` — `DisclosureService::open_durable` against a directory
//!   holding a fresh checkpoint: one sequential read, one whole-file CRC,
//!   arena-level decodes of the registry / interner / policy store, zero
//!   WAL records to replay.
//!
//! Both paths are driven to the bit-identical store (asserted before
//! timing is reported), so the headline `speedup_bulkload_vs_rebuild` is an
//! apples-to-apples cold-start ratio.  The committed acceptance floor is
//! 5x, enforced by `bench_check --recovery` in CI.
//!
//! ```text
//! cargo run --release -p fdc-bench --bin recovery_json            # full run
//! FDC_BENCH_SMOKE=1 cargo run -p fdc-bench --bin recovery_json    # CI smoke
//! ```

use std::path::PathBuf;
use std::time::Instant;

use fdc_bench::{fig7_policy_config, FIG7_QUERY_POOL};
use fdc_ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc_service::{DisclosureService, DurabilityConfig, Operation, ServiceConfig};

/// Serving-sized request-loop batches, as in `fig7_json`.
const BATCH_OPS: usize = 1_024;

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a != "--smoke")
        .unwrap_or_else(|| "BENCH_recovery.json".to_owned());
    let smoke = std::env::var("FDC_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke");

    // Best-of-N: the rebuild leg is seconds long and stable, but the
    // bulkload leg is fast enough that a single cold run on a shared host
    // can eat a page-cache hiccup; best-of converges both to the machine's
    // fast state.
    // The full churn slice is sized so the re-execution cost a rebuild
    // cannot avoid (cold labeling of the admission stream) is visible next
    // to the population-registration cost it shares with seeding.
    let (num_principals, churn_ops, repeats) = if smoke {
        (2_000, 1_000, 1)
    } else {
        (100_000, 25_000, 3)
    };
    println!(
        "recovery_json: principals={num_principals} churn_ops={churn_ops} \
         repeats={repeats} smoke={smoke}"
    );

    let ecosystem = Ecosystem::new();
    let stream = churn_stream(&ecosystem, num_principals, churn_ops);
    let dir = scratch_dir(smoke);

    // Seed the durable directory once: register the population and apply
    // the churn slice through the WAL'd front door, then checkpoint so the
    // timed bulkload is pure snapshot decode (zero records to replay).
    let seed_start = Instant::now();
    let (mut service, _) =
        DisclosureService::open_durable(ecosystem.views.clone(), durable_config(), &dir)
            .expect("failed to open the durable scratch directory");
    register_population(&ecosystem, &mut service, num_principals);
    for chunk in stream.chunks(BATCH_OPS) {
        std::hint::black_box(service.run_pipelined(chunk));
    }
    let wal_records = service.checkpoint().expect("checkpoint failed");
    let reference = state_digest(&service);
    // The durability health block of the seeding run: the gate in
    // `bench_check --recovery` demands a run that never degraded and
    // landed its checkpoint — a seeding pass that survived on retries
    // or fell back to read-only would not be measuring the real path.
    let health = service.stats().durability;
    assert_eq!(health.mode_transitions, 0, "seeding run degraded");
    service.close().expect("close failed");
    println!(
        "seeded {} WAL records + checkpoint in {:.1}s",
        wal_records,
        seed_start.elapsed().as_secs_f64()
    );

    // Leg 1: from-generator rebuild (the pre-durability cold start).
    let mut rebuild_ms = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut rebuilt = DisclosureService::new(ecosystem.views.clone(), volatile_config());
        register_population(&ecosystem, &mut rebuilt, num_principals);
        for chunk in stream.chunks(BATCH_OPS) {
            std::hint::black_box(rebuilt.run_pipelined(chunk));
        }
        rebuild_ms = rebuild_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            state_digest(&rebuilt),
            reference,
            "rebuild diverged from the checkpointed state"
        );
    }

    // Leg 2: checkpoint bulkload (open_durable cold start).
    let mut bulkload_ms = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let (recovered, report) =
            DisclosureService::open_durable(ecosystem.views.clone(), durable_config(), &dir)
                .expect("bulkload open failed");
        bulkload_ms = bulkload_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.records_replayed, 0, "checkpoint must cover the log");
        assert_eq!(
            state_digest(&recovered),
            reference,
            "bulkload diverged from the checkpointed state"
        );
        recovered.close().expect("close failed");
    }

    let speedup = rebuild_ms / bulkload_ms;
    println!(
        "rebuild {rebuild_ms:.1}ms | bulkload {bulkload_ms:.1}ms | \
         {speedup:.1}x (acceptance: >= 5x committed, >= 1x smoke)"
    );

    let json = render_json(
        num_principals,
        churn_ops,
        wal_records,
        rebuild_ms,
        bulkload_ms,
        speedup,
        health,
        smoke,
    );
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durable service configuration under test.  `fsync` is disabled: the
/// benchmark measures decode/replay cost, not the host's disk-flush
/// latency, and the seeding phase would otherwise be dominated by it.
fn durable_config() -> ServiceConfig {
    ServiceConfig {
        history_cap: 0,
        durability: DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The same configuration without the durable plane — the rebuild leg.
fn volatile_config() -> ServiceConfig {
    ServiceConfig {
        history_cap: 0,
        ..ServiceConfig::default()
    }
}

/// Registers the Figure 7 policy population, identically on every call
/// (the generator is seeded, so rebuild and seed legs see the same world).
fn register_population(
    ecosystem: &Ecosystem,
    service: &mut DisclosureService,
    num_principals: usize,
) {
    let mut policies = ecosystem.policy_generator(fig7_policy_config());
    for _ in 0..num_principals {
        let policy = policies.next_policy(&ecosystem.views);
        service.register_principal(policy);
    }
}

/// The churn slice applied on top of the registered population: the
/// Figure 7 operation mix at a 1% mutation ratio.
fn churn_stream(ecosystem: &Ecosystem, num_principals: usize, ops: usize) -> Vec<Operation> {
    let mut churn = ecosystem.churn(ChurnConfig {
        mutation_ratio: 0.01,
        add_view_share: 0.1,
        check_share: 0.0,
        query_pool: FIG7_QUERY_POOL,
        num_principals,
        seed: 0x4EC0_0001,
        workload: WorkloadConfig::stress(2, 0xF17_0002),
    });
    churn.ops(ops)
}

/// A cheap extensional digest for the parity assertions: population size,
/// store decision totals, and the registry's view-universe shape.
fn state_digest(service: &DisclosureService) -> (usize, (u64, u64), usize) {
    (
        service.store().len(),
        service.totals(),
        service.registry().len(),
    )
}

/// A scratch directory under the system temp dir, keyed by pid so
/// concurrent smoke and full runs do not collide.
fn scratch_dir(smoke: bool) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fdc_recovery_json_{}_{}",
        std::process::id(),
        if smoke { "smoke" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the result as JSON by hand (the workspace is offline, so no
/// serde).  The key set is the contract `bench_check --recovery` reads:
/// the timings, plus the seeding run's durability-health counters (the
/// gate rejects a trajectory whose seeding degraded or lost its
/// checkpoint).
#[allow(clippy::too_many_arguments)]
fn render_json(
    num_principals: usize,
    churn_ops: usize,
    wal_records: u64,
    rebuild_ms: f64,
    bulkload_ms: f64,
    speedup: f64,
    health: fdc_service::DurabilityHealth,
    smoke: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"recovery_cold_start\",\n");
    out.push_str("  \"unit\": \"milliseconds\",\n");
    out.push_str(&format!("  \"principals\": {num_principals},\n"));
    out.push_str(&format!("  \"churn_ops\": {churn_ops},\n"));
    out.push_str(&format!("  \"wal_records\": {wal_records},\n"));
    out.push_str(&format!("  \"rebuild_ms\": {rebuild_ms:.3},\n"));
    out.push_str(&format!("  \"bulkload_ms\": {bulkload_ms:.3},\n"));
    out.push_str(&format!(
        "  \"speedup_bulkload_vs_rebuild\": {speedup:.3},\n"
    ));
    out.push_str("  \"min_speedup_required\": 5.0,\n");
    out.push_str(&format!(
        "  \"health_wal_records_committed\": {},\n",
        health.wal_records_committed
    ));
    out.push_str(&format!(
        "  \"health_wal_commits\": {},\n",
        health.wal_commits
    ));
    out.push_str(&format!(
        "  \"health_wal_retries\": {},\n",
        health.wal_retries
    ));
    out.push_str(&format!(
        "  \"health_wal_fsync_failures\": {},\n",
        health.wal_fsync_failures
    ));
    out.push_str(&format!(
        "  \"health_checkpoints\": {},\n",
        health.checkpoints
    ));
    out.push_str(&format!(
        "  \"health_checkpoint_failures\": {},\n",
        health.checkpoint_failures
    ));
    out.push_str(&format!(
        "  \"health_mode_transitions\": {},\n",
        health.mode_transitions
    ));
    out.push_str(&format!("  \"smoke\": {smoke}\n"));
    out.push_str("}\n");
    out
}

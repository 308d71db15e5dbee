//! Kill-and-recover drill: a durable [`DisclosureService`] serves a
//! 10,000-op churn stream while the drill repeatedly "crashes" it — by
//! snapshotting the durability directory mid-stream, exactly as a power
//! cut would freeze the disk — and then recovers each crash image and
//! diffs it against an uncrashed reference.
//!
//! The recovered service must equal the reference that applied precisely
//! the operations whose WAL records survived in the image: per-principal
//! consistency words and decision counters, store totals, the view
//! registry's size and per-relation epochs, and the decisions of a fixed
//! probe set.  A mid-way checkpoint makes the later images exercise
//! checkpoint-bulkload *plus* tail replay, not just pure replay.
//!
//! The drill exits nonzero on any mismatch, so CI can run it as a smoke
//! gate: `cargo run --release --example recovery_drill`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fdc::cq::{ConjunctiveQuery, RelId};
use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc::policy::PrincipalId;
use fdc::service::{DisclosureService, DurabilityConfig, Operation, ServiceConfig};

const PRINCIPALS: usize = 2_000;
const OPS: usize = 10_000;
/// Ops applied before the mid-stream checkpoint (a 64-op chunk boundary,
/// so the comparison below observes it exactly).
const CHECKPOINT_AT: usize = 3_968;
/// Stream positions (op counts) at which a crash image is taken.
const CRASH_POINTS: [usize; 4] = [1_024, 4_096, 7_168, 10_000];

fn main() -> ExitCode {
    let ecosystem = Ecosystem::new();
    let policy_config = PolicyGeneratorConfig {
        max_partitions: 5,
        max_elements_per_partition: 25,
        template_pool: 200,
        seed: 0xD211,
    };
    let stream = ecosystem
        .churn(ChurnConfig {
            mutation_ratio: 0.02,
            add_view_share: 0.1,
            check_share: 0.05,
            query_pool: 500,
            num_principals: PRINCIPALS,
            seed: 0xD211,
            workload: WorkloadConfig::stress(2, 0xD212),
        })
        .ops(OPS);
    let probes = ecosystem
        .workload(WorkloadConfig::stress(2, 0xD213))
        .batch(12);

    let live_dir = scratch_dir("live");
    let config = ServiceConfig {
        history_cap: 0,
        durability: DurabilityConfig {
            // Small commit groups so crash images cut close to the stream
            // position; fsync off (the crash is a directory snapshot, not
            // a power cut — page-cache contents are part of the image).
            group_commit: 8,
            fsync: false,
            ..DurabilityConfig::default()
        },
        ..ServiceConfig::default()
    };

    println!("recovery_drill: {PRINCIPALS} principals, {OPS}-op churn stream");
    let (mut service, _) =
        DisclosureService::open_durable(ecosystem.views.clone(), config, &live_dir)
            .expect("failed to open the live durability directory");
    let mut policies = ecosystem.policy_generator(policy_config);
    for _ in 0..PRINCIPALS {
        let policy = policies.next_policy(&ecosystem.views);
        service.register_principal(policy);
    }

    // Serve the stream, freezing a crash image at each crash point.
    let mut images: Vec<(usize, PathBuf)> = Vec::new();
    let mut applied = 0usize;
    for chunk in stream.chunks(64) {
        service.run_pipelined(chunk);
        applied += chunk.len();
        if CRASH_POINTS.contains(&applied) {
            let image = scratch_dir(&format!("image_{applied}"));
            copy_dir(&live_dir, &image).expect("failed to snapshot a crash image");
            images.push((applied, image));
        }
        if applied == CHECKPOINT_AT {
            let seq = service.checkpoint().expect("mid-stream checkpoint failed");
            println!("  checkpoint at op {applied} (log sequence {seq})");
        }
    }
    service.close().expect("close failed");

    // Recover every crash image and diff it against a reference that
    // applied exactly the operations whose records survived.
    let mut failures = 0usize;
    for (at, image) in &images {
        let (mut recovered, report) =
            DisclosureService::open_durable(ecosystem.views.clone(), config, image)
                .expect("crash-image recovery failed");
        let replayed_ops = report.last_seq as usize - PRINCIPALS;
        let mut reference = DisclosureService::new(ecosystem.views.clone(), volatile(&config));
        let mut reference_policies = ecosystem.policy_generator(policy_config);
        for _ in 0..PRINCIPALS {
            let policy = reference_policies.next_policy(&ecosystem.views);
            reference.register_principal(policy);
        }
        let mut logged = 0usize;
        for op in &stream {
            if logged == replayed_ops {
                break;
            }
            if is_logged(op) {
                logged += 1;
            }
            reference.apply(op);
        }
        let got = fingerprint(&mut recovered, &probes);
        let want = fingerprint(&mut reference, &probes);
        let verdict = if got == want { "OK" } else { "MISMATCH" };
        println!(
            "  crash at op {at}: checkpoint seq {}, {} records replayed, \
             {replayed_ops} stream ops recovered — {verdict}",
            report.checkpoint_seq, report.records_replayed
        );
        if got != want {
            failures += 1;
        }
        let _ = fs::remove_dir_all(image);
    }
    let _ = fs::remove_dir_all(&live_dir);

    if failures == 0 {
        println!("all {} crash images recovered consistently", images.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} crash image(s) diverged from the reference");
        ExitCode::FAILURE
    }
}

/// The same configuration with durability stripped — the in-memory
/// reference twin.
fn volatile(config: &ServiceConfig) -> ServiceConfig {
    ServiceConfig {
        durability: DurabilityConfig::default(),
        ..*config
    }
}

/// Whether `op` produces a WAL record (everything but reads).
fn is_logged(op: &Operation) -> bool {
    !matches!(
        op,
        Operation::Check { .. } | Operation::CheckInterned { .. } | Operation::AuditApp { .. }
    )
}

/// An extensional digest of everything durable two equal services must
/// agree on.
#[derive(PartialEq, Eq)]
struct Fingerprint {
    /// Per principal: consistency word + (allowed, denied) counters.
    words: Vec<(u64, (u64, u64))>,
    totals: (u64, u64),
    registry_len: usize,
    epochs: Vec<u64>,
    /// Debug-formatted probe decisions.
    decisions: Vec<String>,
}

fn fingerprint(service: &mut DisclosureService, probes: &[ConjunctiveQuery]) -> Fingerprint {
    let principals = service.store().len();
    let words = (0..principals)
        .map(|i| {
            let p = PrincipalId(i as u32);
            (
                service.store().consistency_bits(p),
                service.store().stats(p),
            )
        })
        .collect();
    let totals = service.store().totals();
    let registry_len = service.registry().len();
    let epochs = (0..service.registry().catalog().len())
        .map(|r| service.registry().epoch(RelId(r as u32)))
        .collect();
    let decisions = probes
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let p = PrincipalId((i % principals) as u32);
            format!("{:?}", service.check(p, q))
        })
        .collect();
    Fingerprint {
        words,
        totals,
        registry_len,
        epochs,
        decisions,
    }
}

/// Recursively copies the durability directory — the crash image.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fdc_recovery_drill_{tag}_{}", std::process::id()))
}

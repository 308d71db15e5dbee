//! Kill-and-recover drill: a durable [`DisclosureService`] serves a
//! 10,000-op churn stream while the drill repeatedly "crashes" it — by
//! snapshotting the durability directory mid-stream, exactly as a power
//! cut would freeze the disk — and then recovers each crash image and
//! diffs it against the specification.
//!
//! The recovered service must be in the state of a `ReferenceService` that
//! applied precisely the operations whose WAL records survived in the image,
//! by the fingerprint the test suites use (`tests/support/harness.rs`):
//! per-principal policies, consistency words and decision counters, store
//! totals, the view registry's names and per-relation epochs, and the labels
//! and decisions of a fixed probe set.  A mid-way checkpoint makes the later
//! images exercise checkpoint-bulkload *plus* tail replay, not just pure
//! replay.
//!
//! The drill exits nonzero on any mismatch, so CI can run it as a smoke
//! gate: `cargo run --release --example recovery_drill`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[path = "../tests/support/harness.rs"]
mod harness;

use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc::service::{DisclosureService, DurabilityConfig, ServiceConfig};
use harness::{fingerprint, is_logged, populate, Fingerprint, World};

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
    let mut policies = ecosystem.policy_generator(policy_config);
    let world = World {
        policies: (0..PRINCIPALS)
            .map(|_| policies.next_policy(&ecosystem.views))
            .collect(),
        // Probed, never submitted by id: the stream is boxed.
        pool: ecosystem
            .workload(WorkloadConfig::stress(2, 0xD213))
            .batch(4),
        ids: Vec::new(),
        registry: ecosystem.views.clone(),
        history_cap: 0,
    };

    let live_dir = scratch_dir("live");
    let config = ServiceConfig {
        history_cap: world.history_cap,
        durability: DurabilityConfig {
            // fsync off: the crash is a directory snapshot, not a power
            // cut — page-cache contents are part of the image.  Each
            // 64-op request commits once, so a crash image cuts exactly at
            // its stream position.
            fsync: false,
            ..DurabilityConfig::default()
        },
        ..ServiceConfig::default()
    };

    println!("recovery_drill: {PRINCIPALS} principals, {OPS}-op churn stream");
    let (mut service, _) =
        DisclosureService::open_durable(ecosystem.views.clone(), config, &live_dir)
            .expect("failed to open the live durability directory");
    populate(&mut service, &world);

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

    // Recover every crash image and diff it against the specification
    // applied to exactly the operations whose records survived — one model,
    // advanced from image to image (the images are in stream order).
    let mut model = world.model();
    let mut pending = stream.iter();
    let mut logged = 0usize;
    let mut failures = 0usize;
    for (at, image) in &images {
        let (recovered, report) =
            DisclosureService::open_durable(ecosystem.views.clone(), config, image)
                .expect("crash-image recovery failed");
        let replayed_ops = report.last_seq as usize - PRINCIPALS;
        while logged < replayed_ops {
            let op = pending.next().expect("the log holds stream records only");
            logged += usize::from(is_logged(op));
            model.apply(op);
        }
        let got = fingerprint(&recovered, &world);
        let want = Fingerprint::of_model(&model, &world);
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

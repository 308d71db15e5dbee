//! Fault-injection tests for the durable [`DisclosureService`]: the
//! storage layer misbehaves *while the service is running*, not just at
//! a crash point.
//!
//! The central property (the **write-ahead invariant under faults**):
//! under every seeded fault schedule, a mutation is acknowledged *iff*
//! its log record is durably committed — an acknowledged mutation is
//! never lost, and a lost mutation was always visibly rejected with
//! [`ServiceError::DurabilityUnavailable`].  Recovering after a crash
//! therefore reproduces exactly the durably-acknowledged stream: the
//! recovered service must be in the state of the specification
//! (`ReferenceService`, through `support/harness.rs`) applied to it.
//!
//! Also covered, deterministically (the service owns no thread, so each
//! test drives every checkpoint itself): a permanent storage failure
//! degrades the service to read-only instead of panicking; admissions
//! and checks keep serving while degraded, and `intern` is refused like
//! every mutation, then answers again after the promotion with every id
//! it handed out intact across a reopen; checkpoint attempts on
//! still-dead storage fail cleanly, each counted, and leave the service
//! serving, and the first one on healed storage promotes it back to
//! healthy (and makes the degraded window's in-memory admissions
//! durable); a split checkpoint begun healthy and completed degraded
//! writes its image but retires no segment and does not promote; the
//! replay debt a service reports is what its reopen replays; orphaned
//! checkpoint temporaries are swept at open; and a garbage log tail is
//! counted in the [`RecoveryReport`] rather than silently dropped.

#[path = "support/harness.rs"]
mod harness;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use fdc::cq::intern::QueryId;
use fdc::cq::ConjunctiveQuery;
use fdc::durability::{FaultSchedule, FaultVfs, InstantClock};
use fdc::ecosystem::{facebook_catalog, WorkloadConfig, WorkloadGenerator};
use fdc::policy::PrincipalId;
use fdc::service::{
    DegradedMode, DisclosureService, Operation, Response, ServiceConfig, ServiceError, ServiceMode,
};
use harness::{
    assert_agrees, churn_ops, is_logged, populate, serve, temp_dir, Executor, World, NEVER_MINTED,
};

const OPS: usize = 64;

/// Shared configuration: fsync **on**, so fsync faults actually fire
/// (the fault filesystem is where "fsync" gets its failure semantics;
/// no real disk flushes happen on the quiet paths of these tests
/// beyond what the scratch tmpfs absorbs).
fn config(world: &World) -> ServiceConfig {
    let mut config = world.config();
    config.durability.fsync = true;
    config
}

/// Opens a durable service over `vfs` with an instant (non-sleeping)
/// clock, so retry backoff costs no wall time.
fn open_faulted(
    world: &World,
    config: ServiceConfig,
    dir: &std::path::Path,
    vfs: &FaultVfs,
) -> std::io::Result<(DisclosureService, fdc::service::RecoveryReport)> {
    DisclosureService::open_durable_in(
        world.registry.clone(),
        config,
        dir,
        Arc::new(vfs.clone()),
        Arc::new(InstantClock::new()),
    )
}

/// One fault-schedule run of the write-ahead-invariant property through
/// one entry point: register quietly, arm `schedule`, serve `ops` in
/// `chunk`-sized requests through `executor` on a service opened with
/// `faulted`, and keep two specifications:
/// `durable` applies exactly the operations whose records landed, `live`
/// those and every admission (which always serve, from memory).  Every
/// served answer is `live`'s, the running service ends in `live`'s state,
/// and after a crash, a heal and a recovery the service is in `durable`'s.
///
/// Returns whether the run ended degraded (so a sweep can assert it
/// exercised both outcomes), and whether in a request that shed records
/// some durable mutation sat at a position at or past the request's durable
/// *record count* — the case that tells a cut in op positions from one in
/// record ordinals.
fn acked_mutations_survive(
    tag: &str,
    ops: &[Operation],
    chunk: usize,
    faulted: ServiceConfig,
    schedule: FaultSchedule,
    executor: Executor,
) -> (bool, bool) {
    let world = World::facebook();
    let dir = temp_dir(tag);
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(schedule.seed));
    let (mut service, _) = open_faulted(&world, faulted, &dir, &vfs).unwrap();
    populate(&mut service, &world);
    let (mut durable, mut live) = (world.model(), world.model());

    vfs.set_schedule(schedule);
    let mut positions_matter = false;
    for request in ops.chunks(chunk) {
        let before = service.stats().durability.wal_records_committed;
        let responses = serve(&mut service, request, executor);
        let committed = (service.stats().durability.wal_records_committed - before) as usize;
        // Commits are all-or-nothing and records land in stream order, so
        // `committed` is the request's durable prefix over its *loggable*
        // operations.
        let loggable = request.iter().filter(|op| is_logged(op)).count();
        assert!(
            committed <= loggable,
            "a request commits only its own records"
        );
        let mut ordinal = 0usize;
        for (i, (op, response)) in request.iter().zip(&responses).enumerate() {
            let durable_op = is_logged(op) && {
                ordinal += 1;
                ordinal <= committed
            };
            let unavailable = *response == Response::Rejected(ServiceError::DurabilityUnavailable);
            if op.is_mutation() {
                // The write-ahead invariant, op by op: an acknowledged
                // mutation has its record on disk, a mutation whose record
                // is not on disk was rejected as unavailable.
                assert_eq!(!durable_op, unavailable, "{tag}: {op:?} vs {response:?}");
                positions_matter |= committed < loggable && durable_op && i >= committed;
            } else {
                assert!(!unavailable, "{tag}: reads and admissions always serve");
            }
            if durable_op {
                durable.apply(op);
            }
            if durable_op || !op.is_mutation() {
                assert_eq!(*response, live.apply(op), "{tag}: {op:?}");
            }
        }
    }
    assert_agrees(&format!("{tag}: running"), &service, &live, &world);
    let degraded = service.is_degraded();
    let faults = vfs.counters();
    drop(service); // crash: no close

    // Storage comes back; recovery sees exactly the committed records.
    vfs.heal();
    vfs.set_schedule(FaultSchedule::quiet(schedule.seed));
    let (recovered, report) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    let what = format!(
        "{tag}: recovered state diverged from the acknowledged stream \
         (schedule {schedule:?}, faults {faults:?}, report {report:?})"
    );
    assert_agrees(&what, &recovered, &durable, &world);
    fs::remove_dir_all(&dir).unwrap();
    (degraded, positions_matter)
}

#[test]
fn no_acknowledged_mutation_is_lost_under_any_fault_schedule() {
    let schedules: &[(&str, FaultSchedule)] = &[
        (
            "transient",
            FaultSchedule {
                write_transient_per_mille: 250,
                ..FaultSchedule::quiet(1)
            },
        ),
        (
            "torn",
            FaultSchedule {
                torn_write_per_mille: 120,
                ..FaultSchedule::quiet(2)
            },
        ),
        (
            "fsyncgate",
            FaultSchedule {
                fsync_failure_per_mille: 150,
                ..FaultSchedule::quiet(3)
            },
        ),
        (
            "enospc",
            FaultSchedule {
                enospc_per_mille: 80,
                ..FaultSchedule::quiet(4)
            },
        ),
        (
            "mixed",
            FaultSchedule {
                write_transient_per_mille: 120,
                torn_write_per_mille: 50,
                fsync_failure_per_mille: 60,
                enospc_per_mille: 30,
                rename_failure_per_mille: 40,
                ..FaultSchedule::quiet(5)
            },
        ),
    ];
    let world = World::facebook();
    let mut survived = 0u32;
    let mut degraded = 0u32;
    for (name, base) in schedules {
        for round in 0..4u64 {
            let schedule = FaultSchedule {
                seed: base.seed * 1000 + round,
                ..*base
            };
            let tag = format!("prop_{name}_{round}");
            let ops = churn_ops(&world, schedule.seed ^ 0xC0FFEE, OPS);
            if acked_mutations_survive(&tag, &ops, 1, config(&world), schedule, Executor::Apply).0 {
                degraded += 1;
            } else {
                survived += 1;
            }
        }
    }
    // The sweep must exercise both endings: runs that ride out the
    // faults healthy, and runs forced into degraded mode.
    assert!(survived > 0, "no run survived — schedules too hot");
    assert!(degraded > 0, "no run degraded — schedules too cold");
}

#[test]
fn batched_mutations_respect_the_durable_prefix() {
    let world = World::facebook();
    let ops = churn_ops(&world, 0xBA7C4, OPS);
    // Ops that never produce a record on both sides of every cut, served
    // over a log that rotates — and so commits — at every record, so a
    // request's durable prefix can end mid-request: a cut counted in records
    // instead of op positions refuses a durable mutation there.
    let probe = world.ids[0];
    let mixed: Vec<Operation> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| {
            let principal = PrincipalId((i % world.policies.len()) as u32);
            let unlogged = match i % 3 {
                0 => Operation::AuditApp { principal },
                1 => Operation::SubmitInterned {
                    principal,
                    query: NEVER_MINTED,
                },
                _ => Operation::CheckInterned {
                    principal,
                    query: probe,
                },
            };
            [unlogged, op.clone()]
        })
        .collect();
    // One input under the schedule seeds: the suite's original 9 (under
    // which a batch of 8 with one commit never loses a record) plus two
    // under which the batches do and the mixed stream's cut lands
    // mid-request.  Answers whether op positions mattered under any of them.
    let sweep = |input: &str, ops: &[Operation], chunk, faulted, executor| {
        let mut degraded = false;
        let mut positions_matter = false;
        for seed in [9, 17, 19] {
            let schedule = FaultSchedule {
                torn_write_per_mille: 60,
                enospc_per_mille: 40,
                fsync_failure_per_mille: 60,
                ..FaultSchedule::quiet(seed)
            };
            let tag = format!("prefix_{input}_{seed}");
            let (d, p) = acked_mutations_survive(&tag, ops, chunk, faulted, schedule, executor);
            degraded |= d;
            positions_matter |= p;
        }
        assert!(
            degraded,
            "{input}: no request shed a record — schedule too cold"
        );
        positions_matter
    };
    let one_segment = config(&world);
    sweep("batch", &ops, 8, one_segment, Executor::Pipelined(8));
    sweep("apply", &ops, 1, one_segment, Executor::Apply);
    sweep("typed", &ops, 1, one_segment, Executor::Typed);
    let mut rotating = one_segment;
    rotating.durability.segment_bytes = 1;
    assert!(
        sweep("mixed", &mixed, 8, rotating, Executor::Pipelined(8)),
        "no durable mutation sat past its request's record count"
    );
}

#[test]
fn permanent_failure_degrades_to_read_only_instead_of_panicking() {
    let world = World::facebook();
    let ops = churn_ops(&world, 0xDEAD, OPS);
    let dir = temp_dir("degrade");
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(11));
    let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    populate(&mut service, &world);
    let healthy_ops = &ops[..16];
    for op in healthy_ops {
        service.apply(op);
    }
    assert_eq!(service.mode(), ServiceMode::Healthy);

    vfs.fail_permanently();
    let mutation = ops[16..].iter().find(|op| op.is_mutation()).unwrap();
    let admission = ops[16..].iter().find(|op| op.is_admission()).unwrap();

    // The first mutation on dead storage is rejected — and flips the
    // service into degraded mode rather than panicking the process.
    assert_eq!(
        service.apply(mutation),
        Response::Rejected(ServiceError::DurabilityUnavailable)
    );
    assert!(service.is_degraded());
    assert_eq!(
        service.mode(),
        ServiceMode::Degraded(DegradedMode::ReadOnly)
    );
    let health = service.stats().durability;
    assert_eq!(health.mode_transitions, 1);

    // Reads and admissions keep serving from memory.
    assert!(!service.apply(admission).is_rejected());
    let p = PrincipalId(0);
    for q in &world.pool {
        let _ = service.check(p, q); // must not panic or reject
    }

    // Every mutation entry point reports the same refusal.
    let policy = world.policies[0].clone();
    assert_eq!(
        service.try_register_principal(policy),
        Err(ServiceError::DurabilityUnavailable)
    );
    for op in ops[16..].iter().filter(|op| op.is_mutation()).take(4) {
        assert_eq!(
            service.apply(op),
            Response::Rejected(ServiceError::DurabilityUnavailable)
        );
    }
    // Degrading is idempotent: still a single transition.
    assert_eq!(service.stats().durability.mode_transitions, 1);
    fs::remove_dir_all(&dir).unwrap();
}

/// `n` generated queries of distinct shapes that `service` has not seen.
fn unseen_shapes(service: &DisclosureService, n: usize) -> Vec<ConjunctiveQuery> {
    let mut probe = service.clone();
    let mut generator = WorkloadGenerator::new(facebook_catalog(), WorkloadConfig::base(0x1D));
    let mut shapes = Vec::new();
    while shapes.len() < n {
        let query = generator.batch(1).remove(0);
        if probe.interner().lookup(&query).is_none() {
            probe.intern(&query).unwrap();
            shapes.push(query);
        }
    }
    shapes
}

#[test]
fn intern_is_refused_while_degraded_and_every_handed_out_id_survives_promotion() {
    let world = World::facebook();
    let dir = temp_dir("intern_degraded");
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(23));
    let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    populate(&mut service, &world);
    let [healthy, refused, submitted, checked, promoted] =
        <[ConjunctiveQuery; 5]>::try_from(unseen_shapes(&service, 5)).unwrap();
    let mut handed: Vec<(QueryId, ConjunctiveQuery)> = world
        .ids
        .iter()
        .copied()
        .zip(world.pool.iter().cloned())
        .collect();
    handed.push((service.intern(&healthy).unwrap(), healthy));

    // On dead storage the new shape's `Define` does not land: refused, and
    // the service degrades with nothing minted.  A known shape is refused
    // too, as every mutation is while degraded.
    vfs.fail_permanently();
    assert_eq!(
        service.intern(&refused),
        Err(ServiceError::DurabilityUnavailable)
    );
    assert!(service.is_degraded());
    assert_eq!(service.interner().lookup(&refused), None);
    assert_eq!(
        service.intern(&world.pool[0]),
        Err(ServiceError::DurabilityUnavailable)
    );
    // Boxed admissions keep serving from memory (and mint, unlogged).
    let p = PrincipalId(0);
    assert!(service.submit(p, &submitted).is_ok());
    assert!(service.check(p, &checked).is_ok());
    assert!(service.checkpoint().is_err());
    assert_eq!(
        service.intern(&checked),
        Err(ServiceError::DurabilityUnavailable)
    );

    // Storage heals and a checkpoint promotes: the image holds the degraded
    // window's ids, and `intern` answers again, for them and for new shapes.
    vfs.heal();
    service.checkpoint().unwrap();
    assert!(!service.is_degraded());
    for query in [submitted, checked, promoted] {
        handed.push((service.intern(&query).unwrap(), query));
    }
    drop(service);

    let (recovered, report) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    assert_eq!(report.records_replayed, 1, "the promoted shape's Define");
    let interner = recovered.interner();
    for (id, query) in &handed {
        assert_eq!(interner.lookup(query), Some(*id), "{query:?}");
    }
    assert_eq!(interner.lookup(&refused), None);
    drop(interner);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_on_dead_storage_fails_cleanly_and_keeps_serving() {
    let world = World::facebook();
    let ops = churn_ops(&world, 0x5EED, 32);
    let dir = temp_dir("dead_checkpoint");
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(13));
    let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    populate(&mut service, &world);
    for op in &ops[..8] {
        service.apply(op);
    }
    vfs.fail_permanently();
    let mutation = ops.iter().find(|op| op.is_mutation()).unwrap();
    assert!(service.apply(mutation).is_rejected());
    assert!(service.is_degraded());

    // Checkpointing while the disk is still dead fails with an error —
    // counted, never fatal, and the same on every further attempt.
    const ATTEMPTS: u64 = 3;
    for attempt in 1..=ATTEMPTS {
        assert!(service.checkpoint().is_err());
        assert!(service.is_degraded(), "a failed checkpoint cannot promote");
        let health = service.stats().durability;
        assert_eq!(health.checkpoint_failures, attempt);
        assert_eq!(health.checkpoints, 0);
    }

    // And the service is still up: admissions serve in memory.
    let admission = ops.iter().find(|op| op.is_admission()).unwrap();
    assert!(!service.apply(admission).is_rejected());

    // The disk comes back: the caller's next checkpoint is the
    // self-healing step.
    vfs.heal();
    service.checkpoint().unwrap();
    assert!(!service.is_degraded());
    let health = service.stats().durability;
    assert_eq!(health.mode_transitions, 2, "degrade + promote");
    assert_eq!(health.checkpoints, 1);
    assert_eq!(health.checkpoint_failures, ATTEMPTS, "success counted");
    assert_eq!(health.log_since_checkpoint, 0);

    // The mutation refused while degraded is accepted, and logged, again.
    assert_ne!(
        service.apply(mutation),
        Response::Rejected(ServiceError::DurabilityUnavailable)
    );
    assert_eq!(service.stats().durability.log_since_checkpoint, 1);
    fs::remove_dir_all(&dir).unwrap();
}

/// The names of the WAL segments in `dir`.
fn wal_segments(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("wal-"))
        .collect()
}

#[test]
fn a_checkpoint_begun_healthy_and_completed_degraded_retires_no_segment() {
    // The split checkpoint path with a degradation between its halves:
    // the segments hold acknowledged records past the image, so the
    // completion writes the image but neither prunes nor promotes.
    let world = World::facebook();
    let ops = churn_ops(&world, 0xC0DE, OPS);
    let (healthy, rest) = ops.split_at(OPS / 2);
    let (between, after) = rest.split_at(OPS / 4);
    let dir = temp_dir("begun_healthy");
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(29));
    let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    populate(&mut service, &world);
    let mut model = world.model();
    for op in healthy {
        assert_eq!(service.apply(op), model.apply(op));
    }
    let pending = service.begin_checkpoint().unwrap();
    let horizon = pending.seq();
    // Acknowledged between the halves: logged past `horizon`.
    for op in between {
        assert_eq!(service.apply(op), model.apply(op));
    }
    let before = wal_segments(&dir);

    // The disk dies under the next mutation, which degrades the service.
    vfs.fail_permanently();
    let mutation = after.iter().find(|op| op.is_mutation()).unwrap();
    assert_eq!(
        service.apply(mutation),
        Response::Rejected(ServiceError::DurabilityUnavailable)
    );
    assert!(service.is_degraded());

    // Storage heals, and the pending checkpoint completes.
    vfs.heal();
    let payload = pending.encode();
    assert_eq!(
        service.complete_checkpoint(&pending, &payload).unwrap(),
        horizon
    );
    let health = service.stats().durability;
    assert_eq!(health.checkpoints, 1);
    assert!(service.is_degraded(), "completion must not promote");
    assert_eq!(health.mode_transitions, 1);
    assert_eq!(wal_segments(&dir), before, "a segment retired");

    drop(service);
    let (recovered, report) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    assert_eq!(report.checkpoint_seq, horizon);
    assert!(report.records_replayed > 0, "nothing replayed");
    assert_eq!(health.log_since_checkpoint, report.records_replayed);
    let what = "a checkpoint completed degraded lost an acknowledged record";
    assert_agrees(what, &recovered, &model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn successful_checkpoint_promotes_degraded_service_back_to_healthy() {
    let world = World::facebook();
    let ops = churn_ops(&world, 0x90E, OPS);
    let dir = temp_dir("promote");
    let vfs = FaultVfs::over_std(FaultSchedule::quiet(17));
    let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    populate(&mut service, &world);
    let mut model = world.model();

    // Healthy phase, then the disk dies and the service degrades.
    let (healthy, rest) = ops.split_at(20);
    for op in healthy {
        assert_eq!(service.apply(op), model.apply(op));
    }
    vfs.fail_permanently();
    let (degraded_window, tail) = rest.split_at(20);
    for op in degraded_window {
        let response = service.apply(op);
        if !response.is_rejected() {
            // Acknowledged while degraded (reads + admissions): these
            // become durable with the promotion checkpoint below, so
            // the specification applies them.
            assert_eq!(response, model.apply(op));
        }
    }
    assert!(service.is_degraded());

    // Storage comes back; the next checkpoint promotes.
    vfs.heal();
    let seq = service.checkpoint().unwrap();
    assert!(!service.is_degraded());
    assert_eq!(service.mode(), ServiceMode::Healthy);
    let health = service.stats().durability;
    assert_eq!(health.mode_transitions, 2, "degrade + promote");
    assert_eq!(health.checkpoints, 1);
    assert_eq!(health.last_checkpoint_seq, seq);

    // Mutations are accepted (and logged) again.
    for op in tail {
        let response = service.apply(op);
        assert_eq!(
            response,
            model.apply(op),
            "promoted service must accept mutations"
        );
    }

    // Crash after promotion: the checkpoint image (which covers the
    // degraded window's admissions) plus the fresh log reproduce the
    // full acknowledged stream.
    let debt = service.stats().durability.log_since_checkpoint;
    drop(service);
    let (recovered, report) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
    assert_eq!(report.checkpoint_seq, seq);
    assert_eq!(debt, report.records_replayed);
    let what = "promotion lost part of the acknowledged stream";
    assert_agrees(what, &recovered, &model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_promotion_cut_short_mid_header_reopens_from_its_checkpoint() {
    // The promotion checkpoint lands and removes every segment, then
    // `ENOSPC` cuts the fresh segment's header: an empty segment file is
    // all the log there is.  Reopening must recover from the image, not
    // refuse the directory.
    let world = World::facebook();
    let ops = churn_ops(&world, 0x4E2, 32);
    let (healthy, degraded) = ops.split_at(16);
    for seed in 0..64 {
        let dir = temp_dir("torn_header");
        let vfs = FaultVfs::over_std(FaultSchedule::quiet(seed));
        let (mut service, _) = open_faulted(&world, config(&world), &dir, &vfs).unwrap();
        populate(&mut service, &world);
        let mut model = world.model();
        for op in healthy {
            assert_eq!(service.apply(op), model.apply(op));
        }
        vfs.fail_permanently();
        for op in degraded {
            let response = service.apply(op);
            if !response.is_rejected() {
                assert_eq!(response, model.apply(op));
            }
        }
        vfs.heal();
        vfs.set_schedule(FaultSchedule {
            seed,
            enospc_per_mille: 500,
            ..FaultSchedule::default()
        });
        let landed = service.checkpoint();
        let segments: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| entry.file_name().to_string_lossy().starts_with("wal-"))
            .map(|entry| entry.metadata().unwrap().len())
            .collect();
        // This seed's faults fell elsewhere: the image did not land, or
        // the promotion went through.
        if landed.is_err() || !service.is_degraded() {
            drop(service);
            fs::remove_dir_all(&dir).unwrap();
            continue;
        }
        assert_eq!(segments, [0], "the lone segment is the header-less one");
        let seq = landed.unwrap();
        let debt = service.stats().durability.log_since_checkpoint;
        drop(service);
        vfs.set_schedule(FaultSchedule::quiet(seed));
        let (recovered, report) = open_faulted(&world, config(&world), &dir, &vfs)
            .expect("an intact checkpoint behind a torn header must reopen");
        assert_eq!((report.checkpoint_seq, report.records_replayed), (seq, 0));
        assert_eq!(debt, report.records_replayed);
        assert_agrees("reopened behind a torn header", &recovered, &model, &world);
        fs::remove_dir_all(&dir).unwrap();
        return;
    }
    panic!("no seed cut the fresh segment's header after the image landed");
}

#[test]
fn open_durable_sweeps_orphaned_checkpoint_temporaries() {
    let world = World::facebook();
    let dir = temp_dir("tmp_sweep");
    fs::create_dir_all(&dir).unwrap();
    // A crash between a checkpoint's temp write and its rename strands
    // the temp file; seed two of them.
    fs::write(dir.join("ckpt-00000000000000000007.tmp"), b"torn image").unwrap();
    fs::write(dir.join("ckpt-00000000000000000009.tmp"), b"").unwrap();
    let (service, report) =
        DisclosureService::open_durable(world.registry.clone(), config(&world), &dir).unwrap();
    assert_eq!(report.temps_swept, 2);
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temps not swept: {leftovers:?}");
    assert_eq!(service.recovery_report().unwrap(), report);
    service.close().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_report_counts_a_discarded_garbage_tail() {
    let world = World::facebook();
    let ops = churn_ops(&world, 0x7A11, 24);
    let dir = temp_dir("garbage_tail");
    let (mut service, _) =
        DisclosureService::open_durable(world.registry.clone(), config(&world), &dir).unwrap();
    populate(&mut service, &world);
    for op in &ops {
        service.apply(op);
    }
    service.close().unwrap();

    // Scribble garbage on the tail of the (single) segment, as a torn
    // final write would.
    let segment = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .unwrap();
    let mut bytes = fs::read(&segment).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xFF; 7]);
    fs::write(&segment, &bytes).unwrap();

    let (service, report) =
        DisclosureService::open_durable(world.registry.clone(), config(&world), &dir).unwrap();
    assert_eq!(report.discarded_bytes, 7, "the garbage tail is counted");
    assert_eq!(report.discarded_records, 1, "as one residual frame");
    // The resumed writer truncated the garbage away.
    service.close().unwrap();
    assert_eq!(fs::metadata(&segment).unwrap().len() as usize, clean_len);
    fs::remove_dir_all(&dir).unwrap();
}

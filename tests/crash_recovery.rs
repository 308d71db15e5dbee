//! Crash-consistency property tests for the durable [`DisclosureService`].
//!
//! The central property: **truncating the write-ahead log at any byte**
//! and recovering yields a service in the state of the specification
//! ([`ReferenceService`], `support/harness.rs`) applied to exactly the
//! operations whose log records survived the cut — per-principal policies,
//! consistency words, decision counters and audits, the view registry
//! (names and per-relation epochs), and the labels and decisions of a fixed
//! probe set all match.  A crash can lose a suffix of the stream; it can
//! never invent, reorder or half-apply state.
//!
//! Also covered: checkpoints taken exactly at segment boundaries (every
//! append rotates), recovery with no checkpoint at all (pure replay),
//! resuming a truncated log and continuing the stream, and interned
//! `QueryId` stability across recovery, from a checkpoint or from the log
//! alone.

#[path = "support/harness.rs"]
mod harness;

use std::fs;
use std::path::{Path, PathBuf};

use fdc::ecosystem::churn::{ChurnConfig, ChurnGenerator};
use fdc::ecosystem::schema::facebook_catalog;
use fdc::ecosystem::WorkloadConfig;
use fdc::policy::PrincipalId;
use fdc::service::{
    DisclosureService, DurabilityConfig, Operation, RecoveryReport, ReferenceService, Response,
    ServiceConfig,
};
use harness::{
    assert_agrees, assert_print, assert_served, churn_ops, is_logged, populate, reopen, specify,
    temp_dir, Fingerprint, World,
};

const OPS: usize = 64;
const SEED: u64 = 0xC4A5;

/// The shared service configuration: fsync off.
fn config(world: &World) -> ServiceConfig {
    world.config()
}

/// The single WAL segment file of `dir` (these streams fit in one).
fn single_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "expected a single segment in {dir:?}");
    segments.remove(0)
}

/// Drives the churn stream through a durable service op by op — every
/// answer must be the model's — and returns the WAL bytes and, for every
/// record count `r`, the model after exactly the first `r` logged
/// operations (registrations and the pool's `Define`s included).
fn record_stream(world: &World, ops: &[Operation]) -> (PathBuf, Vec<u8>, Vec<ReferenceService>) {
    let dir = temp_dir("crash_recovery");
    let (mut durable, report) = reopen(world, config(world), &dir);
    assert_eq!(
        report,
        RecoveryReport {
            checkpoint_seq: 0,
            records_replayed: 0,
            last_seq: 0,
            discarded_bytes: 0,
            discarded_records: 0,
            temps_swept: 0,
        }
    );
    // Pool shapes the registry's views already hold have their ids before
    // any record; every other pool id is minted by a `Define`.
    let mut minted = durable.interner().len();
    populate(&mut durable, world);
    let mut model = ReferenceService::new(world.registry.clone(), world.history_cap);
    let pool = || world.ids.iter().zip(&world.pool);
    for (id, query) in pool().filter(|(id, _)| id.index() < minted) {
        model.define(*id, query.clone());
    }
    // Indexed by surviving record count: entry 0 is the freshly opened state.
    let mut by_records = vec![model.clone()];
    for policy in &world.policies {
        model.register_principal(policy.clone()).unwrap();
        by_records.push(model.clone());
    }
    for (id, query) in pool() {
        model.define(*id, query.clone());
        if id.index() == minted {
            minted += 1;
            by_records.push(model.clone());
        }
    }
    for op in ops {
        assert_eq!(durable.apply(op), model.apply(op), "{op:?}");
        if is_logged(op) {
            by_records.push(model.clone());
        }
    }
    durable.close().unwrap();
    let bytes = fs::read(single_segment(&dir)).unwrap();
    (dir, bytes, by_records)
}

#[test]
fn truncation_at_every_byte_recovers_a_consistent_prefix() {
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, OPS);
    let (dir, bytes, by_records) = record_stream(&world, &ops);
    let by_records: Vec<Fingerprint> = by_records
        .iter()
        .map(|model| Fingerprint::of_model(model, &world))
        .collect();
    let header_len = 20;
    assert!(bytes.len() > header_len, "the stream must produce records");

    let scratch = temp_dir("every_byte_cut");
    fs::create_dir_all(&scratch).unwrap();
    let segment_name = single_segment(&dir).file_name().unwrap().to_owned();
    let mut seen_counts = std::collections::BTreeSet::new();
    for cut in 0..=bytes.len() {
        // Rebuild the scratch directory as the crash image: the one
        // segment file, truncated at `cut`.
        for entry in fs::read_dir(&scratch).unwrap() {
            fs::remove_file(entry.unwrap().path()).unwrap();
        }
        fs::write(scratch.join(&segment_name), &bytes[..cut]).unwrap();
        let recovered =
            DisclosureService::open_durable(world.registry.clone(), config(&world), &scratch);
        if cut < header_len {
            // A first segment shorter than its header is structural
            // damage, reported as an error — never a panic, never a
            // silently empty recovery.
            assert!(recovered.is_err(), "cut at {cut} must be rejected");
            continue;
        }
        let (recovered, report) =
            recovered.unwrap_or_else(|err| panic!("recovery failed at cut {cut}: {err}"));
        assert_eq!(report.checkpoint_seq, 0);
        let r = report.records_replayed as usize;
        assert_eq!(report.last_seq, r as u64);
        assert!(
            r < by_records.len(),
            "cut {cut} recovered {r} records, stream only logged {}",
            by_records.len() - 1
        );
        let what = format!("cut {cut} ({r} records)");
        assert_print(&what, &recovered, &by_records[r], &world);
        seen_counts.insert(r);
        drop(recovered); // also exercises the Drop commit path
    }
    // The sweep exercised every prefix length, not just a few.
    assert_eq!(
        seen_counts.len(),
        by_records.len(),
        "every record count from 0 to {} must occur",
        by_records.len() - 1
    );
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn a_resumed_log_continues_the_stream_after_a_torn_tail() {
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, OPS);
    let (dir, bytes, by_records) = record_stream(&world, &ops);
    // Tear the log mid-way (an arbitrary mid-record byte), then resume:
    // apply a further grant, close, and recover again — the post-crash
    // record must land right after the surviving prefix.
    let segment = single_segment(&dir);
    let cut = 20 + (bytes.len() - 20) / 2;
    fs::write(&segment, &bytes[..cut]).unwrap();
    let (mut resumed, first) = reopen(&world, config(&world), &dir);
    let mut model = by_records[first.records_replayed as usize].clone();
    let grant = Operation::GrantView {
        principal: PrincipalId(0),
        view: world.registry.iter().next().unwrap().1.name.clone(),
    };
    assert_eq!(resumed.apply(&grant), Response::PolicyUpdated);
    assert_eq!(model.apply(&grant), Response::PolicyUpdated);
    resumed.close().unwrap();
    let (recovered, second) = reopen(&world, config(&world), &dir);
    assert_eq!(second.records_replayed, first.records_replayed + 1);
    assert_eq!(second.last_seq, first.last_seq + 1);
    assert_agrees("resumed", &recovered, &model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_at_every_segment_boundary_recovers_exactly() {
    // segment_bytes = 1 forces a rotation after every record: each
    // checkpoint lands exactly on a segment boundary, the hardest case
    // for the prune/replay-start arithmetic.
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, OPS);
    let tiny_segments = ServiceConfig {
        durability: DurabilityConfig {
            segment_bytes: 1,
            ..config(&world).durability
        },
        ..config(&world)
    };
    let dir = temp_dir("segment_boundary");
    let (mut durable, _) = reopen(&world, tiny_segments, &dir);
    populate(&mut durable, &world);
    let mut model = world.model();
    let mut last_checkpoint = 0;
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(durable.apply(op), model.apply(op), "{op:?}");
        // Checkpoint every 16 ops, and crash-recover right after one.
        if (i + 1) % 16 == 0 {
            let seq = durable.checkpoint().unwrap();
            assert!(seq > last_checkpoint, "sequence numbers advance");
            last_checkpoint = seq;
            // Recovery from the live directory (the durable handle keeps
            // appending afterwards — recovery is read-only apart from
            // tail truncation, and there is no torn tail here).
            let debt = durable.stats().durability.log_since_checkpoint;
            let (recovered, report) = reopen(&world, tiny_segments, &dir);
            assert_eq!(report.checkpoint_seq, seq);
            assert_eq!(report.records_replayed, 0, "checkpoint covers the log");
            assert_eq!(debt, report.records_replayed);
            let what = format!("after checkpoint {seq}");
            assert_agrees(&what, &recovered, &model, &world);
        }
    }
    let debt = durable.stats().durability.log_since_checkpoint;
    durable.close().unwrap();
    // Final recovery: checkpoint + the records appended after it.
    let (recovered, report) = reopen(&world, tiny_segments, &dir);
    assert_eq!(report.checkpoint_seq, last_checkpoint);
    assert!(report.last_seq >= last_checkpoint);
    assert_eq!(debt, report.records_replayed);
    assert_agrees("final", &recovered, &model, &world);
    // Pruning kept the directory bounded: segments before the oldest
    // retained checkpoint are gone.
    let segments = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .count();
    assert!(
        segments < ops.len(),
        "pruning must have removed covered segments ({segments} left)"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interned_query_ids_stay_stable_across_checkpointed_and_log_only_recovery() {
    for checkpointed in [true, false] {
        interned_query_ids_stay_stable(checkpointed);
    }
}

/// Serves a churn stream interned into a durable service, closes it —
/// after a checkpoint, or with the log alone — and demands that every id
/// the live interner held names the same query after the reopen.
fn interned_query_ids_stay_stable(checkpointed: bool) {
    let world = World::facebook();
    let dir = temp_dir("interned_ids");
    let (mut durable, _) = reopen(&world, config(&world), &dir);
    populate(&mut durable, &world);
    let mut churn = ChurnGenerator::new(
        facebook_catalog(),
        &world.registry,
        ChurnConfig {
            mutation_ratio: 0.1,
            add_view_share: 0.2,
            check_share: 0.2,
            query_pool: 8,
            num_principals: world.policies.len(),
            seed: 0x1D5,
            workload: WorkloadConfig::base(0x1D5),
        },
    );
    let ops: Vec<Operation> = churn
        .ops(OPS)
        .into_iter()
        .map(|op| op.interned(|query| durable.intern(query).unwrap()))
        .collect();
    assert!(
        ops.iter()
            .any(|op| matches!(op, Operation::SubmitInterned { .. })),
        "the stream must carry interned admissions"
    );
    let responses = durable.run_pipelined(&ops);
    assert_eq!(responses.len(), ops.len());
    if checkpointed {
        durable.checkpoint().unwrap();
    }
    let logged = durable.stats().durability.wal_records_committed;
    // Record every pooled query and its id from the live interner.
    let live: Vec<(fdc::cq::intern::QueryId, fdc::cq::ConjunctiveQuery)> = {
        let guard = durable.interner();
        (0..guard.len())
            .map(|i| {
                let id = fdc::cq::intern::QueryId(i as u32);
                (id, guard.to_query(id))
            })
            .collect()
    };
    durable.close().unwrap();
    let (mut recovered, report) = reopen(&world, config(&world), &dir);
    let replayed = if checkpointed { 0 } else { logged };
    assert_eq!(
        report.records_replayed, replayed,
        "checkpointed {checkpointed}"
    );
    // Every pre-crash id resolves to the identical query, and re-interning
    // the query yields the same id — ids are stable currency across
    // restarts.
    for (id, query) in &live {
        assert!(recovered.interner().contains(*id));
        assert_eq!(&recovered.interner().to_query(*id), query);
        assert_eq!(recovered.intern(query).unwrap(), *id);
    }
    // And the recovered service serves the same interned stream with the
    // same responses (minus the stateful consistency evolution already
    // replayed — so compare a pure-check projection).
    let checks: Vec<Operation> = ops
        .iter()
        .filter_map(|op| match op {
            Operation::CheckInterned { principal, query } => Some(Operation::CheckInterned {
                principal: *principal,
                query: *query,
            }),
            _ => None,
        })
        .collect();
    assert!(!checks.is_empty(), "the stream must carry interned checks");
    // Every recovered check must reach a decision, never an UnknownQuery
    // rejection — the ids survived the restart.
    for response in recovered.run_pipelined(&checks) {
        assert!(
            matches!(response, Response::Decision(_)),
            "interned check must decide after recovery, got {response:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mutations_admitted_mid_encode_survive_an_off_lock_checkpoint() {
    // The split checkpoint path: `begin_checkpoint` fixes the image's
    // horizon, the service keeps admitting mutations before and after the
    // payload encodes, and `complete_checkpoint` lands the image without
    // pruning the records acknowledged in between.
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, 2 * OPS);
    let (before, rest) = ops.split_at(OPS);
    let (mid_encode, after) = rest.split_at(OPS / 2);
    let dir = temp_dir("off_lock_checkpoint");
    let (mut durable, _) = reopen(&world, config(&world), &dir);
    populate(&mut durable, &world);
    let mut model = world.model();
    for op in before {
        assert_eq!(durable.apply(op), model.apply(op));
    }
    let pending = durable.begin_checkpoint().unwrap();
    let horizon = pending.seq();
    // Mutations admitted between begin and complete: every one is
    // acknowledged and logged past `horizon`, and none of them may leak
    // into the image.
    for op in mid_encode {
        assert_eq!(durable.apply(op), model.apply(op));
    }
    let payload = pending.encode();
    for op in after {
        assert_eq!(durable.apply(op), model.apply(op));
    }
    assert_eq!(
        durable.complete_checkpoint(&pending, &payload).unwrap(),
        horizon
    );
    let health = durable.stats().durability;
    assert_eq!(health.checkpoints, 1);
    assert_eq!(health.last_checkpoint_seq, horizon);
    durable.close().unwrap();
    // Recovery bulkloads the image at the pre-encode horizon, then
    // replays every record admitted during and after the encode.
    let (recovered, report) = reopen(&world, config(&world), &dir);
    assert_eq!(report.checkpoint_seq, horizon);
    assert!(
        report.records_replayed > 0,
        "mid-encode mutations must replay from the surviving log"
    );
    assert_eq!(health.log_since_checkpoint, report.records_replayed);
    assert_agrees("split checkpoint", &recovered, &model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pure_replay_without_any_checkpoint_rebuilds_the_full_stream() {
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, 2 * OPS);
    let (dir, _, by_records) = record_stream(&world, &ops);
    let model = by_records.last().unwrap();
    let (recovered, report) = reopen(&world, config(&world), &dir);
    assert_eq!(report.checkpoint_seq, 0, "no checkpoint was ever taken");
    assert_eq!(report.records_replayed as usize, by_records.len() - 1);
    assert_agrees("pure replay", &recovered, model, &world);
    recovered.close().unwrap();
    // Recovery is idempotent: a second open replays to the same state.
    let (again, _) = reopen(&world, config(&world), &dir);
    assert_agrees("second open", &again, model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_request_commits_and_fsyncs_exactly_once() {
    // The request is the acknowledgement unit: however many records it
    // logs, they reach the disk in one commit — and once it has answered, a
    // crash loses none of them.
    let world = World::facebook();
    let ops = churn_ops(&world, SEED, 1_024);
    let records = ops.iter().filter(|op| is_logged(op)).count() as u64;
    let mut fsynced = config(&world);
    fsynced.durability.fsync = true;
    let dir = temp_dir("one_commit");
    let (mut service, _) = reopen(&world, fsynced, &dir);
    populate(&mut service, &world);
    let before = service.stats().durability;
    let responses = service.run_pipelined(&ops);
    let after = service.stats().durability;
    assert_eq!(after.wal_commits - before.wal_commits, 1);
    assert_eq!(after.wal_fsyncs - before.wal_fsyncs, 1);
    assert_eq!(after.wal_appends - before.wal_appends, records);
    assert_eq!(
        after.wal_records_committed - before.wal_records_committed,
        records
    );
    assert_eq!(after.wal_max_commit_records, records);
    let specified = specify(&world, &ops);
    assert_served("one commit", &service, &responses, &specified, &world);
    drop(service); // crash: no close
    let (recovered, _) = reopen(&world, fsynced, &dir);
    assert_agrees("recovered", &recovered, &specified.model, &world);
    fs::remove_dir_all(&dir).unwrap();
}

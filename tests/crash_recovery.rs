//! Crash-consistency property tests for the durable [`DisclosureService`].
//!
//! The central property: **truncating the write-ahead log at any byte**
//! and recovering yields a service extensionally equal to an uncrashed
//! reference that applied exactly the operations whose log records
//! survived the cut — per-principal consistency words and decision
//! counters, the view registry (size and per-relation epochs), and the
//! decisions of a fixed probe set all match.  A crash can lose a suffix
//! of the stream; it can never invent, reorder or half-apply state.
//!
//! Also covered: checkpoints taken exactly at segment boundaries (every
//! append rotates), recovery with no checkpoint at all (pure replay),
//! resuming a truncated log and continuing the stream, and interned
//! `QueryId` stability across checkpointed recovery.

use std::fs;
use std::path::{Path, PathBuf};

use fdc::core::SecurityViews;
use fdc::cq::RelId;
use fdc::ecosystem::churn::{ChurnConfig, ChurnGenerator};
use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::schema::facebook_catalog;
use fdc::ecosystem::views::facebook_security_views;
use fdc::ecosystem::WorkloadConfig;
use fdc::policy::PrincipalId;
use fdc::service::{
    DisclosureService, DurabilityConfig, Operation, RecoveryReport, Response, ServiceConfig,
};

const PRINCIPALS: usize = 6;
const OPS: usize = 64;

/// A unique scratch directory (removed and re-created empty).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdc_crash_recovery_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The shared service configuration: explicit shard count (round-robin
/// placement must match between the durable service and the in-memory
/// reference), fsync off (scratch directories need no crash safety — the
/// crashes here are simulated with file truncation, not power loss).
fn config() -> ServiceConfig {
    ServiceConfig {
        num_shards: 2,
        durability: DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The mixed churn stream: grants, revokes, view additions, submits and
/// checks over a small pooled query set.
fn churn_ops(registry: &SecurityViews, n: usize) -> Vec<Operation> {
    let schema = facebook_catalog();
    let mut churn = ChurnGenerator::new(
        schema,
        registry,
        ChurnConfig {
            mutation_ratio: 0.25,
            add_view_share: 0.3,
            check_share: 0.15,
            query_pool: 8,
            num_principals: PRINCIPALS,
            seed: 0xC4A5,
            workload: WorkloadConfig::base(0xC4A5),
        },
    );
    let ops = churn.ops(n);
    assert!(
        ops.iter().any(|op| op.is_mutation()) && ops.iter().any(|op| op.is_admission()),
        "the stream must be mixed"
    );
    ops
}

/// The per-principal policies the stream starts from.
fn policies(registry: &SecurityViews) -> Vec<fdc::policy::SecurityPolicy> {
    let mut generator =
        fdc::ecosystem::Ecosystem::new().policy_generator(PolicyGeneratorConfig::default());
    (0..PRINCIPALS)
        .map(|_| generator.next_policy(registry))
        .collect()
}

/// Whether `op` produces a WAL record (the write-ahead set: everything
/// but reads).
fn is_logged(op: &Operation) -> bool {
    !matches!(
        op,
        Operation::Check { .. } | Operation::CheckInterned { .. } | Operation::AuditApp { .. }
    )
}

/// An extensional fingerprint of a service: everything durable that two
/// equal services must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    principals: usize,
    /// Per principal: consistency word + (allowed, denied) counters.
    words: Vec<(u64, (u64, u64))>,
    store_totals: (u64, u64),
    registry_len: usize,
    epochs: Vec<u64>,
    /// Decisions (or rejections) of the probe queries, per principal.
    probes: Vec<Vec<String>>,
}

fn fingerprint(
    service: &mut DisclosureService,
    probes: &[fdc::cq::ConjunctiveQuery],
) -> Fingerprint {
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
    let store_totals = service.store().totals();
    let registry_len = service.registry().len();
    let epochs = (0..service.registry().catalog().len())
        .map(|r| service.registry().epoch(RelId(r as u32)))
        .collect();
    let probe_results = (0..principals)
        .map(|i| {
            let p = PrincipalId(i as u32);
            probes
                .iter()
                .map(|q| format!("{:?}", service.check(p, q)))
                .collect()
        })
        .collect();
    Fingerprint {
        principals,
        words,
        store_totals,
        registry_len,
        epochs,
        probes: probe_results,
    }
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

/// Drives the churn stream through a durable service op-by-op, returning
/// the WAL bytes and, for every record count `r`, the reference
/// fingerprint after exactly the first `r` logged operations.
fn record_stream(
    tag: &str,
    registry: &SecurityViews,
    ops: &[Operation],
    probes: &[fdc::cq::ConjunctiveQuery],
) -> (PathBuf, Vec<u8>, Vec<Fingerprint>) {
    let dir = temp_dir(tag);
    let (mut durable, report) =
        DisclosureService::open_durable(registry.clone(), config(), &dir).unwrap();
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
    let mut reference = DisclosureService::new(registry.clone(), config());
    // Fingerprints indexed by surviving record count: entry 0 is the
    // freshly opened state.
    let mut by_records = vec![fingerprint(&mut reference, probes)];
    for policy in policies(registry) {
        durable.register_principal(policy.clone());
        reference.register_principal(policy);
        by_records.push(fingerprint(&mut reference, probes));
    }
    for op in ops {
        durable.apply(op);
        reference.apply(op);
        if is_logged(op) {
            by_records.push(fingerprint(&mut reference, probes));
        }
    }
    durable.close().unwrap();
    let segment = single_segment(&dir);
    let bytes = fs::read(&segment).unwrap();
    (dir, bytes, by_records)
}

#[test]
fn truncation_at_every_byte_recovers_a_consistent_prefix() {
    let registry = facebook_security_views(&facebook_catalog());
    let ops = churn_ops(&registry, OPS);
    let probes = {
        let schema = facebook_catalog();
        let mut workload =
            fdc::ecosystem::WorkloadGenerator::new(schema, WorkloadConfig::base(0xB0B));
        workload.batch(3)
    };
    let (dir, bytes, by_records) = record_stream("every_byte", &registry, &ops, &probes);
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
        let recovered = DisclosureService::open_durable(registry.clone(), config(), &scratch);
        if cut < header_len {
            // A first segment shorter than its header is structural
            // damage, reported as an error — never a panic, never a
            // silently empty recovery.
            assert!(recovered.is_err(), "cut at {cut} must be rejected");
            continue;
        }
        let (mut recovered, report) =
            recovered.unwrap_or_else(|err| panic!("recovery failed at cut {cut}: {err}"));
        assert_eq!(report.checkpoint_seq, 0);
        let r = report.records_replayed as usize;
        assert_eq!(report.last_seq, r as u64);
        assert!(
            r < by_records.len(),
            "cut {cut} recovered {r} records, stream only logged {}",
            by_records.len() - 1
        );
        assert_eq!(
            fingerprint(&mut recovered, &probes),
            by_records[r],
            "state diverged at cut {cut} ({r} records)"
        );
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
    let registry = facebook_security_views(&facebook_catalog());
    let ops = churn_ops(&registry, OPS);
    let probes = {
        let schema = facebook_catalog();
        let mut workload =
            fdc::ecosystem::WorkloadGenerator::new(schema, WorkloadConfig::base(0xBEE));
        workload.batch(2)
    };
    let (dir, bytes, _) = record_stream("resume", &registry, &ops, &probes);
    // Tear the log mid-way (an arbitrary mid-record byte), then resume:
    // apply a further grant, close, and recover again — the post-crash
    // record must land right after the surviving prefix.
    let segment = single_segment(&dir);
    let cut = 20 + (bytes.len() - 20) / 2;
    fs::write(&segment, &bytes[..cut]).unwrap();
    let (mut resumed, first) =
        DisclosureService::open_durable(registry.clone(), config(), &dir).unwrap();
    let survivor = PrincipalId(0);
    let view = resumed.registry().iter().next().unwrap().1.name.clone();
    resumed.grant_view(survivor, &view).unwrap();
    let expected_bits = resumed.store().consistency_bits(survivor);
    resumed.close().unwrap();
    let (recovered, second) = DisclosureService::open_durable(registry, config(), &dir).unwrap();
    assert_eq!(second.records_replayed, first.records_replayed + 1);
    assert_eq!(second.last_seq, first.last_seq + 1);
    assert_eq!(recovered.store().consistency_bits(survivor), expected_bits);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_at_every_segment_boundary_recovers_exactly() {
    // segment_bytes = 1 forces a rotation after every record: each
    // checkpoint lands exactly on a segment boundary, the hardest case
    // for the prune/replay-start arithmetic.
    let registry = facebook_security_views(&facebook_catalog());
    let ops = churn_ops(&registry, OPS);
    let tiny_segments = ServiceConfig {
        durability: DurabilityConfig {
            fsync: false,
            segment_bytes: 1,
            group_commit: 1,
            ..DurabilityConfig::default()
        },
        ..config()
    };
    let probes = {
        let schema = facebook_catalog();
        let mut workload =
            fdc::ecosystem::WorkloadGenerator::new(schema, WorkloadConfig::base(0xD1CE));
        workload.batch(2)
    };
    let dir = temp_dir("segment_boundary");
    let (mut durable, _) =
        DisclosureService::open_durable(registry.clone(), tiny_segments, &dir).unwrap();
    let mut reference = DisclosureService::new(registry.clone(), tiny_segments);
    for policy in policies(&registry) {
        durable.register_principal(policy.clone());
        reference.register_principal(policy);
    }
    let mut last_checkpoint = 0;
    for (i, op) in ops.iter().enumerate() {
        durable.apply(op);
        reference.apply(op);
        // Checkpoint every 16 ops, and crash-recover right after one.
        if (i + 1) % 16 == 0 {
            let seq = durable.checkpoint().unwrap();
            assert!(seq > last_checkpoint, "sequence numbers advance");
            last_checkpoint = seq;
            // Recovery from the live directory (the durable handle keeps
            // appending afterwards — recovery is read-only apart from
            // tail truncation, and there is no torn tail here).
            let (mut recovered, report) =
                DisclosureService::open_durable(registry.clone(), tiny_segments, &dir).unwrap();
            assert_eq!(report.checkpoint_seq, seq);
            assert_eq!(report.records_replayed, 0, "checkpoint covers the log");
            assert_eq!(
                fingerprint(&mut recovered, &probes),
                fingerprint(&mut reference, &probes),
                "after checkpoint {seq}"
            );
        }
    }
    durable.close().unwrap();
    // Final recovery: checkpoint + the records appended after it.
    let (mut recovered, report) =
        DisclosureService::open_durable(registry, tiny_segments, &dir).unwrap();
    assert_eq!(report.checkpoint_seq, last_checkpoint);
    assert!(report.last_seq >= last_checkpoint);
    assert_eq!(
        fingerprint(&mut recovered, &probes),
        fingerprint(&mut reference, &probes)
    );
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
fn interned_query_ids_stay_stable_across_checkpointed_recovery() {
    let registry = facebook_security_views(&facebook_catalog());
    let schema = facebook_catalog();
    let dir = temp_dir("interned_ids");
    let (mut durable, _) =
        DisclosureService::open_durable(registry.clone(), config(), &dir).unwrap();
    for policy in policies(&registry) {
        durable.register_principal(policy);
    }
    let mut churn = ChurnGenerator::new(
        schema,
        &registry,
        ChurnConfig {
            mutation_ratio: 0.1,
            add_view_share: 0.2,
            check_share: 0.2,
            query_pool: 8,
            num_principals: PRINCIPALS,
            seed: 0x1D5,
            workload: WorkloadConfig::base(0x1D5),
        },
    );
    churn.attach_interner(durable.interner());
    let ops = churn.ops(OPS);
    assert!(
        ops.iter()
            .any(|op| matches!(op, Operation::SubmitInterned { .. })),
        "the stream must carry interned admissions"
    );
    let responses = durable.run_pipelined(&ops);
    assert_eq!(responses.len(), ops.len());
    durable.checkpoint().unwrap();
    // Record every pooled query and its id from the live interner.
    let live: Vec<(fdc::cq::intern::QueryId, fdc::cq::ConjunctiveQuery)> = {
        let handle = durable.interner();
        let guard = handle.read().unwrap();
        (0..guard.len())
            .map(|i| {
                let id = fdc::cq::intern::QueryId(i as u32);
                (id, guard.to_query(id))
            })
            .collect()
    };
    durable.close().unwrap();
    let (mut recovered, report) =
        DisclosureService::open_durable(registry, config(), &dir).unwrap();
    assert_eq!(report.records_replayed, 0);
    // Every pre-crash id resolves to the identical query, and re-interning
    // the query yields the same id — ids are stable currency across
    // restarts.
    {
        let handle = recovered.interner();
        let mut guard = handle.write().unwrap();
        for (id, query) in &live {
            assert!(guard.contains(*id));
            assert_eq!(&guard.to_query(*id), query);
            assert_eq!(guard.intern(query), *id);
        }
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
    // horizon under the lock, the payload encodes while the service keeps
    // admitting mutations, and `complete_checkpoint` lands the image
    // without pruning the records acknowledged in between.
    let registry = facebook_security_views(&facebook_catalog());
    let ops = churn_ops(&registry, 2 * OPS);
    let probes = {
        let schema = facebook_catalog();
        let mut workload =
            fdc::ecosystem::WorkloadGenerator::new(schema, WorkloadConfig::base(0x0FF1));
        workload.batch(3)
    };
    let (before, rest) = ops.split_at(OPS);
    let (mid_encode, after) = rest.split_at(OPS / 2);
    let dir = temp_dir("off_lock_checkpoint");
    let (mut durable, _) =
        DisclosureService::open_durable(registry.clone(), config(), &dir).unwrap();
    let mut reference = DisclosureService::new(registry.clone(), config());
    for policy in policies(&registry) {
        durable.register_principal(policy.clone());
        reference.register_principal(policy);
    }
    for op in before {
        durable.apply(op);
        reference.apply(op);
    }
    let pending = durable.begin_checkpoint().unwrap();
    let horizon = pending.seq();
    // Mutations admitted while the payload is encoding (the service lock
    // is free between begin and complete): every one is acknowledged and
    // logged past `horizon`, and none of them may leak into the image.
    for op in mid_encode {
        assert_eq!(durable.apply(op), reference.apply(op));
    }
    let payload = pending.encode();
    for op in after {
        assert_eq!(durable.apply(op), reference.apply(op));
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
    let (mut recovered, report) =
        DisclosureService::open_durable(registry, config(), &dir).unwrap();
    assert_eq!(report.checkpoint_seq, horizon);
    assert!(
        report.records_replayed > 0,
        "mid-encode mutations must replay from the surviving log"
    );
    assert_eq!(
        fingerprint(&mut recovered, &probes),
        fingerprint(&mut reference, &probes)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pure_replay_without_any_checkpoint_rebuilds_the_full_stream() {
    let registry = facebook_security_views(&facebook_catalog());
    let ops = churn_ops(&registry, 2 * OPS);
    let probes = {
        let schema = facebook_catalog();
        let mut workload =
            fdc::ecosystem::WorkloadGenerator::new(schema, WorkloadConfig::base(0xFADE));
        workload.batch(3)
    };
    let (dir, _, by_records) = record_stream("pure_replay", &registry, &ops, &probes);
    let (mut recovered, report) =
        DisclosureService::open_durable(registry.clone(), config(), &dir).unwrap();
    assert_eq!(report.checkpoint_seq, 0, "no checkpoint was ever taken");
    assert_eq!(report.records_replayed as usize, by_records.len() - 1);
    assert_eq!(
        fingerprint(&mut recovered, &probes),
        *by_records.last().unwrap()
    );
    recovered.close().unwrap();
    // Recovery is idempotent: a second open replays to the same state.
    let (mut again, _) = DisclosureService::open_durable(registry, config(), &dir).unwrap();
    assert_eq!(
        fingerprint(&mut again, &probes),
        *by_records.last().unwrap()
    );
    fs::remove_dir_all(&dir).unwrap();
}

//! The service's audit — which keeps each principal's observed workload as
//! a ring of interned query ids and labels it by id — reports exactly what
//! the specification reports over **the boxed queries as they were
//! submitted**: [`ReferenceService`](fdc::service::ReferenceService) keeps
//! them in a plain capped deque and audits through `fdc_policy::audit_app`
//! and the boxed baseline labeler.
//!
//! Long seeded streams of the shared generator (`support/harness.rs`) mix
//! plain `Submit`s, `SubmitInterned`s and alpha-renamed resubmissions of
//! the same shapes (which share an id but arrive as different boxed
//! queries), checks, grants and revokes, online view additions, invalid
//! operations and `AuditApp`s.  Every stream opens by filling one
//! principal's ring to exactly `history_cap` and then to `cap + 1`,
//! auditing at both points.  Each `Response::Audit` must equal the model's
//! report — `uncovered_queries` indices included — under every in-memory
//! executor, and every principal's final audit must survive `checkpoint` →
//! `close` → `open_durable`, and a WAL-only replay.

#[path = "support/harness.rs"]
mod harness;

use fdc::policy::PrincipalId;
use fdc::service::{Operation, Response};
use harness::{durable_rows, in_memory_rows, specify, steps, Specified, World};

const NUM_PRINCIPALS: usize = 4;
const STREAM_LEN: usize = 260;
const SEEDS: u64 = 6;

/// The opening block, then the seeded stream.  Exactly `cap` submissions,
/// an audit, the `cap + 1`th, another audit: the first entry — the only one
/// principal 1, which holds `V2` alone, cannot cover — must age out
/// between the two.
fn stream(world: &World, seed: u64) -> Vec<Operation> {
    let principal = PrincipalId(1);
    let submit = |shape: usize| Operation::Submit {
        principal,
        query: world.pool[shape].clone(),
    };
    let mut ops = vec![submit(4)];
    ops.extend((1..world.history_cap).map(|_| submit(0)));
    ops.push(Operation::AuditApp { principal });
    ops.push(submit(0));
    ops.push(Operation::AuditApp { principal });
    ops.extend(world.stream(&steps(seed, STREAM_LEN)));
    ops.truncate(STREAM_LEN);
    ops
}

/// The model's view of a stream, with the opening block checked: at exactly
/// `cap` the oldest (uncoverable) entry is still audited, at `cap + 1` it
/// has aged out.
fn specified(world: &World, ops: &[Operation]) -> Specified {
    let specified = specify(world, ops);
    let uncovered = |at: usize| match &specified.responses[at] {
        Response::Audit(report) => report.uncovered_queries.clone(),
        other => panic!("op {at} is an audit, answered {other:?}"),
    };
    assert_eq!(uncovered(world.history_cap), vec![0]);
    assert_eq!(uncovered(world.history_cap + 2), Vec::<usize>::new());
    let audits = specified
        .responses
        .iter()
        .filter(|response| matches!(response, Response::Audit(_)))
        .count();
    assert!(audits >= 6, "the stream must carry audits, got {audits}");
    specified
}

#[test]
fn id_ring_audits_equal_the_boxed_audit_under_every_executor() {
    let world = World::paper(NUM_PRINCIPALS);
    for seed in 0..SEEDS {
        let ops = stream(&world, 0xA0D1 + seed);
        let specified = specified(&world, &ops);
        in_memory_rows(&format!("seed {seed}"), &world, &ops, &specified);
    }
}

#[test]
fn id_ring_audits_survive_checkpointed_and_wal_only_recovery() {
    let world = World::paper(NUM_PRINCIPALS);
    for seed in 0..SEEDS {
        let ops = stream(&world, 0xD0_5EED + seed);
        let specified = specified(&world, &ops);
        durable_rows(&format!("seed {seed}"), &world, &ops, &specified);
    }
}

//! Pinned: a warm request allocates for itself, not for its operations.
//!
//! The admission path is "label, compare, update", and on a warm service
//! none of the three needs the heap: a known query is found by hashing it in
//! place, its packed label is copied from the cache onto the end of the
//! service's label arena, the decision is pushed onto the response vector,
//! and a committed submission is one 8-byte append to the shared history
//! log.  This binary installs the counting global allocator of
//! `intern_alloc` (which is why it is a test binary of its own) and asserts:
//!
//! * a `run_pipelined` batch of known-shape `Submit` / `Check` operations
//!   performs the **same** number of allocations at 256 and at 1 024
//!   operations — one, the response vector; nothing per operation;
//! * a warm `apply(Submit)` performs **none**, except when the history log
//!   grows (amortised: a doubling while the rings fill, one compaction per
//!   `live + principals` records once they are full);
//! * a stale label costs the heap nothing either: a batch served right
//!   after an `AddSecurityView` on the relation every one of its shapes
//!   reads (so every admission refreshes its cached label) performs the
//!   same number of allocations as the same batch served again fresh, and
//!   a warm `apply(Submit)` of a stale shape performs none — the entry is
//!   patched where it lies;
//! * a batch whose segments contain grants, revokes, audits and an
//!   `AddSecurityView` still answers exactly like sequential `apply`.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.  Run in release as well (CI does): allocation behaviour is
//! a property of the optimised build.

use fdc::core::SecurityViews;
use fdc::cq::parser::parse_query;
use fdc::cq::ConjunctiveQuery;
use fdc::policy::{PolicyPartition, PrincipalId, SecurityPolicy};
use fdc::service::{DisclosureService, Operation, Response, ServiceConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const SHAPES: [&str; 5] = [
    "Q(x) :- Meetings(x, y)",
    "Q(x, y) :- Meetings(x, y)",
    "Q(x, y, z) :- Contacts(x, y, z)",
    "Q(z) :- Contacts(x, y, z)",
    "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
];

/// An in-memory service with `principals` Chinese-Wall
/// principals, and the query shapes its streams draw from.
fn build(principals: usize, history_cap: usize) -> (DisclosureService, Vec<ConjunctiveQuery>) {
    let registry = SecurityViews::paper_example();
    let mut service = DisclosureService::new(
        registry.clone(),
        ServiceConfig {
            history_cap,
            ..ServiceConfig::default()
        },
    );
    let v1 = registry.id_by_name("V1").unwrap();
    let v3 = registry.id_by_name("V3").unwrap();
    for _ in 0..principals {
        service.register_principal(SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]));
    }
    let shapes = SHAPES
        .iter()
        .map(|text| parse_query(registry.catalog(), text).unwrap())
        .collect();
    (service, shapes)
}

/// `n` boxed admissions over `principals` principals: two submits, then a
/// check, cycling through the shapes.
fn admissions(shapes: &[ConjunctiveQuery], principals: usize, n: usize) -> Vec<Operation> {
    (0..n)
        .map(|i| {
            let principal = PrincipalId((i * 7 % principals) as u32);
            let query = shapes[i % shapes.len()].clone();
            if i % 3 == 2 {
                Operation::Check { principal, query }
            } else {
                Operation::Submit { principal, query }
            }
        })
        .collect()
}

#[test]
fn a_warm_batch_allocates_per_request_not_per_operation() {
    let principals = 64;
    let (mut service, shapes) = build(principals, ServiceConfig::default().history_cap);
    let small = admissions(&shapes, principals, 256);
    let large = admissions(&shapes, principals, 1_024);
    // Warm: every shape cached, the label arena grown to the large batch,
    // and more submissions in the history log than the measured batches
    // add — so a doubling log grows at most once per batch below.
    for _ in 0..4 {
        service.run_pipelined(&large);
    }
    let mut counts = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (batch, counts) in [&small, &large].into_iter().zip(&mut counts) {
            let mut responses = Vec::new();
            counts.push(allocations(|| responses = service.run_pipelined(batch)));
            assert!(responses.iter().all(|r| r.decision().is_some()));
        }
    }
    let [small_counts, large_counts] = counts;
    let floor = *small_counts.iter().min().unwrap();
    assert_eq!(
        floor,
        *large_counts.iter().min().unwrap(),
        "256 ops: {small_counts:?}, 1024 ops: {large_counts:?}"
    );
    // The request's one buffer: the response vector.
    assert_eq!(floor, 1, "{floor} allocations for one request");
    // Nothing but a growth of the history log ever adds to that.
    for count in small_counts.iter().chain(&large_counts) {
        assert!(
            *count <= floor + 1,
            "256 ops: {small_counts:?}, 1024 ops: {large_counts:?}"
        );
    }
}

#[test]
fn a_warm_submit_allocates_only_when_the_history_log_grows() {
    // Rings far from full (the default cap): the log only ever doubles.
    let principals = 64;
    let (mut service, shapes) = build(principals, ServiceConfig::default().history_cap);
    let stream = admissions(&shapes, principals, 3_000);
    for op in &stream {
        service.apply(op);
    }
    let counts: Vec<u64> = stream
        .iter()
        .map(|op| allocations(|| drop(service.apply(op))))
        .collect();
    assert!(counts.iter().all(|&count| count <= 1), "{counts:?}");
    // 2 000 records appended to a log that already held 2 000: one
    // doubling at most, so nearly every window of the stream is silent.
    assert!(counts.iter().sum::<u64>() <= 1, "{counts:?}");

    // Rings full (cap 8 × 16 principals = 128 live entries): records are
    // free until the log has collected `live + principals` dead entries,
    // then one of them pays for a compaction.
    let (principals, cap) = (16, 8);
    let (mut service, shapes) = build(principals, cap);
    let stream = admissions(&shapes, principals, 3_000);
    for op in &stream {
        service.apply(op);
    }
    let counts: Vec<u64> = stream
        .iter()
        .map(|op| allocations(|| drop(service.apply(op))))
        .collect();
    let paying = counts.iter().filter(|&&count| count != 0).count();
    let submits = stream
        .iter()
        .filter(|op| matches!(op, Operation::Submit { .. }))
        .count();
    assert!(paying >= 1, "3 000 records over 128 live entries compact");
    assert!(
        paying <= submits / (principals * cap + principals) + 1,
        "{paying} of {submits} submits allocated: {counts:?}"
    );
}

/// `n` distinct shapes over `Meetings` alone (one selection constant each),
/// so one added `Meetings` view stales every one of them.
fn meetings_shapes(service: &DisclosureService, n: usize) -> Vec<ConjunctiveQuery> {
    let catalog = service.registry().catalog();
    (0..n)
        .map(|i| parse_query(catalog, &format!("Q(x) :- Meetings(x, 'room{i}')")).unwrap())
        .collect()
}

#[test]
fn a_stale_batch_allocates_like_a_fresh_one() {
    let principals = 64;
    let (mut service, _) = build(principals, ServiceConfig::default().history_cap);
    // 256 admissions, 256 shapes: after a view addition each is a refresh.
    let shapes = meetings_shapes(&service, 256);
    let batch = admissions(&shapes, principals, shapes.len());
    for _ in 0..16 {
        service.run_pipelined(&batch);
    }
    let view = parse_query(service.registry().catalog(), "A(y) :- Meetings(x, y)").unwrap();
    let (mut stale, mut fresh) = (Vec::new(), Vec::new());
    for round in 0..3 {
        service
            .add_security_view(&format!("A{round}"), view.clone())
            .unwrap();
        let before = service.labeler().stats().query_refreshes;
        for counts in [&mut stale, &mut fresh] {
            counts.push(allocations(|| drop(service.run_pipelined(&batch))));
        }
        // The first pass refreshed every shape, the second none.
        let refreshed = service.labeler().stats().query_refreshes - before;
        assert_eq!(refreshed, shapes.len() as u64);
    }
    assert_eq!(
        stale.iter().min(),
        fresh.iter().min(),
        "stale: {stale:?}, fresh: {fresh:?}"
    );
}

#[test]
fn a_warm_submit_of_a_stale_shape_does_not_allocate() {
    let principals = 64;
    let (mut service, _) = build(principals, ServiceConfig::default().history_cap);
    let shapes = meetings_shapes(&service, 64);
    // Submits only, and more of them recorded than measured below, so the
    // history log doubles at most once while the counts are taken.
    let stream: Vec<Operation> = admissions(&shapes, principals, shapes.len())
        .into_iter()
        .filter(|op| matches!(op, Operation::Submit { .. }))
        .collect();
    for _ in 0..8 {
        for op in &stream {
            service.apply(op);
        }
    }
    let view = parse_query(service.registry().catalog(), "A(y) :- Meetings(x, y)").unwrap();
    let mut counts = Vec::new();
    for round in 0..3 {
        service
            .add_security_view(&format!("A{round}"), view.clone())
            .unwrap();
        let before = service.labeler().stats().query_refreshes;
        counts.extend(
            stream
                .iter()
                .map(|op| allocations(|| drop(service.apply(op)))),
        );
        let refreshed = service.labeler().stats().query_refreshes - before;
        assert_eq!(refreshed, stream.len() as u64, "every submit was stale");
    }
    assert!(counts.iter().sum::<u64>() <= 1, "{counts:?}");
}

#[test]
fn segments_with_mutations_answer_like_sequential_apply() {
    let principals = 8;
    let (mut pipelined, shapes) = build(principals, 4);
    let (mut sequential, _) = build(principals, 4);
    let catalog = pipelined.registry().catalog().clone();
    let mut ops = Vec::new();
    for (i, op) in admissions(&shapes, principals, 600).into_iter().enumerate() {
        let principal = PrincipalId((i % (principals + 1)) as u32);
        match i % 97 {
            13 => ops.push(Operation::RevokeView {
                principal,
                view: "V1".into(),
            }),
            29 => ops.push(Operation::GrantView {
                principal,
                view: if i % 2 == 0 { "V2" } else { "ghost" }.into(),
            }),
            41 => ops.push(Operation::AuditApp { principal }),
            59 => ops.push(Operation::AddSecurityView {
                name: format!("A{}", i % 194),
                query: parse_query(&catalog, "A(y) :- Meetings(x, y)").unwrap(),
            }),
            _ => {}
        }
        ops.push(op);
    }
    assert!(ops
        .iter()
        .any(|op| matches!(op, Operation::AddSecurityView { .. })));
    let expected: Vec<Response> = ops.iter().map(|op| sequential.apply(op)).collect();
    assert_eq!(pipelined.run_pipelined(&ops), expected);
    assert_eq!(pipelined.totals(), sequential.totals());
    for p in 0..principals {
        let principal = PrincipalId(p as u32);
        assert_eq!(
            pipelined.audit_app(principal),
            sequential.audit_app(principal),
            "principal {p}"
        );
    }
}

//! Property test: the batch executor is extensionally equal to sequential
//! `apply` and to a from-scratch rebuild.
//!
//! Random mixed churn streams — plain and **interned** admissions
//! (submits and checks), `GrantView` / `RevokeView` / `AddSecurityView`
//! mutations, and deliberately invalid operations (ghost principals,
//! never-minted query ids, unknown and duplicate view names) — are served
//! by [`DisclosureService::run_pipelined`] and compared against:
//!
//! * the same stream op by op through [`DisclosureService::apply`] on an
//!   identically built service — the oracle: **every response**, the
//!   totals, each principal's consistency word and counters, the final
//!   registry epochs, and — on the single-worker (deterministic)
//!   configuration — the **cumulative `CacheStats`**, every column;
//! * a **from-scratch rebuild** from the final registry and final
//!   policies: probe labels (against a fresh [`BitVectorLabeler`]) and a
//!   shared post-stream submit sequence (decisions, consistency words,
//!   counters).
//!
//! A multi-shard pipelined service runs the same stream too — built with
//! `workers: 4`, it exercises the full pooled executor (persistent worker
//! pool, chunk stealing, epoch-based snapshot reclamation) whatever the
//! host's core count; its cache counters are racy by design (the snapshots
//! publish their overlay work back on retirement), but responses and
//! state must still agree exactly.  A single-shard service with the same
//! worker width covers the pooled labeling plane over the in-place
//! decision fast path, and a single-worker four-shard one the inline
//! labeling plane over the sharded store.

use fdc::core::{BitVectorLabeler, QueryLabeler, SecurityViews};
use fdc::cq::intern::QueryId;
use fdc::cq::parser::parse_query;
use fdc::cq::ConjunctiveQuery;
use fdc::policy::{PolicyPartition, PrincipalId, SecurityPolicy};
use fdc::service::{DisclosureService, Operation, Response, ServiceConfig};
use proptest::prelude::*;

/// Candidate view definitions a stream may add online, with fixed names so
/// repeated additions exercise the duplicate-name rejection path.
const CANDIDATE_VIEWS: [(&str, &str); 6] = [
    ("A0", "A0(x) :- Meetings(x, y)"),
    ("A1", "A1(x, y) :- Meetings(x, y)"),
    ("A2", "A2(y) :- Meetings(x, y)"),
    ("A3", "A3(x, y) :- Contacts(x, y, z)"),
    ("A4", "A4(z) :- Contacts(x, y, z)"),
    ("A5", "A5(x) :- Meetings(x, 'Cathy')"),
];

/// View names grants/revokes may target: the three initial views, the
/// candidates (rejected while not yet added) and one never-registered name.
const GRANTABLE: [&str; 10] = [
    "V1", "V2", "V3", "A0", "A1", "A2", "A3", "A4", "A5", "ghost",
];

/// Query shapes used for admissions and probes.
const PROBES: [&str; 8] = [
    "Q(x) :- Meetings(x, y)",
    "Q(x, y) :- Meetings(x, y)",
    "Q(y) :- Meetings(x, y)",
    "Q(x) :- Meetings(x, 'Cathy')",
    "Q(x, y, z) :- Contacts(x, y, z)",
    "Q(z) :- Contacts(x, y, z)",
    "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
    "Q() :- Meetings(x, x)",
];

const NUM_PRINCIPALS: usize = 4;

fn build_service(registry: &SecurityViews, num_shards: usize, workers: usize) -> DisclosureService {
    let mut service = DisclosureService::new(
        registry.clone(),
        ServiceConfig {
            num_shards,
            workers,
            ..ServiceConfig::default()
        },
    );
    let v1 = registry.id_by_name("V1").unwrap();
    let v2 = registry.id_by_name("V2").unwrap();
    let v3 = registry.id_by_name("V3").unwrap();
    for i in 0..NUM_PRINCIPALS {
        let policy = if i % 2 == 0 {
            SecurityPolicy::chinese_wall([
                PolicyPartition::from_views("meetings", registry, [v1, v2]),
                PolicyPartition::from_views("contacts", registry, [v3]),
            ])
        } else {
            SecurityPolicy::stateless(PolicyPartition::from_views("times", registry, [v2]))
        };
        service.register_principal(policy);
    }
    service
}

/// Interns the probe pool into a service, in pool order — every service of
/// a comparison interns the same pool, so the dense ids line up across
/// their (independent) interners.
fn intern_pool(service: &DisclosureService, catalog: &fdc::cq::Catalog) -> Vec<QueryId> {
    PROBES
        .iter()
        .map(|text| service.intern(&parse_query(catalog, text).unwrap()))
        .collect()
}

/// Expands one generated step into an operation.  `kind` selects the shape;
/// `a` / `b` index the step's choice pools, with out-of-range principals,
/// never-minted ids and not-yet-registered views deliberately reachable.
fn step_op(
    catalog: &fdc::cq::Catalog,
    pool: &[QueryId],
    kind: u8,
    a: usize,
    b: usize,
) -> Operation {
    let principal = PrincipalId((a % (NUM_PRINCIPALS + 1)) as u32);
    match kind {
        0 => Operation::Submit {
            principal,
            query: parse_query(catalog, PROBES[b % PROBES.len()]).unwrap(),
        },
        1 => Operation::Check {
            principal,
            query: parse_query(catalog, PROBES[b % PROBES.len()]).unwrap(),
        },
        2 => Operation::SubmitInterned {
            principal,
            query: pool[b % pool.len()],
        },
        3 => Operation::CheckInterned {
            principal,
            query: if b.is_multiple_of(5) {
                // A never-minted id: rejected at its stream position.
                QueryId(u32::MAX)
            } else {
                pool[b % pool.len()]
            },
        },
        4 => Operation::GrantView {
            principal,
            view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
        },
        5 => Operation::RevokeView {
            principal,
            view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
        },
        _ => {
            let (name, text) = CANDIDATE_VIEWS[b % CANDIDATE_VIEWS.len()];
            Operation::AddSecurityView {
                name: name.to_owned(),
                query: parse_query(catalog, text).unwrap(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pipelined_equals_batch_and_rebuild(
        steps in proptest::collection::vec((0u8..7, 0usize..16, 0usize..16), 1..48)
    ) {
        let registry = SecurityViews::paper_example();
        let catalog = registry.catalog().clone();

        // Identically built services; the pool interns to the same ids in
        // each because it is interned first and in the same order.  The
        // single-worker services take the deterministic inline paths;
        // `sharded` and `pooled` force a four-worker pool so the pooled
        // executor (stealing, epoch reclamation) runs on any host.
        let mut sequential = build_service(&registry, 1, 1);
        let mut pipelined = build_service(&registry, 1, 1);
        let mut inline_sharded = build_service(&registry, 4, 1);
        let mut sharded = build_service(&registry, 4, 4);
        let mut pooled = build_service(&registry, 1, 4);
        let pool = intern_pool(&sequential, &catalog);
        for service in [&pipelined, &inline_sharded, &sharded, &pooled] {
            prop_assert_eq!(&intern_pool(service, &catalog), &pool);
        }

        let ops: Vec<Operation> = steps
            .iter()
            .map(|&(kind, a, b)| step_op(&catalog, &pool, kind, a, b))
            .collect();

        // 1. Responses: the batch executor == sequential processing, at one
        //    worker and four, on one shard and on four.
        let sequential_responses: Vec<Response> =
            ops.iter().map(|op| sequential.apply(op)).collect();
        prop_assert_eq!(&pipelined.run_pipelined(&ops), &sequential_responses);
        prop_assert_eq!(&inline_sharded.run_pipelined(&ops), &sequential_responses);
        prop_assert_eq!(&sharded.run_pipelined(&ops), &sequential_responses);
        prop_assert_eq!(&pooled.run_pipelined(&ops), &sequential_responses);

        // 2. State: totals, consistency words, per-principal counters and
        //    service counters all agree with the sequential oracle.
        for service in [&pipelined, &inline_sharded, &sharded, &pooled] {
            prop_assert_eq!(sequential.totals(), service.totals());
            prop_assert_eq!(sequential.stats(), service.stats());
            for i in 0..NUM_PRINCIPALS {
                let p = PrincipalId(i as u32);
                prop_assert_eq!(
                    sequential.store().consistency_bits(p),
                    service.store().consistency_bits(p)
                );
                prop_assert_eq!(sequential.store().stats(p), service.store().stats(p));
            }
        }

        // 3. Cumulative cache stats: at one worker the batch executor
        //    labels in stream order through the live labeler, as `apply`
        //    does, so every column matches exactly.
        prop_assert_eq!(sequential.labeler().stats(), pipelined.labeler().stats());

        // 4. Labels: the pipelined service's post-stream cache agrees with
        //    labelers built fresh from the final registry — the rebuild
        //    baseline for the label plane.
        let final_registry = pipelined.registry().clone();
        for r in 0..catalog.len() {
            let rel = fdc::cq::RelId(r as u32);
            prop_assert_eq!(
                sequential.registry().epoch(rel),
                pipelined.registry().epoch(rel)
            );
        }
        let fresh_bitvec = BitVectorLabeler::new(final_registry.clone());
        for text in PROBES {
            let query: ConjunctiveQuery = parse_query(&catalog, text).unwrap();
            prop_assert_eq!(
                pipelined.labeler().label_query(&query),
                fresh_bitvec.label_query(&query),
                "label diverged on {}",
                text
            );
        }

        // 5. Rebuild of the decision plane: a fresh service from the final
        //    registry and final policies decides a shared *post-stream*
        //    submit sequence exactly like each churned service — their
        //    consistency words evolved identically, so the same future is
        //    admitted (compared between the oracle and the batch executor,
        //    whose whole state must coincide; the fresh service provides the
        //    labels' ground truth through its own pipeline).
        let mut rebuilt = DisclosureService::with_defaults(final_registry.clone());
        for i in 0..NUM_PRINCIPALS {
            let p = PrincipalId(i as u32);
            rebuilt.register_principal(pipelined.store().policy(p).clone());
        }
        for (i, text) in PROBES.iter().cycle().take(16).enumerate() {
            let p = PrincipalId((i % NUM_PRINCIPALS) as u32);
            let query = parse_query(&catalog, text).unwrap();
            let sequential_decision = sequential.submit(p, &query).unwrap();
            let pipe_decision = pipelined.submit(p, &query).unwrap();
            prop_assert_eq!(sequential_decision, pipe_decision, "future diverged on {}", text);
            // The rebuilt service labels through a cold cache over the same
            // final registry; its packed labels must match the churned
            // service's for every probe (the decision itself depends on the
            // churned history, which the rebuilt store has not lived).
            prop_assert_eq!(
                rebuilt.labeler().label_packed(&query),
                pipelined.labeler().label_packed(&query),
                "rebuilt label diverged on {}",
                text
            );
        }
    }
}

//! Property test: incremental relabeling is indistinguishable from a
//! from-scratch rebuild.
//!
//! Random interleavings of `GrantView` / `RevokeView` / `AddSecurityView`
//! operations (including invalid ones, which must be rejected without side
//! effects) are applied to a live [`DisclosureService`], with cache-warming
//! labelings injected between mutations so that epoch-stale entries exist
//! at every step.  Afterwards the service must be extensionally equal to a
//! system built fresh from the final state:
//!
//! * every probe query's label equals the label computed by a
//!   [`BitVectorLabeler`] (and a fresh [`CachedLabeler`]) constructed from
//!   the final registry;
//! * a shared submit sequence yields identical admission decisions,
//!   consistency words and counters on the churned service and on a fresh
//!   service rebuilt from the final registry and final policies.

use fdc::core::{BitVectorLabeler, CachedLabeler, QueryLabeler, SecurityViews};
use fdc::cq::parser::parse_query;
use fdc::cq::ConjunctiveQuery;
use fdc::policy::{PolicyPartition, PrincipalId, SecurityPolicy};
use fdc::service::{DisclosureService, Operation, Response};
use proptest::prelude::*;

/// Candidate view definitions an interleaving may add online, with fixed
/// names so repeated additions exercise the duplicate-name rejection path.
const CANDIDATE_VIEWS: [(&str, &str); 8] = [
    ("A0", "A0(x) :- Meetings(x, y)"),
    ("A1", "A1(x, y) :- Meetings(x, y)"),
    ("A2", "A2(y) :- Meetings(x, y)"),
    ("A3", "A3(x) :- Meetings(x, 'Cathy')"),
    ("A4", "A4(x, y) :- Contacts(x, y, z)"),
    ("A5", "A5(z) :- Contacts(x, y, z)"),
    ("A6", "A6(x, y) :- Contacts(x, y, 'Intern')"),
    ("A7", "A7() :- Meetings(x, y)"),
];

/// Every view name an interleaving may grant or revoke: the three initial
/// views plus the candidates (granting a not-yet-added candidate must be
/// rejected without side effects).
const GRANTABLE: [&str; 11] = [
    "V1", "V2", "V3", "A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
];

/// Probe query shapes used for warming, final labeling and admissions.
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

fn probe(registry: &SecurityViews, text: &str) -> ConjunctiveQuery {
    parse_query(registry.catalog(), text).unwrap()
}

fn build_service() -> DisclosureService {
    let registry = SecurityViews::paper_example();
    let mut service = DisclosureService::with_defaults(registry.clone());
    let v1 = registry.id_by_name("V1").unwrap();
    let v2 = registry.id_by_name("V2").unwrap();
    let v3 = registry.id_by_name("V3").unwrap();
    for i in 0..NUM_PRINCIPALS {
        // A mix of stateless and Chinese-Wall policies.
        let policy = if i % 2 == 0 {
            SecurityPolicy::chinese_wall([
                PolicyPartition::from_views("meetings", &registry, [v1, v2]),
                PolicyPartition::from_views("contacts", &registry, [v3]),
            ])
        } else {
            SecurityPolicy::stateless(PolicyPartition::from_views("times", &registry, [v2]))
        };
        service.register_principal(policy);
    }
    service
}

/// Applies one interleaving step.  `a` and `b` index the step's choice
/// pools; out-of-range ids and not-yet-registered views are deliberately
/// reachable so rejections are exercised too.
fn apply_step(service: &mut DisclosureService, kind: u8, a: usize, b: usize) {
    let registry_catalog = service.registry().catalog().clone();
    match kind {
        0 => {
            let op = Operation::GrantView {
                principal: PrincipalId((a % (NUM_PRINCIPALS + 1)) as u32),
                view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
            };
            service.apply(&op);
        }
        1 => {
            let op = Operation::RevokeView {
                principal: PrincipalId((a % (NUM_PRINCIPALS + 1)) as u32),
                view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
            };
            service.apply(&op);
        }
        2 => {
            let (name, text) = CANDIDATE_VIEWS[a % CANDIDATE_VIEWS.len()];
            let op = Operation::AddSecurityView {
                name: name.to_owned(),
                query: parse_query(&registry_catalog, text).unwrap(),
            };
            let response = service.apply(&op);
            // Either freshly added or rejected as a duplicate; a duplicate
            // must never grow the registry.
            if let Response::Rejected(err) = response {
                assert!(
                    format!("{err}").contains("already registered"),
                    "unexpected rejection: {err}"
                );
            }
        }
        _ => {
            // Warm the cache so epoch-stale entries exist when the next
            // mutation lands.
            let text = PROBES[a % PROBES.len()];
            let query = parse_query(&registry_catalog, text).unwrap();
            service.labeler().label_query(&query);
            // And exercise the read-only admission path.
            let _ = service.check(PrincipalId((b % NUM_PRINCIPALS) as u32), &query);
        }
    }
}

/// Expands one interleaving step into the operation stream the pipelined
/// harness replays — the stream twin of [`apply_step`].
fn step_to_ops(registry: &SecurityViews, kind: u8, a: usize, b: usize) -> Vec<Operation> {
    let catalog = registry.catalog();
    match kind {
        0 => vec![Operation::GrantView {
            principal: PrincipalId((a % (NUM_PRINCIPALS + 1)) as u32),
            view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
        }],
        1 => vec![Operation::RevokeView {
            principal: PrincipalId((a % (NUM_PRINCIPALS + 1)) as u32),
            view: GRANTABLE[b % GRANTABLE.len()].to_owned(),
        }],
        2 => {
            let (name, text) = CANDIDATE_VIEWS[a % CANDIDATE_VIEWS.len()];
            vec![Operation::AddSecurityView {
                name: name.to_owned(),
                query: parse_query(catalog, text).unwrap(),
            }]
        }
        _ => vec![
            Operation::Submit {
                principal: PrincipalId((b % NUM_PRINCIPALS) as u32),
                query: parse_query(catalog, PROBES[a % PROBES.len()]).unwrap(),
            },
            Operation::Check {
                principal: PrincipalId((b % NUM_PRINCIPALS) as u32),
                query: parse_query(catalog, PROBES[(a + 1) % PROBES.len()]).unwrap(),
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipelined_relabel_equals_the_batched_and_rebuilt_service(
        steps in proptest::collection::vec((0u8..4, 0usize..16, 0usize..16), 1..40)
    ) {
        // The batch-mode extension of the harness below: the same
        // interleavings, replayed as one operation stream through the
        // batch executor, must match op-by-op `apply` response for
        // response — and the pipelined service's refreshed cache must
        // still agree with a from-scratch rebuild of the final registry.
        let mut sequential = build_service();
        let mut pipelined = build_service();
        let registry = sequential.registry().clone();
        let ops: Vec<Operation> = steps
            .iter()
            .flat_map(|&(kind, a, b)| step_to_ops(&registry, kind, a, b))
            .collect();
        let sequential_responses: Vec<Response> =
            ops.iter().map(|op| sequential.apply(op)).collect();
        prop_assert_eq!(sequential_responses, pipelined.run_pipelined(&ops));
        prop_assert_eq!(sequential.totals(), pipelined.totals());
        for i in 0..NUM_PRINCIPALS {
            let p = PrincipalId(i as u32);
            prop_assert_eq!(
                sequential.store().consistency_bits(p),
                pipelined.store().consistency_bits(p)
            );
            prop_assert_eq!(sequential.store().stats(p), pipelined.store().stats(p));
        }
        let final_registry = pipelined.registry().clone();
        let fresh_bitvec = BitVectorLabeler::new(final_registry.clone());
        for text in PROBES {
            let query = probe(&final_registry, text);
            prop_assert_eq!(
                pipelined.labeler().label_query(&query),
                fresh_bitvec.label_query(&query),
                "pipelined cache disagrees with the rebuild on {}",
                text
            );
        }
    }

    #[test]
    fn incremental_relabel_equals_a_fresh_rebuild(
        steps in proptest::collection::vec((0u8..4, 0usize..16, 0usize..16), 1..40)
    ) {
        let mut service = build_service();
        for (kind, a, b) in steps {
            apply_step(&mut service, kind, a, b);
        }

        // 1. Labels: the churned, epoch-refreshed cache agrees with
        //    labelers built fresh from the final registry.
        let final_registry = service.registry().clone();
        let fresh_bitvec = BitVectorLabeler::new(final_registry.clone());
        let fresh_cached = CachedLabeler::new(final_registry.clone());
        for text in PROBES {
            let query = probe(&final_registry, text);
            let incremental = service.labeler().label_query(&query);
            prop_assert_eq!(
                &incremental,
                &fresh_bitvec.label_query(&query),
                "bitvec disagrees on {}",
                text
            );
            prop_assert_eq!(
                &incremental,
                &fresh_cached.label_query(&query),
                "cached disagrees on {}",
                text
            );
        }

        // 2. Decisions: a fresh service rebuilt from the final registry and
        //    final policies admits a shared submit sequence identically.
        let mut fresh = DisclosureService::with_defaults(final_registry.clone());
        for i in 0..NUM_PRINCIPALS {
            let p = PrincipalId(i as u32);
            fresh.register_principal(service.store().policy(p).clone());
        }
        for (i, text) in PROBES.iter().cycle().take(24).enumerate() {
            let p = PrincipalId((i % NUM_PRINCIPALS) as u32);
            let query = probe(&final_registry, text);
            let churned_decision = service.submit(p, &query).unwrap();
            let fresh_decision = fresh.submit(p, &query).unwrap();
            prop_assert_eq!(
                churned_decision, fresh_decision,
                "submit {} for principal {} disagrees on {}", i, p.0, text
            );
        }
        for i in 0..NUM_PRINCIPALS {
            let p = PrincipalId(i as u32);
            prop_assert_eq!(
                service.store().consistency_bits(p),
                fresh.store().consistency_bits(p)
            );
            prop_assert_eq!(service.store().stats(p), fresh.store().stats(p));
        }
    }
}

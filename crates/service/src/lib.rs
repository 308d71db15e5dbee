//! The dynamic disclosure-control service.
//!
//! The paper's app-ecosystem setting is inherently dynamic: users grant and
//! revoke permissions and administrators evolve the generating set `Fgen`
//! while queries keep arriving.  The earlier layers of this repository
//! solved the two static problems — high-throughput labeling (Figure 5,
//! `fdc-core`) and high-throughput enforcement (Figure 6, `fdc-policy`) —
//! but froze the world at construction time.  This crate adds the missing
//! piece: a long-running [`DisclosureService`] that absorbs policy and
//! view-universe churn **without recomputing the world**.
//!
//! The mechanism is per-relation **epoch versioning** threaded down the
//! stack:
//!
//! * the `SecurityViews` registry versions each relation's view universe;
//! * the `CachedLabeler`'s canonical-form caches tag every entry with the
//!   epochs it was computed under and lazily re-derive just the stale atoms
//!   (folding and dissection never re-run for a cached shape);
//! * the policy stores re-intern a principal's compiled policy on
//!   grant/revoke while preserving its consistency word and counters.
//!
//! The service multiplexes all of it behind one [`Operation`] stream:
//! [`apply`](DisclosureService::apply) serves one operation,
//! [`run_pipelined`](DisclosureService::run_pipelined) a batch, both on the
//! calling thread, and both answer exactly like op-by-op processing (a
//! batch judges its interned operands as of the moment it was logged).
//! The Figure 7
//! benchmark (`fig7_json`) measures the payoff: at realistic mutation:query
//! ratios, incremental relabeling sustains a large multiple of the
//! throughput of a flush-on-mutation baseline — which lives in the bench
//! harness (`fdc_bench::run_flushing_on_mutation` clears the label cache
//! after every mutation it serves), not in the service.
//!
//! What "exactly like op-by-op processing" means is written down once, as
//! code: [`ReferenceService`] is the paper's three steps over the boxed
//! reference algorithms, sharing nothing with the serving path, and every
//! executor, recovery and fault schedule is tested against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod compat;
pub mod durable;
pub mod health;
mod history;
pub mod ops;
pub mod reference;
pub mod service;

pub use durable::{RecoveryReport, WalOp};
pub use fdc_durability::DurabilityConfig;
pub use health::{DegradedMode, DurabilityHealth, ServiceMode};
pub use ops::{Operation, PolicyBound, Response, ServiceError};
pub use reference::ReferenceService;
pub use service::{DisclosureService, LabelerView, PendingCheckpoint, ServiceConfig, ServiceStats};

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{BitVectorLabeler, QueryLabeler, SecurityViews};
    use fdc_cq::intern::QueryId;
    use fdc_cq::parser::parse_query;
    use fdc_cq::ConjunctiveQuery;
    use fdc_policy::{AuditReport, Decision, PolicyPartition, PrincipalId, SecurityPolicy};

    // The service owns no thread, but a caller may move it, or a pending
    // checkpoint, to one of its own (to encode an image off its serving
    // thread, say).
    const _: () = {
        const fn send<T: Send>() {}
        send::<DisclosureService>();
        send::<PendingCheckpoint>();
    };

    fn wall(registry: &SecurityViews) -> SecurityPolicy {
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", registry, [v1]),
            PolicyPartition::from_views("contacts", registry, [v3]),
        ])
    }

    fn service(principals: usize) -> DisclosureService {
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::with_defaults(registry.clone());
        for _ in 0..principals {
            service.register_principal(wall(&registry));
        }
        service
    }

    fn q(service: &DisclosureService, text: &str) -> ConjunctiveQuery {
        parse_query(service.registry().catalog(), text).unwrap()
    }

    #[test]
    fn the_service_walks_the_chinese_wall() {
        let mut service = service(1);
        let p = PrincipalId(0);
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        let contacts = q(&service, "Q(x, y, z) :- Contacts(x, y, z)");
        assert_eq!(service.check(p, &meetings), Ok(Decision::Allow));
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        assert_eq!(service.check(p, &contacts), Ok(Decision::Deny));
        assert_eq!(service.submit(p, &contacts), Ok(Decision::Deny));
        assert_eq!(service.totals(), (1, 1));
        assert_eq!(service.stats().admissions, 4);
    }

    #[test]
    fn grants_and_revokes_take_effect_at_their_stream_position() {
        let mut service = service(1);
        let p = PrincipalId(0);
        let times = q(&service, "Q(x) :- Meetings(x, y)");
        let full = q(&service, "Q(x, y) :- Meetings(x, y)");

        // V1 permits both shapes; revoke it, grant only V2 (times).
        let ops = vec![
            Operation::Submit {
                principal: p,
                query: full.clone(),
            },
            Operation::RevokeView {
                principal: p,
                view: "V1".into(),
            },
            Operation::Submit {
                principal: p,
                query: full.clone(),
            },
            Operation::GrantView {
                principal: p,
                view: "V2".into(),
            },
            Operation::Submit {
                principal: p,
                query: times.clone(),
            },
            Operation::Submit {
                principal: p,
                query: full.clone(),
            },
        ];
        let responses = service.run_pipelined(&ops);
        let decisions: Vec<Option<Decision>> = responses.iter().map(Response::decision).collect();
        assert_eq!(
            decisions,
            vec![
                Some(Decision::Allow), // full rows via V1
                None,                  // revoke V1
                Some(Decision::Deny),  // full rows now refused
                None,                  // grant V2
                Some(Decision::Allow), // times via V2
                Some(Decision::Deny),  // full rows still refused
            ]
        );
        assert_eq!(responses[1], Response::PolicyUpdated);
        assert_eq!(service.stats().mutations, 2);
        // Policy mutations leave the label cache alone.
        assert!(service.labeler().stats().entries > 0);
    }

    #[test]
    fn add_security_view_changes_labels_online() {
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::with_defaults(registry.clone());
        // A principal whose only permission is the (not yet existing) V4.
        let p = service.register_principal(SecurityPolicy::new());
        let contacts_pair = q(&service, "Q(x, y) :- Contacts(x, y, z)");
        // Warm the cache: denied (empty policy) — and label it once.
        assert_eq!(service.submit(p, &contacts_pair), Ok(Decision::Deny));

        let v4 = parse_query(registry.catalog(), "V4(x, y) :- Contacts(x, y, z)").unwrap();
        let response = service.apply(&Operation::AddSecurityView {
            name: "V4".into(),
            query: v4,
        });
        let Response::ViewAdded(id) = response else {
            panic!("expected ViewAdded, got {response:?}");
        };
        // The incrementally relabeled query now includes V4's bit — exactly
        // as a labeler built fresh from the final registry computes it.
        let fresh = BitVectorLabeler::new(service.registry().clone());
        let incremental = {
            use fdc_core::QueryLabeler as _;
            service.labeler.label_query(&contacts_pair)
        };
        assert_eq!(incremental, fresh.label_query(&contacts_pair));
        assert!(incremental.atoms()[0]
            .views(service.registry())
            .contains(&id));
        assert!(service.labeler().stats().invalidations >= 1);
    }

    #[test]
    fn over_budget_view_additions_are_rejected_without_side_effects() {
        // Regression for the satellite bugfix: the 33rd view of one relation
        // would overflow the 32-bit packed mask, so the service must reject
        // it and leave caches, epochs and decisions untouched.
        let mut service = service(1);
        let p = PrincipalId(0);
        let meetings_rel = service.registry().catalog().resolve("Meetings").unwrap();
        let query_text = "Q(x) :- Meetings(x, y)";
        let probe = q(&service, query_text);
        service.submit(p, &probe).unwrap();

        // Fill the Meetings relation up to the 32-view budget (2 exist).
        for i in 0..30 {
            let view = q(&service, "V(x, y) :- Meetings(x, y)");
            let response = service.apply(&Operation::AddSecurityView {
                name: format!("fill{i}"),
                query: view,
            });
            assert!(!response.is_rejected(), "view {i} must fit: {response:?}");
        }
        let epoch_before = service.registry().epoch(meetings_rel);
        let stats_before = service.labeler().stats();
        let overflow = q(&service, "V(x, y) :- Meetings(x, y)");
        let response = service.apply(&Operation::AddSecurityView {
            name: "overflow".into(),
            query: overflow,
        });
        assert!(
            matches!(
                response,
                Response::Rejected(ServiceError::InvalidView(
                    fdc_core::LabelError::TooManyViewsForRelation { .. }
                ))
            ),
            "got {response:?}"
        );
        // No epoch bump, no invalidation, no registry growth.
        assert_eq!(service.registry().epoch(meetings_rel), epoch_before);
        assert_eq!(
            service.labeler().stats().invalidations,
            stats_before.invalidations
        );
        assert!(service.registry().by_name("overflow").is_none());
        // Every label mask still packs faithfully (bit < 32).
        let label = {
            use fdc_core::QueryLabeler as _;
            service.labeler.label_query(&probe)
        };
        assert!(label.atoms()[0].mask <= u64::from(u32::MAX));
    }

    #[test]
    fn unknown_principals_and_views_are_rejected() {
        let mut service = service(1);
        let ghost = PrincipalId(42);
        let query = q(&service, "Q(x) :- Meetings(x, y)");
        assert_eq!(
            service.submit(ghost, &query),
            Err(ServiceError::UnknownPrincipal(ghost))
        );
        assert_eq!(
            service.grant_view(PrincipalId(0), "nonsense"),
            Err(ServiceError::UnknownView("nonsense".into()))
        );
        // Batch path answers the rejection in position without panicking.
        let responses = service.run_pipelined(&[
            Operation::Submit {
                principal: ghost,
                query: query.clone(),
            },
            Operation::Submit {
                principal: PrincipalId(0),
                query,
            },
        ]);
        assert!(responses[0].is_rejected());
        assert_eq!(responses[1].decision(), Some(Decision::Allow));
    }

    #[test]
    fn audits_compare_requested_permissions_against_observed_workload() {
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::with_defaults(registry.clone());
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        // One partition requesting both sides.
        let p = service.register_principal(SecurityPolicy::stateless(PolicyPartition::from_views(
            "all",
            &registry,
            [v1, v3],
        )));
        // The observed workload only ever touches Meetings.
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        for _ in 0..3 {
            service.submit(p, &meetings).unwrap();
        }
        let report = service.audit_app(p).unwrap();
        assert!(report.is_overprivileged());
        assert!(report.unused.contains(&v3));
        assert!(report.used.contains(&v1));
        assert!(report.uncovered_queries.is_empty());
        assert_eq!(service.stats().audits, 1);

        // The AuditApp operation returns the same report.
        let response = service.apply(&Operation::AuditApp { principal: p });
        assert_eq!(response, Response::Audit(Box::new(report)));
    }

    #[test]
    fn auditing_requires_a_history() {
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::new(
            registry.clone(),
            ServiceConfig {
                history_cap: 0,
                ..ServiceConfig::default()
            },
        );
        let p = service.register_principal(wall(&registry));
        let query = q(&service, "Q(x) :- Meetings(x, y)");
        service.submit(p, &query).unwrap();
        assert_eq!(service.audit_app(p), Err(ServiceError::AuditingDisabled));
    }

    #[test]
    fn history_is_bounded_by_the_configured_cap() {
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::new(
            registry.clone(),
            ServiceConfig {
                history_cap: 2,
                ..ServiceConfig::default()
            },
        );
        let v3 = registry.id_by_name("V3").unwrap();
        let p = service.register_principal(SecurityPolicy::stateless(PolicyPartition::from_views(
            "contacts",
            &registry,
            [v3],
        )));
        let contacts = q(&service, "Q(x, y, z) :- Contacts(x, y, z)");
        // Five submissions, but only the last two are retained: an early
        // Meetings-shaped submission ages out of the audit window.
        let meetings = q(&service, "Q(x) :- Meetings(x, y)");
        service.submit(p, &meetings).unwrap();
        for _ in 0..4 {
            service.submit(p, &contacts).unwrap();
        }
        let report = service.audit_app(p).unwrap();
        // The aged-out Meetings query no longer shows up as uncovered.
        assert!(report.uncovered_queries.is_empty());
        assert!(report.is_tight());
    }

    #[test]
    fn audit_history_evicts_oldest_at_exactly_cap_and_cap_plus_one() {
        // Regression (satellite): the history cap must evict the *oldest*
        // entry — the newest submission always lands in the audited
        // workload, at exactly-cap and at cap + 1.
        let registry = SecurityViews::paper_example();
        let cap = 3;
        let mut service = DisclosureService::new(
            registry.clone(),
            ServiceConfig {
                history_cap: cap,
                ..ServiceConfig::default()
            },
        );
        let v3 = registry.id_by_name("V3").unwrap();
        // Policy only covers Contacts: Meetings submissions show up as
        // uncovered queries in the audit, making the window observable.
        let p = service.register_principal(SecurityPolicy::stateless(PolicyPartition::from_views(
            "contacts",
            &registry,
            [v3],
        )));
        let meetings = q(&service, "Q(x) :- Meetings(x, y)");
        let contacts = q(&service, "Q(x, y, z) :- Contacts(x, y, z)");
        // Exactly cap submissions: all retained, the Meetings one included.
        service.submit(p, &meetings).unwrap();
        service.submit(p, &contacts).unwrap();
        service.submit(p, &contacts).unwrap();
        let at_cap = service.audit_app(p).unwrap();
        assert_eq!(
            at_cap.uncovered_queries,
            vec![0],
            "the cap window holds all 3 submissions, oldest first"
        );
        // One more (cap + 1): the oldest (Meetings) ages out, the newest
        // (a second Meetings shape) must NOT be dropped — it appears at the
        // *end* of the audited workload.
        let newest = q(&service, "Q(x, y) :- Meetings(x, y)");
        service.submit(p, &newest).unwrap();
        let over_cap = service.audit_app(p).unwrap();
        assert_eq!(
            over_cap.uncovered_queries,
            vec![cap - 1],
            "oldest evicted, newest retained at the window's tail"
        );
    }

    #[test]
    fn over_budget_submits_are_audited_without_growing_the_arena() {
        use fdc_core::CachedLabeler;
        use fdc_policy::{audit_app, requested_views};
        // An intern budget of two ids beyond the views: the first two shapes
        // get ids, every never-seen shape after them must be served — and
        // recorded — without one, while known shapes keep resolving.
        let texts = [
            "Q(y) :- Meetings(x, y)",
            "Q(z) :- Contacts(x, y, z)",
            "Q(x, z) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(a, c) :- Contacts(a, b, c)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(b) :- Meetings(a, b)",
        ];
        let registry = SecurityViews::paper_example();
        let reference = BitVectorLabeler::new(registry.clone());
        type Executor = fn(&mut DisclosureService, &[Operation]) -> Vec<Response>;
        let executors: [(&str, Executor); 2] = [
            ("apply", |s, ops| ops.iter().map(|op| s.apply(op)).collect()),
            ("run_pipelined", |s, ops| s.run_pipelined(ops)),
        ];
        for (what, execute) in executors {
            let config = ServiceConfig::default();
            let mut service = DisclosureService::with_labeler(
                CachedLabeler::with_intern_budget(registry.clone(), 2),
                config,
            );
            let v2 = registry.id_by_name("V2").unwrap();
            let times = PolicyPartition::from_views("times", &registry, [v2]);
            let p = service.register_principal(SecurityPolicy::stateless(times));
            let workload: Vec<ConjunctiveQuery> =
                texts.iter().map(|text| q(&service, text)).collect();
            let submit = |query: &ConjunctiveQuery| Operation::Submit {
                principal: p,
                query: query.clone(),
            };
            let ops: Vec<Operation> = workload.iter().map(submit).collect();
            let arena_len = |s: &DisclosureService| s.interner().len();
            execute(&mut service, &ops[..2]);
            let spent = arena_len(&service);
            let responses = execute(&mut service, &ops[2..]);
            assert!(responses.iter().all(|r| r.decision().is_some()));
            assert_eq!(arena_len(&service), spent, "{what}: the arena grew");
            let has_id = [true, true, false, false, false, false, true, true];
            for (i, query) in workload.iter().enumerate() {
                let id = service.interner().lookup(query);
                assert_eq!(id.is_some(), has_id[i], "{what}: {}", texts[i]);
            }
            let expected = audit_app(
                &reference,
                requested_views(service.store().policy(p), &registry),
                &workload,
            );
            assert!(!expected.uncovered_queries.is_empty());
            assert_eq!(service.audit_app(p).unwrap(), expected, "{what}");
            // The boxed entries travel through the checkpoint image.
            let image = service.freeze(0, true).encode();
            let mut recovered = DisclosureService::decode_state(&image, config).unwrap();
            let restored = arena_len(&recovered);
            assert_eq!(
                recovered.audit_app(p).unwrap(),
                expected,
                "{what}, recovered"
            );
            // An audit relabels the boxed entries without minting: an id
            // it minted would have no record for a later reopen to replay.
            assert_eq!(arena_len(&recovered), restored, "{what}: the audit minted");
        }
    }

    #[test]
    fn checkpoint_images_reject_corrupt_history_entries() {
        use fdc_durability::codec::CodecError;
        let mut service = service(2);
        let meetings = q(&service, "Q(x) :- Meetings(x, y)");
        service.submit(PrincipalId(0), &meetings).unwrap();
        service.submit(PrincipalId(1), &meetings).unwrap();
        let config = service.config();
        let image = service.freeze(0, true).encode();
        assert!(DisclosureService::decode_state(&image, config).is_ok());
        // The image ends with principal 1's ring: an entry count, then one
        // entry — the id tag and a four-byte query id.
        let entry = image.len() - 5;
        let decode = |patch: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = image.clone();
            patch(&mut bytes);
            DisclosureService::decode_state(&bytes, config).map(|_| ())
        };
        let arena_len = service.interner().len() as u32;
        // An id one past the decoded interner, and a wild one.
        for id in [arena_len, u32::MAX] {
            let err = decode(&|b| b[entry + 1..].copy_from_slice(&id.to_le_bytes())).unwrap_err();
            assert!(
                matches!(&err, CodecError::Invalid { offset, what }
                    if *offset == entry && what.contains("history query id")),
                "{err}"
            );
        }
        // The last id the interner does hold still decodes.
        assert!(
            decode(&|b| b[entry + 1..].copy_from_slice(&(arena_len - 1).to_le_bytes())).is_ok()
        );
        let err = decode(&|b| b[entry] = 7).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { offset, what }
                if *offset == entry && what.contains("unknown history entry tag 7")),
            "{err}"
        );
        // A hostile entry count is refused before anything is allocated.
        let count = entry - 8;
        let err = decode(&|b| b[count..entry].copy_from_slice(&u64::MAX.to_le_bytes()));
        assert!(matches!(err, Err(CodecError::Invalid { offset, .. }) if offset == count));
        // Truncation anywhere in the history section, and trailing bytes.
        for cut in count - 8..image.len() {
            assert!(
                DisclosureService::decode_state(&image[..cut], config).is_err(),
                "cut {cut}"
            );
        }
        assert!(decode(&|b| b.push(0)).is_err());
    }

    /// Hostile checkpoint payloads never panic the decoder: a seeded sample
    /// of single-bit flips, bytes set to 0, 1, 0x7f, 0x80 or 0xff,
    /// truncations and 2- to 8-byte overwrites of an image with every
    /// section filled (views, interner, history, policies) decodes to an
    /// error naming an offset inside the payload, or to a service.
    #[test]
    fn mutated_checkpoint_images_never_panic_the_decoder() {
        use fdc_durability::codec::CodecError;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut service = service(2);
        let config = service.config();
        service
            .add_security_view("Vc", q(&service, "Vc(x) :- Meetings(x, 'Cathy')"))
            .unwrap();
        for text in [
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(x, x)",
        ] {
            let query = q(&service, text);
            service.submit(PrincipalId(0), &query).unwrap();
            service.submit(PrincipalId(1), &query).unwrap();
        }
        service.grant_view(PrincipalId(1), "Vc").unwrap();
        let image = service.freeze(0, true).encode();
        assert!(DisclosureService::decode_state(&image, config).is_ok());

        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for round in 0..12_000 {
            let mut bytes = image.clone();
            match round % 4 {
                0 => bytes[next(image.len())] ^= 1 << next(8),
                1 => bytes[next(image.len())] = [0, 1, 0x7f, 0x80, 0xff][next(5)],
                2 => bytes.truncate(next(image.len())),
                _ => {
                    for _ in 0..2 + next(7) {
                        bytes[next(image.len())] = next(256) as u8;
                    }
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                DisclosureService::decode_state(&bytes, config).map(drop)
            }));
            match outcome {
                Err(_) => panic!("round {round} panicked on {bytes:02x?}"),
                Ok(Err(
                    CodecError::UnexpectedEof { offset } | CodecError::Invalid { offset, .. },
                )) => {
                    assert!(offset <= bytes.len(), "round {round}: offset {offset}")
                }
                Ok(Ok(())) => {}
            }
        }
    }

    /// A unique scratch directory for durable-service tests.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdc_service_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A test config with fsync off (scratch dirs need no crash safety).
    fn durable_config() -> ServiceConfig {
        ServiceConfig {
            durability: DurabilityConfig {
                fsync: false,
                ..DurabilityConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn a_durable_service_recovers_its_state_by_replay() {
        let dir = temp_dir("replay");
        let registry = SecurityViews::paper_example();
        let (mut service, report) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        assert!(service.is_durable());
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.last_seq, 0);
        let p = service.register_principal(wall(&registry));
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        let contacts = q(&service, "Q(x, y, z) :- Contacts(x, y, z)");
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        assert_eq!(service.submit(p, &contacts), Ok(Decision::Deny));
        service.grant_view(p, "V2").unwrap();
        service.close().unwrap();

        let (mut recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        // register + 2 submits + grant.
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.records_replayed, 4);
        assert_eq!(report.last_seq, 4);
        assert_eq!(recovered.store().len(), 1);
        // The Chinese wall committed to `meetings`: contacts stay denied.
        assert_eq!(recovered.check(p, &contacts), Ok(Decision::Deny));
        assert_eq!(recovered.check(p, &meetings), Ok(Decision::Allow));
        // The audit history replayed too (both submits recorded).
        assert_eq!(recovered.audit_app(p).unwrap().used.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_restores_without_replay_and_prunes_the_log() {
        let dir = temp_dir("checkpoint");
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        let seq = service.checkpoint().unwrap();
        assert_eq!(seq, 2);
        // Post-checkpoint mutation: replayed on top of the image.
        service.grant_view(p, "V2").unwrap();
        service.close().unwrap();

        let (mut recovered, report) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        assert_eq!(report.checkpoint_seq, 2);
        assert_eq!(report.records_replayed, 1);
        let contacts = q(&recovered, "Q(x, y, z) :- Contacts(x, y, z)");
        assert_eq!(recovered.check(p, &meetings), Ok(Decision::Allow));
        assert_eq!(recovered.check(p, &contacts), Ok(Decision::Deny));
        assert_eq!(
            recovered.store().consistency_bits(p),
            service_bits(&dir, &registry, p)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A durable home that registered 13 principals and checkpointed after
    /// the 5th and the 13th: the log keeps only the records past the older
    /// checkpoint (seqs 6 to 13).
    fn two_checkpoint_home(tag: &str) -> (std::path::PathBuf, SecurityViews) {
        let dir = temp_dir(tag);
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        for count in [5, 8] {
            for _ in 0..count {
                service.register_principal(wall(&registry));
            }
            service.checkpoint().unwrap();
        }
        service.close().unwrap();
        (dir, registry)
    }

    /// Rewrites the version in checkpoint `seq`'s header and re-seals its
    /// checksum, so the version is all that refuses the file.
    fn patch_checkpoint_version(dir: &std::path::Path, seq: u64, version: u32) {
        let path = dir.join(fdc_durability::checkpoint::checkpoint_file_name(seq));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = fdc_durability::crc::crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn recovery_refuses_a_log_that_does_not_continue_its_image() {
        // Regression: with neither checkpoint loading, the 8 records the
        // log kept replayed onto the initial registry, and the open
        // returned 8 principals — the first 5 lost, every later id shifted.
        let (dir, registry) = two_checkpoint_home("gap");
        for seq in [5, 13] {
            patch_checkpoint_version(&dir, seq, 3);
        }
        let err = DisclosureService::open_durable(registry, durable_config(), &dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "the log resumes at seq 6, past the image at seq 0; skipped: \
             checkpoint 13: unsupported checkpoint version 3; \
             checkpoint 5: unsupported checkpoint version 3"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_falls_back_to_the_older_checkpoint_when_the_newest_is_damaged() {
        let (dir, registry) = two_checkpoint_home("fallback");
        // A payload byte flipped: the newest file fails its checksum.
        let newest = dir.join(fdc_durability::checkpoint::checkpoint_file_name(13));
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[30] ^= 0xff;
        std::fs::write(&newest, bytes).unwrap();
        let (recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!((report.checkpoint_seq, report.records_replayed), (5, 8));
        assert_eq!(recovered.num_principals(), 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_batch_refuses_an_id_minted_inside_it_and_recovers_what_it_acknowledged() {
        // Regression: a batch is logged before any of it runs, so an
        // interned submit of an id a plain submit earlier in the same batch
        // mints has no record.  It used to be admitted and committed all
        // the same — live, p1's wall closed on `meetings` — and recovery,
        // which never saw it, reopened the wall (bits 0x1 live, 0x3 after
        // a clean close and reopen).
        let registry = SecurityViews::paper_example();
        let dir = temp_dir("batch_minted");
        let (durable, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let in_memory = DisclosureService::new(registry.clone(), durable_config());
        for mut service in [durable, in_memory] {
            let p0 = service.register_principal(wall(&registry));
            let p1 = service.register_principal(wall(&registry));
            let diagonal = q(&service, "Q(x) :- Meetings(x, x)");
            let contacts = q(&service, "Q(x, y, z) :- Contacts(x, y, z)");
            let minted = QueryId(service.interner().len() as u32);
            let batch = [
                Operation::Submit {
                    principal: p0,
                    query: diagonal.clone(),
                },
                Operation::SubmitInterned {
                    principal: p1,
                    query: minted,
                },
            ];
            // Sequentially each op is a request of its own, and the second
            // finds the id the first minted.
            let mut sequential = DisclosureService::new(registry.clone(), durable_config());
            sequential.register_principal(wall(&registry));
            sequential.register_principal(wall(&registry));
            let answered: Vec<Response> = batch.iter().map(|op| sequential.apply(op)).collect();
            assert_eq!(answered[1], Response::Decision(Decision::Allow));
            assert_eq!(sequential.store().consistency_bits(p1), 0b01);
            // As one batch, the id is not known when the batch is logged.
            assert_eq!(
                service.run_pipelined(&batch),
                [
                    Response::Decision(Decision::Allow),
                    Response::Rejected(ServiceError::UnknownQuery(minted)),
                ]
            );
            assert_eq!(service.intern(&diagonal).unwrap(), minted);
            assert_eq!(service.store().consistency_bits(p1), 0b11);
            assert_eq!(service.check(p1, &contacts), Ok(Decision::Allow));
            if service.is_durable() {
                service.close().unwrap();
                let (recovered, report) =
                    DisclosureService::open_durable(registry.clone(), durable_config(), &dir)
                        .unwrap();
                assert_eq!(
                    report.records_replayed, 4,
                    "2 registrations, p0's submit and p1's boxed check"
                );
                assert_eq!(recovered.store().consistency_bits(p0), 0b01);
                assert_eq!(recovered.store().consistency_bits(p1), 0b11);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopens the durable home and reads one principal's consistency word
    /// (recovery is idempotent: opening twice yields the same state).
    fn service_bits(dir: &std::path::Path, registry: &SecurityViews, p: PrincipalId) -> u64 {
        let (service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), dir).unwrap();
        service.store().consistency_bits(p)
    }

    #[test]
    fn checkpoint_requires_a_durable_service() {
        let mut service = service(1);
        assert!(service.checkpoint().is_err());
        assert!(!service.is_durable());
        service.close().unwrap();
    }

    /// What one principal of `service` looks like from outside: its
    /// counters, consistency word and audit (taken on a copy, since an
    /// audit counts), and the service's counters.
    fn principal_print(
        service: &DisclosureService,
        p: PrincipalId,
    ) -> (
        (u64, u64),
        u64,
        ServiceStats,
        Result<AuditReport, ServiceError>,
    ) {
        let audit = service.clone().audit_app(p);
        let store = service.store();
        (
            store.stats(p),
            store.consistency_bits(p),
            service.stats(),
            audit,
        )
    }

    #[test]
    fn a_clone_serves_apart_from_its_original() {
        let mut original = service(1);
        let p = PrincipalId(0);
        let meetings = q(&original, "Q(x, y) :- Meetings(x, y)");
        let contacts = q(&original, "Q(x, y, z) :- Contacts(x, y, z)");
        let before = principal_print(&original, p);
        let mut clone = original.clone();
        assert_eq!(principal_print(&clone, p), before);
        // The clone commits to the meetings side and is granted V2...
        assert_eq!(clone.submit(p, &meetings), Ok(Decision::Allow));
        clone.grant_view(p, "V2").unwrap();
        assert_ne!(principal_print(&clone, p), before);
        assert_eq!(principal_print(&original, p), before);
        // ...while the original, untouched, commits to the other side.
        let cloned = principal_print(&clone, p);
        assert_eq!(original.submit(p, &contacts), Ok(Decision::Allow));
        original.grant_view(p, "V2").unwrap();
        assert_ne!(principal_print(&original, p), before);
        assert_eq!(principal_print(&clone, p), cloned);
        assert_eq!(original.check(p, &meetings), Ok(Decision::Deny));
        assert_eq!(clone.check(p, &meetings), Ok(Decision::Allow));
    }

    #[test]
    fn a_clone_of_a_durable_service_logs_nothing() {
        let dir = temp_dir("clone");
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        service.checkpoint().unwrap();
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        // Every file of the home and its bytes, by name.
        let home = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| {
                    let path = entry.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = home();
        let mut clone = service.clone();
        assert!(service.is_durable());
        assert!(!clone.is_durable());
        clone.register_principal(wall(&registry));
        assert_eq!(clone.submit(p, &meetings), Ok(Decision::Allow));
        clone.grant_view(p, "V2").unwrap();
        assert!(clone.checkpoint().is_err());
        clone.close().unwrap();
        assert_eq!(home(), before);
        service.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A two-partition policy whose second partition names relation `id`.
    fn wall_naming(registry: &SecurityViews, id: u32) -> SecurityPolicy {
        let v1 = registry.id_by_name("V1").unwrap();
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", registry, [v1]),
            PolicyPartition::from_masks("elsewhere", [(fdc_cq::RelId(id), 1)]),
        ])
    }

    /// One partition more than a consistency word has bits.
    fn too_wide(registry: &SecurityViews) -> SecurityPolicy {
        let v1 = registry.id_by_name("V1").unwrap();
        SecurityPolicy::chinese_wall(
            (0..=fdc_policy::MAX_PARTITIONS)
                .map(|i| PolicyPartition::from_views(format!("p{i}"), registry, [v1])),
        )
    }

    #[test]
    fn a_policy_with_too_many_partitions_is_refused_before_it_is_logged() {
        let dir = temp_dir("wide_policy_live");
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        let refusal =
            ServiceError::InvalidPolicy(PolicyBound::Partitions(fdc_policy::MAX_PARTITIONS));
        assert_eq!(
            service.try_register_principal(too_wide(&registry)),
            Err(refusal.clone())
        );
        assert_eq!(
            service.replace_policy(p, too_wide(&registry)),
            Err(refusal.clone())
        );
        assert!(refusal.to_string().contains("64 partitions"), "{refusal}");
        service.close().unwrap();
        // Only the registration was logged.
        let (recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.store().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_policy_outside_the_catalog_is_refused_before_it_is_logged() {
        let dir = temp_dir("hostile_policy_live");
        let registry = SecurityViews::paper_example();
        let relations = registry.catalog().len();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        // One past the catalog, and the id that used to size a 32 GiB table.
        for id in [relations as u32, 0x7FFF_FFFF] {
            let hostile = wall_naming(&registry, id);
            assert_eq!(
                service.try_register_principal(hostile.clone()),
                Err(ServiceError::InvalidPolicy(PolicyBound::Relations(
                    relations
                )))
            );
            assert_eq!(
                service.replace_policy(p, hostile),
                Err(ServiceError::InvalidPolicy(PolicyBound::Relations(
                    relations
                )))
            );
        }
        // The last relation of the catalog is inside it.
        let inside = wall_naming(&registry, relations as u32 - 1);
        assert_eq!(service.replace_policy(p, inside), Ok(()));
        assert_eq!(service.store().len(), 1);
        service.close().unwrap();
        // Only the registration and the accepted replacement were logged.
        let (recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!(report.records_replayed, 2);
        assert_eq!(recovered.store().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_skips_a_logged_policy_outside_the_catalog() {
        let registry = SecurityViews::paper_example();
        assert_replay_skips(
            "hostile_policy_replay",
            &wall_naming(&registry, 0x7FFF_FFFF),
        );
    }

    #[test]
    fn replay_skips_a_logged_policy_with_too_many_partitions() {
        // Regression: this record used to panic recovery on every open.
        let registry = SecurityViews::paper_example();
        assert_replay_skips("wide_policy_replay", &too_wide(&registry));
    }

    /// No live service writes a record carrying `hostile`; a hand-damaged
    /// log may hold one — CRC-valid, so the reader accepts it — and recovery
    /// must neither die on it nor apply it.
    fn assert_replay_skips(tag: &str, hostile: &SecurityPolicy) {
        let dir = temp_dir(tag);
        let registry = SecurityViews::paper_example();
        let mut log =
            fdc_durability::WalWriter::create(&dir, durable_config().durability, 1).unwrap();
        let mut payload = Vec::new();
        for record in 0..3 {
            payload.clear();
            match record {
                0 => durable::encode_register(hostile, &mut payload),
                1 => durable::encode_register(&wall(&registry), &mut payload),
                _ => durable::encode_replace_policy(PrincipalId(0), hostile, &mut payload),
            }
            log.append(&payload).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        let (mut recovered, report) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(recovered.store().len(), 1);
        assert_eq!(recovered.store().policy(PrincipalId(0)), &wall(&registry));
        let meetings = q(&recovered, "Q(x, y) :- Meetings(x, y)");
        assert_eq!(
            recovered.submit(PrincipalId(0), &meetings),
            Ok(Decision::Allow)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_images_reject_a_policy_outside_the_catalog() {
        use fdc_durability::codec::CodecError;
        let registry = SecurityViews::paper_example();
        let mut service = DisclosureService::with_defaults(registry.clone());
        let v3 = registry.id_by_name("V3").unwrap();
        service.register_principal(SecurityPolicy::stateless(PolicyPartition::from_views(
            "the-only-contacts-partition",
            &registry,
            [v3],
        )));
        let config = service.config();
        let mut image = service.freeze(0, true).encode();
        assert!(DisclosureService::decode_state(&image, config).is_ok());
        // The partition's name, its mask count, then its one relation id.
        let name = b"the-only-contacts-partition";
        let name_at = image.windows(name.len()).position(|w| w == name).unwrap();
        let relation_at = name_at + name.len() + 8;
        let contacts = registry.catalog().resolve("Contacts").unwrap();
        assert_eq!(
            image[relation_at..relation_at + 4],
            contacts.0.to_le_bytes()
        );
        // Regression: this patch used to abort recovery on a 32 GiB
        // allocation (the compiled table is sized by the relation id).
        image[relation_at..relation_at + 4].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        let err = DisclosureService::decode_state(&image, config)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { offset, what }
                if *offset < name_at && what.contains("outside the catalog")),
            "{err}"
        );
    }

    #[test]
    fn a_replacement_with_another_partition_count_is_refused_before_it_is_logged() {
        // Regression: this call passed validation, skipped logging and died
        // in the store's `assert_eq!`.
        let registry = SecurityViews::paper_example();
        let v2 = registry.id_by_name("V2").unwrap();
        let narrower =
            SecurityPolicy::stateless(PolicyPartition::from_views("times", &registry, [v2]));
        let refusal = ServiceError::InvalidPolicy(PolicyBound::PartitionCount(2));
        assert!(refusal.to_string().contains("2 partitions"), "{refusal}");
        let p = PrincipalId(0);

        let mut in_memory = service(1);
        assert_eq!(
            in_memory.replace_policy(p, narrower.clone()),
            Err(refusal.clone())
        );
        assert_eq!(in_memory.store().policy(p), &wall(&registry));
        assert_eq!(in_memory.stats().mutations, 0);

        let mut model = ReferenceService::new(registry.clone(), 8);
        model.register_principal(wall(&registry)).unwrap();
        assert_eq!(
            model.replace_policy(p, narrower.clone()),
            Err(refusal.clone())
        );
        assert_eq!(model.monitor(p).policy(), &wall(&registry));

        let dir = temp_dir("replace_partition_count");
        let (mut durable, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        durable.register_principal(wall(&registry));
        assert_eq!(durable.replace_policy(p, narrower), Err(refusal));
        // Still serving, and only what was acknowledged reached the log.
        let meetings = q(&durable, "Q(x, y) :- Meetings(x, y)");
        assert_eq!(durable.submit(p, &meetings), Ok(Decision::Allow));
        durable.close().unwrap();
        let (recovered, report) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        assert_eq!(
            report.records_replayed, 2,
            "the registration and the submit"
        );
        assert_eq!(recovered.store().policy(p), &wall(&registry));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replace_policy_swaps_partitions_and_survives_recovery() {
        let dir = temp_dir("replace_policy");
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        let meetings = q(&service, "Q(x, y) :- Meetings(x, y)");
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        // Same partition count, but the meetings partition now only holds
        // V2 (attendance): the plain meetings view is no longer answerable.
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        service
            .replace_policy(
                p,
                SecurityPolicy::chinese_wall([
                    PolicyPartition::from_views("meetings", &registry, [v2]),
                    PolicyPartition::from_views("contacts", &registry, [v3]),
                ]),
            )
            .unwrap();
        assert_eq!(service.check(p, &meetings), Ok(Decision::Deny));
        service.close().unwrap();
        let (mut recovered, _) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!(recovered.check(p, &meetings), Ok(Decision::Deny));
        assert_eq!(
            recovered.replace_policy(PrincipalId(7), wall(&recovered.registry().clone())),
            Err(ServiceError::UnknownPrincipal(PrincipalId(7)))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Mints two ids with `intern` (each logged as a `Define`), submits the second, checks
    /// the first — a Chinese wall committed to `meetings` denies it — and
    /// reopens, from a checkpoint or from the log alone.  Returns what the
    /// recovered service answers for the first id.
    fn check_after_unlogged_mints(tag: &str, checkpoint: bool) -> Result<Decision, ServiceError> {
        let dir = temp_dir(tag);
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        let contacts = q(&service, "Q(x, y) :- Contacts(x, y, 'Intern')");
        let meetings = q(&service, "Q(x) :- Meetings(x, 'Cathy')");
        let ids = (
            service.intern(&contacts).unwrap(),
            service.intern(&meetings).unwrap(),
        );
        assert_eq!(ids, (QueryId(3), QueryId(4)));
        assert_eq!(service.submit_interned(p, ids.1), Ok(Decision::Allow));
        assert_eq!(service.check_interned(p, ids.0), Ok(Decision::Deny));
        if checkpoint {
            service.checkpoint().unwrap();
        }
        service.close().unwrap();
        let (mut recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!(report.records_replayed, if checkpoint { 0 } else { 4 });
        assert_eq!(recovered.check(p, &contacts), Ok(Decision::Deny));
        let answer = recovered.check_interned(p, ids.0);
        std::fs::remove_dir_all(&dir).unwrap();
        answer
    }

    #[test]
    fn ids_minted_without_a_record_survive_a_checkpointed_reopen() {
        let answer = check_after_unlogged_mints("unlogged_mints_checkpointed", true);
        assert_eq!(answer, Ok(Decision::Deny));
    }

    #[test]
    fn ids_minted_without_a_record_survive_a_log_only_reopen() {
        // Replay re-interns only the submitted shape, so it takes the first
        // id: the id the live service denied now names `meetings`.
        let answer = check_after_unlogged_mints("unlogged_mints_log_only", false);
        assert_eq!(answer, Ok(Decision::Deny));
    }

    #[test]
    fn a_define_naming_another_id_fails_the_open() {
        let registry = SecurityViews::paper_example();
        let cathy = parse_query(registry.catalog(), "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let v1 = registry.by_name("V1").unwrap().query.clone();
        // The paper registry's views hold ids 0 to 2, so a new shape's
        // first id is 3, and V1's query already has id 0.
        for (query, named, opens) in [
            (&cathy, 3, true),
            (&cathy, 4, false),
            (&cathy, 0, false),
            (&v1, 3, false),
        ] {
            let dir = temp_dir(&format!("define_{named}_{opens}"));
            let mut log =
                fdc_durability::WalWriter::create(&dir, durable_config().durability, 1).unwrap();
            let mut payload = Vec::new();
            durable::encode_define(QueryId(named), query, &mut payload);
            log.append(&payload).unwrap();
            log.commit().unwrap();
            drop(log);
            match DisclosureService::open_durable(registry.clone(), durable_config(), &dir) {
                Ok((service, _)) => {
                    assert!(opens, "a Define of {query:?} as id {named} opened");
                    assert_eq!(service.interner().lookup(query), Some(QueryId(named)));
                }
                Err(err) => {
                    assert!(!opens, "{err}");
                    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_check_of_a_new_shape_keeps_later_ids_across_a_log_only_reopen() {
        // A check's first sight mints: unlogged, replay handed the next
        // shape its id, and the client's id answered `UnknownQuery`.
        let dir = temp_dir("check_mints");
        let registry = SecurityViews::paper_example();
        let (mut service, _) =
            DisclosureService::open_durable(registry.clone(), durable_config(), &dir).unwrap();
        let p = service.register_principal(wall(&registry));
        let contacts = q(&service, "Q(x, y) :- Contacts(x, y, 'Intern')");
        let meetings = q(&service, "Q(x) :- Meetings(x, 'Cathy')");
        assert_eq!(service.check(p, &contacts), Ok(Decision::Allow));
        assert_eq!(service.submit(p, &meetings), Ok(Decision::Allow));
        let id = service.intern(&meetings).unwrap();
        assert_eq!(id, QueryId(4));
        service.close().unwrap();
        let (mut recovered, report) =
            DisclosureService::open_durable(registry, durable_config(), &dir).unwrap();
        assert_eq!(report.records_replayed, 3, "register, check, submit");
        assert_eq!(recovered.check_interned(p, id), Ok(Decision::Allow));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Property test: the service's audit — which keeps each principal's
//! observed workload as a ring of interned query ids and labels it by id —
//! reports exactly what `fdc_policy::audit_app` reports over **the boxed
//! queries as they were submitted**.
//!
//! Seeded streams mix plain `Submit`s, `SubmitInterned`s and alpha-renamed
//! resubmissions of the same shapes (which share an id but arrive as
//! different boxed queries), checks, grants and revokes, online view
//! additions, invalid operations and `AuditApp`s.  Every stream opens by
//! filling one principal's ring to exactly `history_cap` and then to
//! `cap + 1`, auditing at both points.
//!
//! The model is independent of the service: it keeps the boxed queries per
//! principal in a plain capped deque, tracks policies in a policy store of
//! its own and the registry by hand, and audits through a fresh
//! [`BitVectorLabeler`].  Each `Response::Audit` must equal the model's
//! report — `uncovered_queries` indices included — under `apply` and
//! `run_pipelined` at `workers` 1 and 4; the final audit of
//! every principal must also survive `checkpoint` → `close` →
//! `open_durable`, and a WAL-only replay.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;

use fdc::core::{BitVectorLabeler, SecurityViews};
use fdc::cq::intern::QueryId;
use fdc::cq::parser::parse_query;
use fdc::cq::{Catalog, ConjunctiveQuery};
use fdc::policy::{
    audit_app, requested_views, AuditReport, PolicyPartition, PrincipalId, SecurityPolicy,
    ShardedPolicyStore,
};
use fdc::service::{DisclosureService, Operation, Response, ServiceConfig};

const NUM_PRINCIPALS: usize = 4;
const HISTORY_CAP: usize = 5;
const STREAM_LEN: usize = 260;
const SEEDS: u64 = 6;

/// Query shapes, each with an alpha-renamed variant: both intern to one id.
const SHAPES: [[&str; 2]; 7] = [
    ["Q(x) :- Meetings(x, y)", "Q(t) :- Meetings(t, who)"],
    ["Q(x, y) :- Meetings(x, y)", "Q(a, b) :- Meetings(a, b)"],
    ["Q(y) :- Meetings(x, y)", "Q(p) :- Meetings(q, p)"],
    [
        "Q(x) :- Meetings(x, 'Cathy')",
        "Q(when) :- Meetings(when, 'Cathy')",
    ],
    [
        "Q(x, y, z) :- Contacts(x, y, z)",
        "Q(a, b, c) :- Contacts(a, b, c)",
    ],
    ["Q(z) :- Contacts(x, y, z)", "Q(r) :- Contacts(n, m, r)"],
    [
        "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        "Q2(t) :- Meetings(t, p), Contacts(p, e, 'Intern')",
    ],
];

/// Views a stream may add online (a second addition of a name is rejected).
const ADDABLE: [(&str, &str); 3] = [
    ("A0", "A0(x) :- Meetings(x, y)"),
    ("A1", "A1(z) :- Contacts(x, y, z)"),
    ("A2", "A2(x, y) :- Contacts(x, y, z)"),
];

const GRANTABLE: [&str; 7] = ["V1", "V2", "V3", "A0", "A1", "A2", "ghost"];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn policies(registry: &SecurityViews) -> Vec<SecurityPolicy> {
    let v1 = registry.id_by_name("V1").unwrap();
    let v2 = registry.id_by_name("V2").unwrap();
    let v3 = registry.id_by_name("V3").unwrap();
    (0..NUM_PRINCIPALS)
        .map(|i| {
            if i % 2 == 0 {
                SecurityPolicy::chinese_wall([
                    PolicyPartition::from_views("meetings", registry, [v1, v2]),
                    PolicyPartition::from_views("contacts", registry, [v3]),
                ])
            } else {
                SecurityPolicy::stateless(PolicyPartition::from_views("times", registry, [v2]))
            }
        })
        .collect()
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        num_shards: 2,
        workers,
        history_cap: HISTORY_CAP,
        // Hand even short admission runs to the pool when there is one.
        ..ServiceConfig::default()
    }
}

/// The shapes' interned ids, in `SHAPES` order.  Every service interns the
/// pool first thing, so the ids agree across services and restarts.
fn intern_pool(service: &DisclosureService, catalog: &Catalog) -> Vec<QueryId> {
    SHAPES
        .iter()
        .map(|shape| service.intern(&parse_query(catalog, shape[0]).unwrap()))
        .collect()
}

fn build_service(registry: &SecurityViews, workers: usize) -> DisclosureService {
    let mut service = DisclosureService::new(registry.clone(), config(workers));
    for policy in policies(registry) {
        service.register_principal(policy);
    }
    service
}

/// One stream operation together with the boxed query it submits, if it
/// is a submit (for a `SubmitInterned`, the query the caller interned).
struct Step {
    op: Operation,
    submitted: Option<ConjunctiveQuery>,
}

fn stream(catalog: &Catalog, ids: &[QueryId], seed: u64) -> Vec<Step> {
    let mut rng = Rng(seed);
    let shape = |s: usize, variant: usize| parse_query(catalog, SHAPES[s][variant]).unwrap();
    let submit = |p: usize, query: ConjunctiveQuery| Step {
        op: Operation::Submit {
            principal: PrincipalId(p as u32),
            query: query.clone(),
        },
        submitted: Some(query),
    };
    let plain = |op: Operation| Step {
        op,
        submitted: None,
    };
    let audit = |p: usize| {
        plain(Operation::AuditApp {
            principal: PrincipalId(p as u32),
        })
    };
    // Exactly `cap` submissions, an audit, the `cap + 1`th, another audit:
    // the first entry (the only uncoverable one for principal 1, which
    // holds V2 alone) must age out between the two.
    let mut steps = vec![submit(1, shape(4, 0))];
    for i in 1..HISTORY_CAP {
        steps.push(submit(1, shape(0, i % 2)));
    }
    steps.push(audit(1));
    steps.push(submit(1, shape(0, 1)));
    steps.push(audit(1));
    while steps.len() < STREAM_LEN {
        let p = rng.below(NUM_PRINCIPALS);
        let principal = PrincipalId(p as u32);
        let s = rng.below(SHAPES.len());
        steps.push(match rng.below(20) {
            0..=6 => submit(p, shape(s, rng.below(2))),
            7..=10 => Step {
                op: Operation::SubmitInterned {
                    principal,
                    query: ids[s],
                },
                submitted: Some(shape(s, 0)),
            },
            11 => plain(Operation::Check {
                principal,
                query: shape(s, rng.below(2)),
            }),
            12 => plain(Operation::CheckInterned {
                principal,
                query: ids[s],
            }),
            13 => plain(Operation::GrantView {
                principal,
                view: GRANTABLE[rng.below(GRANTABLE.len())].to_owned(),
            }),
            14 => plain(Operation::RevokeView {
                principal,
                view: GRANTABLE[rng.below(GRANTABLE.len())].to_owned(),
            }),
            15 => {
                let (name, text) = ADDABLE[rng.below(ADDABLE.len())];
                plain(Operation::AddSecurityView {
                    name: name.to_owned(),
                    query: parse_query(catalog, text).unwrap(),
                })
            }
            // Rejected admissions never reach the history.
            16 => Step {
                op: Operation::Submit {
                    principal: PrincipalId(99),
                    query: shape(s, 0),
                },
                submitted: None,
            },
            17 => plain(Operation::SubmitInterned {
                principal,
                query: QueryId(u32::MAX),
            }),
            _ => audit(p),
        });
    }
    steps
}

/// The paper's audit, run the slow way: boxed queries in a capped deque,
/// policies and registry tracked by hand, a fresh labeler per audit.
struct Model {
    registry: SecurityViews,
    policies: ShardedPolicyStore,
    history: Vec<VecDeque<ConjunctiveQuery>>,
}

impl Model {
    fn new(registry: &SecurityViews) -> Self {
        let mut store = ShardedPolicyStore::new(1);
        for policy in policies(registry) {
            store.register(policy);
        }
        Model {
            registry: registry.clone(),
            policies: store,
            history: vec![VecDeque::new(); NUM_PRINCIPALS],
        }
    }

    fn audit(&self, principal: PrincipalId) -> AuditReport {
        let workload: Vec<ConjunctiveQuery> =
            self.history[principal.index()].iter().cloned().collect();
        audit_app(
            &BitVectorLabeler::new(self.registry.clone()),
            requested_views(self.policies.policy(principal), &self.registry),
            &workload,
        )
    }

    /// Applies one step; an `AuditApp` of a known principal returns the
    /// report the service must answer with.
    fn step(&mut self, step: &Step) -> Option<AuditReport> {
        match &step.op {
            Operation::Submit { principal, .. } | Operation::SubmitInterned { principal, .. } => {
                if let Some(query) = &step.submitted {
                    let ring = &mut self.history[principal.index()];
                    if ring.len() == HISTORY_CAP {
                        ring.pop_front();
                    }
                    ring.push_back(query.clone());
                }
            }
            Operation::GrantView { principal, view } => {
                if let Some(id) = self.registry.id_by_name(view) {
                    self.policies.grant_view(*principal, &self.registry, id);
                }
            }
            Operation::RevokeView { principal, view } => {
                if let Some(id) = self.registry.id_by_name(view) {
                    self.policies.revoke_view(*principal, &self.registry, id);
                }
            }
            Operation::AddSecurityView { name, query } => {
                let _ = self.registry.add(name, query.clone());
            }
            Operation::AuditApp { principal } => return Some(self.audit(*principal)),
            Operation::Check { .. } | Operation::CheckInterned { .. } => {}
        }
        None
    }
}

/// Runs the model over the stream: the expected report at every `AuditApp`
/// position, and the model as the stream leaves it.
fn expected(registry: &SecurityViews, steps: &[Step]) -> (Vec<Option<AuditReport>>, Model) {
    let mut model = Model::new(registry);
    let reports = steps.iter().map(|step| model.step(step)).collect();
    (reports, model)
}

fn assert_audits(
    what: &str,
    seed: u64,
    responses: &[Response],
    expected: &[Option<AuditReport>],
) -> usize {
    assert_eq!(responses.len(), expected.len());
    let mut audits = 0;
    for (i, (response, report)) in responses.iter().zip(expected).enumerate() {
        if let Some(report) = report {
            assert_eq!(
                response,
                &Response::Audit(report.clone()),
                "{what}, seed {seed}, op {i}"
            );
            audits += 1;
        }
    }
    audits
}

fn assert_final_audits(what: &str, seed: u64, service: &mut DisclosureService, model: &Model) {
    for p in 0..NUM_PRINCIPALS {
        let principal = PrincipalId(p as u32);
        assert_eq!(
            service.audit_app(principal).unwrap(),
            model.audit(principal),
            "{what}, seed {seed}, principal {p}"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdc_audit_eq_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn id_ring_audits_equal_the_boxed_audit_under_every_executor() {
    let registry = SecurityViews::paper_example();
    let catalog = registry.catalog().clone();
    for seed in 0..SEEDS {
        let mut sequential = build_service(&registry, 1);
        let ids = intern_pool(&sequential, &catalog);
        let steps = stream(&catalog, &ids, 0xA0D1 + seed);
        let ops: Vec<Operation> = steps.iter().map(|step| step.op.clone()).collect();
        let (reports, model) = expected(&registry, &steps);
        // The opening block: at exactly `cap` the oldest (uncoverable)
        // entry is still audited, at `cap + 1` it has aged out.
        let uncovered = |at: usize| reports[at].as_ref().unwrap().uncovered_queries.clone();
        assert_eq!(uncovered(HISTORY_CAP), vec![0]);
        assert_eq!(uncovered(HISTORY_CAP + 2), Vec::<usize>::new());

        let responses: Vec<Response> = ops.iter().map(|op| sequential.apply(op)).collect();
        let audits = assert_audits("apply", seed, &responses, &reports);
        assert!(audits >= 10, "the stream must carry audits, got {audits}");
        assert_final_audits("apply", seed, &mut sequential, &model);

        for workers in [1, 4] {
            let mut pipelined = build_service(&registry, workers);
            assert_eq!(intern_pool(&pipelined, &catalog), ids);
            // Several calls, so rings carry over between batches.
            let responses: Vec<Response> = ops
                .chunks(64)
                .flat_map(|chunk| pipelined.run_pipelined(chunk))
                .collect();
            assert_audits(
                &format!("run_pipelined x{workers}"),
                seed,
                &responses,
                &reports,
            );
            assert_final_audits("run_pipelined", seed, &mut pipelined, &model);
        }
    }
}

#[test]
fn id_ring_audits_survive_checkpointed_and_wal_only_recovery() {
    let registry = SecurityViews::paper_example();
    let catalog = registry.catalog().clone();
    for seed in 0..SEEDS {
        for checkpointed in [true, false] {
            let dir = temp_dir(&format!("{seed}_{checkpointed}"));
            let (mut durable, _) =
                DisclosureService::open_durable(registry.clone(), config(1), &dir).unwrap();
            for policy in policies(&registry) {
                durable.register_principal(policy);
            }
            let ids = intern_pool(&durable, &catalog);
            let steps = stream(&catalog, &ids, 0xD0_5EED + seed);
            let ops: Vec<Operation> = steps.iter().map(|step| step.op.clone()).collect();
            let (reports, model) = expected(&registry, &steps);
            let responses = durable.run_pipelined(&ops);
            assert_audits("durable", seed, &responses, &reports);
            if checkpointed {
                durable.checkpoint().unwrap();
            }
            durable.close().unwrap();

            let (mut recovered, report) =
                DisclosureService::open_durable(registry.clone(), config(1), &dir).unwrap();
            if checkpointed {
                assert_eq!(report.records_replayed, 0, "the image covers the stream");
            } else {
                assert_eq!(report.checkpoint_seq, 0, "recovery is replay alone");
                assert!(report.records_replayed > 0);
            }
            let what = if checkpointed {
                "checkpoint"
            } else {
                "WAL replay"
            };
            assert_final_audits(what, seed, &mut recovered, &model);
            recovered.close().unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

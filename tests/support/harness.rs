//! The one harness of the service-level suites: a world builder, a seeded
//! operation generator, and the comparison of a [`DisclosureService`] with
//! the specification, [`ReferenceService`].
//!
//! Every suite that serves a stream — `pipelined_equivalence`,
//! `audit_equivalence`, `crash_recovery`, `fault_injection` — builds its
//! services here, applies the operations the service acknowledged to the
//! model, and calls [`assert_agrees`]: no suite compares two services with
//! each other, and none keeps a model of its own.  `examples/recovery_drill.rs`
//! borrows the world and the fingerprint from here too.

#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fdc::core::{BaselineLabeler, DisclosureLabel, LabelError, QueryLabeler, SecurityViews};
use fdc::cq::canonical::rename_canonical;
use fdc::cq::intern::QueryId;
use fdc::cq::parser::parse_query;
use fdc::cq::{ConjunctiveQuery, RelId};
use fdc::ecosystem::policies::{PolicyGenerator, PolicyGeneratorConfig};
use fdc::ecosystem::{
    facebook_catalog, facebook_security_views, ChurnConfig, ChurnGenerator, WorkloadConfig,
    WorkloadGenerator,
};
use fdc::policy::{AuditReport, Decision, PolicyPartition, PrincipalId, SecurityPolicy};
use fdc::service::{
    DisclosureService, DurabilityConfig, Operation, ReferenceService, Response, ServiceConfig,
    ServiceError,
};

/// A tiny deterministic generator (splitmix64): every run of a seeded suite
/// sees the same streams.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A scratch directory no other call shares (removed, *not* created).
pub fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("fdc_{tag}_{}_{unique}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A query id no interner of these suites ever issues.
pub const NEVER_MINTED: QueryId = QueryId(u32::MAX);

/// Query shapes of the paper world, each with an alpha-renamed variant:
/// both intern to one id but arrive as different boxed queries.
const SHAPES: [[&str; 2]; 8] = [
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
    ["Q() :- Meetings(x, x)", "Q() :- Meetings(t, t)"],
];

/// Views a stream may add online, under fixed names: a second addition is
/// a duplicate, and of the three over `Contacts` only the first fits the
/// relation's budget (see [`World::paper`]).
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

/// View names a grant or revoke may carry: the initial views, the
/// candidates (unknown until added) and a name never registered.
const GRANTABLE: [&str; 12] = [
    "V1", "V2", "V3", "A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "ghost",
];

/// One generated step: a kind below [`STEP_KINDS`] and two choices below
/// [`STEP_CHOICES`], which [`World::stream`] expands into operations.  A
/// vector of steps is what the property suites hand the shrinker.
pub type Step = (u8, usize, usize);
pub const STEP_KINDS: u8 = 9;
pub const STEP_CHOICES: usize = 16;

/// Seeded steps: half admissions (one step in five a burst), a quarter
/// mutations, the rest interned checks and audits.
pub fn steps(seed: u64, len: usize) -> Vec<Step> {
    const KINDS: [u8; 20] = [0, 0, 0, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6, 7, 7, 7, 8, 8, 8, 8];
    let mut rng = Rng(seed);
    (0..len)
        .map(|_| {
            let kind = KINDS[rng.below(KINDS.len())];
            (kind, rng.below(STEP_CHOICES), rng.below(STEP_CHOICES))
        })
        .collect()
}

/// The initial state every service and the model of a suite start from.
pub struct World {
    pub registry: SecurityViews,
    pub policies: Vec<SecurityPolicy>,
    /// The queries interned first thing into every service, in this order,
    /// so each has one id everywhere; also the probe set of [`fingerprint`].
    pub pool: Vec<ConjunctiveQuery>,
    /// The pool's ids, as a fresh service over `registry` issues them.
    pub ids: Vec<QueryId>,
    pub history_cap: usize,
}

/// The paper world's policies: Chinese walls alternating with stateless ones.
fn policies(registry: &SecurityViews, principals: usize) -> Vec<SecurityPolicy> {
    let [v1, v2, v3] = ["V1", "V2", "V3"].map(|name| registry.id_by_name(name).unwrap());
    (0..principals)
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

impl World {
    fn new(
        registry: SecurityViews,
        policies: Vec<SecurityPolicy>,
        pool: Vec<ConjunctiveQuery>,
        history_cap: usize,
    ) -> World {
        let mut fresh = DisclosureService::with_defaults(registry.clone());
        World {
            ids: pool
                .iter()
                .map(|query| fresh.intern(query).unwrap())
                .collect(),
            registry,
            policies,
            pool,
            history_cap,
        }
    }

    /// The paper's Meetings / Contacts example with `principals` principals
    /// and a five-entry audit window.  `Contacts` starts one view short of
    /// its 32-view budget, so a stream reaches the over-budget refusal with
    /// its second addition there.
    pub fn paper(principals: usize) -> World {
        let mut registry = SecurityViews::paper_example();
        let filler = parse_query(registry.catalog(), "C(x) :- Contacts(x, y, z)").unwrap();
        for i in 0..30 {
            registry.add(&format!("C{i}"), filler.clone()).unwrap();
        }
        let pool = SHAPES
            .iter()
            .map(|shape| parse_query(registry.catalog(), shape[0]).unwrap())
            .collect();
        let policies = policies(&registry, principals);
        World::new(registry, policies, pool, 5)
    }

    /// The evaluation ecosystem the crash and fault suites churn: the
    /// Facebook-like schema's 37 views, six generated policies, three
    /// generated probe queries.
    pub fn facebook() -> World {
        let registry = facebook_security_views(&facebook_catalog());
        let mut generator = PolicyGenerator::new(&registry, PolicyGeneratorConfig::default());
        let policies = (0..6).map(|_| generator.next_policy(&registry)).collect();
        let pool =
            WorkloadGenerator::new(facebook_catalog(), WorkloadConfig::base(0xFA17)).batch(3);
        let history_cap = ServiceConfig::default().history_cap;
        World::new(registry, policies, pool, history_cap)
    }

    /// A service configuration over this world; fsync off (crashes here are
    /// simulated, a scratch directory needs no power-loss safety).
    pub fn config(&self) -> ServiceConfig {
        ServiceConfig {
            history_cap: self.history_cap,
            durability: DurabilityConfig {
                fsync: false,
                ..DurabilityConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    /// The specification in this world's initial state.
    pub fn model(&self) -> ReferenceService {
        let mut model = ReferenceService::new(self.registry.clone(), self.history_cap);
        for policy in &self.policies {
            model.register_principal(policy.clone()).unwrap();
        }
        self.define_pool(&mut model);
        model
    }

    /// Tells the model what [`intern_pool`] told every service.
    pub fn define_pool(&self, model: &mut ReferenceService) {
        for (id, query) in self.ids.iter().zip(&self.pool) {
            model.define(*id, query.clone());
        }
    }

    /// Expands steps into the paper world's operation stream: plain and
    /// interned submits and checks (alpha variants, never-minted ids),
    /// grants and revokes (unknown and not-yet-registered views), online
    /// view additions (duplicates, over-budget), audits, and skewed
    /// admission bursts pinned to one principal and a narrow shape set.
    /// Every kind may name the principal one past the last.
    pub fn stream(&self, steps: &[Step]) -> Vec<Operation> {
        let catalog = self.registry.catalog();
        let shape = |b: usize| {
            parse_query(catalog, SHAPES[b % SHAPES.len()][b / SHAPES.len() % 2]).unwrap()
        };
        let interned = |b: usize| match b % 5 {
            0 => NEVER_MINTED,
            _ => self.ids[b % self.ids.len()],
        };
        let mut ops = Vec::with_capacity(steps.len());
        for &(kind, a, b) in steps {
            let principal = PrincipalId((a % (self.policies.len() + 1)) as u32);
            let view = GRANTABLE[b % GRANTABLE.len()].to_owned();
            match kind {
                0 => ops.push(Operation::Submit {
                    principal,
                    query: shape(b),
                }),
                1 => ops.push(Operation::Check {
                    principal,
                    query: shape(b),
                }),
                2 => ops.push(Operation::SubmitInterned {
                    principal,
                    query: interned(b),
                }),
                3 => ops.push(Operation::CheckInterned {
                    principal,
                    query: interned(b),
                }),
                4 => ops.push(Operation::GrantView { principal, view }),
                5 => ops.push(Operation::RevokeView { principal, view }),
                6 => {
                    let (name, text) = CANDIDATE_VIEWS[b % CANDIDATE_VIEWS.len()];
                    ops.push(Operation::AddSecurityView {
                        name: name.to_owned(),
                        query: parse_query(catalog, text).unwrap(),
                    });
                }
                7 => ops.push(Operation::AuditApp { principal }),
                _ => {
                    // A burst: mostly one shape (the odd one out warms a
                    // second cache entry), mostly submits.
                    for i in 0..2 + (3 * a + b) % 12 {
                        let query = shape(if i % 4 == 3 { b + i } else { b });
                        ops.push(if i % 5 == 4 {
                            Operation::Check { principal, query }
                        } else {
                            Operation::Submit { principal, query }
                        });
                    }
                }
            }
        }
        ops
    }
}

/// The Facebook world's mixed churn stream: grants, revokes, view
/// additions, submits and checks over a small pooled query set.
pub fn churn_ops(world: &World, seed: u64, n: usize) -> Vec<Operation> {
    let config = ChurnConfig {
        mutation_ratio: 0.3,
        add_view_share: 0.25,
        check_share: 0.15,
        query_pool: 8,
        num_principals: world.policies.len(),
        seed,
        workload: WorkloadConfig::base(seed),
    };
    let ops = ChurnGenerator::new(facebook_catalog(), &world.registry, config).ops(n);
    assert!(
        ops.iter().any(|op| op.is_mutation()) && ops.iter().any(|op| op.is_admission()),
        "the stream must be mixed"
    );
    ops
}

/// Whether `op` produces a WAL record (the write-ahead set: everything but
/// interned checks, audits and submits the front door is bound to reject —
/// a boxed check is logged, since its first sight mints an id).
pub fn is_logged(op: &Operation) -> bool {
    !matches!(
        op,
        Operation::CheckInterned { .. }
            | Operation::AuditApp { .. }
            | Operation::SubmitInterned {
                query: NEVER_MINTED,
                ..
            }
    )
}

/// Interns the world's pool into a service, in pool order, and checks the
/// ids are the ones [`World::define_pool`] declares to the model.
pub fn intern_pool(service: &mut DisclosureService, world: &World) {
    for (id, query) in world.ids.iter().zip(&world.pool) {
        assert_eq!(service.intern(query), Ok(*id));
    }
}

/// Brings a fresh service, in memory or durable, to the world's initial
/// state.
pub fn populate(service: &mut DisclosureService, world: &World) {
    for policy in &world.policies {
        service.register_principal(policy.clone());
    }
    intern_pool(service, world);
}

/// An in-memory service in the world's initial state.
pub fn build_service(world: &World, config: ServiceConfig) -> DisclosureService {
    let mut service = DisclosureService::new(world.registry.clone(), config);
    populate(&mut service, world);
    service
}

/// What one principal looks like from outside.
#[derive(Debug, PartialEq, Eq)]
struct PrincipalPrint {
    policy: SecurityPolicy,
    consistency_word: u64,
    /// `(answered, refused)`.
    counters: (u64, u64),
    audit: Result<AuditReport, ServiceError>,
    /// Would each pool query be admitted right now?
    probes: Vec<Decision>,
}

/// Everything two equal systems must agree on: per-principal state, audits
/// and probe decisions, the totals, the registry's views and epochs, the
/// label of every pool query, and the shape each of the world's ids names
/// (in canonical form; `None` for an id not issued).
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    principals: Vec<PrincipalPrint>,
    totals: (u64, u64),
    views: Vec<String>,
    epochs: Vec<u64>,
    labels: Vec<DisclosureLabel>,
    ids: Vec<Option<ConjunctiveQuery>>,
}

fn registry_print(registry: &SecurityViews) -> (Vec<String>, Vec<u64>) {
    let views = registry.iter().map(|(_, view)| view.name.clone()).collect();
    let epochs = (0..registry.catalog().len())
        .map(|r| registry.epoch(RelId(r as u32)))
        .collect();
    (views, epochs)
}

/// The fingerprint of a service, taken on a copy as
/// [`Fingerprint::of_model`] takes it (an audit or a probe counts as an
/// operation).
pub fn fingerprint(service: &DisclosureService, world: &World) -> Fingerprint {
    let mut scratch = service.clone();
    let principals = (0..service.num_principals())
        .map(|i| {
            let p = PrincipalId(i as u32);
            PrincipalPrint {
                policy: service.store().policy(p).clone(),
                consistency_word: service.store().consistency_bits(p),
                counters: service.store().stats(p),
                audit: scratch.audit_app(p),
                probes: world
                    .pool
                    .iter()
                    .map(|query| scratch.check(p, query).unwrap())
                    .collect(),
            }
        })
        .collect();
    let (views, epochs) = registry_print(service.registry());
    let labeler = BaselineLabeler::new(service.registry().clone());
    let interner = service.interner();
    Fingerprint {
        principals,
        totals: service.totals(),
        views,
        epochs,
        labels: world.pool.iter().map(|q| labeler.label_query(q)).collect(),
        ids: world
            .ids
            .iter()
            .map(|&id| {
                interner
                    .contains(id)
                    .then(|| rename_canonical(&interner.to_query(id)))
            })
            .collect(),
    }
}

impl Fingerprint {
    /// The fingerprint the specification prescribes, taken on a copy (an
    /// audit or a probe counts as an operation).
    pub fn of_model(model: &ReferenceService, world: &World) -> Fingerprint {
        let mut scratch = model.clone();
        let principals: Vec<PrincipalPrint> = (0..model.num_principals())
            .map(|i| {
                let principal = PrincipalId(i as u32);
                let monitor = model.monitor(principal);
                PrincipalPrint {
                    policy: monitor.policy().clone(),
                    consistency_word: monitor.consistency_bits(),
                    counters: (monitor.answered(), monitor.refused()),
                    audit: match scratch.apply(&Operation::AuditApp { principal }) {
                        Response::Audit(report) => Ok(*report),
                        Response::Rejected(err) => Err(err),
                        other => unreachable!("an audit answered {other:?}"),
                    },
                    probes: world
                        .pool
                        .iter()
                        .map(|query| {
                            let query = query.clone();
                            let check = Operation::Check { principal, query };
                            scratch.apply(&check).decision().unwrap()
                        })
                        .collect(),
                }
            })
            .collect();
        let (views, epochs) = registry_print(model.registry());
        let labeler = BaselineLabeler::new(model.registry().clone());
        Fingerprint {
            totals: principals.iter().fold((0, 0), |(yes, no), p| {
                (yes + p.counters.0, no + p.counters.1)
            }),
            principals,
            views,
            epochs,
            labels: world.pool.iter().map(|q| labeler.label_query(q)).collect(),
            ids: world
                .ids
                .iter()
                .map(|&id| model.query(id).map(rename_canonical))
                .collect(),
        }
    }
}

/// The service is in the state the specification prescribes.
pub fn assert_agrees(
    what: &str,
    service: &DisclosureService,
    model: &ReferenceService,
    world: &World,
) {
    assert_print(what, service, &Fingerprint::of_model(model, world), world);
}

/// [`assert_agrees`] against a fingerprint of the model taken earlier.
pub fn assert_print(
    what: &str,
    service: &DisclosureService,
    specified: &Fingerprint,
    world: &World,
) {
    let served = fingerprint(service, world);
    for (i, (got, want)) in served
        .principals
        .iter()
        .zip(&specified.principals)
        .enumerate()
    {
        assert_eq!(
            got, want,
            "{what}: principal {i} (left) left the specification (right)"
        );
    }
    assert_eq!(
        &served, specified,
        "{what}: the service (left) left the specification (right)"
    );
}

/// What the specification makes of a stream: its answers, the model as the
/// stream left it, and that model's fingerprint (taken once — every row of
/// the matrix is compared with it).
pub struct Specified {
    pub model: ReferenceService,
    pub responses: Vec<Response>,
    print: Fingerprint,
}

/// Applies `ops` to the model from the world's initial state.
pub fn specify(world: &World, ops: &[Operation]) -> Specified {
    let mut model = world.model();
    let responses = ops.iter().map(|op| model.apply(op)).collect();
    Specified {
        print: Fingerprint::of_model(&model, world),
        model,
        responses,
    }
}

/// The service answered a stream as the specification does, counted what
/// it counts, and ended in its state.
pub fn assert_served(
    what: &str,
    service: &DisclosureService,
    answered: &[Response],
    specified: &Specified,
    world: &World,
) {
    assert_eq!(answered.len(), specified.responses.len(), "{what}");
    for (i, (got, want)) in answered.iter().zip(&specified.responses).enumerate() {
        assert_eq!(got, want, "{what}: response {i}");
    }
    let (served, counted) = (service.stats(), specified.model.stats());
    assert_eq!(
        (served.admissions, served.mutations, served.audits),
        (counted.admissions, counted.mutations, counted.audits),
        "{what}: (admissions, mutations, audits)"
    );
    assert_print(what, service, &specified.print, world);
}

/// How a stream reaches a service: op by op through `apply`, op by op
/// through the typed method of each operation's kind, or through
/// `run_pipelined` in requests of (at most) this many operations.
#[derive(Debug, Clone, Copy)]
pub enum Executor {
    Apply,
    Typed,
    Pipelined(usize),
}

pub fn serve(
    service: &mut DisclosureService,
    ops: &[Operation],
    executor: Executor,
) -> Vec<Response> {
    match executor {
        Executor::Apply => ops.iter().map(|op| service.apply(op)).collect(),
        Executor::Typed => ops.iter().map(|op| typed(service, op)).collect(),
        Executor::Pipelined(request) => ops
            .chunks(request)
            .flat_map(|request| service.run_pipelined(request))
            .collect(),
    }
}

/// One op through the typed method of its kind, answered as `apply` would.
fn typed(service: &mut DisclosureService, op: &Operation) -> Response {
    match op {
        Operation::Submit { principal, query } => {
            service.submit(*principal, query).map(Response::Decision)
        }
        Operation::Check { principal, query } => {
            service.check(*principal, query).map(Response::Decision)
        }
        Operation::SubmitInterned { principal, query } => service
            .submit_interned(*principal, *query)
            .map(Response::Decision),
        Operation::CheckInterned { principal, query } => service
            .check_interned(*principal, *query)
            .map(Response::Decision),
        Operation::GrantView { principal, view } => service
            .grant_view(*principal, view)
            .map(|()| Response::PolicyUpdated),
        Operation::RevokeView { principal, view } => service
            .revoke_view(*principal, view)
            .map(|()| Response::PolicyUpdated),
        Operation::AddSecurityView { name, query } => service
            .add_security_view(name, query.clone())
            .map(Response::ViewAdded),
        Operation::AuditApp { principal } => service
            .audit_app(*principal)
            .map(|report| Response::Audit(Box::new(report))),
    }
    .unwrap_or_else(Response::Rejected)
}

/// Reopens a durable home (the world's registry is read only when the
/// directory holds no checkpoint).
pub fn reopen(
    world: &World,
    config: ServiceConfig,
    dir: &Path,
) -> (DisclosureService, fdc::service::RecoveryReport) {
    DisclosureService::open_durable(world.registry.clone(), config, dir).unwrap()
}

/// Several pipelined requests per stream, so audit rings and the label
/// arena carry over between requests.
const BATCHED: Executor = Executor::Pipelined(64);

/// **The executor matrix.**  Serves `ops` from the world's initial state
/// through every executor — [`in_memory_rows`], then [`durable_rows`] — and
/// demands of every row the specification's responses, counters and final
/// state.
pub fn run_matrix(what: &str, world: &World, ops: &[Operation]) {
    let specified = specify(world, ops);
    in_memory_rows(what, world, ops, &specified);
    durable_rows(what, world, ops, &specified);
}

/// `apply`, the typed methods, then `run_pipelined`, each on its own copy
/// of one service in the world's initial state.
pub fn in_memory_rows(what: &str, world: &World, ops: &[Operation], specified: &Specified) {
    let initial = build_service(world, world.config());
    let mut sequential_cache = None;
    for executor in [Executor::Apply, Executor::Typed, BATCHED] {
        let row = format!("{what}: {executor:?}");
        let mut service = initial.clone();
        let answered = serve(&mut service, ops, executor);
        // The one property the model cannot state: every executor labels
        // in stream order through the one labeler, so the cumulative cache
        // counters agree in every column.
        let cache = service.labeler().stats();
        assert_eq!(*sequential_cache.get_or_insert(cache), cache, "{row}");
        assert_served(&row, &service, &answered, specified, world);
    }
}

/// Durable `apply` and `run_pipelined`, each serving the first half of the
/// stream, closing — after a checkpoint, or with the log alone — and
/// reopening, then serving the second half on the recovered service: the
/// answers of both halves and the final state are the specification's.
/// Interned operands of the second half name the ids `populate` minted
/// before the reopen, so a row passes only if recovery keeps every id.
pub fn durable_rows(what: &str, world: &World, ops: &[Operation], specified: &Specified) {
    for executor in [Executor::Apply, BATCHED] {
        for checkpointed in [true, false] {
            let row = format!("{what}: durable {executor:?}, checkpointed {checkpointed}");
            let config = world.config();
            let dir = temp_dir("matrix");
            let (mut service, _) = reopen(world, config, &dir);
            populate(&mut service, world);
            let (first, rest) = ops.split_at(ops.len() / 2);
            let mut answered = serve(&mut service, first, executor);
            if checkpointed {
                service.checkpoint().unwrap();
            }
            let logged = service.stats().durability.wal_records_committed;
            service.close().unwrap();
            let (mut recovered, report) = reopen(world, config, &dir);
            let replayed = if checkpointed { 0 } else { logged };
            assert_eq!(report.records_replayed, replayed, "{row}: the replay");
            answered.extend(serve(&mut recovered, rest, executor));
            assert_eq!(answered, specified.responses, "{row}: the answers");
            assert_print(&row, &recovered, &specified.print, world);
            recovered.close().unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The invalid operations a stream may carry, by the refusal each earns.
pub const REFUSALS: [&str; 6] = [
    "ghost principal",
    "never-minted id",
    "unknown view",
    "not-yet-registered view",
    "duplicate view",
    "over-budget view",
];

/// Which of [`REFUSALS`] a response is, if any — the suites' check that the
/// generator still reaches every invalid operation.
pub fn refusal(response: &Response) -> Option<&'static str> {
    let Response::Rejected(error) = response else {
        return None;
    };
    Some(match error {
        ServiceError::UnknownPrincipal(_) => "ghost principal",
        ServiceError::UnknownQuery(_) => "never-minted id",
        ServiceError::UnknownView(name) if name == "ghost" => "unknown view",
        ServiceError::UnknownView(_) => "not-yet-registered view",
        ServiceError::InvalidView(LabelError::DuplicateView(_)) => "duplicate view",
        ServiceError::InvalidView(LabelError::TooManyViewsForRelation { .. }) => "over-budget view",
        other => panic!("a refusal no step asks for: {other}"),
    })
}

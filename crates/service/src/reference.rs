//! The executable specification of the disclosure service.
//!
//! The paper's pipeline is three steps — label a query against the security
//! views (Sections 4–6.1), compare the label with the principal's policy
//! (Section 6.2), update state — and [`ReferenceService`] is those three
//! steps and nothing else, applied to an [`Operation`] stream in order:
//!
//! * the registry is a [`SecurityViews`], grown by `AddSecurityView`;
//! * a label is [`BaselineLabeler::label_query`] over that registry —
//!   boxed `dissect`, `fold` and the rewriting check against every view —
//!   recomputed on every admission and every audit, never remembered;
//! * each principal is one [`ReferenceMonitor`] holding its policy as
//!   written; a grant or revoke edits that boxed [`SecurityPolicy`];
//! * the observed workload is a capped deque of the submitted queries per
//!   principal, and an audit is [`fdc_policy::audit_app`] over it;
//! * an interned operand is looked up in a plain id → query map the
//!   caller fills with [`define`](ReferenceService::define).
//!
//! It answers with the same [`Response`] and [`ServiceError`] values as
//! [`DisclosureService`](crate::DisclosureService) and shares **no** code
//! with it: no label cache or interner, no packed labels, no
//! compiled policy store, no id-ring audit log.  No served request reaches
//! it: the suites under `tests/` apply the operations a service acknowledged
//! to it and demand that service's answers and state equal its own.  It
//! cannot lose a record, so it never answers `DurabilityUnavailable`.

use std::collections::{HashMap, VecDeque};

use fdc_core::{
    BaselineLabeler, LabelError, QueryLabeler, SecurityViews, MAX_PACKED_VIEWS_PER_RELATION,
};
use fdc_cq::{intern::QueryId, ConjunctiveQuery};
use fdc_policy::{
    audit_app, requested_views, PrincipalId, ReferenceMonitor, SecurityPolicy, MAX_PARTITIONS,
};

use crate::ops::{Operation, PolicyBound, Response, ServiceError};
use crate::service::ServiceStats;

/// What an operation comes to: its answer, or why it was refused.
type Answer<T = Response> = Result<T, ServiceError>;

/// The specification [`DisclosureService`](crate::DisclosureService) is
/// tested against; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct ReferenceService {
    /// The labeler owns the registry, as the service's labeling stage does.
    labeler: BaselineLabeler,
    monitors: Vec<ReferenceMonitor>,
    /// Per principal, the last `history_cap` submitted queries, oldest first.
    workloads: Vec<VecDeque<ConjunctiveQuery>>,
    history_cap: usize,
    queries: HashMap<QueryId, ConjunctiveQuery>,
    stats: ServiceStats,
}

impl ReferenceService {
    /// A specification over `views` whose audits see each principal's last
    /// `history_cap` submissions (`0` disables auditing).
    pub fn new(views: SecurityViews, history_cap: usize) -> Self {
        ReferenceService {
            labeler: BaselineLabeler::new(views),
            monitors: Vec::new(),
            workloads: Vec::new(),
            history_cap,
            queries: HashMap::new(),
            stats: ServiceStats::default(),
        }
    }

    /// The security-view registry as the stream has left it.
    pub fn registry(&self) -> &SecurityViews {
        self.labeler.security_views()
    }

    /// Number of registered principals.
    pub fn num_principals(&self) -> usize {
        self.monitors.len()
    }

    /// A principal's monitor: its policy, consistency word and counters.
    /// Panics on an id [`register_principal`](Self::register_principal) did not issue.
    pub fn monitor(&self, principal: PrincipalId) -> &ReferenceMonitor {
        &self.monitors[principal.index()]
    }

    /// The admission, mutation and audit counters (every other block stays zero).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Declares that interned operands carrying `id` mean `query` — what
    /// [`DisclosureService::intern`](crate::DisclosureService::intern)
    /// answered for it.  An id never declared is an unknown query.
    pub fn define(&mut self, id: QueryId, query: ConjunctiveQuery) {
        self.queries.insert(id, query);
    }

    /// The query `id` was [`define`](Self::define)d to mean, if any.
    pub fn query(&self, id: QueryId) -> Option<&ConjunctiveQuery> {
        self.queries.get(&id)
    }

    /// Registers a principal, refusing a policy the service refuses.
    pub fn register_principal(&mut self, policy: SecurityPolicy) -> Answer<PrincipalId> {
        self.fits(&policy)?;
        self.monitors.push(ReferenceMonitor::new(policy));
        self.workloads.push(VecDeque::new());
        Ok(PrincipalId(self.monitors.len() as u32 - 1))
    }

    /// Replaces a principal's policy, keeping its consistency word and
    /// counters.  A replacement with another partition count is refused:
    /// bit `i` of the word must keep meaning partition `i`.
    pub fn replace_policy(&mut self, principal: PrincipalId, policy: SecurityPolicy) -> Answer<()> {
        self.known(principal)?;
        self.fits(&policy)?;
        let monitor = &mut self.monitors[principal.index()];
        let partitions = monitor.policy().len();
        if policy.len() != partitions {
            let bound = PolicyBound::PartitionCount(partitions);
            return Err(ServiceError::InvalidPolicy(bound));
        }
        monitor.replace_policy(policy);
        self.stats.mutations += 1;
        Ok(())
    }

    /// Applies one operation at the end of the stream so far.
    pub fn apply(&mut self, op: &Operation) -> Response {
        let answer = match op {
            Operation::Submit { principal, query } => self.admit(*principal, query, true),
            Operation::Check { principal, query } => self.admit(*principal, query, false),
            Operation::SubmitInterned { principal, query } => self.by_id(*principal, *query, true),
            Operation::CheckInterned { principal, query } => self.by_id(*principal, *query, false),
            Operation::GrantView { principal, view } => self.set_view(*principal, view, true),
            Operation::RevokeView { principal, view } => self.set_view(*principal, view, false),
            Operation::AddSecurityView { name, query } => self.add_view(name, query),
            Operation::AuditApp { principal } => self.audit(*principal),
        };
        answer.unwrap_or_else(Response::Rejected)
    }

    fn known(&self, principal: PrincipalId) -> Answer<()> {
        let issued = principal.index() < self.monitors.len();
        issued
            .then_some(())
            .ok_or(ServiceError::UnknownPrincipal(principal))
    }

    /// The consistency word has a bit per partition, and a policy may only
    /// name relations of the catalog.
    fn fits(&self, policy: &SecurityPolicy) -> Answer<()> {
        let relations = self.registry().catalog().len();
        let broken = if policy.len() > MAX_PARTITIONS {
            PolicyBound::Partitions(MAX_PARTITIONS)
        } else if policy.relation_bound() > relations {
            PolicyBound::Relations(relations)
        } else {
            return Ok(());
        };
        Err(ServiceError::InvalidPolicy(broken))
    }

    /// An interned admission is the admission of the query its id was
    /// declared to mean; the principal is judged first, as for a plain one.
    fn by_id(&mut self, principal: PrincipalId, id: QueryId, commit: bool) -> Answer {
        self.known(principal)?;
        let declared = self.queries.get(&id).cloned();
        let query = declared.ok_or(ServiceError::UnknownQuery(id))?;
        self.admit(principal, &query, commit)
    }

    /// Steps one to three: label, compare, update.  A submission joins the
    /// observed workload whatever the decision.
    fn admit(&mut self, principal: PrincipalId, query: &ConjunctiveQuery, commit: bool) -> Answer {
        self.known(principal)?;
        self.stats.admissions += 1;
        let label = self.labeler.label_query(query);
        let monitor = &mut self.monitors[principal.index()];
        if !commit {
            return Ok(Response::Decision(monitor.check(&label)));
        }
        let decision = monitor.submit(&label);
        if self.history_cap > 0 {
            let workload = &mut self.workloads[principal.index()];
            if workload.len() == self.history_cap {
                workload.pop_front();
            }
            workload.push_back(query.clone());
        }
        Ok(Response::Decision(decision))
    }

    /// A grant adds the view to every partition of the policy, a revoke
    /// removes it from every one; what was answered before is not re-judged.
    fn set_view(&mut self, principal: PrincipalId, view: &str, grant: bool) -> Answer {
        self.known(principal)?;
        let views = self.labeler.security_views();
        let unknown = || ServiceError::UnknownView(view.to_owned());
        let id = views.id_by_name(view).ok_or_else(unknown)?;
        let monitor = &mut self.monitors[principal.index()];
        let mut policy = monitor.policy().clone();
        for partition in policy.partitions_mut() {
            if grant {
                partition.permit(views, id);
            } else {
                partition.revoke(views, id);
            }
        }
        monitor.replace_policy(policy);
        self.stats.mutations += 1;
        Ok(Response::PolicyUpdated)
    }

    /// The service answers with 32-bit masks, so a relation holds at most
    /// [`MAX_PACKED_VIEWS_PER_RELATION`] views; the registry's own rules
    /// (unique name, one atom, valid against the catalog) come after.
    fn add_view(&mut self, name: &str, query: &ConjunctiveQuery) -> Answer {
        let mut views = self.registry().clone();
        if let Some(atom) = query.atoms().next() {
            let count = views.views_for_relation(atom.relation).len() + 1;
            if count > MAX_PACKED_VIEWS_PER_RELATION {
                return Err(ServiceError::InvalidView(
                    LabelError::TooManyViewsForRelation {
                        relation: views.catalog().name(atom.relation).to_owned(),
                        count,
                        limit: MAX_PACKED_VIEWS_PER_RELATION,
                    },
                ));
            }
        }
        let id = views.add(name, query.clone())?;
        self.labeler = BaselineLabeler::new(views);
        self.stats.mutations += 1;
        Ok(Response::ViewAdded(id))
    }

    /// Section 2.2's audit: the views the policy requests today against the
    /// observed workload, labeled against the registry of today.
    fn audit(&mut self, principal: PrincipalId) -> Answer {
        self.known(principal)?;
        if self.history_cap == 0 {
            return Err(ServiceError::AuditingDisabled);
        }
        self.stats.audits += 1;
        let policy = self.monitors[principal.index()].policy();
        let requested = requested_views(policy, self.labeler.security_views());
        let workload = self.workloads[principal.index()].make_contiguous();
        let report = audit_app(&self.labeler, requested, workload);
        Ok(Response::Audit(Box::new(report)))
    }
}

//! The service's request vocabulary: operations, responses and errors.
//!
//! A [`DisclosureService`](crate::DisclosureService) consumes one mixed
//! stream of [`Operation`]s — admissions (`Submit` / `Check`), policy
//! mutations (`GrantView` / `RevokeView`), view-universe mutations
//! (`AddSecurityView`) and audits (`AuditApp`) — and answers each with a
//! [`Response`].  Operations identify security views by *name* (the
//! permission string a front door would receive) and principals by the
//! [`PrincipalId`] issued at registration.

use std::fmt;

use fdc_core::{LabelError, SecurityViewId};
use fdc_cq::intern::QueryId;
use fdc_cq::ConjunctiveQuery;
use fdc_policy::{AuditReport, Decision, PrincipalId};

/// One request to the disclosure-control service.
#[derive(Debug, Clone)]
pub enum Operation {
    /// Admit (and commit) one query on behalf of a principal.
    Submit {
        /// The querying principal.
        principal: PrincipalId,
        /// The conjunctive query to admit.
        query: ConjunctiveQuery,
    },
    /// Pure check: would this query be admitted right now?  Never commits.
    Check {
        /// The querying principal.
        principal: PrincipalId,
        /// The conjunctive query to probe.
        query: ConjunctiveQuery,
    },
    /// [`Submit`](Operation::Submit) by pre-interned query id — the
    /// zero-parse, zero-hash admission path for callers that interned their
    /// query pool once through the service's
    /// [`intern`](crate::DisclosureService::intern) (e.g. a boxed stream
    /// mapped through [`Operation::interned`]).  An op is 8 bytes of query
    /// instead of a boxed CQ clone.
    SubmitInterned {
        /// The querying principal.
        principal: PrincipalId,
        /// Interned id of the query, issued by the service's interner.
        query: QueryId,
    },
    /// [`Check`](Operation::Check) by pre-interned query id; never commits.
    CheckInterned {
        /// The querying principal.
        principal: PrincipalId,
        /// Interned id of the query, issued by the service's interner.
        query: QueryId,
    },
    /// Grant one more permission (security view) to a principal: every
    /// partition of its policy gains the view.
    GrantView {
        /// The principal gaining the permission.
        principal: PrincipalId,
        /// Name of a registered security view.
        view: String,
    },
    /// Revoke a permission from a principal: every partition of its policy
    /// loses the view.  Future queries needing it are refused; already
    /// answered disclosure is not re-judged.
    RevokeView {
        /// The principal losing the permission.
        principal: PrincipalId,
        /// Name of a registered security view.
        view: String,
    },
    /// Register a new single-atom security view online (an administrator
    /// evolving `Fgen`).  Only the view's base relation is invalidated;
    /// cached labels for other relations keep serving.
    AddSecurityView {
        /// Unique name of the new view.
        name: String,
        /// The single-atom view definition.
        query: ConjunctiveQuery,
    },
    /// Audit a principal: compare its requested permissions (the union of
    /// its policy's permitted views) against its observed query workload.
    AuditApp {
        /// The principal to audit.
        principal: PrincipalId,
    },
}

impl Operation {
    /// True for the admission operations (`Submit` / `Check` and their
    /// interned forms).
    pub fn is_admission(&self) -> bool {
        matches!(
            self,
            Operation::Submit { .. }
                | Operation::Check { .. }
                | Operation::SubmitInterned { .. }
                | Operation::CheckInterned { .. }
        )
    }

    /// The interned form of an admission: `Submit` / `Check` carry the id
    /// `intern` gives their query (`SubmitInterned` / `CheckInterned`);
    /// every other operation is returned as it is.  Mapping a stream
    /// through it interns each shape at its first appearance, in stream
    /// order.
    pub fn interned(self, mut intern: impl FnMut(&ConjunctiveQuery) -> QueryId) -> Operation {
        match self {
            Operation::Submit { principal, query } => Operation::SubmitInterned {
                principal,
                query: intern(&query),
            },
            Operation::Check { principal, query } => Operation::CheckInterned {
                principal,
                query: intern(&query),
            },
            op => op,
        }
    }

    /// True for the operations that mutate policies or the view universe.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Operation::GrantView { .. }
                | Operation::RevokeView { .. }
                | Operation::AddSecurityView { .. }
        )
    }
}

/// The service's answer to one [`Operation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The decision for a `Submit` or `Check`.
    Decision(Decision),
    /// A `GrantView` / `RevokeView` was applied.
    PolicyUpdated,
    /// An `AddSecurityView` registered this view.
    ViewAdded(SecurityViewId),
    /// The report of an `AuditApp`, boxed: it is the largest response by
    /// far, and every response is moved by value.
    Audit(Box<AuditReport>),
    /// The operation was rejected; no state changed.
    Rejected(ServiceError),
}

impl Response {
    /// The decision, if this response carries one.
    pub fn decision(&self) -> Option<Decision> {
        match self {
            Response::Decision(decision) => Some(*decision),
            _ => None,
        }
    }

    /// True if the operation was rejected.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Response::Rejected(_))
    }
}

/// The bound a refused policy breaks, with its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyBound {
    /// The policy names a relation outside the service's catalog of this
    /// many relations, so no view of the registry could have put it there.
    Relations(usize),
    /// The policy has more partitions than this
    /// ([`fdc_policy::MAX_PARTITIONS`]: a principal's consistency word
    /// holds one bit per partition).
    Partitions(usize),
    /// A replacement policy must keep the principal's partition count,
    /// which is this: bit `i` of the consistency word carried over must
    /// keep meaning partition `i`.
    PartitionCount(usize),
}

/// Why the service rejected an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The principal id was never issued by this service.
    UnknownPrincipal(PrincipalId),
    /// The query id was never issued by this service's interner (an
    /// interned admission referenced a foreign or future id).
    UnknownQuery(QueryId),
    /// No security view with this name is registered.
    UnknownView(String),
    /// The view registry rejected a new view (duplicate name, multi-atom
    /// definition, invalid query, or the relation's 32-view packed-mask
    /// budget — see `fdc_core::MAX_PACKED_VIEWS_PER_RELATION`).
    InvalidView(LabelError),
    /// The policy breaks a bound of the service; the operand says which.
    InvalidPolicy(PolicyBound),
    /// Auditing is disabled (the service was configured with a zero
    /// observed-workload history).
    AuditingDisabled,
    /// The durable service is serving in degraded (read-only) mode: its
    /// write-ahead log failed permanently, so state-changing operations
    /// are refused until a checkpoint lands on recovered storage and
    /// promotes the service back to healthy.  Admissions keep serving
    /// from memory.
    DurabilityUnavailable,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownPrincipal(principal) => {
                write!(f, "unknown principal id {}", principal.0)
            }
            ServiceError::UnknownQuery(query) => {
                write!(f, "unknown interned query id {}", query.0)
            }
            ServiceError::UnknownView(name) => {
                write!(f, "no security view named `{name}` is registered")
            }
            ServiceError::InvalidView(err) => write!(f, "invalid security view: {err}"),
            ServiceError::InvalidPolicy(PolicyBound::Relations(relations)) => write!(
                f,
                "the policy names a relation outside the {relations}-relation catalog"
            ),
            ServiceError::InvalidPolicy(PolicyBound::Partitions(partitions)) => {
                write!(f, "policies are limited to {partitions} partitions")
            }
            ServiceError::InvalidPolicy(PolicyBound::PartitionCount(partitions)) => write!(
                f,
                "a replacement policy must keep the principal's {partitions} partitions"
            ),
            ServiceError::AuditingDisabled => {
                write!(f, "auditing is disabled (history_cap is 0)")
            }
            ServiceError::DurabilityUnavailable => {
                write!(
                    f,
                    "the write-ahead log is unavailable; the service is serving read-only"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<LabelError> for ServiceError {
    fn from(err: LabelError) -> Self {
        ServiceError::InvalidView(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::parser::parse_query;
    use fdc_cq::Catalog;

    #[test]
    fn a_response_is_at_most_48_bytes() {
        // Every response is moved by value out of `execute`; the audit
        // report, the one large payload, stays behind a box.
        assert!(
            std::mem::size_of::<Response>() <= 48,
            "{} bytes",
            std::mem::size_of::<Response>()
        );
    }

    #[test]
    fn operation_classification() {
        let catalog = Catalog::paper_example();
        let q = parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap();
        let p = PrincipalId(0);
        assert!(Operation::Submit {
            principal: p,
            query: q.clone()
        }
        .is_admission());
        assert!(Operation::Check {
            principal: p,
            query: q.clone()
        }
        .is_admission());
        assert!(Operation::SubmitInterned {
            principal: p,
            query: QueryId(0)
        }
        .is_admission());
        assert!(Operation::CheckInterned {
            principal: p,
            query: QueryId(3)
        }
        .is_admission());
        assert!(!Operation::SubmitInterned {
            principal: p,
            query: QueryId(0)
        }
        .is_mutation());
        let grant = Operation::GrantView {
            principal: p,
            view: "V1".into(),
        };
        assert!(!grant.is_admission());
        assert!(grant.is_mutation());
        assert!(Operation::AddSecurityView {
            name: "V9".into(),
            query: q
        }
        .is_mutation());
        assert!(!Operation::AuditApp { principal: p }.is_mutation());
    }

    #[test]
    fn errors_display_their_context() {
        assert!(ServiceError::UnknownPrincipal(PrincipalId(7))
            .to_string()
            .contains('7'));
        assert!(ServiceError::UnknownQuery(QueryId(41))
            .to_string()
            .contains("41"));
        assert!(ServiceError::UnknownView("user_likes".into())
            .to_string()
            .contains("user_likes"));
        let err: ServiceError = LabelError::DuplicateView("V1".into()).into();
        assert!(err.to_string().contains("V1"));
        assert!(ServiceError::AuditingDisabled
            .to_string()
            .contains("history_cap"));
        assert!(ServiceError::DurabilityUnavailable
            .to_string()
            .contains("read-only"));
    }

    #[test]
    fn responses_expose_decisions() {
        assert_eq!(
            Response::Decision(Decision::Allow).decision(),
            Some(Decision::Allow)
        );
        assert_eq!(Response::PolicyUpdated.decision(), None);
        assert!(Response::Rejected(ServiceError::AuditingDisabled).is_rejected());
        assert!(!Response::PolicyUpdated.is_rejected());
    }
}

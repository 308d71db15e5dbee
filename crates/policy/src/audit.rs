//! Overprivilege auditing.
//!
//! Section 2.2: "Labeling also makes it possible to detect overprivileged
//! applications that request access to more permissions than they need due
//! to developer error."  An app declares the set of security views
//! (permissions) it wants; its observed query workload determines the set it
//! actually *needs* — the union of the queries' disclosure labels.  The
//! audit compares the two and reports, per relation, the permissions that
//! were requested but never required and the queries that are not covered by
//! the requested permissions at all.

use std::collections::BTreeSet;

use fdc_core::{DisclosureLabel, QueryLabeler, SecurityViewId, SecurityViews};
use fdc_cq::ConjunctiveQuery;

use crate::partition::PolicyPartition;
use crate::policy::SecurityPolicy;

/// The outcome of auditing one app's requested permissions against its
/// observed workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Permissions the app requested.
    pub requested: BTreeSet<SecurityViewId>,
    /// Requested permissions that appear in the `ℓ⁺` of some atom of some
    /// observed query: every requested view able to answer an observed
    /// atom, not only one a query could not do without.  A view that only
    /// duplicates another requested answer therefore counts as used, so
    /// over-privilege is under-reported until the audit computes the least
    /// set of requested views that covers the workload.
    pub used: BTreeSet<SecurityViewId>,
    /// Requested permissions that no observed query needed.
    pub unused: BTreeSet<SecurityViewId>,
    /// Indices (into the audited workload) of queries that the requested
    /// permissions cannot answer at all.
    pub uncovered_queries: Vec<usize>,
}

impl AuditReport {
    /// True if every requested permission was needed and every query was
    /// answerable: the app is neither over- nor under-privileged.
    pub fn is_tight(&self) -> bool {
        self.unused.is_empty() && self.uncovered_queries.is_empty()
    }

    /// True if some requested permission was never needed.
    pub fn is_overprivileged(&self) -> bool {
        !self.unused.is_empty()
    }

    /// Renders the report with human-readable permission names.
    pub fn describe(&self, registry: &SecurityViews) -> String {
        let names = |ids: &BTreeSet<SecurityViewId>| -> String {
            let list: Vec<&str> = ids
                .iter()
                .map(|id| registry.view(*id).name.as_str())
                .collect();
            if list.is_empty() {
                "(none)".to_owned()
            } else {
                list.join(", ")
            }
        };
        format!(
            "requested: {}\nused:      {}\nunused:    {}\nuncovered queries: {}",
            names(&self.requested),
            names(&self.used),
            names(&self.unused),
            self.uncovered_queries.len()
        )
    }
}

/// The set of security views a policy requests: the union of the permitted
/// views across all of its partitions, resolved to ids through the registry.
///
/// This is the "requested permissions" input of [`audit_app`] for a
/// principal registered in a policy store — a live service audits an app by
/// comparing this set against the app's observed query workload.
pub fn requested_views(
    policy: &SecurityPolicy,
    registry: &SecurityViews,
) -> BTreeSet<SecurityViewId> {
    let mut requested = BTreeSet::new();
    for partition in policy.partitions() {
        for relation in partition.relations() {
            let mut mask = partition.permitted_mask(relation);
            while mask != 0 {
                let bit = mask.trailing_zeros();
                mask &= mask - 1;
                if let Some(id) = registry.view_by_relation_bit(relation, bit) {
                    requested.insert(id);
                }
            }
        }
    }
    requested
}

/// Audits an app: which of its `requested` permissions does the observed
/// `workload` actually need?
///
/// A requested permission counts as *used* if, for some query atom, it
/// appears in the atom's `ℓ⁺` — i.e. it is one of the permissions that can
/// answer that atom.  A query is *uncovered* if some atom's `ℓ⁺` contains no
/// requested permission at all (the app cannot run that query with what it
/// asked for).
///
/// Labels every query of the boxed workload and hands the labels to
/// [`audit_labels`], the core the audit shares with callers that keep
/// their workload in another form.
pub fn audit_app<L, I>(labeler: &L, requested: I, workload: &[ConjunctiveQuery]) -> AuditReport
where
    L: QueryLabeler,
    I: IntoIterator<Item = SecurityViewId>,
{
    audit_labels(
        labeler.security_views(),
        requested,
        workload.iter().map(|query| labeler.label_query(query)),
    )
}

/// The audit proper, over the workload's disclosure *labels* in workload
/// order ([`AuditReport::uncovered_queries`] indexes into that order).
///
/// Section 2.2's audit reads nothing of a query but its label, so a caller
/// that can label its workload without materializing the queries — the
/// disclosure service keeps each principal's history as interned ids and
/// labels them by id — feeds this directly; [`audit_app`] is the wrapper
/// for boxed workloads.
pub fn audit_labels<I, W>(registry: &SecurityViews, requested: I, workload: W) -> AuditReport
where
    I: IntoIterator<Item = SecurityViewId>,
    W: IntoIterator<Item = DisclosureLabel>,
{
    let requested: BTreeSet<SecurityViewId> = requested.into_iter().collect();
    let requested_partition =
        PolicyPartition::from_views("requested", registry, requested.iter().copied());

    let mut used: BTreeSet<SecurityViewId> = BTreeSet::new();
    let mut uncovered_queries = Vec::new();
    for (index, label) in workload.into_iter().enumerate() {
        if !requested_partition.allows(&label) {
            uncovered_queries.push(index);
        }
        for atom in label.atoms() {
            for view in atom.views(registry) {
                if requested.contains(&view) {
                    used.insert(view);
                }
            }
        }
    }
    let unused: BTreeSet<SecurityViewId> = requested.difference(&used).copied().collect();
    AuditReport {
        requested,
        used,
        unused,
        uncovered_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{BitVectorLabeler, SecurityViews};
    use fdc_cq::parser::parse_query;

    fn setup() -> (SecurityViews, BitVectorLabeler) {
        let registry = SecurityViews::paper_example();
        (registry.clone(), BitVectorLabeler::new(registry))
    }

    #[test]
    fn a_tight_app_is_reported_as_tight() {
        let (registry, labeler) = setup();
        let catalog = registry.catalog();
        let v2 = registry.id_by_name("V2").unwrap();
        let workload = vec![parse_query(catalog, "Q(x) :- Meetings(x, y)").unwrap()];
        let report = audit_app(&labeler, [v2], &workload);
        assert!(report.is_tight());
        assert!(!report.is_overprivileged());
        assert_eq!(report.used.len(), 1);
        assert!(report.unused.is_empty());
        assert!(report.uncovered_queries.is_empty());
    }

    #[test]
    fn unused_permissions_are_flagged() {
        let (registry, labeler) = setup();
        let catalog = registry.catalog();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        // The app asks for contacts access but only ever queries meeting times.
        let workload = vec![parse_query(catalog, "Q(x) :- Meetings(x, y)").unwrap()];
        let report = audit_app(&labeler, [v2, v3], &workload);
        assert!(report.is_overprivileged());
        assert!(!report.is_tight());
        assert_eq!(report.unused, BTreeSet::from([v3]));
        let text = report.describe(&registry);
        assert!(text.contains("V3"));
        assert!(text.contains("unused"));
    }

    #[test]
    fn uncovered_queries_are_flagged() {
        let (registry, labeler) = setup();
        let catalog = registry.catalog();
        let v2 = registry.id_by_name("V2").unwrap();
        // The app asks only for meeting times but also queries full rows.
        let workload = vec![
            parse_query(catalog, "Q(x) :- Meetings(x, y)").unwrap(),
            parse_query(catalog, "Q(x, y) :- Meetings(x, y)").unwrap(),
        ];
        let report = audit_app(&labeler, [v2], &workload);
        assert_eq!(report.uncovered_queries, vec![1]);
        assert!(!report.is_tight());
        assert!(!report.is_overprivileged());
    }

    #[test]
    fn an_empty_workload_marks_everything_unused() {
        let (registry, labeler) = setup();
        let all: Vec<_> = registry.iter().map(|(id, _)| id).collect();
        let report = audit_app(&labeler, all.clone(), &[]);
        assert_eq!(report.unused.len(), all.len());
        assert!(report.used.is_empty());
        assert!(report.uncovered_queries.is_empty());
        assert!(report.is_overprivileged());
        assert!(report.describe(&registry).contains("(none)"));
    }

    #[test]
    fn requested_views_unions_the_policy_partitions() {
        use crate::partition::PolicyPartition;
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let policy = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1, v2]),
            PolicyPartition::from_views("contacts", &registry, [v3, v2]),
        ]);
        let requested = requested_views(&policy, &registry);
        assert_eq!(requested, BTreeSet::from([v1, v2, v3]));
        // Feeding the derived set into the audit works end to end.
        let catalog = registry.catalog();
        let workload =
            vec![fdc_cq::parser::parse_query(catalog, "Q(x) :- Meetings(x, y)").unwrap()];
        let report = audit_app(&labeler, requested, &workload);
        assert_eq!(report.unused, BTreeSet::from([v3]));
        assert!(requested_views(&SecurityPolicy::new(), &registry).is_empty());
    }

    #[test]
    fn requesting_a_stronger_view_than_needed_is_overprivilege() {
        let (registry, labeler) = setup();
        let catalog = registry.catalog();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        // The workload only needs V2, but the app requests both V1 and V2.
        // V1 *can* answer the query, so it shows up as used; the audit is
        // about per-permission need, and here both requested views answer
        // the workload, so neither is flagged.  Requesting V1 *instead of*
        // V2 would also be fine; requesting V3 would not.
        let workload = vec![parse_query(catalog, "Q(x) :- Meetings(x, y)").unwrap()];
        let report = audit_app(&labeler, [v1, v2], &workload);
        assert!(report.unused.is_empty());
        assert!(report.is_tight());
    }
}

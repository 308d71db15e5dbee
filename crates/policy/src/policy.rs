//! Security policies as collections of partitions (Section 6.2).
//!
//! A [`SecurityPolicy`] is the compact representation of Section 6.2: a
//! non-empty collection of [`PolicyPartition`]s `{W1, …, Wk}`.  The system
//! maintains the invariant that the labels of all answered queries stay
//! below at least one `Wi`:
//!
//! * with a single partition the policy is **stateless** — a query's fate
//!   never depends on the history (the equivalence argued at the start of
//!   Section 6.2);
//! * with several partitions the policy is a **Chinese Wall**: the first
//!   answered queries commit the principal to the partitions they fit in,
//!   and queries that would leave no partition consistent are refused.

use fdc_core::{DisclosureLabel, SecurityViews};

use crate::partition::PolicyPartition;

/// A security policy: one or more partitions of permitted security views.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecurityPolicy {
    partitions: Vec<PolicyPartition>,
}

impl SecurityPolicy {
    /// Creates a policy with no partitions.
    ///
    /// A policy with no partitions refuses every query whose label is not ⊥;
    /// add partitions with [`push`](Self::push).
    pub fn new() -> Self {
        SecurityPolicy {
            partitions: Vec::new(),
        }
    }

    /// A stateless policy with a single partition.
    pub fn stateless(partition: PolicyPartition) -> Self {
        SecurityPolicy {
            partitions: vec![partition],
        }
    }

    /// A Chinese-Wall policy: the principal may stay within any one of the
    /// given partitions, but may not combine them.
    pub fn chinese_wall<I: IntoIterator<Item = PolicyPartition>>(partitions: I) -> Self {
        SecurityPolicy {
            partitions: partitions.into_iter().collect(),
        }
    }

    /// Adds a partition.
    pub fn push(&mut self, partition: PolicyPartition) {
        self.partitions.push(partition);
    }

    /// The partitions.
    pub fn partitions(&self) -> &[PolicyPartition] {
        &self.partitions
    }

    /// Mutable access to the partitions — how an uncompiled policy (the
    /// reference monitor's, an arena source being built) takes a grant or
    /// revoke, in place (the partition *count* must not change under an
    /// enforcement store; see `PolicyStore::replace_policy`).
    pub fn partitions_mut(&mut self) -> &mut [PolicyPartition] {
        &mut self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True if the policy has no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// True if the policy is stateless (at most one partition), i.e. decisions
    /// never depend on the query history.
    pub fn is_stateless(&self) -> bool {
        self.partitions.len() <= 1
    }

    /// One past the highest relation id some partition permits a view on
    /// (0 when nothing is permitted): every relation the policy names is
    /// below it.  A policy fits a catalog of `n` relations exactly when
    /// this is at most `n`; it is also the number of relation rows the
    /// policy [compiles](crate::compiled::compile) to.
    ///
    /// A partition keeps its pairs sorted by relation and holds no zero
    /// mask, so its last pair names its highest relation: this reads one
    /// pair per partition, O(partitions), whatever the policy permits.
    pub fn relation_bound(&self) -> usize {
        self.partitions
            .iter()
            .filter_map(|partition| partition.pairs().last())
            .map(|&(relation, _)| relation.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Does some partition allow this (cumulative) label?
    pub fn allows(&self, label: &DisclosureLabel) -> bool {
        if label.is_bottom() {
            return true;
        }
        self.partitions.iter().any(|p| p.allows(label))
    }

    /// The indices of the partitions that allow the label.
    pub fn consistent_partitions(&self, label: &DisclosureLabel) -> Vec<usize> {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.allows(label))
            .map(|(i, _)| i)
            .collect()
    }

    /// A permissive policy that allows every registered security view in a
    /// single partition — useful as a default and in tests.
    pub fn allow_all(registry: &SecurityViews) -> Self {
        let ids: Vec<_> = registry.iter().map(|(id, _)| id).collect();
        SecurityPolicy::stateless(PolicyPartition::from_views("allow-all", registry, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{BaselineLabeler, QueryLabeler};
    use fdc_cq::parser::parse_query;

    fn setup() -> (SecurityViews, BaselineLabeler) {
        let registry = SecurityViews::paper_example();
        let labeler = BaselineLabeler::new(registry.clone());
        (registry, labeler)
    }

    #[test]
    fn stateless_policies_have_one_partition() {
        let (registry, _) = setup();
        let policy = SecurityPolicy::allow_all(&registry);
        assert!(policy.is_stateless());
        assert_eq!(policy.len(), 1);
        assert!(!policy.is_empty());
    }

    #[test]
    fn example_6_2_chinese_wall_policy() {
        // W1 = {V1} (Meetings), W2 = {V3} (Contacts): access either relation
        // but not both.
        let (registry, labeler) = setup();
        let catalog = registry.catalog().clone();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let policy = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        assert!(!policy.is_stateless());
        assert_eq!(policy.len(), 2);

        let meetings_label =
            labeler.label_query(&parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap());
        let contacts_label =
            labeler.label_query(&parse_query(&catalog, "Q(x) :- Contacts(x, y, z)").unwrap());
        // Each label individually is allowed (by its own partition).
        assert!(policy.allows(&meetings_label));
        assert!(policy.allows(&contacts_label));
        assert_eq!(policy.consistent_partitions(&meetings_label), vec![0]);
        assert_eq!(policy.consistent_partitions(&contacts_label), vec![1]);
        // Their combination is not allowed by any single partition.
        let both = meetings_label.combine(&contacts_label);
        assert!(!policy.allows(&both));
        assert!(policy.consistent_partitions(&both).is_empty());
    }

    #[test]
    fn empty_policies_allow_only_bottom() {
        let (_, labeler) = setup();
        let catalog = labeler.security_views().catalog().clone();
        let policy = SecurityPolicy::new();
        assert!(policy.is_empty());
        assert!(policy.allows(&DisclosureLabel::bottom()));
        let label = labeler.label_query(&parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap());
        assert!(!policy.allows(&label));
    }

    #[test]
    fn pushing_partitions_extends_the_policy() {
        let (registry, labeler) = setup();
        let catalog = registry.catalog().clone();
        let v2 = registry.id_by_name("V2").unwrap();
        let mut policy = SecurityPolicy::new();
        policy.push(PolicyPartition::from_views("times", &registry, [v2]));
        assert_eq!(policy.len(), 1);

        let times = labeler.label_query(&parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap());
        assert!(policy.allows(&times));
        let full =
            labeler.label_query(&parse_query(&catalog, "Q(x, y) :- Meetings(x, y)").unwrap());
        assert!(!policy.allows(&full));
    }
}

//! The reference monitor (Sections 3.4 and 6.2) — the specification.
//!
//! The monitor inspects each incoming query's disclosure label and accepts
//! or refuses the query so that the security policy is never violated, even
//! cumulatively.  Following Section 6.2 it does **not** keep the query
//! history: it keeps one bit per policy partition ("is the set of queries
//! answered so far still below `Wi`?") and updates those bits only when a
//! query is answered — Example 6.3's `⟨1, 1⟩ → ⟨1, 0⟩ → …` walk-through.
//!
//! [`ReferenceMonitor`] is that paragraph and nothing more: one principal,
//! the [`SecurityPolicy`] as it was written, and
//! [`PolicyPartition::allows`](crate::PolicyPartition::allows) asked of
//! every partition whose bit is still set.  No served request reaches it —
//! the service decides through [`PolicyStore`](crate::PolicyStore), which
//! compiles policies and runs the decide loop of [`crate::compiled`] — and
//! it shares no code with that loop on purpose: it is what the compiled
//! form is checked against (`tests/store_equivalence.rs` drives both
//! through the same random submits, checks, grants and revokes), and what
//! the examples use to show the paper's semantics in the open.

use fdc_core::DisclosureLabel;

use crate::compiled::initial_consistency_word;
use crate::policy::SecurityPolicy;

pub use crate::compiled::MAX_PARTITIONS;

/// The decision taken for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The query may be answered.
    Allow,
    /// Answering the query would violate the policy (possibly only in
    /// combination with previously answered queries); it is refused.
    Deny,
}

impl Decision {
    /// True for [`Decision::Allow`].
    pub fn is_allow(self) -> bool {
        matches!(self, Decision::Allow)
    }
}

/// A stateful reference monitor for one principal.
///
/// # Example
///
/// Example 6.2/6.3 of the paper: a Chinese Wall over Meetings and Contacts.
///
/// ```
/// use fdc_core::{BaselineLabeler, QueryLabeler, SecurityViews};
/// use fdc_cq::parser::parse_query;
/// use fdc_policy::{PolicyPartition, ReferenceMonitor, SecurityPolicy};
///
/// let registry = SecurityViews::paper_example();
/// let catalog = registry.catalog().clone();
/// let labeler = BaselineLabeler::new(registry.clone());
/// let v1 = registry.id_by_name("V1").unwrap();
/// let v3 = registry.id_by_name("V3").unwrap();
/// let policy = SecurityPolicy::chinese_wall([
///     PolicyPartition::from_views("meetings", &registry, [v1]),
///     PolicyPartition::from_views("contacts", &registry, [v3]),
/// ]);
/// let mut monitor = ReferenceMonitor::new(policy);
///
/// let meetings_query = parse_query(&catalog, "Q(x, y) :- Meetings(x, y)").unwrap();
/// let contacts_query = parse_query(&catalog, "Q(x, y, z) :- Contacts(x, y, z)").unwrap();
///
/// // The first query commits the principal to the Meetings side of the wall…
/// assert!(monitor.submit(&labeler.label_query(&meetings_query)).is_allow());
/// // …so Contacts queries are now refused.
/// assert!(!monitor.submit(&labeler.label_query(&contacts_query)).is_allow());
/// // Meetings queries keep working.
/// assert!(monitor.submit(&labeler.label_query(&meetings_query)).is_allow());
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceMonitor {
    policy: SecurityPolicy,
    /// Bit `i` set ⇔ the queries answered so far are below partition `i`.
    consistent: u64,
    answered: u64,
    refused: u64,
}

impl ReferenceMonitor {
    /// Creates a monitor enforcing `policy`, with an empty query history.
    ///
    /// # Panics
    ///
    /// Panics if the policy has more than [`MAX_PARTITIONS`] partitions.
    pub fn new(policy: SecurityPolicy) -> Self {
        ReferenceMonitor {
            consistent: initial_consistency_word(policy.len()),
            policy,
            answered: 0,
            refused: 0,
        }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &SecurityPolicy {
        &self.policy
    }

    /// Replaces the policy, keeping the consistency bits and counters —
    /// the specification of
    /// [`PolicyStore::replace_policy`](crate::PolicyStore::replace_policy),
    /// and through it of a grant or revoke: only *future* queries are
    /// judged by the new partitions.
    ///
    /// # Panics
    ///
    /// Panics if the partition count changes (bit `i` must keep meaning
    /// partition `i`).
    pub fn replace_policy(&mut self, policy: SecurityPolicy) {
        assert_eq!(
            policy.len(),
            self.policy.len(),
            "replace_policy must preserve the partition count"
        );
        self.policy = policy;
    }

    /// The consistency bit vector (Example 6.3): bit `i` is set when the
    /// answered queries are still below partition `i`.
    pub fn consistency_bits(&self) -> u64 {
        self.consistent
    }

    /// Number of queries answered so far.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// Number of queries refused so far.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// The bit vector after answering a query with this label: the
    /// partitions that are consistent with the history so far and also
    /// allow the label.
    fn surviving(&self, label: &DisclosureLabel) -> u64 {
        let mut surviving = 0;
        for (i, partition) in self.policy.partitions().iter().enumerate() {
            if self.consistent & (1 << i) != 0 && partition.allows(label) {
                surviving |= 1 << i;
            }
        }
        surviving
    }

    /// Would answering a query with this label keep the policy satisfied?
    ///
    /// Pure check: does not update the monitor state.
    pub fn check(&self, label: &DisclosureLabel) -> Decision {
        if label.is_bottom() || self.surviving(label) != 0 {
            Decision::Allow
        } else {
            Decision::Deny
        }
    }

    /// Submits a query's label: answers it if possible (updating the
    /// cumulative state) and refuses it otherwise (leaving the state
    /// unchanged, as in Example 6.3).
    pub fn submit(&mut self, label: &DisclosureLabel) -> Decision {
        if label.is_bottom() {
            self.answered += 1;
            return Decision::Allow;
        }
        let surviving = self.surviving(label);
        if surviving != 0 {
            self.consistent = surviving;
            self.answered += 1;
            Decision::Allow
        } else {
            self.refused += 1;
            Decision::Deny
        }
    }

    /// Resets the history (e.g. when the principal's session ends).
    pub fn reset(&mut self) {
        self.consistent = initial_consistency_word(self.policy.len());
        self.answered = 0;
        self.refused = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PolicyPartition;
    use fdc_core::{BaselineLabeler, QueryLabeler, SecurityViews};
    use fdc_cq::parser::parse_query;

    struct Fixture {
        labeler: BaselineLabeler,
        registry: SecurityViews,
    }

    impl Fixture {
        fn new() -> Self {
            let registry = SecurityViews::paper_example();
            Fixture {
                labeler: BaselineLabeler::new(registry.clone()),
                registry,
            }
        }

        fn label(&self, text: &str) -> DisclosureLabel {
            let catalog = self.registry.catalog();
            self.labeler
                .label_query(&parse_query(catalog, text).unwrap())
        }

        fn chinese_wall(&self) -> SecurityPolicy {
            let v1 = self.registry.id_by_name("V1").unwrap();
            let v3 = self.registry.id_by_name("V3").unwrap();
            SecurityPolicy::chinese_wall([
                PolicyPartition::from_views("meetings", &self.registry, [v1]),
                PolicyPartition::from_views("contacts", &self.registry, [v3]),
            ])
        }
    }

    #[test]
    fn example_6_3_bit_vector_walkthrough() {
        let fx = Fixture::new();
        let mut monitor = ReferenceMonitor::new(fx.chinese_wall());
        // Initially ⟨1, 1⟩.
        assert_eq!(monitor.consistency_bits(), 0b11);

        // V6-style Contacts projection: allowed, commits to partition 2
        // (bit 1 in our 0-indexed encoding): ⟨0, 1⟩ ... the paper's example
        // uses Contacts views so the surviving partition is "contacts".
        let contacts_proj = fx.label("Q(x, y) :- Contacts(x, y, z)");
        assert!(monitor.submit(&contacts_proj).is_allow());
        assert_eq!(monitor.consistency_bits(), 0b10);

        // Another Contacts projection: still allowed, bits unchanged.
        let contacts_proj2 = fx.label("Q(x, z) :- Contacts(x, y, z)");
        assert!(monitor.submit(&contacts_proj2).is_allow());
        assert_eq!(monitor.consistency_bits(), 0b10);

        // A Meetings query would leave no consistent partition: refused, and
        // crucially the bits stay ⟨0, 1⟩ rather than dropping to ⟨0, 0⟩.
        let meetings = fx.label("Q(x) :- Meetings(x, y)");
        assert!(!monitor.submit(&meetings).is_allow());
        assert_eq!(monitor.consistency_bits(), 0b10);

        // Contacts queries continue to be answered afterwards.
        assert!(monitor.submit(&contacts_proj).is_allow());
        assert_eq!(monitor.answered(), 3);
        assert_eq!(monitor.refused(), 1);
    }

    #[test]
    fn stateless_policies_never_depend_on_history() {
        let fx = Fixture::new();
        let v2 = fx.registry.id_by_name("V2").unwrap();
        let policy =
            SecurityPolicy::stateless(PolicyPartition::from_views("times", &fx.registry, [v2]));
        let mut monitor = ReferenceMonitor::new(policy);

        let times = fx.label("Q(x) :- Meetings(x, y)");
        let full = fx.label("Q(x, y) :- Meetings(x, y)");
        for _ in 0..5 {
            assert!(monitor.submit(&times).is_allow());
            assert!(!monitor.submit(&full).is_allow());
        }
        // check() is pure: repeated checks do not change decisions.
        assert!(monitor.check(&times).is_allow());
        assert!(!monitor.check(&full).is_allow());
        assert_eq!(monitor.answered(), 5);
        assert_eq!(monitor.refused(), 5);
    }

    #[test]
    fn cumulative_disclosure_is_limited_even_within_one_partition() {
        let fx = Fixture::new();
        // Permit only V2 (meeting times) and V3 (contacts): the two
        // projections of Meetings can never be combined into the full view
        // because V1 is simply not permitted.
        let v2 = fx.registry.id_by_name("V2").unwrap();
        let v3 = fx.registry.id_by_name("V3").unwrap();
        let policy = SecurityPolicy::stateless(PolicyPartition::from_views(
            "times+contacts",
            &fx.registry,
            [v2, v3],
        ));
        let mut monitor = ReferenceMonitor::new(policy);

        assert!(monitor
            .submit(&fx.label("Q(x) :- Meetings(x, y)"))
            .is_allow());
        assert!(monitor
            .submit(&fx.label("Q(x, y, z) :- Contacts(x, y, z)"))
            .is_allow());
        // The full Meetings relation stays out of reach.
        assert!(!monitor
            .submit(&fx.label("Q(x, y) :- Meetings(x, y)"))
            .is_allow());
        // So does the join (its Meetings atom needs V1).
        assert!(!monitor
            .submit(&fx.label("Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')"))
            .is_allow());
    }

    #[test]
    fn bottom_labels_are_always_allowed() {
        let fx = Fixture::new();
        let mut monitor = ReferenceMonitor::new(SecurityPolicy::new());
        assert!(monitor.submit(&DisclosureLabel::bottom()).is_allow());
        assert!(monitor.check(&DisclosureLabel::bottom()).is_allow());
        // But anything else is refused by the empty policy.
        assert!(!monitor
            .submit(&fx.label("Q(x) :- Meetings(x, y)"))
            .is_allow());
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let fx = Fixture::new();
        let mut monitor = ReferenceMonitor::new(fx.chinese_wall());
        assert!(monitor
            .submit(&fx.label("Q(x, y) :- Contacts(x, y, z)"))
            .is_allow());
        assert_eq!(monitor.consistency_bits(), 0b10);
        monitor.reset();
        assert_eq!(monitor.consistency_bits(), 0b11);
        assert_eq!(monitor.answered(), 0);
        assert_eq!(monitor.refused(), 0);
        // After the reset the principal can choose the Meetings side instead.
        assert!(monitor
            .submit(&fx.label("Q(x, y) :- Meetings(x, y)"))
            .is_allow());
        assert_eq!(monitor.consistency_bits(), 0b01);
    }

    #[test]
    fn decision_helpers() {
        assert!(Decision::Allow.is_allow());
        assert!(!Decision::Deny.is_allow());
        let fx = Fixture::new();
        let monitor = ReferenceMonitor::new(SecurityPolicy::allow_all(&fx.registry));
        assert_eq!(monitor.policy().len(), 1);
        assert!(monitor
            .check(&fx.label("Q(x, y) :- Meetings(x, y)"))
            .is_allow());
    }

    #[test]
    fn monitors_reject_oversized_policies() {
        let registry = SecurityViews::paper_example();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut policy = SecurityPolicy::new();
        for i in 0..=MAX_PARTITIONS {
            policy.push(PolicyPartition::from_views(
                format!("p{i}"),
                &registry,
                [v1],
            ));
        }
        let result = std::panic::catch_unwind(|| ReferenceMonitor::new(policy));
        assert!(result.is_err(), "65-partition policy must be rejected");
    }
}

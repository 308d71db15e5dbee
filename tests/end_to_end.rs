//! End-to-end integration tests over the evaluation ecosystem: workload
//! generation → labeling → policy enforcement, checking the cross-cutting
//! invariants that hold across crate boundaries.

use fdc::core::QueryLabeler;
use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use fdc::policy::{PolicyPartition, ReferenceMonitor, SecurityPolicy};

#[test]
fn the_three_labelers_agree_across_a_large_stress_workload() {
    let eco = Ecosystem::new();
    let mut workload = eco.workload(WorkloadConfig::stress(5, 2024));
    for query in workload.batch(300) {
        let a = eco.baseline.label_query(&query);
        let b = eco.hashed.label_query(&query);
        let c = eco.bitvec.label_query(&query);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

#[test]
fn labels_are_monotone_under_query_combination() {
    // Labeling a set of queries discloses at least as much as labeling any
    // of its members (axiom (c)/(d) of Definition 3.4, end to end).
    let eco = Ecosystem::new();
    let mut workload = eco.workload(WorkloadConfig::base(7));
    let queries = workload.batch(100);
    for chunk in queries.chunks(4) {
        let combined = eco.bitvec.label_queries(chunk);
        for q in chunk {
            let single = eco.bitvec.label_query(q);
            assert!(
                single.leq(&combined),
                "individual label must be below the cumulative label"
            );
        }
    }
}

#[test]
fn allowed_queries_are_exactly_those_below_the_partition() {
    // For stateless policies, the reference monitor's decision must coincide
    // with the declarative definition: answer Q iff label(Q) ⪯ W.
    let eco = Ecosystem::new();
    let mut workload = eco.workload(WorkloadConfig::base(99));
    let queries = workload.batch(200);

    // Permit everything about the User relation plus photo metadata.
    let permitted: Vec<_> = eco
        .views
        .iter()
        .filter(|(_, v)| {
            let name = &v.name;
            name.starts_with("user_") || name == "photo_meta" || name == "photo_presence"
        })
        .map(|(id, _)| id)
        .collect();
    let partition = PolicyPartition::from_views("user-and-photo-meta", &eco.views, permitted);
    let policy = SecurityPolicy::stateless(partition.clone());

    for query in &queries {
        let label = eco.label(query);
        let mut monitor = ReferenceMonitor::new(policy.clone());
        let decision = monitor.submit(&label);
        assert_eq!(
            decision.is_allow(),
            partition.allows(&label),
            "monitor and declarative check disagree on {query:?}"
        );
    }
}

#[test]
fn chinese_wall_commitments_are_sticky_and_consistent() {
    // Once a principal is committed to a subset of partitions, the set of
    // still-consistent partitions never grows.
    let eco = Ecosystem::new();
    let mut policies = eco.policy_generator(PolicyGeneratorConfig {
        max_partitions: 5,
        max_elements_per_partition: 15,
        template_pool: 0,
        seed: 31,
    });
    let mut workload = eco.workload(WorkloadConfig::base(13));
    for _ in 0..20 {
        let policy = policies.next_policy(&eco.views);
        let mut monitor = ReferenceMonitor::new(policy);
        let mut previous = monitor.consistency_bits();
        for query in workload.batch(30) {
            let label = eco.label(&query);
            let decision = monitor.submit(&label);
            let current = monitor.consistency_bits();
            // Bits only ever get cleared, and only on an allowed query.
            assert_eq!(current & !previous, 0, "consistency bits grew");
            if !decision.is_allow() {
                assert_eq!(current, previous, "a refused query changed the state");
            } else {
                assert_ne!(current, 0, "an allowed query left no consistent partition");
            }
            previous = current;
        }
    }
}

#[test]
fn cumulative_enforcement_never_exceeds_any_partition() {
    // Invariant of Section 6.2: at every point, the cumulative label of the
    // answered queries is below at least one policy partition.
    let eco = Ecosystem::new();
    let mut policies = eco.policy_generator(PolicyGeneratorConfig {
        max_partitions: 3,
        max_elements_per_partition: 12,
        template_pool: 0,
        seed: 5,
    });
    let policy = policies.next_policy(&eco.views);
    let mut monitor = ReferenceMonitor::new(policy.clone());
    let mut workload = eco.workload(WorkloadConfig::base(21));

    let mut cumulative = fdc::core::DisclosureLabel::bottom();
    for query in workload.batch(200) {
        let label = eco.label(&query);
        if monitor.submit(&label).is_allow() {
            cumulative.combine_in_place(&label);
            assert!(
                policy.partitions().iter().any(|p| p.allows(&cumulative)),
                "cumulative disclosure exceeded every partition"
            );
        }
    }
}

#[test]
fn case_study_and_ecosystem_compose_through_the_umbrella_crate() {
    // Smoke test that the whole public surface is wired together.
    let report = fdc::casestudy::review_documentation();
    assert_eq!(report.views_compared, 42);
    assert_eq!(report.discrepancies.len(), 6);

    let eco = Ecosystem::new();
    assert_eq!(eco.views.len(), 37);
    let auto = fdc::casestudy::autolabel::autolabel_report();
    assert!(auto.iter().all(|row| row.matches));
}

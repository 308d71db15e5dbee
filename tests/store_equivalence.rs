//! Property-based equivalence of every policy-enforcement surface.
//!
//! Random multi-principal workloads — random policies (including empty and
//! single-partition ones) over the paper's security views, random disclosure
//! labels, random interleavings of submits, pure checks, grants, revokes and
//! whole-policy replacements — are driven simultaneously through:
//!
//! * a flat [`PolicyStore`] on unpacked labels,
//! * a second [`PolicyStore`] on the packed 64-bit path,
//! * and one [`ReferenceMonitor`] per principal — the specification: it
//!   holds the policy as written, decides with [`PolicyPartition::allows`]
//!   and takes a grant or revoke as [`PolicyPartition::permit`] /
//!   [`PolicyPartition::revoke`] on that policy, sharing neither the
//!   compiled form nor the decide loop of the stores.
//!
//! Every decision, every consistency bit vector, every counter and every
//! principal's policy must agree at every step.  A second property pins the
//! identity the stores' interning arena gives a policy.
//!
//! A third pins the compiled-form mutations — a grant or revoke is a bit
//! flip on a copy of the principal's span — against the boxed path they
//! replaced: clone the principal's source policy, permit or revoke the view
//! in every partition, compile the clone and intern it (`replace_policy`).
//! Arena ids, spans, sources, consistency words, decisions and checkpoint
//! bytes must be identical; named cases cover the table growing and
//! shrinking, a revoke that changes nothing, a policy with no partitions
//! and two principals converging on one form.

use fdc::core::{AtomLabel, DisclosureLabel, SecurityViewId, SecurityViews, ViewMask};
use fdc::cq::RelId;
use fdc::policy::compiled::compile;
use fdc::policy::{PolicyPartition, PolicyStore, PrincipalId, ReferenceMonitor, SecurityPolicy};
use proptest::prelude::*;

/// Strategy: one random policy as partition view-index lists (0..=3
/// partitions of 1..=6 views each, indices into the registry's view list).
/// An empty outer vec is the empty policy, which refuses everything but ⊥.
fn policy_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..37, 1..=6), 0..=3)
}

/// Strategy: one random disclosure label as raw (relation, mask) atoms.
/// Relation ids cover the 8-relation Facebook-like space plus one id (8)
/// never covered by any policy; masks span the view-bit range the paper's
/// registries use (`User` has 16 views, so up to 16 bits).
fn label_strategy() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((0u32..9, 1u64..0x1_0000), 1..=3)
}

/// One workload op; `who` is a principal index (taken modulo the number of
/// principals), `view` an index into the registry's view list.
#[derive(Debug, Clone)]
enum Op {
    Submit {
        who: usize,
        label: Vec<(u32, u64)>,
    },
    Check {
        who: usize,
        label: Vec<(u32, u64)>,
    },
    Grant {
        who: usize,
        view: usize,
    },
    Revoke {
        who: usize,
        view: usize,
    },
    /// Replace the policy by this one, cut or padded (with partitions that
    /// permit nothing) to the principal's partition count.
    Replace {
        who: usize,
        raw: Vec<Vec<usize>>,
    },
}

/// Strategy: submits half of the time, checks a fifth, the three mutations
/// a tenth each.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0usize..64,
        label_strategy(),
        0usize..37,
        policy_strategy(),
    )
        .prop_map(|(kind, who, label, view, raw)| match kind {
            0..=4 => Op::Submit { who, label },
            5..=6 => Op::Check { who, label },
            7 => Op::Grant { who, view },
            8 => Op::Revoke { who, view },
            _ => Op::Replace { who, raw },
        })
}

fn view_ids(registry: &SecurityViews) -> Vec<SecurityViewId> {
    registry.iter().map(|(id, _)| id).collect()
}

fn build_policy(registry: &SecurityViews, raw: &[Vec<usize>]) -> SecurityPolicy {
    let views = view_ids(registry);
    let mut policy = SecurityPolicy::new();
    for (p, indices) in raw.iter().enumerate() {
        let mut partition = PolicyPartition::new(format!("partition-{p}"));
        for &i in indices {
            partition.permit(registry, views[i % views.len()]);
        }
        policy.push(partition);
    }
    policy
}

fn build_label(raw: &[(u32, u64)]) -> DisclosureLabel {
    DisclosureLabel::from_atoms(
        raw.iter()
            .map(|&(rel, mask)| AtomLabel::new(RelId(rel), mask))
            .collect(),
    )
}

/// What a policy *is* to the enforcement layer: per partition, in
/// declaration order, the sorted `(relation, permitted mask)` list — names
/// dropped.
fn mask_lists(policy: &SecurityPolicy) -> Vec<Vec<(RelId, ViewMask)>> {
    policy
        .partitions()
        .iter()
        .map(PolicyPartition::masks)
        .collect()
}

/// A grant (`grant`) or revoke the boxed way: the principal's source
/// policy, cloned, the view permitted or revoked in every partition, and
/// the clone compiled and interned by `replace_policy`.
fn boxed_edit(
    store: &mut PolicyStore,
    p: PrincipalId,
    registry: &SecurityViews,
    view: SecurityViewId,
    grant: bool,
) {
    let mut policy = store.policy(p).clone();
    for partition in policy.partitions_mut() {
        if grant {
            partition.permit(registry, view);
        } else {
            partition.revoke(registry, view);
        }
    }
    store.replace_policy(p, policy);
}

/// Panics unless the two stores hold the same arena — ids, spans, sources
/// and hit counts — and encode to the same checkpoint bytes.
fn assert_same_stores(compiled: &PolicyStore, boxed: &PolicyStore) {
    let (a, b) = (compiled.arena(), boxed.arena());
    assert_eq!((a.len(), a.hits()), (b.len(), b.hits()));
    for id in 0..a.len() as u32 {
        assert_eq!(a.span(id), b.span(id), "span of {id}");
        assert_eq!(a.source(id), b.source(id), "source of {id}");
        assert_eq!(
            compile(a.source(id)),
            a.span(id),
            "{id}'s source compiles to its span"
        );
    }
    let (mut x, mut y) = (Vec::new(), Vec::new());
    compiled.encode_into(&mut x);
    boxed.encode_into(&mut y);
    assert_eq!(x, y, "checkpoint bytes");
}

fn registry() -> SecurityViews {
    // The ecosystem's 37-view registry: 16 views on User, 3 on each of the
    // other seven relations — enough mask diversity for meaningful walls.
    fdc::ecosystem::Ecosystem::new().views
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_enforcement_surfaces_agree(
        policies in proptest::collection::vec(policy_strategy(), 1..=10),
        ops in proptest::collection::vec(op_strategy(), 1..=60),
    ) {
        let registry = registry();
        let views = view_ids(&registry);
        let mut flat = PolicyStore::new();
        let mut flat_packed = PolicyStore::new();
        let mut monitors = Vec::new();
        for raw in &policies {
            let policy = build_policy(&registry, raw);
            flat.register(policy.clone());
            flat_packed.register(policy.clone());
            monitors.push(ReferenceMonitor::new(policy));
        }

        for op in &ops {
            let (Op::Submit { who, .. }
            | Op::Check { who, .. }
            | Op::Grant { who, .. }
            | Op::Revoke { who, .. }
            | Op::Replace { who, .. }) = op;
            let p = PrincipalId((who % policies.len()) as u32);
            let monitor = &mut monitors[p.index()];
            match op {
                Op::Submit { label, .. } => {
                    let label = build_label(label);
                    let packed = label.pack();
                    let expected = monitor.submit(&label);
                    prop_assert_eq!(flat.submit(p, &label), expected);
                    prop_assert_eq!(flat_packed.submit_packed(p, &packed), expected);
                }
                Op::Check { label, .. } => {
                    let label = build_label(label);
                    let packed = label.pack();
                    let expected = monitor.check(&label);
                    prop_assert_eq!(flat.check(p, &label), expected);
                    prop_assert_eq!(flat_packed.check_packed(p, &packed), expected);
                }
                Op::Grant { view, .. } | Op::Revoke { view, .. } => {
                    let view = views[view % views.len()];
                    let grant = matches!(op, Op::Grant { .. });
                    // The specification of a grant / revoke: the view joins
                    // / leaves every partition of the policy as written.
                    let mut policy = monitor.policy().clone();
                    for partition in policy.partitions_mut() {
                        if grant {
                            partition.permit(&registry, view);
                        } else {
                            partition.revoke(&registry, view);
                        }
                    }
                    monitor.replace_policy(policy);
                    if grant {
                        flat.grant_view(p, &registry, view);
                        flat_packed.grant_view(p, &registry, view);
                    } else {
                        flat.revoke_view(p, &registry, view);
                        flat_packed.revoke_view(p, &registry, view);
                    }
                }
                Op::Replace { raw, .. } => {
                    let parts: Vec<Vec<usize>> = (0..monitor.policy().len())
                        .map(|i| raw.get(i).cloned().unwrap_or_default())
                        .collect();
                    let policy = build_policy(&registry, &parts);
                    flat.replace_policy(p, policy.clone());
                    flat_packed.replace_policy(p, policy.clone());
                    monitor.replace_policy(policy);
                }
            }
            // Consistency bits and the policy itself agree after every op,
            // mutating or not.
            let bits = monitor.consistency_bits();
            prop_assert_eq!(flat.consistency_bits(p), bits);
            prop_assert_eq!(flat_packed.consistency_bits(p), bits);
            let masks = mask_lists(monitor.policy());
            prop_assert_eq!(mask_lists(flat.policy(p)), masks.clone());
            prop_assert_eq!(mask_lists(flat_packed.policy(p)), masks);
        }

        // Per-principal counters and O(1) totals match the monitors.
        let mut answered = 0u64;
        let mut refused = 0u64;
        for (i, monitor) in monitors.iter().enumerate() {
            let p = PrincipalId(i as u32);
            let expected = (monitor.answered(), monitor.refused());
            prop_assert_eq!(flat.stats(p), expected);
            prop_assert_eq!(flat_packed.stats(p), expected);
            answered += expected.0;
            refused += expected.1;
        }
        prop_assert_eq!(flat.totals(), (answered, refused));
    }

    #[test]
    fn interning_never_changes_decisions(
        raw_policy in policy_strategy(),
        raw_labels in proptest::collection::vec(label_strategy(), 1..=20),
    ) {
        // Many principals sharing one interned policy must each behave like
        // an independent monitor over that policy.
        let registry = registry();
        let policy = build_policy(&registry, &raw_policy);
        let mut store = PolicyStore::new();
        let principals: Vec<PrincipalId> =
            (0..8).map(|_| store.register(policy.clone())).collect();
        prop_assert_eq!(store.unique_policies(), 1);
        let mut monitor = ReferenceMonitor::new(policy);
        // Submit the same sequence to every principal: identical walks.
        for raw in &raw_labels {
            let label = build_label(raw);
            let expected = monitor.submit(&label);
            for &p in &principals {
                prop_assert_eq!(store.submit(p, &label), expected);
                prop_assert_eq!(store.consistency_bits(p), monitor.consistency_bits());
            }
        }
    }

    #[test]
    fn an_arena_id_is_the_mask_lists_and_nothing_else(
        raw_policies in proptest::collection::vec(policy_strategy(), 1..=8),
    ) {
        // `PolicyStore::policy` hands out the arena's one source policy per
        // id, so two principals share an id exactly when it hands both the
        // same reference.
        let registry = registry();
        let views = view_ids(&registry);
        let mut store = PolicyStore::new();
        let mut principals = Vec::new();
        for raw in &raw_policies {
            // Each policy twice, the second time under other partition
            // names and with a partition's views listed in another order.
            let policy = build_policy(&registry, raw);
            let mut renamed = SecurityPolicy::new();
            for (i, indices) in raw.iter().enumerate() {
                let ids = indices.iter().rev().map(|&v| views[v % views.len()]);
                renamed.push(PolicyPartition::from_views(format!("other-{i}"), &registry, ids));
            }
            for policy in [policy, renamed] {
                principals.push((store.register(policy.clone()), mask_lists(&policy)));
            }
        }
        let mut distinct: Vec<&Vec<Vec<(RelId, ViewMask)>>> =
            principals.iter().map(|(_, masks)| masks).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(store.unique_policies(), distinct.len());
        for (a, masks_a) in &principals {
            for (b, masks_b) in &principals {
                prop_assert_eq!(
                    std::ptr::eq(store.policy(*a), store.policy(*b)),
                    masks_a == masks_b
                );
            }
        }

        // Granting a view no partition holds and revoking it again is the
        // policy that never had it: the principal lands back on its id and
        // the revoke adds no form.  The compiled form is sized by the
        // highest relation a policy names, and the registry's last views
        // sit on its highest relations, so this covers the grant that grows
        // the table and the revoke that must shrink it back.
        for (p, _) in &principals {
            // Appending moves the arena's policies, so the id a principal
            // started on is witnessed by a twin that stays on it.
            let policy = store.policy(*p).clone();
            let twin = store.register(policy.clone());
            for &view in &views {
                let (relation, bit) = (registry.view(view).relation, registry.view(view).bit);
                if policy
                    .partitions()
                    .iter()
                    .any(|partition| partition.permitted_mask(relation) >> bit & 1 != 0)
                {
                    continue;
                }
                store.grant_view(*p, &registry, view);
                prop_assert_eq!(
                    std::ptr::eq(store.policy(*p), store.policy(twin)),
                    policy.is_empty(),
                    "a grant changes every policy that has a partition"
                );
                let forms = store.unique_policies();
                store.revoke_view(*p, &registry, view);
                prop_assert!(std::ptr::eq(store.policy(*p), store.policy(twin)));
                prop_assert_eq!(store.unique_policies(), forms);
            }
        }
    }
}

/// Regression for the seed's missing validation: registering a policy with
/// more than `MAX_PARTITIONS` partitions must be rejected at registration
/// time (the seed overflowed `u64::MAX >> (64 - n)` instead).
#[test]
fn oversized_policies_are_rejected_by_every_surface() {
    let registry = registry();
    let views: Vec<_> = registry.iter().map(|(id, _)| id).collect();
    let mut policy = SecurityPolicy::new();
    for i in 0..=fdc::policy::MAX_PARTITIONS {
        policy.push(PolicyPartition::from_views(
            format!("p{i}"),
            &registry,
            [views[0]],
        ));
    }
    let for_store = policy.clone();
    assert!(std::panic::catch_unwind(move || PolicyStore::new().register(for_store)).is_err());
    assert!(std::panic::catch_unwind(move || ReferenceMonitor::new(policy)).is_err());
    // Exactly MAX_PARTITIONS partitions remain valid.
    let mut at_limit = SecurityPolicy::new();
    for i in 0..fdc::policy::MAX_PARTITIONS {
        at_limit.push(PolicyPartition::from_views(
            format!("p{i}"),
            &registry,
            [views[0]],
        ));
    }
    let mut store = PolicyStore::new();
    let p = store.register(at_limit);
    assert_eq!(store.consistency_bits(p), u64::MAX);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_form_mutations_match_the_boxed_path(
        policies in proptest::collection::vec(policy_strategy(), 1..=6),
        ops in proptest::collection::vec(
            (op_strategy(), 0u8..8, policy_strategy()),
            1..=60,
        ),
    ) {
        let registry = registry();
        let views = view_ids(&registry);
        let mut compiled = PolicyStore::new();
        let mut boxed = PolicyStore::new();
        for raw in &policies {
            compiled.register(build_policy(&registry, raw));
            boxed.register(build_policy(&registry, raw));
        }
        for (op, register, raw) in &ops {
            // One op in eight registers a principal first.
            if *register == 0 {
                compiled.register(build_policy(&registry, raw));
                boxed.register(build_policy(&registry, raw));
            }
            let (Op::Submit { who, .. }
            | Op::Check { who, .. }
            | Op::Grant { who, .. }
            | Op::Revoke { who, .. }
            | Op::Replace { who, .. }) = op;
            let p = PrincipalId((who % compiled.len()) as u32);
            match op {
                Op::Submit { label, .. } => {
                    let label = build_label(label);
                    prop_assert_eq!(compiled.submit(p, &label), boxed.submit(p, &label));
                }
                Op::Check { label, .. } => {
                    let label = build_label(label);
                    prop_assert_eq!(compiled.check(p, &label), boxed.check(p, &label));
                }
                Op::Grant { view, .. } | Op::Revoke { view, .. } => {
                    let view = views[view % views.len()];
                    let grant = matches!(op, Op::Grant { .. });
                    if grant {
                        compiled.grant_view(p, &registry, view);
                    } else {
                        compiled.revoke_view(p, &registry, view);
                    }
                    boxed_edit(&mut boxed, p, &registry, view, grant);
                }
                Op::Replace { raw, .. } => {
                    let parts: Vec<Vec<usize>> = (0..compiled.policy(p).len())
                        .map(|i| raw.get(i).cloned().unwrap_or_default())
                        .collect();
                    compiled.replace_policy(p, build_policy(&registry, &parts));
                    boxed.replace_policy(p, build_policy(&registry, &parts));
                }
            }
            prop_assert_eq!(compiled.consistency_bits(p), boxed.consistency_bits(p));
            prop_assert_eq!(compiled.policy(p), boxed.policy(p));
        }
        assert_same_stores(&compiled, &boxed);
        prop_assert_eq!(compiled.totals(), boxed.totals());
    }
}

/// The registry's views on its lowest and its highest relation.
fn views_at_the_ends(registry: &SecurityViews) -> (SecurityViewId, SecurityViewId) {
    let relation = |id: SecurityViewId| registry.view(id).relation;
    let views = view_ids(registry);
    let low = *views.iter().min_by_key(|&&id| relation(id)).unwrap();
    let high = *views.iter().max_by_key(|&&id| relation(id)).unwrap();
    assert!(relation(low) < relation(high));
    (low, high)
}

#[test]
fn a_grant_past_the_table_grows_it_to_the_policy_with_the_view() {
    let registry = registry();
    let (low, high) = views_at_the_ends(&registry);
    let wall = |views: &[SecurityViewId]| {
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("a", &registry, views.iter().copied()),
            PolicyPartition::from_views("b", &registry, [low]),
        ])
    };
    let mut compiled = PolicyStore::new();
    let mut boxed = PolicyStore::new();
    let p = compiled.register(wall(&[low]));
    boxed.register(wall(&[low]));
    let table = |store: &PolicyStore| store.arena().span(store.arena().len() as u32 - 1).len();
    assert_eq!(
        table(&compiled),
        1 + 2 * (registry.view(low).relation.index() + 1)
    );
    compiled.grant_view(p, &registry, high);
    boxed_edit(&mut boxed, p, &registry, high, true);
    assert_eq!(
        table(&compiled),
        1 + 2 * (registry.view(high).relation.index() + 1)
    );
    assert_same_stores(&compiled, &boxed);
    // The form is the one the policy registered with the view compiles to.
    let q = compiled.register(SecurityPolicy::chinese_wall([
        PolicyPartition::from_views("a", &registry, [low, high]),
        PolicyPartition::from_views("b", &registry, [low, high]),
    ]));
    assert!(std::ptr::eq(compiled.policy(p), compiled.policy(q)));
    assert_eq!(compiled.unique_policies(), 2);
}

#[test]
fn a_revoke_that_empties_the_top_row_reaches_the_policy_without_the_view() {
    let registry = registry();
    let (low, high) = views_at_the_ends(&registry);
    let without = SecurityPolicy::stateless(PolicyPartition::from_views("w", &registry, [low]));
    let mut compiled = PolicyStore::new();
    let mut boxed = PolicyStore::new();
    let bare = compiled.register(without.clone());
    boxed.register(without);
    let with = SecurityPolicy::stateless(PolicyPartition::from_views("w", &registry, [low, high]));
    let p = compiled.register(with.clone());
    boxed.register(with);
    compiled.revoke_view(p, &registry, high);
    boxed_edit(&mut boxed, p, &registry, high, false);
    assert!(std::ptr::eq(compiled.policy(p), compiled.policy(bare)));
    assert_eq!(compiled.unique_policies(), 2);
    assert_same_stores(&compiled, &boxed);
    // Down to no view at all: the table shrinks to nothing.
    compiled.revoke_view(p, &registry, low);
    boxed_edit(&mut boxed, p, &registry, low, false);
    let nothing = SecurityPolicy::stateless(PolicyPartition::new("w"));
    assert_eq!(compile(compiled.policy(p)), compile(&nothing));
    assert_eq!(compile(compiled.policy(p)), [1]);
    assert_same_stores(&compiled, &boxed);
}

#[test]
fn revoking_a_view_never_granted_keeps_the_id_and_appends_nothing() {
    let registry = registry();
    let (low, high) = views_at_the_ends(&registry);
    let policy = SecurityPolicy::stateless(PolicyPartition::from_views("w", &registry, [low]));
    let mut compiled = PolicyStore::new();
    let mut boxed = PolicyStore::new();
    let p = compiled.register(policy.clone());
    boxed.register(policy);
    let before: *const SecurityPolicy = compiled.policy(p);
    let (forms, hits) = (compiled.unique_policies(), compiled.arena().hits());
    // Past the table, and inside it on a view the partition lacks.
    let beside = view_ids(&registry)
        .into_iter()
        .find(|&v| registry.view(v).relation == registry.view(low).relation && v != low)
        .unwrap();
    for view in [high, beside] {
        compiled.revoke_view(p, &registry, view);
        boxed_edit(&mut boxed, p, &registry, view, false);
    }
    assert!(std::ptr::eq(compiled.policy(p), before));
    assert_eq!(compiled.unique_policies(), forms);
    assert_eq!(compiled.arena().hits(), hits + 2);
    assert_same_stores(&compiled, &boxed);
}

#[test]
fn a_grant_to_a_policy_without_partitions_changes_nothing() {
    let registry = registry();
    let (low, high) = views_at_the_ends(&registry);
    let mut compiled = PolicyStore::new();
    let mut boxed = PolicyStore::new();
    let p = compiled.register(SecurityPolicy::new());
    boxed.register(SecurityPolicy::new());
    for view in [low, high] {
        compiled.grant_view(p, &registry, view);
        boxed_edit(&mut boxed, p, &registry, view, true);
    }
    assert!(compiled.policy(p).is_empty());
    assert_eq!(compiled.unique_policies(), 1);
    assert_eq!(compiled.arena().span(0), [0]);
    assert_same_stores(&compiled, &boxed);
}

#[test]
fn two_principals_converge_on_one_form() {
    let registry = registry();
    let (low, high) = views_at_the_ends(&registry);
    let both = |view: SecurityViewId, name: &str| {
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views(format!("{name}-0"), &registry, [view]),
            PolicyPartition::from_views(format!("{name}-1"), &registry, [view]),
        ])
    };
    let mut compiled = PolicyStore::new();
    let mut boxed = PolicyStore::new();
    let p = compiled.register(both(low, "p"));
    let q = compiled.register(both(high, "q"));
    boxed.register(both(low, "p"));
    boxed.register(both(high, "q"));
    let mut step = |who: PrincipalId, view: SecurityViewId, grant: bool| {
        if grant {
            compiled.grant_view(who, &registry, view);
        } else {
            compiled.revoke_view(who, &registry, view);
        }
        boxed_edit(&mut boxed, who, &registry, view, grant);
        assert_same_stores(&compiled, &boxed);
        (
            compiled.unique_policies(),
            compiled.policy(who).partitions()[0].name.clone(),
        )
    };
    // Both gain the other's view: p's grant makes the form, q's lands on
    // it and reads p's source.
    assert_eq!(step(p, high, true), (3, "p-0".to_owned()));
    assert_eq!(step(q, low, true), (3, "p-0".to_owned()));
    // Both drop `low`: p lands on q's registered form.
    assert_eq!(step(p, low, false), (3, "q-0".to_owned()));
    assert_eq!(step(q, low, false), (3, "q-0".to_owned()));
    assert!(std::ptr::eq(compiled.policy(p), compiled.policy(q)));
}

//! Pinned: a policy-plane mutation that lands on a known form allocates
//! nothing.
//!
//! Every mutation of the policy store works on the compiled form, in a
//! scratch span the store owns: registration and `replace_policy` compile
//! into it, a grant or revoke copies the principal's span into it and flips
//! one bit per partition, and the arena hashes it once and probes once.
//! Only a form never seen is appended.  This binary installs the counting
//! global allocator of `intern_alloc` (which is why it is a test binary of
//! its own) and asserts, once the scratch is warm:
//!
//! * registering a policy whose form is already known allocates nothing
//!   beyond the amortised growth of the per-principal records (and, on a
//!   service, of the history's ring heads) — the caller's policy is
//!   dropped;
//! * a grant or revoke that lands on a known form allocates nothing, on
//!   the store and through the service's `apply`, and so does a revoke of
//!   a view no partition holds.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.  Run in release as well (CI does): allocation behaviour is
//! a property of the optimised build.

use std::hint::black_box;

use fdc::core::SecurityViews;
use fdc::policy::{PolicyPartition, PolicyStore, SecurityPolicy};
use fdc::service::{DisclosureService, Operation, Response, ServiceConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Registrations per measured run.
const REGISTRATIONS: usize = 4096;

/// Reallocations a `Vec` pushed to `REGISTRATIONS` elements from empty can
/// make: one per doubling.
const GROWTHS: u64 = REGISTRATIONS.ilog2() as u64 + 1;

fn wall(registry: &SecurityViews, name: &str) -> SecurityPolicy {
    let [v1, v2, v3] = ["V1", "V2", "V3"].map(|view| registry.id_by_name(view).unwrap());
    SecurityPolicy::chinese_wall([
        PolicyPartition::from_views(format!("{name}-meetings"), registry, [v1, v2]),
        PolicyPartition::from_views(format!("{name}-contacts"), registry, [v3]),
    ])
}

#[test]
fn registering_a_known_form_allocates_only_the_records_growth() {
    let registry = SecurityViews::paper_example();
    let mut store = PolicyStore::new();
    store.register(wall(&registry, "first"));
    // Other names, same form: every registration below is an arena hit.
    let policies: Vec<SecurityPolicy> = (0..REGISTRATIONS)
        .map(|i| wall(&registry, &format!("p{i}")))
        .collect();
    let count = allocations(|| {
        for policy in policies {
            black_box(store.register(black_box(policy)));
        }
    });
    assert_eq!(store.unique_policies(), 1);
    assert!(
        count <= GROWTHS,
        "{count} allocations for {REGISTRATIONS} known forms"
    );

    let mut service = DisclosureService::new(registry.clone(), ServiceConfig::default());
    service.register_principal(wall(&registry, "first"));
    let policies: Vec<SecurityPolicy> = (0..REGISTRATIONS)
        .map(|i| wall(&registry, &format!("p{i}")))
        .collect();
    let count = allocations(|| {
        for policy in policies {
            black_box(service.register_principal(black_box(policy)));
        }
    });
    assert_eq!(service.store().unique_policies(), 1);
    // The records and the history's ring heads grow side by side.
    assert!(
        count <= 2 * GROWTHS,
        "{count} allocations for {REGISTRATIONS} known forms"
    );
}

#[test]
fn a_grant_or_revoke_on_a_known_form_allocates_nothing() {
    let registry = SecurityViews::paper_example();
    let [v1, v2] = ["V1", "V2"].map(|view| registry.id_by_name(view).unwrap());
    let mut store = PolicyStore::new();
    let p = store.register(SecurityPolicy::stateless(PolicyPartition::from_views(
        "times",
        &registry,
        [v2],
    )));
    // Both forms on record, the scratch warm.
    store.grant_view(p, &registry, v1);
    store.revoke_view(p, &registry, v1);
    let forms = store.unique_policies();
    for _ in 0..3 {
        assert_eq!(allocations(|| store.grant_view(p, &registry, v1)), 0);
        assert_eq!(allocations(|| store.revoke_view(p, &registry, v1)), 0);
        // A view the policy does not hold: nothing to clear.
        assert_eq!(allocations(|| store.revoke_view(p, &registry, v1)), 0);
    }
    assert_eq!(store.unique_policies(), forms);

    let mut service = DisclosureService::new(registry.clone(), ServiceConfig::default());
    let p = service.register_principal(wall(&registry, "p"));
    let grant = Operation::GrantView {
        principal: p,
        view: "V2".to_owned(),
    };
    let revoke = Operation::RevokeView {
        principal: p,
        view: "V2".to_owned(),
    };
    assert_eq!(service.apply(&revoke), Response::PolicyUpdated);
    assert_eq!(service.apply(&grant), Response::PolicyUpdated);
    let forms = service.store().unique_policies();
    for _ in 0..3 {
        assert_eq!(
            allocations(|| assert!(service.apply(&revoke) == Response::PolicyUpdated)),
            0
        );
        assert_eq!(
            allocations(|| assert!(service.apply(&grant) == Response::PolicyUpdated)),
            0
        );
    }
    assert_eq!(service.store().unique_policies(), forms);
}

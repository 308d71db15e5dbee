//! Property test: the structural (semi-join) fast path is a pure fast path.
//!
//! `QueryInterner::classify` decides a query's hypergraph with GYO reduction
//! (`fdc_cq::structure`): α-acyclic queries keep their join tree (ear
//! ordering) and whole-body homomorphism questions about them are answered
//! by a polynomial semi-join pass; cyclic queries fall back to the generic
//! backtracking search.  The dispatch claims to be *observationally
//! invisible* — the same verdict as the generic search on every input, for
//! every head policy.  This suite pins that claim over the adversarial
//! regimes where the two searches behave most differently:
//!
//! 1. **Self-join-heavy trees and brooms** over a single relation, where
//!    the generic search branches across every same-relation atom and the
//!    semi-join pass prunes by candidate retention.
//! 2. **Deliberately cyclic queries** (cycles of length ≥ 3), which GYO
//!    must classify as cyclic and route to the fallback.
//! 3. **The paper's ecosystem workloads**, the realistic mixed regime.
//!
//! Labels are pinned too: all four labeler variants must agree on the
//! structural pool, since labeling folds and rewriting checks run through
//! the same dispatcher.  The dispatch toggle is never flipped here — tests
//! run concurrently and the toggle is process-global; the generic twins
//! (`*_generic`) provide the baseline instead.

use std::fmt::Write as _;

use fdc::core::{
    BaselineLabeler, BitVectorLabeler, CachedLabeler, HashPartitionedLabeler, QueryLabeler,
    SecurityViews,
};
use fdc::cq::containment::{interned_contained_in, interned_contained_in_generic};
use fdc::cq::homomorphism::{
    interned_homomorphism_exists, interned_homomorphism_exists_generic, HeadPolicy,
};
use fdc::cq::intern::{QueryInterner, QueryRef};
use fdc::cq::parser::parse_query;
use fdc::cq::structure::ShapeClass;
use fdc::cq::{structure, Catalog, ConjunctiveQuery};
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use proptest::prelude::*;

/// The single-relation catalog every structural pool is built over.
fn edge_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .add_relation("Edge", &["src", "dst", "tag"])
        .expect("fresh catalog accepts the relation");
    catalog
}

/// A deterministic splitmix-style LCG so proptest seeds map to stable pools.
fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed;
    move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    }
}

/// A random tree pattern: every atom hangs off an earlier variable, so the
/// hypergraph is α-acyclic by construction.
fn tree_query(catalog: &Catalog, atoms: usize, seed: u64) -> ConjunctiveQuery {
    let mut next = lcg(seed);
    let mut text = String::from("Q(v0) :- ");
    for i in 1..=atoms.max(1) {
        if i > 1 {
            text.push_str(", ");
        }
        let parent = next(i);
        let tag = next(2);
        write!(text, "Edge(v{parent}, v{i}, 'c{tag}')").expect("string write");
    }
    parse_query(catalog, &text).expect("generated tree parses")
}

/// A cycle of length `len ≥ 3`: GYO reduction finds no ear, so the query
/// must classify as cyclic.
fn cycle_query(catalog: &Catalog, len: usize) -> ConjunctiveQuery {
    let len = len.max(3);
    let mut text = String::from("Q(x0) :- ");
    for i in 0..len {
        if i > 0 {
            text.push_str(", ");
        }
        let from = i;
        let to = (i + 1) % len;
        write!(text, "Edge(x{from}, x{to}, 'c0')").expect("string write");
    }
    parse_query(catalog, &text).expect("generated cycle parses")
}

/// Asserts the dispatcher and the generic search agree on every ordered
/// pair of the pool — containment plus plain homomorphism existence under
/// both cross-query head policies — and on the Identity self-homomorphism.
fn assert_pairwise_agreement(refs: &[QueryRef<'_>]) {
    for &a in refs {
        for &b in refs {
            prop_assert_eq!(
                interned_contained_in(a, b),
                interned_contained_in_generic(a, b),
                "containment dispatch diverged from the generic search"
            );
            for policy in [HeadPolicy::DistinguishedToDistinguished, HeadPolicy::Free] {
                prop_assert_eq!(
                    interned_homomorphism_exists(a, b, policy),
                    interned_homomorphism_exists_generic(a, b, policy),
                    "homomorphism dispatch diverged under {:?}",
                    policy
                );
            }
        }
        // Identity is only meaningful within one variable space.
        prop_assert_eq!(
            interned_homomorphism_exists(a, a, HeadPolicy::Identity),
            interned_homomorphism_exists_generic(a, a, HeadPolicy::Identity),
            "identity self-homomorphism dispatch diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Self-join-heavy trees classify acyclic, carry an ear ordering, and
    /// the semi-join pass agrees with the generic search on every pair.
    #[test]
    fn trees_classify_acyclic_and_dispatch_agrees(
        seed in 0u64..1_000_000,
        atoms in 1usize..12,
    ) {
        let catalog = edge_catalog();
        let mut interner = QueryInterner::new();
        let ids: Vec<_> = (0..5)
            .map(|i| interner.intern(&tree_query(&catalog, atoms, seed + i)))
            .collect();
        for &id in &ids {
            prop_assert_eq!(interner.classify(id), ShapeClass::Acyclic);
            let ears = interner.ear_steps(id).expect("acyclic query keeps its ears");
            prop_assert_eq!(ears.len(), interner.resolve(id).atoms.len());
        }
        let refs: Vec<_> = ids.iter().map(|&id| interner.resolve(id)).collect();
        assert_pairwise_agreement(&refs);
    }

    /// Cycles classify cyclic (no ear ordering survives) and the fallback
    /// still agrees with the generic search — including on mixed
    /// cyclic-vs-acyclic pairs.
    #[test]
    fn cycles_classify_cyclic_and_fallback_agrees(
        seed in 0u64..1_000_000,
        len in 3usize..8,
    ) {
        let catalog = edge_catalog();
        let mut interner = QueryInterner::new();
        let cycle = interner.intern(&cycle_query(&catalog, len));
        prop_assert_eq!(interner.classify(cycle), ShapeClass::Cyclic);
        prop_assert!(interner.ear_steps(cycle).is_none());
        let tree = interner.intern(&tree_query(&catalog, len, seed));
        prop_assert_eq!(interner.classify(tree), ShapeClass::Acyclic);
        let refs = [interner.resolve(cycle), interner.resolve(tree)];
        assert_pairwise_agreement(&refs);
    }

    /// The paper's ecosystem workloads: the realistic mixed regime the
    /// labelers actually see must dispatch identically too.
    #[test]
    fn ecosystem_workloads_dispatch_agrees(
        seed in 0u64..1_000_000,
        max_subqueries in 1usize..5,
    ) {
        let eco = Ecosystem::new();
        let mut generator = eco.workload(WorkloadConfig::stress(max_subqueries, seed));
        let queries = generator.batch(8);
        let mut interner = QueryInterner::new();
        let ids: Vec<_> = queries.iter().map(|q| interner.intern(q)).collect();
        let refs: Vec<_> = ids.iter().map(|&id| interner.resolve(id)).collect();
        assert_pairwise_agreement(&refs);
    }

    /// All four labeler variants agree on the structural pool — labeling
    /// folds and rewriting checks run through the same dispatcher, so a
    /// divergence there would surface as a label mismatch here.
    #[test]
    fn labelers_agree_on_structural_pool(
        seed in 0u64..1_000_000,
        atoms in 1usize..10,
        len in 3usize..7,
    ) {
        let catalog = edge_catalog();
        let mut registry = SecurityViews::new(&catalog);
        registry
            .add_program("V1(s, d) :- Edge(s, d, t)\nV2(s) :- Edge(s, d, 'c0')")
            .expect("the Edge views parse");
        let baseline = BaselineLabeler::new(registry.clone());
        let hashed = HashPartitionedLabeler::new(registry.clone());
        let bitvec = BitVectorLabeler::new(registry.clone());
        let cached = CachedLabeler::new(registry);
        let pool = vec![
            tree_query(&catalog, atoms, seed),
            tree_query(&catalog, atoms, seed ^ 0xDEAD),
            cycle_query(&catalog, len),
        ];
        for query in &pool {
            let reference = baseline.label_query(query);
            prop_assert_eq!(&reference, &hashed.label_query(query));
            prop_assert_eq!(&reference, &bitvec.label_query(query));
            // Cold, warm, and fully interned cache paths.
            prop_assert_eq!(&reference, &cached.label_query(query));
            prop_assert_eq!(&reference, &cached.label_query(query));
            let id = cached.intern(query);
            prop_assert_eq!(&reference, &cached.label_interned(id));
        }
    }
}

/// The dispatch counters move the right way: a cyclic containment ticks
/// `backtrack_fallbacks`, an acyclic one ticks `structural_checks`.  The
/// counters are process-global and other tests run concurrently, so only
/// monotonic lower bounds are asserted.
#[test]
fn dispatch_counters_track_shape_class() {
    let catalog = edge_catalog();
    let mut interner = QueryInterner::new();
    let cycle = interner.intern(&cycle_query(&catalog, 4));
    let tree = interner.intern(&tree_query(&catalog, 4, 0x5EED));
    assert_eq!(interner.classify(cycle), ShapeClass::Cyclic);
    assert_eq!(interner.classify(tree), ShapeClass::Acyclic);
    assert_eq!(interner.num_acyclic_queries(), 1);

    let before = structure::counters();
    std::hint::black_box(interned_contained_in(
        interner.resolve(cycle),
        interner.resolve(cycle),
    ));
    let mid = structure::counters();
    assert!(
        mid.backtrack_fallbacks > before.backtrack_fallbacks,
        "a cyclic containment must tick the fallback counter"
    );

    std::hint::black_box(interned_contained_in(
        interner.resolve(tree),
        interner.resolve(tree),
    ));
    let after = structure::counters();
    assert!(
        after.structural_checks > mid.structural_checks,
        "an acyclic containment must tick the structural counter"
    );
}

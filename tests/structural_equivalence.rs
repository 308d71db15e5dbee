//! Property test: the semi-join homomorphism test is exact.
//!
//! `fdc_cq::structure::gyo_reduce` decides a query's hypergraph with GYO
//! reduction and returns the join tree (ear ordering) of an α-acyclic
//! query; `semi_join_homomorphism_into` answers a whole-body homomorphism
//! question from that query with a polynomial pass over the tree.  Nothing
//! dispatches between the two algorithms — a caller brings the certificate
//! — so the claim pinned here is that the semi-join returns the verdict of
//! the backtracking search (`interned_homomorphism_exists`) on every input,
//! for every head policy, over the regimes where the two behave most
//! differently:
//!
//! 1. **Self-join-heavy trees and brooms** over a single relation, where
//!    the backtracking search branches across every same-relation atom and
//!    the semi-join pass prunes by candidate retention.
//! 2. **Deliberately cyclic queries** (cycles of length ≥ 3), which GYO
//!    must reject — the backtracking search is then the only decision
//!    procedure, and acyclic sources are still checked against them.
//! 3. **The paper's ecosystem workloads**, the realistic mixed regime.
//!
//! Labels are pinned too: all four labeler variants must agree on the
//! structural pool.

use std::fmt::Write as _;

use fdc::core::{
    BaselineLabeler, BitVectorLabeler, CachedLabeler, HashPartitionedLabeler, QueryLabeler,
    SecurityViews,
};
use fdc::cq::homomorphism::{interned_homomorphism_exists, HeadPolicy};
use fdc::cq::intern::{QueryInterner, QueryRef};
use fdc::cq::parser::parse_query;
use fdc::cq::structure::{gyo_reduce, semi_join_homomorphism_into};
use fdc::cq::{Catalog, ConjunctiveQuery};
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

/// A cycle of length `len ≥ 3`: GYO reduction finds no ear.
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

/// Asserts that, from every acyclic query of the pool into every query of
/// it, the semi-join over the source's `gyo_reduce` certificate and the
/// backtracking search agree under all three head policies.  Returns how
/// many sources were acyclic.
fn assert_pairwise_agreement(refs: &[QueryRef<'_>]) -> usize {
    let mut acyclic = 0;
    for &a in refs {
        let Some(ears) = gyo_reduce(a) else { continue };
        acyclic += 1;
        for &b in refs {
            for policy in [
                HeadPolicy::Identity,
                HeadPolicy::DistinguishedToDistinguished,
                HeadPolicy::Free,
            ] {
                assert_eq!(
                    semi_join_homomorphism_into(a, &ears, b.atoms, b, policy),
                    interned_homomorphism_exists(a, b, policy),
                    "the semi-join diverged from the backtracking search under {policy:?}"
                );
            }
        }
    }
    acyclic
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Self-join-heavy trees are acyclic, their certificate covers every
    /// atom, and the semi-join agrees with backtracking on every pair.
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
        let refs: Vec<_> = ids.iter().map(|&id| interner.resolve(id)).collect();
        for &query in &refs {
            let ears = gyo_reduce(query).expect("a tree is acyclic");
            prop_assert_eq!(ears.len(), query.atoms.len());
        }
        prop_assert_eq!(assert_pairwise_agreement(&refs), refs.len());
    }

    /// Cycles have no certificate, and a tree's semi-join into a cycle
    /// still agrees with backtracking.
    #[test]
    fn cycles_classify_cyclic_and_fallback_agrees(
        seed in 0u64..1_000_000,
        len in 3usize..8,
    ) {
        let catalog = edge_catalog();
        let mut interner = QueryInterner::new();
        let cycle = interner.intern(&cycle_query(&catalog, len));
        let tree = interner.intern(&tree_query(&catalog, len, seed));
        let refs = [interner.resolve(cycle), interner.resolve(tree)];
        prop_assert!(gyo_reduce(refs[0]).is_none());
        prop_assert_eq!(assert_pairwise_agreement(&refs), 1);
    }

    /// The paper's ecosystem workloads: the realistic mixed regime the
    /// labelers actually see.
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
        prop_assert!(assert_pairwise_agreement(&refs) > 0);
    }

    /// All four labeler variants agree on the structural pool: trees,
    /// brooms and a cycle fold and dissect to the same labels.
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

//! Property test: the four labeler variants are observationally identical.
//!
//! The paper's Figure 5 variants (`BaselineLabeler`, `HashPartitionedLabeler`,
//! `BitVectorLabeler`) and the caching labeler added on top (`CachedLabeler`
//! — the boxed door and the fully interned `label_interned` /
//! `label_queries_interned` paths over pre-interned `QueryId`s) are
//! different *engineering* of the same function; this test drives all of
//! them over randomly generated workloads — both the structural query
//! generator of the property suite and the paper's Section 7.2 ecosystem
//! generator — and asserts label equality everywhere.
//!
//! A seeded differential additionally labels one stream with interleaved
//! view additions through the cached labeler, against a fresh
//! `BitVectorLabeler` at every position.

use fdc::core::{
    BaselineLabeler, BitVectorLabeler, CachedLabeler, HashPartitionedLabeler, QueryLabeler,
    SecurityViews,
};
use fdc::cq::parser::parse_query;
use fdc::cq::{Catalog, ConjunctiveQuery, RelId};
use fdc::ecosystem::views::projection_view;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use proptest::prelude::*;
use std::fmt::Write as _;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ecosystem workloads: every variant labels every query identically,
    /// for every workload width and many seeds.
    #[test]
    fn all_variants_agree_on_ecosystem_workloads(
        seed in 0u64..1_000_000,
        max_subqueries in 1usize..5,
    ) {
        let eco = Ecosystem::new();
        let mut generator = eco.workload(WorkloadConfig::stress(max_subqueries, seed));
        let queries = generator.batch(20);
        for query in &queries {
            let reference = eco.baseline.label_query(query);
            prop_assert_eq!(&reference, &eco.hashed.label_query(query));
            prop_assert_eq!(&reference, &eco.bitvec.label_query(query));
            // Twice through the cached labeler: once cold, once from cache.
            prop_assert_eq!(&reference, &eco.cached.label_query(query));
            prop_assert_eq!(&reference, &eco.cached.label_query(query));
            // The interned path — pre-interned id straight into the slot
            // cache — produces the identical label, packed and unpacked.
            let id = eco.cached.intern(query);
            prop_assert_eq!(&reference, &eco.cached.label_interned(id));
            prop_assert_eq!(eco.cached.label_packed_interned(id), reference.pack());
        }
        // The batch paths agree with the sequential fold, on every variant —
        // including the fully interned batch entry point.
        let cumulative = eco.baseline.label_queries(&queries);
        prop_assert_eq!(&cumulative, &eco.hashed.label_queries(&queries));
        prop_assert_eq!(&cumulative, &eco.cached.label_queries(&queries));
        let ids: Vec<_> = queries.iter().map(|q| eco.cached.intern(q)).collect();
        prop_assert_eq!(&cumulative, &eco.cached.label_queries_interned(&ids));
        // Per-query labels through the cache line up positionally.
        prop_assert_eq!(eco.label_batch_cached(&queries), eco.label_batch(&queries));
    }

    /// Self-join-heavy trees and cycles over one ternary `Edge` relation,
    /// against a projection and a selection view: every variant labels
    /// them identically, cold, warm and by interned id.
    #[test]
    fn all_variants_agree_on_edge_trees_and_cycles(
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
        let pool = [
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

    /// Paper-schema registries: agreement also holds for registries with
    /// selection and diagonal views, which the per-atom step decides by
    /// reading terms rather than by the mask test.
    #[test]
    fn all_variants_agree_on_tricky_view_registries(seed in 0u64..1_000_000) {
        let registry = tricky_registry();
        let baseline = BaselineLabeler::new(registry.clone());
        let hashed = HashPartitionedLabeler::new(registry.clone());
        let bitvec = BitVectorLabeler::new(registry.clone());
        let cached = CachedLabeler::new(registry.clone());
        let catalog = registry.catalog().clone();

        // A tiny deterministic query generator over the paper schema,
        // exercising constants, repeated variables and joins.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
        };
        let shapes = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, x)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x, z) :- Meetings(x, y), Meetings(y, z)",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(y) :- Contacts(y, w, 'Manager'), Meetings(t, y)",
            "Q(a, b, e) :- Contacts(a, b, e)",
        ];
        for _ in 0..8 {
            let text = shapes[next(shapes.len())];
            let query = parse_query(&catalog, text).unwrap();
            let reference = baseline.label_query(&query);
            prop_assert_eq!(&reference, &hashed.label_query(&query), "hashed on {}", text);
            prop_assert_eq!(&reference, &bitvec.label_query(&query), "bitvec on {}", text);
            prop_assert_eq!(&reference, &cached.label_query(&query), "cached on {}", text);
            // The selection and diagonal views make the interned per-atom
            // step read terms as well as test masks.
            let id = cached.intern(&query);
            prop_assert_eq!(&reference, &cached.label_interned(id), "interned on {}", text);
        }
    }
}

/// Structural edge cases: heavy self-joins (one relation, many atoms),
/// where fold's search branches across every same-relation atom, and
/// deliberately cyclic bodies — with identical labels from every variant.
#[test]
fn all_variants_agree_on_self_join_heavy_and_cyclic_shapes() {
    let registry = tricky_registry();
    let catalog = Catalog::paper_example();
    let baseline = BaselineLabeler::new(registry.clone());
    let hashed = HashPartitionedLabeler::new(registry.clone());
    let bitvec = BitVectorLabeler::new(registry.clone());
    let cached = CachedLabeler::new(registry);
    let shapes = [
        // A broom: three self-join chains off one distinguished root.
        "Q(x) :- Meetings(x, a), Meetings(a, b), Meetings(x, c), Meetings(c, d), \
         Meetings(x, e), Meetings(e, f)",
        // A long path, the easy acyclic case.
        "Q(x) :- Meetings(x, y), Meetings(y, z), Meetings(z, w), Meetings(w, u)",
        // The triangle and the square: cyclic bodies.
        "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x)",
        "Q(x) :- Meetings(x, y), Meetings(y, z), Meetings(z, w), Meetings(w, x)",
    ];
    for text in shapes {
        let query = parse_query(&catalog, text).unwrap();
        let reference = baseline.label_query(&query);
        assert_eq!(reference, hashed.label_query(&query), "hashed on {text}");
        assert_eq!(reference, bitvec.label_query(&query), "bitvec on {text}");
        assert_eq!(reference, cached.label_query(&query), "cached on {text}");
        let id = cached.intern(&query);
        assert_eq!(reference, cached.label_interned(id), "interned on {text}");
    }
}

/// A catalog of one relation, `Edge(src, dst, tag)`.
fn edge_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .add_relation("Edge", &["src", "dst", "tag"])
        .expect("fresh catalog accepts the relation");
    catalog
}

/// A random tree over `Edge`: every atom hangs off an earlier variable, so
/// trees with several atoms off one variable (brooms) come up often.
fn tree_query(catalog: &Catalog, atoms: usize, seed: u64) -> ConjunctiveQuery {
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    let mut text = String::from("Q(v0) :- ");
    for i in 1..=atoms {
        if i > 1 {
            text.push_str(", ");
        }
        let parent = next(i);
        let tag = next(2);
        write!(text, "Edge(v{parent}, v{i}, 'c{tag}')").expect("string write");
    }
    parse_query(catalog, &text).expect("generated tree parses")
}

/// A directed cycle of `len` `Edge` atoms.
fn cycle_query(catalog: &Catalog, len: usize) -> ConjunctiveQuery {
    let atoms: Vec<String> = (0..len)
        .map(|i| format!("Edge(x{i}, x{}, 'c0')", (i + 1) % len))
        .collect();
    parse_query(catalog, &format!("Q(x0) :- {}", atoms.join(", "))).expect("generated cycle parses")
}

/// The paper's registry extended with non-projection views (a selection and
/// a diagonal), so that every labeler code path is exercised.
fn tricky_registry() -> SecurityViews {
    let catalog = Catalog::paper_example();
    let mut registry = SecurityViews::new(&catalog);
    registry
        .add_program(
            r"
            V1(x, y) :- Meetings(x, y)
            V2(x)    :- Meetings(x, y)
            V3(x, y, z) :- Contacts(x, y, z)
            Vc(x)    :- Meetings(x, 'Cathy')
            Vd(x)    :- Meetings(x, x)
            V6(x, y) :- Contacts(x, y, z)
            ",
        )
        .unwrap();
    registry
}

/// The cached labeler on a stream drawn from a pool of stress-workload
/// shapes (so shapes repeat: hits, and stale refreshes after every
/// addition), with a view added every 41 positions, must give at every
/// position the label of a fresh `BitVectorLabeler` over the registry as it
/// stands — by id (unpacked and packed) and through the boxed door.  Run
/// with room for everything and with an intern budget of 8 ids, which the
/// explicit interns spend: past it the boxed door mints nothing.
#[test]
fn live_labeling_agrees_across_view_additions() {
    let eco = Ecosystem::new();
    for (seed, budget) in [(11u64, 1 << 20), (12, 1 << 20), (13, 8), (14, 8)] {
        let pool = eco.workload(WorkloadConfig::stress(3, seed)).batch(60);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
        };
        let mut labeler = CachedLabeler::with_intern_budget(eco.views.clone(), budget);
        let mut reference = BitVectorLabeler::new(eco.views.clone());
        let mut views_added = 0;
        for i in 0..600 {
            if i % 41 == 40 {
                // A random projection view over a random relation, keeping
                // the anchors every registry view exposes.
                let relation = RelId(next(eco.schema.catalog.len()) as u32);
                let info = eco.schema.info(relation);
                let attributes = &eco.schema.catalog.relation(relation).attributes;
                let exposed: Vec<&str> = (0..attributes.len())
                    .filter(|&col| {
                        col == info.uid_column || col == info.is_friend_column || next(3) == 0
                    })
                    .map(|col| attributes[col].as_str())
                    .collect();
                let view = projection_view(&eco.schema, relation, &exposed);
                let name = format!("differential_view_{views_added}");
                labeler.add_view(&name, view).unwrap();
                views_added += 1;
                reference = BitVectorLabeler::new(labeler.security_views().clone());
            }
            let query = &pool[next(pool.len())];
            let expected = reference.label_query(query);
            let at = format!("seed {seed}, position {i}");
            if i % 2 == 0 {
                let id = labeler.intern(query);
                assert_eq!(labeler.label_interned(id), expected, "{at}");
                assert_eq!(labeler.label_packed_interned(id), expected.pack(), "{at}");
            } else {
                // The boxed door, which interns for itself while the intern
                // budget lasts.
                let ids = labeler.query_interner().len();
                let spent = ids.saturating_sub(labeler.security_views().len()) >= budget;
                assert_eq!(labeler.label_query(query), expected, "{at}");
                if spent {
                    assert_eq!(labeler.query_interner().len(), ids, "{at}: minted");
                }
            }
            let (entries, ids) = (labeler.stats().entries, labeler.query_interner().len());
            assert!(entries <= ids, "{at}: {entries} entries, {ids} ids");
        }
        let stats = labeler.stats();
        assert!(
            stats.hits > 0 && stats.query_refreshes > 0,
            "the stream must repeat shapes"
        );
        assert!(
            budget > 8 || labeler.door_stats().over_budget > 0,
            "seed {seed}: the boxed door never met a spent budget"
        );
    }
}

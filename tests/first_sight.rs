//! The first sight of a shape and the refreshes after it intern nothing
//! but the shape itself.
//!
//! `CachedLabeler` dissects a new shape once and computes each part's `ℓ⁺`
//! mask where `dissect_interned` assembles it; the entry keeps, per part,
//! the needed-position mask a later refresh decides new views with.  Pinned
//! here:
//!
//! * **the arena holds submitted shapes and view definitions only** —
//!   labeling N distinct Section 7.2 stress shapes grows the interner by
//!   exactly N, and an online view registration plus a refresh of every
//!   entry grows it by the view's definition alone;
//! * **the general path refreshes correctly** — parts no bit test decides
//!   (a repeated variable, `Meetings(x, x)`) and views no bit test decides
//!   (a constant, added online) are re-assembled from the recorded fold for
//!   the rewriting check, and every label equals a fresh
//!   `BitVectorLabeler`'s.

use std::collections::HashSet;

use fdc::core::{BitVectorLabeler, CachedLabeler, QueryLabeler, SecurityViews};
use fdc::cq::parser::parse_query;
use fdc::cq::{Catalog, ConjunctiveQuery};
use fdc::ecosystem::views::projection_view;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};

#[test]
fn cold_labeling_grows_the_arena_by_the_shapes_alone() {
    let eco = Ecosystem::new();
    let queries = eco.workload(WorkloadConfig::stress(5, 34)).batch(400);
    let mut labeler = CachedLabeler::new(eco.views.clone());
    let arena = |labeler: &CachedLabeler| labeler.interner().read().unwrap().len();
    let before = arena(&labeler);
    for query in &queries {
        labeler.label_query(query);
    }
    let shapes: HashSet<_> = queries.iter().map(|q| labeler.intern(q)).collect();
    assert!(shapes.len() > 300, "only {} distinct shapes", shapes.len());
    assert_eq!(labeler.stats().misses, shapes.len() as u64);
    assert_eq!(arena(&labeler), before + shapes.len());

    // A view over the relation every friends-audience query joins, then a
    // refresh of every entry: the view's definition is all that is added.
    let friend = eco.schema.friend();
    let info = eco.schema.info(friend);
    let attributes = &eco.schema.catalog.relation(friend).attributes;
    let view = projection_view(
        &eco.schema,
        friend,
        &[
            attributes[info.uid_column].as_str(),
            attributes[info.is_friend_column].as_str(),
        ],
    );
    let definition_is_new = labeler.interner().read().unwrap().lookup(&view).is_none();
    let grown = arena(&labeler);
    labeler.add_view("friend_anchors", view).unwrap();
    assert_eq!(arena(&labeler), grown + usize::from(definition_is_new));
    let fresh = BitVectorLabeler::new(labeler.security_views().clone());
    let refreshed = labeler.stats();
    for query in &queries {
        assert_eq!(labeler.label_query(query), fresh.label_query(query));
    }
    let after = labeler.stats();
    assert!(after.query_refreshes > refreshed.query_refreshes);
    assert_eq!(after.misses, refreshed.misses);
    assert_eq!(
        arena(&labeler),
        before + shapes.len() + usize::from(definition_is_new)
    );
}

/// A step of the online view universe: a registration, or an out-of-band
/// invalidation of a relation.
enum Step {
    Add(&'static str, &'static str),
    Bump(&'static str),
}

#[test]
fn general_path_refreshes_equal_a_fresh_labeler() {
    let mut cached = CachedLabeler::new(SecurityViews::paper_example());
    let c: Catalog = cached.security_views().catalog().clone();
    let queries: Vec<ConjunctiveQuery> = [
        "Q() :- Meetings(x, x)",
        "Q(x) :- Meetings(x, x)",
        // The general part is the second one of its core.
        "Q(x) :- Contacts(x, w, 'Intern'), Meetings(x, x)",
        "Q(x) :- Meetings(x, y), Meetings(y, y)",
        "Q(x) :- Meetings(x, 'Cathy'), Contacts(x, w, p)",
        "Q(x, y) :- Meetings(x, y)",
    ]
    .iter()
    .map(|text| parse_query(&c, text).unwrap())
    .collect();
    let ids: Vec<_> = queries.iter().map(|q| cached.intern(q)).collect();
    let steps = [
        Step::Add("W0", "W0(x) :- Meetings(x, 'Cathy')"),
        Step::Add("W1", "W1(x) :- Meetings(x, x)"),
        Step::Bump("Meetings"),
        Step::Add("W2", "W2(y) :- Meetings(x, y)"),
        Step::Add("W3", "W3(x) :- Contacts(x, y, 'Intern')"),
        Step::Bump("Contacts"),
        Step::Add("W4", "W4() :- Meetings(x, x)"),
    ];
    for step in steps {
        for &id in &ids {
            cached.label_interned(id);
        }
        match step {
            Step::Add(name, text) => {
                cached
                    .add_view(name, parse_query(&c, text).unwrap())
                    .unwrap();
            }
            Step::Bump(relation) => cached.invalidate_relation(c.resolve(relation).unwrap()),
        }
        let fresh = BitVectorLabeler::new(cached.security_views().clone());
        let before = cached.stats();
        for (query, &id) in queries.iter().zip(&ids) {
            assert_eq!(cached.label_interned(id), fresh.label_query(query));
        }
        let after = cached.stats();
        assert_eq!(after.misses, before.misses, "a refresh never dissects anew");
        assert!(after.atom_refreshes > before.atom_refreshes);
    }
}

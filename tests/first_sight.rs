//! The first sight of a shape: what it computes, and that it and the
//! refreshes after it intern nothing but the shape itself.
//!
//! `CachedLabeler` computes each core atom's `ℓ⁺` mask straight from the
//! interned query, by the positional rule of `fdc_core::answers`: the
//! part's shape (needed positions, simple or not) is read off the atom where
//! it lies, and its terms only for a view no mask test decides.  The entry
//! keeps, per part, the shape a later refresh decides new views with.
//! Pinned here:
//!
//! * **first sight equals the boxed reference** — for every part, the
//!   relation, the `ℓ⁺` mask and the shape equal those of the boxed
//!   `dissect` followed by the rewriting check `rewritable_from_single`
//!   against every registered view (what `BaselineLabeler` runs, sharing no
//!   code with the rule) and the shape read off the boxed part here: on
//!   generated small-schema queries (repeated variables, constants, single
//!   atoms), on a 65-variable `User` join, and against registries that grow
//!   selection and diagonal views online, so pairs are decided on terms;
//! * **the arena holds submitted shapes and view definitions only** —
//!   labeling N distinct Section 7.2 stress shapes grows the interner by
//!   exactly N, and an online view registration plus a refresh of every
//!   entry grows it by the view's definition alone;
//! * **refreshes that read terms are correct** — parts that are not simple
//!   (a repeated variable, `Meetings(x, x)`) meet views that are not
//!   projection-style (a constant, a diagonal, added online), so the refresh
//!   reads the part's core atom off the recorded fold, and every label
//!   equals a fresh `BaselineLabeler`'s.

use std::collections::HashSet;

use fdc::core::answers::Shape;
use fdc::core::dissect::dissect;
use fdc::core::{BaselineLabeler, CachedLabeler, QueryLabeler, SecurityViews, ViewMask};
use fdc::cq::parser::parse_query;
use fdc::cq::rewriting::rewritable_from_single;
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, RelId, Term, TermRef, VarId, VarKind};
use fdc::ecosystem::views::projection_view;
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use proptest::prelude::*;

#[path = "support/user_join.rs"]
mod user_join;
use user_join::user_join;

/// One part as first sight reports it: relation, `ℓ⁺` mask, shape.
type Part = (RelId, ViewMask, Shape);

/// The shape of a boxed single-atom part: the positions a projection-style
/// view must expose — its constants, its distinguished variables and its
/// repeated variables — and whether it has neither a constant nor a
/// repeated variable.
fn reference_shape(part: &ConjunctiveQuery) -> Shape {
    let terms = part.atom(0).terms();
    if terms.len() > 64 {
        return Shape::WIDE;
    }
    let repeated = |term: TermRef| term.is_var() && terms.iter().filter(|&t| t == term).count() > 1;
    Shape {
        needs: terms
            .iter()
            .enumerate()
            .filter(|&(_, term)| term.is_const() || term.is_distinguished() || repeated(term))
            .fold(0, |needed, (i, _)| needed | 1 << i),
        simple: !terms.iter().any(|term| term.is_const() || repeated(term)),
    }
}

/// The boxed reference: `Dissect`, then each part's mask by the rewriting
/// check against every registered view of its relation, and its shape.
fn reference_parts(views: &SecurityViews, query: &ConjunctiveQuery) -> Vec<Part> {
    dissect(query)
        .iter()
        .map(|part| {
            let relation = part.atom(0).relation;
            let mask = views
                .iter()
                .filter(|(_, view)| {
                    view.relation == relation && rewritable_from_single(part, &view.query)
                })
                .fold(0, |mask, (_, view)| mask | 1 << view.bit);
            (relation, mask, reference_shape(part))
        })
        .collect()
}

/// Asserts that the first sight of `query` in `cached` computes the
/// reference's parts.
fn assert_first_sight_agrees(cached: &CachedLabeler, query: &ConjunctiveQuery) {
    let id = cached.intern(query);
    assert_eq!(
        cached.first_sight_parts(id),
        reference_parts(cached.security_views(), query),
        "first sight differs on {query:?}"
    );
}

// --- generated small-schema queries -----------------------------------------

#[derive(Debug, Clone, Copy)]
enum RawTerm {
    Dist(u32),
    Exist(u32),
    Int(i64),
}

fn term_strategy() -> impl Strategy<Value = RawTerm> {
    prop_oneof![
        (0..6u32).prop_map(RawTerm::Dist),
        (0..6u32).prop_map(RawTerm::Exist),
        (0..3i64).prop_map(RawTerm::Int),
    ]
}

/// Up to six atoms over the paper schema, six variables and three
/// constants: repeated variables, constants, joins and single atoms all
/// come up often.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (0u8..2).prop_flat_map(|rel| {
        let arity = if rel == 0 { 2 } else { 3 };
        (Just(rel), proptest::collection::vec(term_strategy(), arity))
    });
    proptest::collection::vec(atom, 1..=6).prop_map(|raw| {
        // A variable tagged distinguished anywhere is distinguished
        // everywhere.
        let distinguished: Vec<u32> = raw
            .iter()
            .flat_map(|(_, terms)| terms)
            .filter_map(|term| match *term {
                RawTerm::Dist(v) => Some(v),
                _ => None,
            })
            .collect();
        let mut dense: Vec<u32> = Vec::new();
        let atoms = raw
            .iter()
            .map(|(rel, terms)| {
                let terms = terms
                    .iter()
                    .map(|term| match *term {
                        RawTerm::Dist(v) | RawTerm::Exist(v) => {
                            let id = dense.iter().position(|&w| w == v).unwrap_or_else(|| {
                                dense.push(v);
                                dense.len() - 1
                            });
                            let kind = if distinguished.contains(&v) {
                                VarKind::Distinguished
                            } else {
                                VarKind::Existential
                            };
                            Term::Var(VarId(id as u32), kind)
                        }
                        RawTerm::Int(i) => Term::constant(i),
                    })
                    .collect();
                Atom::new(RelId(u32::from(*rel)), terms)
            })
            .collect();
        ConjunctiveQuery::from_atoms(atoms).expect("generated queries are valid")
    })
}

/// The paper's registry plus selection and diagonal views, which no mask
/// test decides.
fn tricky_registry() -> SecurityViews {
    let mut registry = SecurityViews::paper_example();
    registry
        .add_program(
            r"
            Vc(x)    :- Meetings(x, 1)
            Vd(x)    :- Meetings(x, x)
            Vk(x, y) :- Contacts(x, y, 2)
            Vr(x)    :- Contacts(x, y, x)
            ",
        )
        .unwrap();
    registry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn first_sight_parts_equal_the_boxed_reference(query in query_strategy()) {
        assert_first_sight_agrees(&CachedLabeler::new(SecurityViews::paper_example()), &query);
        assert_first_sight_agrees(&CachedLabeler::new(tricky_registry()), &query);
    }
}

#[test]
fn first_sight_of_a_65_variable_join_equals_the_boxed_reference() {
    let eco = Ecosystem::new();
    let user = eco.schema.user();
    let mut cached = CachedLabeler::new(eco.views.clone());
    for fresh in [10, 30, 31] {
        assert_first_sight_agrees(&cached, &user_join(fresh));
    }
    // A selection and a diagonal view over `User`, added online: neither is
    // projection-style, and no part of the join is simple, so every part is
    // decided against them on its terms.
    let view = |third: Term| {
        let mut terms = vec![Term::dist(0), Term::exist(1), third];
        terms.extend((2..33).map(Term::exist));
        ConjunctiveQuery::from_atoms(vec![Atom::new(user, terms)]).unwrap()
    };
    cached
        .add_view(
            "UserSelection",
            view(Term::constant("a constant longer than one hash word")),
        )
        .unwrap();
    cached
        .add_view("UserDiagonal", view(Term::exist(1)))
        .unwrap();
    for fresh in [10, 30, 31] {
        let query = user_join(fresh);
        assert_first_sight_agrees(&cached, &query);
        let fresh_labeler = BaselineLabeler::new(cached.security_views().clone());
        assert_eq!(
            cached.label_query(&query),
            fresh_labeler.label_query(&query)
        );
    }
}

#[test]
fn first_sight_after_online_additions_equals_the_boxed_reference() {
    let mut cached = CachedLabeler::new(SecurityViews::paper_example());
    let c: Catalog = cached.security_views().catalog().clone();
    let texts = [
        "Q(x) :- Meetings(x, 'Cathy')",
        "Q() :- Meetings(x, x)",
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        "Q(x) :- Meetings(x, y), Contacts(y, z, z)",
        "Q() :- Contacts(x, w, p), Meetings(p, p), Meetings(w, 'Cathy')",
        "Q(x, y) :- Meetings(x, y), Meetings(y, x), Contacts(x, y, y)",
    ];
    let queries: Vec<ConjunctiveQuery> =
        texts.iter().map(|t| parse_query(&c, t).unwrap()).collect();
    let views = [
        ("W0", "W0(x) :- Meetings(x, 'Cathy')"),
        ("W1", "W1(x) :- Meetings(x, x)"),
        ("W2", "W2(x) :- Contacts(x, y, y)"),
        ("W3", "W3(y) :- Contacts(x, y, 'Intern')"),
    ];
    for query in &queries {
        assert_first_sight_agrees(&cached, query);
    }
    for (name, text) in views {
        cached
            .add_view(name, parse_query(&c, text).unwrap())
            .unwrap();
        for query in &queries {
            assert_first_sight_agrees(&cached, query);
        }
    }
}

#[test]
fn cold_labeling_grows_the_arena_by_the_shapes_alone() {
    let eco = Ecosystem::new();
    let queries = eco.workload(WorkloadConfig::stress(5, 34)).batch(400);
    let mut labeler = CachedLabeler::new(eco.views.clone());
    let arena = |labeler: &CachedLabeler| labeler.query_interner().len();
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
    let definition_is_new = labeler.query_interner().lookup(&view).is_none();
    let grown = arena(&labeler);
    labeler.add_view("friend_anchors", view).unwrap();
    assert_eq!(arena(&labeler), grown + usize::from(definition_is_new));
    let fresh = BaselineLabeler::new(labeler.security_views().clone());
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
        // The part that is not simple is the second one of its core.
        "Q(x) :- Contacts(x, w, 'Intern'), Meetings(x, x)",
        "Q(x) :- Meetings(x, y), Meetings(y, y)",
        "Q(x) :- Meetings(x, 'Cathy'), Contacts(x, w, p)",
        "Q(x, y) :- Meetings(x, y)",
        // Parts that are not simple beside a promoted join variable: the
        // repeated `z` beside the promoted `y`, and a diagonal that is the
        // middle part of three.
        "Q(x) :- Meetings(x, y), Contacts(y, z, z)",
        "Q() :- Contacts(x, w, p), Meetings(p, p), Meetings(w, 'Cathy')",
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
        let fresh = BaselineLabeler::new(cached.security_views().clone());
        let before = cached.stats();
        for (query, &id) in queries.iter().zip(&ids) {
            assert_eq!(cached.label_interned(id), fresh.label_query(query));
            assert_eq!(
                cached.first_sight_parts(id),
                reference_parts(cached.security_views(), query),
                "{query:?}"
            );
        }
        let after = cached.stats();
        assert_eq!(after.misses, before.misses, "a refresh never dissects anew");
        assert!(after.atom_refreshes > before.atom_refreshes);
    }
}

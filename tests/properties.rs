//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's theory promises.
//!
//! Random conjunctive queries over the Meetings/Contacts schema are
//! generated structurally (random atoms, random variable tags, random
//! constants), and the framework's invariants are checked on them:
//! containment is a preorder, folding preserves equivalence, the rewriting
//! order satisfies the disclosure-order axioms, GLBs are lower bounds, and
//! the optimized label comparison agrees with the definitional one.

use fdc::core::unify::{glb_singleton, Glb};
use fdc::core::{BaselineLabeler, BitVectorLabeler, QueryLabeler, SecurityViews};
use fdc::cq::containment::{contained_in, equivalent, equivalent_same_space};
use fdc::cq::database::{evaluate, satisfiable, Database};
use fdc::cq::folding::fold;
use fdc::cq::rewriting::rewritable_from_single;
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, Constant, RelId, Term, VarKind};
use proptest::prelude::*;

/// Strategy: a random term over `max_vars` variable ids.
fn term_strategy(max_vars: u32) -> impl Strategy<Value = RawTerm> {
    prop_oneof![
        (0..max_vars).prop_map(RawTerm::Dist),
        (0..max_vars).prop_map(RawTerm::Exist),
        (0..3i64).prop_map(RawTerm::Int),
    ]
}

/// Raw, possibly-inconsistent term description; `build_query` reconciles
/// variable kinds (a variable that is ever distinguished stays
/// distinguished).
#[derive(Debug, Clone, Copy)]
enum RawTerm {
    Dist(u32),
    Exist(u32),
    Int(i64),
}

/// Strategy: a random single-relation atom description (relation index and
/// term list sized to the relation's arity).
fn atom_strategy(max_vars: u32) -> impl Strategy<Value = (u8, Vec<RawTerm>)> {
    (0u8..2).prop_flat_map(move |rel| {
        let arity = if rel == 0 { 2 } else { 3 };
        (
            Just(rel),
            proptest::collection::vec(term_strategy(max_vars), arity),
        )
    })
}

/// Strategy: a random conjunctive query with 1..=3 atoms over the paper's
/// Meetings/Contacts schema.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(atom_strategy(4), 1..=3).prop_map(build_query)
}

/// Strategy: a random single-atom query (used for view-level properties).
fn single_atom_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(atom_strategy(3), 1..=1).prop_map(build_query)
}

fn build_query(raw: Vec<(u8, Vec<RawTerm>)>) -> ConjunctiveQuery {
    // First pass: decide each variable's kind (distinguished wins).
    let mut kinds: Vec<Option<VarKind>> = vec![None; 8];
    for (_, terms) in &raw {
        for term in terms {
            match term {
                RawTerm::Dist(v) => kinds[*v as usize] = Some(VarKind::Distinguished),
                RawTerm::Exist(v) => {
                    if kinds[*v as usize].is_none() {
                        kinds[*v as usize] = Some(VarKind::Existential);
                    }
                }
                RawTerm::Int(_) => {}
            }
        }
    }
    // Second pass: compact the used variables into dense ids.
    let mut mapping: Vec<Option<u32>> = vec![None; 8];
    let mut var_kinds = Vec::new();
    let mut var_names = Vec::new();
    let resolve = |v: u32,
                   mapping: &mut Vec<Option<u32>>,
                   var_kinds: &mut Vec<VarKind>,
                   var_names: &mut Vec<String>|
     -> u32 {
        if let Some(id) = mapping[v as usize] {
            return id;
        }
        let id = var_kinds.len() as u32;
        var_kinds.push(kinds[v as usize].expect("kind decided in the first pass"));
        var_names.push(format!("v{v}"));
        mapping[v as usize] = Some(id);
        id
    };
    let atoms: Vec<Atom> = raw
        .iter()
        .map(|(rel, terms)| {
            let relation = RelId(*rel as u32);
            let mapped: Vec<Term> = terms
                .iter()
                .map(|t| match t {
                    RawTerm::Dist(v) | RawTerm::Exist(v) => {
                        let id = resolve(*v, &mut mapping, &mut var_kinds, &mut var_names);
                        Term::Var(fdc::cq::VarId(id), var_kinds[id as usize])
                    }
                    RawTerm::Int(i) => Term::constant(*i),
                })
                .collect();
            Atom::new(relation, mapped)
        })
        .collect();
    ConjunctiveQuery::from_parts(atoms, var_kinds, var_names)
        .expect("structurally generated queries are valid")
}

fn paper_registry() -> SecurityViews {
    SecurityViews::paper_example()
}

/// Strategy: a random small database instance over the Meetings/Contacts
/// schema, with constants drawn from the same `0..3` integer domain the
/// query strategy uses (so joins and selections actually hit).
fn database_strategy() -> impl Strategy<Value = Database> {
    let meetings_tuples = proptest::collection::vec((0i64..3, 0i64..3), 0..6);
    let contacts_tuples = proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..6);
    (meetings_tuples, contacts_tuples).prop_map(|(meetings, contacts)| {
        let catalog = Catalog::paper_example();
        let m = catalog.resolve("Meetings").unwrap();
        let c = catalog.resolve("Contacts").unwrap();
        let mut db = Database::new();
        for (a, b) in meetings {
            db.insert(&catalog, m, [Constant::Int(a), Constant::Int(b)])
                .unwrap();
        }
        for (a, b, e) in contacts {
            db.insert(
                &catalog,
                c,
                [Constant::Int(a), Constant::Int(b), Constant::Int(e)],
            )
            .unwrap();
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn containment_is_reflexive_and_folding_preserves_equivalence(q in query_strategy()) {
        prop_assert!(contained_in(&q, &q));
        prop_assert!(equivalent(&q, &q));
        let folded = fold(&q);
        prop_assert!(folded.num_atoms() <= q.num_atoms());
        prop_assert!(equivalent_same_space(&folded, &q));
        // Folding is idempotent.
        prop_assert_eq!(fold(&folded), folded.clone());
    }

    #[test]
    fn containment_is_transitive(a in query_strategy(), b in query_strategy(), c in query_strategy()) {
        if contained_in(&a, &b) && contained_in(&b, &c) {
            prop_assert!(contained_in(&a, &c));
        }
    }

    #[test]
    fn single_atom_rewriting_is_reflexive_and_transitive(
        a in single_atom_strategy(),
        b in single_atom_strategy(),
        c in single_atom_strategy(),
    ) {
        prop_assert!(rewritable_from_single(&a, &a));
        if rewritable_from_single(&a, &b) && rewritable_from_single(&b, &c) {
            prop_assert!(rewritable_from_single(&a, &c));
        }
    }

    #[test]
    fn glb_is_a_lower_bound_of_both_inputs(
        a in single_atom_strategy(),
        b in single_atom_strategy(),
    ) {
        if let Glb::View(g) = glb_singleton(&a, &b) {
            prop_assert!(rewritable_from_single(&g, &a),
                "GLB not rewritable from the left input");
            prop_assert!(rewritable_from_single(&g, &b),
                "GLB not rewritable from the right input");
        }
    }

    #[test]
    fn glb_is_commutative_up_to_equivalence(
        a in single_atom_strategy(),
        b in single_atom_strategy(),
    ) {
        match (glb_singleton(&a, &b), glb_singleton(&b, &a)) {
            (Glb::Bottom, Glb::Bottom) => {}
            (Glb::View(x), Glb::View(y)) => prop_assert!(equivalent(&x, &y)),
            (x, y) => prop_assert!(false, "asymmetric GLB: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn labelers_agree_and_labels_never_underestimate(q in query_strategy()) {
        let registry = paper_registry();
        let baseline = BaselineLabeler::new(registry.clone());
        let bitvec = BitVectorLabeler::new(registry.clone());
        let a = baseline.label_query(&q);
        let b = bitvec.label_query(&q);
        prop_assert_eq!(&a, &b);

        // Re-derive the label straight from the definition: dissect the
        // query, compute ℓ⁺ for every part by scanning the registry with the
        // rewriting oracle, and compare with the labelers' output.
        let mut expected = fdc::core::DisclosureLabel::bottom();
        for part in fdc::core::dissect::dissect(&q) {
            let relation = part.atom(0).relation;
            let mut mask = 0u64;
            for (_, view) in registry.iter() {
                if view.relation == relation && rewritable_from_single(&part, &view.query) {
                    mask |= 1 << view.bit;
                }
            }
            expected.push(fdc::core::AtomLabel::new(relation, mask));
        }
        prop_assert_eq!(a, expected);
    }

    #[test]
    fn label_comparison_is_a_preorder_compatible_with_combination(
        q1 in query_strategy(),
        q2 in query_strategy(),
    ) {
        let registry = paper_registry();
        let labeler = BitVectorLabeler::new(registry);
        let l1 = labeler.label_query(&q1);
        let l2 = labeler.label_query(&q2);
        // Reflexivity.
        prop_assert!(l1.leq(&l1));
        // The combination is an upper bound of both.
        let combined = l1.combine(&l2);
        prop_assert!(l1.leq(&combined));
        prop_assert!(l2.leq(&combined));
        // Combination is commutative and idempotent w.r.t. the order.
        let combined_rev = l2.combine(&l1);
        prop_assert!(combined.leq(&combined_rev));
        prop_assert!(combined_rev.leq(&combined));
        prop_assert!(combined.combine(&l1).leq(&combined));
    }

    #[test]
    fn folding_preserves_query_answers(q in query_strategy(), db in database_strategy()) {
        // The symbolic claim (fold(q) ≡ q) validated against the executable
        // semantics: both queries return exactly the same answers on every
        // randomly generated instance.
        let folded = fold(&q);
        prop_assert!(equivalent_same_space(&folded, &q));
        prop_assert_eq!(evaluate(&folded, &db), evaluate(&q, &db));
    }

    #[test]
    fn boolean_containment_is_sound_wrt_evaluation(
        q1 in query_strategy(),
        q2 in query_strategy(),
        db in database_strategy(),
    ) {
        // For boolean queries, `q1 ⊆ q2` means satisfiability of q1 implies
        // satisfiability of q2 on every database.
        if q1.is_boolean() && q2.is_boolean() && contained_in(&q1, &q2) && satisfiable(&q1, &db) {
            prop_assert!(satisfiable(&q2, &db),
                "containment claimed but answers do not transfer");
        }
    }

    #[test]
    fn equivalent_boolean_queries_agree_on_satisfiability(
        a in single_atom_strategy(),
        b in single_atom_strategy(),
        db in database_strategy(),
    ) {
        if a.is_boolean() && b.is_boolean() && equivalent(&a, &b) {
            prop_assert_eq!(satisfiable(&a, &db), satisfiable(&b, &db));
        }
    }

    #[test]
    fn packed_labels_compare_identically_to_unpacked_ones(q1 in query_strategy(), q2 in query_strategy()) {
        let registry = paper_registry();
        let labeler = BitVectorLabeler::new(registry);
        let l1 = labeler.label_query(&q1);
        let l2 = labeler.label_query(&q2);
        for a in l1.atoms() {
            for b in l2.atoms() {
                prop_assert_eq!(a.leq(b), a.pack().leq(b.pack()));
            }
        }
    }
}

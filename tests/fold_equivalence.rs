//! Differential test: the interned first-sight path against the boxed
//! reference.
//!
//! `fdc::cq::folding::fold` (greedy, restarting, one full homomorphism
//! search per candidate atom) and `BitVectorLabeler::label_query` (boxed
//! `Dissect` on top of it) are the untouched reference.  The interned path —
//! rigidity propagation plus one pass over the movable atoms, single-pass
//! `dissect_interned` — must keep **the same atoms** (not merely an
//! equivalent core: part ids, cache contents and labels hang off the
//! positions) and produce the same label, on
//!
//! * the benchmark's own first-sight population (`WorkloadConfig::stress(5, _)`),
//! * the small-schema strategy of `tests/properties.rs` (two relations, four
//!   variables, three constants: many same-relation collisions), widened to
//!   six atoms,
//! * hand-built families that each stress one rule of the fold.

use fdc::core::{BitVectorLabeler, CachedLabeler, QueryLabeler, SecurityViews};
use fdc::cq::folding::{fold, fold_interned_indices};
use fdc::cq::parser::parse_query;
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, RelId, Term, VarId, VarKind};
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use proptest::prelude::*;

/// Positions within `query` of the atoms `folded` kept.  Matched from the
/// right: of byte-identical atoms the reference tests (and removes) the
/// earlier ones first, so a surviving copy is always the last.
fn surviving_positions(query: &ConjunctiveQuery, folded: &ConjunctiveQuery) -> Vec<u32> {
    let mut positions = Vec::new();
    let mut end = query.num_atoms();
    for atom in folded.atoms().rev() {
        end = query
            .atoms()
            .take(end)
            .rposition(|a| a == atom)
            .expect("folding keeps a subsequence of the atoms");
        positions.push(end as u32);
    }
    positions.reverse();
    positions
}

/// Asserts that the interned path agrees with the boxed reference on
/// `query`: same surviving atom positions, same label.
fn assert_agrees(cached: &CachedLabeler, reference: &BitVectorLabeler, query: &ConjunctiveQuery) {
    let id = cached.intern(query);
    let core = fold_interned_indices(cached.query_interner().resolve(id));
    assert_eq!(
        core,
        surviving_positions(query, &fold(query)),
        "kept atoms differ on {query:?}"
    );
    assert_eq!(
        cached.label_interned(id),
        reference.label_query(query),
        "labels differ on {query:?}"
    );
}

#[test]
fn the_first_sight_population_of_the_benchmark_folds_and_labels_like_the_reference() {
    let eco = Ecosystem::new();
    let mut shapes = 0;
    let mut folding = 0;
    for seed in [3u64, 0xFDC_2013] {
        let mut generator = eco.workload(WorkloadConfig::stress(5, seed));
        for _ in 0..10_500 {
            let query = generator.next_query();
            assert_agrees(&eco.cached, &eco.bitvec, &query);
            shapes += 1;
            if fold(&query).num_atoms() < query.num_atoms() {
                folding += 1;
            }
        }
    }
    assert!(shapes >= 20_000);
    // The population exercises both outcomes of the search.
    assert!(folding > 1_000, "only {folding} shapes folded");
    assert!(
        folding < shapes - 1_000,
        "{folding} of {shapes} shapes folded"
    );
}

// --- the small-schema strategy of tests/properties.rs ----------------------

#[derive(Debug, Clone, Copy)]
enum RawTerm {
    Dist(u32),
    Exist(u32),
    Int(i64),
}

fn term_strategy(max_vars: u32) -> impl Strategy<Value = RawTerm> {
    prop_oneof![
        (0..max_vars).prop_map(RawTerm::Dist),
        (0..max_vars).prop_map(RawTerm::Exist),
        (0..3i64).prop_map(RawTerm::Int),
    ]
}

fn atom_strategy(max_vars: u32) -> impl Strategy<Value = (u8, Vec<RawTerm>)> {
    (0u8..2).prop_flat_map(move |rel| {
        let arity = if rel == 0 { 2 } else { 3 };
        (
            Just(rel),
            proptest::collection::vec(term_strategy(max_vars), arity),
        )
    })
}

/// Builds a query from raw atoms; a variable that is ever tagged
/// distinguished is distinguished everywhere.
fn build_query(raw: Vec<(u8, Vec<RawTerm>)>) -> ConjunctiveQuery {
    let mut distinguished = [false; 8];
    for term in raw.iter().flat_map(|(_, terms)| terms) {
        if let RawTerm::Dist(v) = term {
            distinguished[*v as usize] = true;
        }
    }
    let mut dense: Vec<u32> = Vec::new();
    let atoms: Vec<Atom> = raw
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
                        let kind = if distinguished[v as usize] {
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
    ConjunctiveQuery::from_atoms(atoms).expect("structurally generated queries are valid")
}

fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(atom_strategy(4), 1..=6).prop_map(build_query)
}

/// The paper's registry plus a selection and a diagonal view, so the
/// per-atom step reads terms as well as testing masks.
fn tricky_registry() -> SecurityViews {
    let mut registry = SecurityViews::new(&Catalog::paper_example());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn colliding_small_schema_queries_fold_and_label_like_the_reference(
        query in query_strategy(),
    ) {
        let registry = tricky_registry();
        let cached = CachedLabeler::new(registry.clone());
        let reference = BitVectorLabeler::new(registry);
        assert_agrees(&cached, &reference, &query);
    }
}

// --- hand-built families ---------------------------------------------------

/// Parses each body under `head` over the paper schema and checks it against
/// the reference; returns the kept positions of each for spot assertions.
fn check_family(texts: &[String]) -> Vec<Vec<u32>> {
    let catalog = Catalog::paper_example();
    let registry = tricky_registry();
    let cached = CachedLabeler::new(registry.clone());
    let reference = BitVectorLabeler::new(registry);
    texts
        .iter()
        .map(|text| {
            let query = parse_query(&catalog, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_agrees(&cached, &reference, &query);
            let id = cached.intern(&query);
            let kept = fold_interned_indices(cached.query_interner().resolve(id));
            kept
        })
        .collect()
}

#[test]
fn all_existential_copies_fold_to_the_last_one() {
    let texts: Vec<String> = (1..=9usize)
        .map(|k| {
            let body: Vec<String> = (0..k).map(|i| format!("Meetings(a{i}, b{i})")).collect();
            format!("Q() :- {}", body.join(", "))
        })
        .collect();
    for (k, kept) in (1..=9u32).zip(check_family(&texts)) {
        assert_eq!(kept, vec![k - 1]);
    }
}

#[test]
fn a_branch_folds_only_when_all_its_atoms_move_together() {
    let kept = check_family(&[
        // The (b, c, d) branch maps onto the (e, f, g) branch — but only
        // with all three of its atoms moving at once; no single atom of it
        // has an image while its neighbours stay put.
        "Q(x) :- Meetings(x, b), Contacts(b, c, 'Intern'), Meetings(c, d), \
         Meetings(x, e), Contacts(e, f, 'Intern'), Meetings(f, g)"
            .to_owned(),
        // Same, but the second branch ends in a constant the first lacks:
        // the first still folds into it, not the other way round.
        "Q(x) :- Meetings(x, b), Contacts(b, c, 'Intern'), Meetings(c, d), \
         Meetings(x, e), Contacts(e, f, 'Intern'), Meetings(f, 'Cathy')"
            .to_owned(),
        // A longer second branch receives the shorter first one.
        "Q(x) :- Meetings(x, b), Meetings(b, c), \
         Meetings(x, e), Meetings(e, f), Meetings(f, g)"
            .to_owned(),
        // Branches that differ in a constant on both sides: nothing moves.
        "Q(x) :- Meetings(x, b), Contacts(b, c, 'Intern'), \
         Meetings(x, e), Contacts(e, f, 'Manager')"
            .to_owned(),
    ]);
    assert_eq!(kept[0], vec![3, 4, 5]);
    assert_eq!(kept[1], vec![3, 4, 5]);
    assert_eq!(kept[2], vec![2, 3, 4]);
    assert_eq!(kept[3], vec![0, 1, 2, 3]);
}

#[test]
fn diagonals_receive_general_atoms_but_never_fold_into_them() {
    let kept = check_family(&[
        "Q(x) :- Meetings(x, x), Meetings(x, y)".to_owned(),
        "Q(x) :- Meetings(x, y), Meetings(x, x)".to_owned(),
        "Q() :- Meetings(x, x), Meetings(y, z)".to_owned(),
        "Q() :- Meetings(y, z), Meetings(x, x)".to_owned(),
        "Q() :- Meetings(x, x), Meetings(y, y)".to_owned(),
        "Q(y) :- Meetings(x, x), Meetings(y, z)".to_owned(),
        "Q(y, z) :- Meetings(x, x), Meetings(y, z)".to_owned(),
        "Q() :- Contacts(x, x, y), Contacts(a, b, b), Contacts(c, c, c)".to_owned(),
    ]);
    assert_eq!(kept[0], vec![0]);
    assert_eq!(kept[1], vec![1]);
    assert_eq!(kept[2], vec![0]);
    assert_eq!(kept[3], vec![1]);
    assert_eq!(kept[4], vec![1]);
    assert_eq!(kept[5], vec![0, 1]);
    assert_eq!(kept[6], vec![0, 1]);
    assert_eq!(kept[7], vec![2]);
}

#[test]
fn constants_absorb_variables_in_one_direction_only() {
    let kept = check_family(&[
        "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y)".to_owned(),
        "Q(x) :- Meetings(x, y), Meetings(x, 'Cathy')".to_owned(),
        "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, 'Bob'), Meetings(x, y)".to_owned(),
        "Q() :- Meetings(9, 'Cathy'), Meetings(x, 'Cathy'), Meetings(9, y), Meetings(x, y)"
            .to_owned(),
        // The variable atom is tied to a second atom that has no image once
        // y becomes 'Cathy'.
        "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y), Contacts(y, w, 'Intern')".to_owned(),
        // ... and has one here.
        "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y), Contacts(y, w, 'Intern'), \
         Contacts('Cathy', v, 'Intern')"
            .to_owned(),
    ]);
    assert_eq!(kept[0], vec![0]);
    assert_eq!(kept[1], vec![1]);
    assert_eq!(kept[2], vec![0, 1]);
    assert_eq!(kept[3], vec![0]);
    assert_eq!(kept[4], vec![0, 1, 2]);
    assert_eq!(kept[5], vec![0, 3]);
}

#[test]
fn distinguished_variables_pin_their_atoms_and_what_hangs_off_them() {
    let kept = check_family(&[
        "Q(x, y) :- Meetings(x, 'Cathy'), Meetings(x, y)".to_owned(),
        "Q(x, y) :- Meetings(x, y), Meetings(x, z)".to_owned(),
        "Q(y, z) :- Meetings(x, y), Meetings(x, z)".to_owned(),
        // Pinned transitively: x pins atom 0, which fixes y, which pins
        // atom 1, which fixes w; the free copy of atom 2 still folds.
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern'), Meetings(w, u), Meetings(w, v)"
            .to_owned(),
        "Q(u) :- Meetings(x, y), Contacts(y, w, 'Intern'), Meetings(w, u), Meetings(w, v)"
            .to_owned(),
    ]);
    assert_eq!(kept[0], vec![0, 1]);
    assert_eq!(kept[1], vec![0]);
    assert_eq!(kept[2], vec![0, 1]);
    assert_eq!(kept[3], vec![0, 1, 3]);
    assert_eq!(kept[4], vec![0, 1, 2]);
}

#[test]
fn byte_identical_duplicates_keep_their_last_copy() {
    let kept = check_family(&[
        "Q(x) :- Meetings(x, y), Meetings(x, y)".to_owned(),
        "Q(x, y) :- Meetings(x, y), Meetings(x, y), Meetings(x, y)".to_owned(),
        "Q() :- Meetings(9, 'Cathy'), Contacts(a, b, c), Meetings(9, 'Cathy')".to_owned(),
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern'), Meetings(x, y), \
         Contacts(y, w, 'Intern')"
            .to_owned(),
    ]);
    assert_eq!(kept[0], vec![1]);
    assert_eq!(kept[1], vec![2]);
    assert_eq!(kept[2], vec![1, 2]);
    assert_eq!(kept[3], vec![2, 3]);
}

#[test]
fn a_cyclic_triangle_keeps_its_cycle_and_sheds_the_redundant_pendant() {
    let kept = check_family(&[
        "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Meetings(x, p)".to_owned(),
        "Q() :- Meetings(x, p), Meetings(x, y), Meetings(y, z), Meetings(z, x)".to_owned(),
        // A distinguished pendant is information of its own.
        "Q(p) :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Meetings(x, p)".to_owned(),
        // Two triangles: one folds onto the other as a whole.
        "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), \
         Meetings(a, b), Meetings(b, c), Meetings(c, a)"
            .to_owned(),
        // A triangle next to a self-loop collapses onto the loop.
        "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Meetings(w, w)".to_owned(),
    ]);
    assert_eq!(kept[0], vec![0, 1, 2]);
    assert_eq!(kept[1], vec![1, 2, 3]);
    assert_eq!(kept[2], vec![0, 1, 2, 3]);
    assert_eq!(kept[3], vec![3, 4, 5]);
    assert_eq!(kept[4], vec![3]);
}

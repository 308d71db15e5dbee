//! The positional rule of `fdc_core::answers` against the rewriting check,
//! on every single-atom (query, view) pair up to a given arity.
//!
//! An atom of arity `n` is a set partition of its positions (its
//! repeated-term pattern) with one of four terms per block: a distinguished
//! variable, an existential variable, or one of two constants.  Two blocks
//! may take the same constant, so some atoms are listed twice; every atom
//! is listed.  For every ordered pair of atoms over one relation, checked
//! against the boxed `rewritable_from_single`:
//!
//! * rules 1–4 on the terms (`answers::by_terms`);
//! * against a projection-style view, the mask test `needs & !exposed == 0`;
//! * against any other view, that a simple query is never answered;
//! * what the labelers run, `Shape::answered_by`, which picks among them.
//!
//! Arity ≤ 4 (585 408 pairs) runs in every build; arity ≤ 5 (30 048 592
//! pairs) is `#[ignore]`d and runs in the optimised CI build.

use fdc::core::answers::{self, Shape};
use fdc::cq::rewriting::rewritable_from_single;
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, Term, TermRef, VarId, VarKind};

/// The terms a block of equal positions can hold.
const BLOCK_TERMS: usize = 4;

/// Every atom of relation `relation` with `arity` positions, as a
/// single-atom query.
fn atoms(catalog: &Catalog, relation: &str, arity: usize) -> Vec<ConjunctiveQuery> {
    let relation = catalog.resolve(relation).unwrap();
    let mut out = Vec::new();
    for blocks in set_partitions(arity) {
        let count = blocks.iter().max().map_or(0, |&b| b + 1);
        for mut choice in 0..BLOCK_TERMS.pow(count as u32) {
            let mut block_terms = Vec::with_capacity(count);
            let mut vars = 0;
            for _ in 0..count {
                let term = match choice % BLOCK_TERMS {
                    0 => Term::Var(VarId(vars), VarKind::Distinguished),
                    1 => Term::Var(VarId(vars), VarKind::Existential),
                    2 => Term::constant("a"),
                    _ => Term::constant("b"),
                };
                vars += u32::from(term.is_var());
                block_terms.push(term);
                choice /= BLOCK_TERMS;
            }
            let terms = blocks.iter().map(|&b| block_terms[b].clone()).collect();
            out.push(ConjunctiveQuery::from_atoms(vec![Atom::new(relation, terms)]).unwrap());
        }
    }
    out
}

/// Every set partition of `n` positions, as the block of each position,
/// blocks numbered by first position.
fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|blocks: Vec<usize>| {
                let next = blocks.iter().max().map_or(0, |&b| b + 1);
                (0..=next).map(move |b| {
                    let mut grown = blocks.clone();
                    grown.push(b);
                    grown
                })
            })
            .collect();
    }
    out
}

/// Checks every pair up to `max_arity`; returns (pairs, rewritable pairs).
fn sweep(max_arity: usize) -> (u64, u64) {
    let mut catalog = Catalog::new();
    let (mut pairs, mut rewritable) = (0, 0);
    for arity in 1..=max_arity {
        let name = format!("R{arity}");
        catalog.add_relation_with_arity(&name, arity).unwrap();
        let atoms = atoms(&catalog, &name, arity);
        let shapes: Vec<Shape> = atoms.iter().map(|q| Shape::of(q.atom(0))).collect();
        let terms: Vec<Vec<TermRef>> = atoms
            .iter()
            .map(|q| q.atom(0).terms().iter().collect())
            .collect();
        for ((query, query_shape), query_terms) in atoms.iter().zip(&shapes).zip(&terms) {
            for ((view, view_shape), view_terms) in atoms.iter().zip(&shapes).zip(&terms) {
                let reference = rewritable_from_single(query, view);
                let rule = answers::by_terms(
                    query_terms.as_slice(),
                    |t| !t.is_existential(),
                    view_terms.as_slice(),
                );
                assert_eq!(rule, reference, "rules 1-4 on {query:?} from {view:?}");
                match view_shape.exposed() {
                    Some(exposed) => assert_eq!(
                        query_shape.needs & !exposed == 0,
                        reference,
                        "the mask test on {query:?} from {view:?}"
                    ),
                    None => assert!(
                        !(query_shape.simple && reference),
                        "a simple {query:?} answered by {view:?}"
                    ),
                }
                assert_eq!(
                    query_shape.answered_by(view_shape.exposed(), || rule),
                    reference,
                    "{query:?} from {view:?}"
                );
                pairs += 1;
                rewritable += u64::from(reference);
            }
        }
    }
    (pairs, rewritable)
}

#[test]
fn the_rule_agrees_with_the_rewriting_check_on_every_pair_up_to_arity_4() {
    assert_eq!(sweep(3), (13_872, 980));
    assert_eq!(sweep(4), (585_408, 15_397));
}

#[test]
#[ignore = "30 M pairs: about 8 s in an optimised build; CI runs it there"]
fn the_rule_agrees_with_the_rewriting_check_on_every_pair_up_to_arity_5() {
    assert_eq!(sweep(5), (30_048_592, 293_001));
}

//! Query folding (core computation).
//!
//! The `Dissect` labeling algorithm of Section 5.2 "begins by computing a
//! folding \[9\] of Q, which intuitively removes 'redundant' atoms from Q".
//! A folding is a minimal equivalent sub-query: the *core* of the query in
//! the sense of Chandra–Merlin.
//!
//! As the paper's complexity analysis notes (Section 6.1), query folding is
//! NP-hard in general and the reference implementation uses a brute-force
//! search.  [`fold`] does the same and is kept as the reference: an atom is
//! redundant if there is a homomorphism from the query into the remaining
//! atoms that fixes distinguished variables; atoms are removed greedily,
//! rescanning from the first atom after every removal, until a fixpoint is
//! reached, which yields a core because homomorphisms compose.
//!
//! # The interned fold: fix what cannot move, then one pass
//!
//! [`fold_interned_indices`] keeps exactly the atoms [`fold`] keeps, but
//! bounds what is searched before searching.  Call a map from the query's
//! variables to its terms an *endomorphism* if it sends every atom onto an
//! atom of the query and every distinguished variable to itself; each
//! redundancy check asks for an endomorphism that avoids one atom.
//!
//! 1. **Rigidity propagation.**  Start with the distinguished variables
//!    *fixed*.  An atom is *rigid* when no **other** atom of its relation
//!    can receive it term for term — constants equal, fixed variables
//!    identical, a repeated variable sent to one term.  All variables of a
//!    rigid atom become fixed; repeat until nothing changes.
//!
//!    *Soundness.*  By induction every endomorphism is the identity on the
//!    fixed variables, so the image of an atom under it is one of the atoms
//!    that can receive it; for a rigid atom that leaves only the atom
//!    itself.  A rigid atom is therefore in the image of every endomorphism
//!    — it can never be removed, and is never tested — and the search may
//!    start with the fixed variables bound to themselves and leave the
//!    rigid atoms out of its order.
//!
//! 2. **One pass.**  The remaining *movable* atoms are tested once each, in
//!    index order, against the atoms still kept (the search maps the
//!    movable kept atoms only: with `K` the kept atoms, the query maps into
//!    `K ∖ {a}` iff `K` does, because the query already maps onto `K`).
//!
//!    *No restart.*  A homomorphism into a set of atoms is one into every
//!    superset, so a check that failed against the atoms kept then fails
//!    against every later, smaller set: re-testing after a removal, as the
//!    reference does, can only repeat failures.  Both procedures thus
//!    remove, scanning in index order, exactly the atoms redundant against
//!    what is kept at that moment — the same set, index for index.
//!
//! Most first-seen shapes of the Section 7.2 workload are all-rigid and
//! fold without a single search (27.3 k of 34.6 k at up to 15 atoms); the
//! scratch (binding table, trail, target list) is allocated once per fold,
//! not per check.

use crate::atom::Atom;
use crate::homomorphism::{
    bind_atom, find_homomorphism_into, interned_search_prebound, unbind, HeadPolicy,
};
use crate::intern::{IAtom, ITerm, QueryRef};
use crate::query::ConjunctiveQuery;

/// Computes a folding (core) of the query: an equivalent query whose body is
/// a minimal subset of the original atoms.
///
/// The returned query shares the variable table of the input, so variables
/// keep their ids, names and kinds.  Some variables may no longer appear in
/// the body; since they were redundant this does not affect distinguished
/// variables (a distinguished variable always survives folding because
/// folding homomorphisms fix it).
pub fn fold(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut atoms: Vec<Atom> = query.atoms().to_vec();
    if atoms.len() <= 1 {
        return query.clone();
    }
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < atoms.len() {
            if atoms.len() == 1 {
                break;
            }
            // An atom can only fold away if some *other* atom references the
            // same relation (its image must live somewhere); skipping the
            // expensive homomorphism search otherwise is a large win on the
            // multi-relation queries the workload generator produces.
            let has_sibling = atoms
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.relation == atoms[i].relation);
            if !has_sibling {
                i += 1;
                continue;
            }
            let mut candidate = atoms.clone();
            candidate.remove(i);
            // The query is equivalent to the reduced atom set iff the full
            // query maps homomorphically into the reduced set while fixing
            // distinguished variables (the reverse direction is trivial
            // because the reduced set is a subset).
            if find_homomorphism_into(query, &candidate, query, HeadPolicy::Identity).is_some() {
                atoms = candidate;
                removed_any = true;
                // Restart scanning: removing one atom can expose further
                // redundancy at earlier positions.
                i = 0;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }
    query.with_atoms_unchecked(atoms)
}

/// True if the query is already a core (folding it removes nothing).
pub fn is_folded(query: &ConjunctiveQuery) -> bool {
    fold(query).num_atoms() == query.num_atoms()
}

/// [`fold`] over the interned flat representation: the **indices** of the
/// atoms of a folding (core) of the query within `query.atoms`, in original
/// order — the form the interner's per-query core cache stores, since
/// indices stay meaningful against the arena.
///
/// The surviving atom set is exactly the one [`fold`] keeps (see the module
/// docs for why one pass over the movable atoms decides the same removals as
/// the reference's restarting loop); the `Dissect` equivalence tests rely on
/// that.  A pure function of the view: it needs no interner access, so
/// callers may run it under a shared lock.
pub fn fold_interned_indices(query: QueryRef<'_>) -> Vec<u32> {
    fold_movable(query).0
}

/// The fold proper.  Besides the kept indices it reports how many
/// homomorphism searches it ran, which the unit tests pin (none on an
/// all-rigid shape, fewer than `k` on `k` interchangeable copies).
fn fold_movable(query: QueryRef<'_>) -> (Vec<u32>, usize) {
    let mut kept: Vec<u32> = (0..query.atoms.len() as u32).collect();
    if kept.len() <= 1 {
        return (kept, 0);
    }
    // `subst` is the search's binding table and, between searches, the set
    // of fixed variables: `subst[v]` is `v` itself exactly when every
    // head-fixing endomorphism maps `v` to itself.
    let mut subst: Vec<Option<ITerm>> = query
        .kinds
        .iter()
        .enumerate()
        .map(|(v, &kind)| {
            kind.is_distinguished()
                .then_some(ITerm::Var(v as u32, kind))
        })
        .collect();
    let mut trail: Vec<u32> = Vec::new();

    // Rigidity propagation: an atom no *other* atom can receive is its own
    // only possible image, so its variables become fixed, which may pin
    // further atoms.  `movable` shrinks to the atoms never proved rigid.
    let mut movable = kept.clone();
    loop {
        let before = movable.len();
        movable.retain(|&i| {
            let atom = query.atoms[i as usize];
            let terms = atom.terms(query.terms);
            let received = query.atoms.iter().enumerate().any(|(j, other)| {
                if j == i as usize
                    || other.relation != atom.relation
                    || other.term_len != atom.term_len
                {
                    return false;
                }
                let fits = bind_atom(
                    terms,
                    other.terms(query.terms),
                    HeadPolicy::Identity,
                    &mut subst,
                    &mut trail,
                );
                unbind(&mut subst, &mut trail, 0);
                fits
            });
            if !received {
                for term in terms {
                    if let ITerm::Var(v, _) = *term {
                        subst[v as usize] = Some(*term);
                    }
                }
            }
            received
        });
        if movable.is_empty() {
            return (kept, 0);
        }
        if movable.len() == before {
            break;
        }
    }

    // One pass: each movable atom is tested once, in index order, against
    // the atoms still kept.  `targets[k]` is the span of atom `kept[k]`.
    let mut targets: Vec<IAtom> = query.atoms.to_vec();
    let mut searches = 0;
    let mut next = 0;
    while next < movable.len() && kept.len() > 1 {
        // Only atoms before `i` have been removed so far.
        let at = movable[next] as usize - (query.atoms.len() - kept.len());
        let atom = targets.remove(at);
        // The atom under test leads the search order: it is the only one
        // that cannot stay where it is.
        movable.swap(0, next);
        searches += 1;
        let redundant = interned_search_prebound(query, &movable, &targets, &mut subst, &mut trail);
        movable.swap(0, next);
        if redundant {
            unbind(&mut subst, &mut trail, 0);
            kept.remove(at);
            movable.remove(next);
        } else {
            targets.insert(at, atom);
            next += 1;
        }
    }
    (kept, searches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::containment::equivalent_same_space;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    /// Positions within `query` of the atoms `folded` kept.  Matched from
    /// the right: of byte-identical atoms the reference tests (and removes)
    /// the earlier ones first, so a surviving copy is always the last.
    fn surviving_positions(query: &ConjunctiveQuery, folded: &ConjunctiveQuery) -> Vec<u32> {
        let mut positions = Vec::new();
        let mut end = query.atoms().len();
        for atom in folded.atoms().iter().rev() {
            end = query.atoms()[..end]
                .iter()
                .rposition(|a| a == atom)
                .expect("folding keeps a subsequence of the atoms");
            positions.push(end as u32);
        }
        positions.reverse();
        positions
    }

    #[test]
    fn single_atom_queries_are_already_folded() {
        let c = catalog();
        let q = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let folded = fold(&q);
        assert_eq!(folded, q);
        assert!(is_folded(&q));
    }

    #[test]
    fn duplicate_projection_atoms_fold_away() {
        let c = catalog();
        let q = parse_query(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)").unwrap();
        let folded = fold(&q);
        assert_eq!(folded.num_atoms(), 1);
        assert!(equivalent_same_space(&folded, &q));
        assert!(!is_folded(&q));
    }

    #[test]
    fn joins_do_not_fold() {
        let c = catalog();
        let q2 = parse_query(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        let folded = fold(&q2);
        assert_eq!(folded.num_atoms(), 2);
        assert!(is_folded(&q2));
    }

    #[test]
    fn more_specific_atom_absorbs_a_general_one() {
        let c = catalog();
        // The unconstrained Meetings atom is implied by the constrained one
        // only when its variables are free to map there: here y is
        // existential and x is shared, so Meetings(x, y) folds into
        // Meetings(x, 'Cathy').
        let q = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y)").unwrap();
        let folded = fold(&q);
        assert_eq!(folded.num_atoms(), 1);
        assert!(folded.atoms()[0].has_constants());
        assert!(equivalent_same_space(&folded, &q));
    }

    #[test]
    fn distinguished_variables_block_folding() {
        let c = catalog();
        // Same shape as above but y is distinguished, so the second atom
        // carries information of its own and must survive.
        let q = parse_query(&c, "Q(x, y) :- Meetings(x, 'Cathy'), Meetings(x, y)").unwrap();
        let folded = fold(&q);
        assert_eq!(folded.num_atoms(), 2);
    }

    #[test]
    fn chains_of_redundant_atoms_fold_to_a_single_atom() {
        let c = catalog();
        let q = parse_query(
            &c,
            "Q() :- Meetings(a, b), Meetings(c, d), Meetings(e, f), Meetings(g, h)",
        )
        .unwrap();
        let folded = fold(&q);
        assert_eq!(folded.num_atoms(), 1);
        assert!(equivalent_same_space(&folded, &q));
    }

    #[test]
    fn folding_is_idempotent() {
        let c = catalog();
        let q = parse_query(
            &c,
            "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(y, w, 'Intern'), Contacts(y, u, p)",
        )
        .unwrap();
        let once = fold(&q);
        let twice = fold(&once);
        assert_eq!(once, twice);
        assert!(equivalent_same_space(&once, &q));
    }

    #[test]
    fn self_join_with_repeated_variable_is_kept() {
        let c = catalog();
        // Meetings(x, x) is strictly more restrictive than Meetings(x, y):
        // the general atom folds into it, but not vice versa, and the
        // diagonal must stay because x is distinguished.
        let q = parse_query(&c, "Q(x) :- Meetings(x, x), Meetings(x, y)").unwrap();
        let folded = fold(&q);
        assert_eq!(folded.num_atoms(), 1);
        assert!(folded.atoms()[0].has_repeated_vars());
    }

    #[test]
    fn interned_folding_keeps_the_same_atoms_as_boxed_folding() {
        use crate::intern::QueryInterner;
        let c = catalog();
        let texts = [
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y)",
            "Q(x, y) :- Meetings(x, 'Cathy'), Meetings(x, y)",
            "Q() :- Meetings(a, b), Meetings(c, d), Meetings(e, f), Meetings(g, h)",
            "Q(x) :- Meetings(x, x), Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(y, w, 'Intern'), Contacts(y, u, p)",
        ];
        let mut interner = QueryInterner::new();
        for text in texts {
            let query = parse_query(&c, text).unwrap();
            let boxed = fold(&query);
            let id = interner.intern(&query);
            let kept = fold_interned_indices(interner.resolve(id));
            assert_eq!(
                kept,
                surviving_positions(&query, &boxed),
                "survivors differ on {text}"
            );
        }
    }

    /// Interns `text` and runs the interned fold, returning the kept indices
    /// and the number of homomorphism searches it took.
    fn fold_counted(c: &Catalog, text: &str) -> (Vec<u32>, usize) {
        let mut interner = crate::intern::QueryInterner::new();
        let id = interner.intern(&parse_query(c, text).unwrap());
        fold_movable(interner.resolve(id))
    }

    #[test]
    fn an_all_rigid_shape_is_folded_without_a_single_search() {
        let c = catalog();
        // Fifteen atoms over two relations, every one pinned: the Meetings
        // atoms by their distinguished first column or their constant, the
        // Contacts atoms by the variables those pin in turn.
        let mut body = Vec::new();
        let mut head = Vec::new();
        for i in 0..5 {
            head.push(format!("d{i}"));
            body.push(format!("Meetings(d{i}, e{i})"));
            body.push(format!("Contacts(e{i}, f{i}, 'Intern')"));
            body.push(format!("Meetings(f{i}, 'Cathy')"));
        }
        let text = format!("Q({}) :- {}", head.join(", "), body.join(", "));
        let (kept, searches) = fold_counted(&c, &text);
        assert_eq!(kept, (0..15).collect::<Vec<u32>>());
        assert_eq!(searches, 0);
        assert!(is_folded(&parse_query(&c, &text).unwrap()));
    }

    #[test]
    fn interchangeable_copies_cost_at_most_one_search_each() {
        let c = catalog();
        for k in 2..=8usize {
            let body: Vec<String> = (0..k).map(|i| format!("Meetings(a{i}, b{i})")).collect();
            let (kept, searches) = fold_counted(&c, &format!("Q() :- {}", body.join(", ")));
            // Every copy but the last folds into a later one; the last is
            // never tested because nothing is left to receive it.
            assert_eq!(kept, vec![k as u32 - 1]);
            assert!(searches <= k, "{searches} searches for {k} copies");
        }
    }

    #[test]
    fn a_failed_check_is_never_repeated_after_a_removal() {
        let c = catalog();
        // All existential, every atom receivable by every other, so nothing
        // is rigid.  The three triangle atoms each fail their check (what
        // is left has no cycle to map the triangle onto), the pendant folds
        // — and the triangle is not tested again afterwards, as the
        // restarting reference would: four searches, one per atom.
        let text = "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Meetings(x, p)";
        let (kept, searches) = fold_counted(&c, text);
        assert_eq!(kept, vec![0, 1, 2]);
        assert_eq!(searches, 4);

        // A rigid atom (its constant has no other home) is not tested at
        // all: two searches for the two atoms that fold into it.
        let text = "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y), Meetings(x, z)";
        let (kept, searches) = fold_counted(&c, text);
        assert_eq!(kept, vec![0]);
        assert_eq!(searches, 2);
    }
}

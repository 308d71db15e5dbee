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
//!    It runs as a worklist.  Only an atom of the same *bucket* —
//!    relation and arity — can receive another, so an atom alone in its
//!    bucket is rigid without a bind attempted.  Whether an atom can be
//!    received depends only on which of its own variables are fixed, so
//!    once atoms turn rigid only the received atoms sharing a variable they
//!    fixed are examined again.  Fixing only takes receivers away, so the
//!    fixpoint is monotone: the worklist reaches the rigid set a
//!    round-robin over all atoms reaches, whatever the order of
//!    examination.  A bucket is found by comparing the atoms' relations
//!    and arities where an atom is examined: every atom is examined at
//!    least once, so a table built up front would cost the same scan
//!    again.
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
//! scratch (binding table, trail, worklist, target list) is
//! allocated once per fold, not per check.

use crate::atom::AtomRef;
use crate::bitset::BitSet;
use crate::homomorphism::{find_homomorphism_into, HeadPolicy};
use crate::intern::{IAtom, ITerm, ITermView, QueryRef};
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
    let mut atoms: Vec<AtomRef<'_>> = query.atoms().collect();
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
            if find_homomorphism_into(
                query,
                candidate.iter().copied(),
                query,
                HeadPolicy::Identity,
            )
            .is_some()
            {
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
/// homomorphism searches and how many single-atom bind attempts it ran,
/// which the unit tests pin (neither on a shape whose atoms all have
/// distinct relations, no search on an all-rigid shape, fewer than `k`
/// searches on `k` interchangeable copies).
fn fold_movable(query: QueryRef<'_>) -> (Vec<u32>, usize, usize) {
    let mut kept: Vec<u32> = (0..query.atoms.len() as u32).collect();
    if kept.len() <= 1 {
        return (kept, 0, 0);
    }
    // `subst` is the search's binding table and, between searches, the set
    // of fixed variables: `subst[v]` is `v` itself exactly when every
    // head-fixing endomorphism maps `v` to itself.
    let mut subst = fixed_head(query);
    let mut trail: Vec<u32> = Vec::new();
    let (mut movable, binds) = propagate_rigidity(query, &mut subst, &mut trail);
    if movable.is_empty() {
        return (kept, 0, binds);
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
        let redundant = search(query, &movable, &targets, &mut subst, &mut trail);
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
    (kept, searches, binds)
}

/// The binding table with only the distinguished variables fixed.
fn fixed_head(query: QueryRef<'_>) -> Vec<Option<ITerm>> {
    query
        .kinds
        .iter()
        .enumerate()
        .map(|(v, &kind)| kind.is_distinguished().then(|| ITerm::var(v as u32, kind)))
        .collect()
}

/// Rigidity propagation: fixes, in `subst`, the variables of every atom
/// proved rigid, and returns the atoms never proved rigid in index order,
/// with the number of bind attempts it took.
fn propagate_rigidity(
    query: QueryRef<'_>,
    subst: &mut [Option<ITerm>],
    trail: &mut Vec<u32>,
) -> (Vec<u32>, usize) {
    // The received atoms and the worklist: a word each up to 64 atoms.
    let words = query.atoms.len().div_ceil(64);
    if words == 1 {
        worklist(query, subst, trail, &mut 0u64, &mut 0u64)
    } else {
        let mut sets = vec![0u64; 2 * words];
        let (received, queued) = sets.split_at_mut(words);
        worklist(query, subst, trail, received, queued)
    }
}

/// [`propagate_rigidity`] over the sets `received` and `queued`, empty sets
/// over the atoms.
///
/// Every atom starts on a worklist, which is taken in passes, smallest
/// index first.  Only an atom of the same bucket — (relation, arity) — can
/// receive another, so an atom alone in its bucket is rigid without a
/// bind.  Whether an atom is received depends only on which of its own
/// variables are fixed, so after a pass only the received atoms sharing a
/// variable fixed in it go back on the worklist.  Fixing variables only
/// takes receivers away, so the fixpoint is monotone and does not depend
/// on the order of examination: the rigid set is the one a round-robin
/// over all atoms reaches.
///
/// A pass records the variables it fixes as bits `v % 64` of one word.
/// Past 64 variables that also sends back an atom whose variable merely
/// shares a bit with a fixed one; examining an atom again is harmless.
fn worklist<S: BitSet + ?Sized>(
    query: QueryRef<'_>,
    subst: &mut [Option<ITerm>],
    trail: &mut Vec<u32>,
    received: &mut S,
    queued: &mut S,
) -> (Vec<u32>, usize) {
    let atoms = query.atoms;
    let n = atoms.len();
    for i in 0..n {
        queued.insert(i);
    }
    // Bits `v % 64` of the variables of `terms`.
    let bits = |terms: &[ITerm]| {
        terms
            .iter()
            .fold(0u64, |word, term| match term.var_index() {
                Some(v) => word | 1 << (v % 64),
                None => word,
            })
    };
    let mut binds = 0;
    loop {
        let mut fixed = 0u64;
        while let Some(i) = queued.first() {
            queued.remove(i);
            let atom = atoms[i];
            let terms = atom.terms(query.terms);
            let fits_a_peer = atoms.iter().enumerate().any(|(j, peer)| {
                if j == i || peer.relation != atom.relation || peer.term_len != atom.term_len {
                    return false;
                }
                binds += 1;
                let fits = bind_atom(terms, peer.terms(query.terms), subst, trail);
                unbind(subst, trail, 0);
                fits
            });
            if fits_a_peer {
                received.insert(i);
                continue;
            }
            // Rigid: fix its variables.  Noting which were free is kept
            // branch-free, so it costs next to nothing beside the fixing.
            for term in terms {
                if let Some(v) = term.var_index() {
                    fixed |= u64::from(subst[v as usize].is_none()) << (v % 64);
                    subst[v as usize] = Some(*term);
                }
            }
        }
        if fixed == 0 {
            break;
        }
        for (m, atom) in atoms.iter().enumerate() {
            if received.contains(m) && bits(atom.terms(query.terms)) & fixed != 0 {
                received.remove(m);
                queued.insert(m);
            }
        }
    }
    let movable = (0..n as u32)
        .filter(|&i| received.contains(i as usize))
        .collect();
    (movable, binds)
}

/// The backtracking search with the fixed variables already bound: true if
/// the atoms of `query` listed in `order` map into `targets` (spans into
/// `query`'s own term buffer), extending `subst` without contradicting
/// what it already binds.
///
/// On `false`, `subst` is back to what the caller passed; on `true` it
/// additionally holds the witness, and `trail` names the variables the
/// search bound, so [`unbind`] restores the caller's bindings.
fn search(
    query: QueryRef<'_>,
    order: &[u32],
    targets: &[IAtom],
    subst: &mut [Option<ITerm>],
    trail: &mut Vec<u32>,
) -> bool {
    let Some((&atom_idx, rest)) = order.split_first() else {
        return true;
    };
    let atom = query.atoms[atom_idx as usize];
    let source_terms = atom.terms(query.terms);
    let mark = trail.len();
    for target in targets {
        if target.relation != atom.relation || target.term_len != atom.term_len {
            continue;
        }
        if bind_atom(source_terms, target.terms(query.terms), subst, trail)
            && search(query, rest, targets, subst, trail)
        {
            return true;
        }
        unbind(subst, trail, mark);
    }
    false
}

/// Maps the source atom's terms onto the target atom's, term for term:
/// constants equal, every variable bound consistently with `subst` (and
/// with itself, when it repeats).  Distinguished variables arrive bound to
/// themselves ([`fixed_head`]), so the binding check alone keeps them
/// fixed.  Variables bound on the way are pushed on `trail` — also when the
/// match fails half-way, so the caller [`unbind`]s back to its mark either
/// way.
#[inline]
fn bind_atom(
    source_terms: &[ITerm],
    target_terms: &[ITerm],
    subst: &mut [Option<ITerm>],
    trail: &mut Vec<u32>,
) -> bool {
    for (src, dst) in source_terms.iter().zip(target_terms.iter()) {
        match src.get() {
            ITermView::Const(_) => {
                if dst != src {
                    return false;
                }
            }
            ITermView::Var(v, kind) => {
                debug_assert!(kind.is_existential() || subst[v as usize].is_some());
                match subst[v as usize] {
                    Some(bound) if bound != *dst => return false,
                    Some(_) => {}
                    None => {
                        subst[v as usize] = Some(*dst);
                        trail.push(v);
                    }
                }
            }
        }
    }
    true
}

/// Undoes every binding recorded on `trail` past `mark`.
#[inline]
fn unbind(subst: &mut [Option<ITerm>], trail: &mut Vec<u32>, mark: usize) {
    for v in trail.drain(mark..) {
        subst[v as usize] = None;
    }
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
        assert!(folded.atom(0).has_constants());
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
        assert!(folded.atom(0).has_repeated_vars());
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
    /// and the number of homomorphism searches and bind attempts it took.
    fn fold_counted(c: &Catalog, text: &str) -> (Vec<u32>, usize, usize) {
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
        let (kept, searches, _) = fold_counted(&c, &text);
        assert_eq!(kept, (0..15).collect::<Vec<u32>>());
        assert_eq!(searches, 0);
        assert!(is_folded(&parse_query(&c, &text).unwrap()));
    }

    #[test]
    fn atoms_of_distinct_relations_are_rigid_without_a_bind() {
        // Seventy relations, one atom each, chained by their variables: every
        // atom is alone in its bucket.
        let mut c = Catalog::new();
        for r in 0..70 {
            c.add_relation(&format!("R{r}"), &["a", "b"]).unwrap();
        }
        let body: Vec<String> = (0..70).map(|r| format!("R{r}(x{r}, x{})", r + 1)).collect();
        let text = format!("Q() :- {}", body.join(", "));
        assert_eq!(fold_counted(&c, &text), ((0..70).collect(), 0, 0));

        let c = catalog();
        let text = "Q(x) :- Meetings(x, y), Contacts(y, w, p)";
        assert_eq!(fold_counted(&c, text), (vec![0, 1], 0, 0));
    }

    #[test]
    fn a_rigid_atom_pins_a_peer_it_shares_a_variable_with() {
        let c = catalog();
        // Meetings(x, u) is examined first and received by Meetings(x,
        // 'Cathy'), `u` still being free.  Then Contacts(u, 'a', 'b') turns
        // out rigid (no other Contacts atom has its constants) and fixes `u`,
        // which takes that receiver away: Meetings(x, u) is examined again
        // and is rigid too.  Every atom is rigid, so nothing is searched.
        let text = "Q(x) :- Meetings(x, u), Meetings(x, 'Cathy'), \
                    Contacts(u, 'a', 'b'), Contacts(z, 'c', 'd')";
        let query = parse_query(&c, text).unwrap();
        let (kept, searches, binds) = fold_counted(&c, text);
        assert_eq!(kept, surviving_positions(&query, &fold(&query)));
        assert_eq!(kept, vec![0, 1, 2, 3]);
        assert_eq!(searches, 0);
        // Four first examinations and one re-examination, one bind each.
        assert_eq!(binds, 5);
    }

    /// The atoms never proved rigid by the plain round-robin: every atom not
    /// yet rigid is examined against every other atom of its bucket, round
    /// after round, until a round proves none rigid.
    fn round_robin_movable(query: QueryRef<'_>) -> Vec<u32> {
        let mut subst = fixed_head(query);
        let mut trail = Vec::new();
        let mut movable: Vec<u32> = (0..query.atoms.len() as u32).collect();
        loop {
            let before = movable.len();
            movable.retain(|&i| {
                let atom = query.atoms[i as usize];
                let terms = atom.terms(query.terms);
                let received = query.atoms.iter().enumerate().any(|(j, peer)| {
                    let fits = j != i as usize
                        && peer.relation == atom.relation
                        && peer.term_len == atom.term_len
                        && bind_atom(terms, peer.terms(query.terms), &mut subst, &mut trail);
                    unbind(&mut subst, &mut trail, 0);
                    fits
                });
                if !received {
                    for term in terms {
                        if let Some(v) = term.var_index() {
                            subst[v as usize] = Some(*term);
                        }
                    }
                }
                received
            });
            if movable.len() == before {
                return movable;
            }
        }
    }

    #[test]
    fn the_worklist_reaches_the_round_robin_fixpoint() {
        let c = catalog();
        let mut interner = crate::intern::QueryInterner::new();
        // A small linear congruential generator: the shapes are the same on
        // every run.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        // Small shapes, and long shapes with more than 64 variables, where a
        // pass's record of what it fixed is no longer exact.
        for (shapes, max_atoms, vars) in [(3_000, 8, 6), (200, 80, 100)] {
            for _ in 0..shapes {
                let atoms = 1 + next(max_atoms) as usize;
                let body: Vec<String> = (0..atoms)
                    .map(|_| {
                        let arity = 2 + next(2);
                        let terms: Vec<String> = (0..arity)
                            .map(|_| match next(8) {
                                0 => "'a'".to_owned(),
                                _ => format!("v{}", next(vars)),
                            })
                            .collect();
                        let relation = if arity == 2 { "Meetings" } else { "Contacts" };
                        format!("{relation}({})", terms.join(", "))
                    })
                    .collect();
                let head: Vec<&str> = ["v0", "v1"]
                    .into_iter()
                    .filter(|v| next(2) == 0 && body.iter().any(|a| a.contains(&format!("{v},"))))
                    .collect();
                let text = format!("Q({}) :- {}", head.join(", "), body.join(", "));
                let id = interner.intern(&parse_query(&c, &text).unwrap());
                let query = interner.resolve(id);
                let (movable, _) =
                    propagate_rigidity(query, &mut fixed_head(query), &mut Vec::new());
                assert_eq!(movable, round_robin_movable(query), "{text}");
            }
        }
    }

    #[test]
    fn a_pin_travels_back_through_more_than_64_atoms() {
        let c = catalog();
        // A path of seventy Meetings atoms whose last atom ends in the
        // distinguished `x`.  Examined in index order, every atom but the
        // last is first received by an earlier one; the last is rigid, and
        // fixing its variables pins its predecessor, and so on back to the
        // first atom — across the worklist's word boundary.
        let mut body: Vec<String> = (0..69)
            .map(|k| format!("Meetings(v{k}, v{})", k + 1))
            .collect();
        body.push("Meetings(v69, x)".to_owned());
        let (kept, searches, binds) = fold_counted(&c, &format!("Q(x) :- {}", body.join(", ")));
        assert_eq!(kept, (0..70).collect::<Vec<u32>>());
        assert_eq!(searches, 0);
        assert!(binds > 70, "{binds} binds: nothing was examined again");
    }

    #[test]
    fn interchangeable_copies_cost_at_most_one_search_each() {
        let c = catalog();
        for k in (2..=8usize).chain([70]) {
            let body: Vec<String> = (0..k).map(|i| format!("Meetings(a{i}, b{i})")).collect();
            let (kept, searches, _) = fold_counted(&c, &format!("Q() :- {}", body.join(", ")));
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
        let (kept, searches, _) = fold_counted(&c, text);
        assert_eq!(kept, vec![0, 1, 2]);
        assert_eq!(searches, 4);

        // A rigid atom (its constant has no other home) is not tested at
        // all: two searches for the two atoms that fold into it.
        let text = "Q(x) :- Meetings(x, 'Cathy'), Meetings(x, y), Meetings(x, z)";
        let (kept, searches, _) = fold_counted(&c, text);
        assert_eq!(kept, vec![0]);
        assert_eq!(searches, 2);
    }
}

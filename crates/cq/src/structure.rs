//! Structural algorithms for conjunctive queries: acyclicity via GYO
//! reduction, and the semi-join (Yannakakis-style) homomorphism test its
//! certificate unlocks.
//!
//! Homomorphism search is the innermost kernel under every containment,
//! folding and rewriting call, and the backtracking search of
//! [`homomorphism`](crate::homomorphism) is worst-case exponential.  For
//! **α-acyclic** queries a much better algorithm exists: reduce the query's
//! hypergraph once, keep the certificate (a join tree in ear-removal order),
//! and answer homomorphism questions with a linear pass of semi-joins over
//! that tree.  Nothing in the crate dispatches here: the labeler asks
//! homomorphism questions only between single atoms (the rewriting checks,
//! where a one-step join tree buys nothing) and inside fold (which runs its
//! own pre-bound search), so no certificate is stored anywhere.  A caller
//! that wants the semi-join computes the certificate with [`gyo_reduce`] and
//! brings it to [`semi_join_homomorphism_into`].
//!
//! # GYO reduction
//!
//! The Graham / Yu–Özsoyoğlu reduction decides α-acyclicity of a hypergraph
//! (here: one hyperedge per atom, containing the atom's variables).  An edge
//! `e` is an **ear** with **witness** `f` if every variable of `e` that also
//! occurs in some *other* remaining edge is contained in `f` (variables
//! private to `e` are unconstrained).  The reduction repeatedly removes an
//! ear until either a single edge remains — the query is acyclic, and the
//! removal order with its witnesses forms a join tree — or no ear exists,
//! in which case the query is cyclic and the backtracking search remains
//! the complete decision procedure.
//!
//! [`gyo_reduce`] returns the removal order as [`EarStep`]s (`atom` removed
//! with `parent` as witness; the final surviving atom carries
//! [`NO_PARENT`]).  Because each step's witness is still present when the
//! step runs, replaying the steps in order visits every node of the join
//! tree **children before parents** — exactly the order the bottom-up
//! semi-join pass needs.
//!
//! # The semi-join test
//!
//! [`semi_join_homomorphism_into`] decides existence of a homomorphism from
//! an acyclic query into a target atom set without backtracking: build the
//! per-atom candidate lists (target atoms compatible with the source atom
//! under the [`HeadPolicy`]), then walk the join tree bottom-up, filtering
//! each parent's candidates to those joinable with at least one candidate of
//! the removed child.  The query maps iff the root retains a candidate.
//! Soundness and completeness follow from the running-intersection property
//! of the join tree: all constraints between atoms are variable equalities
//! along tree edges, and the per-variable head-policy constraints are unary,
//! so they fold into candidate generation.

use crate::homomorphism::{interned_term_allowed, HeadPolicy};
use crate::intern::{IAtom, ITerm, ITermView, QueryRef};

/// Parent marker of the join-tree root (the last atom standing after GYO
/// reduction).
pub const NO_PARENT: u32 = u32::MAX;

/// One step of a successful GYO reduction: atom `atom` was removed as an ear
/// with atom `parent` as its witness.
///
/// A query's steps, in order, list every atom exactly once and end with the
/// root (whose `parent` is [`NO_PARENT`]).  Replayed in order they traverse
/// the join tree children-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarStep {
    /// Index of the removed atom within the query's atom list.
    pub atom: u32,
    /// Index of the witness atom (the ear's parent in the join tree), or
    /// [`NO_PARENT`] for the root.
    pub parent: u32,
}

/// Runs GYO reduction over the query's hypergraph.
///
/// Returns the ear-removal order (a join tree in children-first order) if
/// the query is α-acyclic, `None` if it is cyclic.  Queries with zero or one
/// atom are trivially acyclic.
///
/// Only a variable occurring in at least two atoms can keep an atom from
/// being an ear, so the reduction looks at each atom's *shared* variables
/// alone, laid out once in a flat buffer.  At every step the ear and its
/// witness are the first pair `(e, f)` in index order that qualifies — the
/// order is part of the contract, the semi-join pass replays it.
pub fn gyo_reduce(query: QueryRef<'_>) -> Option<Vec<EarStep>> {
    let n = query.num_atoms();
    if n <= 1 {
        // Nothing to reduce: a lone atom (every dissected part) is the root.
        return Some(
            (0..n as u32)
                .map(|atom| EarStep {
                    atom,
                    parent: NO_PARENT,
                })
                .collect(),
        );
    }
    // `occ[v]`: in how many of the *remaining* atoms `v` occurs.  A count
    // of 1 makes `v` private to its atom, where it constrains nothing.
    // `stamp[v]` is the last (pass, atom) that looked at `v`, so a repeated
    // variable counts once per atom.
    let mut occ = vec![0u32; query.num_vars()];
    let mut stamp = vec![0u32; query.num_vars()];
    for i in 0..n {
        for v in query.atom_terms(i).iter().filter_map(|t| t.var_index()) {
            if stamp[v as usize] != i as u32 + 1 {
                stamp[v as usize] = i as u32 + 1;
                occ[v as usize] += 1;
            }
        }
    }
    // Atom `i`'s shared variables are `shared[starts[i]..starts[i + 1]]`.
    let mut shared: Vec<u32> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(n + 1);
    for i in 0..n {
        starts.push(shared.len());
        let seen = (n + i) as u32 + 1;
        for v in query.atom_terms(i).iter().filter_map(|t| t.var_index()) {
            if occ[v as usize] >= 2 && stamp[v as usize] != seen {
                stamp[v as usize] = seen;
                shared.push(v);
            }
        }
    }
    starts.push(shared.len());
    let vars_of = |i: usize| &shared[starts[i]..starts[i + 1]];

    let mut steps = Vec::with_capacity(n);
    let mut alive = vec![true; n];
    for _ in 1..n {
        let ear = (0..n).filter(|&e| alive[e]).find_map(|e| {
            (0..n)
                .filter(|&f| f != e && alive[f])
                .find(|&f| {
                    vars_of(e)
                        .iter()
                        .all(|v| occ[*v as usize] == 1 || vars_of(f).contains(v))
                })
                .map(|f| (e, f))
        });
        let (e, f) = ear?;
        steps.push(EarStep {
            atom: e as u32,
            parent: f as u32,
        });
        alive[e] = false;
        for &v in vars_of(e) {
            occ[v as usize] -= 1;
        }
    }
    let root = alive.iter().position(|&a| a).expect("one atom remains");
    steps.push(EarStep {
        atom: root as u32,
        parent: NO_PARENT,
    });
    Some(steps)
}

/// Decides existence of a homomorphism from the acyclic query `from` into
/// `target_atoms` (interpreted in `to`'s term space) by bottom-up semi-joins
/// over `from`'s join tree.
///
/// `ears` must be the [`gyo_reduce`] certificate of `from`.  The verdict is
/// exactly that of
/// [`interned_homomorphism_exists`](crate::homomorphism::interned_homomorphism_exists)
/// on the same inputs (with `target_atoms` the whole body of `to`), for
/// every [`HeadPolicy`]; the property suite pins the two against each other.
pub fn semi_join_homomorphism_into(
    from: QueryRef<'_>,
    ears: &[EarStep],
    target_atoms: &[IAtom],
    to: QueryRef<'_>,
    policy: HeadPolicy,
) -> bool {
    let n = from.num_atoms();
    debug_assert_eq!(ears.len(), n, "ear ordering must cover every atom");
    if n == 0 {
        return true;
    }
    // Candidate generation: for each source atom, the images of its distinct
    // variables under every compatible target atom.  Compatibility mirrors
    // the generic search's per-term checks exactly — constants preserved,
    // head policy respected, repeated variables consistent within the atom.
    let mut vars: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut cands: Vec<Vec<Vec<ITerm>>> = Vec::with_capacity(n);
    for i in 0..n {
        let atom = from.atoms[i];
        let source_terms = atom.terms(from.terms);
        let mut vs: Vec<u32> = Vec::new();
        for term in source_terms {
            if let Some(v) = term.var_index() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        let mut atom_cands: Vec<Vec<ITerm>> = Vec::new();
        'targets: for target in target_atoms {
            if target.relation != atom.relation || target.term_len != atom.term_len {
                continue;
            }
            let target_terms = target.terms(to.terms);
            // `vs` is in first-occurrence order, so the first time a
            // variable appears its slot is exactly `image.len()`.
            let mut image: Vec<ITerm> = Vec::with_capacity(vs.len());
            for (src, dst) in source_terms.iter().zip(target_terms.iter()) {
                match src.get() {
                    ITermView::Const(_) => {
                        if dst != src {
                            continue 'targets;
                        }
                    }
                    ITermView::Var(v, kind) => {
                        if !interned_term_allowed(kind, *dst, v, policy) {
                            continue 'targets;
                        }
                        let slot = vs.iter().position(|&w| w == v).expect("v is in vs");
                        if slot == image.len() {
                            image.push(*dst);
                        } else if image[slot] != *dst {
                            continue 'targets;
                        }
                    }
                }
            }
            atom_cands.push(image);
        }
        if atom_cands.is_empty() {
            return false;
        }
        vars.push(vs);
        cands.push(atom_cands);
    }
    // Bottom-up semi-joins in ear-removal order (children before parents):
    // the parent keeps a candidate only if the removed child has a candidate
    // agreeing on every shared variable.  The running-intersection property
    // of the join tree makes the surviving root candidates extendable to a
    // full homomorphism top-down.
    for step in ears {
        let e = step.atom as usize;
        if step.parent == NO_PARENT {
            debug_assert!(!cands[e].is_empty());
            continue;
        }
        let p = step.parent as usize;
        let shared: Vec<(usize, usize)> = vars[e]
            .iter()
            .enumerate()
            .filter_map(|(ie, &v)| vars[p].iter().position(|&w| w == v).map(|ip| (ie, ip)))
            .collect();
        // The removed atom is never referenced again (only as the parent of
        // *earlier* steps), so its candidate list can be taken by value.
        let ecands = std::mem::take(&mut cands[e]);
        cands[p].retain(|pc| {
            ecands
                .iter()
                .any(|ec| shared.iter().all(|&(ie, ip)| ec[ie] == pc[ip]))
        });
        if cands[p].is_empty() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::homomorphism::interned_homomorphism_exists;
    use crate::intern::{QueryId, QueryInterner};
    use crate::parser::parse_query;
    use crate::query::ConjunctiveQuery;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    fn raw(interner: &QueryInterner, id: QueryId) -> QueryRef<'_> {
        interner.resolve(id)
    }

    #[test]
    fn single_atoms_and_chains_are_acyclic() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        for text in [
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y), Meetings(y, z), Meetings(z, w)",
            "Q(x) :- Meetings(x, y), Meetings(x, z), Meetings(x, w)",
            "Q() :- Meetings(a, b), Contacts(c, d, e)",
        ] {
            let id = interner.intern(&q(&c, text));
            let query = raw(&interner, id);
            let steps = gyo_reduce(query).unwrap_or_else(|| panic!("{text} should be acyclic"));
            assert_eq!(steps.len(), query.num_atoms(), "{text}");
            // Every atom removed exactly once; exactly one root, and it is
            // the final step (its witness must outlive every ear).
            let mut seen = vec![false; query.num_atoms()];
            for step in &steps {
                assert!(!seen[step.atom as usize], "{text}");
                seen[step.atom as usize] = true;
            }
            let roots = steps.iter().filter(|s| s.parent == NO_PARENT).count();
            assert_eq!(roots, 1, "{text}");
            assert_eq!(steps.last().unwrap().parent, NO_PARENT, "{text}");
        }
    }

    #[test]
    fn the_triangle_is_cyclic() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let id = interner.intern(&q(
            &c,
            "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x)",
        ));
        assert_eq!(gyo_reduce(raw(&interner, id)), None);
        // Adding a pendant atom does not break the cycle.
        let id = interner.intern(&q(
            &c,
            "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Contacts(x, p, r)",
        ));
        assert_eq!(gyo_reduce(raw(&interner, id)), None);
    }

    #[test]
    fn covering_an_edge_restores_acyclicity() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        // Contacts(x, y, z) covers the whole triangle's variable set, so
        // every Meetings edge is an ear with it as witness.
        let id = interner.intern(&q(
            &c,
            "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x), Contacts(x, y, z)",
        ));
        assert!(gyo_reduce(raw(&interner, id)).is_some());
    }

    #[test]
    fn semi_join_agrees_with_backtracking_on_acyclic_pairs() {
        let c = catalog();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q() :- Meetings(z, z)",
            "Q() :- Meetings(9, 'Jim')",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern'), Contacts(y, u, 'Manager')",
            "Q(x) :- Meetings(x, y), Meetings(y, z), Meetings(z, w)",
        ];
        let mut interner = QueryInterner::new();
        let ids: Vec<QueryId> = texts.iter().map(|t| interner.intern(&q(&c, t))).collect();
        for policy in [
            HeadPolicy::Identity,
            HeadPolicy::DistinguishedToDistinguished,
            HeadPolicy::Free,
        ] {
            for &ia in &ids {
                let from = raw(&interner, ia);
                let ears = gyo_reduce(from).expect("workload shapes are acyclic");
                for &ib in &ids {
                    let to = raw(&interner, ib);
                    assert_eq!(
                        semi_join_homomorphism_into(from, &ears, to.atoms, to, policy),
                        interned_homomorphism_exists(from, to, policy),
                        "disagreement under {policy:?} on {ia:?} -> {ib:?}"
                    );
                }
            }
        }
    }

    /// The reduction as it was before it learned to look at shared
    /// variables only: every atom's full variable list in a `Vec` of its
    /// own, every pair rescanned at every step.  Kept as the oracle — the
    /// ear *order* feeds the semi-join pass, so the fast version must
    /// reproduce it step for step, not just agree on acyclicity.
    fn gyo_reduce_oracle(query: QueryRef<'_>) -> Option<Vec<EarStep>> {
        let n = query.num_atoms();
        let mut steps = Vec::with_capacity(n);
        if n == 0 {
            return Some(steps);
        }
        let vars: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut vs: Vec<u32> = Vec::new();
                for term in query.atom_terms(i) {
                    if let Some(v) = term.var_index() {
                        if !vs.contains(&v) {
                            vs.push(v);
                        }
                    }
                }
                vs
            })
            .collect();
        let mut occ = vec![0u32; query.num_vars()];
        for vs in &vars {
            for &v in vs {
                occ[v as usize] += 1;
            }
        }
        let mut alive = vec![true; n];
        let mut remaining = n;
        while remaining > 1 {
            let mut found = None;
            'scan: for e in 0..n {
                if !alive[e] {
                    continue;
                }
                for f in 0..n {
                    if f == e || !alive[f] {
                        continue;
                    }
                    let is_ear = vars[e]
                        .iter()
                        .all(|&v| occ[v as usize] == 1 || vars[f].contains(&v));
                    if is_ear {
                        found = Some((e, f));
                        break 'scan;
                    }
                }
            }
            let (e, f) = found?;
            steps.push(EarStep {
                atom: e as u32,
                parent: f as u32,
            });
            alive[e] = false;
            remaining -= 1;
            for &v in &vars[e] {
                occ[v as usize] -= 1;
            }
        }
        let root = alive.iter().position(|&a| a).expect("one atom remains");
        steps.push(EarStep {
            atom: root as u32,
            parent: NO_PARENT,
        });
        Some(steps)
    }

    /// SplitMix64: a seeded stream for the generated shapes below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn the_reduction_replays_the_oracles_ear_order_step_for_step() {
        use crate::intern::ConstId;
        use crate::term::VarKind;
        let mut state = 0xFDC_2013u64;
        let (mut acyclic, mut cyclic) = (0, 0);
        for round in 0..4_000 {
            // 1–9 atoms of arity 1–5 over a pool of 2–12 variables: small
            // pools make dense, mostly cyclic hypergraphs, large ones sparse
            // forests; repeated variables and constants ride along.
            let num_atoms = 1 + next(&mut state) % 9;
            let pool = 2 + next(&mut state) % 11;
            let mut terms = Vec::new();
            let mut atoms = Vec::new();
            for _ in 0..num_atoms {
                let term_start = terms.len() as u32;
                let arity = 1 + next(&mut state) % 5;
                for _ in 0..arity {
                    terms.push(if next(&mut state).is_multiple_of(6) {
                        ITerm::constant(ConstId(0))
                    } else {
                        ITerm::var((next(&mut state) % pool) as u32, VarKind::Existential)
                    });
                }
                atoms.push(IAtom {
                    relation: crate::catalog::RelId((next(&mut state) % 3) as u32),
                    term_start,
                    term_len: arity as u32,
                });
            }
            let kinds = vec![VarKind::Existential; pool as usize];
            let query = QueryRef {
                atoms: &atoms,
                terms: &terms,
                kinds: &kinds,
            };
            let expected = gyo_reduce_oracle(query);
            assert_eq!(
                gyo_reduce(query),
                expected,
                "round {round}: {atoms:?} {terms:?}"
            );
            match expected {
                Some(_) => acyclic += 1,
                None => cyclic += 1,
            }
        }
        assert!(acyclic > 500, "only {acyclic} acyclic shapes");
        assert!(cyclic > 500, "only {cyclic} cyclic shapes");
    }

    #[test]
    fn empty_queries_are_trivially_acyclic() {
        let query = QueryRef {
            atoms: &[],
            terms: &[],
            kinds: &[],
        };
        assert_eq!(gyo_reduce(query), Some(Vec::new()));
        assert!(semi_join_homomorphism_into(
            query,
            &[],
            &[],
            query,
            HeadPolicy::Free
        ));
    }
}

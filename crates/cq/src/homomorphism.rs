//! Homomorphisms (containment mappings) between conjunctive queries.
//!
//! A homomorphism from query `A` to query `B` is a substitution `h` on the
//! variables of `A` such that
//!
//! * constants are preserved (`h` is the identity on constants), and
//! * for every atom `R(t̄)` of `A`, the atom `R(h(t̄))` appears in `B`.
//!
//! The classical Chandra–Merlin theorem reduces containment of conjunctive
//! queries to the existence of such a mapping that also respects the query
//! heads.  Because the paper's representation discards the head and instead
//! tags variables (Section 5), this module supports two head disciplines,
//! selected by [`HeadPolicy`]:
//!
//! * [`HeadPolicy::Identity`] — distinguished variables must map to
//!   themselves.  This is the right notion when both queries share a variable
//!   space (folding, expansion-vs-query equivalence checks).
//! * [`HeadPolicy::DistinguishedToDistinguished`] — distinguished variables
//!   must map to distinguished variables (of the other query).  This is
//!   "equivalence up to head permutation", the appropriate notion of
//!   information equivalence for tagged queries (the paper's `V1` and `V1'`
//!   example in Section 3.1).
//!
//! This is the search over boxed queries, the reference the labelers are
//! checked against.  The interned fold runs its own search over the flat
//! representation (see [`folding`](crate::folding)).

use std::collections::HashMap;

use crate::atom::AtomRef;
use crate::catalog::RelId;
use crate::query::ConjunctiveQuery;
use crate::substitution::Substitution;
use crate::term::{TermRef, VarKind};

/// A relation-indexed store over a set of target atoms.
///
/// The backtracking search must repeatedly answer "which target atoms could
/// atom `R(t̄)` map to?".  Scanning the whole target list for every source
/// atom at every search depth is quadratic in practice; an [`AtomIndex`]
/// buckets the target atoms by relation once and additionally precomputes a
/// per-atom *constant mask* (bit `i` set iff position `i` holds a constant)
/// so that candidates whose shape cannot possibly accommodate the source
/// atom's constants are rejected with one bit test instead of a term-by-term
/// walk.
///
/// Build one index per target atom set and reuse it across searches against
/// that set (e.g. containment checks of many queries against one view).
#[derive(Debug, Clone)]
pub struct AtomIndex<'a> {
    atoms: Vec<AtomRef<'a>>,
    buckets: HashMap<RelId, Vec<u32>>,
    const_masks: Vec<u64>,
}

/// Bit `i` set iff position `i` of the atom holds a constant.  Positions
/// beyond 63 fold onto bit 63, keeping the mask a conservative filter for
/// very wide atoms (the check below only ever tests subset-ness).
fn constant_mask(atom: AtomRef<'_>) -> u64 {
    let mut mask = 0u64;
    for (i, term) in atom.terms().iter().enumerate() {
        if term.is_const() {
            mask |= 1u64 << i.min(63);
        }
    }
    mask
}

impl<'a> AtomIndex<'a> {
    /// Indexes a set of target atoms by relation.
    pub fn new(atoms: impl IntoIterator<Item = AtomRef<'a>>) -> Self {
        let atoms: Vec<AtomRef<'a>> = atoms.into_iter().collect();
        let mut buckets: HashMap<RelId, Vec<u32>> = HashMap::new();
        let mut const_masks = Vec::with_capacity(atoms.len());
        for (i, &atom) in atoms.iter().enumerate() {
            buckets.entry(atom.relation).or_default().push(i as u32);
            const_masks.push(constant_mask(atom));
        }
        AtomIndex {
            atoms,
            buckets,
            const_masks,
        }
    }

    /// The indexed atoms, in their original order.
    pub fn atoms(&self) -> &[AtomRef<'a>] {
        &self.atoms
    }

    /// Indices of the target atoms over `relation` (empty if none).
    pub fn candidates(&self, relation: RelId) -> &[u32] {
        self.buckets
            .get(&relation)
            .map_or(&[], |bucket| bucket.as_slice())
    }

    /// Number of target atoms over `relation` — an O(1) lookup, used to
    /// order the source atoms most-constrained-first.
    pub fn candidate_count(&self, relation: RelId) -> usize {
        self.buckets.get(&relation).map_or(0, Vec::len)
    }

    /// Can the source atom (with precomputed constant mask `source_mask`)
    /// possibly map onto target atom `target_idx`?  Necessary conditions
    /// only: same arity, and a constant in the *target* at every position
    /// where the source has one (constants must be preserved, so the target
    /// must be at least as constant-constrained positionally; target
    /// constants at source-variable positions are fine — variables may map
    /// onto constants).
    #[inline]
    fn shape_admits(&self, source: AtomRef<'_>, source_mask: u64, target_idx: u32) -> bool {
        let target = self.atoms[target_idx as usize];
        source.arity() == target.arity()
            && source_mask & !self.const_masks[target_idx as usize] == 0
    }
}

/// How distinguished variables must be treated by a homomorphism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadPolicy {
    /// Distinguished variables of the source must map to themselves.
    ///
    /// Only meaningful when source and target share a variable space.
    Identity,
    /// Distinguished variables of the source must map to distinguished
    /// variables of the target (any of them).
    DistinguishedToDistinguished,
    /// No restriction on distinguished variables (plain body homomorphism).
    Free,
}

/// Searches for a homomorphism from `from` to `to` under the given policy.
///
/// Returns the witnessing substitution if one exists.
pub fn find_homomorphism(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    policy: HeadPolicy,
) -> Option<Substitution> {
    find_homomorphism_into(from, to.atoms(), to, policy)
}

/// Like [`find_homomorphism`] but the target is an explicit set of atoms,
/// interpreted in the variable space of `to_space`.
///
/// This is what query folding needs: the target is a *subset* of the atoms of
/// the source query itself.
pub fn find_homomorphism_into<'a>(
    from: &ConjunctiveQuery,
    target_atoms: impl IntoIterator<Item = AtomRef<'a>>,
    to_space: &ConjunctiveQuery,
    policy: HeadPolicy,
) -> Option<Substitution> {
    find_homomorphism_with_index(from, &AtomIndex::new(target_atoms), to_space, policy)
}

/// Like [`find_homomorphism_into`] with a prebuilt [`AtomIndex`] over the
/// target atoms.
///
/// Callers that run many searches against the same target (candidate
/// filtering, containment of a batch of queries against one view) should
/// build the index once and call this directly.
pub fn find_homomorphism_with_index(
    from: &ConjunctiveQuery,
    index: &AtomIndex<'_>,
    to_space: &ConjunctiveQuery,
    policy: HeadPolicy,
) -> Option<Substitution> {
    let mut subst = Substitution::new();
    // Order atoms so that the most constrained (fewest candidate targets)
    // are matched first; this keeps the backtracking search shallow for the
    // query shapes produced by the workload generator.  Candidate counts
    // come from the index in O(1) per atom instead of a rescan of the
    // target list per atom.
    let mut order: Vec<usize> = (0..from.num_atoms()).collect();
    order.sort_by_key(|&i| index.candidate_count(from.atom(i).relation));
    let source_masks: Vec<u64> = from.atoms().map(constant_mask).collect();
    if search(
        from,
        &order,
        0,
        index,
        &source_masks,
        to_space,
        policy,
        &mut subst,
    ) {
        Some(subst)
    } else {
        None
    }
}

/// True if a homomorphism from `from` to `to` exists under the given policy.
pub fn homomorphism_exists(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    policy: HeadPolicy,
) -> bool {
    find_homomorphism(from, to, policy).is_some()
}

#[allow(clippy::too_many_arguments)]
fn search(
    from: &ConjunctiveQuery,
    order: &[usize],
    depth: usize,
    index: &AtomIndex<'_>,
    source_masks: &[u64],
    to_space: &ConjunctiveQuery,
    policy: HeadPolicy,
    subst: &mut Substitution,
) -> bool {
    let Some(&atom_idx) = order.get(depth) else {
        return true;
    };
    let atom = from.atom(atom_idx);
    let source_mask = source_masks[atom_idx];
    // Only the target atoms over this atom's relation are candidates, and
    // the constant-mask test rejects shape-incompatible ones without
    // touching their terms.
    for &target_idx in index.candidates(atom.relation) {
        if !index.shape_admits(atom, source_mask, target_idx) {
            continue;
        }
        let target = index.atoms()[target_idx as usize];
        let mut newly_bound = Vec::new();
        let mut ok = true;
        for (src, dst) in atom.terms().iter().zip(target.terms()) {
            match src {
                TermRef::Const(c) => {
                    if dst.as_const() != Some(c) {
                        ok = false;
                        break;
                    }
                }
                TermRef::Var(v, kind) => {
                    if !term_allowed(kind, dst, v, from, to_space, policy) {
                        ok = false;
                        break;
                    }
                    let was_bound = subst.get(v).is_some();
                    if !subst.bind(v, dst.to_term()) {
                        ok = false;
                        break;
                    }
                    if !was_bound {
                        newly_bound.push(v);
                    }
                }
            }
        }
        if ok
            && search(
                from,
                order,
                depth + 1,
                index,
                source_masks,
                to_space,
                policy,
                subst,
            )
        {
            return true;
        }
        for v in newly_bound {
            subst.unbind(v);
        }
    }
    false
}

fn term_allowed(
    src_kind: VarKind,
    dst: TermRef<'_>,
    src_var: crate::term::VarId,
    _from: &ConjunctiveQuery,
    _to_space: &ConjunctiveQuery,
    policy: HeadPolicy,
) -> bool {
    if src_kind.is_existential() {
        return true;
    }
    // src is a distinguished variable.
    match policy {
        HeadPolicy::Free => true,
        HeadPolicy::Identity => {
            matches!(dst, TermRef::Var(v, VarKind::Distinguished) if v == src_var)
        }
        HeadPolicy::DistinguishedToDistinguished => {
            matches!(dst, TermRef::Var(_, VarKind::Distinguished))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    #[test]
    fn identity_homomorphism_always_exists() {
        let c = catalog();
        let q = parse_query(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        for policy in [
            HeadPolicy::Identity,
            HeadPolicy::DistinguishedToDistinguished,
            HeadPolicy::Free,
        ] {
            assert!(homomorphism_exists(&q, &q, policy));
        }
    }

    #[test]
    fn body_homomorphism_ignores_head_tags_under_free_policy() {
        let c = catalog();
        // V2(x) :- Meetings(x, y)   and   V5() :- Meetings(x, y)
        let v2 = parse_query(&c, "V2(x) :- Meetings(x, y)").unwrap();
        let v5 = parse_query(&c, "V5() :- Meetings(x, y)").unwrap();
        // Bodies are homomorphic in both directions when heads are ignored.
        assert!(homomorphism_exists(&v2, &v5, HeadPolicy::Free));
        assert!(homomorphism_exists(&v5, &v2, HeadPolicy::Free));
        // But V2's distinguished variable cannot map to an existential one.
        assert!(!homomorphism_exists(
            &v2,
            &v5,
            HeadPolicy::DistinguishedToDistinguished
        ));
        // The boolean query maps into V2 fine (no distinguished variables).
        assert!(homomorphism_exists(
            &v5,
            &v2,
            HeadPolicy::DistinguishedToDistinguished
        ));
    }

    #[test]
    fn constants_must_be_preserved() {
        let c = catalog();
        let q_const = parse_query(&c, "Q() :- Meetings(9, 'Jim')").unwrap();
        let q_var = parse_query(&c, "Q() :- Meetings(x, y)").unwrap();
        // Variables can map to constants ...
        assert!(homomorphism_exists(&q_var, &q_const, HeadPolicy::Free));
        // ... but constants cannot map to variables or other constants.
        assert!(!homomorphism_exists(&q_const, &q_var, HeadPolicy::Free));

        let other_const = parse_query(&c, "Q() :- Meetings(10, 'Jim')").unwrap();
        assert!(!homomorphism_exists(
            &q_const,
            &other_const,
            HeadPolicy::Free
        ));
    }

    #[test]
    fn repeated_variables_constrain_the_mapping() {
        let c = catalog();
        let diag = parse_query(&c, "Q() :- Meetings(z, z)").unwrap();
        let full = parse_query(&c, "Q() :- Meetings(x, y)").unwrap();
        // full -> diag: x and y can both map to z.
        assert!(homomorphism_exists(&full, &diag, HeadPolicy::Free));
        // diag -> full: z would have to map to both x and y; impossible.
        assert!(!homomorphism_exists(&diag, &full, HeadPolicy::Free));
    }

    #[test]
    fn multi_atom_queries_map_atom_by_atom() {
        let c = catalog();
        let q2 = parse_query(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        let bigger = parse_query(
            &c,
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern'), Contacts(y, u, 'Manager')",
        )
        .unwrap();
        // q2's atoms all appear in `bigger`, so q2 maps into it.
        assert!(homomorphism_exists(&q2, &bigger, HeadPolicy::Free));
        // `bigger` has an atom with constant 'Manager' that has no image in q2.
        assert!(!homomorphism_exists(&bigger, &q2, HeadPolicy::Free));
    }

    #[test]
    fn homomorphism_into_subset_of_atoms_supports_folding() {
        let c = catalog();
        // Redundant query: the second Meetings atom folds into the first.
        let q = parse_query(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)").unwrap();
        let h = find_homomorphism_into(&q, [q.atom(0)], &q, HeadPolicy::Identity)
            .expect("redundant atom should fold away");
        // x stays fixed, z maps to y.
        let x = q.distinguished_vars().next().unwrap();
        assert_eq!(
            h.get(x),
            Some(&crate::term::Term::Var(x, VarKind::Distinguished))
        );
    }

    #[test]
    fn identity_policy_requires_distinguished_fixpoints() {
        let c = catalog();
        let q1 = parse_query(&c, "Q(x) :- Meetings(x, y)").unwrap();
        // Same shape but the distinguished variable sits in the other column.
        let q2 = parse_query(&c, "Q(y) :- Meetings(x, y)").unwrap();
        // In a shared variable space x has id 0 in q1 but the distinguished
        // variable of q2 is id 1, so identity mapping fails ...
        assert!(!homomorphism_exists(&q1, &q2, HeadPolicy::Identity));
        // ... and dist-to-dist fails too: the only candidate atom forces
        // q1's distinguished x onto q2's existential first column.
        assert!(!homomorphism_exists(
            &q1,
            &q2,
            HeadPolicy::DistinguishedToDistinguished
        ));
        // Ignoring the head entirely, the bodies are of course homomorphic.
        assert!(homomorphism_exists(&q1, &q2, HeadPolicy::Free));
    }

    #[test]
    fn atom_index_buckets_and_counts() {
        let c = catalog();
        let q = parse_query(
            &c,
            "Q(x) :- Meetings(x, y), Meetings(x, 'Cathy'), Contacts(y, w, 'Intern')",
        )
        .unwrap();
        let index = AtomIndex::new(q.atoms());
        let meetings = c.resolve("Meetings").unwrap();
        let contacts = c.resolve("Contacts").unwrap();
        assert_eq!(index.candidate_count(meetings), 2);
        assert_eq!(index.candidate_count(contacts), 1);
        assert_eq!(index.candidates(meetings), &[0, 1]);
        assert_eq!(index.candidates(contacts), &[2]);
        // A relation with no target atoms has no candidates.
        let mut big = Catalog::paper_example();
        let other = big.add_relation("Other", &["a"]).unwrap();
        assert_eq!(index.candidate_count(other), 0);
        assert!(index.candidates(other).is_empty());
    }

    #[test]
    fn constant_masks_prune_only_impossible_targets() {
        let c = catalog();
        // Source atom selects a constant in position 2: only targets with a
        // constant there pass the shape filter.
        let src = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let tgt_const = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let tgt_var = parse_query(&c, "Q(x, y) :- Meetings(x, y)").unwrap();
        assert!(homomorphism_exists(&src, &tgt_const, HeadPolicy::Free));
        assert!(!homomorphism_exists(&src, &tgt_var, HeadPolicy::Free));
        // The other direction is never pruned: variables map onto constants.
        assert!(homomorphism_exists(&tgt_var, &tgt_const, HeadPolicy::Free));
    }

    #[test]
    fn prebuilt_index_can_be_reused_across_searches() {
        let c = catalog();
        let target = parse_query(
            &c,
            "Q() :- Meetings(10, 'Cathy'), Meetings(12, 'Bob'), Contacts(1, 2, 'Intern')",
        )
        .unwrap();
        let index = AtomIndex::new(target.atoms());
        for (text, expected) in [
            ("Q() :- Meetings(x, 'Cathy')", true),
            ("Q() :- Meetings(x, 'Jim')", false),
            ("Q() :- Meetings(x, y), Contacts(z, w, u)", true),
            ("Q() :- Contacts(x, y, 'Manager')", false),
        ] {
            let q = parse_query(&c, text).unwrap();
            let found =
                find_homomorphism_with_index(&q, &index, &target, HeadPolicy::Free).is_some();
            assert_eq!(found, expected, "unexpected result for {text}");
        }
    }

    #[test]
    fn returned_substitution_is_a_real_witness() {
        let c = catalog();
        let small = parse_query(&c, "Q() :- Meetings(x, 'Cathy')").unwrap();
        let big = parse_query(&c, "Q() :- Meetings(10, 'Cathy'), Meetings(12, 'Bob')").unwrap();
        let h = find_homomorphism(&small, &big, HeadPolicy::Free).unwrap();
        let image = h.apply_atom(small.atom(0));
        assert!(big.atoms().any(|atom| atom == image.as_atom_ref()));
    }
}

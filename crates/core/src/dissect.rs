//! The `Dissect` algorithm of Section 5.2.
//!
//! Security views are single-atom, so multi-atom queries are labeled in two
//! steps: `Dissect` first converts a conjunctive query into a set of
//! single-atom queries, then the single-atom machinery labels each one.
//!
//! `Dissect`:
//!
//! 1. computes a **folding** of the query (removes redundant atoms — see
//!    [`fdc_cq::folding`]);
//! 2. splits the folding into its constituent atoms;
//! 3. **promotes to distinguished** every existential variable that appears
//!    in at least two atoms: any set of single-atom views that allows the
//!    join to be computed must reveal the values of the join attributes.
//!
//! The composition of `Dissect` with the single-atom labeler is itself a
//! disclosure labeler (end of Section 5.2).

use fdc_cq::folding::fold;
use fdc_cq::intern::{ITerm, QueryId, QueryInterner};
use fdc_cq::{Atom, ConjunctiveQuery, RelId, Term, VarId, VarKind};

/// Dissects a conjunctive query into single-atom queries.
///
/// The result contains one single-atom query per atom of the folded input,
/// with join variables promoted to distinguished.  Variable ids are
/// compacted per output atom, but names are carried over from the input to
/// keep labels explainable.
pub fn dissect(query: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let folded = fold(query);
    if folded.num_atoms() == 1 {
        return vec![single_atom_query(&folded, &folded.atoms()[0], &[])];
    }

    // Count in how many atoms each variable occurs; existential variables
    // occurring in ≥ 2 atoms become distinguished.
    let counts = folded.atoms_per_variable();
    let promoted: Vec<VarId> = (0..folded.num_vars() as u32)
        .map(VarId)
        .filter(|v| folded.var_kind(*v).is_existential() && counts[v.index()] >= 2)
        .collect();

    folded
        .atoms()
        .iter()
        .map(|atom| single_atom_query(&folded, atom, &promoted))
        .collect()
}

/// Extracts one atom of `source` as a standalone single-atom query,
/// promoting the listed variables to distinguished.
fn single_atom_query(
    source: &ConjunctiveQuery,
    atom: &Atom,
    promoted: &[VarId],
) -> ConjunctiveQuery {
    let mut var_kinds: Vec<VarKind> = Vec::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut mapping: std::collections::HashMap<VarId, VarId> = std::collections::HashMap::new();

    let terms: Vec<Term> = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Var(v, _) => {
                let kind = if promoted.contains(v) {
                    VarKind::Distinguished
                } else {
                    source.var_kind(*v)
                };
                let next = VarId(mapping.len() as u32);
                let new_id = *mapping.entry(*v).or_insert_with(|| {
                    var_kinds.push(kind);
                    var_names.push(source.var_name(*v).to_owned());
                    next
                });
                Term::Var(new_id, var_kinds[new_id.index()])
            }
            Term::Const(c) => Term::Const(c.clone()),
        })
        .collect();

    ConjunctiveQuery::from_parts(vec![Atom::new(atom.relation, terms)], var_kinds, var_names)
        .expect("a single atom extracted from a valid query is valid")
}

/// [`dissect`] over the interned query plane: dissects interned query `id`
/// and **interns every resulting single-atom query**, returning their dense
/// ids (with the part's base relation alongside, so callers need not resolve
/// again just to route by relation).
///
/// Runs the same pipeline as [`dissect`] — fold, split, promote join
/// variables — but entirely on the flat [`QueryRef`](fdc_cq::QueryRef)
/// representation, so no boxed query is materialized.  Because interning is
/// canonical, recurring atoms (the `Friend` join atoms the Section 7.2
/// workload attaches to every friends-audience query) dissect to the *same*
/// atom ids across query shapes, which is what lets the labeler's atom-level
/// cache collapse to a plain indexed table.
///
/// The output parts are structurally identical (up to variable renaming) to
/// those of [`dissect`] on the equivalent boxed query; the property tests
/// assert the resulting labels agree.
pub fn dissect_interned(interner: &mut QueryInterner, id: QueryId) -> Vec<(QueryId, RelId)> {
    let query = interner.resolve(id);
    if query.is_single_atom() {
        // A single-atom query is its own only part, already canonical.
        return vec![(id, query.relation(0))];
    }
    // The fold comes from the interner's structural side table: it is
    // computed (and memoized) on the first dissection of each shape, so
    // re-dissections replay the core instead of re-running the NP-hard
    // search.
    let num_parts = interner.core_atom_indices(id).len();
    let query = interner.resolve(id);
    let num_vars = query.num_vars();

    // `atoms_with[v]`: in how many surviving atoms `v` occurs — an
    // existential variable occurring in ≥ 2 of them becomes distinguished.
    // `local[v]` is `v`'s index within the part being assembled; an atom
    // sets it for its own variables and clears exactly those when done, so
    // neither table is ever refilled.
    const UNSEEN: u32 = u32::MAX;
    let mut atoms_with = vec![0u32; num_vars];
    let mut local = vec![UNSEEN; num_vars];
    for &i in interner.cached_core(id).expect("computed above") {
        let terms = query.atom_terms(i as usize);
        for v in terms.iter().filter_map(|t| t.var_index()) {
            if local[v as usize] == UNSEEN {
                local[v as usize] = 0;
                atoms_with[v as usize] += 1;
            }
        }
        for v in terms.iter().filter_map(|t| t.var_index()) {
            local[v as usize] = UNSEEN;
        }
    }

    // One part at a time: assemble its terms and kinds in the two reused
    // buffers (reading the arena), then intern it (growing the arena).
    let widest = query.atoms.iter().map(|a| a.arity()).max().unwrap_or(0);
    let mut parts = Vec::with_capacity(num_parts);
    let mut terms: Vec<ITerm> = Vec::with_capacity(widest);
    let mut kinds: Vec<VarKind> = Vec::with_capacity(widest);
    for k in 0..num_parts {
        let query = interner.resolve(id);
        let atom = interner.cached_core(id).expect("computed above")[k] as usize;
        terms.clear();
        kinds.clear();
        for term in query.atom_terms(atom) {
            terms.push(match *term {
                ITerm::Var(v, kind) => {
                    let kind = if atoms_with[v as usize] >= 2 {
                        VarKind::Distinguished
                    } else {
                        kind
                    };
                    let slot = &mut local[v as usize];
                    if *slot == UNSEEN {
                        *slot = kinds.len() as u32;
                        kinds.push(kind);
                    }
                    ITerm::Var(*slot, kind)
                }
                constant => constant,
            });
        }
        for v in query.atom_terms(atom).iter().filter_map(|t| t.var_index()) {
            local[v as usize] = UNSEEN;
        }
        let relation = query.relation(atom);
        parts.push((
            interner.intern_single_atom(relation, &terms, &kinds),
            relation,
        ));
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::{parser::parse_query, Catalog};

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    #[test]
    fn example_5_4_join_variables_are_promoted() {
        // Q2(x) :- M(x, y), C(y, w, 'Intern')  dissects to
        // [M(xd, yd)] and [C(yd, we, 'Intern')].
        let c = catalog();
        let q2 = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&q2);
        assert_eq!(parts.len(), 2);

        let expected_m = q(&c, "P(x, y) :- Meetings(x, y)");
        let expected_c = q(&c, "P(y) :- Contacts(y, w, 'Intern')");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected_m));
        assert!(fdc_cq::containment::equivalent(&parts[1], &expected_c));
    }

    #[test]
    fn single_atom_queries_pass_through() {
        let c = catalog();
        let q1 = q(&c, "Q1(x) :- Meetings(x, 'Cathy')");
        let parts = dissect(&q1);
        assert_eq!(parts.len(), 1);
        assert!(fdc_cq::containment::equivalent(&parts[0], &q1));
    }

    #[test]
    fn redundant_atoms_are_folded_before_splitting() {
        let c = catalog();
        let redundant = q(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)");
        let parts = dissect(&redundant);
        assert_eq!(parts.len(), 1);
        let expected = q(&c, "P(x) :- Meetings(x, y)");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected));
    }

    #[test]
    fn non_join_existentials_stay_existential() {
        let c = catalog();
        // w appears only in the Contacts atom, so it stays existential; y is
        // the join variable and is promoted.
        let q2 = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&q2);
        let contacts_part = &parts[1];
        let dist: Vec<&str> = contacts_part
            .distinguished_vars()
            .map(|v| contacts_part.var_name(v))
            .collect();
        assert_eq!(dist, vec!["y"]);
        let exist: Vec<&str> = contacts_part
            .existential_vars()
            .map(|v| contacts_part.var_name(v))
            .collect();
        assert_eq!(exist, vec!["w"]);
    }

    #[test]
    fn already_distinguished_join_variables_are_unchanged() {
        let c = catalog();
        let qd = q(&c, "Q(x, y) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&qd);
        assert_eq!(parts.len(), 2);
        let expected_m = q(&c, "P(x, y) :- Meetings(x, y)");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected_m));
    }

    #[test]
    fn three_way_joins_promote_every_join_variable() {
        let c = catalog();
        // y joins atoms 1-2, w joins atoms 2-3.
        let q3 = q(
            &c,
            "Q(x) :- Meetings(x, y), Contacts(y, w, p), Meetings(w, z)",
        );
        let parts = dissect(&q3);
        assert_eq!(parts.len(), 3);
        // The middle atom exposes both join variables but not p.
        let middle = &parts[1];
        let dist: Vec<&str> = middle
            .distinguished_vars()
            .map(|v| middle.var_name(v))
            .collect();
        assert_eq!(dist, vec!["y", "w"]);
    }

    #[test]
    fn constants_are_preserved_verbatim() {
        let c = catalog();
        let qc = q(
            &c,
            "Q(x) :- Meetings(x, y), Contacts(y, 'a@b.com', 'Intern')",
        );
        let parts = dissect(&qc);
        assert!(parts[1].atoms()[0].has_constants());
        assert_eq!(parts[1].atoms()[0].terms.len(), 3);
    }

    #[test]
    fn dissection_output_is_always_single_atom() {
        let c = catalog();
        let inputs = [
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(x, y), Meetings(y, z), Contacts(z, w, p)",
            "Q(x) :- Meetings(x, x), Meetings(x, y)",
        ];
        for text in inputs {
            for part in dissect(&q(&c, text)) {
                assert!(
                    part.is_single_atom(),
                    "dissect({text}) produced a multi-atom part"
                );
            }
        }
    }

    #[test]
    fn interned_dissection_matches_boxed_dissection() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let inputs = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(x, z) :- Meetings(x, y), Meetings(y, z)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, p), Meetings(w, z)",
            "Q() :- Meetings(x, y), Meetings(y, z), Contacts(z, w, p)",
            "Q(x) :- Meetings(x, x), Meetings(x, y)",
        ];
        for text in inputs {
            let query = q(&c, text);
            let boxed = dissect(&query);
            let id = interner.intern(&query);
            let interned = dissect_interned(&mut interner, id);
            assert_eq!(boxed.len(), interned.len(), "part count differs on {text}");
            for (part, (part_id, relation)) in boxed.iter().zip(&interned) {
                let back = interner.to_query(*part_id);
                assert_eq!(part.atoms()[0].relation, *relation, "relation on {text}");
                assert!(
                    fdc_cq::canonical::structurally_identical(part, &back),
                    "part differs on {text}: {part:?} vs {back:?}"
                );
            }
            // Dissecting again reuses the already-interned atom ids.
            let before = interner.len();
            assert_eq!(dissect_interned(&mut interner, id), interned);
            assert_eq!(interner.len(), before);
        }
    }

    #[test]
    fn self_join_on_the_same_relation_keeps_both_atoms() {
        let c = catalog();
        // Meetings(x, y) ∧ Meetings(y, z): a genuine self-join; y is the join
        // variable and must be promoted in both parts.
        let qs = q(&c, "Q(x, z) :- Meetings(x, y), Meetings(y, z)");
        let parts = dissect(&qs);
        assert_eq!(parts.len(), 2);
        for part in &parts {
            let names: Vec<&str> = part
                .distinguished_vars()
                .map(|v| part.var_name(v))
                .collect();
            assert!(
                names.contains(&"y"),
                "join variable y must be distinguished"
            );
        }
    }
}

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
use fdc_cq::intern::{IAtom, ITerm, QueryRef};
use fdc_cq::{Atom, ConjunctiveQuery, Term, VarId, VarKind};

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

/// [`dissect`] over the interned query plane: hands `visit` each part of
/// `query`, in core order, as a single-atom [`QueryRef`] — nothing is
/// interned and no boxed query is materialized.
///
/// `core` is the query's fold: the indices of its surviving atoms in
/// increasing order, as [`fold_interned_indices`] computes them (an
/// interner records them with `QueryInterner::record_core`).  A single-atom
/// query is its own only part and is handed over as it lies.
///
/// Each part is assembled in two buffers reused across the parts, so
/// dissecting a multi-atom query allocates four scratch vectors however
/// many parts it has.
/// A part is in canonical form — variables numbered by first occurrence,
/// join variables promoted to distinguished — and its constants are ids of
/// the interner `query` was resolved from; it is structurally identical (up
/// to variable renaming) to the corresponding part [`dissect`] returns for
/// the equivalent boxed query.
///
/// [`fold_interned_indices`]: fdc_cq::folding::fold_interned_indices
pub fn dissect_interned(query: QueryRef<'_>, core: &[u32], mut visit: impl FnMut(QueryRef<'_>)) {
    if query.is_single_atom() {
        visit(query);
        return;
    }
    let num_vars = query.num_vars();

    // `atoms_with[v]`: in how many surviving atoms `v` occurs — an
    // existential variable occurring in ≥ 2 of them becomes distinguished.
    // `local[v]` is `v`'s index within the part being assembled; an atom
    // sets it for its own variables and clears exactly those when done, so
    // neither table is ever refilled.
    const UNSEEN: u32 = u32::MAX;
    let mut atoms_with = vec![0u32; num_vars];
    let mut local = vec![UNSEEN; num_vars];
    for &i in core {
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

    let widest = query.atoms.iter().map(|a| a.arity()).max().unwrap_or(0);
    let mut terms: Vec<ITerm> = Vec::with_capacity(widest);
    let mut kinds: Vec<VarKind> = Vec::with_capacity(widest);
    for &atom in core {
        let atom = atom as usize;
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
        let span = [IAtom {
            relation: query.relation(atom),
            term_start: 0,
            term_len: terms.len() as u32,
        }];
        visit(QueryRef {
            atoms: &span,
            terms: &terms,
            kinds: &kinds,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::intern::QueryInterner;
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

    /// A dissected part as a boxed query, its constants read back from the
    /// interner the dissected query lives in.
    fn boxed_part(interner: &QueryInterner, part: QueryRef<'_>) -> ConjunctiveQuery {
        assert!(part.is_single_atom());
        let terms = part
            .atom_terms(0)
            .iter()
            .map(|term| match *term {
                ITerm::Var(v, kind) => Term::Var(VarId(v), kind),
                ITerm::Const(c) => Term::Const(interner.constant(c).clone()),
            })
            .collect();
        ConjunctiveQuery::from_parts(
            vec![Atom::new(part.relation(0), terms)],
            part.kinds.to_vec(),
            (0..part.num_vars()).map(|v| format!("x{v}")).collect(),
        )
        .expect("a dissected part is a valid single-atom query")
    }

    #[test]
    fn interned_dissection_matches_boxed_dissection() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        // The visited parts are interned here, to see that a second
        // dissection hands over the same canonical parts.
        let mut parts = QueryInterner::new();
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
            let core = interner.core_atom_indices(id).to_vec();
            let mut interned = Vec::new();
            dissect_interned(interner.resolve(id), &core, |part| {
                interned.push(boxed_part(&interner, part));
            });
            assert_eq!(boxed.len(), interned.len(), "part count differs on {text}");
            for (part, back) in boxed.iter().zip(&interned) {
                assert_eq!(
                    part.atoms()[0].relation,
                    back.atoms()[0].relation,
                    "relation on {text}"
                );
                assert!(
                    fdc_cq::canonical::structurally_identical(part, back),
                    "part differs on {text}: {part:?} vs {back:?}"
                );
            }
            let ids: Vec<_> = interned.iter().map(|part| parts.intern(part)).collect();
            let before = parts.len();
            let mut again = Vec::new();
            dissect_interned(interner.resolve(id), &core, |part| {
                again.push(parts.intern(&boxed_part(&interner, part)));
            });
            assert_eq!(again, ids, "a second dissection differs on {text}");
            assert_eq!(parts.len(), before);
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

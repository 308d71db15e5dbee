//! Canonical renaming of queries.
//!
//! Two queries that differ only in variable identities/names describe the
//! same query.  [`rename_canonical`] renumbers variables in order of first
//! occurrence in the body (and renames them `x0, x1, …`), which gives a
//! cheap syntactic normal form: structurally identical queries become `Eq`-
//! equal after renaming.  This is *not* full semantic canonization (that
//! would require minimization plus graph canonization); use
//! [`containment::equivalent`](crate::containment::equivalent) for semantic
//! comparisons.
//!
//! For whole-query identity, the interned query plane
//! ([`intern`](crate::intern)) canonicalizes with the same first-occurrence
//! numbering and hands out dense [`QueryId`](crate::intern::QueryId)s whose
//! equality *is* canonical-key equality, without allocating a key vector per
//! lookup.

use std::collections::HashMap;

use crate::query::{Body, ConjunctiveQuery, VarTable};
use crate::term::{TermRef, VarId, VarKind};

/// Renumbers the variables of a query by order of first occurrence in the
/// body and gives them synthetic names `x0, x1, …`.
pub fn rename_canonical(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut mapping: HashMap<VarId, VarId> = HashMap::new();
    let mut kinds: Vec<VarKind> = Vec::new();

    let mut body = Body::with_capacity(query.num_atoms(), query.terms().len());
    for atom in query.atoms() {
        for term in atom.terms() {
            match term {
                TermRef::Var(v, kind) => {
                    let next_id = VarId(mapping.len() as u32);
                    let new_id = *mapping.entry(v).or_insert_with(|| {
                        kinds.push(kind);
                        next_id
                    });
                    body.push_var(new_id, kind);
                }
                TermRef::Const(c) => body.push_const(c.as_const_bytes()),
            }
        }
        body.end_atom(atom.relation);
    }

    ConjunctiveQuery::from_body(body, VarTable::numbered(kinds), true)
        .expect("renaming a valid query preserves validity")
}

/// A hashable structural key for a query: its canonical renaming.
///
/// Queries with equal keys are syntactically identical up to variable names;
/// unequal keys say nothing (the queries may still be semantically
/// equivalent).
pub fn structural_key(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    rename_canonical(query)
}

/// True if two queries are syntactically identical up to variable renaming.
pub fn structurally_identical(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    rename_canonical(a) == rename_canonical(b)
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
    fn renaming_is_stable_and_idempotent() {
        let c = catalog();
        let q = parse_query(&c, "Q(b) :- Meetings(a, b), Contacts(b, d, 'Intern')").unwrap();
        let canon = rename_canonical(&q);
        assert_eq!(canon, rename_canonical(&canon));
        // Variable names become x0, x1, ... in body-occurrence order.
        assert_eq!(canon.var_name(VarId(0)), "x0");
        assert_eq!(
            canon.display_with(&c).to_string(),
            "Q(x1) :- Meetings(x0, x1), Contacts(x1, x2, 'Intern')"
        );
    }

    #[test]
    fn alpha_equivalent_queries_share_a_key() {
        let c = catalog();
        let a = parse_query(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        let b = parse_query(&c, "Q(p) :- Meetings(p, q), Contacts(q, r, 'Intern')").unwrap();
        assert_ne!(a, b); // different variable names
        assert!(structurally_identical(&a, &b));
        assert_eq!(structural_key(&a), structural_key(&b));
    }

    #[test]
    fn different_structure_gives_different_keys() {
        let c = catalog();
        let a = parse_query(&c, "Q(x) :- Meetings(x, y)").unwrap();
        let b = parse_query(&c, "Q(y) :- Meetings(x, y)").unwrap();
        let d = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        assert!(!structurally_identical(&a, &b));
        assert!(!structurally_identical(&a, &d));
    }

    #[test]
    fn kinds_are_preserved_by_renaming() {
        let c = catalog();
        let q = parse_query(&c, "Q(x) :- Meetings(x, y)").unwrap();
        let canon = rename_canonical(&q);
        assert_eq!(canon.var_kind(VarId(0)), VarKind::Distinguished);
        assert_eq!(canon.var_kind(VarId(1)), VarKind::Existential);
        assert_eq!(canon.num_vars(), q.num_vars());
        assert_eq!(canon.num_atoms(), q.num_atoms());
    }

    #[test]
    fn structural_identity_distinguishes_exactly_renamings() {
        let c = catalog();
        let pairs = [
            ("Q(x) :- Meetings(x, y)", "Q(p) :- Meetings(p, q)", true),
            ("Q() :- Meetings(z, z)", "Q() :- Meetings(w, w)", true),
            ("Q(x) :- Meetings(x, y)", "Q(y) :- Meetings(x, y)", false),
            ("Q() :- Meetings(z, z)", "Q() :- Meetings(x, y)", false),
            (
                "Q(x) :- Meetings(x, 'Cathy')",
                "Q(x) :- Meetings(x, 'Bob')",
                false,
            ),
            (
                "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
                "Q(p) :- Meetings(p, q), Contacts(q, r, 'Intern')",
                true,
            ),
            (
                "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
                "Q(x) :- Meetings(x, y), Contacts(y, w, 'Manager')",
                false,
            ),
            (
                // Atom order is part of the key, as for structural_key.
                "Q() :- Meetings(x, y), Contacts(p, q, r)",
                "Q() :- Contacts(p, q, r), Meetings(x, y)",
                false,
            ),
            (
                // The cross-atom join pattern matters.
                "Q() :- Meetings(x, y), Meetings(y, z)",
                "Q() :- Meetings(x, y), Meetings(z, w)",
                false,
            ),
        ];
        for (left, right, expect_equal) in pairs {
            let a = parse_query(&c, left).unwrap();
            let b = parse_query(&c, right).unwrap();
            assert_eq!(
                structurally_identical(&a, &b),
                expect_equal,
                "structural identity of {left} vs {right}"
            );
        }
    }

    #[test]
    fn atom_order_matters_for_the_structural_key() {
        let c = catalog();
        let a = parse_query(&c, "Q() :- Meetings(x, y), Contacts(p, q, r)").unwrap();
        let b = parse_query(&c, "Q() :- Contacts(p, q, r), Meetings(x, y)").unwrap();
        // Structural identity is deliberately syntactic; semantic equality is
        // the job of `containment::equivalent`.
        assert!(!structurally_identical(&a, &b));
        assert!(crate::containment::equivalent(&a, &b));
    }
}

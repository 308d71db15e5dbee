//! Containment and equivalence of conjunctive queries.
//!
//! Built directly on the homomorphism search of
//! [`homomorphism`](crate::homomorphism) via the Chandra–Merlin theorem:
//! `Q1 ⊆ Q2` (every answer of `Q1` is an answer of `Q2` on every database)
//! holds exactly when there is a containment mapping from `Q2` to `Q1`.
//!
//! Two flavours are provided, matching the two head disciplines of the tagged
//! representation:
//!
//! * the `*_same_space` functions assume both queries share one variable
//!   space (e.g. one was derived from the other) and require homomorphisms to
//!   fix distinguished variables — this is classical containment;
//! * [`equivalent`] compares two independent queries *up to head
//!   permutation*, the notion of information equivalence used by the paper
//!   when it treats `V1(x, y) :- M(x, y)` and `V1'(y, x) :- M(x, y)` as
//!   revealing the same information (Section 3.1).

use crate::homomorphism::{homomorphism_exists, HeadPolicy};
use crate::query::ConjunctiveQuery;

/// Classical containment `q1 ⊆ q2` for queries sharing a variable space.
///
/// Requires a homomorphism from `q2` to `q1` that fixes distinguished
/// variables.
pub fn contained_in_same_space(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    homomorphism_exists(q2, q1, HeadPolicy::Identity)
}

/// Classical equivalence for queries sharing a variable space.
pub fn equivalent_same_space(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_in_same_space(q1, q2) && contained_in_same_space(q2, q1)
}

/// Information containment up to head permutation: there is a homomorphism
/// from `q2` to `q1` mapping distinguished variables to distinguished
/// variables.
///
/// For queries with the same head arity this coincides with classical
/// containment up to a renaming of the head; it is the right comparison for
/// the tagged (head-less) representation of Section 5.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    homomorphism_exists(q2, q1, HeadPolicy::DistinguishedToDistinguished)
}

/// Information equivalence up to head permutation (both-way containment).
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
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
    fn selection_is_contained_in_projection() {
        let c = catalog();
        // Q1(x) :- Meetings(x, 'Cathy') returns a subset of V2(x) :- Meetings(x, y).
        let q1 = parse_query(&c, "Q1(x) :- Meetings(x, 'Cathy')").unwrap();
        let v2 = parse_query(&c, "V2(x) :- Meetings(x, y)").unwrap();
        assert!(contained_in(&q1, &v2));
        assert!(!contained_in(&v2, &q1));
        assert!(!equivalent(&q1, &v2));
    }

    #[test]
    fn adding_a_redundant_atom_preserves_equivalence() {
        let c = catalog();
        let q = parse_query(&c, "Q(x) :- Meetings(x, y)").unwrap();
        let redundant = parse_query(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)").unwrap();
        assert!(equivalent(&q, &redundant));
        assert!(contained_in(&q, &redundant));
        assert!(contained_in(&redundant, &q));
    }

    #[test]
    fn joining_restricts_the_answer() {
        let c = catalog();
        let v2 = parse_query(&c, "V2(x) :- Meetings(x, y)").unwrap();
        let q2 = parse_query(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        assert!(contained_in(&q2, &v2));
        assert!(!contained_in(&v2, &q2));
    }

    #[test]
    fn head_permutation_does_not_matter_for_equivalent() {
        let c = catalog();
        // The paper's V1 and V1' example: same information, different head order.
        let v1 = parse_query(&c, "V1(x, y) :- Meetings(x, y)").unwrap();
        let v1p = parse_query(&c, "V1p(y, x) :- Meetings(x, y)").unwrap();
        assert!(equivalent(&v1, &v1p));
    }

    #[test]
    fn projection_columns_are_not_equivalent() {
        let c = catalog();
        let v2 = parse_query(&c, "V2(x) :- Meetings(x, y)").unwrap();
        let v4 = parse_query(&c, "V4(y) :- Meetings(x, y)").unwrap();
        // Both are single-column projections of Meetings, but of different
        // columns: under the tagged representation they are *incomparable*
        // (for information purposes; see the disclosure lattice of Figure 3).
        //
        // Note: `contained_in` works up to head permutation, and a
        // permutation maps one projection onto the other only if the body
        // also matches; here the distinguished variable occupies different
        // columns, so no containment mapping exists in either direction.
        assert!(!equivalent(&v2, &v4));
    }

    #[test]
    fn boolean_query_is_contained_in_everything_over_same_relation() {
        let c = catalog();
        let v5 = parse_query(&c, "V5() :- Meetings(x, y)").unwrap();
        let v1 = parse_query(&c, "V1(x, y) :- Meetings(x, y)").unwrap();
        // Boolean nonemptiness check: as a query its only "answer" is the
        // empty tuple, which exists whenever V1 has any answer at all.
        // A head-free body homomorphism captures that; head-aware
        // containment treats the arities as different so it is not
        // equivalence.
        assert!(homomorphism_exists(&v5, &v1, HeadPolicy::Free));
        assert!(!equivalent(&v5, &v1));
    }

    #[test]
    fn same_space_containment_distinguishes_head_positions() {
        let c = catalog();
        let q_first = parse_query(&c, "Q(x) :- Meetings(x, y)").unwrap();
        let q_second = parse_query(&c, "Q(y) :- Meetings(x, y)").unwrap();
        // Sharing the variable-id space by construction (both parsed with
        // first body occurrence order), these two are different queries.
        assert!(!equivalent_same_space(&q_first, &q_second));
        assert!(equivalent_same_space(&q_first, &q_first));
        assert!(contained_in_same_space(&q_first, &q_first));
    }

    #[test]
    fn constants_make_queries_incomparable_when_they_differ() {
        let c = catalog();
        let cathy = parse_query(&c, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let bob = parse_query(&c, "Q(x) :- Meetings(x, 'Bob')").unwrap();
        assert!(!contained_in(&cathy, &bob));
        assert!(!contained_in(&bob, &cathy));
    }
}

//! Equivalent view rewriting for single-atom views.
//!
//! The paper's concrete disclosure order (Section 3.1) is *equivalent view
//! rewriting*: `W1 ⪯ W2` when every view in `W1` has an equivalent rewriting
//! in terms of the views in `W2`.  Its labeling algorithms (Sections 5 and 6)
//! only ever need the check for a **single-atom query against a single-atom
//! security view**, because multi-atom queries are first dissected into
//! single atoms and the optimized labeler computes
//! `ℓ⁺({V}) = {Vi ∈ Fgen : {V} ⪯ {Vi}}` one security view at a time.
//!
//! [`rewritable_from_single`] implements that check exactly:
//!
//! 1. Both queries must reference the same relation.
//! 2. A candidate rewriting that uses the view **once** is built
//!    positionally: every position where the view exposes a distinguished
//!    variable is forced to the query's term at that position; positions the
//!    view projects away are unconstrained; constant positions of the view
//!    must agree with the query.
//! 3. The candidate's *expansion* is compared to the query for classical
//!    equivalence (homomorphisms in both directions fixing distinguished
//!    variables).
//!
//! For single-atom queries and views, a rewriting that uses the view more
//! than once can always be folded down to a single use (its expansion is a
//! set of atoms over one relation whose core must be the query's single
//! atom), so checking the one-use candidate is complete.  A single-atom
//! query is also never rewritable from a *combination* of single-atom views
//! when it is not rewritable from one of them — intersecting or joining
//! lossy projections of the same relation cannot reconstruct information
//! that none of them retains (this is the Figure 3 observation that
//! `⇓{V2, V4}` sits strictly below `⇓{V1}`).  These two facts make
//! [`rewritable_from_single`] the whole single-atom order.  It is the
//! reference the serving labelers' positional rule (`fdc_core::answers`) is
//! checked against; the Figure 5 baseline and hash-partitioned labelers
//! call it directly.

use crate::containment::equivalent_same_space;
use crate::query::{Body, ConjunctiveQuery, VarTable};
use crate::term::{TermRef, VarId, VarKind};

/// Can the single-atom query `query` be answered by an equivalent rewriting
/// in terms of the single-atom view `view`?
///
/// Returns `false` (never panics) if either input has more than one body
/// atom; multi-atom inputs should go through `Dissect` first.
///
/// # Example
///
/// ```
/// use fdc_cq::{Catalog, parser::parse_query, rewriting::rewritable_from_single};
///
/// let catalog = Catalog::paper_example();
/// let v1 = parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap();
/// let v2 = parse_query(&catalog, "V2(x) :- Meetings(x, y)").unwrap();
/// let q1 = parse_query(&catalog, "Q1(x) :- Meetings(x, 'Cathy')").unwrap();
///
/// assert!(rewritable_from_single(&q1, &v1));  // select from the full view
/// assert!(!rewritable_from_single(&q1, &v2)); // the time-only view is not enough
/// ```
pub fn rewritable_from_single(query: &ConjunctiveQuery, view: &ConjunctiveQuery) -> bool {
    single_view_expansion(query, view)
        .is_some_and(|expansion| equivalent_same_space(&expansion, query))
}

/// The expansion of the one-use candidate rewriting of `query` from `view`,
/// in the query's variable space, or `None` when no candidate exists.
fn single_view_expansion(
    query: &ConjunctiveQuery,
    view: &ConjunctiveQuery,
) -> Option<ConjunctiveQuery> {
    if !query.is_single_atom() || !view.is_single_atom() {
        return None;
    }
    let q_atom = query.atom(0);
    let v_atom = view.atom(0);
    if q_atom.relation != v_atom.relation || q_atom.arity() != v_atom.arity() {
        return None;
    }

    // Step 1: build the positional assignment θ from the view's distinguished
    // variables to terms of the query, and fail fast on positions the view
    // cannot reproduce.
    let mut theta: Vec<Option<TermRef<'_>>> = vec![None; view.num_vars()];
    for (v_term, q_term) in v_atom.terms().iter().zip(q_atom.terms()) {
        match v_term {
            TermRef::Var(v, VarKind::Distinguished) => match theta[v.index()] {
                Some(existing) if existing != q_term => return None,
                Some(_) => {}
                None => theta[v.index()] = Some(q_term),
            },
            TermRef::Var(_, VarKind::Existential) => {
                // Projected away by the view; no constraint here.  If the
                // query needs this position (e.g. exposes it), the expansion
                // equivalence check below will fail.
            }
            TermRef::Const(c) => {
                // The view pre-selects this constant.  The query must select
                // the same constant, otherwise the rewriting either
                // contradicts the query (different constant) or is more
                // restrictive than it (variable in the query).
                if q_term.as_const() != Some(c) {
                    return None;
                }
            }
        }
    }

    // Step 2: every distinguished variable of the query must be exposed by
    // the view at some position (otherwise the rewriting would be unsafe).
    for q_var in query.distinguished_vars() {
        let exposed = v_atom
            .terms()
            .iter()
            .zip(q_atom.terms())
            .any(|(v_term, q_term)| {
                v_term.var_kind() == Some(VarKind::Distinguished) && q_term.var_id() == Some(q_var)
            });
        if !exposed {
            return None;
        }
    }

    // Step 3: build the expansion of the one-use candidate rewriting and
    // check classical equivalence with the query in the query's variable
    // space (extended with fresh existential variables for the positions the
    // view projects away).
    let mut vars = VarTable::of(query);

    // Existential variables of the view are renamed to fresh existential
    // variables of the expansion -- one fresh variable per *view variable*
    // (not per position), so that repeated existential variables such as the
    // body of `V15() :- M(z, z)` keep their equality constraint.
    let mut fresh_for_view_var: Vec<Option<VarId>> = vec![None; view.num_vars()];
    let mut body = Body::default();
    for v_term in v_atom.terms() {
        match v_term {
            TermRef::Var(v, VarKind::Distinguished) => {
                let bound =
                    theta[v.index()].expect("distinguished view variables occur in the view body");
                body.push_term(bound);
            }
            TermRef::Var(v, VarKind::Existential) => {
                let fresh = *fresh_for_view_var[v.index()].get_or_insert_with(|| {
                    let id = vars.len();
                    vars.push(VarKind::Existential, &format!("_fresh{id}"))
                });
                body.push_var(fresh, VarKind::Existential);
            }
            TermRef::Const(c) => body.push_const(c.as_const_bytes()),
        }
    }

    body.end_atom(q_atom.relation);
    // The expansion fails validation when, e.g., a distinguished variable of
    // the query does not occur in it; then no rewriting exists.  Variables
    // of the query that it leaves out are allowed: the expansion lives in
    // the query's variable space.
    ConjunctiveQuery::from_body(body, vars, false).ok()
}

/// Can the single-atom query be rewritten using *some* view in `views`?
///
/// See the module documentation for why, for single-atom queries and
/// single-atom views, per-view checks are sufficient.
pub fn rewritable_from_any<'a, I>(query: &ConjunctiveQuery, views: I) -> bool
where
    I: IntoIterator<Item = &'a ConjunctiveQuery>,
{
    views
        .into_iter()
        .any(|view| rewritable_from_single(query, view))
}

/// The set-of-views comparison of the equivalent view rewriting order for
/// single-atom views: `w1 ⪯ w2` iff every view of `w1` is rewritable from
/// some view of `w2`.
pub fn set_rewritable(w1: &[ConjunctiveQuery], w2: &[ConjunctiveQuery]) -> bool {
    w1.iter().all(|v| rewritable_from_any(v, w2.iter()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse_query;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    #[test]
    fn projections_are_rewritable_from_the_full_view() {
        let c = catalog();
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");
        let v4 = q(&c, "V4(y) :- Meetings(x, y)");
        let v5 = q(&c, "V5() :- Meetings(x, y)");

        assert!(rewritable_from_single(&v2, &v1));
        assert!(rewritable_from_single(&v4, &v1));
        assert!(rewritable_from_single(&v5, &v1));
        assert!(rewritable_from_single(&v1, &v1));

        // Lossy projections cannot reproduce the full view or each other.
        assert!(!rewritable_from_single(&v1, &v2));
        assert!(!rewritable_from_single(&v1, &v4));
        assert!(!rewritable_from_single(&v2, &v4));
        assert!(!rewritable_from_single(&v4, &v2));

        // Both projections reveal nonemptiness.
        assert!(rewritable_from_single(&v5, &v2));
        assert!(rewritable_from_single(&v5, &v4));
        // But nonemptiness alone reveals neither projection.
        assert!(!rewritable_from_single(&v2, &v5));
        assert!(!rewritable_from_single(&v4, &v5));
    }

    #[test]
    fn selections_need_the_selected_column() {
        let c = catalog();
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");
        let q1 = q(&c, "Q1(x) :- Meetings(x, 'Cathy')");

        // Figure 1: the label of Q1 is {V1}.
        assert!(rewritable_from_single(&q1, &v1));
        assert!(!rewritable_from_single(&q1, &v2));
    }

    #[test]
    fn cross_relation_rewriting_is_impossible() {
        let c = catalog();
        let v3 = q(&c, "V3(x, y, z) :- Contacts(x, y, z)");
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");
        assert!(!rewritable_from_single(&v2, &v3));
        assert!(!rewritable_from_single(&v3, &v2));
    }

    #[test]
    fn constants_in_the_view_restrict_what_it_can_answer() {
        let c = catalog();
        let cathy_view = q(&c, "Vc(x) :- Meetings(x, 'Cathy')");
        let any_view = q(&c, "V2(x) :- Meetings(x, y)");
        let cathy_query = q(&c, "Q(x) :- Meetings(x, 'Cathy')");
        let bob_query = q(&c, "Q(x) :- Meetings(x, 'Bob')");
        let all_query = q(&c, "Q(x) :- Meetings(x, y)");

        // The selection view answers exactly its own selection.
        assert!(rewritable_from_single(&cathy_query, &cathy_view));
        assert!(!rewritable_from_single(&bob_query, &cathy_view));
        assert!(!rewritable_from_single(&all_query, &cathy_view));
        // A selection is answerable from the unrestricted projection of the
        // same columns only if the selected column is exposed.
        assert!(!rewritable_from_single(&cathy_query, &any_view));
    }

    #[test]
    fn example_5_1_boolean_views_are_incomparable() {
        let c = catalog();
        let v13 = q(&c, "V13() :- Meetings(9, 'Jim')");
        let v14 = q(&c, "V14() :- Meetings(x, y)");
        // V13 true implies V14 true, but that is containment in one
        // direction only: whether one tuple is present does not determine
        // whether the relation is nonempty, nor the other way round.  So
        // neither is an equivalent rewriting of the other.
        assert!(!rewritable_from_single(&v14, &v13));
        assert!(!rewritable_from_single(&v13, &v14));
    }

    #[test]
    fn example_5_3_diagonal_versus_unrestricted() {
        let c = catalog();
        let v14 = q(&c, "V14() :- Meetings(x, y)");
        let v15 = q(&c, "V15() :- Meetings(z, z)");
        assert!(!rewritable_from_single(&v14, &v15));
        assert!(!rewritable_from_single(&v15, &v14));
    }

    #[test]
    fn repeated_distinguished_view_variables() {
        let c = catalog();
        // The diagonal view exposes elements x with (x, x) in Meetings.
        let diag = q(&c, "Vd(x) :- Meetings(x, x)");
        let diag_query = q(&c, "Q(x) :- Meetings(x, x)");
        let full_query = q(&c, "Q(x, y) :- Meetings(x, y)");
        assert!(rewritable_from_single(&diag_query, &diag));
        assert!(!rewritable_from_single(&full_query, &diag));
        // And the diagonal query is answerable from the full view.
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        assert!(rewritable_from_single(&diag_query, &v1));
    }

    #[test]
    fn boolean_diagonal_from_full_view() {
        let c = catalog();
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        let v15 = q(&c, "V15() :- Meetings(z, z)");
        // Q'() :- V1(z, z) is an equivalent rewriting.
        assert!(rewritable_from_single(&v15, &v1));
    }

    #[test]
    fn contacts_projections_match_figure_4_expectations() {
        let c = catalog();
        let v3 = q(&c, "V3(x, y, z) :- Contacts(x, y, z)");
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let v7 = q(&c, "V7(x, z) :- Contacts(x, y, z)");
        let v8 = q(&c, "V8(y, z) :- Contacts(x, y, z)");
        let v9 = q(&c, "V9(x) :- Contacts(x, y, z)");
        let v10 = q(&c, "V10(y) :- Contacts(x, y, z)");
        let v11 = q(&c, "V11(z) :- Contacts(x, y, z)");
        let v12 = q(&c, "V12() :- Contacts(x, y, z)");

        // Every projection is answerable from the full view.
        for v in [&v6, &v7, &v8, &v9, &v10, &v11, &v12] {
            assert!(rewritable_from_single(v, &v3));
        }
        // Single-column projections are answerable from the two-column
        // projections that retain the column.
        assert!(rewritable_from_single(&v9, &v6));
        assert!(rewritable_from_single(&v9, &v7));
        assert!(!rewritable_from_single(&v9, &v8));
        assert!(rewritable_from_single(&v10, &v6));
        assert!(rewritable_from_single(&v10, &v8));
        assert!(!rewritable_from_single(&v10, &v7));
        assert!(rewritable_from_single(&v11, &v7));
        assert!(rewritable_from_single(&v11, &v8));
        assert!(!rewritable_from_single(&v11, &v6));
        // The boolean view is answerable from everything.
        for v in [&v3, &v6, &v7, &v8, &v9, &v10, &v11] {
            assert!(rewritable_from_single(&v12, v));
        }
        // Two-column projections are not answerable from single columns.
        assert!(!rewritable_from_single(&v6, &v9));
        assert!(!rewritable_from_single(&v6, &v10));
    }

    #[test]
    fn set_level_comparisons() {
        let c = catalog();
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");
        let v4 = q(&c, "V4(y) :- Meetings(x, y)");
        let v5 = q(&c, "V5() :- Meetings(x, y)");

        // {V2, V4} ⪯ {V1} but {V1} ⪯̸ {V2, V4}: the projections cannot be
        // recombined into the full relation.
        assert!(set_rewritable(
            &[v2.clone(), v4.clone()],
            std::slice::from_ref(&v1)
        ));
        assert!(!set_rewritable(
            std::slice::from_ref(&v1),
            &[v2.clone(), v4.clone()]
        ));
        // {V5} ⪯ {V2} and {V5} ⪯ {V4}.
        assert!(set_rewritable(
            std::slice::from_ref(&v5),
            std::slice::from_ref(&v2)
        ));
        assert!(set_rewritable(
            std::slice::from_ref(&v5),
            std::slice::from_ref(&v4)
        ));
        // The empty set is below everything.
        assert!(set_rewritable(&[], std::slice::from_ref(&v5)));
        assert!(rewritable_from_any(&v5, [&v2, &v4]));
        assert!(!rewritable_from_any(&v1, [&v2, &v4]));
    }

    #[test]
    fn multi_atom_inputs_are_rejected() {
        let c = catalog();
        let multi = q(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        assert!(!rewritable_from_single(&multi, &v1));
        assert!(!rewritable_from_single(&v1, &multi));
    }

    #[test]
    fn an_expansions_stored_hash_is_its_interned_entrys() {
        use crate::intern::QueryInterner;

        let c = catalog();
        let texts = [
            "V1(x, y) :- Meetings(x, y)",
            "V15() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "V3(x, y, z) :- Contacts(x, y, z)",
            "V6(x, y) :- Contacts(x, y, z)",
            "V9(x) :- Contacts(x, y, z)",
            "V12() :- Contacts(x, y, z)",
        ];
        let queries: Vec<_> = texts.iter().map(|t| q(&c, t)).collect();
        let mut interner = QueryInterner::new();
        let mut expansions = 0;
        for query in &queries {
            for view in &queries {
                let Some(expansion) = single_view_expansion(query, view) else {
                    continue;
                };
                // The expansion keeps the query's whole variable table, so
                // some of its variables may not occur in its body.
                let id = interner.intern(&expansion);
                assert_eq!(
                    expansion.shape_hash(),
                    interner.shape_hash(id),
                    "{expansion:?}"
                );
                expansions += 1;
            }
        }
        assert!(expansions >= queries.len(), "{expansions} expansions");
    }

    #[test]
    fn query_variable_order_does_not_matter() {
        let c = catalog();
        // The same projection written with permuted head order.
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let v6_swapped = q(&c, "V6b(y, x) :- Contacts(x, y, z)");
        assert!(rewritable_from_single(&v6, &v6_swapped));
        assert!(rewritable_from_single(&v6_swapped, &v6));
    }
}

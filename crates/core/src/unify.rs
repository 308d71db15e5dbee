//! The GLB machinery of Section 5.1: `GenMGU` and `GLBSingleton`.
//!
//! The greatest lower bound of two single-atom views — the most informative
//! view computable from either one in isolation — is obtained by a modified
//! most-general-unifier computation over the two view bodies.  The three
//! modifications relative to a standard mgu (Section 5.1) are:
//!
//! 1. unifying a **constant with an existential variable fails** (the
//!    boolean views of Example 5.1 share no single-atom lower bound other
//!    than ⊥);
//! 2. unifying an **existential** variable with any variable yields an
//!    existential variable;
//! 3. unifying two **distinguished** variables yields a distinguished
//!    variable.
//!
//! After unification an extra check (Example 5.3) rejects results that force
//! a *new* equality between two positions of one original atom when at least
//! one of the two original terms was existential.

use fdc_cq::{Atom, ConjunctiveQuery, ConstRef, Term, TermRef, VarId, VarKind};

/// The outcome of a GLB computation on single-atom views.
///
/// `Bottom` is the paper's ⊥: the two views have no common single-atom
/// information beyond the empty view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Glb {
    /// The GLB is the contained single-atom view.
    View(ConjunctiveQuery),
    /// The GLB is ⊥ (no information in common).
    Bottom,
}

impl Glb {
    /// Returns the view if the GLB is not ⊥.
    pub fn view(&self) -> Option<&ConjunctiveQuery> {
        match self {
            Glb::View(q) => Some(q),
            Glb::Bottom => None,
        }
    }

    /// True if the GLB is ⊥.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Glb::Bottom)
    }
}

/// A node of the unification graph: a variable of one of the two views
/// (tagged by side) — constants are handled separately via class bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Left(VarId),
    Right(VarId),
}

/// Union-find over the variables of both views plus per-class constant and
/// kind bookkeeping.
struct Unifier {
    /// parent pointers, indexed by node index.
    parent: Vec<usize>,
    /// Per-root: the constant bound to the class, if any.
    constant: Vec<Option<fdc_cq::Constant>>,
    /// Per-root: true if any member of the class is existential.
    has_existential: Vec<bool>,
    left_offset: usize,
}

impl Unifier {
    fn new(left: &ConjunctiveQuery, right: &ConjunctiveQuery) -> Self {
        let n_left = left.num_vars();
        let n_right = right.num_vars();
        let total = n_left + n_right;
        let mut has_existential = vec![false; total];
        for (i, kind) in left.var_kinds().enumerate() {
            has_existential[i] = kind.is_existential();
        }
        for (i, kind) in right.var_kinds().enumerate() {
            has_existential[n_left + i] = kind.is_existential();
        }
        Unifier {
            parent: (0..total).collect(),
            constant: vec![None; total],
            has_existential,
            left_offset: n_left,
        }
    }

    fn node_index(&self, node: Node) -> usize {
        match node {
            Node::Left(v) => v.index(),
            Node::Right(v) => self.left_offset + v.index(),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    /// Unions two classes; returns `false` on a constant clash or a
    /// constant-vs-existential clash.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        let merged_constant = match (self.constant[ra].clone(), self.constant[rb].clone()) {
            (Some(c1), Some(c2)) if c1 != c2 => return false,
            (Some(c), _) | (_, Some(c)) => Some(c),
            (None, None) => None,
        };
        let merged_existential = self.has_existential[ra] || self.has_existential[rb];
        // Rule 1: a constant may not be unified with an existential variable.
        if merged_constant.is_some() && merged_existential {
            return false;
        }
        self.parent[rb] = ra;
        self.constant[ra] = merged_constant;
        self.has_existential[ra] = merged_existential;
        true
    }

    /// Binds a class to a constant; fails on clash or if the class contains
    /// an existential variable (rule 1).
    fn bind_constant(&mut self, a: usize, c: ConstRef<'_>) -> bool {
        let ra = self.find(a);
        match &self.constant[ra] {
            Some(existing) if *existing != c => return false,
            _ => {}
        }
        if self.has_existential[ra] {
            return false;
        }
        self.constant[ra] = Some(c.to_constant());
        true
    }
}

/// Computes the generalized most general unifier of the bodies of two
/// single-atom views (the `GenMGU` subroutine of Section 5.1).
///
/// Returns `None` when unification fails (which the caller interprets as a
/// ⊥ GLB): different relations, clashing constants, or a constant meeting an
/// existential variable.
///
/// The result, when it exists, is returned as a single-atom query whose
/// distinguished variables are exactly the unified classes that contain only
/// distinguished variables.
pub fn gen_mgu(left: &ConjunctiveQuery, right: &ConjunctiveQuery) -> Option<ConjunctiveQuery> {
    mgu_with_check(left, right, false)
}

/// `GLBSingleton` (Section 5.1): the GLB of two singleton sets of
/// single-atom views.
///
/// Runs [`gen_mgu`] and additionally applies the Example 5.3 corner-case
/// check: if unification forces a *new* equality between two positions of
/// the same original atom and at least one of the two original terms was an
/// existential variable, the GLB is ⊥.
pub fn glb_singleton(left: &ConjunctiveQuery, right: &ConjunctiveQuery) -> Glb {
    match mgu_with_check(left, right, true) {
        Some(q) => Glb::View(q),
        None => Glb::Bottom,
    }
}

fn mgu_with_check(
    left: &ConjunctiveQuery,
    right: &ConjunctiveQuery,
    apply_new_equality_check: bool,
) -> Option<ConjunctiveQuery> {
    if !left.is_single_atom() || !right.is_single_atom() {
        return None;
    }
    let l_atom = left.atom(0);
    let r_atom = right.atom(0);
    if l_atom.relation != r_atom.relation || l_atom.arity() != r_atom.arity() {
        return None;
    }

    let mut unifier = Unifier::new(left, right);

    for (l_term, r_term) in l_atom.terms().iter().zip(r_atom.terms()) {
        match (l_term, r_term) {
            (TermRef::Var(lv, _), TermRef::Var(rv, _)) => {
                let a = unifier.node_index(Node::Left(lv));
                let b = unifier.node_index(Node::Right(rv));
                if !unifier.union(a, b) {
                    return None;
                }
            }
            (TermRef::Var(lv, _), TermRef::Const(c)) => {
                let a = unifier.node_index(Node::Left(lv));
                if !unifier.bind_constant(a, c) {
                    return None;
                }
            }
            (TermRef::Const(c), TermRef::Var(rv, _)) => {
                let b = unifier.node_index(Node::Right(rv));
                if !unifier.bind_constant(b, c) {
                    return None;
                }
            }
            (TermRef::Const(c1), TermRef::Const(c2)) => {
                if c1 != c2 {
                    return None;
                }
            }
        }
    }

    // Example 5.3 check: a *new* equality between two positions of the same
    // original atom, where at least one original term was existential.
    if apply_new_equality_check {
        for (atom, side_is_left) in [(l_atom, true), (r_atom, false)] {
            for i in 0..atom.arity() {
                for j in (i + 1)..atom.arity() {
                    let ti = atom.term(i);
                    let tj = atom.term(j);
                    if ti == tj {
                        continue; // the equality already existed
                    }
                    let class_of = |unifier: &mut Unifier,
                                    term: TermRef<'_>,
                                    other: TermRef<'_>|
                     -> Option<usize> {
                        match term {
                            TermRef::Var(v, _) => {
                                let node = if side_is_left {
                                    Node::Left(v)
                                } else {
                                    Node::Right(v)
                                };
                                let idx = unifier.node_index(node);
                                Some(unifier.find(idx))
                            }
                            TermRef::Const(c) => {
                                // A constant "class" only matters when the
                                // other side is a variable bound to the same
                                // constant; handled below via the constant
                                // binding of the variable's class.
                                let _ = (c, other);
                                None
                            }
                        }
                    };
                    let any_existential = ti.is_existential() || tj.is_existential();
                    if !any_existential {
                        continue;
                    }
                    match (ti, tj) {
                        (TermRef::Var(_, _), TermRef::Var(_, _)) => {
                            let ci = class_of(&mut unifier, ti, tj);
                            let cj = class_of(&mut unifier, tj, ti);
                            if ci.is_some() && ci == cj {
                                return None;
                            }
                        }
                        (TermRef::Var(v, _), TermRef::Const(c))
                        | (TermRef::Const(c), TermRef::Var(v, _)) => {
                            let node = if side_is_left {
                                Node::Left(v)
                            } else {
                                Node::Right(v)
                            };
                            let idx = unifier.node_index(node);
                            let root = unifier.find(idx);
                            if unifier.constant[root].as_ref().is_some_and(|k| *k == c) {
                                return None;
                            }
                        }
                        (TermRef::Const(_), TermRef::Const(_)) => {}
                    }
                }
            }
        }
    }

    // Build the result atom: one term per position, determined by the class
    // of the left term at that position (the right term is in the same class
    // by construction).
    let mut class_to_new_var: std::collections::HashMap<usize, VarId> =
        std::collections::HashMap::new();
    let mut var_kinds: Vec<VarKind> = Vec::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut result_terms: Vec<Term> = Vec::with_capacity(l_atom.arity());

    for (l_term, r_term) in l_atom.terms().iter().zip(r_atom.terms()) {
        // Locate the class for this position.
        let root = match (l_term, r_term) {
            (TermRef::Var(lv, _), _) => Some(unifier.find(unifier.node_index(Node::Left(lv)))),
            (_, TermRef::Var(rv, _)) => Some(unifier.find(unifier.node_index(Node::Right(rv)))),
            (TermRef::Const(c), TermRef::Const(_)) => {
                result_terms.push(c.to_term());
                None
            }
        };
        let Some(root) = root else { continue };
        if let Some(c) = &unifier.constant[root] {
            result_terms.push(Term::Const(c.clone()));
            continue;
        }
        let kind = if unifier.has_existential[root] {
            VarKind::Existential
        } else {
            VarKind::Distinguished
        };
        let next_id = VarId(class_to_new_var.len() as u32);
        let var = *class_to_new_var.entry(root).or_insert_with(|| {
            var_kinds.push(kind);
            var_names.push(format!("u{}", next_id.0));
            next_id
        });
        result_terms.push(Term::Var(var, var_kinds[var.index()]));
    }

    let atom = Atom::new(l_atom.relation, result_terms);
    ConjunctiveQuery::from_parts(vec![atom], var_kinds, var_names).ok()
}

/// The GLB of two *sets* of single-atom views (end of Section 5.1): the
/// union of the pairwise `GLBSingleton` results, dropping ⊥.
pub fn glb_sets(left: &[ConjunctiveQuery], right: &[ConjunctiveQuery]) -> Vec<ConjunctiveQuery> {
    let mut out: Vec<ConjunctiveQuery> = Vec::new();
    for l in left {
        for r in right {
            if let Glb::View(q) = glb_singleton(l, r) {
                // Deduplicate by information equivalence to keep results small.
                if !out
                    .iter()
                    .any(|existing| fdc_cq::containment::equivalent(existing, &q))
                {
                    out.push(q);
                }
            }
        }
    }
    out
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
    fn example_5_2_overlap_of_two_projections() {
        // V6(x, y) :- C(x, y, z) and V7(x, z) :- C(x, y, z): the GenMGU is
        // V9(x) :- C(x, y, z), the projection on the shared column.
        let c = catalog();
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let v7 = q(&c, "V7(x, z) :- Contacts(x, y, z)");
        let v9 = q(&c, "V9(x) :- Contacts(x, y, z)");

        let mgu = gen_mgu(&v6, &v7).expect("projections over one relation unify");
        assert!(fdc_cq::containment::equivalent(&mgu, &v9));

        let glb = glb_singleton(&v6, &v7);
        assert!(fdc_cq::containment::equivalent(glb.view().unwrap(), &v9));
        assert!(!glb.is_bottom());
    }

    #[test]
    fn example_5_1_constant_meets_existential() {
        let c = catalog();
        let v13 = q(&c, "V13() :- Meetings(9, 'Jim')");
        let v14 = q(&c, "V14() :- Meetings(x, y)");
        assert_eq!(gen_mgu(&v13, &v14), None);
        assert!(glb_singleton(&v13, &v14).is_bottom());
        assert!(glb_singleton(&v14, &v13).is_bottom());
    }

    #[test]
    fn example_5_3_new_equality_on_existentials() {
        let c = catalog();
        let v14 = q(&c, "V14() :- Meetings(x, y)");
        let v15 = q(&c, "V15() :- Meetings(z, z)");
        // The raw GenMGU exists ([M(we, we)]) ...
        let mgu = gen_mgu(&v14, &v15).expect("unification itself succeeds");
        assert!(mgu.atom(0).has_repeated_vars());
        // ... but GLBSingleton applies the corner-case check and returns ⊥.
        assert!(glb_singleton(&v14, &v15).is_bottom());
        assert!(glb_singleton(&v15, &v14).is_bottom());
    }

    #[test]
    fn figure_4_pairwise_glbs() {
        // Example 4.4 / 6.1: GLB({V6},{V7}) ≡ {V9}, GLB({V6},{V8}) ≡ {V10},
        // GLB({V7},{V8}) ≡ {V11}.
        let c = catalog();
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let v7 = q(&c, "V7(x, z) :- Contacts(x, y, z)");
        let v8 = q(&c, "V8(y, z) :- Contacts(x, y, z)");
        let v9 = q(&c, "V9(x) :- Contacts(x, y, z)");
        let v10 = q(&c, "V10(y) :- Contacts(x, y, z)");
        let v11 = q(&c, "V11(z) :- Contacts(x, y, z)");

        let cases = [(&v6, &v7, &v9), (&v6, &v8, &v10), (&v7, &v8, &v11)];
        for (a, b, expected) in cases {
            let glb = glb_singleton(a, b);
            let got = glb.view().expect("two-column projections overlap");
            assert!(
                fdc_cq::containment::equivalent(got, expected),
                "GLB mismatch: got {got:?}"
            );
        }
    }

    #[test]
    fn glb_with_the_full_view_is_the_smaller_view() {
        let c = catalog();
        let v3 = q(&c, "V3(x, y, z) :- Contacts(x, y, z)");
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let glb = glb_singleton(&v3, &v6);
        assert!(fdc_cq::containment::equivalent(glb.view().unwrap(), &v6));
        // And symmetrically.
        let glb = glb_singleton(&v6, &v3);
        assert!(fdc_cq::containment::equivalent(glb.view().unwrap(), &v6));
    }

    #[test]
    fn glb_of_identical_views_is_the_view_itself() {
        let c = catalog();
        for text in [
            "V1(x, y) :- Meetings(x, y)",
            "V2(x) :- Meetings(x, y)",
            "V5() :- Meetings(x, y)",
            "Vc(x) :- Meetings(x, 'Cathy')",
        ] {
            let v = q(&c, text);
            let glb = glb_singleton(&v, &v);
            assert!(
                fdc_cq::containment::equivalent(glb.view().unwrap(), &v),
                "self-GLB changed {text}"
            );
        }
    }

    #[test]
    fn different_relations_have_bottom_glb() {
        let c = catalog();
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");
        let v9 = q(&c, "V9(x) :- Contacts(x, y, z)");
        assert!(glb_singleton(&v2, &v9).is_bottom());
        assert_eq!(gen_mgu(&v2, &v9), None);
    }

    #[test]
    fn constants_meeting_distinguished_variables_select() {
        let c = catalog();
        // Vc(x) :- M(x, 'Cathy') vs V1(x, y) :- M(x, y): the overlap is the
        // selection itself (computable from V1 by selection, from Vc
        // trivially).
        let vc = q(&c, "Vc(x) :- Meetings(x, 'Cathy')");
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        let glb = glb_singleton(&vc, &v1);
        assert!(fdc_cq::containment::equivalent(glb.view().unwrap(), &vc));
    }

    #[test]
    fn clashing_constants_give_bottom() {
        let c = catalog();
        let cathy = q(&c, "V(x) :- Meetings(x, 'Cathy')");
        let bob = q(&c, "V(x) :- Meetings(x, 'Bob')");
        assert!(glb_singleton(&cathy, &bob).is_bottom());
    }

    #[test]
    fn same_constant_survives_unification() {
        let c = catalog();
        let a = q(&c, "V(x) :- Meetings(x, 'Cathy')");
        let b = q(&c, "V() :- Meetings(y, 'Cathy')");
        let glb = glb_singleton(&a, &b);
        // The overlap is the boolean "does anyone meet Cathy" view: the
        // distinguished x of `a` meets the existential y of `b`, so the
        // result column is existential.
        let expected = q(&c, "V() :- Meetings(x, 'Cathy')");
        assert!(fdc_cq::containment::equivalent(
            glb.view().unwrap(),
            &expected
        ));
    }

    #[test]
    fn glb_sets_unions_pairwise_results() {
        let c = catalog();
        let v6 = q(&c, "V6(x, y) :- Contacts(x, y, z)");
        let v7 = q(&c, "V7(x, z) :- Contacts(x, y, z)");
        let v8 = q(&c, "V8(y, z) :- Contacts(x, y, z)");
        let v2 = q(&c, "V2(x) :- Meetings(x, y)");

        // GLB({V6, V2}, {V7, V8}) = {V9, V10} (+ nothing from V2, which lives
        // on a different relation).
        let out = glb_sets(&[v6.clone(), v2.clone()], &[v7.clone(), v8.clone()]);
        assert_eq!(out.len(), 2);
        let v9 = q(&c, "V9(x) :- Contacts(x, y, z)");
        let v10 = q(&c, "V10(y) :- Contacts(x, y, z)");
        assert!(out.iter().any(|o| fdc_cq::containment::equivalent(o, &v9)));
        assert!(out.iter().any(|o| fdc_cq::containment::equivalent(o, &v10)));

        // Deduplication by equivalence: identical inputs collapse.
        let out = glb_sets(&[v6.clone(), v6.clone()], std::slice::from_ref(&v6));
        assert_eq!(out.len(), 1);

        // Disjoint relations: empty result.
        let out = glb_sets(std::slice::from_ref(&v2), std::slice::from_ref(&v8));
        assert!(out.is_empty());
    }

    #[test]
    fn multi_atom_inputs_are_rejected() {
        let c = catalog();
        let multi = q(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let v1 = q(&c, "V1(x, y) :- Meetings(x, y)");
        assert_eq!(gen_mgu(&multi, &v1), None);
        assert!(glb_singleton(&multi, &v1).is_bottom());
    }

    #[test]
    fn glb_respects_the_rewriting_order() {
        // The GLB must be rewritable from each input (it is a lower bound).
        use fdc_cq::rewriting::rewritable_from_single;
        let c = catalog();
        let views = [
            q(&c, "V3(x, y, z) :- Contacts(x, y, z)"),
            q(&c, "V6(x, y) :- Contacts(x, y, z)"),
            q(&c, "V7(x, z) :- Contacts(x, y, z)"),
            q(&c, "V8(y, z) :- Contacts(x, y, z)"),
            q(&c, "V9(x) :- Contacts(x, y, z)"),
            q(&c, "V12() :- Contacts(x, y, z)"),
        ];
        for a in &views {
            for b in &views {
                if let Glb::View(g) = glb_singleton(a, b) {
                    assert!(
                        rewritable_from_single(&g, a),
                        "GLB of {a:?} and {b:?} is not rewritable from the first input"
                    );
                    assert!(
                        rewritable_from_single(&g, b),
                        "GLB of {a:?} and {b:?} is not rewritable from the second input"
                    );
                }
            }
        }
    }
}

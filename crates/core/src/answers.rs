//! Whether a security view answers a dissected part: one positional rule.
//!
//! Security views and dissected parts are single atoms (Section 5), so
//! `{q} ⪯ {v}` — part `q` has an equivalent rewriting from view `v` — is a
//! finite, position-by-position question.  Take `q` and `v` over the same
//! relation, and count join variables as distinguished in a part (`Dissect`
//! promotes them).  Then `v` answers `q` iff, at every position `i`:
//!
//! 1. where `v` has a constant, `q` has the same constant;
//! 2. where `q` has a constant or a distinguished variable, `v` does not
//!    have an existential variable;
//! 3. where `v` repeats a term (`v_i = v_j`), `q_i = q_j`;
//! 4. where `v_i` is existential, every `j` with `q_j = q_i` has
//!    `v_j = v_i`.
//!
//! [`by_terms`] is that rule, over a boxed query's [`TermRef`]s and the
//! interned [`ITerm`] alike.  Two consequences decide most pairs without reading a
//! term; a [`Shape`] holds what they read:
//!
//! * a **projection-style** view (no constant, no repeated term, at most 64
//!   columns) answers `q` iff it exposes every position of `q` that holds a
//!   constant, a distinguished or join variable, or a repeated variable
//!   ([`Shape::needs`]);
//! * a **simple** part (no constant, no repeated term, at most 64 columns)
//!   is answered by no other view.
//!
//! So the terms are read only when a non-simple part meets a view that is
//! not projection-style.  The boxed
//! [`rewritable_from_single`](fdc_cq::rewriting::rewritable_from_single),
//! which builds the candidate rewriting and tests equivalence by
//! homomorphisms, is the reference the rule and both consequences are
//! checked against, on every single-atom pair up to arity 4 with two
//! constants (`tests/answers_rule.rs`; up to arity 5 in the optimised CI
//! build).

use fdc_cq::intern::ITerm;
use fdc_cq::{AtomRef, TermRef, Terms};

/// A term as [`by_terms`] reads it: a constant, or a variable that is
/// existential or not.  Equal terms of one atom are one term.
pub trait RuleTerm: PartialEq {
    /// True if the term is a constant.
    fn is_const(&self) -> bool;
    /// True if the term is an existential variable.
    fn is_existential(&self) -> bool;
}

impl RuleTerm for TermRef<'_> {
    fn is_const(&self) -> bool {
        TermRef::is_const(*self)
    }

    fn is_existential(&self) -> bool {
        TermRef::is_existential(*self)
    }
}

impl RuleTerm for ITerm {
    fn is_const(&self) -> bool {
        ITerm::is_const(*self)
    }

    fn is_existential(&self) -> bool {
        !ITerm::is_const(*self) && !ITerm::is_distinguished(*self)
    }
}

/// An atom's terms as [`by_terms`] reads them: their number (the atom's
/// arity), and each by position.  A slice of terms is one, and so are a
/// boxed atom's borrowed [`Terms`], so neither side is copied out to be
/// read.
pub trait RuleTerms: Copy {
    /// The term type.
    type Term: RuleTerm;
    /// Number of terms.
    fn arity(self) -> usize;
    /// Term `i`.
    fn get(self, i: usize) -> Self::Term;
}

impl<T: RuleTerm + Copy> RuleTerms for &[T] {
    type Term = T;

    fn arity(self) -> usize {
        self.len()
    }

    fn get(self, i: usize) -> T {
        self[i]
    }
}

impl<'a> RuleTerms for Terms<'a> {
    type Term = TermRef<'a>;

    fn arity(self) -> usize {
        self.len()
    }

    fn get(self, i: usize) -> TermRef<'a> {
        Terms::get(self, i)
    }
}

/// Rules 1–4: whether the view with terms `view` answers the part with
/// terms `part`, where `pinned` tells the part's constants and
/// distinguished variables (join variables included) from the rest.  Both
/// sides must be of one relation; their constants are compared by
/// equality, so interned terms must come from one interner.
pub fn by_terms<L: RuleTerms>(part: L, pinned: impl Fn(&L::Term) -> bool, view: L) -> bool {
    let n = view.arity();
    part.arity() == n
        && (0..n).all(|i| {
            let (q, v) = (part.get(i), view.get(i));
            let rule_1 = !v.is_const() || q == v;
            let rule_2 = !(v.is_existential() && pinned(&q));
            let rule_3 = (i + 1..n).all(|j| view.get(j) != v || part.get(j) == q);
            let rule_4 =
                !v.is_existential() || (0..n).all(|j| part.get(j) != q || view.get(j) == v);
            rule_1 && rule_2 && rule_3 && rule_4
        })
}

/// What the rule's two consequences read of a part or a view, without its
/// terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The positions holding a constant, a distinguished or join variable,
    /// or a variable that occurs twice: what a projection-style view must
    /// expose to answer the part.  All ones past 64 columns.
    pub needs: u64,
    /// No constant, no repeated variable, at most 64 columns.  A simple view
    /// is projection-style, and its exposed positions are its `needs`.
    pub simple: bool,
}

impl Shape {
    /// The shape of any atom past 64 columns.
    pub const WIDE: Shape = Shape {
        needs: u64::MAX,
        simple: false,
    };

    /// The shape of a boxed single atom, whose join variables, if it is a
    /// dissected part, are already distinguished.
    pub fn of(atom: AtomRef<'_>) -> Shape {
        let terms = atom.terms();
        if terms.len() > 64 {
            return Shape::WIDE;
        }
        let repeats = atom.has_repeated_vars();
        let mut needs = 0u64;
        for (i, term) in terms.iter().enumerate() {
            let repeated =
                repeats && term.is_var() && terms.iter().filter(|t| *t == term).count() > 1;
            if !term.is_existential() || repeated {
                needs |= 1 << i;
            }
        }
        Shape {
            needs,
            simple: !repeats && !atom.has_constants(),
        }
    }

    /// The exposed positions of a view of this shape, if it is
    /// projection-style.
    pub fn exposed(self) -> Option<u64> {
        self.simple.then_some(self.needs)
    }

    /// Whether a view whose exposed positions are `exposed` (`None`: not
    /// projection-style) answers a part of this shape.  `by_terms` runs
    /// rules 1–4; it is asked only when a non-simple part meets a view that
    /// is not projection-style.
    pub fn answered_by(self, exposed: Option<u64>, by_terms: impl FnOnce() -> bool) -> bool {
        match exposed {
            Some(exposed) => self.needs & !exposed == 0,
            None => !self.simple && by_terms(),
        }
    }
}

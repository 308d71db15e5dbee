//! Substitutions: partial maps from variables to terms.
//!
//! Substitutions are the workhorse of homomorphism search
//! ([`homomorphism`](crate::homomorphism)) and of the unification-based
//! `GLBSingleton` / `GenMGU` procedures implemented in `fdc-core`.

use std::collections::HashMap;

use crate::atom::{Atom, AtomRef};
use crate::term::{Term, TermRef, VarId};

/// A partial map from variables to terms.
///
/// The domain and range may belong to different queries: a homomorphism from
/// query `A` to query `B` is a substitution whose keys are variables of `A`
/// and whose values are terms of `B`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: HashMap<VarId, Term>,
}

impl Substitution {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables bound.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up the binding of a variable.
    pub fn get(&self, v: VarId) -> Option<&Term> {
        self.map.get(&v)
    }

    /// Binds `v` to `t`, returning `false` if `v` is already bound to a
    /// different term (the binding is left unchanged in that case).
    pub fn bind(&mut self, v: VarId, t: Term) -> bool {
        match self.map.get(&v) {
            Some(existing) => *existing == t,
            None => {
                self.map.insert(v, t);
                true
            }
        }
    }

    /// Removes the binding of `v` (used when backtracking).
    pub fn unbind(&mut self, v: VarId) {
        self.map.remove(&v);
    }

    /// Applies the substitution to a term.  Unbound variables are left as-is.
    pub fn apply_term(&self, t: &Term) -> Term {
        match t {
            Term::Var(v, _) => self.map.get(v).cloned().unwrap_or_else(|| t.clone()),
            Term::Const(_) => t.clone(),
        }
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, atom: AtomRef<'_>) -> Atom {
        Atom::new(
            atom.relation,
            atom.terms()
                .iter()
                .map(|t| match t {
                    TermRef::Var(v, _) => self.map.get(&v).cloned().unwrap_or_else(|| t.to_term()),
                    TermRef::Const(c) => c.to_term(),
                })
                .collect(),
        )
    }

    /// Iterates over the bindings in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &Term)> {
        self.map.iter().map(|(v, t)| (*v, t))
    }
}

impl FromIterator<(VarId, Term)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (VarId, Term)>>(iter: I) -> Self {
        Substitution {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelId;

    #[test]
    fn bind_and_lookup() {
        let mut s = Substitution::new();
        assert!(s.is_empty());
        assert!(s.bind(VarId(0), Term::dist(5)));
        assert!(s.bind(VarId(1), Term::constant("a")));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.get(VarId(0)), Some(&Term::dist(5)));
        assert_eq!(s.get(VarId(2)), None);

        // Re-binding to the same term succeeds, to a different term fails.
        assert!(s.bind(VarId(0), Term::dist(5)));
        assert!(!s.bind(VarId(0), Term::dist(6)));
        assert_eq!(s.get(VarId(0)), Some(&Term::dist(5)));

        s.unbind(VarId(0));
        assert_eq!(s.get(VarId(0)), None);
    }

    #[test]
    fn apply_leaves_unbound_variables_and_constants_alone() {
        let s: Substitution = [(VarId(0), Term::exist(9))].into_iter().collect();
        assert_eq!(s.apply_term(&Term::dist(0)), Term::exist(9));
        assert_eq!(s.apply_term(&Term::dist(1)), Term::dist(1));
        assert_eq!(s.apply_term(&Term::constant(4i64)), Term::constant(4i64));

        let atom = Atom::new(
            RelId(0),
            vec![Term::dist(0), Term::constant("k"), Term::exist(1)],
        );
        let mapped = s.apply_atom(atom.as_atom_ref());
        assert_eq!(
            *mapped.terms,
            [Term::exist(9), Term::constant("k"), Term::exist(1)]
        );
        assert_eq!(mapped.relation, RelId(0));
    }

    #[test]
    fn iteration_yields_all_bindings() {
        let s: Substitution = [(VarId(0), Term::dist(1)), (VarId(2), Term::constant(3i64))]
            .into_iter()
            .collect();
        let mut pairs: Vec<(VarId, Term)> = s.iter().map(|(v, t)| (v, t.clone())).collect();
        pairs.sort_by_key(|(v, _)| *v);
        assert_eq!(
            pairs,
            vec![(VarId(0), Term::dist(1)), (VarId(2), Term::constant(3i64))]
        );
    }
}

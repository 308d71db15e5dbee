//! Relational atoms: a relation symbol applied to a list of terms.

use std::fmt;

use crate::catalog::{Catalog, RelId};
use crate::error::{CqError, Result};
use crate::term::{Term, VarId};

/// A relational atom `R(t1, …, tn)` over the relations of a [`Catalog`],
/// owning its terms: what a caller builds a query from
/// ([`ConjunctiveQuery::from_atoms`](crate::ConjunctiveQuery::from_atoms))
/// and what a substitution maps an atom to.  A query keeps its atoms in its
/// own layout and lends each out as an [`AtomRef`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The relation this atom refers to.
    pub relation: RelId,
    /// Positional arguments, in one block of exactly their length.
    pub terms: Box<[Term]>,
}

impl Atom {
    /// Builds an atom from a relation id and its arguments.
    pub fn new(relation: RelId, terms: Vec<Term>) -> Self {
        Atom {
            relation,
            terms: terms.into_boxed_slice(),
        }
    }

    /// The atom as the borrowed view every reader takes.
    #[inline]
    pub fn as_atom_ref(&self) -> AtomRef<'_> {
        AtomRef {
            relation: self.relation,
            terms: &self.terms,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_atom_ref(), f)
    }
}

/// A relational atom `R(t1, …, tn)` as a query stores it: its relation and
/// its terms, borrowed from the query's one term slice.  Ordered, compared
/// and hashed exactly as the [`Atom`] with the same relation and terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomRef<'a> {
    /// The relation this atom refers to.
    pub relation: RelId,
    /// Positional arguments.
    pub terms: &'a [Term],
}

impl<'a> AtomRef<'a> {
    /// An owned copy of the atom.
    pub fn to_atom(self) -> Atom {
        Atom::new(self.relation, self.terms.to_vec())
    }

    /// Number of arguments.
    #[inline]
    pub fn arity(self) -> usize {
        self.terms.len()
    }

    /// Iterates over the variable ids appearing in the atom (with repeats).
    pub fn variables(self) -> impl Iterator<Item = VarId> + 'a {
        self.terms.iter().filter_map(Term::var_id)
    }

    /// True if the atom contains the given variable.
    pub fn contains_var(self, var: VarId) -> bool {
        self.variables().any(|v| v == var)
    }

    /// True if any argument is a constant.
    pub fn has_constants(self) -> bool {
        self.terms.iter().any(Term::is_const)
    }

    /// True if some variable occurs in more than one argument position.
    ///
    /// Repeated variables encode equality selections, which matter for the
    /// `GLBSingleton` corner-case check of Example 5.3 in the paper.
    pub fn has_repeated_vars(self) -> bool {
        let vars: Vec<VarId> = self.variables().collect();
        for (i, v) in vars.iter().enumerate() {
            if vars[i + 1..].contains(v) {
                return true;
            }
        }
        false
    }

    /// Checks that the atom's relation is in the catalog and its arity
    /// matches the relation's.
    pub fn validate(self, catalog: &Catalog) -> Result<()> {
        if self.relation.index() >= catalog.len() {
            return Err(CqError::UnknownRelation(format!("#{}", self.relation.0)));
        }
        let expected = catalog.arity(self.relation);
        if expected != self.arity() {
            return Err(CqError::ArityMismatch {
                relation: catalog.name(self.relation).to_owned(),
                expected,
                found: self.arity(),
            });
        }
        Ok(())
    }

    /// Renders the atom using the catalog for the relation name and the
    /// provided variable-name lookup.
    pub fn display_with<F: Fn(VarId) -> String + 'a>(
        self,
        catalog: &'a Catalog,
        var_name: F,
    ) -> impl fmt::Display + 'a {
        struct D<'a, F> {
            atom: AtomRef<'a>,
            catalog: &'a Catalog,
            var_name: F,
        }
        impl<F: Fn(VarId) -> String> fmt::Display for D<'_, F> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(", self.catalog.name(self.atom.relation))?;
                for (i, t) in self.atom.terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match t {
                        Term::Var(v, _) => write!(f, "{}", (self.var_name)(*v))?,
                        Term::Const(c) => write!(f, "{c}")?,
                    }
                }
                write!(f, ")")
            }
        }
        D {
            atom: self,
            catalog,
            var_name,
        }
    }
}

impl fmt::Display for AtomRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Constant;

    fn meetings_catalog() -> (Catalog, RelId) {
        let mut c = Catalog::new();
        let m = c.add_relation("Meetings", &["time", "person"]).unwrap();
        (c, m)
    }

    #[test]
    fn arity_and_variable_iteration() {
        let (_, m) = meetings_catalog();
        let atom = Atom::new(m, vec![Term::dist(0), Term::exist(1)]);
        let atom = atom.as_atom_ref();
        assert_eq!(atom.arity(), 2);
        let vars: Vec<VarId> = atom.variables().collect();
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
        assert!(atom.contains_var(VarId(0)));
        assert!(!atom.contains_var(VarId(2)));
        assert!(!atom.has_constants());
        assert!(!atom.has_repeated_vars());
    }

    #[test]
    fn constants_and_repeated_vars_are_detected() {
        let (_, m) = meetings_catalog();
        let with_const = Atom::new(m, vec![Term::dist(0), Term::constant("Cathy")]);
        let with_const = with_const.as_atom_ref();
        assert!(with_const.has_constants());
        assert!(!with_const.has_repeated_vars());

        let repeated = Atom::new(m, vec![Term::exist(0), Term::exist(0)]);
        let repeated = repeated.as_atom_ref();
        assert!(repeated.has_repeated_vars());
        assert!(!repeated.has_constants());
    }

    #[test]
    fn validation_checks_arity_against_catalog() {
        let (c, m) = meetings_catalog();
        let ok = Atom::new(m, vec![Term::dist(0), Term::dist(1)]);
        assert!(ok.as_atom_ref().validate(&c).is_ok());

        let bad = Atom::new(m, vec![Term::dist(0)]);
        let err = bad.as_atom_ref().validate(&c).unwrap_err();
        assert_eq!(
            err,
            CqError::ArityMismatch {
                relation: "Meetings".into(),
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn display_formats() {
        let (c, m) = meetings_catalog();
        let atom = Atom::new(
            m,
            vec![Term::dist(0), Term::Const(Constant::Str("Cathy".into()))],
        );
        // Debug-oriented Display (no catalog).
        assert_eq!(atom.to_string(), "rel#0(v0d, 'Cathy')");
        // Pretty Display with catalog and custom names.
        let pretty = atom
            .as_atom_ref()
            .display_with(&c, |v| format!("x{}", v.0))
            .to_string();
        assert_eq!(pretty, "Meetings(x0, 'Cathy')");
    }
}

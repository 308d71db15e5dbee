//! Relational atoms: a relation symbol applied to a list of terms.
//!
//! An owned [`Atom`] keeps its terms as a boxed slice of [`Term`]s.  A
//! [`ConjunctiveQuery`](crate::ConjunctiveQuery) keeps its atoms in its own
//! layout — one 4-byte word per term and a per-query constant table — and
//! lends each out as an [`AtomRef`], whose [`Terms`] decode a word into a
//! [`TermRef`] as they are read.  An owned atom lends the same view
//! ([`Atom::as_atom_ref`]), so a reader takes either alike.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::catalog::{Catalog, RelId};
use crate::error::{CqError, Result};
use crate::query::{read_u32, ConstTable};
use crate::term::{Term, TermRef, VarId};

/// A relational atom `R(t1, …, tn)` over the relations of a [`Catalog`],
/// owning its terms: what a caller builds a query from
/// ([`ConjunctiveQuery::from_atoms`](crate::ConjunctiveQuery::from_atoms))
/// and what a substitution maps an atom to.  A query keeps its atoms in its
/// own layout and lends each out as an [`AtomRef`].  `Hash` is that of
/// [`as_atom_ref`](Self::as_atom_ref).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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
            terms: Terms(Repr::Owned(&self.terms)),
        }
    }
}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_atom_ref().hash(state);
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_atom_ref(), f)
    }
}

/// The terms of an atom (or of a whole query body), borrowed from wherever
/// they lie and lent out one [`TermRef`] at a time: [`get`](Self::get),
/// [`iter`](Self::iter).  Compared, ordered and hashed as the sequence of
/// terms, whatever backs it.
#[derive(Clone, Copy)]
pub struct Terms<'a>(Repr<'a>);

/// What backs a [`Terms`].
#[derive(Clone, Copy)]
enum Repr<'a> {
    /// An owned atom's terms.
    Owned(&'a [Term]),
    /// A query's words, 4 little-endian bytes each, read through its
    /// constant table.
    Words(&'a [u8], ConstTable<'a>),
}

impl<'a> Terms<'a> {
    /// A query's words, read through its constant table.
    #[inline]
    pub(crate) fn of_words(words: &'a [u8], consts: ConstTable<'a>) -> Self {
        Terms(Repr::Words(words, consts))
    }

    /// Number of terms.
    #[inline]
    pub fn len(self) -> usize {
        match self.0 {
            Repr::Owned(terms) => terms.len(),
            Repr::Words(words, _) => words.len() / 4,
        }
    }

    /// True if there are no terms.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Term `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are at most `i` terms.
    #[inline]
    pub fn get(self, i: usize) -> TermRef<'a> {
        match self.0 {
            Repr::Owned(terms) => terms[i].as_term_ref(),
            Repr::Words(words, consts) => consts.term(read_u32(words, 4 * i)),
        }
    }

    /// The terms, in order.
    #[inline]
    pub fn iter(self) -> TermIter<'a> {
        TermIter {
            terms: self,
            front: 0,
            back: self.len(),
        }
    }

    /// Owned copies of the terms.
    pub fn to_vec(self) -> Vec<Term> {
        self.iter().map(TermRef::to_term).collect()
    }
}

impl<'a> IntoIterator for Terms<'a> {
    type Item = TermRef<'a>;
    type IntoIter = TermIter<'a>;

    #[inline]
    fn into_iter(self) -> TermIter<'a> {
        self.iter()
    }
}

impl PartialEq for Terms<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Terms<'_> {}

/// The order of the slices of the owned terms: lexicographic.
impl Ord for Terms<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Terms<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The count, then every term.
impl Hash for Terms<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for term in self.iter() {
            term.hash(state);
        }
    }
}

/// A list of the terms, as a slice of them prints.
impl fmt::Debug for Terms<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The terms of a [`Terms`], in order: [`Terms::iter`].
#[derive(Clone)]
pub struct TermIter<'a> {
    terms: Terms<'a>,
    front: usize,
    back: usize,
}

impl<'a> Iterator for TermIter<'a> {
    type Item = TermRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<TermRef<'a>> {
        (self.front < self.back).then(|| {
            self.front += 1;
            self.terms.get(self.front - 1)
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.back - self.front;
        (len, Some(len))
    }
}

impl DoubleEndedIterator for TermIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.terms.get(self.back)
        })
    }
}

impl ExactSizeIterator for TermIter<'_> {}

/// A relational atom `R(t1, …, tn)` as a reader takes it: its relation and
/// its [`Terms`], borrowed from a query's layout or from an owned [`Atom`].
/// Ordered, compared and hashed exactly as the [`Atom`] with the same
/// relation and terms, whatever backs it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomRef<'a> {
    /// The relation this atom refers to.
    pub relation: RelId,
    terms: Terms<'a>,
}

impl<'a> AtomRef<'a> {
    /// The atom over `relation` whose terms are a query's `words`, read
    /// through its constant table.
    #[inline]
    pub(crate) fn of_words(relation: RelId, words: &'a [u8], consts: ConstTable<'a>) -> Self {
        AtomRef {
            relation,
            terms: Terms::of_words(words, consts),
        }
    }

    /// Positional arguments.
    #[inline]
    pub fn terms(self) -> Terms<'a> {
        self.terms
    }

    /// Argument `i`.
    ///
    /// # Panics
    ///
    /// Panics if the atom has at most `i` arguments.
    #[inline]
    pub fn term(self, i: usize) -> TermRef<'a> {
        self.terms.get(i)
    }

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
        self.terms.iter().filter_map(TermRef::var_id)
    }

    /// True if the atom contains the given variable.
    pub fn contains_var(self, var: VarId) -> bool {
        self.variables().any(|v| v == var)
    }

    /// True if any argument is a constant.
    pub fn has_constants(self) -> bool {
        self.terms.iter().any(TermRef::is_const)
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
        validate_atom(catalog, self.relation, self.arity())
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
                        TermRef::Var(v, _) => write!(f, "{}", (self.var_name)(v))?,
                        TermRef::Const(c) => write!(f, "{c}")?,
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

/// `AtomRef { relation: .., terms: [..] }`, as an [`Atom`] prints.
impl fmt::Debug for AtomRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomRef")
            .field("relation", &self.relation)
            .field("terms", &self.terms)
            .finish()
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

/// Fails unless `relation` is in `catalog` with arity `arity`: what
/// [`AtomRef::validate`] checks of an atom.
pub(crate) fn validate_atom(catalog: &Catalog, relation: RelId, arity: usize) -> Result<()> {
    if relation.index() >= catalog.len() {
        return Err(CqError::UnknownRelation(format!("#{}", relation.0)));
    }
    let expected = catalog.arity(relation);
    if expected != arity {
        return Err(CqError::ArityMismatch {
            relation: catalog.name(relation).to_owned(),
            expected,
            found: arity,
        });
    }
    Ok(())
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

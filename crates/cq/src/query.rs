//! Conjunctive queries in the paper's tagged-variable representation.
//!
//! Section 5 of the paper works with "a modified representation of
//! conjunctive queries where we associate each query with a list of its body
//! atoms and discard the head", tagging each variable as *distinguished* or
//! *existential*.  [`ConjunctiveQuery`] is exactly that representation — the
//! atoms plus one kind per variable — and what every algorithm reads.
//!
//! Variable names are display text only, kept so a query pretty-prints in
//! the familiar `Q(x) :- R(x, y)` notation.  No labeling, decision or
//! interning step reads them, so a query keeps its whole variable table in
//! one heap block: a kind byte per variable, each name's end offset, and the
//! names back to back.  A query's variables cost one block however many it
//! has (none when it has no variables), and a clone copies that block.  The
//! header holds the variable count, so the interner's front door reads the
//! header, the atoms and their terms — a term carries its variable's kind —
//! and never the block.
//!
//! A query never changes once built, so the header also carries its
//! **canonical hash** ([`ConjunctiveQuery::shape_hash`]): the interner's hash
//! of the body with variables numbered by first occurrence and constants
//! hashed by value.  A validating constructor computes it in the walk that
//! checks the body — the first-occurrence numbering is also its record of
//! which declared variables occur — so building a query still walks the
//! body once, and allocates nothing for it with at most 64 variables.  A
//! clone copies the hash; the interner's front door reads it instead of
//! hashing the query again.
//!
//! The body costs one block for the boxed atom slice and one per atom for
//! its terms, a boxed slice of 16-byte [`Term`]s.  A string constant of at
//! most [`SmallStr::INLINE`](crate::SmallStr::INLINE) bytes lives inside its
//! term; a longer one adds two blocks (a thin box and its text).  So a
//! query of `a` atoms whose string constants are all short is `1 + a`
//! blocks plus its variable block, and a clone allocates exactly that many.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use crate::atom::Atom;
use crate::catalog::{Catalog, RelId};
use crate::error::{CqError, Result};
use crate::intern::{shape_hash, Numbering, ShapeHasher};
use crate::term::{Constant, Term, VarId, VarKind};

/// A conjunctive query: a list of body atoms with tagged variables.
///
/// Invariants maintained by the constructors:
///
/// * every variable id in `0..num_vars()` occurs in at least one atom;
/// * each variable has exactly one kind (recorded in the query and mirrored
///   by the tag on every occurrence);
/// * the body is non-empty.
///
/// Two queries are equal when their atoms, kinds and the list of their
/// variable names are equal.  The variable block is a function of that list
/// — its end offsets mark where each name stops — so `["ab", "c"]` and
/// `["a", "bc"]` differ.  The stored hash is a function of the atoms, so it
/// changes nothing about equality; it is compared first, which settles most
/// unequal pairs in one integer comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// The canonical hash of the atoms, set by every constructor.
    shape_hash: u32,
    atoms: Box<[Atom]>,
    /// The variable table in one block: one kind byte per variable, then
    /// each name's end offset (little-endian, 2 bytes, or 4 once the names
    /// total more than `u16::MAX` bytes — see
    /// [`offset_width`](Self::offset_width)), then every name back to back
    /// in id order.  Variable `i`'s name starts where `i - 1`'s ends.
    vars: Box<[u8]>,
    num_vars: u32,
}

/// A variable kind as the variable block stores it.
fn kind_byte(kind: VarKind) -> u8 {
    match kind {
        VarKind::Distinguished => 0,
        VarKind::Existential => 1,
    }
}

/// The kind a [`kind_byte`] stands for.
fn byte_kind(byte: u8) -> VarKind {
    if byte == 0 {
        VarKind::Distinguished
    } else {
        VarKind::Existential
    }
}

/// A query's variables while its constructor declares them: their kinds, and
/// their names packed back to back as the finished query stores them, so
/// building a query allocates no string per variable.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarTable {
    kinds: Vec<VarKind>,
    names: String,
    ends: Vec<u32>,
}

impl VarTable {
    /// A table of variables with these kinds and no names yet; `name_bytes`
    /// is the room [`name_next`](Self::name_next) will need.
    pub(crate) fn unnamed(kinds: Vec<VarKind>, name_bytes: usize) -> Self {
        VarTable {
            names: String::with_capacity(name_bytes),
            ends: Vec::with_capacity(kinds.len()),
            kinds,
        }
    }

    /// One variable per kind, in order, named `x0, x1, …` — the synthetic
    /// names of queries built from atoms alone.
    pub(crate) fn numbered(kinds: Vec<VarKind>) -> Self {
        let name_bytes = (0..kinds.len())
            .map(|i| 2 + i.checked_ilog10().unwrap_or(0) as usize)
            .sum();
        let mut vars = VarTable::unnamed(kinds, name_bytes);
        for i in 0..vars.len() {
            write!(vars.names, "x{i}").expect("writing to a String cannot fail");
            vars.end_name();
        }
        vars
    }

    /// A copy of `query`'s variables, to declare more after them.
    pub(crate) fn of(query: &ConjunctiveQuery) -> Self {
        VarTable {
            kinds: query.var_kinds().collect(),
            names: query.names().to_owned(),
            ends: (0..query.num_vars())
                .map(|i| query.name_end(i) as u32)
                .collect(),
        }
    }

    /// Declares a new variable; returns its id.
    pub(crate) fn push(&mut self, kind: VarKind, name: &str) -> VarId {
        self.kinds.push(kind);
        self.name_next(name);
        VarId(self.len() as u32 - 1)
    }

    /// Names the first variable that has no name yet.
    pub(crate) fn name_next(&mut self, name: &str) {
        self.names.push_str(name);
        self.end_name();
    }

    fn end_name(&mut self) {
        debug_assert!(
            self.ends.len() < self.kinds.len(),
            "more names than variables"
        );
        let end = u32::try_from(self.names.len()).expect("a query's variable names fit in 4 GiB");
        self.ends.push(end);
    }

    /// Number of declared variables.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The kind declared for `v`.
    pub(crate) fn kind(&self, v: VarId) -> VarKind {
        self.kinds[v.index()]
    }

    fn name(&self, v: VarId) -> &str {
        let i = v.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.names[start..self.ends[i] as usize]
    }

    /// The variable declared as `name`, if any.  A linear scan: a query has
    /// few variables, and their names sit in one buffer.
    pub(crate) fn find(&self, name: &str) -> Option<VarId> {
        (0..self.len() as u32)
            .map(VarId)
            .find(|&v| self.name(v) == name)
    }

    /// Checks `atoms` against the table: a non-empty body whose variables
    /// are declared with the kinds they are tagged with, and — if
    /// `every_var_used` — no declared variable missing from the body.
    /// Returns the body's canonical hash, computed in the same walk: the
    /// first-occurrence numbering the hash needs is also the record of which
    /// declared variables occur.
    fn check(&self, atoms: &[Atom], every_var_used: bool) -> Result<u32> {
        if atoms.is_empty() {
            return Err(CqError::EmptyBody);
        }
        let mut numbering = Numbering::new(self.len());
        let mut hasher = ShapeHasher::new(atoms.len());
        for atom in atoms {
            hasher.atom(atom.relation, atom.terms.len());
            for term in &atom.terms {
                if let Term::Var(v, kind) = term {
                    let Some(expected) = self.kinds.get(v.index()) else {
                        return Err(CqError::ConflictingVariableKind(format!(
                            "variable {v} is out of range"
                        )));
                    };
                    if expected != kind {
                        return Err(CqError::ConflictingVariableKind(self.name(*v).to_owned()));
                    }
                }
                hasher.term(term, &mut numbering);
            }
        }
        if every_var_used && numbering.assigned() as usize != self.len() {
            // A declared distinguished variable that never occurs in the body
            // makes the query unsafe; an unused existential variable is just
            // a builder bug.  Both are rejected.
            let unused = (0..self.len() as u32)
                .map(VarId)
                .find(|v| !numbering.is_numbered(v.0))
                .expect("fewer variables numbered than declared");
            return Err(CqError::UnsafeHeadVariable(self.name(unused).to_owned()));
        }
        Ok(hasher.finish())
    }
}

impl ConjunctiveQuery {
    /// Builds a query from parts, validating the internal invariants.
    ///
    /// `var_kinds[i]` and `var_names[i]` describe variable `VarId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `var_kinds` and `var_names` differ in length.
    pub fn from_parts(
        atoms: Vec<Atom>,
        var_kinds: Vec<VarKind>,
        var_names: Vec<String>,
    ) -> Result<Self> {
        assert_eq!(
            var_kinds.len(),
            var_names.len(),
            "var_kinds and var_names must describe the same variables"
        );
        let name_bytes = var_names.iter().map(String::len).sum();
        let mut vars = VarTable::unnamed(var_kinds, name_bytes);
        for name in &var_names {
            vars.name_next(name);
        }
        ConjunctiveQuery::from_table(atoms, vars)
    }

    /// Builds a query from atoms alone, inferring variable kinds from the
    /// tags on the terms and synthesizing names (`x0`, `x1`, …).
    ///
    /// Fails if the same variable id carries conflicting tags.
    pub fn from_atoms(atoms: Vec<Atom>) -> Result<Self> {
        if atoms.is_empty() {
            return Err(CqError::EmptyBody);
        }
        let mut kinds: HashMap<VarId, VarKind> = HashMap::new();
        let mut max_var: Option<u32> = None;
        for atom in &atoms {
            for term in &atom.terms {
                if let Term::Var(v, kind) = term {
                    match kinds.entry(*v) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if *e.get() != *kind {
                                return Err(CqError::ConflictingVariableKind(v.to_string()));
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(*kind);
                        }
                    }
                    max_var = Some(max_var.map_or(v.0, |m| m.max(v.0)));
                }
            }
        }
        let n = max_var.map_or(0, |m| m as usize + 1);
        let mut var_kinds = Vec::with_capacity(n);
        for i in 0..n {
            let v = VarId(i as u32);
            let kind = kinds.get(&v).copied().ok_or_else(|| {
                CqError::ConflictingVariableKind(format!("variable {v} has a gap in numbering"))
            })?;
            var_kinds.push(kind);
        }
        ConjunctiveQuery::from_table(atoms, VarTable::numbered(var_kinds))
    }

    /// Builds a query from atoms and the table its constructor declared the
    /// variables in, validating the invariants.
    pub(crate) fn from_table(atoms: Vec<Atom>, vars: VarTable) -> Result<Self> {
        let shape_hash = vars.check(&atoms, true)?;
        Ok(ConjunctiveQuery::freeze(atoms, vars, shape_hash))
    }

    /// Packs `vars` into the query's one variable block; `shape_hash` is
    /// the canonical hash of `atoms`.
    fn freeze(atoms: Vec<Atom>, vars: VarTable, shape_hash: u32) -> Self {
        debug_assert_eq!(vars.ends.len(), vars.kinds.len(), "every variable is named");
        let num_vars = u32::try_from(vars.len()).expect("a query has at most 2^32 variables");
        let wide_offsets = vars.names.len() > usize::from(u16::MAX);
        let width = if wide_offsets { 4 } else { 2 };
        let mut block = Vec::with_capacity(vars.len() * (1 + width) + vars.names.len());
        block.extend(vars.kinds.iter().map(|&kind| kind_byte(kind)));
        for &end in &vars.ends {
            if wide_offsets {
                block.extend_from_slice(&end.to_le_bytes());
            } else {
                let end = u16::try_from(end).expect("the names fit in u16::MAX bytes");
                block.extend_from_slice(&end.to_le_bytes());
            }
        }
        block.extend_from_slice(vars.names.as_bytes());
        ConjunctiveQuery {
            shape_hash,
            atoms: atoms.into_boxed_slice(),
            vars: block.into_boxed_slice(),
            num_vars,
        }
    }

    /// The variable block's kind bytes, one per variable.
    fn kind_bytes(&self) -> &[u8] {
        &self.vars[..self.num_vars()]
    }

    /// Bytes per end offset in the variable block, which follows from the
    /// block's length: with 2-byte offsets the block is `3 n` bytes plus the
    /// names, which total at most `u16::MAX` bytes; with 4-byte offsets it
    /// is `3 n` bytes plus the names plus `2 n`, and the names alone total
    /// more than that.
    fn offset_width(&self) -> usize {
        if self.vars.len() - 3 * self.num_vars() > usize::from(u16::MAX) {
            4
        } else {
            2
        }
    }

    /// Where variable `i`'s name ends, counted from the first name's start.
    fn name_end(&self, i: usize) -> usize {
        let width = self.offset_width();
        let at = self.num_vars() + i * width;
        let bytes = &self.vars[at..at + width];
        if width == 4 {
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
        } else {
            usize::from(u16::from_le_bytes([bytes[0], bytes[1]]))
        }
    }

    /// The variable block's name bytes: every name, back to back in id order.
    fn name_bytes(&self) -> &[u8] {
        &self.vars[self.num_vars() * (1 + self.offset_width())..]
    }

    /// Every variable's name, back to back in id order.
    fn names(&self) -> &str {
        std::str::from_utf8(self.name_bytes()).expect("variable names are UTF-8")
    }

    /// The body atoms.
    #[inline]
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of body atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The query's canonical hash: the body hashed with its variables
    /// numbered by first occurrence and its constants by value, so
    /// alpha-variants hash alike.  It is what
    /// [`QueryInterner`](crate::intern::QueryInterner) probes its dedup
    /// table with, and equals
    /// [`QueryInterner::shape_hash`](crate::intern::QueryInterner::shape_hash)
    /// of the id the query interns to.  Computed once, when the query is
    /// built; reading it costs nothing.
    #[inline]
    pub fn shape_hash(&self) -> u32 {
        self.shape_hash
    }

    /// The query with its stored hash replaced by `hash`, to force probe
    /// collisions in tests.
    #[cfg(test)]
    pub(crate) fn with_shape_hash(mut self, hash: u32) -> Self {
        self.shape_hash = hash;
        self
    }

    /// The kind (distinguished / existential) of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to this query.
    #[inline]
    pub fn var_kind(&self, v: VarId) -> VarKind {
        byte_kind(self.kind_bytes()[v.index()])
    }

    /// The name of a variable (used only for display).
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to this query.
    #[inline]
    pub fn var_name(&self, v: VarId) -> &str {
        let i = v.index();
        assert!(
            i < self.num_vars(),
            "variable {v} is not one of the query's {} variables",
            self.num_vars()
        );
        let start = if i == 0 { 0 } else { self.name_end(i - 1) };
        std::str::from_utf8(&self.name_bytes()[start..self.name_end(i)])
            .expect("a variable name is UTF-8")
    }

    /// All variable kinds, in variable id order.
    #[inline]
    pub fn var_kinds(&self) -> impl ExactSizeIterator<Item = VarKind> + '_ {
        self.kind_bytes().iter().map(|&byte| byte_kind(byte))
    }

    /// Iterates over the distinguished variables in id order.
    pub fn distinguished_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars_of_kind(VarKind::Distinguished)
    }

    /// Iterates over the existential variables in id order.
    pub fn existential_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars_of_kind(VarKind::Existential)
    }

    fn vars_of_kind(&self, kind: VarKind) -> impl Iterator<Item = VarId> + '_ {
        self.var_kinds()
            .enumerate()
            .filter(move |&(_, k)| k == kind)
            .map(|(i, _)| VarId(i as u32))
    }

    /// True if the query has a single body atom.
    #[inline]
    pub fn is_single_atom(&self) -> bool {
        self.atoms.len() == 1
    }

    /// True if the query has no distinguished variables (a boolean query).
    pub fn is_boolean(&self) -> bool {
        self.var_kinds().all(|k| k.is_existential())
    }

    /// The set of relations referenced by the body, deduplicated, in first
    /// occurrence order.
    pub fn relations_used(&self) -> Vec<RelId> {
        let mut out = Vec::new();
        for atom in &self.atoms {
            if !out.contains(&atom.relation) {
                out.push(atom.relation);
            }
        }
        out
    }

    /// Counts how many atoms reference each variable.
    ///
    /// Used by `Dissect` to find join variables (existential variables that
    /// appear in at least two atoms must be promoted to distinguished).
    pub fn atoms_per_variable(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_vars()];
        for atom in &self.atoms {
            let mut seen_in_atom = vec![false; self.num_vars()];
            for v in atom.variables() {
                if !seen_in_atom[v.index()] {
                    seen_in_atom[v.index()] = true;
                    counts[v.index()] += 1;
                }
            }
        }
        counts
    }

    /// Validates every atom's arity against a catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for atom in &self.atoms {
            atom.validate(catalog)?;
        }
        Ok(())
    }

    /// Renders the query in datalog notation using the catalog for relation
    /// names, e.g. `Q(x, y) :- Meetings(x, y)`.
    ///
    /// The head lists the distinguished variables in order of first
    /// occurrence in the body, which is how the paper's examples are written.
    pub fn display_with<'a>(&'a self, catalog: &'a Catalog) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            catalog,
            head_name: "Q",
        }
    }

    /// Like [`display_with`](Self::display_with) with an explicit head name.
    pub fn display_named<'a>(
        &'a self,
        catalog: &'a Catalog,
        head_name: &'a str,
    ) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            catalog,
            head_name,
        }
    }

    /// The distinguished variables in order of first occurrence in the body.
    pub fn head_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if self.var_kind(v).is_distinguished() && !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Builds a query from atoms and a variable table without requiring
    /// every declared variable to occur in the body.
    ///
    /// Used internally by the rewriting machinery: the *expansion* of a
    /// candidate rewriting lives in the variable space of the original query
    /// plus fresh existential variables, and some of the original query's
    /// existential variables may simply not occur in it.  Kind consistency is
    /// still enforced.
    pub(crate) fn from_table_allowing_unused(atoms: Vec<Atom>, vars: VarTable) -> Result<Self> {
        let shape_hash = vars.check(&atoms, false)?;
        Ok(ConjunctiveQuery::freeze(atoms, vars, shape_hash))
    }

    /// Returns a copy of the query with a different set of atoms but the same
    /// variable table, hashing the new atoms.  Intended for algorithms
    /// (folding, dissection) that drop or alter atoms; the caller must
    /// ensure every surviving variable still occurs in the body.
    pub(crate) fn with_atoms_unchecked(&self, atoms: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            shape_hash: shape_hash(&atoms, self.num_vars()),
            atoms: atoms.into_boxed_slice(),
            vars: self.vars.clone(),
            num_vars: self.num_vars,
        }
    }
}

/// Prints the kinds and names as lists, not as the variable block:
/// `ConjunctiveQuery { atoms: [..], var_kinds: [..], var_names: [..] }`.
impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds: Vec<VarKind> = self.var_kinds().collect();
        let names: Vec<&str> = (0..self.num_vars())
            .map(|i| self.var_name(VarId(i as u32)))
            .collect();
        f.debug_struct("ConjunctiveQuery")
            .field("atoms", &self.atoms)
            .field("var_kinds", &kinds)
            .field("var_names", &names)
            .finish()
    }
}

/// Pretty-printer returned by [`ConjunctiveQuery::display_with`].
pub struct QueryDisplay<'a> {
    query: &'a ConjunctiveQuery,
    catalog: &'a Catalog,
    head_name: &'a str,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = self.query;
        write!(f, "{}(", self.head_name)?;
        for (i, v) in q.head_vars().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", q.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in q.atoms().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}",
                atom.display_with(self.catalog, |v| q.var_name(v).to_owned())
            )?;
        }
        Ok(())
    }
}

/// Argument passed to [`QueryBuilder::atom`]: a previously declared variable
/// or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// A variable declared with [`QueryBuilder::dvar`] or [`QueryBuilder::evar`].
    Var(VarId),
    /// A constant value.
    Const(Constant),
}

impl From<VarId> for Arg {
    fn from(v: VarId) -> Self {
        Arg::Var(v)
    }
}

impl From<Constant> for Arg {
    fn from(c: Constant) -> Self {
        Arg::Const(c)
    }
}

impl From<&str> for Arg {
    fn from(s: &str) -> Self {
        Arg::Const(Constant::str(s))
    }
}

impl From<i64> for Arg {
    fn from(i: i64) -> Self {
        Arg::Const(Constant::int(i))
    }
}

/// Incremental builder for [`ConjunctiveQuery`] values.
///
/// # Example
///
/// ```
/// use fdc_cq::{Catalog, query::QueryBuilder};
///
/// let catalog = Catalog::paper_example();
/// let meetings = catalog.resolve("Meetings").unwrap();
/// let contacts = catalog.resolve("Contacts").unwrap();
///
/// // Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')
/// let mut b = QueryBuilder::new();
/// let x = b.dvar("x");
/// let y = b.evar("y");
/// let w = b.evar("w");
/// b.atom(meetings, [x.into(), y.into()]);
/// b.atom(contacts, [y.into(), w.into(), "Intern".into()]);
/// let q2 = b.build().unwrap();
///
/// assert_eq!(q2.num_atoms(), 2);
/// assert_eq!(q2.display_with(&catalog).to_string(),
///            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
/// ```
#[derive(Debug, Default, Clone)]
pub struct QueryBuilder {
    atoms: Vec<Atom>,
    vars: VarTable,
    /// The first variable re-declared with the other kind, reported by
    /// [`build`](Self::build).
    conflict: Option<VarId>,
}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, kind: VarKind) -> VarId {
        match self.vars.find(name) {
            Some(existing) => {
                // Re-declaring with the same kind returns the same variable.
                // A re-declaration with the other kind also returns it, keeping
                // the original kind, and makes build() fail with
                // ConflictingVariableKind.
                if self.vars.kind(existing) != kind && self.conflict.is_none() {
                    self.conflict = Some(existing);
                }
                existing
            }
            None => self.vars.push(kind, name),
        }
    }

    /// Declares (or returns the existing) distinguished variable `name`.
    pub fn dvar(&mut self, name: &str) -> VarId {
        self.declare(name, VarKind::Distinguished)
    }

    /// Declares (or returns the existing) existential variable `name`.
    pub fn evar(&mut self, name: &str) -> VarId {
        self.declare(name, VarKind::Existential)
    }

    /// Returns the kind currently recorded for a variable.
    pub fn kind_of(&self, v: VarId) -> VarKind {
        self.vars.kind(v)
    }

    /// Appends a body atom.
    pub fn atom<I>(&mut self, relation: RelId, args: I) -> &mut Self
    where
        I: IntoIterator<Item = Arg>,
    {
        let terms = args
            .into_iter()
            .map(|arg| match arg {
                Arg::Var(v) => Term::Var(v, self.vars.kind(v)),
                Arg::Const(c) => Term::Const(c),
            })
            .collect();
        self.atoms.push(Atom::new(relation, terms));
        self
    }

    /// Finalizes the query.
    ///
    /// Fails with [`CqError::ConflictingVariableKind`] if a name was declared
    /// both distinguished and existential.
    pub fn build(self) -> Result<ConjunctiveQuery> {
        if let Some(v) = self.conflict {
            return Err(CqError::ConflictingVariableKind(
                self.vars.name(v).to_owned(),
            ));
        }
        ConjunctiveQuery::from_table(self.atoms, self.vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    #[test]
    fn builder_constructs_paper_query_q1() {
        // Q1(x) :- Meetings(x, 'Cathy')
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let mut b = QueryBuilder::new();
        let x = b.dvar("x");
        b.atom(m, [x.into(), "Cathy".into()]);
        let q1 = b.build().unwrap();
        assert_eq!(q1.num_atoms(), 1);
        assert_eq!(q1.num_vars(), 1);
        assert!(q1.is_single_atom());
        assert!(!q1.is_boolean());
        assert_eq!(q1.var_kind(x), VarKind::Distinguished);
        assert_eq!(
            q1.display_with(&c).to_string(),
            "Q(x) :- Meetings(x, 'Cathy')"
        );
        assert_eq!(
            q1.display_named(&c, "Q1").to_string(),
            "Q1(x) :- Meetings(x, 'Cathy')"
        );
        assert!(q1.validate(&c).is_ok());
    }

    #[test]
    fn builder_reuses_variables_by_name() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let mut b = QueryBuilder::new();
        let x1 = b.dvar("x");
        let x2 = b.dvar("x");
        assert_eq!(x1, x2);
        b.atom(m, [x1.into(), x2.into()]);
        let q = b.build().unwrap();
        assert_eq!(q.num_vars(), 1);
        assert!(q.atoms()[0].has_repeated_vars());
    }

    #[test]
    fn builder_rejects_a_conflicting_redeclaration() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        for distinguished_first in [true, false] {
            let mut b = QueryBuilder::new();
            let (x, again) = if distinguished_first {
                (b.dvar("x"), b.evar("x"))
            } else {
                (b.evar("x"), b.dvar("x"))
            };
            assert_eq!(x, again);
            let y = b.evar("y");
            b.atom(m, [x.into(), y.into()]);
            b.atom(m, [again.into(), y.into()]);
            assert_eq!(
                b.build().unwrap_err(),
                CqError::ConflictingVariableKind("x".into())
            );
        }
    }

    #[test]
    fn name_boundaries_are_part_of_identity() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn hash(q: &ConjunctiveQuery) -> u64 {
            let mut h = DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        }
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let named = |a: &str, b: &str| {
            ConjunctiveQuery::from_parts(
                vec![Atom::new(m, vec![Term::dist(0), Term::exist(1)])],
                vec![VarKind::Distinguished, VarKind::Existential],
                vec![a.to_owned(), b.to_owned()],
            )
            .unwrap()
        };
        // The padding takes the names past 64 KiB: both offset widths.
        for (pad, width) in [(String::new(), 2), ("z".repeat(1 << 16), 4)] {
            for ((a1, b1), (a2, b2)) in [(("ab", "c"), ("a", "bc")), (("", "a"), ("a", ""))] {
                let (b1, b2) = (format!("{b1}{pad}"), format!("{b2}{pad}"));
                let (p, q) = (named(a1, &b1), named(a2, &b2));
                assert_eq!((p.offset_width(), q.offset_width()), (width, width));
                assert_ne!(p, q, "{a1:?},{b1:?} vs {a2:?},{b2:?}");
                assert_ne!(hash(&p), hash(&q));
                assert_eq!((p.var_name(VarId(0)), p.var_name(VarId(1))), (a1, &*b1));
                for same in [p.clone(), named(a1, &b1)] {
                    assert_eq!(same, p);
                    assert_eq!(hash(&same), hash(&p));
                }
            }
        }
    }

    /// Builds `Q(names[0], names[2], …) :- Meetings(names[0], names[1]),
    /// Meetings(names[2], names[3]), …` from `from_parts`, the even
    /// variables distinguished and the odd ones existential.
    fn query_named(names: &[String]) -> ConjunctiveQuery {
        let m = catalog().resolve("Meetings").unwrap();
        let atoms = (0..names.len() as u32 / 2)
            .map(|i| Atom::new(m, vec![Term::dist(2 * i), Term::exist(2 * i + 1)]))
            .collect();
        let kinds = (0..names.len())
            .map(|i| {
                if i % 2 == 0 {
                    VarKind::Distinguished
                } else {
                    VarKind::Existential
                }
            })
            .collect();
        ConjunctiveQuery::from_parts(atoms, kinds, names.to_vec()).unwrap()
    }

    #[test]
    fn long_and_multibyte_names_round_trip() {
        use crate::wire::{decode_query, encode_query};
        use fdc_durability::codec::Cursor;

        let c = catalog();
        let long = "é".repeat(20_000) + "ß";
        // The offset width follows from the block length: 2 bytes up to
        // exactly `u16::MAX` name bytes, 4 from one byte past that.
        let max = usize::from(u16::MAX);
        let cases: [(Vec<String>, usize); 5] = [
            (vec!["né".into(), "日本".into(), "x🦀".into(), "".into()], 2),
            (vec![long.clone(), "y".into(), "z".into(), long.clone()], 4),
            (vec!["a".repeat(max), "".into()], 2),
            (vec!["a".repeat(max - 1), "é".into()], 4),
            (vec!["a".repeat(max), "".into(), "".into(), "b".into()], 4),
        ];
        for (names, width) in cases {
            let q = query_named(&names);
            assert_eq!(q.offset_width(), width, "{} name bytes", q.names().len());
            for (i, name) in names.iter().enumerate() {
                assert_eq!(q.var_name(VarId(i as u32)), name);
            }
            let clone = q.clone();
            assert_eq!(clone, q);
            let mut bytes = Vec::new();
            encode_query(&q, &mut bytes);
            let mut cursor = Cursor::new(&bytes);
            let decoded = decode_query(&mut cursor).unwrap();
            cursor.expect_end().unwrap();
            assert_eq!(decoded, q);
            let atoms: Vec<String> = names
                .chunks(2)
                .map(|pair| format!("Meetings({}, {})", pair[0], pair[1]))
                .collect();
            let head: Vec<&str> = names.iter().step_by(2).map(String::as_str).collect();
            let display = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
            let debug = format!("var_names: {names:?} }}");
            for copy in [&q, &clone, &decoded] {
                assert_eq!(copy.display_with(&c).to_string(), display);
                assert!(format!("{copy:?}").ends_with(&debug));
            }
        }
    }

    #[test]
    fn a_query_without_variables_owns_no_variable_block() {
        let mut c = Catalog::new();
        let r = c.add_relation("R", &["a"]).unwrap();
        let mut b = QueryBuilder::new();
        b.atom(r, ["a".into()]);
        let q = b.build().unwrap();
        assert_eq!((q.num_vars(), q.var_kinds().len()), (0, 0));
        assert!(q.vars.is_empty(), "{:?}", q.vars);
        assert!(q.clone().vars.is_empty());
        assert_eq!(q.display_with(&c).to_string(), "Q() :- R('a')");
    }

    #[test]
    fn debug_lists_the_names() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let q = ConjunctiveQuery::from_parts(
            vec![Atom::new(m, vec![Term::dist(0), Term::exist(1)])],
            vec![VarKind::Distinguished, VarKind::Existential],
            vec!["x".to_owned(), "né".to_owned()],
        )
        .unwrap();
        let debug = format!("{q:?}");
        assert!(debug.starts_with("ConjunctiveQuery { atoms: ["), "{debug}");
        assert!(
            debug.ends_with(r#"var_kinds: [Distinguished, Existential], var_names: ["x", "né"] }"#),
            "{debug}"
        );
    }

    #[test]
    fn empty_body_is_rejected() {
        let b = QueryBuilder::new();
        assert_eq!(b.build().unwrap_err(), CqError::EmptyBody);
        assert_eq!(
            ConjunctiveQuery::from_atoms(vec![]).unwrap_err(),
            CqError::EmptyBody
        );
    }

    #[test]
    fn unused_variable_is_rejected() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let mut b = QueryBuilder::new();
        let x = b.dvar("x");
        let _unused = b.dvar("ghost");
        b.atom(m, [x.into(), x.into()]);
        let err = b.build().unwrap_err();
        assert_eq!(err, CqError::UnsafeHeadVariable("ghost".into()));
    }

    #[test]
    fn conflicting_kinds_are_rejected() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        // Construct atoms manually with inconsistent tags for VarId(0).
        let atoms = vec![
            Atom::new(m, vec![Term::dist(0), Term::exist(1)]),
            Atom::new(m, vec![Term::exist(0), Term::exist(1)]),
        ];
        let err = ConjunctiveQuery::from_atoms(atoms).unwrap_err();
        assert!(matches!(err, CqError::ConflictingVariableKind(_)));
    }

    #[test]
    fn from_atoms_infers_kinds_and_names() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let q =
            ConjunctiveQuery::from_atoms(vec![Atom::new(m, vec![Term::dist(0), Term::exist(1)])])
                .unwrap();
        assert_eq!(q.num_vars(), 2);
        assert_eq!(q.var_kind(VarId(0)), VarKind::Distinguished);
        assert_eq!(q.var_kind(VarId(1)), VarKind::Existential);
        assert_eq!(q.var_name(VarId(0)), "x0");
        assert_eq!(q.display_with(&c).to_string(), "Q(x0) :- Meetings(x0, x1)");
    }

    #[test]
    fn variable_iterators_and_counts() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let k = c.resolve("Contacts").unwrap();
        // Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')
        let mut b = QueryBuilder::new();
        let x = b.dvar("x");
        let y = b.evar("y");
        let w = b.evar("w");
        b.atom(m, [x.into(), y.into()]);
        b.atom(k, [y.into(), w.into(), "Intern".into()]);
        let q = b.build().unwrap();

        assert_eq!(q.distinguished_vars().collect::<Vec<_>>(), vec![x]);
        assert_eq!(q.existential_vars().collect::<Vec<_>>(), vec![y, w]);
        assert_eq!(q.relations_used(), vec![m, k]);
        // x occurs in 1 atom, y in 2 (it is the join variable), w in 1.
        assert_eq!(q.atoms_per_variable(), vec![1, 2, 1]);
        assert_eq!(q.head_vars(), vec![x]);
        assert!(!q.is_boolean());
        assert!(!q.is_single_atom());
    }

    #[test]
    fn boolean_query_detection() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let mut b = QueryBuilder::new();
        let x = b.evar("x");
        let y = b.evar("y");
        b.atom(m, [x.into(), y.into()]);
        let v5 = b.build().unwrap();
        assert!(v5.is_boolean());
        assert_eq!(v5.display_with(&c).to_string(), "Q() :- Meetings(x, y)");
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let mut b = QueryBuilder::new();
        let x = b.dvar("x");
        b.atom(m, [x.into()]);
        let q = b.build().unwrap();
        assert!(matches!(q.validate(&c), Err(CqError::ArityMismatch { .. })));
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(Arg::from(VarId(1)), Arg::Var(VarId(1)));
        assert_eq!(Arg::from("a"), Arg::Const(Constant::str("a")));
        assert_eq!(Arg::from(7i64), Arg::Const(Constant::int(7)));
        assert_eq!(Arg::from(Constant::int(3)), Arg::Const(Constant::int(3)));
    }
}

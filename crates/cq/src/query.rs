//! Conjunctive queries in the paper's tagged-variable representation.
//!
//! Section 5 of the paper works with "a modified representation of
//! conjunctive queries where we associate each query with a list of its body
//! atoms and discard the head", tagging each variable as *distinguished* or
//! *existential*.  [`ConjunctiveQuery`] is exactly that representation — the
//! atoms plus one kind per variable — and what every algorithm reads.
//!
//! A query is a 40-byte header and two heap blocks:
//!
//! * the **term slice**: every atom's terms back to back, one 4-byte word
//!   each, laid out as the interner's [`ITerm`](crate::intern::ITerm): a
//!   variable's word is its id and its kind bit, a constant's word its index
//!   in the query's constant table;
//! * the **meta block**: the atom count, then per atom its relation and the
//!   end of its terms in the term slice (4 bytes little-endian each), then
//!   the variable table — a kind byte per variable, each name's end offset,
//!   and the names back to back — and last, if the query has constants, the
//!   **constant table**: each distinct constant once, in first-occurrence
//!   order, as a tag byte and the integer (8 bytes) or the UTF-8 text, then
//!   each entry's end offset and the entry count (4 bytes each).
//!
//! A constant of any length thus costs no block of its own, and a repeated
//! one is stored once.  So a query owns exactly two blocks, however many
//! atoms, variables and constants it has, and a clone allocates exactly
//! those two.  Every constructor writes the constant table the same way, so
//! equal queries have equal blocks, which is what the derived `Eq` and
//! `Hash` compare.
//!
//! [`atoms`](ConjunctiveQuery::atoms) lends each atom out as an
//! [`AtomRef`]: its relation and its words, read through the constant table
//! as [`TermRef`]s that carry each constant's *value*.  No index into a
//! constant table ever leaves its query.
//!
//! Variable names are display text only, kept so a query pretty-prints in
//! the familiar `Q(x) :- R(x, y)` notation.  No labeling, decision or
//! interning step reads them.  The header holds the variable count, so the
//! interner's front door reads the header, the atom table and the words
//! (and the constant table for a constant), and never the variable table.
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

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use crate::atom::{Atom, AtomRef, Terms};
use crate::catalog::{Catalog, RelId};
use crate::error::{CqError, Result};
use crate::intern::{constant_hash, find_slot, vacant_slot, Numbering, ShapeHasher, EMPTY_SLOT};
use crate::term::word::{self, Word};
use crate::term::{ConstRef, Constant, Term, TermRef, VarId, VarKind};

/// Bytes of the meta block's atom count.
const COUNT_BYTES: usize = 4;

/// Bytes per atom in the meta block's atom table: its relation, then the
/// end of its terms.
const ENTRY_BYTES: usize = 8;

/// Set in the header's variable count when the meta block ends with a
/// constant table.  A word holds a 30-bit variable id, so the count never
/// reaches this bit.
const HAS_CONSTS: u32 = 1 << 31;

/// The constant table's tag bytes.
const CONST_INT: u8 = 0;
const CONST_STR: u8 = 1;

/// The little-endian `u32` at `at`.
#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

/// The constant table entry of `constant`: its tag, then the integer's 8
/// little-endian bytes or the text.
fn put_entry(out: &mut Vec<u8>, constant: ConstRef<'_>) {
    match constant {
        ConstRef::Int(i) => {
            out.push(CONST_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ConstRef::Str(s) => {
            out.push(CONST_STR);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// True if `entry` is the entry of `constant`, compared as bytes.
fn entry_is(entry: &[u8], constant: ConstRef<'_>) -> bool {
    match constant {
        ConstRef::Int(i) => entry[0] == CONST_INT && entry[1..] == i.to_le_bytes(),
        ConstRef::Str(s) => entry[0] == CONST_STR && &entry[1..] == s.as_bytes(),
    }
}

/// A query's constant table, borrowed: the entries back to back, and each
/// entry's end offset (little-endian `u32`s).  Empty for a query without
/// constants.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConstTable<'a> {
    entries: &'a [u8],
    ends: &'a [u8],
}

impl<'a> ConstTable<'a> {
    /// Number of distinct constants.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.ends.len() / 4
    }

    /// The bytes of entry `index`: its tag, then its value.
    #[inline]
    fn entry(self, index: u32) -> &'a [u8] {
        let k = index as usize;
        let start = if k == 0 {
            0
        } else {
            read_u32(self.ends, 4 * (k - 1)) as usize
        };
        &self.entries[start..read_u32(self.ends, 4 * k) as usize]
    }

    /// The constant at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the table holds no constant at `index`.
    #[inline]
    pub(crate) fn get(self, index: u32) -> ConstRef<'a> {
        let entry = self.entry(index);
        if entry[0] == CONST_INT {
            ConstRef::Int(i64::from_le_bytes(
                entry[1..]
                    .try_into()
                    .expect("an integer entry holds 8 bytes"),
            ))
        } else {
            ConstRef::Str(std::str::from_utf8(&entry[1..]).expect("a string entry is UTF-8"))
        }
    }

    /// True if the constant at `index` is `constant`, compared as bytes
    /// (without `get`'s UTF-8 check).
    #[inline]
    pub(crate) fn is(self, index: u32, constant: &Constant) -> bool {
        entry_is(self.entry(index), constant.as_const_ref())
    }

    /// The term a word of this table's query stands for.
    #[inline]
    pub(crate) fn term(self, word: u32) -> TermRef<'a> {
        match word::get(word) {
            Word::Var(v, kind) => TermRef::Var(v, kind),
            Word::Const(index) => TermRef::Const(self.get(index)),
        }
    }
}

/// The constant table of a query under construction: its distinct
/// constants in first-occurrence order, laid out as the finished query's
/// meta block ends.
#[derive(Debug, Default, Clone)]
struct ConstTableBuilder {
    entries: Vec<u8>,
    ends: Vec<u8>,
    /// An open-addressed table of the constants' indices under
    /// [`constant_hash`], at most half full, so a body of many distinct
    /// constants is laid out in linear time; empty before the first.
    index: Vec<u32>,
}

impl ConstTableBuilder {
    fn table(&self) -> ConstTable<'_> {
        ConstTable {
            entries: &self.entries,
            ends: &self.ends,
        }
    }

    /// Bytes of the packed table: entries, end offsets and count.
    fn block_len(&self) -> usize {
        if self.ends.is_empty() {
            0
        } else {
            self.entries.len() + self.ends.len() + 4
        }
    }

    /// Re-indexes the table's constants in an index of `slots` slots, a
    /// power of two at least twice their number.
    fn reindex(&mut self, slots: usize) {
        let table = self.table();
        let mut index = vec![EMPTY_SLOT; slots];
        for k in 0..table.len() as u32 {
            let slot = vacant_slot(&index, constant_hash(table.get(k)));
            index[slot] = k;
        }
        self.index = index;
    }

    /// The index of `constant`, added to the table on first sight.
    ///
    /// # Panics
    ///
    /// Panics on the 2³¹-th distinct constant, which no word can index,
    /// and once the entries total 4 GiB.
    fn add(&mut self, constant: ConstRef<'_>) -> u32 {
        let table = self.table();
        let hash = constant_hash(constant);
        let slot = match find_slot(&self.index, hash, |k| entry_is(table.entry(k), constant)) {
            Ok(index) => return index,
            Err(slot) => slot,
        };
        let index = table.len();
        assert!(
            index <= word::MAX_CONST as usize,
            "a query holds 2^31 distinct constants; a word cannot index another"
        );
        put_entry(&mut self.entries, constant);
        let end = u32::try_from(self.entries.len()).expect("a query's constants fit in 4 GiB");
        self.ends.extend_from_slice(&end.to_le_bytes());
        let len = index + 1;
        if len * 2 > self.index.len() {
            self.reindex((len * 2).next_power_of_two());
        } else {
            self.index[slot] = index as u32;
        }
        index as u32
    }

    /// Appends the packed table: the entries, their end offsets, their
    /// count.
    fn write_block(&self, out: &mut Vec<u8>) {
        if self.ends.is_empty() {
            return;
        }
        out.extend_from_slice(&self.entries);
        out.extend_from_slice(&self.ends);
        out.extend_from_slice(&(self.table().len() as u32).to_le_bytes());
    }
}

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
/// variable names are equal.  The meta block is a function of the atoms'
/// relations, arities and constants and of that list — its end offsets
/// mark where each name stops — so `["ab", "c"]` and `["a", "bc"]` differ.
/// The stored hash is a function of the atoms, so it changes nothing about
/// equality; it is compared first, which settles most unequal pairs in one
/// integer comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// The canonical hash of the atoms, set by every constructor.
    shape_hash: u32,
    /// The variable count, with [`HAS_CONSTS`] set if the meta block ends
    /// with a constant table.
    vars: u32,
    /// The atom count, then per atom its relation and the end of its terms
    /// in `terms` (little-endian `u32`s), then the variable table: one kind
    /// byte per variable, then each name's end offset (little-endian, 2
    /// bytes, or 4 once the names total more than `u16::MAX` bytes — see
    /// [`offset_width`](Self::offset_width)), then every name back to back
    /// in id order.  Atom `i`'s terms start where `i - 1`'s end, and so do
    /// variable `i`'s name bytes.  Then, under [`HAS_CONSTS`], the constant
    /// table: the entries back to back, each entry's end offset and the
    /// entry count (little-endian `u32`s).
    meta: Box<[u8]>,
    /// Every atom's terms, back to back in atom order, one word each
    /// ([`word`]).
    terms: Box<[u32]>,
}

/// A variable kind as the variable table stores it.
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

    /// Bytes per name end offset once packed: 2 while the names fit in
    /// `u16::MAX` bytes, 4 past that.
    fn offset_width(&self) -> usize {
        if self.names.len() > usize::from(u16::MAX) {
            4
        } else {
            2
        }
    }

    /// Bytes of the packed table: [`write_block`](Self::write_block)'s
    /// output.
    pub(crate) fn block_len(&self) -> usize {
        self.len() * (1 + self.offset_width()) + self.names.len()
    }

    /// Appends the table as the meta block stores it: the kind bytes, the
    /// name end offsets, the names.
    fn write_block(&self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.ends.len(), self.kinds.len(), "every variable is named");
        out.extend(self.kinds.iter().map(|&kind| kind_byte(kind)));
        let wide = self.offset_width() == 4;
        for &end in &self.ends {
            if wide {
                out.extend_from_slice(&end.to_le_bytes());
            } else {
                let end = u16::try_from(end).expect("the names fit in u16::MAX bytes");
                out.extend_from_slice(&end.to_le_bytes());
            }
        }
        out.extend_from_slice(self.names.as_bytes());
    }
}

/// A query body while its constructor lays it out, already as the finished
/// query stores it: every term's word back to back, the head of the meta
/// block — the atom count, then per atom its relation and term end — and
/// the constant table.  Sized up front
/// ([`with_capacity`](Self::with_capacity)), a body without constants
/// becomes the query's blocks without a copy.
#[derive(Debug, Default, Clone)]
pub(crate) struct Body {
    terms: Vec<u32>,
    /// Empty until the first atom ends or a capacity is given.
    meta: Vec<u8>,
    consts: ConstTableBuilder,
}

impl Body {
    /// An empty body with room for `num_atoms` atoms of `num_terms` terms in
    /// all, followed by a variable table of `var_bytes` bytes.
    pub(crate) fn with_capacity(num_atoms: usize, num_terms: usize, var_bytes: usize) -> Self {
        let mut meta = Vec::with_capacity(COUNT_BYTES + ENTRY_BYTES * num_atoms + var_bytes);
        meta.extend_from_slice(&0u32.to_le_bytes());
        Body {
            terms: Vec::with_capacity(num_terms),
            meta,
            consts: ConstTableBuilder::default(),
        }
    }

    /// Makes room in the constant table for up to `count` constants whose
    /// values total `value_bytes` bytes, so entering them grows no buffer.
    pub(crate) fn reserve_consts(&mut self, count: usize, value_bytes: usize) {
        if count > 0 {
            self.consts.entries.reserve_exact(count + value_bytes);
            self.consts.ends.reserve_exact(4 * count);
            self.consts.reindex((count * 2).next_power_of_two());
        }
    }

    /// `atoms` laid out, with room for a variable table of `var_bytes`
    /// bytes.  Fails on a variable id wider than a word holds.
    pub(crate) fn of_atoms(atoms: &[Atom], var_bytes: usize) -> Result<Self> {
        let num_terms = atoms.iter().map(|atom| atom.terms.len()).sum();
        let mut body = Body::with_capacity(atoms.len(), num_terms, var_bytes);
        for atom in atoms {
            for term in atom.terms.iter() {
                if let Term::Var(v, _) = term {
                    if v.0 > word::MAX_VAR {
                        return Err(CqError::ConflictingVariableKind(format!(
                            "variable {v} is out of range"
                        )));
                    }
                }
                body.push_term(term.as_term_ref());
            }
            body.end_atom(atom.relation);
        }
        Ok(body)
    }

    /// Appends variable `v` of kind `kind` to the atom being laid out.
    ///
    /// # Panics
    ///
    /// Panics if `v` is wider than 30 bits.
    #[inline]
    pub(crate) fn push_var(&mut self, v: VarId, kind: VarKind) {
        self.terms.push(word::var(v, kind));
    }

    /// Appends a constant to the atom being laid out, entering it into the
    /// constant table on first sight.
    #[inline]
    pub(crate) fn push_const(&mut self, constant: ConstRef<'_>) {
        let index = self.consts.add(constant);
        self.terms.push(word::constant(index));
    }

    /// Appends a term to the atom being laid out.
    #[inline]
    pub(crate) fn push_term(&mut self, term: TermRef<'_>) {
        match term {
            TermRef::Var(v, kind) => self.push_var(v, kind),
            TermRef::Const(constant) => self.push_const(constant),
        }
    }

    /// Ends the atom over `relation` whose terms are those pushed since the
    /// previous atom ended, and returns it.
    pub(crate) fn end_atom(&mut self, relation: RelId) -> AtomRef<'_> {
        let start = self.last_end();
        if self.meta.is_empty() {
            self.meta.extend_from_slice(&0u32.to_le_bytes());
        }
        let count = read_u32(&self.meta, 0) + 1;
        self.meta[..COUNT_BYTES].copy_from_slice(&count.to_le_bytes());
        let end = u32::try_from(self.terms.len()).expect("a query has at most 2^32 terms");
        self.meta.extend_from_slice(&relation.0.to_le_bytes());
        self.meta.extend_from_slice(&end.to_le_bytes());
        AtomRef::of_words(relation, &self.terms[start..], self.consts.table())
    }

    /// Where the last atom's terms end: where the next atom's start.
    fn last_end(&self) -> usize {
        if self.meta.len() > COUNT_BYTES {
            read_u32(&self.meta, self.meta.len() - 4) as usize
        } else {
            0
        }
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
        ConjunctiveQuery::from_table(&atoms, vars)
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
            for term in atom.terms.iter() {
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
        ConjunctiveQuery::from_table(&atoms, VarTable::numbered(var_kinds))
    }

    /// Builds a query from atoms and the table its constructor declared the
    /// variables in, validating the invariants.
    pub(crate) fn from_table(atoms: &[Atom], vars: VarTable) -> Result<Self> {
        let body = Body::of_atoms(atoms, vars.block_len())?;
        ConjunctiveQuery::from_body(body, vars, true)
    }

    /// Builds a query from a laid-out body and its variable table,
    /// validating the invariants (all but "every declared variable occurs"
    /// when `every_var_used` is false).
    pub(crate) fn from_body(body: Body, vars: VarTable, every_var_used: bool) -> Result<Self> {
        let mut query = ConjunctiveQuery::pack(body, vars.len(), vars.block_len(), |meta| {
            vars.write_block(meta)
        })?;
        query.shape_hash = query.check(every_var_used)?;
        Ok(query)
    }

    /// The query of `body` and a `var_len`-byte variable table of
    /// `num_vars` variables, which `write_vars` appends to the meta block
    /// before the body's constant table.  Its hash is not set yet.
    fn pack(
        body: Body,
        num_vars: usize,
        var_len: usize,
        write_vars: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Self> {
        let Body {
            terms,
            mut meta,
            consts,
        } = body;
        if meta.is_empty() || read_u32(&meta, 0) == 0 {
            return Err(CqError::EmptyBody);
        }
        let num_vars = u32::try_from(num_vars)
            .ok()
            .filter(|&n| n <= word::MAX_VAR + 1)
            .ok_or_else(|| {
                CqError::ConflictingVariableKind(format!("{num_vars} variables are out of range"))
            })?;
        meta.reserve_exact(var_len + consts.block_len());
        write_vars(&mut meta);
        consts.write_block(&mut meta);
        let has_consts = if consts.ends.is_empty() {
            0
        } else {
            HAS_CONSTS
        };
        Ok(ConjunctiveQuery {
            shape_hash: 0,
            vars: num_vars | has_consts,
            meta: meta.into_boxed_slice(),
            terms: terms.into_boxed_slice(),
        })
    }

    /// Checks the body against the variable table: variables declared with
    /// the kinds they are tagged with, and — if `every_var_used` — no
    /// declared variable missing from the body.  Returns the body's
    /// canonical hash, computed in the same walk: the first-occurrence
    /// numbering the hash needs is also the record of which declared
    /// variables occur.
    fn check(&self, every_var_used: bool) -> Result<u32> {
        let consts = self.consts();
        let mut numbering = Numbering::new(self.num_vars());
        let mut hasher = ShapeHasher::new(self.num_atoms());
        let mut start = 0;
        for entry in self.atom_table().chunks_exact(ENTRY_BYTES) {
            let end = read_u32(entry, 4) as usize;
            hasher.atom(RelId(read_u32(entry, 0)), end - start);
            for &term in &self.terms[start..end] {
                match word::get(term) {
                    Word::Var(v, kind) => {
                        if v.index() >= self.num_vars() {
                            return Err(CqError::ConflictingVariableKind(format!(
                                "variable {v} is out of range"
                            )));
                        }
                        if self.var_kind(v) != kind {
                            return Err(CqError::ConflictingVariableKind(
                                self.var_name(v).to_owned(),
                            ));
                        }
                        hasher.var(numbering.number(v.0), kind);
                    }
                    Word::Const(index) => hasher.constant(consts.get(index)),
                }
            }
            start = end;
        }
        if every_var_used && numbering.assigned() as usize != self.num_vars() {
            // A declared distinguished variable that never occurs in the body
            // makes the query unsafe; an unused existential variable is just
            // a builder bug.  Both are rejected.
            let unused = (0..self.num_vars() as u32)
                .map(VarId)
                .find(|v| !numbering.is_numbered(v.0))
                .expect("fewer variables numbered than declared");
            return Err(CqError::UnsafeHeadVariable(
                self.var_name(unused).to_owned(),
            ));
        }
        Ok(hasher.finish())
    }

    /// The meta block's atom table: per atom its relation and term end.
    #[inline]
    fn atom_table(&self) -> &[u8] {
        &self.meta[COUNT_BYTES..self.var_start()]
    }

    /// Where the variable table starts in the meta block: past the atom
    /// count and the atom table.
    #[inline]
    fn var_start(&self) -> usize {
        COUNT_BYTES + ENTRY_BYTES * self.num_atoms()
    }

    /// Where the variable table ends in the meta block: where the constant
    /// table starts, or the block's end.
    fn var_end(&self) -> usize {
        if self.vars & HAS_CONSTS == 0 {
            return self.meta.len();
        }
        let (entries_start, _) = self.const_layout();
        entries_start
    }

    /// Where the constant table's entries and their end offsets start, for
    /// a query with constants: the entry count is the block's last word,
    /// the offsets precede it, and the last offset is the entries' length.
    #[inline]
    fn const_layout(&self) -> (usize, usize) {
        let len = self.meta.len();
        let count = read_u32(&self.meta, len - 4) as usize;
        let ends_start = len - 4 - 4 * count;
        let entries_len = read_u32(&self.meta, len - 8) as usize;
        (ends_start - entries_len, ends_start)
    }

    /// The query's constant table; empty if it has no constants.
    #[inline]
    pub(crate) fn consts(&self) -> ConstTable<'_> {
        if self.vars & HAS_CONSTS == 0 {
            return ConstTable::default();
        }
        let (entries_start, ends_start) = self.const_layout();
        ConstTable {
            entries: &self.meta[entries_start..ends_start],
            ends: &self.meta[ends_start..self.meta.len() - 4],
        }
    }

    /// The meta block's variable table.
    fn var_block(&self) -> &[u8] {
        &self.meta[self.var_start()..self.var_end()]
    }

    /// The variable table's kind bytes, one per variable.
    fn kind_bytes(&self) -> &[u8] {
        &self.meta[self.var_start()..self.var_start() + self.num_vars()]
    }

    /// Bytes per end offset in the variable table, which follows from the
    /// table's length: with 2-byte offsets the table is `3 n` bytes plus the
    /// names, which total at most `u16::MAX` bytes; with 4-byte offsets it
    /// is `3 n` bytes plus the names plus `2 n`, and the names alone total
    /// more than that.
    fn offset_width(&self) -> usize {
        if self.var_block().len() - 3 * self.num_vars() > usize::from(u16::MAX) {
            4
        } else {
            2
        }
    }

    /// Where variable `i`'s name ends, counted from the first name's start.
    fn name_end(&self, i: usize) -> usize {
        let width = self.offset_width();
        let at = self.num_vars() + i * width;
        let bytes = &self.var_block()[at..at + width];
        if width == 4 {
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize
        } else {
            usize::from(u16::from_le_bytes([bytes[0], bytes[1]]))
        }
    }

    /// The variable table's name bytes: every name, back to back in id
    /// order.
    fn name_bytes(&self) -> &[u8] {
        &self.var_block()[self.num_vars() * (1 + self.offset_width())..]
    }

    /// Every variable's name, back to back in id order.
    fn names(&self) -> &str {
        std::str::from_utf8(self.name_bytes()).expect("variable names are UTF-8")
    }

    /// The body atoms, in order.
    #[inline]
    pub fn atoms(&self) -> Atoms<'_> {
        Atoms {
            table: self.atom_table(),
            terms: &self.terms,
            consts: self.consts(),
            start: 0,
        }
    }

    /// Body atom `i`.
    ///
    /// # Panics
    ///
    /// Panics if the query has at most `i` atoms.
    #[inline]
    pub fn atom(&self, i: usize) -> AtomRef<'_> {
        assert!(
            i < self.num_atoms(),
            "atom {i} is not one of the query's {} atoms",
            self.num_atoms()
        );
        let entry = COUNT_BYTES + ENTRY_BYTES * i;
        let start = if i == 0 {
            0
        } else {
            read_u32(&self.meta, entry - 4) as usize
        };
        AtomRef::of_words(
            RelId(read_u32(&self.meta, entry)),
            &self.terms[start..read_u32(&self.meta, entry + 4) as usize],
            self.consts(),
        )
    }

    /// Every atom's terms, back to back in atom order.
    #[inline]
    pub fn terms(&self) -> Terms<'_> {
        Terms::of_words(&self.terms, self.consts())
    }

    /// Every atom's terms as the query stores them: one [`word`] each.
    #[inline]
    pub(crate) fn words(&self) -> &[u32] {
        &self.terms
    }

    /// Number of body atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        read_u32(&self.meta, 0) as usize
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        (self.vars & !HAS_CONSTS) as usize
    }

    /// Bytes of the query's two heap blocks: the term slice (4 bytes a
    /// term) and the meta block.  Computed from their lengths; the header
    /// and the allocator's own rounding are not counted.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[u32]>(&self.terms) + self.meta.len()
    }

    /// Heap blocks the query owns: the meta block, and the term slice unless
    /// every atom is nullary.  What a clone allocates.
    #[inline]
    pub fn heap_blocks(&self) -> usize {
        1 + usize::from(!self.terms.is_empty())
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
        self.num_atoms() == 1
    }

    /// True if the query has no distinguished variables (a boolean query).
    pub fn is_boolean(&self) -> bool {
        self.var_kinds().all(|k| k.is_existential())
    }

    /// The set of relations referenced by the body, deduplicated, in first
    /// occurrence order.
    pub fn relations_used(&self) -> Vec<RelId> {
        let mut out = Vec::new();
        for atom in self.atoms() {
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
        for atom in self.atoms() {
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

    /// Validates every atom's relation and arity against a catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for atom in self.atoms() {
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
        for atom in self.atoms() {
            for v in atom.variables() {
                if self.var_kind(v).is_distinguished() && !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Returns a copy of the query with a different set of atoms but the same
    /// variable table, hashing the new atoms.  Intended for algorithms
    /// (folding) that drop atoms; the caller must ensure every surviving
    /// variable still occurs in the body.  The constant table is rebuilt
    /// from the kept atoms, so a constant only dropped atoms held leaves it.
    ///
    /// # Panics
    ///
    /// Panics if `atoms` is empty or tags a variable with another kind than
    /// the query's.
    pub(crate) fn with_atoms_unchecked<'a>(
        &self,
        atoms: impl IntoIterator<Item = AtomRef<'a>>,
    ) -> ConjunctiveQuery {
        let mut body = Body::default();
        for atom in atoms {
            for term in atom.terms() {
                body.push_term(term);
            }
            body.end_atom(atom.relation);
        }
        let vars = self.var_block();
        let mut query = ConjunctiveQuery::pack(body, self.num_vars(), vars.len(), |meta| {
            meta.extend_from_slice(vars)
        })
        .expect("a query keeps at least one atom");
        query.shape_hash = query
            .check(false)
            .expect("atoms of a valid query agree with its variable table");
        query
    }
}

/// The body atoms of a [`ConjunctiveQuery`], in order:
/// [`ConjunctiveQuery::atoms`].
#[derive(Debug, Clone)]
pub struct Atoms<'a> {
    /// The atom table entries not yet visited.
    table: &'a [u8],
    terms: &'a [u32],
    consts: ConstTable<'a>,
    /// Where the front atom's terms start.
    start: usize,
}

impl<'a> Atoms<'a> {
    /// The atom of table entry `entry`, whose terms start at `start`.
    #[inline]
    fn atom(&self, entry: &[u8], start: usize) -> AtomRef<'a> {
        AtomRef::of_words(
            RelId(read_u32(entry, 0)),
            &self.terms[start..read_u32(entry, 4) as usize],
            self.consts,
        )
    }
}

impl<'a> Iterator for Atoms<'a> {
    type Item = AtomRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<AtomRef<'a>> {
        let (entry, rest) = self.table.split_first_chunk::<ENTRY_BYTES>()?;
        self.table = rest;
        let atom = self.atom(entry, self.start);
        self.start += atom.arity();
        Some(atom)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.table.len() / ENTRY_BYTES;
        (len, Some(len))
    }
}

impl DoubleEndedIterator for Atoms<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let (rest, entry) = self.table.split_last_chunk::<ENTRY_BYTES>()?;
        self.table = rest;
        let start = if rest.is_empty() {
            self.start
        } else {
            read_u32(rest, rest.len() - 4) as usize
        };
        Some(self.atom(entry, start))
    }
}

impl ExactSizeIterator for Atoms<'_> {}

/// Prints the atoms, kinds and names as lists, not as the two blocks:
/// `ConjunctiveQuery { atoms: [..], var_kinds: [..], var_names: [..] }`.
impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let atoms: Vec<AtomRef<'_>> = self.atoms().collect();
        let kinds: Vec<VarKind> = self.var_kinds().collect();
        let names: Vec<&str> = (0..self.num_vars())
            .map(|i| self.var_name(VarId(i as u32)))
            .collect();
        f.debug_struct("ConjunctiveQuery")
            .field("atoms", &atoms)
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
        for (i, atom) in q.atoms().enumerate() {
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
    body: Body,
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
        for arg in args {
            match arg {
                Arg::Var(v) => self.body.push_var(v, self.vars.kind(v)),
                Arg::Const(c) => self.body.push_const(c.as_const_ref()),
            }
        }
        self.body.end_atom(relation);
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
        ConjunctiveQuery::from_body(self.body, self.vars, true)
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
        assert!(q.atom(0).has_repeated_vars());
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
        // The meta block is the atom count, the one atom's entry and the
        // constant table: the entry (a tag and `a`), its end, the count.
        for copy in [&q, &q.clone()] {
            assert!(copy.var_block().is_empty(), "{:?}", copy.meta);
            assert_eq!(copy.meta.len(), COUNT_BYTES + ENTRY_BYTES + 2 + 4 + 4);
            assert_eq!(copy.consts().len(), 1);
        }
        assert_eq!(q.display_with(&c).to_string(), "Q() :- R('a')");
    }

    /// The words of `query`, decoded: a variable's id or a constant's
    /// index in the query's table.
    fn words(query: &ConjunctiveQuery) -> Vec<Word> {
        query.words().iter().map(|&w| word::get(w)).collect()
    }

    #[test]
    fn constant_table_stores_each_constant_once_in_first_occurrence_order() {
        let c = catalog();
        let q = crate::parser::parse_query(
            &c,
            "Q(x) :- Meetings(x, 7), Meetings(x, '7'), Meetings(x, 7), Meetings(x, '7')",
        )
        .unwrap();
        let table = q.consts();
        assert_eq!(table.len(), 2);
        assert_eq!(
            (table.get(0), table.get(1)),
            (ConstRef::Int(7), ConstRef::Str("7"))
        );
        let x = Word::Var(VarId(0), VarKind::Distinguished);
        assert_eq!(
            words(&q),
            [
                x,
                Word::Const(0),
                x,
                Word::Const(1),
                x,
                Word::Const(0),
                x,
                Word::Const(1)
            ]
        );
        // A string of any length is one entry: a tag and its text.
        let long = "a string constant well past fourteen bytes";
        let q = crate::parser::parse_query(&c, &format!("Q(x) :- Meetings(x, '{long}')")).unwrap();
        assert_eq!(q.consts().get(0), ConstRef::Str(long));
        assert_eq!(
            q.heap_bytes(),
            2 * 4 + COUNT_BYTES + ENTRY_BYTES + 3 + 1 + 1 + long.len() + 8
        );
    }

    #[test]
    fn constant_table_of_a_subset_is_rebuilt_from_the_kept_atoms() {
        let c = catalog();
        let q = crate::parser::parse_query(
            &c,
            "Q(x) :- Meetings(x, 'dropped'), Meetings(x, 'b'), Meetings(x, 9), Meetings(x, 'b')",
        )
        .unwrap();
        let kept = q.with_atoms_unchecked([q.atom(1), q.atom(2)]);
        let model = ConjunctiveQuery::from_parts(
            vec![q.atom(1).to_atom(), q.atom(2).to_atom()],
            vec![VarKind::Distinguished],
            vec!["x".to_owned()],
        )
        .unwrap();
        // `'dropped'` leaves the table and `'b'` moves to its front.
        assert_eq!(kept, model);
        assert_eq!(kept.consts().len(), 2);
        assert_eq!(kept.consts().get(0), ConstRef::Str("b"));
        assert!(kept.heap_bytes() < q.heap_bytes());
    }

    #[test]
    fn constant_table_of_many_constants_finds_every_constant_again() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let distinct = 24;
        let constant = |i: usize| {
            if i.is_multiple_of(2) {
                Term::constant(format!("c{i}").as_str())
            } else {
                Term::constant(i as i64)
            }
        };
        // Each constant, then each again in reverse, then each once more.
        let order = (0..distinct).chain((0..distinct).rev()).chain(0..distinct);
        let atoms: Vec<Atom> = order
            .map(|i| Atom::new(m, vec![Term::dist(0), constant(i)]))
            .collect();
        let q = ConjunctiveQuery::from_atoms(atoms.clone()).unwrap();
        assert_eq!(q.consts().len(), distinct);
        for (i, atom) in atoms.iter().enumerate() {
            assert_eq!(q.atom(i), atom.as_atom_ref());
        }
        let indices: Vec<Word> = words(&q).into_iter().skip(1).step_by(2).collect();
        let expected: Vec<Word> = (0..distinct)
            .chain((0..distinct).rev())
            .chain(0..distinct)
            .map(|i| Word::Const(i as u32))
            .collect();
        assert_eq!(indices, expected);
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
    fn validate_rejects_a_relation_outside_the_catalog() {
        let mut b = QueryBuilder::new();
        let x = b.dvar("x");
        b.atom(RelId(7), [x.into()]);
        let q = b.build().unwrap();
        let err = q.validate(&catalog()).unwrap_err();
        assert!(
            matches!(&err, CqError::UnknownRelation(name) if name == "#7"),
            "{err}"
        );
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(Arg::from(VarId(1)), Arg::Var(VarId(1)));
        assert_eq!(Arg::from("a"), Arg::Const(Constant::str("a")));
        assert_eq!(Arg::from(7i64), Arg::Const(Constant::int(7)));
        assert_eq!(Arg::from(Constant::int(3)), Arg::Const(Constant::int(3)));
    }
}

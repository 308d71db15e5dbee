//! Conjunctive queries in the paper's tagged-variable representation.
//!
//! Section 5 of the paper works with "a modified representation of
//! conjunctive queries where we associate each query with a list of its body
//! atoms and discard the head", tagging each variable as *distinguished* or
//! *existential*.  [`ConjunctiveQuery`] is exactly that representation — the
//! atoms plus one kind per variable — and what every algorithm reads.
//!
//! A query is a 24-byte header — its canonical hash, its variable count and
//! a boxed byte slice — and **one heap block**.  Every number the block
//! stores takes one per-query **width**, the narrowest of 1, 2 or 4 bytes
//! that holds the largest of them.  The block holds, in this order:
//!
//! * the variable **kinds** as a bitset (a set bit is an existential
//!   variable), one bit per variable of the header's count;
//! * the width itself (one byte), the constant count and the atom count;
//! * the **atom table**: per atom its relation and the end of its terms;
//! * the **constant table**: each distinct constant once, in
//!   first-occurrence order — first each entry's end offset, then the
//!   entries back to back, a tag byte and the integer (8 bytes) or the
//!   UTF-8 text;
//! * the **term words**: every atom's terms back to back, one 4-byte
//!   little-endian word each, laid out as the interner's
//!   [`ITerm`](crate::intern::ITerm): a variable's word is its id and its
//!   kind bit, a constant's word its index in the constant table;
//! * the **names**: each name's end offset, then the names back to back to
//!   the block's end.
//!
//! So a variable's kind is one bit at a fixed place, the interner's front
//! door — counts, atom table, constants, words — reads one run, and the
//! names, which only display reads, come last.  A constant of any length
//! costs no block of its own, and a repeated one is stored once.  So a
//! query owns exactly one block, however many atoms, variables and
//! constants it has, and a clone allocates exactly that one.  Every
//! constructor computes the width from the same numbers and writes the
//! constant table the same way, so equal queries have equal blocks, which
//! is what the derived `Eq` and `Hash` compare.
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
use crate::term::{ConstBytes, ConstRef, Constant, Term, TermRef, VarId, VarKind};

/// Bytes per term word.
const WORD_BYTES: usize = 4;

/// The constant table's tag bytes.
const CONST_INT: u8 = 0;
const CONST_STR: u8 = 1;

/// The little-endian `u32` at `at`.
#[inline]
pub(crate) fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// The little-endian number of `width` (1, 2 or 4) bytes at `at`.
#[inline]
fn read(bytes: &[u8], at: usize, width: usize) -> usize {
    match width {
        1 => usize::from(bytes[at]),
        2 => usize::from(u16::from_le_bytes(
            bytes[at..at + 2].try_into().expect("two bytes"),
        )),
        _ => read_u32(bytes, at) as usize,
    }
}

/// Writes `value` as `width` little-endian bytes at `at`.
#[inline]
fn write(bytes: &mut [u8], at: usize, width: usize, value: usize) {
    debug_assert!(
        width == 4 || value >> (8 * width) == 0,
        "{value} fits in {width} bytes"
    );
    bytes[at..at + width].copy_from_slice(&(value as u32).to_le_bytes()[..width]);
}

/// The narrowest of 1, 2 and 4 bytes that holds `max`.
fn width_of(max: usize) -> usize {
    if max <= usize::from(u8::MAX) {
        1
    } else if max <= usize::from(u16::MAX) {
        2
    } else {
        4
    }
}

/// Bytes of the constant table entry of `constant`: its tag and value.
pub(crate) fn entry_len(constant: ConstBytes<'_>) -> usize {
    match constant {
        ConstBytes::Int(_) => 1 + 8,
        ConstBytes::Str(text) => 1 + text.len(),
    }
}

/// Writes the constant table entry of `constant` — its tag, then the
/// integer's 8 little-endian bytes or the text — at the start of `out`.
fn put_entry(out: &mut [u8], constant: ConstBytes<'_>) {
    match constant {
        ConstBytes::Int(i) => {
            out[0] = CONST_INT;
            out[1..9].copy_from_slice(&i.to_le_bytes());
        }
        ConstBytes::Str(text) => {
            out[0] = CONST_STR;
            out[1..1 + text.len()].copy_from_slice(text);
        }
    }
}

/// True if `entry` is the entry of `constant`, compared as bytes.
fn entry_is(entry: &[u8], constant: ConstBytes<'_>) -> bool {
    match constant {
        ConstBytes::Int(i) => entry[0] == CONST_INT && entry[1..] == i.to_le_bytes(),
        ConstBytes::Str(text) => entry[0] == CONST_STR && &entry[1..] == text,
    }
}

/// The constant an entry holds, its text as bytes.
#[inline]
fn entry_bytes(entry: &[u8]) -> ConstBytes<'_> {
    if entry[0] == CONST_INT {
        ConstBytes::Int(i64::from_le_bytes(
            entry[1..]
                .try_into()
                .expect("an integer entry holds 8 bytes"),
        ))
    } else {
        ConstBytes::Str(&entry[1..])
    }
}

/// A query's constant table, borrowed: each entry's end offset at the
/// table's width, then the entries back to back.  Empty for a query without
/// constants.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConstTable<'a> {
    /// The end offsets, then the entries.
    bytes: &'a [u8],
    /// Bytes of the end offsets: where the entries start.
    ends_len: u32,
    /// Bytes per end offset.
    width: u8,
}

impl<'a> ConstTable<'a> {
    /// Number of distinct constants.
    #[cfg(test)]
    pub(crate) fn len(self) -> usize {
        self.ends_len as usize / usize::from(self.width)
    }

    /// Where entry `k` ends in the entries.
    #[inline]
    fn end(self, k: usize) -> usize {
        let width = usize::from(self.width);
        read(self.bytes, k * width, width)
    }

    /// The bytes of entry `index`: its tag, then its value.
    #[inline]
    fn entry(self, index: u32) -> &'a [u8] {
        let k = index as usize;
        let start = if k == 0 { 0 } else { self.end(k - 1) };
        &self.bytes[self.ends_len as usize..][start..self.end(k)]
    }

    /// The constant at `index`, its text as bytes (no UTF-8 check).
    ///
    /// # Panics
    ///
    /// Panics if the table holds no constant at `index`.
    #[inline]
    pub(crate) fn bytes(self, index: u32) -> ConstBytes<'a> {
        entry_bytes(self.entry(index))
    }

    /// The constant at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the table holds no constant at `index`.
    #[inline]
    pub(crate) fn get(self, index: u32) -> ConstRef<'a> {
        match self.bytes(index) {
            ConstBytes::Int(i) => ConstRef::Int(i),
            ConstBytes::Str(text) => {
                ConstRef::Str(std::str::from_utf8(text).expect("a string entry is UTF-8"))
            }
        }
    }

    /// True if the constant at `index` is `constant`, compared as bytes
    /// (without `get`'s UTF-8 check).
    #[inline]
    pub(crate) fn is(self, index: u32, constant: &Constant) -> bool {
        entry_is(self.entry(index), constant.as_const_bytes())
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
/// constants in first-occurrence order, the entries back to back and each
/// entry's end offset.
#[derive(Debug, Default, Clone)]
struct ConstTableBuilder {
    entries: Vec<u8>,
    ends: Vec<u32>,
    /// An open-addressed table of the constants' indices under
    /// [`constant_hash`], at most half full, so a body of many distinct
    /// constants is laid out in linear time; empty before the first.
    index: Vec<u32>,
}

impl ConstTableBuilder {
    /// Number of distinct constants.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of entry `k`.
    fn entry(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.entries[start..self.ends[k] as usize]
    }

    /// Re-indexes the table's constants in an index of `slots` slots, a
    /// power of two at least twice their number.
    fn reindex(&mut self, slots: usize) {
        let mut index = vec![EMPTY_SLOT; slots];
        for k in 0..self.len() {
            let slot = vacant_slot(&index, constant_hash(entry_bytes(self.entry(k))));
            index[slot] = k as u32;
        }
        self.index = index;
    }

    /// The index of `constant`, added to the table on first sight.
    ///
    /// # Panics
    ///
    /// Panics on the 2³¹-th distinct constant, which no word can index,
    /// and once the entries total 4 GiB.
    fn add(&mut self, constant: ConstBytes<'_>) -> u32 {
        let hash = constant_hash(constant);
        let slot = match find_slot(&self.index, hash, |k| {
            entry_is(self.entry(k as usize), constant)
        }) {
            Ok(index) => return index,
            Err(slot) => slot,
        };
        let index = self.len();
        assert!(
            index <= word::MAX_CONST as usize,
            "a query holds 2^31 distinct constants; a word cannot index another"
        );
        let at = self.entries.len();
        self.entries.resize(at + entry_len(constant), 0);
        put_entry(&mut self.entries[at..], constant);
        let end = u32::try_from(self.entries.len()).expect("a query's constants fit in 4 GiB");
        self.ends.push(end);
        let len = index + 1;
        if len * 2 > self.index.len() {
            self.reindex((len * 2).next_power_of_two());
        } else {
            self.index[slot] = index as u32;
        }
        index as u32
    }

    /// Writes the table into a block laid out for it.
    fn write_into(&self, block: &mut BlockWriter) {
        for k in 0..self.len() {
            block.push_entry(self.entry(k));
        }
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
/// variable names are equal.  The block is a function of the atoms'
/// relations, arities and constants and of that list — its end offsets
/// mark where each name stops — so `["ab", "c"]` and `["a", "bc"]` differ.
/// The stored hash is a function of the atoms, so it changes nothing about
/// equality; it is compared first, which settles most unequal pairs in one
/// integer comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// The canonical hash of the atoms, set by every constructor.
    shape_hash: u32,
    /// The number of variables.
    vars: u32,
    /// The query's one block ([`Layout`]): the kind bitset; the width
    /// byte; then, every number at that width, the constant and atom
    /// counts, per atom its relation and the end of its terms, each
    /// constant's end offset and the constants' entries back to back; every
    /// atom's terms back to back in atom order, one little-endian [`word`]
    /// each; each name's end offset and the names back to back in id order.
    /// Atom `i`'s terms start where `i - 1`'s end, and so do constant `i`'s
    /// entry and variable `i`'s name bytes.
    block: Box<[u8]>,
}

/// Where each part of a query's block lies: the numbers the block is laid
/// out from, and the width they fix.  The kind bitset comes first, so a
/// variable's kind is read without reading anything else; then the parts
/// come in the order the interner's front door reads them, one run: the
/// width byte, the constant and atom counts, the atom table, the constant
/// table (end offsets, then entries) and the term words; last the name end
/// offsets and the names, which only display reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    /// Bytes per number the block stores: 1, 2 or 4.
    width: usize,
    /// Term words.
    terms: usize,
    atoms: usize,
    vars: usize,
    /// Bytes of the names.
    name_bytes: usize,
    /// Distinct constants.
    consts: usize,
    /// Bytes of the constant table's entries.
    const_bytes: usize,
}

impl Layout {
    /// The layout of a block of these parts, at the narrowest width that
    /// holds every number it stores: the counts, the relations, and the
    /// last (so largest) term, name and constant end.
    fn new(
        terms: usize,
        atoms: usize,
        vars: usize,
        name_bytes: usize,
        (consts, const_bytes): (usize, usize),
        max_relation: u32,
    ) -> Self {
        let max = terms
            .max(atoms)
            .max(name_bytes)
            .max(const_bytes)
            .max(max_relation as usize);
        Layout {
            width: width_of(max),
            terms,
            atoms,
            vars,
            name_bytes,
            consts,
            const_bytes,
        }
    }

    /// The layout of `block`, a query's of `vars` variables.
    #[inline]
    fn of(block: &[u8], vars: usize) -> Self {
        let head = Head::of(block, vars);
        let width = head.width;
        let terms = if head.atoms == 0 {
            0
        } else {
            read(block, head.const_table - width, width)
        };
        let mut layout = Layout {
            width,
            terms,
            atoms: head.atoms,
            vars,
            name_bytes: 0,
            consts: head.consts,
            const_bytes: head.const_bytes,
        };
        layout.name_bytes = block.len() - layout.names();
        layout
    }

    /// Where the width byte lies: past the kind bitset, which starts the
    /// block.
    #[inline]
    fn width_at(&self) -> usize {
        self.vars.div_ceil(8)
    }

    /// Where the atom table starts: past the width byte and the counts.
    #[inline]
    fn atom_table(&self) -> usize {
        self.width_at() + 1 + 2 * self.width
    }

    /// Where the constant table starts: its end offsets, then its entries.
    #[inline]
    fn const_table(&self) -> usize {
        self.atom_table() + 2 * self.width * self.atoms
    }

    /// Where the constant table's entries start.
    #[inline]
    fn entries(&self) -> usize {
        self.const_table() + self.consts * self.width
    }

    /// Where the term words start: past the constant table.
    #[inline]
    fn words(&self) -> usize {
        self.entries() + self.const_bytes
    }

    /// Where the name end offsets start: past the term words.
    #[inline]
    fn name_ends(&self) -> usize {
        self.words() + WORD_BYTES * self.terms
    }

    /// Where the names start; they run to the block's end.
    #[inline]
    fn names(&self) -> usize {
        self.name_ends() + self.vars * self.width
    }

    /// Bytes of the block.
    #[inline]
    fn len(&self) -> usize {
        self.names() + self.name_bytes
    }
}

/// The start of a query's block, what every reader reads first: the width,
/// the two counts, and where the atom table, the constant table and the
/// words lie.
#[derive(Debug, Clone, Copy)]
struct Head {
    width: usize,
    consts: usize,
    atoms: usize,
    /// Where the atom table starts: past the counts.
    atom_table: usize,
    /// Where the constant table starts: past the atom table.
    const_table: usize,
    /// Bytes of the constant table's entries.
    const_bytes: usize,
    /// Where the words start: past the constant table.
    words: usize,
}

impl Head {
    /// The head of `block`, a query's of `vars` variables: it starts past
    /// their kind bitset.
    #[inline]
    fn of(block: &[u8], vars: usize) -> Self {
        let at = vars.div_ceil(8);
        let width = usize::from(block[at]);
        let consts = read(block, at + 1, width);
        let atoms = read(block, at + 1 + width, width);
        let atom_table = at + 1 + 2 * width;
        let const_table = atom_table + 2 * width * atoms;
        let entries = const_table + consts * width;
        let const_bytes = if consts == 0 {
            0
        } else {
            read(block, entries - width, width)
        };
        Head {
            width,
            consts,
            atoms,
            atom_table,
            const_table,
            const_bytes,
            words: entries + const_bytes,
        }
    }

    /// The atom table of `block`: per atom its relation and term end.
    #[inline]
    fn atoms_of(self, block: &[u8]) -> &[u8] {
        &block[self.atom_table..self.const_table]
    }

    /// The constant table of `block`.
    #[inline]
    fn consts_of(self, block: &[u8]) -> ConstTable<'_> {
        ConstTable {
            bytes: &block[self.const_table..self.words],
            ends_len: (self.consts * self.width) as u32,
            width: self.width as u8,
        }
    }
}

/// A query's block being written, every part at its [`Layout`]'s place:
/// allocated once, at its final length, and handed to the query as is.
pub(crate) struct BlockWriter {
    block: Vec<u8>,
    layout: Layout,
    /// Words, names, name bytes, constants, constant bytes and atoms
    /// written so far.
    words: usize,
    names: usize,
    name_bytes: usize,
    consts: usize,
    const_bytes: usize,
    atoms: usize,
}

impl BlockWriter {
    /// A block of `layout`, its width and counts written.
    fn new(layout: Layout) -> Self {
        let mut block = vec![0; layout.len()];
        let width = layout.width;
        let at = layout.width_at();
        block[at] = width as u8;
        write(&mut block, at + 1, width, layout.consts);
        write(&mut block, at + 1 + width, width, layout.atoms);
        BlockWriter {
            block,
            layout,
            words: 0,
            names: 0,
            name_bytes: 0,
            consts: 0,
            const_bytes: 0,
            atoms: 0,
        }
    }

    /// A block for a body of `terms` terms in `atoms` atoms over relations
    /// up to `max_relation`, `vars` variables whose names total
    /// `name_bytes` bytes and `consts` distinct constants whose entries
    /// total `const_bytes` bytes, to fill in that order: kinds and names,
    /// then each atom's terms and its end.  Fails on more variables than a
    /// word can tell apart.
    pub(crate) fn for_parts(
        terms: usize,
        atoms: usize,
        vars: usize,
        name_bytes: usize,
        (consts, const_bytes): (usize, usize),
        max_relation: u32,
    ) -> Result<Self> {
        check_var_count(vars)?;
        let layout = Layout::new(
            terms,
            atoms,
            vars,
            name_bytes,
            (consts, const_bytes),
            max_relation,
        );
        Ok(BlockWriter::new(layout))
    }

    /// Appends variable `v` with the kind [`set_kind`](Self::set_kind)
    /// recorded for it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not one of the block's variables.
    #[inline]
    pub(crate) fn push_var(&mut self, v: VarId) {
        self.push_word(word::var(v, self.kind(v.index())));
    }

    /// Appends the constant at `index` of the constant table, entering it
    /// if `index` is the next one: constants are entered in
    /// first-occurrence order.
    #[inline]
    pub(crate) fn push_constant(&mut self, index: u32, constant: ConstBytes<'_>) {
        if index as usize == self.consts {
            self.push_const(constant);
        }
        self.push_word(word::constant(index));
    }

    /// Ends the atom over `relation` whose terms are those pushed since the
    /// previous atom ended.
    #[inline]
    pub(crate) fn end_atom(&mut self, relation: RelId) {
        self.push_atom(relation, self.words);
    }

    /// The query of the filled block, validated as
    /// [`ConjunctiveQuery::from_parts`] validates one.
    pub(crate) fn build(self) -> Result<ConjunctiveQuery> {
        if self.layout.atoms == 0 {
            return Err(CqError::EmptyBody);
        }
        let mut query = self.finish();
        query.shape_hash = query.check(true)?;
        Ok(query)
    }

    /// Records variable `v`'s kind (the bitset starts all distinguished).
    #[inline]
    pub(crate) fn set_kind(&mut self, v: usize, kind: VarKind) {
        if kind.is_existential() {
            self.block[v / 8] |= 1 << (v % 8);
        }
    }

    /// The kind recorded for variable `v`.
    #[inline]
    fn kind(&self, v: usize) -> VarKind {
        kind_bit(&self.block, v)
    }

    /// Names the next variable.
    pub(crate) fn push_name(&mut self, name: &[u8]) {
        let at = self.layout.names() + self.name_bytes;
        self.block[at..at + name.len()].copy_from_slice(name);
        self.name_bytes += name.len();
        let width = self.layout.width;
        let end = self.layout.name_ends() + self.names * width;
        write(&mut self.block, end, width, self.name_bytes);
        self.names += 1;
    }

    /// Copies `query`'s variable kinds and names.
    fn copy_vars(&mut self, query: &ConjunctiveQuery) {
        let from = query.layout();
        let kinds = from.width_at();
        self.block[..kinds].copy_from_slice(&query.block[..kinds]);
        let names = &query.block[from.names()..];
        let mut start = 0;
        for i in 0..from.vars {
            let end = query.name_end(&from, i);
            self.push_name(&names[start..end]);
            start = end;
        }
    }

    /// Appends a term word.
    #[inline]
    fn push_word(&mut self, word: u32) {
        let at = self.layout.words() + WORD_BYTES * self.words;
        self.block[at..at + WORD_BYTES].copy_from_slice(&word.to_le_bytes());
        self.words += 1;
    }

    /// Appends words already laid out, 4 little-endian bytes each.
    fn push_word_bytes(&mut self, words: &[u8]) {
        let at = self.layout.words() + WORD_BYTES * self.words;
        self.block[at..at + words.len()].copy_from_slice(words);
        self.words += words.len() / WORD_BYTES;
    }

    /// Appends the next constant's entry, given as its bytes.
    fn push_entry(&mut self, entry: &[u8]) {
        let at = self.layout.entries() + self.const_bytes;
        self.block[at..at + entry.len()].copy_from_slice(entry);
        self.end_entry(entry.len());
    }

    /// Appends the next constant.
    fn push_const(&mut self, constant: ConstBytes<'_>) {
        let at = self.layout.entries() + self.const_bytes;
        let len = entry_len(constant);
        put_entry(&mut self.block[at..at + len], constant);
        self.end_entry(len);
    }

    fn end_entry(&mut self, len: usize) {
        self.const_bytes += len;
        let width = self.layout.width;
        let end = self.layout.const_table() + self.consts * width;
        write(&mut self.block, end, width, self.const_bytes);
        self.consts += 1;
    }

    /// Appends the atom over `relation` whose terms end at word `end`.
    #[inline]
    fn push_atom(&mut self, relation: RelId, end: usize) {
        let width = self.layout.width;
        let at = self.layout.atom_table() + 2 * width * self.atoms;
        write(&mut self.block, at, width, relation.0 as usize);
        write(&mut self.block, at + width, width, end);
        self.atoms += 1;
    }

    /// The query of the written block, its hash not set yet.
    fn finish(self) -> ConjunctiveQuery {
        let layout = self.layout;
        debug_assert_eq!(
            (self.words, self.atoms, self.names, self.name_bytes),
            (layout.terms, layout.atoms, layout.vars, layout.name_bytes),
            "every part is written"
        );
        debug_assert_eq!(
            (self.consts, self.const_bytes),
            (layout.consts, layout.const_bytes)
        );
        ConjunctiveQuery {
            shape_hash: 0,
            vars: layout.vars as u32,
            block: self.block.into_boxed_slice(),
        }
    }
}

/// The kind of variable `v` in a kind bitset.
#[inline]
fn kind_bit(kinds: &[u8], v: usize) -> VarKind {
    if kinds[v / 8] & (1 << (v % 8)) == 0 {
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
    /// An open-addressed table of the variables, under the hash of their
    /// names, at most half full: what [`find`](Self::find) probes.  Kept by
    /// [`declare`](Self::declare); empty in a table built otherwise.
    index: Vec<u32>,
}

impl VarTable {
    /// A table of variables with these kinds and no names yet; `name_bytes`
    /// is the room [`name_next`](Self::name_next) will need.
    pub(crate) fn unnamed(kinds: Vec<VarKind>, name_bytes: usize) -> Self {
        VarTable {
            names: String::with_capacity(name_bytes),
            ends: Vec::with_capacity(kinds.len()),
            kinds,
            index: Vec::new(),
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
        let layout = query.layout();
        VarTable {
            kinds: query.var_kinds().collect(),
            names: query.names().to_owned(),
            ends: (0..query.num_vars())
                .map(|i| query.name_end(&layout, i) as u32)
                .collect(),
            index: Vec::new(),
        }
    }

    /// Declares a new variable; returns its id.
    pub(crate) fn push(&mut self, kind: VarKind, name: &str) -> VarId {
        self.kinds.push(kind);
        self.name_next(name);
        VarId(self.len() as u32 - 1)
    }

    /// Declares a new variable that [`find`](Self::find) finds by its
    /// name; returns its id.  A table `find` reads declares every variable
    /// this way.
    pub(crate) fn declare(&mut self, kind: VarKind, name: &str) -> VarId {
        let v = self.push(kind, name);
        let len = self.len();
        if len * 2 > self.index.len() {
            self.reindex((len * 2).next_power_of_two());
        } else {
            let slot = vacant_slot(&self.index, name_hash(name));
            self.index[slot] = v.0;
        }
        v
    }

    /// Indexes every variable in an index of `slots` slots, a power of two
    /// at least twice their number.
    fn reindex(&mut self, slots: usize) {
        let mut index = vec![EMPTY_SLOT; slots];
        for v in 0..self.len() as u32 {
            let slot = vacant_slot(&index, name_hash(self.name(VarId(v))));
            index[slot] = v;
        }
        self.index = index;
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

    fn is_empty(&self) -> bool {
        self.kinds.is_empty()
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

    /// The variable [`declare`](Self::declare) declared as `name`, if any:
    /// one probe of the name index, comparing names in the packed buffer.
    pub(crate) fn find(&self, name: &str) -> Option<VarId> {
        debug_assert!(
            self.len() * 2 <= self.index.len() || self.is_empty(),
            "find reads a table that declare built"
        );
        find_slot(&self.index, name_hash(name), |v| {
            self.name(VarId(v)) == name
        })
        .ok()
        .map(VarId)
    }

    /// Writes the kinds and names into a block laid out for them.
    fn write_into(&self, block: &mut BlockWriter) {
        debug_assert_eq!(self.ends.len(), self.kinds.len(), "every variable is named");
        for (v, &kind) in self.kinds.iter().enumerate() {
            block.set_kind(v, kind);
            block.push_name(self.name(VarId(v as u32)).as_bytes());
        }
    }
}

/// The key of a variable name in a [`VarTable`]'s index.
fn name_hash(name: &str) -> u32 {
    constant_hash(ConstBytes::Str(name.as_bytes()))
}

/// A query body while its constructor lays it out: every term's word back
/// to back (4 little-endian bytes each, as the finished query stores them),
/// per atom its relation and term end, and the constant table.  The query's
/// block is written from it in one pass, at its final size.
#[derive(Debug, Default, Clone)]
pub(crate) struct Body {
    words: Vec<u8>,
    atoms: Vec<(RelId, u32)>,
    consts: ConstTableBuilder,
}

impl Body {
    /// An empty body with room for `num_atoms` atoms of `num_terms` terms in
    /// all.
    pub(crate) fn with_capacity(num_atoms: usize, num_terms: usize) -> Self {
        Body {
            words: Vec::with_capacity(WORD_BYTES * num_terms),
            atoms: Vec::with_capacity(num_atoms),
            consts: ConstTableBuilder::default(),
        }
    }

    /// `atoms` laid out.  Fails on a variable id wider than a word holds.
    pub(crate) fn of_atoms(atoms: &[Atom]) -> Result<Self> {
        let num_terms = atoms.iter().map(|atom| atom.terms.len()).sum();
        let mut body = Body::with_capacity(atoms.len(), num_terms);
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

    #[inline]
    fn push_word(&mut self, word: u32) {
        self.words.extend_from_slice(&word.to_le_bytes());
    }

    /// Appends variable `v` of kind `kind` to the atom being laid out.
    ///
    /// # Panics
    ///
    /// Panics if `v` is wider than 30 bits.
    #[inline]
    pub(crate) fn push_var(&mut self, v: VarId, kind: VarKind) {
        self.push_word(word::var(v, kind));
    }

    /// Appends a constant to the atom being laid out, entering it into the
    /// constant table on first sight.
    #[inline]
    pub(crate) fn push_const(&mut self, constant: ConstBytes<'_>) {
        let index = self.consts.add(constant);
        self.push_word(word::constant(index));
    }

    /// Appends a term to the atom being laid out.
    #[inline]
    pub(crate) fn push_term(&mut self, term: TermRef<'_>) {
        match term {
            TermRef::Var(v, kind) => self.push_var(v, kind),
            TermRef::Const(constant) => self.push_const(constant.as_const_bytes()),
        }
    }

    /// Ends the atom over `relation` whose terms are those pushed since the
    /// previous atom ended, and returns its arity.
    pub(crate) fn end_atom(&mut self, relation: RelId) -> usize {
        let start = self.atoms.last().map_or(0, |&(_, end)| end as usize);
        let end =
            u32::try_from(self.words.len() / WORD_BYTES).expect("a query has at most 2^32 terms");
        self.atoms.push((relation, end));
        end as usize - start
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
        ConjunctiveQuery::from_body(Body::of_atoms(atoms)?, vars, true)
    }

    /// Builds a query from a laid-out body and its variable table,
    /// validating the invariants (all but "every declared variable occurs"
    /// when `every_var_used` is false).
    pub(crate) fn from_body(body: Body, vars: VarTable, every_var_used: bool) -> Result<Self> {
        let mut query = ConjunctiveQuery::pack(&body, vars.len(), vars.names.len(), |block| {
            vars.write_into(block)
        })?;
        query.shape_hash = query.check(every_var_used)?;
        Ok(query)
    }

    /// The query of `body` and `num_vars` variables whose names total
    /// `name_bytes` bytes, which `write_vars` writes into the block.  Its
    /// hash is not set yet.
    fn pack(
        body: &Body,
        num_vars: usize,
        name_bytes: usize,
        write_vars: impl FnOnce(&mut BlockWriter),
    ) -> Result<Self> {
        if body.atoms.is_empty() {
            return Err(CqError::EmptyBody);
        }
        check_var_count(num_vars)?;
        let consts = &body.consts;
        let layout = Layout::new(
            body.words.len() / WORD_BYTES,
            body.atoms.len(),
            num_vars,
            name_bytes,
            (consts.len(), consts.entries.len()),
            body.atoms
                .iter()
                .map(|&(relation, _)| relation.0)
                .max()
                .unwrap_or(0),
        );
        let mut block = BlockWriter::new(layout);
        block.push_word_bytes(&body.words);
        write_vars(&mut block);
        consts.write_into(&mut block);
        for &(relation, end) in &body.atoms {
            block.push_atom(relation, end as usize);
        }
        Ok(block.finish())
    }

    /// The layout of the query's block.
    #[inline]
    fn layout(&self) -> Layout {
        Layout::of(&self.block, self.num_vars())
    }

    /// The head of the query's block: its width, counts and the offsets
    /// the front door and the kinds need.
    #[inline]
    fn head(&self) -> Head {
        Head::of(&self.block, self.num_vars())
    }

    /// Checks the body against the variable table: variables declared with
    /// the kinds they are tagged with, and — if `every_var_used` — no
    /// declared variable missing from the body.  Returns the body's
    /// canonical hash, computed in the same walk: the first-occurrence
    /// numbering the hash needs is also the record of which declared
    /// variables occur.
    fn check(&self, every_var_used: bool) -> Result<u32> {
        let layout = self.layout();
        let consts = self.const_table(&layout);
        let kinds = &self.block;
        let words = &self.block[layout.words()..];
        let mut numbering = Numbering::new(self.num_vars());
        let mut hasher = ShapeHasher::new(layout.atoms);
        let width = layout.width;
        let mut start = 0;
        for entry in self.atom_table(&layout).chunks_exact(2 * width) {
            let end = read(entry, width, width);
            hasher.atom(RelId(read(entry, 0, width) as u32), end - start);
            for term in self::words(&words[WORD_BYTES * start..WORD_BYTES * end]) {
                match word::get(term) {
                    Word::Var(v, kind) => {
                        if v.index() >= self.num_vars() {
                            return Err(CqError::ConflictingVariableKind(format!(
                                "variable {v} is out of range"
                            )));
                        }
                        if kind_bit(kinds, v.index()) != kind {
                            return Err(CqError::ConflictingVariableKind(
                                self.var_name(v).to_owned(),
                            ));
                        }
                        hasher.var(numbering.number(v.0), kind);
                    }
                    Word::Const(index) => hasher.constant(consts.bytes(index)),
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

    /// The atom table: per atom its relation and term end.
    #[inline]
    fn atom_table(&self, layout: &Layout) -> &[u8] {
        &self.block[layout.atom_table()..layout.const_table()]
    }

    /// The query's constant table; empty if it has no constants.
    #[inline]
    fn const_table(&self, layout: &Layout) -> ConstTable<'_> {
        ConstTable {
            bytes: &self.block[layout.const_table()..layout.words()],
            ends_len: (layout.consts * layout.width) as u32,
            width: layout.width as u8,
        }
    }

    /// The query's constant table; empty if it has no constants.
    #[cfg(test)]
    pub(crate) fn consts(&self) -> ConstTable<'_> {
        self.head().consts_of(&self.block)
    }

    /// Where variable `i`'s name ends, counted from the first name's start.
    fn name_end(&self, layout: &Layout, i: usize) -> usize {
        read(
            &self.block,
            layout.name_ends() + i * layout.width,
            layout.width,
        )
    }

    /// Every variable's name, back to back in id order.
    fn names(&self) -> &str {
        let layout = self.layout();
        std::str::from_utf8(&self.block[layout.names()..]).expect("variable names are UTF-8")
    }

    /// The body atoms, in order.
    #[inline]
    pub fn atoms(&self) -> Atoms<'_> {
        atoms_of(&self.block, self.num_vars())
    }

    /// The query's structure: its block up to the name end offsets — the
    /// kind bitset, the width byte, the counts, the atom table, the
    /// constant table and the term words; everything but the names.  Two
    /// queries of equal structure and equal variable count have the same
    /// body, variable ids included, so they intern to one id.
    #[inline]
    pub(crate) fn structure(&self) -> &[u8] {
        &self.block[..self.layout().name_ends()]
    }

    /// Body atom `i`.
    ///
    /// # Panics
    ///
    /// Panics if the query has at most `i` atoms.
    #[inline]
    pub fn atom(&self, i: usize) -> AtomRef<'_> {
        let head = self.head();
        assert!(
            i < head.atoms,
            "atom {i} is not one of the query's {} atoms",
            head.atoms
        );
        let width = head.width;
        let entry = head.atom_table + 2 * width * i;
        let start = if i == 0 {
            0
        } else {
            read(&self.block, entry - width, width)
        };
        let end = read(&self.block, entry + width, width);
        AtomRef::of_words(
            RelId(read(&self.block, entry, width) as u32),
            &self.block[head.words + WORD_BYTES * start..head.words + WORD_BYTES * end],
            head.consts_of(&self.block),
        )
    }

    /// Every atom's terms, back to back in atom order.
    #[inline]
    pub fn terms(&self) -> Terms<'_> {
        let head = self.head();
        let terms = read(&self.block, head.const_table - head.width, head.width);
        Terms::of_words(
            &self.block[head.words..head.words + WORD_BYTES * terms],
            head.consts_of(&self.block),
        )
    }

    /// Every atom's terms as the query stores them: one [`word`] each.
    #[cfg(test)]
    pub(crate) fn words(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let layout = self.layout();
        words(&self.block[layout.words()..layout.name_ends()])
    }

    /// Number of body atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.head().atoms
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars as usize
    }

    /// Bytes of the query's heap block: the term words (4 bytes a term),
    /// the atom, constant and variable tables and the counts.  The header
    /// and the allocator's own rounding are not counted.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.block.len()
    }

    /// Heap blocks the query owns: one, its block.  What a clone allocates.
    #[inline]
    pub fn heap_blocks(&self) -> usize {
        1
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
        assert!(
            v.index() < self.num_vars(),
            "variable {v} is not one of the query's {} variables",
            self.num_vars()
        );
        kind_bit(&self.block, v.index())
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
        let layout = self.layout();
        let start = if i == 0 {
            0
        } else {
            self.name_end(&layout, i - 1)
        };
        let names = layout.names();
        std::str::from_utf8(&self.block[names + start..names + self.name_end(&layout, i)])
            .expect("a variable name is UTF-8")
    }

    /// All variable kinds, in variable id order.
    #[inline]
    pub fn var_kinds(&self) -> impl ExactSizeIterator<Item = VarKind> + '_ {
        let kinds = &self.block;
        (0..self.num_vars()).map(move |v| kind_bit(kinds, v))
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
        let layout = self.layout();
        let mut query =
            ConjunctiveQuery::pack(&body, self.num_vars(), layout.name_bytes, |block| {
                block.copy_vars(self)
            })
            .expect("a query keeps at least one atom");
        query.shape_hash = query
            .check(false)
            .expect("atoms of a valid query agree with its variable table");
        query
    }
}

/// Fails unless a word can hold every id of `num_vars` variables.
fn check_var_count(num_vars: usize) -> Result<()> {
    if num_vars > word::MAX_VAR as usize + 1 {
        return Err(CqError::ConflictingVariableKind(format!(
            "{num_vars} variables are out of range"
        )));
    }
    Ok(())
}

/// The words laid out in `bytes`, 4 little-endian bytes each.
#[inline]
pub(crate) fn words(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
    let (words, _) = bytes.as_chunks::<WORD_BYTES>();
    words.iter().map(|&word| u32::from_le_bytes(word))
}

/// The body atoms laid out in `block`, the block or the
/// [`structure`](ConjunctiveQuery::structure) of a query of `vars`
/// variables: only the structure is read.
#[inline]
pub(crate) fn atoms_of(block: &[u8], vars: usize) -> Atoms<'_> {
    let head = Head::of(block, vars);
    Atoms {
        table: head.atoms_of(block),
        width: head.width,
        words: &block[head.words..],
        consts: head.consts_of(block),
        start: 0,
    }
}

/// The body atoms of a [`ConjunctiveQuery`], in order:
/// [`ConjunctiveQuery::atoms`].
#[derive(Debug, Clone)]
pub struct Atoms<'a> {
    /// The atom table entries not yet visited.
    table: &'a [u8],
    /// Bytes per relation and per term end.
    width: usize,
    words: &'a [u8],
    consts: ConstTable<'a>,
    /// Where the front atom's terms start.
    start: usize,
}

impl<'a> Atoms<'a> {
    /// The remaining atoms' relations and term ends, read raw.
    #[inline]
    pub(crate) fn spans(&self) -> impl Iterator<Item = (RelId, usize)> + 'a {
        let width = self.width;
        self.table.chunks_exact(2 * width).map(move |entry| {
            (
                RelId(read(entry, 0, width) as u32),
                read(entry, width, width),
            )
        })
    }

    /// The words of the atoms ending at word `end`, laid out as the query
    /// stores them.
    #[inline]
    pub(crate) fn words_to(&self, end: usize) -> impl ExactSizeIterator<Item = u32> + 'a {
        words(&self.words[WORD_BYTES * self.start..WORD_BYTES * end])
    }

    /// The query's constant table.
    #[inline]
    pub(crate) fn consts(&self) -> ConstTable<'a> {
        self.consts
    }

    /// The atom of table entry `entry`, whose terms start at `start`.
    #[inline]
    fn atom(&self, entry: &[u8], start: usize) -> AtomRef<'a> {
        let width = self.width;
        let end = read(entry, width, width);
        AtomRef::of_words(
            RelId(read(entry, 0, width) as u32),
            &self.words[WORD_BYTES * start..WORD_BYTES * end],
            self.consts,
        )
    }
}

impl<'a> Iterator for Atoms<'a> {
    type Item = AtomRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<AtomRef<'a>> {
        if self.table.is_empty() {
            return None;
        }
        let (entry, rest) = self.table.split_at(2 * self.width);
        self.table = rest;
        let atom = self.atom(entry, self.start);
        self.start += atom.arity();
        Some(atom)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.table.len() / (2 * self.width);
        (len, Some(len))
    }
}

impl DoubleEndedIterator for Atoms<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.table.is_empty() {
            return None;
        }
        let width = self.width;
        let (rest, entry) = self.table.split_at(self.table.len() - 2 * width);
        self.table = rest;
        let start = if rest.is_empty() {
            self.start
        } else {
            read(rest, rest.len() - width, width)
        };
        Some(self.atom(entry, start))
    }
}

impl ExactSizeIterator for Atoms<'_> {}

/// Prints the atoms, kinds and names as lists, not as the block:
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
            None => self.vars.declare(kind, name),
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
                Arg::Const(c) => self.body.push_const(c.as_const_bytes()),
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
    fn builder_finds_thousands_of_names_again() {
        let c = catalog();
        let m = c.resolve("Meetings").unwrap();
        let name = |i: usize| {
            if i == 0 {
                String::new()
            } else {
                format!("v{i}")
            }
        };
        let declare = |b: &mut QueryBuilder, i: usize| {
            if i.is_multiple_of(2) {
                b.dvar(&name(i))
            } else {
                b.evar(&name(i))
            }
        };
        let n = 6_000;
        let mut b = QueryBuilder::new();
        let ids: Vec<VarId> = (0..n).map(|i| declare(&mut b, i)).collect();
        assert_eq!(ids, (0..n as u32).map(VarId).collect::<Vec<_>>());
        // Re-declaring every name, backwards, finds its variable (`v1` is
        // not `v10`, the empty name is a name) and declares nothing.
        for i in (0..n).rev() {
            assert_eq!(declare(&mut b, i), ids[i], "{:?}", name(i));
        }
        for pair in ids.chunks(2) {
            b.atom(m, [pair[0].into(), pair[1].into()]);
        }
        let q = b.build().unwrap();
        assert_eq!(q.num_vars(), n);
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!(q.var_name(v), name(i));
            assert_eq!(q.var_kind(v).is_existential(), i % 2 == 1);
        }
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
        // The padding takes the names past 255 bytes and past 64 KiB: every
        // width.
        for (pad, width) in [
            (String::new(), 1),
            ("z".repeat(300), 2),
            ("z".repeat(1 << 16), 4),
        ] {
            for ((a1, b1), (a2, b2)) in [(("ab", "c"), ("a", "bc")), (("", "a"), ("a", ""))] {
                let (b1, b2) = (format!("{b1}{pad}"), format!("{b2}{pad}"));
                let (p, q) = (named(a1, &b1), named(a2, &b2));
                assert_eq!((p.layout().width, q.layout().width), (width, width));
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
        // The width follows from the largest number the block stores, here
        // the names' total: 1 byte up to 255 name bytes, 2 up to exactly
        // `u16::MAX`, 4 from one byte past that.
        let max = usize::from(u16::MAX);
        let cases: [(Vec<String>, usize); 5] = [
            (vec!["né".into(), "日本".into(), "x🦀".into(), "".into()], 1),
            (vec![long.clone(), "y".into(), "z".into(), long.clone()], 4),
            (vec!["a".repeat(max), "".into()], 2),
            (vec!["a".repeat(max - 1), "é".into()], 4),
            (vec!["a".repeat(max), "".into(), "".into(), "b".into()], 4),
        ];
        for (names, width) in cases {
            let q = query_named(&names);
            assert_eq!(q.layout().width, width, "{} name bytes", q.names().len());
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
        // The block is the one word, the constant table — the entry (a
        // tag and `a`) and its end — the atom's relation and term end, the
        // two counts and the width: no kind, name end or name byte.
        for copy in [&q, &q.clone()] {
            let layout = copy.layout();
            assert_eq!((layout.vars, layout.name_bytes, layout.width), (0, 0, 1));
            assert_eq!(copy.heap_bytes(), 4 + 2 + 1 + 2 + 2 + 1, "{:?}", copy.block);
            assert_eq!(copy.consts().len(), 1);
        }
        assert_eq!(q.display_with(&c).to_string(), "Q() :- R('a')");
    }

    /// The words of `query`, decoded: a variable's id or a constant's
    /// index in the query's table.
    fn words(query: &ConjunctiveQuery) -> Vec<Word> {
        query.words().map(word::get).collect()
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
        // A string of any length is one entry: a tag and its text.  The
        // block is two words, the kind byte, `x`'s end and name, the entry
        // and its end, the atom's relation and term end, the two counts
        // and the width.
        let long = "a string constant well past fourteen bytes";
        let q = crate::parser::parse_query(&c, &format!("Q(x) :- Meetings(x, '{long}')")).unwrap();
        assert_eq!(q.consts().get(0), ConstRef::Str(long));
        assert_eq!(
            q.heap_bytes(),
            2 * 4 + 1 + 1 + 1 + (1 + long.len()) + 1 + 2 + 2 + 1
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

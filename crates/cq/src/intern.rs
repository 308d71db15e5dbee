//! The interned query plane: a flat, arena-backed representation of
//! conjunctive queries with dense [`QueryId`]s.
//!
//! Every hot path of the disclosure-control stack — cached labeling, the
//! service's admission loop, the benchmark workloads — repeatedly moves the
//! *same* query shapes around.  The boxed [`ConjunctiveQuery`] representation
//! (one block per query) is convenient to build and
//! display but a poor cache key: every query owns its own block and its
//! variable ids are arbitrary.
//!
//! [`QueryInterner`] fixes the representation the way `PolicyArena` fixed it
//! for compiled policies: queries are **alpha-renamed to a canonical form**
//! (variables renumbered by first occurrence in the body, exactly like the
//! numbering of [`canonical`](crate::canonical)'s keys) and **interned
//! into one flat arena** — a single term buffer ([`ITerm`] is one `u32`),
//! a single atom-span table ([`IAtom`]), a single variable-kind buffer,
//! and a constant table shared across all queries (each constant stored
//! once, found through an open-addressed index of its ids).  Interning
//! hands out dense `u32` [`QueryId`]s:
//!
//! * two alpha-equivalent queries (identical up to variable renaming) intern
//!   to the **same** id — `QueryId` equality *is* the canonical-key
//!   comparison, for free;
//! * structurally distinct queries get distinct ids;
//! * ids are dense, so caches keyed by query collapse from hash maps to
//!   plain indexed vectors.
//!
//! [`QueryInterner::resolve`] returns a [`QueryRef`] — a zero-copy view of
//! the flat representation.  Of the reasoning algorithms only the fold
//! ([`folding::fold_interned_indices`](crate::folding::fold_interned_indices))
//! runs on it, and the labeler's first-sight dissection reads its parts off
//! it, neither materializing a boxed query again; containment and
//! rewriting are decided on boxed queries.
//!
//! Interning is deliberately **syntactic** (like the canonical keys it
//! replaces): semantically equivalent queries with reordered atoms intern to
//! different ids and simply occupy two cache slots.  Semantic comparisons
//! remain the job of [`containment`](crate::containment).
//!
//! # Recognising a known query: read the hash, probe, compare bytes, compare
//!
//! The front door asks "have I seen this query?" once per admission, so the
//! lookup ([`QueryInterner::lookup`], and [`QueryInterner::intern`] of a known
//! shape) works on the operand **where it lies** and allocates nothing:
//!
//! 1. **Read the hash.**  A query carries its canonical hash
//!    ([`ConjunctiveQuery::shape_hash`]): the body hashed under
//!    first-occurrence variable numbering, constants by **value**.  Its
//!    constructor computed it while validating the body; a clone copies it.
//!    So no lookup hashes a query.
//! 2. **Probe.**  The hash indexes a flat open-addressed table of
//!    `QueryId`s (linear probing); each interned query keeps its 32-bit
//!    hash, so a probe rejects almost every other occupant of a chain with
//!    one integer comparison.
//! 3. **Compare bytes.**  An id may keep an **exemplar**: the structure of
//!    one operand the compare pass matched to it — the query's block up to
//!    its names (kind bits, width, counts, atom table, constant table, term
//!    words) — and that operand's variable count.  A candidate whose
//!    exemplar equals the operand's structure and variable count is a hit
//!    after one `memcmp`: equal bytes are the same body, variable ids
//!    included, so the same canonical form.  Apps resend the very query
//!    they sent before, so a repeat is almost always recognised here.
//! 4. **Compare pass.**  A candidate whose stored hash matches and whose
//!    exemplar does not (or that has none) is compared
//!    with the operand against the arena: first the atom count and each
//!    atom's relation and arity (the operand's atom table), then its
//!    term words against the entry's, term by term, in one walk that
//!    numbers the operand's variables as it goes: a variable's first
//!    occurrence takes the next canonical index, and every occurrence's
//!    index must be the stored one.  Each variable's kind, each constant's
//!    value and, at the end, the variable count must match too.  A hash
//!    hit is never trusted on
//!    its own — the id decides which label an admission gets — so a 32-bit
//!    hash only changes how often a probe meets a false candidate.
//!
//! Exemplars are recorded by the front door's own lookup,
//! [`QueryInterner::recognise`] (`&mut`): when the compare pass matches an
//! id that has no exemplar, the operand becomes it.  A shape's first sight
//! mints, its second records, and from its third on a resent operand costs
//! a `memcmp`; a shape seen once stores nothing.  `lookup` and `intern`
//! read exemplars and never record one.  Like the dedup table, exemplars
//! are derived: a checkpoint does not hold them, a decode starts without
//! them, and they change no id.
//!
//! Only a miss touches anything else: `intern` then appends to the arena
//! straight from the operand, numbering its variables as it copies them and
//! minting [`ConstId`]s for constants it has not seen.  A caller that looks
//! a shape up and interns it only on a miss calls `lookup`, then `intern`:
//! the hash travels inside the query, so the second probe costs no hashing.
//! [`QueryInterner::shape_hash`] hashes the arena's own entries — the same
//! hash, bit for bit — when a decode rebuilds the index.
//!
//! # Who owns the interner?
//!
//! One interner per serving stack: `fdc_core::CachedLabeler` owns it by
//! value and `fdc_service::DisclosureService` mints ids through it, so
//! queries are interned once at the front door and every layer below trades
//! in `QueryId`s.  Ids from one interner are meaningless to another (a
//! cloned labeler's interner included, once either side mints).

use std::cell::Cell;

use crate::catalog::RelId;
use crate::error::Result;
use crate::query::{atoms_of, Atoms, Body, ConjunctiveQuery, VarTable};
use crate::term::word::{self, Word};
use crate::term::{ConstBytes, Constant, VarId, VarKind};

/// Dense identifier of an interned query.
///
/// Ids are handed out consecutively from 0 by one [`QueryInterner`]; two
/// queries receive the same id **iff** they are structurally identical up to
/// variable renaming (same atoms in the same order, same constants, same
/// variable-equality pattern, same distinguished/existential tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a `usize`, convenient for indexing slot tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an interned constant within one [`QueryInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub u32);

impl ConstId {
    /// The id as a `usize`, convenient for indexing the constant table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One term of the flat representation: a canonical variable (index +
/// distinguished/existential tag) or an interned constant.
///
/// `ITerm` is one `u32`, so the arena's term buffer costs 4 bytes a term
/// and substitutions during homomorphism search are plain array writes.
/// Bit 31 is the const bit.  A constant keeps its 31-bit [`ConstId`] in
/// bits 0–30; a variable keeps its kind in bit 30 (set for existential)
/// and its 30-bit canonical index in bits 0–29.  Each term has exactly one
/// encoding, so comparing two terms is comparing two words.  [`get`]
/// returns the [`ITermView`] to match on.  A [`ConjunctiveQuery`] stores
/// its terms in the same layout, with its own variable ids and indices
/// into its own constant table.
///
/// [`get`]: ITerm::get
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ITerm(u32);

/// What an [`ITerm`] holds, to match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ITermView {
    /// A variable, identified by its canonical (first-occurrence) index.
    Var(u32, VarKind),
    /// A constant, identified by its id in the interner's constant table.
    Const(ConstId),
}

impl ITerm {
    /// The largest variable index a term can hold (30 bits).
    pub const MAX_VAR_INDEX: u32 = word::MAX_VAR;
    /// The largest constant id a term can hold (31 bits).
    pub const MAX_CONST_ID: u32 = word::MAX_CONST;
    const CONST_BIT: u32 = word::CONST_BIT;
    const EXISTENTIAL_BIT: u32 = word::EXISTENTIAL_BIT;

    /// The variable with canonical index `index` and kind `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is wider than 30 bits.
    #[inline]
    pub fn var(index: u32, kind: VarKind) -> Self {
        assert!(
            index <= Self::MAX_VAR_INDEX,
            "variable index {index} is wider than 30 bits"
        );
        ITerm(index | word::kind_bit(kind))
    }

    /// The constant with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is wider than 31 bits.
    #[inline]
    pub fn constant(id: ConstId) -> Self {
        assert!(
            id.0 <= Self::MAX_CONST_ID,
            "constant id {} is wider than 31 bits",
            id.0
        );
        ITerm(id.0 | Self::CONST_BIT)
    }

    /// The term as a variable or a constant.
    #[inline]
    pub fn get(self) -> ITermView {
        if self.0 & Self::CONST_BIT != 0 {
            ITermView::Const(ConstId(self.0 & Self::MAX_CONST_ID))
        } else if self.0 & Self::EXISTENTIAL_BIT != 0 {
            ITermView::Var(self.0 & Self::MAX_VAR_INDEX, VarKind::Existential)
        } else {
            ITermView::Var(self.0, VarKind::Distinguished)
        }
    }

    /// The canonical variable index, if the term is a variable.
    #[inline]
    pub fn var_index(self) -> Option<u32> {
        (!self.is_const()).then_some(self.0 & Self::MAX_VAR_INDEX)
    }

    /// True if the term is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 & Self::CONST_BIT != 0
    }

    /// True if the term is a distinguished variable.
    #[inline]
    pub fn is_distinguished(self) -> bool {
        self.0 & (Self::CONST_BIT | Self::EXISTENTIAL_BIT) == 0
    }

    /// The constant id's bits, for a term known to be a constant.
    #[inline]
    fn const_index(self) -> usize {
        (self.0 & Self::MAX_CONST_ID) as usize
    }
}

impl std::fmt::Debug for ITerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// One atom of the flat representation: a relation plus a span into a term
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IAtom {
    /// The atom's base relation.
    pub relation: RelId,
    /// Start of the atom's terms within the owning term buffer.
    pub term_start: u32,
    /// Number of terms (the atom's arity).
    pub term_len: u32,
}

impl IAtom {
    /// The atom's arity.
    #[inline]
    pub fn arity(self) -> usize {
        self.term_len as usize
    }

    /// The atom's terms within `terms` (the buffer the atom's spans index
    /// into — the arena buffer for interned atoms, a local buffer for
    /// temporaries).
    #[inline]
    pub fn terms(self, terms: &[ITerm]) -> &[ITerm] {
        &terms[self.term_start as usize..(self.term_start + self.term_len) as usize]
    }
}

/// A zero-copy view of one query in the flat representation.
///
/// `atoms` is the query's atom-span slice, `terms` the buffer those spans
/// index into, and `kinds` the per-variable tags (indexed by canonical
/// variable index).  Interned queries borrow all three from the arena
/// ([`QueryInterner::resolve`]); algorithms may also assemble temporary
/// `QueryRef`s over local buffers.
#[derive(Debug, Clone, Copy)]
pub struct QueryRef<'a> {
    /// The query's body atoms (spans into `terms`).
    pub atoms: &'a [IAtom],
    /// The term buffer the atom spans index into.
    pub terms: &'a [ITerm],
    /// Variable kinds, indexed by canonical variable index.
    pub kinds: &'a [VarKind],
}

impl<'a> QueryRef<'a> {
    /// Number of body atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.kinds.len()
    }

    /// True if the query has a single body atom.
    #[inline]
    pub fn is_single_atom(&self) -> bool {
        self.atoms.len() == 1
    }

    /// The terms of the `i`-th atom.
    #[inline]
    pub fn atom_terms(&self, i: usize) -> &'a [ITerm] {
        self.atoms[i].terms(self.terms)
    }

    /// The relation of the `i`-th atom.
    #[inline]
    pub fn relation(&self, i: usize) -> RelId {
        self.atoms[i].relation
    }

    /// The kind of a variable by canonical index.
    #[inline]
    pub fn var_kind(&self, v: u32) -> VarKind {
        self.kinds[v as usize]
    }
}

/// Span of one interned query within the arena buffers.
#[derive(Debug, Clone, Copy)]
struct QuerySpan {
    atom_start: u32,
    atom_len: u32,
    kind_start: u32,
    num_vars: u32,
}

/// What the interner derives of one interned query after the fact: the
/// span of its lazily computed fold (core) within the `fold_atoms` arena,
/// and the span of its exemplar within the `exemplars` arena.
#[derive(Debug, Clone, Copy)]
struct ShapeInfo {
    fold_start: u32,
    fold_len: u32,
    fold_cached: bool,
    /// The [`structure`](ConjunctiveQuery::structure) of one operand the
    /// compare pass matched to this id; empty (`exemplar_len` 0) until
    /// [`QueryInterner::recognise`] records one.  A structure is never
    /// empty, so an empty span matches no operand.
    exemplar_start: u32,
    exemplar_len: u32,
    /// That operand's variable count.
    exemplar_vars: u32,
}

impl ShapeInfo {
    /// The entry of a query that has just entered the arena.
    const FRESH: ShapeInfo = ShapeInfo {
        fold_start: 0,
        fold_len: 0,
        fold_cached: false,
        exemplar_start: 0,
        exemplar_len: 0,
        exemplar_vars: 0,
    };
}

/// How [`QueryInterner::recognise`] (and every lookup) found a known
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recognised {
    /// The operand's structure and variable count equal its id's
    /// exemplar's: one byte comparison.
    Bytes(QueryId),
    /// The compare pass matched the operand against the arena.
    Compared(QueryId),
}

impl Recognised {
    /// The id the operand interns to.
    #[inline]
    pub fn id(self) -> QueryId {
        match self {
            Recognised::Bytes(id) | Recognised::Compared(id) => id,
        }
    }
}

/// Variables a query may have before its first-occurrence numbering leaves
/// the stack.  The widest relation of the ecosystem schema (`User`) has 34
/// columns, so a two-atom join over it can have up to 68 variables and need
/// not fit.  Past 64 variables a [`Numbering`] allocates its spill vector:
/// once when the query is built, and once per compare pass and per append.
/// In `svc_bench`'s streams at seed 11 such queries are 1 729 of the
/// 217 977 queries of `hot_inline` (0.8 %) and 2 927 of the 40 000
/// `WorkloadConfig::stress(5)` queries of `cold_shapes` (7.3 %).
const INLINE_VARS: usize = 64;

const UNASSIGNED: u32 = u32::MAX;

/// A vacant slot of an open-addressed table of ids.
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// First-occurrence numbering of a query's variables: query variable id →
/// canonical index, assigned as a walk over the body meets each variable.
/// The query's constructor numbers it to compute
/// [`shape_hash`](ConjunctiveQuery::shape_hash); the compare pass and the
/// append number the operand again as they go.
pub(crate) struct Numbering {
    inline: [u32; INLINE_VARS],
    /// Used instead of `inline` when the query has more variables than
    /// fit; empty (and unallocated) otherwise.
    spill: Vec<u32>,
    /// Distinct variables numbered so far.
    assigned: u32,
}

impl Numbering {
    /// An empty numbering for variable ids below `var_bound`.
    pub(crate) fn new(var_bound: usize) -> Self {
        Numbering {
            inline: [UNASSIGNED; INLINE_VARS],
            spill: if var_bound > INLINE_VARS {
                vec![UNASSIGNED; var_bound]
            } else {
                Vec::new()
            },
            assigned: 0,
        }
    }

    /// The canonical index of variable `v`, assigning the next one on first
    /// sight.
    #[inline]
    pub(crate) fn number(&mut self, v: u32) -> u32 {
        let slots: &mut [u32] = if self.spill.is_empty() {
            &mut self.inline
        } else {
            &mut self.spill
        };
        let slot = &mut slots[v as usize];
        if *slot == UNASSIGNED {
            *slot = self.assigned;
            self.assigned += 1;
        }
        *slot
    }

    /// Variable `v` has been numbered.
    #[inline]
    pub(crate) fn is_numbered(&self, v: u32) -> bool {
        let slots: &[u32] = if self.spill.is_empty() {
            &self.inline
        } else {
            &self.spill
        };
        slots[v as usize] != UNASSIGNED
    }

    /// Distinct variables numbered so far.
    #[inline]
    pub(crate) fn assigned(&self) -> u32 {
        self.assigned
    }
}

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// One step of the canonical hash (rotate, xor, multiply: the rotation
/// carries high input bits back into the low half, which a bare multiply
/// never does).
#[inline]
fn hash_step(hash: u64, value: u64) -> u64 {
    (hash.rotate_left(5) ^ value).wrapping_mul(HASH_MULTIPLIER)
}

/// Final avalanche (MurmurHash3's 64-bit finaliser), so every output bit
/// depends on every input bit, folded to the 32 bits a query stores.
#[inline]
fn hash_finish(mut hash: u64) -> u32 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    (hash ^ (hash >> 32)) as u32
}

/// The first vacant slot of `hash`'s probe chain in an open-addressed
/// table of ids with at least one [`EMPTY_SLOT`].
pub(crate) fn vacant_slot(table: &[u32], hash: u32) -> usize {
    find_slot(table, hash, |_| false).expect_err("a chain of a table with a vacancy ends")
}

/// Walks `hash`'s probe chain in an open-addressed table of ids: the
/// first id for which `is` holds, else the vacant slot the chain ends at
/// (slot 0 of an empty table).
pub(crate) fn find_slot(
    table: &[u32],
    hash: u32,
    is: impl Fn(u32) -> bool,
) -> std::result::Result<u32, usize> {
    if table.is_empty() {
        return Err(0);
    }
    let mask = table.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match table[slot] {
            EMPTY_SLOT => return Err(slot),
            id if is(id) => return Ok(id),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// An open-addressed table of the ids `0..hashes.len()`, each under its
/// hash: twice as many slots as ids, rounded up to a power of two.
pub(crate) fn table_of(hashes: &[u32]) -> Vec<u32> {
    let mut table = vec![EMPTY_SLOT; (hashes.len() * 2).next_power_of_two()];
    for (id, &hash) in hashes.iter().enumerate() {
        let slot = vacant_slot(&table, hash);
        table[slot] = id as u32;
    }
    table
}

/// The key of a constant in the interner's constant index (and in a query
/// constructor's): its value hashed as
/// [`ShapeHasher::constant`] hashes it — a multiply per eight bytes, the
/// same on every run.
pub(crate) fn constant_hash(constant: ConstBytes<'_>) -> u32 {
    let mut hasher = ShapeHasher(HASH_SEED);
    hasher.constant(constant);
    hasher.finish()
}

/// The canonical hash of a query, fed its body in order: per atom its
/// relation and arity, per term a variable's canonical (first-occurrence)
/// index and kind or a constant's **value**.  Alpha-variants therefore hash
/// alike, and a known query is recognised without consulting the constant
/// table.  [`ConjunctiveQuery`]'s constructors and the interner's own
/// entries ([`QueryInterner::shape_hash`]) are hashed by this one type, so
/// the two agree bit for bit.
pub(crate) struct ShapeHasher(u64);

impl ShapeHasher {
    /// Starts the hash of a body of `num_atoms` atoms.
    #[inline]
    pub(crate) fn new(num_atoms: usize) -> Self {
        ShapeHasher(hash_step(HASH_SEED, num_atoms as u64))
    }

    /// Starts the next atom.
    #[inline]
    pub(crate) fn atom(&mut self, relation: RelId, arity: usize) {
        self.0 = hash_step(hash_step(self.0, u64::from(relation.0)), arity as u64);
    }

    /// A variable term, by its canonical index.
    #[inline]
    pub(crate) fn var(&mut self, index: u32, kind: VarKind) {
        let tag: u64 = match kind {
            VarKind::Distinguished => 0x1_0000_0000,
            VarKind::Existential => 0x2_0000_0000,
        };
        self.0 = hash_step(self.0, tag | u64::from(index));
    }

    /// A constant term, by value, so `Int(1)` and `Str("1")` differ.
    #[inline]
    pub(crate) fn constant(&mut self, constant: ConstBytes<'_>) {
        self.0 = match constant {
            ConstBytes::Int(i) => hash_step(hash_step(self.0, 0x3_0000_0000), i as u64),
            ConstBytes::Str(bytes) => {
                let mut hash = hash_step(hash_step(self.0, 0x4_0000_0000), bytes.len() as u64);
                let mut chunks = bytes.chunks_exact(8);
                for chunk in &mut chunks {
                    let word = u64::from_le_bytes(chunk.try_into().expect("chunks of eight bytes"));
                    hash = hash_step(hash, word);
                }
                let rest = chunks.remainder();
                if !rest.is_empty() {
                    let mut word = [0u8; 8];
                    word[..rest.len()].copy_from_slice(rest);
                    hash = hash_step(hash, u64::from_le_bytes(word));
                }
                hash
            }
        };
    }

    /// The finished 32-bit hash.
    #[inline]
    pub(crate) fn finish(self) -> u32 {
        hash_finish(self.0)
    }
}

/// The interning arena for conjunctive queries.
///
/// See the [module documentation](self) for the representation and the
/// canonicalization contract.  The interner only ever grows; `QueryId`s and
/// [`QueryRef`]s therefore stay valid for its whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct QueryInterner {
    terms: Vec<ITerm>,
    atoms: Vec<IAtom>,
    kinds: Vec<VarKind>,
    queries: Vec<QuerySpan>,
    consts: Vec<Constant>,
    /// [`constant_hash`] of each constant, indexed by `ConstId`.
    const_hashes: Vec<u32>,
    /// The constant index: an open-addressed, linearly probed table of
    /// `ConstId`s ([`EMPTY_SLOT`] where vacant), a power of two in length
    /// and at most half full.  A slot's key is `const_hashes[id]`; it holds
    /// no copy of a constant, so a candidate whose hash matches is compared
    /// against `consts`.
    const_table: Vec<u32>,
    /// Canonical hash of each interned query, indexed by `QueryId`.
    hashes: Vec<u32>,
    /// The dedup index: an open-addressed, linearly probed table of
    /// `QueryId`s ([`EMPTY_SLOT`] where vacant), a power of two in length
    /// and at most half full.  A slot's key is `hashes[id]`; candidates
    /// whose hash matches are still compared structurally against the
    /// arena.
    table: Vec<u32>,
    /// Fold side table, indexed by `QueryId`: spans into `fold_atoms`.
    shapes: Vec<ShapeInfo>,
    /// Arena of fold (core) results: indices of the surviving atoms, filled
    /// by [`record_core`](Self::record_core).
    fold_atoms: Vec<u32>,
    /// Arena of exemplars: per id at most one operand's structure, filled
    /// by [`recognise`](Self::recognise).  A derived cache like the dedup
    /// table: not encoded, empty after a decode.
    exemplars: Vec<u8>,
}

impl QueryInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        QueryInterner::default()
    }

    /// Number of interned queries (= the exclusive upper bound of the dense
    /// id space).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// True if `id` was issued by this interner.
    pub fn contains(&self, id: QueryId) -> bool {
        id.index() < self.queries.len()
    }

    /// Total number of terms in the arena (a capacity/footprint metric).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The constant behind an interned [`ConstId`].
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    pub fn constant(&self, id: ConstId) -> &Constant {
        &self.consts[id.index()]
    }

    /// The id of constant `c`, minted (and `c` copied into the table) on
    /// first sight.
    ///
    /// # Panics
    ///
    /// Panics on the 2³¹-th distinct constant: a term holds 31 bits of id.
    fn const_id_mut(&mut self, c: ConstBytes<'_>) -> ConstId {
        let hash = constant_hash(c);
        let slot = match self.find_const(c, hash) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        assert!(
            self.consts.len() <= ITerm::MAX_CONST_ID as usize,
            "the interner holds 2^31 distinct constants; a term cannot name another"
        );
        let id = ConstId(self.consts.len() as u32);
        self.consts.push(c.to_constant());
        self.const_hashes.push(hash);
        if self.consts.len() * 2 > self.const_table.len() {
            self.const_table = table_of(&self.const_hashes);
        } else {
            self.const_table[slot] = id.0;
        }
        id
    }

    /// Walks the probe chain of `hash`: the id of `c` if the table holds
    /// it, else the vacant slot the chain ends at.
    fn find_const(&self, c: ConstBytes<'_>, hash: u32) -> std::result::Result<ConstId, usize> {
        find_slot(&self.const_table, hash, |id| {
            self.const_hashes[id as usize] == hash && self.consts[id as usize].as_const_bytes() == c
        })
        .map(ConstId)
    }

    /// The arena view of a query span.
    fn span_ref(&self, span: QuerySpan) -> QueryRef<'_> {
        QueryRef {
            atoms: &self.atoms
                [span.atom_start as usize..(span.atom_start + span.atom_len) as usize],
            terms: &self.terms,
            kinds: &self.kinds
                [span.kind_start as usize..(span.kind_start + span.num_vars) as usize],
        }
    }

    /// Compare pass: true if `atoms`, the body of a query of `num_vars`
    /// variables, is term for term the interned query `id`.  Checks the
    /// atom count and each atom's relation and arity, then walks the
    /// operand's term words once, numbering its variables as it goes — a
    /// variable's first occurrence takes the next canonical index — and
    /// checks each variable's index and kind, each constant's value, and at
    /// the end the variable count.
    fn equals(&self, id: QueryId, atoms: Atoms<'_>, num_vars: usize) -> bool {
        let span = self.queries[id.index()];
        if span.atom_len as usize != atoms.len() {
            return false;
        }
        let stored = self.span_ref(span);
        // The atom tables first: relations and arities.
        let mut end = 0;
        for (atom, (relation, atom_end)) in stored.atoms.iter().zip(atoms.spans()) {
            if atom.relation != relation || atom.arity() != atom_end - end {
                return false;
            }
            end = atom_end;
        }
        // Then one run of terms against the other: a query's atoms hold
        // consecutive spans of the arena (`append` writes them so, and a
        // decode refuses anything else), and equal arities make the two
        // slices equally long.  The operand's words share the arena's
        // layout, so a variable's kind bit is compared in place; a
        // constant is compared by value, through the operand's table.
        let first = stored.atoms[0].term_start as usize;
        let operand = atoms.words_to(end);
        let consts = atoms.consts();
        let mut numbering = Numbering::new(num_vars);
        let same = stored.terms[first..first + operand.len()]
            .iter()
            .zip(operand)
            .all(|(stored, term)| {
                if term & ITerm::CONST_BIT != 0 {
                    stored.is_const()
                        && consts.is(
                            term & ITerm::MAX_CONST_ID,
                            &self.consts[stored.const_index()],
                        )
                } else {
                    !stored.is_const()
                        && (stored.0 ^ term) & ITerm::EXISTENTIAL_BIT == 0
                        && numbering.number(term & ITerm::MAX_VAR_INDEX)
                            == stored.0 & ITerm::MAX_VAR_INDEX
                }
            });
        same && numbering.assigned() == span.num_vars
    }

    /// Walks the probe chain of the query's stored hash once.  A candidate
    /// whose stored hash matches is a hit if its exemplar has the query's
    /// structure and variable count, else if the compare pass matches it.
    /// A hash match alone is never a hit.
    fn probe(&self, query: &ConjunctiveQuery) -> Option<Recognised> {
        let by_bytes = Cell::new(false);
        let id = self.find(query.shape_hash(), |id| {
            by_bytes.set(self.is_exemplar(id, query));
            by_bytes.get() || self.equals(id, query.atoms(), query.num_vars())
        })?;
        Some(if by_bytes.get() {
            Recognised::Bytes(id)
        } else {
            Recognised::Compared(id)
        })
    }

    /// The exemplar of `id` has `query`'s structure and variable count.
    #[inline]
    fn is_exemplar(&self, id: QueryId, query: &ConjunctiveQuery) -> bool {
        let shape = &self.shapes[id.index()];
        shape.exemplar_vars as usize == query.num_vars()
            && self.exemplars[shape.exemplar_start as usize..][..shape.exemplar_len as usize]
                == *query.structure()
    }

    /// Records `query`, which the compare pass matched to `id`, as the
    /// exemplar of an id that has none.  Past 4 GiB of exemplars nothing
    /// more is recorded: an exemplar only spares a compare pass.
    fn record_exemplar(&mut self, id: QueryId, query: &ConjunctiveQuery) {
        let structure = query.structure();
        let start = self.exemplars.len();
        if u32::try_from(start + structure.len()).is_err() {
            return;
        }
        let shape = &mut self.shapes[id.index()];
        debug_assert_eq!(shape.exemplar_len, 0, "an id records one exemplar");
        shape.exemplar_start = start as u32;
        shape.exemplar_len = structure.len() as u32;
        shape.exemplar_vars = query.num_vars() as u32;
        self.exemplars.extend_from_slice(structure);
    }

    /// The first indexed query on `hash`'s probe chain with that stored
    /// hash for which `is` holds.
    fn find(&self, hash: u32, is: impl Fn(QueryId) -> bool) -> Option<QueryId> {
        find_slot(&self.table, hash, |id| {
            self.hashes[id as usize] == hash && is(QueryId(id))
        })
        .ok()
        .map(QueryId)
    }

    /// Enters the newest query into every derived index: its `hash` into
    /// the dedup table (doubled first if that would fill it past half) and
    /// a fresh fold entry.
    fn index_newest(&mut self, hash: u32) {
        let id = QueryId(self.hashes.len() as u32);
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.table.len() {
            self.table = table_of(&self.hashes);
        } else {
            self.claim_slot(id.index());
        }
        self.shapes.push(ShapeInfo::FRESH);
    }

    /// Puts query `index` into the first vacant slot of its probe chain.
    fn claim_slot(&mut self, index: usize) {
        let slot = vacant_slot(&self.table, self.hashes[index]);
        self.table[slot] = index as u32;
    }

    /// Miss path: appends `query` to the arena straight from where it lies,
    /// numbering its variables by first occurrence as it copies them and
    /// minting ids for constants never seen before, and indexes it under
    /// its stored hash.
    fn append(&mut self, query: &ConjunctiveQuery) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        let atom_start = self.atoms.len() as u32;
        let kind_start = self.kinds.len();
        let mut numbering = Numbering::new(query.num_vars());
        let term_start = self.terms.len() as u32;
        let atoms = query.atoms();
        let mut end = 0;
        for (relation, atom_end) in atoms.spans() {
            self.atoms.push(IAtom {
                relation,
                term_start: term_start + end as u32,
                term_len: (atom_end - end) as u32,
            });
            end = atom_end;
        }
        let consts = atoms.consts();
        for term in atoms.words_to(end) {
            let interned = match word::get(term) {
                Word::Var(v, kind) => {
                    let index = numbering.number(v.0);
                    if index as usize == self.kinds.len() - kind_start {
                        self.kinds.push(kind);
                    }
                    ITerm::var(index, kind)
                }
                Word::Const(index) => ITerm::constant(self.const_id_mut(consts.bytes(index))),
            };
            self.terms.push(interned);
        }
        self.queries.push(QuerySpan {
            atom_start,
            atom_len: self.atoms.len() as u32 - atom_start,
            kind_start: kind_start as u32,
            num_vars: numbering.assigned(),
        });
        debug_assert_eq!(
            self.shape_hash(id),
            query.shape_hash(),
            "a query's stored hash disagrees with its arena entry's"
        );
        self.index_newest(query.shape_hash());
        id
    }

    /// Interns a query, returning its dense id.
    ///
    /// Alpha-equivalent queries share one id (and one copy of the flat
    /// representation).  A known shape is recognised in place, without
    /// allocating; only a new shape is copied into the arena.
    pub fn intern(&mut self, query: &ConjunctiveQuery) -> QueryId {
        match self.probe(query) {
            Some(found) => found.id(),
            None => self.append(query),
        }
    }

    /// Looks a query up without interning it.
    ///
    /// Returns the id the query *would* intern to, or `None` if its
    /// canonical form (or any of its constants) has never been interned.
    pub fn lookup(&self, query: &ConjunctiveQuery) -> Option<QueryId> {
        self.probe(query).map(Recognised::id)
    }

    /// The front door's lookup: [`lookup`](Self::lookup), saying how the
    /// query was recognised, and recording it as its id's exemplar when
    /// the compare pass matched it and the id has none yet.  So the second
    /// sight of a shape pays the compare pass once more, and every later
    /// operand with the exemplar's structure is recognised by one byte
    /// comparison.  Beyond what `lookup` allocates, it allocates only the
    /// exemplar arena's amortised growth, when it records.
    /// [`lookup`](Self::lookup) and
    /// [`intern`](Self::intern) read exemplars but never record one.
    pub fn recognise(&mut self, query: &ConjunctiveQuery) -> Option<Recognised> {
        let found = self.probe(query)?;
        if let Recognised::Compared(id) = found {
            if self.shapes[id.index()].exemplar_len == 0 {
                self.record_exemplar(id, query);
            }
        }
        Some(found)
    }

    /// Resolves an id to its zero-copy [`QueryRef`] view.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    #[inline]
    pub fn resolve(&self, id: QueryId) -> QueryRef<'_> {
        self.span_ref(self.queries[id.index()])
    }

    /// The query's core if its fold has already been computed and recorded,
    /// `None` before the first [`record_core`](Self::record_core) for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    pub fn cached_core(&self, id: QueryId) -> Option<&[u32]> {
        let shape = self.shapes[id.index()];
        shape.fold_cached.then(|| {
            &self.fold_atoms
                [shape.fold_start as usize..(shape.fold_start + shape.fold_len) as usize]
        })
    }

    /// Records `kept` — the result of
    /// [`fold_interned_indices`](crate::folding::fold_interned_indices) on
    /// `resolve(id)` — as the query's core.  Idempotent: the fold is a pure
    /// function of the query, so once a core is on record later calls
    /// change nothing.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner or `kept` is not a
    /// strictly increasing list of the query's atom indices.
    pub fn record_core(&mut self, id: QueryId, kept: &[u32]) {
        let num_atoms = self.queries[id.index()].atom_len;
        assert!(
            kept.windows(2).all(|pair| pair[0] < pair[1])
                && kept.last().map_or(num_atoms == 0, |&last| last < num_atoms),
            "a core lists atom indices of its query in increasing order"
        );
        let fold_start = self.fold_atoms.len() as u32;
        let shape = &mut self.shapes[id.index()];
        if shape.fold_cached {
            return;
        }
        shape.fold_start = fold_start;
        shape.fold_len = kept.len() as u32;
        shape.fold_cached = true;
        self.fold_atoms.extend_from_slice(kept);
    }

    /// Reconstructs an interned query as a boxed [`ConjunctiveQuery`].
    ///
    /// Variable names are synthesized (`x0`, `x1`, …) — interning keeps the
    /// structure, not the display names — so the result is extensionally
    /// equal to (and structurally identical with) every query that interned
    /// to `id`, but not `Eq`-identical to inputs with custom names.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    pub fn to_query(&self, id: QueryId) -> ConjunctiveQuery {
        self.try_to_query(id).expect("interned queries are valid")
    }

    /// The canonical hash of interned query `id`, computed from the arena:
    /// the [`shape_hash`](ConjunctiveQuery::shape_hash) of every query that
    /// interns to `id`.  The arena holds the query in canonical form
    /// already, so no numbering is needed.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    pub fn shape_hash(&self, id: QueryId) -> u32 {
        let query = self.resolve(id);
        let mut hasher = ShapeHasher::new(query.num_atoms());
        for i in 0..query.num_atoms() {
            let terms = query.atom_terms(i);
            hasher.atom(query.relation(i), terms.len());
            for term in terms {
                match term.get() {
                    ITermView::Var(index, kind) => hasher.var(index, kind),
                    ITermView::Const(c) => hasher.constant(self.consts[c.index()].as_const_bytes()),
                }
            }
        }
        hasher.finish()
    }

    /// Serializes the whole arena — constants, term buffer, atom spans,
    /// kind buffer, query spans — into `out` (the `fdc-cq` slice of a
    /// checkpoint); a term is a tag byte and a `u32`.  The derived indexes
    /// (constant index, dedup table, the fold side table) are *not*
    /// written; decoding rebuilds them, so the format stays minimal and
    /// cannot go out of sync with itself.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use fdc_durability::codec::{put_len, put_u32, put_u8};
        put_len(out, self.consts.len());
        for constant in &self.consts {
            crate::wire::put_constant(out, constant);
        }
        put_len(out, self.terms.len());
        for term in &self.terms {
            match term.get() {
                ITermView::Var(v, VarKind::Distinguished) => {
                    put_u8(out, 0);
                    put_u32(out, v);
                }
                ITermView::Var(v, VarKind::Existential) => {
                    put_u8(out, 1);
                    put_u32(out, v);
                }
                ITermView::Const(c) => {
                    put_u8(out, 2);
                    put_u32(out, c.0);
                }
            }
        }
        put_len(out, self.atoms.len());
        for atom in &self.atoms {
            put_u32(out, atom.relation.0);
            put_u32(out, atom.term_start);
            put_u32(out, atom.term_len);
        }
        put_len(out, self.kinds.len());
        for kind in &self.kinds {
            crate::wire::put_var_kind(out, *kind);
        }
        put_len(out, self.queries.len());
        for span in &self.queries {
            put_u32(out, span.atom_start);
            put_u32(out, span.atom_len);
            put_u32(out, span.kind_start);
            put_u32(out, span.num_vars);
        }
    }

    /// Deserializes an arena written by [`encode_into`](Self::encode_into)
    /// by building it again: each decoded query is interned, in id order,
    /// into a fresh interner, which rebuilds every derived index (constant
    /// index, dedup table, an empty fold side table) as construction leaves
    /// it.  The image is accepted only if construction reproduces it: query
    /// `i` must intern to `QueryId(i)`, and the rebuilt interner must
    /// encode to the image byte for byte.  So a duplicated shape, a
    /// non-canonical numbering, a constant no query uses or any other
    /// arena that [`intern`](Self::intern) cannot write is refused, and
    /// query ids issued before the encode resolve to the identical flat
    /// representation after the decode — the property that keeps
    /// `QueryId`s stable across restarts.
    ///
    /// Before anything is built, a term wider than an [`ITerm`] holds, a
    /// constant id past the table and a span out of range are refused, and
    /// so is a query whose atoms claim more terms than the image holds; the
    /// rebuild stops as soon as its arena outgrows the image's.  So a
    /// corrupt checkpoint yields a [`CodecError`], never a panic or an
    /// allocation the image's size does not bound.
    ///
    /// [`CodecError`]: fdc_durability::codec::CodecError
    pub fn decode_from(
        cursor: &mut fdc_durability::codec::Cursor<'_>,
    ) -> std::result::Result<Self, fdc_durability::codec::CodecError> {
        use fdc_durability::codec::CodecError;
        let mut section = cursor.clone();
        let mut image = QueryInterner::default();
        for _ in 0..cursor.count(2)? {
            image.consts.push(crate::wire::read_constant(cursor)?);
        }
        for _ in 0..cursor.count(5)? {
            let at = cursor.pos();
            let tag = cursor.u8()?;
            let value = cursor.u32()?;
            image.terms.push(match tag {
                0 | 1 if value > ITerm::MAX_VAR_INDEX => {
                    return Err(CodecError::invalid(at, "variable index wider than 30 bits"));
                }
                0 => ITerm::var(value, VarKind::Distinguished),
                1 => ITerm::var(value, VarKind::Existential),
                2 if value > ITerm::MAX_CONST_ID => {
                    return Err(CodecError::invalid(at, "constant id wider than 31 bits"));
                }
                2 if value as usize >= image.consts.len() => {
                    return Err(CodecError::invalid(at, "constant id out of range"));
                }
                2 => ITerm::constant(ConstId(value)),
                _ => return Err(CodecError::invalid(at, format!("unknown term tag {tag}"))),
            });
        }
        for _ in 0..cursor.count(12)? {
            let at = cursor.pos();
            let atom = IAtom {
                relation: RelId(cursor.u32()?),
                term_start: cursor.u32()?,
                term_len: cursor.u32()?,
            };
            if atom.term_start as u64 + atom.term_len as u64 > image.terms.len() as u64 {
                return Err(CodecError::invalid(at, "atom term span out of range"));
            }
            image.atoms.push(atom);
        }
        for _ in 0..cursor.count(1)? {
            image.kinds.push(crate::wire::read_var_kind(cursor)?);
        }
        let mut interner = QueryInterner::default();
        for i in 0..cursor.count(16)? {
            let at = cursor.pos();
            let span = QuerySpan {
                atom_start: cursor.u32()?,
                atom_len: cursor.u32()?,
                kind_start: cursor.u32()?,
                num_vars: cursor.u32()?,
            };
            if span.atom_start as u64 + span.atom_len as u64 > image.atoms.len() as u64
                || span.kind_start as u64 + span.num_vars as u64 > image.kinds.len() as u64
            {
                return Err(CodecError::invalid(at, "query span out of range"));
            }
            // Atoms may share terms in a hostile image; a query that would
            // be built from more terms than the image holds is refused
            // before it is built.
            let atoms = &image.atoms[span.atom_start as usize..][..span.atom_len as usize];
            let terms: u64 = atoms.iter().map(|atom| u64::from(atom.term_len)).sum();
            if terms > image.terms.len() as u64 {
                return Err(CodecError::invalid(
                    at,
                    "query holds more terms than the image",
                ));
            }
            image.queries.push(span);
            let query = image.try_to_query(QueryId(i as u32)).map_err(|error| {
                CodecError::invalid(at, format!("query does not build: {error}"))
            })?;
            let id = interner.intern(&query);
            if id.index() != i {
                return Err(CodecError::invalid(
                    at,
                    format!("query {i} interns as query {}", id.0),
                ));
            }
            // What construction reproduces is no larger than the image, so
            // the rebuilt arena stops growing as soon as it outgrows it.
            if interner.atoms.len() > image.atoms.len() || interner.terms.len() > image.terms.len()
            {
                return Err(CodecError::invalid(at, "query outgrows the image's arena"));
            }
        }
        let start = section.pos();
        let bytes = section.take(cursor.pos() - start)?;
        let mut rebuilt = Vec::with_capacity(bytes.len());
        interner.encode_into(&mut rebuilt);
        if rebuilt != bytes {
            let same = bytes.iter().zip(&rebuilt).take_while(|(a, b)| a == b);
            return Err(CodecError::invalid(
                start + same.count(),
                "image differs from the arena its queries build",
            ));
        }
        Ok(interner)
    }

    fn try_to_query(&self, id: QueryId) -> Result<ConjunctiveQuery> {
        let q = self.resolve(id);
        let vars = VarTable::numbered(q.kinds.to_vec());
        let num_terms = q.atoms.iter().map(|atom| atom.arity()).sum();
        let mut body = Body::with_capacity(q.num_atoms(), num_terms);
        for i in 0..q.num_atoms() {
            for term in q.atom_terms(i) {
                match term.get() {
                    ITermView::Var(v, kind) => body.push_var(VarId(v), kind),
                    ITermView::Const(c) => body.push_const(self.consts[c.index()].as_const_bytes()),
                }
            }
            body.end_atom(q.relation(i));
        }
        ConjunctiveQuery::from_body(body, vars, true)
    }

    /// Asserts what the dedup index promises of every entry: for every id
    /// `i`, `lookup(&to_query(i)) == Some(i)`, and the hash stored for `i`
    /// is the [`shape_hash`](ConjunctiveQuery::shape_hash) its
    /// reconstructed query's constructor computes.  So an entry is found by
    /// its own lookup, no two entries hold one shape, and the arena's hash
    /// and the constructors' agree.  And every recorded exemplar, read as
    /// a body, is term for term its id's arena entry.  A check for tests (a
    /// decode holds it by construction, since it interns every query
    /// again); it rebuilds every query.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, on the first entry that breaks any of them.
    pub fn check_invariants(&self) {
        for i in 0..self.len() as u32 {
            let id = QueryId(i);
            let query = self.to_query(id);
            assert_eq!(
                self.lookup(&query),
                Some(id),
                "interned query {i} is not found by its own lookup"
            );
            assert_eq!(
                self.hashes[id.index()],
                query.shape_hash(),
                "interned query {i}'s stored hash is not its query's shape hash"
            );
            let shape = self.shapes[id.index()];
            if shape.exemplar_len != 0 {
                let structure =
                    &self.exemplars[shape.exemplar_start as usize..][..shape.exemplar_len as usize];
                let vars = shape.exemplar_vars as usize;
                assert!(
                    self.equals(id, atoms_of(structure, vars), vars),
                    "interned query {i}'s exemplar is not its arena entry"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::canonical::structurally_identical;
    use crate::catalog::Catalog;
    use crate::parser::parse_query;
    use crate::term::Term;

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    #[test]
    fn alpha_equivalent_queries_intern_to_one_id() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let a = interner.intern(&q(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')"));
        let b = interner.intern(&q(&c, "Q(p) :- Meetings(p, r), Contacts(r, s, 'Intern')"));
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
        // Interning is idempotent.
        assert_eq!(
            interner.intern(&q(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')")),
            a
        );
    }

    #[test]
    fn structurally_distinct_queries_get_distinct_ids() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, 'Bob')",
            "Q() :- Meetings(x, y), Contacts(p, r, s)",
            "Q() :- Contacts(p, r, s), Meetings(x, y)",
        ];
        let ids: Vec<QueryId> = texts.iter().map(|t| interner.intern(&q(&c, t))).collect();
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                assert_eq!(a == b, i == j, "{} vs {}", texts[i], texts[j]);
            }
        }
        assert_eq!(interner.len(), texts.len());
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern(&q(&c, "Q(x) :- Meetings(x, y)"));
        let b = interner.intern(&q(&c, "Q(x, y) :- Meetings(x, y)"));
        assert_eq!((a, b), (QueryId(0), QueryId(1)));
        assert!(interner.contains(a) && interner.contains(b));
        assert!(!interner.contains(QueryId(2)));
        assert!(interner.num_terms() >= 4);

        let aref = interner.resolve(a);
        assert_eq!(aref.num_atoms(), 1);
        assert_eq!(aref.num_vars(), 2);
        assert!(aref.is_single_atom());
        assert_eq!(aref.var_kind(0), VarKind::Distinguished);
        assert_eq!(aref.var_kind(1), VarKind::Existential);
        assert_eq!(aref.atom_terms(0).len(), 2);
        assert_eq!(aref.relation(0), catalog().resolve("Meetings").unwrap());
    }

    #[test]
    fn lookup_never_interns() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let query = q(&c, "Q(x) :- Meetings(x, 'Cathy')");
        assert_eq!(interner.lookup(&query), None);
        assert_eq!(interner.len(), 0);
        let id = interner.intern(&query);
        assert_eq!(interner.lookup(&query), Some(id));
        // Alpha variant hits the same id; unknown constants miss cheaply.
        assert_eq!(
            interner.lookup(&q(&c, "Q(a) :- Meetings(a, 'Cathy')")),
            Some(id)
        );
        assert_eq!(interner.lookup(&q(&c, "Q(x) :- Meetings(x, 'Jim')")), None);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn to_query_reconstructs_the_canonical_form() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        for text in [
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, 9)",
            "Q(a, b, e) :- Contacts(a, b, e)",
        ] {
            let query = q(&c, text);
            let id = interner.intern(&query);
            let back = interner.to_query(id);
            assert!(
                structurally_identical(&query, &back),
                "round trip changed {text}: got {back:?}"
            );
            assert!(crate::containment::equivalent(&query, &back));
            assert!(back.validate(&c).is_ok());
        }
    }

    #[test]
    fn constants_are_shared_across_queries() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let a = interner.intern(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let b = interner.intern(&q(&c, "Q() :- Meetings(y, 'Cathy')"));
        assert_ne!(a, b);
        let ca = interner.resolve(a).atom_terms(0)[1];
        let cb = interner.resolve(b).atom_terms(0)[1];
        assert_eq!(ca, cb);
        let ITermView::Const(id) = ca.get() else {
            panic!("expected a constant term");
        };
        assert_eq!(interner.constant(id), &Constant::str("Cathy"));
    }

    #[test]
    fn encode_decode_round_trips_ids_and_dedup() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q() :- Meetings(z, z)",
            "Q(a) :- Meetings(a, 9)",
        ];
        let ids: Vec<QueryId> = texts.iter().map(|t| interner.intern(&q(&c, t))).collect();
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        let mut back = QueryInterner::decode_from(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        back.check_invariants();
        assert_eq!(back.len(), interner.len());
        for (text, &id) in texts.iter().zip(&ids) {
            // Lookups land on the original ids (the dedup index is back)...
            assert_eq!(back.lookup(&q(&c, text)), Some(id), "{text}");
            // ...re-interning mints nothing new...
            assert_eq!(back.intern(&q(&c, text)), id, "{text}");
            // ...and the flat representation is identical.
            assert!(structurally_identical(
                &interner.to_query(id),
                &back.to_query(id)
            ));
        }
        assert_eq!(back.len(), texts.len());
        // The decoded interner keeps growing normally.
        let fresh = back.intern(&q(&c, "Q(p, r) :- Meetings(p, r)"));
        assert_eq!(fresh.index(), texts.len());
    }

    #[test]
    fn decode_rejects_truncation_and_corrupt_spans() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        interner.intern(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = fdc_durability::codec::Cursor::new(&bytes[..cut]);
            assert!(
                QueryInterner::decode_from(&mut cursor).is_err(),
                "cut {cut}"
            );
        }
        // Corrupt the final query span's num_vars field out of range.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        assert!(QueryInterner::decode_from(&mut cursor).is_err());
    }

    #[test]
    fn decode_refuses_an_image_holding_one_shape_twice() {
        // Regression: a one-query image with its 16-byte span duplicated and
        // the query count set to 2 used to decode to two ids for one
        // shape, `lookup(&to_query(QueryId(1)))` answering `QueryId(0)`.
        let c = catalog();
        let mut interner = QueryInterner::new();
        interner.intern(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        let span = bytes.len() - 16;
        let count = span - 8;
        assert_eq!(bytes[count..span], 1u64.to_le_bytes());
        bytes[count..span].copy_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_within(span..);
        // Refused at the second query's offset: it interns to the first id.
        assert_eq!(
            decode_error(&bytes),
            (span + 16, "query 1 interns as query 0".to_owned())
        );
    }

    /// The image of `Q(x) :- Meetings(x, 'Cathy')` — terms `[x, 'Cathy']` —
    /// with the `u32` of term `index` overwritten by `value`, and the
    /// offset of that term (its tag byte).
    fn image_with_term_value(index: usize, value: u32) -> (Vec<u8>, usize) {
        let c = catalog();
        let mut interner = QueryInterner::new();
        interner.intern(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        let mut constant = Vec::new();
        crate::wire::put_constant(&mut constant, &Constant::str("Cathy"));
        // The constant count, the constant, the term count, then five bytes
        // a term: a tag and a u32.
        let at = 8 + constant.len() + 8 + 5 * index;
        bytes[at + 1..at + 5].copy_from_slice(&value.to_le_bytes());
        (bytes, at)
    }

    fn decode_error(bytes: &[u8]) -> (usize, String) {
        use fdc_durability::codec::CodecError;
        match QueryInterner::decode_from(&mut fdc_durability::codec::Cursor::new(bytes)) {
            Err(CodecError::Invalid { offset, what }) => (offset, what),
            other => panic!("decoded to {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_a_variable_index_wider_than_30_bits() {
        let (mut bytes, at) = image_with_term_value(0, 1 << 30);
        for tag in [0u8, 1] {
            bytes[at] = tag;
            assert_eq!(
                decode_error(&bytes),
                (at, "variable index wider than 30 bits".to_owned()),
                "tag {tag}"
            );
        }
        // The widest index an ITerm holds is refused only as out of range.
        let (bytes, at) = image_with_term_value(0, ITerm::MAX_VAR_INDEX);
        let (offset, what) = decode_error(&bytes);
        assert!(offset != at && what.contains("out of range"), "{what}");
    }

    #[test]
    fn decode_rejects_a_constant_id_wider_than_31_bits() {
        let (bytes, at) = image_with_term_value(1, 1 << 31);
        assert_eq!(bytes[at], 2, "term 1 is the constant");
        assert_eq!(
            decode_error(&bytes),
            (at, "constant id wider than 31 bits".to_owned())
        );
        let (bytes, at) = image_with_term_value(1, ITerm::MAX_CONST_ID);
        assert_eq!(
            decode_error(&bytes),
            (at, "constant id out of range".to_owned())
        );
    }

    #[test]
    fn a_term_is_one_u32_with_one_encoding_per_term() {
        assert_eq!(std::mem::size_of::<ITerm>(), 4);
        let max_var = ITerm::MAX_VAR_INDEX;
        let max_const = ConstId(ITerm::MAX_CONST_ID);
        for view in [
            ITermView::Var(0, VarKind::Distinguished),
            ITermView::Var(0, VarKind::Existential),
            ITermView::Var(max_var, VarKind::Distinguished),
            ITermView::Var(max_var, VarKind::Existential),
            ITermView::Const(ConstId(0)),
            ITermView::Const(max_const),
        ] {
            let term = match view {
                ITermView::Var(index, kind) => ITerm::var(index, kind),
                ITermView::Const(id) => ITerm::constant(id),
            };
            assert_eq!(term.get(), view);
            assert_eq!(term.is_const(), matches!(view, ITermView::Const(_)));
            assert_eq!(
                term.is_distinguished(),
                matches!(view, ITermView::Var(_, VarKind::Distinguished))
            );
            assert_eq!(
                term.var_index(),
                match view {
                    ITermView::Var(index, _) => Some(index),
                    ITermView::Const(_) => None,
                }
            );
        }
        // Equal words are equal terms: kind and const bits tell apart
        // terms whose low bits agree.
        let zero = [
            ITerm::var(0, VarKind::Distinguished),
            ITerm::var(0, VarKind::Existential),
            ITerm::constant(ConstId(0)),
        ];
        for (i, a) in zero.iter().enumerate() {
            for (j, b) in zero.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    #[should_panic(expected = "wider than 30 bits")]
    fn a_variable_index_past_30_bits_is_refused() {
        ITerm::var(1 << 30, VarKind::Existential);
    }

    #[test]
    #[should_panic(expected = "wider than 31 bits")]
    fn a_constant_id_past_31_bits_is_refused() {
        ITerm::constant(ConstId(1 << 31));
    }

    #[test]
    fn constants_are_stored_once_and_found_after_growth_and_decode() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let texts: Vec<String> = (0..100)
            .map(|i| {
                format!(
                    "Q(x) :- Meetings(x, 'c{}'), Meetings(x, {})",
                    i % 40,
                    i % 30
                )
            })
            .collect();
        for text in &texts {
            interner.intern(&q(&c, text));
        }
        // 40 strings and 30 integers, each once.
        assert_eq!(interner.consts.len(), 70);
        assert!(interner.const_table.len() >= 2 * interner.consts.len());
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        let mut back =
            QueryInterner::decode_from(&mut fdc_durability::codec::Cursor::new(&bytes)).unwrap();
        back.check_invariants();
        for (i, constant) in interner.consts.iter().enumerate() {
            let constant = constant.as_const_bytes();
            let hash = constant_hash(constant);
            assert_eq!(interner.find_const(constant, hash), Ok(ConstId(i as u32)));
            assert_eq!(back.find_const(constant, hash), Ok(ConstId(i as u32)));
        }
        // Interning a known constant again mints nothing.
        back.intern(&q(&c, "Q() :- Meetings(x, 'c7'), Meetings(x, 7)"));
        assert_eq!(back.consts.len(), 70);
        // A duplicate in the image is refused: construction stores one copy,
        // so the constant count is the first byte it does not reproduce.
        let mut one = QueryInterner::new();
        one.intern(&q(&c, "Q() :- Meetings(x, 7)"));
        let mut twice = Vec::new();
        one.encode_into(&mut twice);
        twice[..8].copy_from_slice(&2u64.to_le_bytes());
        // An integer constant is a tag byte and an i64.
        twice.splice(8..8, twice[8..17].to_vec());
        assert_eq!(
            decode_error(&twice),
            (
                0,
                "image differs from the arena its queries build".to_owned()
            )
        );
    }

    #[test]
    fn decode_rejects_non_canonical_queries() {
        use fdc_durability::codec::CodecError;
        let c = catalog();
        // One query, `Meetings(x0 d, x1 e)`: terms [Var(0,d), Var(1,e)].
        let pristine = || {
            let mut interner = QueryInterner::new();
            interner.intern(&q(&c, "Q(x) :- Meetings(x, y)"));
            interner
        };
        // Encodes an interner as it stands and decodes the bytes again.
        let reencode = |interner: &QueryInterner| {
            let mut bytes = Vec::new();
            interner.encode_into(&mut bytes);
            let decoded =
                QueryInterner::decode_from(&mut fdc_durability::codec::Cursor::new(&bytes));
            (bytes.len(), decoded)
        };
        assert!(reencode(&pristine()).1.is_ok());
        // The query span is the image's last 16 bytes; a query that does
        // not build is refused there.  One that builds but is numbered
        // otherwise than construction numbers it is refused at the first
        // byte construction does not reproduce: the value of term 0, after
        // the two empty-table and term counts and the term's tag.
        type Corrupt = fn(&mut QueryInterner);
        // The offset refused, from the image's length.
        type At = fn(usize) -> usize;
        let span = |len: usize| len - 16;
        let cases: [(&str, At, Corrupt); 6] = [
            ("out of range", span, |i| {
                i.terms[1] = ITerm::var(7, VarKind::Existential)
            }),
            // A tag that disagrees with its variable's kind.
            ("both as distinguished and as existential", span, |i| {
                i.terms[0] = ITerm::var(0, VarKind::Existential)
            }),
            // Not numbered by first occurrence.
            ("image differs", |_| 17, |i| i.terms.swap(0, 1)),
            // A declared variable that never occurs.
            ("does not appear in the query body", span, |i| {
                i.terms[1] = ITerm::var(0, VarKind::Distinguished)
            }),
            // A query without atoms.
            ("at least one body atom", span, |i| {
                i.queries[0].atom_len = 0
            }),
            // A second atom over the first one's terms: the query holds
            // more terms than the image.
            ("more terms than the image", span, |i| {
                let first = i.atoms[0];
                i.atoms.push(first);
                i.queries[0].atom_len = 2;
            }),
        ];
        for (expected, at, corrupt) in cases {
            let mut interner = pristine();
            corrupt(&mut interner);
            match reencode(&interner) {
                (len, Err(CodecError::Invalid { offset, what })) => {
                    assert!(what.contains(expected), "{expected}: got {what}");
                    assert_eq!(offset, at(len), "{expected}");
                }
                (_, other) => panic!("{expected}: decoded to {other:?}"),
            }
        }
    }

    /// Gives every interned query the stored hash `hash` and rebuilds the
    /// dedup table: all of them share one probe chain, in id order.
    fn forge_hashes(interner: &mut QueryInterner, hash: u32) {
        interner.hashes.fill(hash);
        interner.table.fill(EMPTY_SLOT);
        for index in 0..interner.hashes.len() {
            interner.claim_slot(index);
        }
    }

    #[test]
    fn colliding_shapes_resolve_to_their_own_ids() {
        let c = catalog();
        let meetings = c.resolve("Meetings").unwrap();
        let contacts = c.resolve("Contacts").unwrap();
        let (x, y) = (Term::dist(0), Term::exist(1));
        let raw = |relation, terms: &[&Term]| {
            let terms = terms.iter().map(|&t| t.clone()).collect();
            ConjunctiveQuery::from_atoms(vec![Atom::new(relation, terms)]).unwrap()
        };
        // Each shape differs from an earlier one in exactly one of the
        // conditions the compare pass checks.
        let shapes = [
            q(&c, "Q(x) :- Meetings(x, y)"),
            q(&c, "Q(y) :- Meetings(x, y)"),       // variable kind
            q(&c, "Q() :- Meetings(x, y)"),        // variable kind
            q(&c, "Q(x) :- Meetings(x, x)"),       // num_vars
            raw(contacts, &[&x, &y]),              // relation
            q(&c, "Q(x) :- Meetings(x, 'Cathy')"), // constant for variable
            q(&c, "Q(x) :- Meetings(x, 'Cathz')"), // constant value, last byte
            q(&c, "Q(x) :- Meetings(x, 1)"),
            q(&c, "Q(x) :- Meetings(x, '1')"), // constant type
            q(&c, "Q(x) :- Meetings(x, y), Meetings(x, y)"), // atom count
            q(&c, "Q(x, y) :- Meetings(x, y), Meetings(x, y)"),
            q(&c, "Q(x, y) :- Meetings(x, y), Meetings(y, x)"), // variable index
            raw(meetings, &[&x, &y, &x, &y]),                   // same flat terms, other arity
        ];
        // Under one forged hash every shape shares a probe chain and every
        // stored hash matches, so only the compare pass can tell them
        // apart.  Each shape walks the chain of all earlier ones and misses
        // before it is interned.
        let forged = 0xdead_beef_u32;
        let mut interner = QueryInterner::new();
        let mut ids = Vec::new();
        for shape in &shapes {
            forge_hashes(&mut interner, forged);
            assert_eq!(
                interner.lookup(&shape.clone().with_shape_hash(forged)),
                None
            );
            ids.push(interner.intern(shape));
        }
        forge_hashes(&mut interner, forged);
        assert_eq!(
            ids,
            (0..shapes.len() as u32).map(QueryId).collect::<Vec<_>>()
        );
        for (shape, &id) in shapes.iter().zip(&ids) {
            let forged_shape = shape.clone().with_shape_hash(forged);
            assert_eq!(interner.lookup(&forged_shape), Some(id));
            assert_eq!(interner.intern(&forged_shape), id);
            assert!(structurally_identical(shape, &interner.to_query(id)));
        }
        assert_eq!(interner.len(), shapes.len());
        // A stranger walks the whole chain and still misses.
        let stranger = q(&c, "Q() :- Meetings(z, z)").with_shape_hash(forged);
        assert_eq!(interner.lookup(&stranger), None);
        // With every shape's exemplar on the one chain, each is recognised
        // by its own bytes, and the stranger matches none of them.
        for (shape, &id) in shapes.iter().zip(&ids) {
            let forged_shape = shape.clone().with_shape_hash(forged);
            assert_eq!(
                interner.recognise(&forged_shape),
                Some(Recognised::Compared(id))
            );
        }
        for (shape, &id) in shapes.iter().zip(&ids) {
            let forged_shape = shape.clone().with_shape_hash(forged);
            assert_eq!(
                interner.recognise(&forged_shape),
                Some(Recognised::Bytes(id))
            );
        }
        assert_eq!(interner.recognise(&stranger), None);

        // The numbering is injective both ways: two operand variables never
        // share a stored index, and one operand variable never takes two.
        for (stored, operand) in [
            ("Q() :- Meetings(z, z)", "Q() :- Meetings(x, y)"),
            ("Q() :- Meetings(x, y)", "Q() :- Meetings(x, x)"),
        ] {
            let mut interner = QueryInterner::new();
            interner.intern(&q(&c, stored));
            forge_hashes(&mut interner, forged);
            let operand = q(&c, operand).with_shape_hash(forged);
            assert_eq!(interner.lookup(&operand), None, "{operand:?} vs {stored}");
        }
    }

    #[test]
    fn the_probe_table_survives_growth() {
        // Enough distinct shapes to double the table several times: every
        // earlier shape must stay findable after each rehash.
        let c = catalog();
        let mut interner = QueryInterner::new();
        let shapes: Vec<ConjunctiveQuery> = (0..200)
            .map(|i| q(&c, &format!("Q(x) :- Meetings(x, {i})")))
            .collect();
        for (i, shape) in shapes.iter().enumerate() {
            assert_eq!(interner.intern(shape), QueryId(i as u32));
            assert!(interner.table.len() >= 2 * interner.len());
            assert!(interner.table.len().is_power_of_two());
        }
        for (i, shape) in shapes.iter().enumerate() {
            assert_eq!(interner.lookup(shape), Some(QueryId(i as u32)));
        }
    }

    #[test]
    fn an_image_written_before_the_index_change_decodes_to_the_same_ids() {
        // `encode_into` output of the previous implementation for the three
        // queries below, interned in this order.  Derived indexes are not
        // serialised, so the bytes must still be what this one writes, and
        // decoding them must land every query on its old id.
        const IMAGE: &str = "0200000000000000010600000000000000496e7465726e0009000000000000000900\
            0000000000000000000000010100000001010000000102000000020000000000000000000201000000010000\
            0000010000000004000000000000000000000000000000020000000100000002000000030000000000000005\
            0000000200000000000000070000000200000005000000000000000001010001030000000000000000000000\
            0200000000000000030000000200000001000000030000000100000003000000010000000400000001000000";
        let image: Vec<u8> = (0..IMAGE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&IMAGE[i..i + 2], 16).unwrap())
            .collect();
        let c = catalog();
        let texts = [
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, 9)",
            "Q() :- Meetings(z, z)",
        ];
        let mut fresh = QueryInterner::new();
        for text in texts {
            fresh.intern(&q(&c, text));
        }
        let mut bytes = Vec::new();
        fresh.encode_into(&mut bytes);
        assert_eq!(bytes, image, "the checkpoint format changed");
        let mut cursor = fdc_durability::codec::Cursor::new(&image);
        let mut back = QueryInterner::decode_from(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        back.check_invariants();
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(back.lookup(&q(&c, text)), Some(QueryId(i as u32)), "{text}");
            assert_eq!(back.intern(&q(&c, text)), QueryId(i as u32), "{text}");
        }
        assert_eq!(back.len(), texts.len());
    }

    #[test]
    fn a_core_is_recorded_once_however_often_and_by_whomever_it_is_offered() {
        use crate::folding::fold_interned_indices;

        let c = catalog();
        let mut interner = QueryInterner::new();
        let id = interner.intern(&q(
            &c,
            "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(y, w, 'Intern')",
        ));
        assert_eq!(interner.cached_core(id), None);

        // Recording the same core twice leaves one span.
        let kept = fold_interned_indices(interner.resolve(id));
        assert_eq!(kept, vec![0, 2]);
        interner.record_core(id, &kept);
        interner.record_core(id, &kept);
        assert_eq!(interner.fold_atoms, kept);
        assert_eq!(interner.cached_core(id), Some(&kept[..]));
    }

    #[test]
    fn check_invariants_holds_after_interning_and_names_a_forged_hash() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        for text in [
            "Q(x) :- Meetings(x, 7), Meetings(x, '7'), Meetings(x, 7)",
            "Q() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, 'a string constant past fourteen bytes')",
        ] {
            interner.intern(&q(&c, text));
        }
        interner.check_invariants();
        interner.hashes[1] ^= 1;
        let forged = std::panic::catch_unwind(|| interner.check_invariants());
        let message = forged.expect_err("a forged hash breaks the invariants");
        let message = message
            .downcast_ref::<String>()
            .expect("the assertion formats its message");
        assert!(message.contains("interned query 1"), "{message}");
    }

    #[test]
    fn check_invariants_names_an_exemplar_that_is_not_its_entry() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        for text in ["Q(x) :- Meetings(x, y)", "Q(x, y) :- Meetings(x, y)"] {
            let query = q(&c, text);
            interner.intern(&query);
            interner.recognise(&query);
        }
        interner.check_invariants();
        // Swap the two exemplars: each is a valid structure, of the other id.
        let (first, second) = (interner.shapes[0], interner.shapes[1]);
        interner.shapes[0].exemplar_start = second.exemplar_start;
        interner.shapes[1].exemplar_start = first.exemplar_start;
        let forged = std::panic::catch_unwind(|| interner.check_invariants());
        let message = forged.expect_err("a swapped exemplar breaks the invariants");
        let message = message
            .downcast_ref::<String>()
            .expect("the assertion formats its message");
        assert!(message.contains("interned query 0's exemplar"), "{message}");
    }

    #[test]
    fn a_resent_operand_is_recognised_by_its_bytes_from_its_third_sight() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let query = q(&c, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        assert_eq!(interner.recognise(&query), None);
        let id = interner.intern(&query);
        // `intern` and `lookup` never record.
        assert_eq!(interner.intern(&query), id);
        assert_eq!(interner.lookup(&query), Some(id));
        assert!(interner.exemplars.is_empty());
        // The second sight through the front door records; the third is a
        // byte hit, and so is a clone.
        assert_eq!(interner.recognise(&query), Some(Recognised::Compared(id)));
        let recorded = interner.exemplars.len();
        assert_eq!(recorded, query.structure().len());
        assert_eq!(interner.recognise(&query), Some(Recognised::Bytes(id)));
        assert_eq!(
            interner.recognise(&query.clone()),
            Some(Recognised::Bytes(id))
        );
        // Names of the same lengths leave the structure as it is; other
        // variable ids do not, and a recorded id records nothing more.
        let renamed = q(&c, "Q(a) :- Meetings(a, b), Contacts(b, d, 'Intern')");
        assert_eq!(interner.recognise(&renamed), Some(Recognised::Bytes(id)));
        let permuted = ConjunctiveQuery::from_parts(
            query
                .atoms()
                .map(|atom| {
                    let terms = atom.terms().iter().map(|term| match term.to_term() {
                        Term::Var(v, kind) => Term::Var(VarId(2 - v.0), kind),
                        constant => constant,
                    });
                    Atom::new(atom.relation, terms.collect())
                })
                .collect(),
            vec![
                VarKind::Existential,
                VarKind::Existential,
                VarKind::Distinguished,
            ],
            vec!["w".into(), "y".into(), "x".into()],
        )
        .unwrap();
        assert_eq!(
            interner.recognise(&permuted),
            Some(Recognised::Compared(id))
        );
        assert_eq!(interner.exemplars.len(), recorded);
        interner.check_invariants();
        // A clone keeps its exemplars; a decode starts without them.
        assert_eq!(
            interner.clone().recognise(&query),
            Some(Recognised::Bytes(id))
        );
        let mut bytes = Vec::new();
        interner.encode_into(&mut bytes);
        let mut back =
            QueryInterner::decode_from(&mut fdc_durability::codec::Cursor::new(&bytes)).unwrap();
        assert!(back.exemplars.is_empty());
        assert_eq!(back.recognise(&query), Some(Recognised::Compared(id)));
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn a_core_that_is_not_a_list_of_the_querys_atoms_is_refused() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let id = interner.intern(&q(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)"));
        interner.record_core(id, &[1, 2]);
    }
}

//! The interned query plane: a flat, arena-backed representation of
//! conjunctive queries with dense [`QueryId`]s.
//!
//! Every hot path of the disclosure-control stack — cached labeling, the
//! service's admission loop, the benchmark workloads — repeatedly moves the
//! *same* query shapes around.  The boxed [`ConjunctiveQuery`] representation
//! (a `Vec<Atom>`, each atom's terms a boxed slice) is convenient to
//! build and display but a poor cache key: it is scattered over the heap and
//! its variable ids are arbitrary.
//!
//! [`QueryInterner`] fixes the representation the way `PolicyArena` fixed it
//! for compiled policies: queries are **alpha-renamed to a canonical form**
//! (variables renumbered by first occurrence in the body, exactly like the
//! numbering of [`canonical`](crate::canonical)'s keys) and **interned
//! into one flat arena** — a single term buffer ([`ITerm`] is one `Copy`
//! word), a single atom-span table ([`IAtom`]), a single variable-kind
//! buffer, and a constant table shared across all queries.  Interning hands
//! out dense `u32` [`QueryId`]s:
//!
//! * two alpha-equivalent queries (identical up to variable renaming) intern
//!   to the **same** id — `QueryId` equality *is* the canonical-key
//!   comparison, for free;
//! * structurally distinct queries get distinct ids;
//! * ids are dense, so caches keyed by query collapse from hash maps to
//!   plain indexed vectors.
//!
//! [`QueryInterner::resolve`] returns a [`QueryRef`] — a zero-copy view of
//! the flat representation that the reasoning algorithms
//! ([`homomorphism`](crate::homomorphism), [`containment`](crate::containment),
//! [`folding`](crate::folding), [`rewriting`](crate::rewriting)) operate on
//! directly, without materializing `Vec<Atom>` again.
//!
//! Interning is deliberately **syntactic** (like the canonical keys it
//! replaces): semantically equivalent queries with reordered atoms intern to
//! different ids and simply occupy two cache slots.  Semantic comparisons
//! remain the job of [`containment`](crate::containment).
//!
//! # Recognising a known query: hash in place, probe, compare
//!
//! The front door asks "have I seen this query?" once per admission, so the
//! lookup ([`QueryInterner::lookup`], and [`QueryInterner::intern`] of a known
//! shape) walks the operand **where it lies** and allocates nothing:
//!
//! 1. **Hash pass.**  The operand's atoms are hashed under first-occurrence
//!    variable numbering.  The numbering lives in an on-stack array of 64
//!    slots (one heap vector only for queries with more variables than
//!    that).  Constants are hashed by **value**, so no
//!    constant-table lookup happens on this path.
//! 2. **Probe.**  The hash indexes a flat open-addressed table of
//!    `QueryId`s (linear probing); each interned query keeps its full
//!    64-bit hash, so a probe rejects almost every other occupant of a
//!    chain with one integer comparison and the key is never re-hashed.
//! 3. **Compare pass.**  A candidate whose stored hash matches is compared
//!    with the operand term by term against the arena: atom count, variable
//!    count, each atom's relation and arity, each variable's canonical index
//!    and kind, each constant's value.  A hash hit is never trusted on its
//!    own — the id decides which label an admission gets.
//!
//! Only a miss touches anything else: `intern` then appends to the arena
//! straight from the operand, minting [`ConstId`]s for constants it has not
//! seen.  `intern` and `lookup` are one routine, which also hashes the
//! arena's own flat entries when a decode rebuilds the index.  A caller
//! that looks up under a read lock and inserts under a write lock uses
//! [`QueryInterner::locate`]: its miss carries the hash and numbering to
//! [`QueryInterner::intern_located`], which re-probes with the known hash
//! (another writer may have got there first) instead of hashing again.
//!
//! # Who owns the interner?
//!
//! One interner per serving stack: `fdc_core::CachedLabeler` owns a shared
//! handle and `fdc_service::DisclosureService` exposes it, so queries are
//! interned once at the front door and every layer below trades in
//! `QueryId`s.  Ids from one interner are meaningless to another.

use std::collections::HashMap;

use crate::atom::Atom;
use crate::catalog::RelId;
use crate::error::Result;
use crate::query::{ConjunctiveQuery, VarTable};
use crate::term::{Constant, Term, VarId, VarKind};

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
/// `ITerm` is a single `Copy` word, so term buffers pack densely and
/// substitutions during homomorphism search are plain array writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ITerm {
    /// A variable, identified by its canonical (first-occurrence) index.
    Var(u32, VarKind),
    /// A constant, identified by its id in the interner's constant table.
    Const(ConstId),
}

impl ITerm {
    /// The canonical variable index, if the term is a variable.
    #[inline]
    pub fn var_index(self) -> Option<u32> {
        match self {
            ITerm::Var(v, _) => Some(v),
            ITerm::Const(_) => None,
        }
    }

    /// True if the term is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, ITerm::Const(_))
    }

    /// True if the term is a distinguished variable.
    #[inline]
    pub fn is_distinguished(self) -> bool {
        matches!(self, ITerm::Var(_, VarKind::Distinguished))
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
/// `QueryRef`s over local buffers (e.g. the expansion built by
/// [`rewriting::interned_rewritable_from_single`](crate::rewriting::interned_rewritable_from_single)).
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

/// The span of one interned query's lazily computed fold (core) within the
/// `fold_atoms` arena.
#[derive(Debug, Clone, Copy)]
struct ShapeInfo {
    fold_start: u32,
    fold_len: u32,
    fold_cached: bool,
}

impl ShapeInfo {
    /// The entry of a query that has just entered the arena.
    const FRESH: ShapeInfo = ShapeInfo {
        fold_start: 0,
        fold_len: 0,
        fold_cached: false,
    };
}

/// One operand term as the lookup sees it, whichever layout it came from.
enum OpTerm<'a> {
    /// A variable under the operand's own numbering.
    Var(u32, VarKind),
    /// A constant carried by value (boxed operands).
    Value(&'a Constant),
    /// A constant already interned here (flat operands).
    Id(ConstId),
}

/// A query the interner can hash, compare and append in place: the boxed
/// [`ConjunctiveQuery`] of the front door, or a flat [`QueryRef`] (the
/// arena's own entries, hashed when the index is rebuilt after a decode).
trait Operand {
    type Term;
    /// An upper bound on the operand's variable ids (exclusive).
    fn var_bound(&self) -> usize;
    fn num_atoms(&self) -> usize;
    fn atom(&self, i: usize) -> (RelId, &[Self::Term]);
    fn view(term: &Self::Term) -> OpTerm<'_>;
}

impl Operand for ConjunctiveQuery {
    type Term = Term;

    #[inline]
    fn var_bound(&self) -> usize {
        self.num_vars()
    }

    #[inline]
    fn num_atoms(&self) -> usize {
        self.atoms().len()
    }

    #[inline]
    fn atom(&self, i: usize) -> (RelId, &[Term]) {
        let atom = &self.atoms()[i];
        (atom.relation, &atom.terms)
    }

    #[inline]
    fn view(term: &Term) -> OpTerm<'_> {
        match term {
            Term::Var(v, kind) => OpTerm::Var(v.0, *kind),
            Term::Const(c) => OpTerm::Value(c),
        }
    }
}

impl Operand for QueryRef<'_> {
    type Term = ITerm;

    #[inline]
    fn var_bound(&self) -> usize {
        self.kinds.len()
    }

    #[inline]
    fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    #[inline]
    fn atom(&self, i: usize) -> (RelId, &[ITerm]) {
        (self.atoms[i].relation, self.atom_terms(i))
    }

    #[inline]
    fn view(term: &ITerm) -> OpTerm<'_> {
        match *term {
            ITerm::Var(v, kind) => OpTerm::Var(v, kind),
            ITerm::Const(c) => OpTerm::Id(c),
        }
    }
}

/// Variables an operand may have before its numbering leaves the stack.
/// The widest relation of the ecosystem schema (`User`) has 34 columns, so
/// a two-atom join over it can have up to 68 variables and need not fit.
/// Queries past 64 variables allocate the spill vector on every lookup.
/// In `svc_bench`'s streams at seed 11 they are 1 729 of the 217 977
/// queries of `hot_inline` (0.8 %) and 2 927 of the 40 000
/// `WorkloadConfig::stress(5)` queries of `cold_shapes` (7.3 %).
const INLINE_VARS: usize = 64;

const UNASSIGNED: u32 = u32::MAX;

/// A vacant slot of the dedup table.
const EMPTY_SLOT: u32 = u32::MAX;

/// First-occurrence numbering of an operand's variables: operand variable
/// id → canonical index.  Filled by the hash pass, read by the compare pass
/// and the append.
#[derive(Debug)]
struct Numbering {
    inline: [u32; INLINE_VARS],
    /// Used instead of `inline` when the operand has more variables than
    /// fit; empty (and unallocated) otherwise.
    spill: Vec<u32>,
    /// Distinct variables numbered so far.
    assigned: u32,
}

impl Numbering {
    fn new(var_bound: usize) -> Self {
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

    /// The canonical index of operand variable `v`, assigning the next one
    /// on first sight.
    #[inline]
    fn number(&mut self, v: u32) -> u32 {
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

    /// The canonical index of an already numbered variable.
    #[inline]
    fn get(&self, v: u32) -> u32 {
        if self.spill.is_empty() {
            self.inline[v as usize]
        } else {
            self.spill[v as usize]
        }
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

/// Final avalanche (MurmurHash3's 64-bit finaliser), so the low bits that
/// index the probe table depend on every input bit.
#[inline]
fn hash_finish(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

#[inline]
fn hash_var(hash: u64, index: u32, kind: VarKind) -> u64 {
    let tag: u64 = match kind {
        VarKind::Distinguished => 0x1_0000_0000,
        VarKind::Existential => 0x2_0000_0000,
    };
    hash_step(hash, tag | u64::from(index))
}

/// Hashes a constant by value, so `Int(1)` and `Str("1")` differ and a
/// known query is recognised without consulting the constant table.
#[inline]
fn hash_constant(hash: u64, constant: &Constant) -> u64 {
    match constant {
        Constant::Int(i) => hash_step(hash_step(hash, 0x3_0000_0000), *i as u64),
        Constant::Str(s) => {
            let bytes = s.as_bytes();
            let mut hash = hash_step(hash_step(hash, 0x4_0000_0000), bytes.len() as u64);
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
    }
}

/// What a [`QueryInterner::locate`] that missed computed — the query's
/// canonical hash and first-occurrence numbering — carried to
/// [`QueryInterner::intern_located`], so a shape seen for the first time is
/// walked for its hash once even when the lookup and the insert take
/// different locks.
#[derive(Debug)]
pub struct LocatedMiss<'q> {
    query: &'q ConjunctiveQuery,
    numbering: Numbering,
    hash: u64,
}

/// The interning arena for conjunctive queries.
///
/// See the [module documentation](self) for the representation and the
/// canonicalization contract.  The interner only ever grows; `QueryId`s and
/// [`QueryRef`]s therefore stay valid for its whole lifetime.
#[derive(Debug, Default)]
pub struct QueryInterner {
    terms: Vec<ITerm>,
    atoms: Vec<IAtom>,
    kinds: Vec<VarKind>,
    queries: Vec<QuerySpan>,
    consts: Vec<Constant>,
    const_ids: HashMap<Constant, ConstId>,
    /// Canonical hash of each interned query, indexed by `QueryId`.
    hashes: Vec<u64>,
    /// The dedup index: an open-addressed, linearly probed table of
    /// `QueryId`s ([`EMPTY_SLOT`] where vacant), a power of two in length
    /// and at most half full.  A slot's key is `hashes[id]`; candidates
    /// whose hash matches are still compared structurally against the
    /// arena.
    table: Vec<u32>,
    /// Fold side table, indexed by `QueryId`: spans into `fold_atoms`.
    shapes: Vec<ShapeInfo>,
    /// Arena of fold (core) results: indices of the surviving atoms, filled
    /// lazily by [`core_atom_indices`](Self::core_atom_indices).
    fold_atoms: Vec<u32>,
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

    fn const_id_mut(&mut self, c: &Constant) -> ConstId {
        if let Some(&id) = self.const_ids.get(c) {
            return id;
        }
        let id = ConstId(self.consts.len() as u32);
        self.consts.push(c.clone());
        self.const_ids.insert(c.clone(), id);
        id
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

    /// Hash pass: the canonical hash of `operand`, numbering its variables
    /// by first occurrence into `numbering` on the way.
    fn hash_operand<O: Operand>(&self, operand: &O, numbering: &mut Numbering) -> u64 {
        let mut hash = hash_step(HASH_SEED, operand.num_atoms() as u64);
        for i in 0..operand.num_atoms() {
            let (relation, terms) = operand.atom(i);
            hash = hash_step(hash, u64::from(relation.0));
            hash = hash_step(hash, terms.len() as u64);
            for term in terms {
                hash = match O::view(term) {
                    OpTerm::Var(v, kind) => hash_var(hash, numbering.number(v), kind),
                    OpTerm::Value(constant) => hash_constant(hash, constant),
                    OpTerm::Id(id) => hash_constant(hash, &self.consts[id.index()]),
                };
            }
        }
        hash_finish(hash)
    }

    /// Compare pass: true if `operand`, under the numbering its hash pass
    /// produced, is term for term the interned query `id`.
    fn equals<O: Operand>(&self, id: QueryId, operand: &O, numbering: &Numbering) -> bool {
        let span = self.queries[id.index()];
        if span.atom_len as usize != operand.num_atoms() || span.num_vars != numbering.assigned {
            return false;
        }
        let stored = self.span_ref(span);
        stored.atoms.iter().enumerate().all(|(i, atom)| {
            let (relation, terms) = operand.atom(i);
            atom.relation == relation
                && atom.arity() == terms.len()
                && atom
                    .terms(stored.terms)
                    .iter()
                    .zip(terms)
                    .all(|(stored, term)| match (O::view(term), *stored) {
                        (OpTerm::Var(v, kind), ITerm::Var(index, stored_kind)) => {
                            numbering.get(v) == index && kind == stored_kind
                        }
                        (OpTerm::Value(constant), ITerm::Const(stored_id)) => {
                            self.consts[stored_id.index()] == *constant
                        }
                        (OpTerm::Id(id), ITerm::Const(stored_id)) => id == stored_id,
                        _ => false,
                    })
        })
    }

    /// The one lookup routine behind [`intern`](Self::intern) and
    /// [`locate`](Self::locate): hash the operand in
    /// place, probe the dedup table, and compare every candidate whose
    /// stored hash matches.  Returns the hash with the verdict so a miss can
    /// be appended without hashing again.
    fn locate_operand<O: Operand>(
        &self,
        operand: &O,
        numbering: &mut Numbering,
    ) -> (u64, Option<QueryId>) {
        let hash = self.hash_operand(operand, numbering);
        (hash, self.probe(operand, numbering, hash))
    }

    /// Walks the probe chain of `hash`; a hash match alone is never a hit.
    fn probe<O: Operand>(&self, operand: &O, numbering: &Numbering, hash: u64) -> Option<QueryId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let occupant = self.table[slot];
            if occupant == EMPTY_SLOT {
                return None;
            }
            let id = QueryId(occupant);
            if self.hashes[id.index()] == hash && self.equals(id, operand, numbering) {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Enters the first query not yet indexed (the newest one, bar a
    /// decode) into every derived index: its `hash` into the dedup table
    /// (doubled first if that would fill it past half) and a fresh fold
    /// entry.
    fn index_newest(&mut self, hash: u64) {
        let id = QueryId(self.hashes.len() as u32);
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.table.len() {
            let slots = (self.hashes.len() * 2).next_power_of_two();
            self.table = vec![EMPTY_SLOT; slots];
            for index in 0..id.index() {
                self.claim_slot(index);
            }
        }
        self.claim_slot(id.index());
        self.shapes.push(ShapeInfo::FRESH);
    }

    /// Puts query `index` into the first vacant slot of its probe chain.
    fn claim_slot(&mut self, index: usize) {
        let mask = self.table.len() - 1;
        let mut slot = self.hashes[index] as usize & mask;
        while self.table[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = index as u32;
    }

    /// Miss path: appends `operand` to the arena straight from where it
    /// lies, under the numbering and hash its lookup produced, minting ids
    /// for constants never seen before.
    fn append<O: Operand>(&mut self, operand: &O, numbering: &Numbering, hash: u64) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        let atom_start = self.atoms.len() as u32;
        let kind_start = self.kinds.len();
        for i in 0..operand.num_atoms() {
            let (relation, terms) = operand.atom(i);
            let term_start = self.terms.len() as u32;
            for term in terms {
                let interned = match O::view(term) {
                    OpTerm::Var(v, kind) => {
                        let index = numbering.get(v);
                        if index as usize == self.kinds.len() - kind_start {
                            self.kinds.push(kind);
                        }
                        ITerm::Var(index, kind)
                    }
                    OpTerm::Value(constant) => ITerm::Const(self.const_id_mut(constant)),
                    OpTerm::Id(id) => ITerm::Const(id),
                };
                self.terms.push(interned);
            }
            self.atoms.push(IAtom {
                relation,
                term_start,
                term_len: terms.len() as u32,
            });
        }
        self.queries.push(QuerySpan {
            atom_start,
            atom_len: self.atoms.len() as u32 - atom_start,
            kind_start: kind_start as u32,
            num_vars: numbering.assigned,
        });
        self.index_newest(hash);
        id
    }

    /// [`locate_operand`](Self::locate_operand), then
    /// [`append`](Self::append) on a miss.
    fn intern_operand<O: Operand>(&mut self, operand: &O) -> QueryId {
        let mut numbering = Numbering::new(operand.var_bound());
        match self.locate_operand(operand, &mut numbering) {
            (_, Some(id)) => id,
            (hash, None) => self.append(operand, &numbering, hash),
        }
    }

    /// Interns a query, returning its dense id.
    ///
    /// Alpha-equivalent queries share one id (and one copy of the flat
    /// representation).  A known shape is recognised in place, without
    /// allocating; only a new shape is copied into the arena.
    pub fn intern(&mut self, query: &ConjunctiveQuery) -> QueryId {
        self.intern_operand(query)
    }

    /// Looks a query up without interning it.
    ///
    /// Returns the id the query *would* intern to, or `None` if its
    /// canonical form (or any of its constants) has never been interned.
    pub fn lookup(&self, query: &ConjunctiveQuery) -> Option<QueryId> {
        self.locate(query).ok()
    }

    /// [`lookup`](Self::lookup) that, on a miss, hands back what it
    /// computed, so [`intern_located`](Self::intern_located) can insert the
    /// query without hashing it again — the shape of a caller that looks up
    /// under a read lock and inserts under a write lock.
    // The miss carries the on-stack numbering by value: boxing it would add
    // an allocation to every first sight, and a hit writes only the id.
    #[allow(clippy::result_large_err)]
    pub fn locate<'q>(
        &self,
        query: &'q ConjunctiveQuery,
    ) -> std::result::Result<QueryId, LocatedMiss<'q>> {
        let mut numbering = Numbering::new(query.var_bound());
        match self.locate_operand(query, &mut numbering) {
            (_, Some(id)) => Ok(id),
            (hash, None) => Err(LocatedMiss {
                query,
                numbering,
                hash,
            }),
        }
    }

    /// Interns the query a [`locate`](Self::locate) missed, under the hash
    /// and numbering that lookup computed: the dedup table is probed again
    /// with the known hash — another holder of the interner may have
    /// interned the shape since — and only a shape still unknown is
    /// appended.  The id is exactly what [`intern`](Self::intern) returns.
    pub fn intern_located(&mut self, miss: LocatedMiss<'_>) -> QueryId {
        let LocatedMiss {
            query,
            numbering,
            hash,
        } = miss;
        match self.probe(query, &numbering, hash) {
            Some(id) => id,
            None => self.append(query, &numbering, hash),
        }
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

    /// Indices of the atoms surviving folding — the query's core, in
    /// original atom order.
    ///
    /// The fold (NP-hard in general) runs on the **first** request for each
    /// query and is replayed from the side table on every later one, so
    /// repeated dissections of one shape pay the search exactly once per
    /// interner lifetime.
    ///
    /// Callers sharing the interner behind a lock should not pay for the
    /// search under the write lock: check [`cached_core`](Self::cached_core)
    /// and run [`fold_interned_indices`](crate::folding::fold_interned_indices)
    /// under the read lock, then [`record_core`](Self::record_core).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this interner.
    pub fn core_atom_indices(&mut self, id: QueryId) -> &[u32] {
        if !self.shapes[id.index()].fold_cached {
            let kept = crate::folding::fold_interned_indices(self.resolve(id));
            self.record_core(id, &kept);
        }
        self.cached_core(id).expect("the core was just recorded")
    }

    /// The query's core if its fold has already been computed and recorded,
    /// `None` before the first [`core_atom_indices`](Self::core_atom_indices)
    /// or [`record_core`](Self::record_core) for `id`.
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
    /// function of the query, so once a core is on record (this caller's or
    /// another thread's, computed between two locks) later calls change
    /// nothing.
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

    /// The canonical hash of interned query `id`, computed from the arena by
    /// the same hash pass that serves operands (used to rebuild the dedup
    /// index after [`decode_from`](Self::decode_from)).
    fn hash_interned(&self, id: QueryId) -> u64 {
        let query = self.span_ref(self.queries[id.index()]);
        self.hash_operand(&query, &mut Numbering::new(query.var_bound()))
    }

    /// Serializes the whole arena — constants, term buffer, atom spans,
    /// kind buffer, query spans — into `out` (the `fdc-cq` slice of a
    /// checkpoint).  The derived indexes (constant lookup, dedup
    /// table, the fold side table) are *not*
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
            match *term {
                ITerm::Var(v, VarKind::Distinguished) => {
                    put_u8(out, 0);
                    put_u32(out, v);
                }
                ITerm::Var(v, VarKind::Existential) => {
                    put_u8(out, 1);
                    put_u32(out, v);
                }
                ITerm::Const(c) => {
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

    /// Deserializes an arena written by [`encode_into`](Self::encode_into),
    /// rebuilding every derived index (constant lookup, dedup table, an
    /// empty fold side table) as
    /// [`intern`](Self::intern) would leave it.  All spans are
    /// bounds-checked and every query is checked to be in canonical form
    /// (variable indices in range, tags agreeing with the kind buffer,
    /// first-occurrence numbering), so a corrupt checkpoint yields a
    /// [`CodecError`], never a panicking interner or one that cannot find
    /// its own entries.  Query ids issued before the encode resolve to the
    /// identical flat representation after the decode — the property
    /// that keeps `QueryId`s stable across restarts.
    ///
    /// [`CodecError`]: fdc_durability::codec::CodecError
    pub fn decode_from(
        cursor: &mut fdc_durability::codec::Cursor<'_>,
    ) -> std::result::Result<Self, fdc_durability::codec::CodecError> {
        use fdc_durability::codec::CodecError;
        let num_consts = cursor.count(2)?;
        let mut consts = Vec::with_capacity(num_consts);
        let mut const_ids = HashMap::with_capacity(num_consts);
        for _ in 0..num_consts {
            let at = cursor.pos();
            let constant = crate::wire::read_constant(cursor)?;
            let id = ConstId(consts.len() as u32);
            if const_ids.insert(constant.clone(), id).is_some() {
                return Err(CodecError::invalid(at, "duplicate constant in table"));
            }
            consts.push(constant);
        }
        let num_terms = cursor.count(5)?;
        let mut terms = Vec::with_capacity(num_terms);
        for _ in 0..num_terms {
            let at = cursor.pos();
            let tag = cursor.u8()?;
            let value = cursor.u32()?;
            terms.push(match tag {
                0 => ITerm::Var(value, VarKind::Distinguished),
                1 => ITerm::Var(value, VarKind::Existential),
                2 => {
                    if value as usize >= consts.len() {
                        return Err(CodecError::invalid(at, "constant id out of range"));
                    }
                    ITerm::Const(ConstId(value))
                }
                _ => return Err(CodecError::invalid(at, format!("unknown term tag {tag}"))),
            });
        }
        let num_atoms = cursor.count(12)?;
        let mut atoms = Vec::with_capacity(num_atoms);
        for _ in 0..num_atoms {
            let at = cursor.pos();
            let atom = IAtom {
                relation: RelId(cursor.u32()?),
                term_start: cursor.u32()?,
                term_len: cursor.u32()?,
            };
            if atom.term_start as u64 + atom.term_len as u64 > terms.len() as u64 {
                return Err(CodecError::invalid(at, "atom term span out of range"));
            }
            atoms.push(atom);
        }
        let num_kinds = cursor.count(1)?;
        let mut kinds = Vec::with_capacity(num_kinds);
        for _ in 0..num_kinds {
            kinds.push(crate::wire::read_var_kind(cursor)?);
        }
        let num_queries = cursor.count(16)?;
        let mut queries = Vec::with_capacity(num_queries);
        for _ in 0..num_queries {
            let at = cursor.pos();
            let span = QuerySpan {
                atom_start: cursor.u32()?,
                atom_len: cursor.u32()?,
                kind_start: cursor.u32()?,
                num_vars: cursor.u32()?,
            };
            if span.atom_start as u64 + span.atom_len as u64 > atoms.len() as u64
                || span.kind_start as u64 + span.num_vars as u64 > kinds.len() as u64
            {
                return Err(CodecError::invalid(at, "query span out of range"));
            }
            // Only a canonical entry can be found by its own lookup (anything
            // else would silently mint duplicates), and every search over a
            // resolved query indexes per-variable tables by these indices.
            let query_atoms =
                &atoms[span.atom_start as usize..(span.atom_start + span.atom_len) as usize];
            let query_kinds =
                &kinds[span.kind_start as usize..(span.kind_start + span.num_vars) as usize];
            if query_atoms.is_empty() {
                return Err(CodecError::invalid(at, "query without atoms"));
            }
            let mut seen = 0u32;
            for term in query_atoms.iter().flat_map(|atom| atom.terms(&terms)) {
                let ITerm::Var(v, kind) = *term else { continue };
                if v >= span.num_vars {
                    return Err(CodecError::invalid(at, "variable index out of range"));
                }
                if query_kinds[v as usize] != kind {
                    return Err(CodecError::invalid(
                        at,
                        "variable tag disagrees with its kind",
                    ));
                }
                if v > seen {
                    return Err(CodecError::invalid(
                        at,
                        "variables not numbered by first occurrence",
                    ));
                }
                if v == seen {
                    seen += 1;
                }
            }
            if seen != span.num_vars {
                return Err(CodecError::invalid(at, "declared variable never occurs"));
            }
            queries.push(span);
        }
        let mut interner = QueryInterner {
            terms,
            atoms,
            kinds,
            queries,
            consts,
            const_ids,
            hashes: Vec::with_capacity(num_queries),
            table: Vec::new(),
            shapes: Vec::with_capacity(num_queries),
            fold_atoms: Vec::new(),
        };
        for index in 0..interner.queries.len() {
            let hash = interner.hash_interned(QueryId(index as u32));
            interner.index_newest(hash);
        }
        Ok(interner)
    }

    fn try_to_query(&self, id: QueryId) -> Result<ConjunctiveQuery> {
        let q = self.resolve(id);
        let atoms: Vec<Atom> = (0..q.num_atoms())
            .map(|i| {
                let terms = q
                    .atom_terms(i)
                    .iter()
                    .map(|term| match *term {
                        ITerm::Var(v, kind) => Term::Var(VarId(v), kind),
                        ITerm::Const(c) => Term::Const(self.consts[c.index()].clone()),
                    })
                    .collect();
                Atom::new(q.relation(i), terms)
            })
            .collect();
        ConjunctiveQuery::from_table(atoms, VarTable::numbered(q.kinds.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::structurally_identical;
    use crate::catalog::Catalog;
    use crate::parser::parse_query;

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
        let ITerm::Const(id) = ca else {
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
        type Corrupt = fn(&mut QueryInterner);
        let cases: [(&str, Corrupt); 5] = [
            ("out of range", |i| {
                i.terms[1] = ITerm::Var(7, VarKind::Existential)
            }),
            ("disagrees with its kind", |i| {
                i.terms[0] = ITerm::Var(0, VarKind::Existential)
            }),
            ("first occurrence", |i| i.terms.swap(0, 1)),
            ("never occurs", |i| {
                i.terms[1] = ITerm::Var(0, VarKind::Distinguished)
            }),
            ("without atoms", |i| i.queries[0].atom_len = 0),
        ];
        for (expected, corrupt) in cases {
            let mut interner = pristine();
            corrupt(&mut interner);
            // The query span is the image's last 16 bytes; the error names it.
            match reencode(&interner) {
                (len, Err(CodecError::Invalid { offset, what })) => {
                    assert!(what.contains(expected), "{expected}: got {what}");
                    assert_eq!(offset, len - 16, "{expected}");
                }
                (_, other) => panic!("{expected}: decoded to {other:?}"),
            }
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
        // Append them all under one forged hash: they share a probe chain
        // and every stored hash matches, so only the compare pass can tell
        // them apart.
        let forged = 0xdead_beef_u64;
        let mut interner = QueryInterner::new();
        let mut ids = Vec::new();
        for shape in &shapes {
            let mut numbering = Numbering::new(shape.var_bound());
            interner.hash_operand(shape, &mut numbering);
            assert_eq!(interner.probe(shape, &numbering, forged), None);
            ids.push(interner.append(shape, &numbering, forged));
        }
        assert_eq!(
            ids,
            (0..shapes.len() as u32).map(QueryId).collect::<Vec<_>>()
        );
        for (shape, &id) in shapes.iter().zip(&ids) {
            let mut numbering = Numbering::new(shape.var_bound());
            interner.hash_operand(shape, &mut numbering);
            assert_eq!(interner.probe(shape, &numbering, forged), Some(id));
            assert!(structurally_identical(shape, &interner.to_query(id)));
        }
        // A fourth shape walks the whole chain and still misses.
        let stranger = q(&c, "Q() :- Meetings(z, z)");
        let mut numbering = Numbering::new(stranger.var_bound());
        interner.hash_operand(&stranger, &mut numbering);
        assert_eq!(interner.probe(&stranger, &numbering, forged), None);
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
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(back.lookup(&q(&c, text)), Some(QueryId(i as u32)), "{text}");
            assert_eq!(back.intern(&q(&c, text)), QueryId(i as u32), "{text}");
        }
        assert_eq!(back.len(), texts.len());
    }

    #[test]
    fn a_core_is_recorded_once_however_often_and_by_whomever_it_is_offered() {
        use crate::folding::fold_interned_indices;
        use std::sync::{mpsc, RwLock};

        let c = catalog();
        let mut interner = QueryInterner::new();
        let id = interner.intern(&q(
            &c,
            "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(y, w, 'Intern')",
        ));
        let other = interner.intern(&q(&c, "Q() :- Meetings(a, b), Meetings(c, d)"));
        assert_eq!(interner.cached_core(id), None);

        // Recording the same core twice leaves one span.
        let kept = fold_interned_indices(interner.resolve(id));
        assert_eq!(kept, vec![0, 2]);
        interner.record_core(id, &kept);
        interner.record_core(id, &kept);
        assert_eq!(interner.fold_atoms, kept);
        assert_eq!(interner.cached_core(id), Some(&kept[..]));
        assert_eq!(interner.core_atom_indices(id), &kept[..]);
        assert_eq!(interner.fold_atoms, kept);

        // Two threads fold the same shape under the read lock; the second
        // to reach the write lock finds the first one's record and adds
        // nothing.  The channels force that order: the main thread folds,
        // lets the helper fold *and* record, and only then records itself.
        let shared = RwLock::new(interner);
        let (folded_tx, folded_rx) = mpsc::channel::<()>();
        let (recorded_tx, recorded_rx) = mpsc::channel::<()>();
        let shared_ref = &shared;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let shared = shared_ref;
                folded_rx.recv().expect("main thread folds first");
                let mine = {
                    let guard = shared.read().unwrap();
                    assert_eq!(guard.cached_core(other), None);
                    fold_interned_indices(guard.resolve(other))
                };
                shared.write().unwrap().record_core(other, &mine);
                recorded_tx.send(()).unwrap();
            });
            let mine = {
                let guard = shared.read().unwrap();
                assert_eq!(guard.cached_core(other), None);
                fold_interned_indices(guard.resolve(other))
            };
            folded_tx.send(()).unwrap();
            recorded_rx.recv().expect("helper records in between");
            let mut guard = shared.write().unwrap();
            assert_eq!(guard.cached_core(other), Some(&[1u32][..]));
            guard.record_core(other, &mine);
        });
        let interner = shared.into_inner().unwrap();
        assert_eq!(interner.fold_atoms, vec![0, 2, 1]);
        assert_eq!(interner.cached_core(other), Some(&[1u32][..]));
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

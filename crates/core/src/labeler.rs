//! Production disclosure labelers for arbitrary conjunctive queries.
//!
//! All three labelers implement the same pipeline — `Dissect` (Section 5.2)
//! followed by per-atom `ℓ⁺` computation against the registered security
//! views — and differ only in the engineering of the per-atom step, exactly
//! like the three measured variants of the paper's Figure 5:
//!
//! * [`BaselineLabeler`] — a straightforward adaptation of `LabelGen`
//!   (Section 4.2): for every dissected atom it scans **every** registered
//!   security view and runs the rewriting check.
//! * [`HashPartitionedLabeler`] — pre-partitions the security views by base
//!   relation in a hash table, so each atom is only checked against the
//!   views of its own relation.
//! * [`BitVectorLabeler`] — hash partitioning plus the packed bit-vector
//!   `ℓ⁺` representation of Section 6.1; each (atom, view) pair is decided
//!   by one positional rule ([`answers`]) instead of the rewriting check —
//!   a mask test for the common projection-style views.
//!
//! A fourth variant goes beyond the paper's measured configurations:
//!
//! * [`CachedLabeler`] — a [`BitVectorLabeler`] plus an id-keyed label
//!   cache over the **interned query plane** (`fdc_cq::intern`): queries
//!   intern to dense canonical [`QueryId`]s, so the whole-query cache is a
//!   slot vector indexed by id (a hit skips folding, dissection and
//!   labeling entirely — and for pre-interned callers, hashing too).  A
//!   miss computes each core atom's `ℓ⁺` straight from the interned query
//!   (`InternedDissection`): its shape is read off the atom where it lies,
//!   and no part is assembled.  The entry keeps, per part, what a later
//!   refresh needs.
//!   The cache is versioned with the registry's per-relation epochs, so
//!   the view universe can change online
//!   ([`CachedLabeler::add_view`]) without flushing: a stale entry is
//!   patched where it lies, its stale parts' masks extended by the views
//!   added since; the lookup algorithm is described on the type.  The
//!   packed entry points **append** to a buffer the caller owns
//!   ([`CachedLabeler::append_packed_interned`]): a hit packs the
//!   entry's surviving parts straight onto the end of a request's label
//!   arena (diagram: `fdc_service::service`), so labeling a batch
//!   allocates per batch, not per label; the `label_packed*` forms are the
//!   same call into a vector of their own.
//!
//! All variants produce identical [`DisclosureLabel`]s; the equivalence is
//! asserted by the test suite and exercised again by the Figure 5 benchmark.

use std::borrow::Cow;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;

use fdc_cq::folding::fold_interned_indices;
use fdc_cq::intern::{ITerm, QueryId, QueryInterner, Recognised};
use fdc_cq::rewriting::rewritable_from_single;
use fdc_cq::{AtomRef, ConjunctiveQuery, RelId};

use crate::answers::{self, Shape};
use crate::dissect::{dissect, InternedDissection};
use crate::error::Result;
use crate::label::{AtomLabel, DisclosureLabel, PackedLabel, ViewMask};
use crate::security_views::{SecurityView, SecurityViewId, SecurityViews};

/// A disclosure labeler for conjunctive queries.
pub trait QueryLabeler {
    /// Labels a single query.
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel;

    /// Labels a set of queries (the cumulative label of answering them all).
    fn label_queries(&self, queries: &[ConjunctiveQuery]) -> DisclosureLabel {
        let mut out = DisclosureLabel::bottom();
        for q in queries {
            out.combine_in_place(&self.label_query(q));
        }
        out
    }

    /// The security-view registry the labeler was built from.
    fn security_views(&self) -> &SecurityViews;
}

// ---------------------------------------------------------------------------
// Baseline: LabelGen with a linear scan over all security views.
// ---------------------------------------------------------------------------

/// The baseline labeler of Figure 5: `Dissect` + a linear scan of every
/// security view for every dissected atom.
#[derive(Debug, Clone)]
pub struct BaselineLabeler {
    views: SecurityViews,
}

impl BaselineLabeler {
    /// Builds a baseline labeler over a view registry.
    pub fn new(views: SecurityViews) -> Self {
        BaselineLabeler { views }
    }
}

impl QueryLabeler for BaselineLabeler {
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        let mut label = DisclosureLabel::bottom();
        for atom_query in dissect(query) {
            let relation = atom_query.atom(0).relation;
            let mut mask: ViewMask = 0;
            // Deliberately scan the whole registry (no partitioning): this is
            // the "baseline" curve of Figure 5.  The rewriting check refuses
            // a view over another relation itself.
            for (_, view) in self.views.iter() {
                if rewritable_from_single(&atom_query, &view.query) {
                    mask |= 1u64 << view.bit;
                }
            }
            label.push(AtomLabel::new(relation, mask));
        }
        label
    }

    fn security_views(&self) -> &SecurityViews {
        &self.views
    }
}

// ---------------------------------------------------------------------------
// Hash-partitioned: only scan the views of the atom's relation.
// ---------------------------------------------------------------------------

/// The "hashing only" labeler of Figure 5: security views are pre-partitioned
/// by relation, so each atom is checked only against its own relation's views.
#[derive(Debug, Clone)]
pub struct HashPartitionedLabeler {
    views: SecurityViews,
    by_relation: HashMap<RelId, Vec<SecurityViewId>>,
}

impl HashPartitionedLabeler {
    /// Builds a hash-partitioned labeler over a view registry.
    pub fn new(views: SecurityViews) -> Self {
        let mut by_relation: HashMap<RelId, Vec<SecurityViewId>> = HashMap::new();
        for (id, view) in views.iter() {
            by_relation.entry(view.relation).or_default().push(id);
        }
        HashPartitionedLabeler { views, by_relation }
    }
}

impl QueryLabeler for HashPartitionedLabeler {
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        let mut label = DisclosureLabel::bottom();
        for atom_query in dissect(query) {
            let relation = atom_query.atom(0).relation;
            let mut mask: ViewMask = 0;
            if let Some(candidates) = self.by_relation.get(&relation) {
                for id in candidates {
                    let view = self.views.view(*id);
                    if rewritable_from_single(&atom_query, &view.query) {
                        mask |= 1u64 << view.bit;
                    }
                }
            }
            label.push(AtomLabel::new(relation, mask));
        }
        label
    }

    fn security_views(&self) -> &SecurityViews {
        &self.views
    }
}

// ---------------------------------------------------------------------------
// Bit-vector: hash partitioning + precompiled view shapes + packed labels.
// ---------------------------------------------------------------------------

/// A registered view as [`BitVectorLabeler`] decides `{atom} ⪯ {view}`
/// with it: a *projection-style* view (no constant, no repeated term) is
/// fully described by the positions it exposes, and an atom of [`Shape`]
/// `s` is answerable from it iff `s.needs ⊆ exposed`.  Every other view is
/// decided by the positional rule on the terms ([`answers`]), and only for
/// an atom that is not simple.
#[derive(Debug, Clone)]
struct CompiledView {
    id: SecurityViewId,
    bit: u32,
    /// Bit `i` set iff position `i` of the view is a distinguished
    /// variable; `None` if the view is not projection-style.
    exposed_positions: Option<u64>,
}

/// The fully optimized labeler of Figure 5 ("bit vectors + hashing") and
/// Section 6.1.
#[derive(Debug, Clone)]
pub struct BitVectorLabeler {
    views: SecurityViews,
    /// The compiled candidate lists, indexed by [`RelId`]: relation ids are
    /// dense, so finding a relation's views is an index, not a hash probe.
    by_relation: Vec<Vec<CompiledView>>,
}

impl BitVectorLabeler {
    /// Builds a bit-vector labeler over a view registry.
    pub fn new(views: SecurityViews) -> Self {
        let mut by_relation = Vec::new();
        for (id, view) in views.iter() {
            compile(&mut by_relation, id, view);
        }
        BitVectorLabeler { views, by_relation }
    }

    /// Labels a query and returns the packed representation directly.
    pub fn label_packed(&self, query: &ConjunctiveQuery) -> Vec<PackedLabel> {
        self.label_query(query).pack()
    }

    /// Registers one more security view online, recompiling only the
    /// affected relation's candidate list.
    ///
    /// The underlying [`SecurityViews`] registry validates the view (single
    /// atom, unique name, per-relation bit budget) and bumps the relation's
    /// epoch, so epoch-aware layers above (see
    /// [`CachedLabeler::add_view`]) notice the change lazily.
    ///
    /// Because this labeler serves the packed 64-bit path
    /// ([`label_packed`](Self::label_packed)), online additions are held to
    /// the **packed** per-relation budget
    /// ([`MAX_PACKED_VIEWS_PER_RELATION`](crate::security_views::MAX_PACKED_VIEWS_PER_RELATION)
    /// = 32): the 33rd view of a relation is rejected here rather than
    /// silently truncated out of every packed label in release builds.
    pub fn add_view(&mut self, name: &str, query: ConjunctiveQuery) -> Result<SecurityViewId> {
        use crate::security_views::MAX_PACKED_VIEWS_PER_RELATION;
        if let Some(atom) = query.atoms().next() {
            let existing = self.views.views_for_relation(atom.relation).len();
            if existing >= MAX_PACKED_VIEWS_PER_RELATION {
                return Err(crate::error::LabelError::TooManyViewsForRelation {
                    relation: self.views.catalog().name(atom.relation).to_owned(),
                    count: existing + 1,
                    limit: MAX_PACKED_VIEWS_PER_RELATION,
                });
            }
        }
        let id = self.views.add(name, query)?;
        compile(&mut self.by_relation, id, self.views.view(id));
        Ok(id)
    }

    /// Computes `ℓ⁺` of one dissected part — the atom of a single-atom
    /// query, its join variables promoted (multi-atom queries go through
    /// `Dissect` first) — as a packed view mask, by the positional rule
    /// ([`answers`]).
    ///
    /// This is the per-atom step of [`label_query`](QueryLabeler::label_query);
    /// [`CachedLabeler`] runs the same rule on the interned parts it
    /// dissects.
    pub fn atom_mask(&self, atom: AtomRef<'_>) -> ViewMask {
        part_bits(Shape::of(atom), self.candidates(atom.relation), |view| {
            let view = self.views.view(view.id).query.atom(0).terms();
            answers::by_terms(atom.terms(), |term| !term.is_existential(), view)
        })
    }

    /// The compiled candidate list of `relation`: its views in registration
    /// order (empty if it has none).
    fn candidates(&self, relation: RelId) -> &[CompiledView] {
        self.by_relation
            .get(relation.index())
            .map_or(&[], Vec::as_slice)
    }
}

/// Appends registered view `id` to its relation's candidate list in
/// `by_relation`, growing the index to the relation.
fn compile(by_relation: &mut Vec<Vec<CompiledView>>, id: SecurityViewId, view: &SecurityView) {
    let relation = view.relation.index();
    if by_relation.len() <= relation {
        by_relation.resize_with(relation + 1, Vec::new);
    }
    by_relation[relation].push(CompiledView {
        id,
        bit: view.bit,
        exposed_positions: Shape::of(view.query.atom(0)).exposed(),
    });
}

/// The `ℓ⁺` bits `candidates` contribute to one dissected part of shape
/// `part` ([`Shape::answered_by`]): a mask test against a projection-style
/// view, and `by_terms` — rules 1–4 on the part's and the view's terms —
/// only for a part that is not simple against a view that is not.  Over a
/// relation's whole candidate list this is the part's mask; over the tail
/// appended since a mask was computed it is what that mask lacks.
fn part_bits(
    part: Shape,
    candidates: &[CompiledView],
    mut by_terms: impl FnMut(&CompiledView) -> bool,
) -> ViewMask {
    candidates
        .iter()
        .filter(|view| part.answered_by(view.exposed_positions, || by_terms(view)))
        .fold(0, |mask, view| mask | 1 << view.bit)
}

/// The core of interned query `id`: its recorded fold, or — none on record
/// yet — the fold computed here (owned, for the caller to record).  A
/// single-atom query is its own core and is never folded.
fn core_of(interner: &QueryInterner, id: QueryId) -> Cow<'_, [u32]> {
    let query = interner.resolve(id);
    match interner.cached_core(id) {
        Some(core) => Cow::Borrowed(core),
        None if query.is_single_atom() => Cow::Borrowed(&[0]),
        None => Cow::Owned(fold_interned_indices(query)),
    }
}

impl QueryLabeler for BitVectorLabeler {
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        let mut label = DisclosureLabel::bottom();
        for part in dissect(query) {
            let atom = part.atom(0);
            label.push(AtomLabel::new(atom.relation, self.atom_mask(atom)));
        }
        label
    }

    fn security_views(&self) -> &SecurityViews {
        &self.views
    }
}

// ---------------------------------------------------------------------------
// Cached: id-keyed memoization of whole-query labels.
// ---------------------------------------------------------------------------

/// Hit/miss/invalidation counters of a [`CachedLabeler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Whole-query labelings answered from the query-level cache.
    pub hits: u64,
    /// Whole-query labelings that ran the labeling pipeline.
    pub misses: u64,
    /// Number of distinct canonical query forms currently cached.
    pub entries: usize,
    /// Always 0: no per-atom table exists (a part's mask lives with its
    /// query entry).  Kept so that code building a `CacheStats` field by
    /// field keeps compiling.
    pub atom_hits: u64,
    /// Dissected parts whose `ℓ⁺` mask was computed over their relation's
    /// whole candidate list at the first sight of a shape.
    pub atom_misses: u64,
    /// Always 0, for the same reason as [`atom_hits`](Self::atom_hits).
    pub atom_entries: usize,
    /// Query-cache entries refreshed in place because some part's relation
    /// epoch had advanced — only the stale parts took a new mask, the
    /// survivor flags were set again if one of them changed, folding and
    /// dissection were skipped.
    pub query_refreshes: u64,
    /// Stale parts brought up to date: their masks extended by the views
    /// registered since, or recomputed (see [`CachedLabeler`]).
    pub atom_refreshes: u64,
    /// View-universe invalidations applied to this labeler
    /// ([`CachedLabeler::add_view`] / [`CachedLabeler::invalidate_relation`]).
    pub invalidations: u64,
    /// Always 0: every labeled id keeps its entry in its own slot, so a
    /// repeat within a batch is an ordinary [`hit`](Self::hits).  Kept, as
    /// [`atom_hits`](Self::atom_hits) is.
    pub batch_dedup_hits: u64,
}

impl CacheStats {
    /// Query-level hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How the front door of a [`CachedLabeler`]
/// ([`intern_within_budget`](CachedLabeler::intern_within_budget)) resolved
/// each boxed operand it was handed: exactly one counter moves per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoorStats {
    /// Operands recognised by one byte comparison against their id's
    /// exemplar ([`Recognised::Bytes`]).
    pub byte_hits: u64,
    /// Operands recognised by the compare pass ([`Recognised::Compared`]).
    pub compare_hits: u64,
    /// Never-seen shapes, interned within the arena budget.
    pub misses: u64,
    /// Never-seen shapes refused an id: the arena budget was spent.
    pub over_budget: u64,
}

/// The counters behind [`CacheStats`] and [`DoorStats`].
#[derive(Debug, Clone, Default)]
struct LabelCounters {
    hits: Cell<u64>,
    misses: Cell<u64>,
    atom_misses: Cell<u64>,
    query_refreshes: Cell<u64>,
    atom_refreshes: Cell<u64>,
    invalidations: Cell<u64>,
    door_byte_hits: Cell<u64>,
    door_compare_hits: Cell<u64>,
    door_misses: Cell<u64>,
    door_over_budget: Cell<u64>,
}

impl LabelCounters {
    fn stats(&self, entries: usize) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
            atom_hits: 0,
            atom_misses: self.atom_misses.get(),
            atom_entries: 0,
            query_refreshes: self.query_refreshes.get(),
            atom_refreshes: self.atom_refreshes.get(),
            invalidations: self.invalidations.get(),
            batch_dedup_hits: 0,
        }
    }
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// One dissected part of a cached query entry: its `ℓ⁺` mask, whether the
/// entry's label keeps it, and what a refresh needs to bring that mask up
/// to date without dissecting again.
///
/// A part's position in [`QueryEntry::parts`] is its index in the query's
/// core, so a refresh that needs the part's terms — a part that is not
/// simple against a new view that is not projection-style — reads them off
/// that core atom through the interner's recorded fold.  Every other
/// refresh is mask tests on `needs`.  A refresh overwrites `epoch`,
/// `covered` and `mask` where the part lies and, if a mask changed, sets
/// every part's `survives` flag again ([`absorb`]).
///
/// 32 bytes (pinned by a test): a hit reads every part, for the freshness
/// scan and for the label.
#[derive(Debug, Clone, Copy)]
struct QueryPart {
    relation: RelId,
    /// How much of the relation's candidate list the mask accounts for: it
    /// has decided candidates `..covered` and none after (a relation has at
    /// most [`MAX_VIEWS_PER_RELATION`] candidates).
    ///
    /// [`MAX_VIEWS_PER_RELATION`]: crate::security_views::MAX_VIEWS_PER_RELATION
    covered: u16,
    /// The part's atom label is one of the entry's label: it was not
    /// absorbed when the parts were pushed in order ([`absorb`]).
    survives: bool,
    /// [`Shape::simple`] of the part.
    simple: bool,
    /// Epoch of the part's relation when its mask was computed.
    epoch: u64,
    /// The part's `ℓ⁺` mask at that epoch.
    mask: ViewMask,
    /// [`Shape::needs`] of the part: the positions a projection-style view
    /// must expose to answer it.
    needs: u64,
}

impl QueryPart {
    /// The part's atom label.
    fn label(&self) -> AtomLabel {
        AtomLabel::new(self.relation, self.mask)
    }

    /// The part's [`Shape`], as [`InternedDissection::shape`] read it.
    fn shape(&self) -> Shape {
        Shape {
            needs: self.needs,
            simple: self.simple,
        }
    }

    /// What of this part's mask still stands for a relation now at epoch
    /// `current` with `candidates` registered views: the bits it has
    /// decided and where the candidates it has not seen begin — if the mask
    /// can be extended rather than recomputed.
    ///
    /// A relation's candidate list only ever grows at its end, one epoch
    /// per registration, and a registered view's bit and definition never
    /// change.  So if the epoch moved exactly as far as the list grew, every
    /// step in between was a registration: the bits decided so far stand and
    /// only the tail is undecided.  A longer epoch distance means an
    /// out-of-band [`CachedLabeler::invalidate_relation`] asked for the
    /// mask to be distrusted.  The subtractions are checked: an entry is
    /// never tagged newer than its labeler's registry, and should one be,
    /// `None` (recompute) is the answer that stays correct.
    fn standing(&self, current: u64, candidates: usize) -> Option<(ViewMask, usize)> {
        let covered = self.covered as usize;
        let bumps = current.checked_sub(self.epoch)?;
        let added = candidates.checked_sub(covered)? as u64;
        debug_assert!(added <= bumps, "a candidate list grows one epoch at a time");
        (bumps == added).then_some((self.mask, covered))
    }
}

/// Sets the [`survives`](QueryPart::survives) flag of every part: which of
/// their atom labels a label [`push`](DisclosureLabel::push)ing them in
/// order keeps.  A part is dropped if a kept one implies it, and drops the
/// kept ones it implies — the flags of the parts before it are the label
/// so far.  So the flagged parts, in order, are that label's atoms.
fn absorb(parts: &mut [QueryPart]) {
    for k in 0..parts.len() {
        let (before, rest) = parts.split_at_mut(k);
        let atom = rest[0].label();
        let implied = before
            .iter()
            .any(|kept| kept.survives && atom.leq(&kept.label()));
        if !implied {
            for kept in before.iter_mut() {
                kept.survives &= !kept.label().leq(&atom);
            }
        }
        rest[0].survives = !implied;
    }
}

/// A query-cache entry: the dissected parts of the query's core, flagged
/// with the ones its label keeps — one heap block, and the label is read
/// off it ([`survivors`](Self::survivors)) rather than stored beside it.
#[derive(Debug, Clone)]
struct QueryEntry {
    parts: Box<[QueryPart]>,
}

impl QueryEntry {
    /// The entry's label: its surviving parts' atom labels, in order.
    fn survivors(&self) -> Survivors<'_> {
        Survivors(self.parts.iter())
    }
}

/// The atom labels of a cached entry's label, in order: what a labeling
/// call hands its caller, to pack, fold or collect.
struct Survivors<'a>(std::slice::Iter<'a, QueryPart>);

impl Iterator for Survivors<'_> {
    type Item = AtomLabel;

    #[inline]
    fn next(&mut self) -> Option<AtomLabel> {
        self.0.find(|part| part.survives).map(QueryPart::label)
    }
}

/// A labeler that memoizes labeling by **interned query id**.
///
/// A disclosure label depends only on the query's structure up to variable
/// renaming — the atoms, the constants, the variable-equality pattern and
/// the distinguished/existential tags.  The [`QueryInterner`] canonicalizes
/// exactly that, so `QueryId` equality *is* canonical-form equality and the
/// cache is a slot vector indexed by id: a hit skips the whole pipeline
/// including the NP-hard folding step of `Dissect`.  A miss runs the
/// pipeline once: [`InternedDissection`] reads each core atom's [`Shape`]
/// off the interned query, and the part's `ℓ⁺` mask is computed from it —
/// on the Section 7.2 registry a handful of mask tests per part, too cheap
/// to memoize; no part is assembled.
///
/// Queries arriving as boxed [`ConjunctiveQuery`]s are interned on first
/// sight ([`intern`](Self::intern) / [`label_query`](QueryLabeler::label_query));
/// callers holding pre-interned ids — the `DisclosureService` admission
/// loop, the benchmark workloads — skip even that and call
/// [`label_interned`](Self::label_interned) /
/// [`label_queries_interned`](Self::label_queries_interned) directly.
///
/// Part masks are computed by the positional rule on interned terms, which
/// computes exactly what [`BitVectorLabeler`] computes; the labeler never
/// produces a different label than the paper's three Figure 5 variants
/// (asserted by the property tests).
///
/// # The algorithm
///
/// A query-level lookup by interned id finds a *fresh* entry (a hit: a
/// `Vec` index to the entry's one block of parts, one array read of the
/// registry's epoch vector per part to know it is fresh, and the parts
/// flagged as the label's handed to the caller from the same block), a
/// *stale* one (some part's relation epoch moved) or *none* (the pipeline
/// runs: the shape's fold, then each core atom's `ℓ⁺` mask computed where
/// the atom lies in the interned query by the positional rule of
/// [`answers`] — a mask test against each projection-style view, the terms
/// read only for a part that is not simple against a view that is not).
///
/// **The stale branch** keeps the entry and brings it up to date where it
/// lies, so a refresh costs what changed and allocates nothing.  Each part
/// whose relation epoch moved takes its new mask and epoch; if some mask
/// actually changed, the parts the label keeps are flagged again from all
/// the parts; and the caller reads the label there.  Folding and dissection
/// are skipped: each part keeps its shape, so the views added since are
/// decided by mask tests.  Only a part that is not simple, against a view
/// that is not projection-style, has its terms read, off the core atom of
/// the fold the interner recorded.
///
/// **A stale part's mask is extended where it can be, recomputed where it
/// cannot.**  Views are only ever appended to a relation's candidate list,
/// one epoch each, and a registered view's bit and definition never change.
/// A part records how many candidates its mask has decided; if the
/// relation's epoch moved exactly as far as the list grew since, nothing but
/// registrations happened in between and the mask only takes the bits of
/// the candidates added since (usually one).  After an out-of-band
/// [`invalidate_relation`](Self::invalidate_relation) (the epoch moved
/// further than the list grew) it is recomputed over the whole list.
///
/// The labeler is the one owner of its interner, its cache and its
/// counters, and serves one thread: labeling takes `&self` and updates
/// them through [`RefCell`] and [`Cell`].  A clone is an independent deep
/// copy.
///
/// Memory is bounded by the id space: an entry lives in its id's slot, and
/// the front door ([`intern_within_budget`](Self::intern_within_budget))
/// mints no id past the [`intern_budget`](Self::intern_budget), so a stream
/// of never-repeating shapes cannot grow the arena or the cache without
/// bound.  The budget left is read off the interner, so a decoded or
/// replayed interner brings it back exactly.
///
/// The labeler is **epoch-aware**: every cached mask and label records the
/// per-relation epoch of the [`SecurityViews`] registry it was computed
/// under.  When the view universe of relation `R` changes — an online
/// [`add_view`](Self::add_view) or an explicit
/// [`invalidate_relation`](Self::invalidate_relation) — only `R`'s epoch
/// advances; cached entries touching `R` become lazily stale and re-derive
/// exactly the stale parts on their next lookup, while entries over other
/// relations keep hitting.  This is what lets a long-running service absorb
/// policy/view churn without flushing (and re-warming) the whole cache.
#[derive(Debug, Clone)]
pub struct CachedLabeler {
    /// The registry (with its per-relation epoch vector) and the compiled
    /// per-relation candidate lists.
    inner: BitVectorLabeler,
    /// Interned definition of every registered security view, indexed by
    /// [`SecurityViewId`]: the terms rules 1–4 read, constants by id.
    view_qids: Vec<QueryId>,
    /// The query interner — the id authority the cache is keyed by.
    pub(crate) interner: RefCell<QueryInterner>,
    /// How many ids beyond the view definitions the front door may mint
    /// ([`intern_budget`](Self::intern_budget)).
    budget: usize,
    counters: LabelCounters,
    /// The query-level cache: one slot per [`QueryId`], so the ids bound
    /// it.  Dense ids make a `Vec` strictly better than a hash map here: no
    /// hashing, no probing, a bounds check plus an index.  A slot is 16
    /// bytes (pinned by a test): the entry's one pointer and length.
    slots: RefCell<Vec<Option<QueryEntry>>>,
}

/// Default intern budget of a [`CachedLabeler`]: the ids beyond the view
/// definitions its front door may mint.
///
/// An id costs its arena entry and at most one cache entry (tens to a few
/// hundred bytes each), so the default bounds both to the low hundreds of
/// megabytes in the worst case while comfortably holding every shape a
/// realistic workload produces.
pub const DEFAULT_INTERN_BUDGET: usize = 1 << 20;

impl CachedLabeler {
    /// Builds a caching labeler over a view registry with the
    /// [default intern budget](DEFAULT_INTERN_BUDGET).
    pub fn new(views: SecurityViews) -> Self {
        Self::with_intern_budget(views, DEFAULT_INTERN_BUDGET)
    }

    /// Builds a caching labeler whose front door mints at most `budget`
    /// ids beyond the view definitions.
    pub fn with_intern_budget(views: SecurityViews, budget: usize) -> Self {
        Self::with_interner(views, QueryInterner::new(), budget)
    }

    /// Builds a caching labeler over a view registry and an interner that
    /// may be **pre-populated** — the recovery constructor.
    ///
    /// Every registered security view is interned up front, so the rule
    /// reads a view's constants by id and never has to intern mid-labeling.
    /// An empty interner hands the view queries ids `0, 1, …`; one restored
    /// from a checkpoint (`QueryInterner::decode_from`) already holds those
    /// shapes, interning them again finds their ids, and every `QueryId`
    /// the checkpointed interner held stays valid.  An id minted after the
    /// checkpoint survives because the service logs every mint (a
    /// `Define`, a boxed submit or check, a view addition) and replay
    /// re-interns those shapes in minting order.  What is left of `budget`
    /// is read off the interner, so it survives the same way.
    pub fn with_interner(views: SecurityViews, mut interner: QueryInterner, budget: usize) -> Self {
        let mut view_qids = Vec::with_capacity(views.len());
        for (id, view) in views.iter() {
            debug_assert_eq!(id.index(), view_qids.len(), "view ids are dense");
            view_qids.push(interner.intern(&view.query));
        }
        CachedLabeler {
            inner: BitVectorLabeler::new(views),
            view_qids,
            interner: RefCell::new(interner),
            budget,
            counters: LabelCounters::default(),
            slots: RefCell::default(),
        }
    }

    /// How many ids beyond the view definitions the front door may mint.
    pub fn intern_budget(&self) -> usize {
        self.budget
    }

    /// The query interner, borrowed read-only: to resolve ids back to
    /// queries, look shapes up or count them.  Mint ids through
    /// [`intern`](Self::intern).  Release the borrow before the next call
    /// that interns or labels: a first sight records its fold in the
    /// interner, and a `RefCell` refuses that while a borrow is out.
    pub fn query_interner(&self) -> Ref<'_, QueryInterner> {
        self.interner.borrow()
    }

    /// Interns a query into this labeler's id space, returning its dense
    /// [`QueryId`].
    ///
    /// An explicit intern always mints: a caller asking for an id is
    /// sizing its own pool and gets one unconditionally.  The id counts
    /// toward the [`intern_budget`](Self::intern_budget), so it leaves the
    /// front door ([`intern_within_budget`](Self::intern_within_budget))
    /// one fewer id to mint.
    pub fn intern(&self, query: &ConjunctiveQuery) -> QueryId {
        self.interner.borrow_mut().intern(query)
    }

    /// Registers one more security view online.
    ///
    /// Only the view's relation is invalidated (its epoch advances inside
    /// the registry): cached labels and masks for every other relation keep
    /// hitting, and entries touching the relation lazily re-derive just
    /// their stale parts.  This is the incremental-relabeling path a
    /// dynamic service uses for `AddSecurityView` operations.
    pub fn add_view(&mut self, name: &str, query: ConjunctiveQuery) -> Result<SecurityViewId> {
        let view_qid = self.interner.get_mut().intern(&query);
        let id = self.inner.add_view(name, query)?;
        debug_assert_eq!(id.index(), self.view_qids.len(), "view ids are dense");
        self.view_qids.push(view_qid);
        bump(&self.counters.invalidations);
        Ok(id)
    }

    /// Marks every cached label and mask derived for atoms over `relation`
    /// as stale by advancing the relation's epoch.
    ///
    /// Stale entries are not dropped: they re-derive lazily (and only their
    /// stale parts) on next lookup.  Use this when a view definition changed
    /// out of band; [`add_view`](Self::add_view) invalidates automatically.
    pub fn invalidate_relation(&mut self, relation: RelId) {
        self.inner.views.bump_epoch(relation);
        bump(&self.counters.invalidations);
    }

    /// Current hit/miss/invalidation counters and cache sizes (the
    /// entries counted by one pass over the slots).
    pub fn stats(&self) -> CacheStats {
        self.counters
            .stats(self.slots.borrow().iter().flatten().count())
    }

    /// How the front door has resolved the boxed operands it was handed.
    pub fn door_stats(&self) -> DoorStats {
        let counters = &self.counters;
        DoorStats {
            byte_hits: counters.door_byte_hits.get(),
            compare_hits: counters.door_compare_hits.get(),
            misses: counters.door_misses.get(),
            over_budget: counters.door_over_budget.get(),
        }
    }

    /// Drops every cached entry while keeping the hit/miss/refresh
    /// counters and the interner — the flush-on-mutation strategy the
    /// epoch machinery exists to avoid, kept as the Figure 7 baseline
    /// (`fdc_bench::run_flushing_on_mutation` flushes after every
    /// mutation it serves, through the service's `flush_label_cache`).
    /// Keeping the counters cumulative is what makes the baseline's cost
    /// visible: every post-flush relabeling still counts as a miss.
    pub fn clear_entries(&mut self) {
        self.slots.get_mut().clear();
    }

    /// Resolves `query` to its interned id through the **budgeted** intern
    /// [`label_query`](QueryLabeler::label_query) performs: known shapes
    /// (alpha-variants included) are looked up, unknown ones are interned
    /// while the interner holds fewer than
    /// [`intern_budget`](Self::intern_budget) ids beyond the view
    /// definitions.  `None` means the budget is spent and the shape was
    /// never seen: it has no id and must not get one (the arena bound would
    /// be lost) — label it with [`label_uncached`](Self::label_uncached).
    ///
    /// This is the service's front door: an admission resolves its operand
    /// once here, then labels, dedups and records by id.  A known shape is
    /// recognised by [`QueryInterner::recognise`], which records the
    /// operand as its id's exemplar on the shape's second sight, so a
    /// resent operand costs one byte comparison.
    /// [`door_stats`](Self::door_stats) counts how each call was resolved.
    pub fn intern_within_budget(&self, query: &ConjunctiveQuery) -> Option<QueryId> {
        let mut interner = self.interner.borrow_mut();
        let counters = &self.counters;
        if let Some(found) = interner.recognise(query) {
            bump(match found {
                Recognised::Bytes(_) => &counters.door_byte_hits,
                Recognised::Compared(_) => &counters.door_compare_hits,
            });
            return Some(found.id());
        }
        if interner.len().saturating_sub(self.view_qids.len()) >= self.budget {
            bump(&counters.door_over_budget);
            return None;
        }
        bump(&counters.door_misses);
        Some(interner.intern(query))
    }

    /// Labels `query` through the uncached [`BitVectorLabeler`] pipeline
    /// (identical label), counted as a miss.  Nothing is looked up, minted
    /// or stored: this serves a shape the front door refused an id
    /// ([`intern_within_budget`](Self::intern_within_budget) returned
    /// `None`), and an audit relabeling one, without asking the door
    /// again.
    pub fn label_uncached(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        bump(&self.counters.misses);
        self.inner.label_query(query)
    }

    /// Labels an already-interned query — the hot path for callers that
    /// hold dense [`QueryId`]s (the service's admission loop, pre-interned
    /// workload pools).  A warm lookup is a `Vec` index: no canonical
    /// hashing, no key allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this labeler's interner.
    pub fn label_interned(&self, id: QueryId) -> DisclosureLabel {
        self.label_with(id, |atoms| atoms.collect())
    }

    /// Labels one pre-interned query and **appends** the packed
    /// representation to `out`.  A cache hit packs the entry's surviving
    /// parts straight from the cached block into the caller's buffer: a
    /// request that labels all its admissions into one arena allocates
    /// nothing per label.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this labeler's interner.
    pub fn append_packed_interned(&self, id: QueryId, out: &mut Vec<PackedLabel>) {
        self.label_with(id, |atoms| out.extend(atoms.map(|atom| atom.pack())));
    }

    /// [`append_packed_interned`](Self::append_packed_interned) into a
    /// vector of its own.
    pub fn label_packed_interned(&self, id: QueryId) -> Vec<PackedLabel> {
        let mut packed = Vec::new();
        self.append_packed_interned(id, &mut packed);
        packed
    }

    /// The parts a first sight of query `id` computes, in core order: each
    /// part's relation, its `ℓ⁺` mask over the relation's candidate list,
    /// and its [`Shape`].  The cache is neither read nor written and
    /// nothing is counted; the fold is recorded as a first sight records
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this labeler's interner.
    pub fn first_sight_parts(&self, id: QueryId) -> Vec<(RelId, ViewMask, Shape)> {
        self.first_sight(id)
            .iter()
            .map(|part| (part.relation, part.mask, part.shape()))
            .collect()
    }

    /// Folds a pre-interned batch into the cumulative disclosure label of
    /// answering every query — the interned counterpart of
    /// [`label_queries`](QueryLabeler::label_queries), and the series the
    /// Figure 5 benchmark reports as `interned`.
    ///
    /// Fresh hits combine straight out of the cache, so the steady state
    /// does one `Vec` index and one in-place lattice fold per query — no
    /// hashing, no label clone.  Each distinct id runs the labeling
    /// pipeline at most once: its first sight is stored in its slot, and a
    /// repeat is a hit.
    pub fn label_queries_interned(&self, ids: &[QueryId]) -> DisclosureLabel {
        let mut out = DisclosureLabel::bottom();
        for &id in ids {
            self.label_with(id, |atoms| atoms.for_each(|atom| out.push(atom)));
        }
        out
    }

    /// The epoch of a relation's view universe.  Epochs only change under
    /// `&mut self`, so they are stable for the duration of any labeling
    /// call.
    #[inline]
    fn epoch_of(&self, relation: RelId) -> u64 {
        self.inner.views.epoch(relation)
    }

    /// The parts of interned query `id` — the first sight of a shape: each
    /// core atom's mask over its relation's whole candidate list, decided
    /// where the atom lies in the interned query ([`InternedDissection`]).
    /// No part is assembled and nothing is interned.
    ///
    /// The parts come back flagged with the ones the label keeps
    /// ([`absorb`]), in the one block the entry stores.  A fold computed
    /// here (none was on record) is recorded once the parts are read.
    fn first_sight(&self, id: QueryId) -> Box<[QueryPart]> {
        let (parts, unrecorded) = {
            let interner = self.interner.borrow();
            let core = core_of(&interner, id);
            let mut dissection = InternedDissection::new(interner.resolve(id), &core);
            let mut parts: Box<[QueryPart]> = (0..dissection.len())
                .map(|k| self.first_part(&interner, &mut dissection, k))
                .collect();
            absorb(&mut parts);
            drop(dissection);
            match core {
                Cow::Owned(kept) => (parts, Some(kept)),
                Cow::Borrowed(_) => (parts, None),
            }
        };
        if let Some(kept) = unrecorded {
            self.interner.borrow_mut().record_core(id, &kept);
        }
        parts
    }

    /// Part `k` at first sight: its mask over the whole candidate list of
    /// its relation by the positional rule, on the interned terms of the
    /// part and of the view definitions — the same bits
    /// [`BitVectorLabeler::atom_mask`] computes.
    fn first_part(
        &self,
        interner: &QueryInterner,
        dissection: &mut InternedDissection<'_>,
        k: usize,
    ) -> QueryPart {
        let relation = dissection.relation(k);
        let candidates = self.inner.candidates(relation);
        let shape = dissection.shape(k);
        let mask = part_bits(shape, candidates, |view| {
            dissection.answered_by(k, self.view_terms(interner, view))
        });
        QueryPart {
            relation,
            covered: candidates.len() as u16,
            survives: false,
            simple: shape.simple,
            epoch: self.epoch_of(relation),
            mask,
            needs: shape.needs,
        }
    }

    /// The interned terms of `view`'s definition.
    fn view_terms<'i>(&self, interner: &'i QueryInterner, view: &CompiledView) -> &'i [ITerm] {
        interner
            .resolve(self.view_qids[view.id.index()])
            .atom_terms(0)
    }

    /// Brings the entry of query `id` up to the current epoch vector where
    /// it lies: each part whose relation epoch moved has its mask
    /// **extended** where it can be — the bits of the candidates registered
    /// since are ORed in — and recomputed over the whole candidate list
    /// where it cannot ([`QueryPart::standing`]).  If some mask changed,
    /// every part's survivor flag is set again ([`absorb`]) — over all the
    /// parts, because the label absorbs redundancy.  Folding and dissection
    /// are skipped.  Only a part that is not simple, against a new view
    /// that is not projection-style, reads terms: its core atom's, from the
    /// recorded fold (recomputed if none is on record).  Returns whether
    /// any part was stale.
    fn refresh_entry(&self, id: QueryId, entry: &mut QueryEntry) -> bool {
        let (mut stale, mut changed) = (false, false);
        for (k, part) in entry.parts.iter_mut().enumerate() {
            let current = self.epoch_of(part.relation);
            if part.epoch == current {
                continue;
            }
            let candidates = self.inner.candidates(part.relation);
            let (decided, undecided) = part.standing(current, candidates.len()).unwrap_or((0, 0));
            let mask = decided
                | part_bits(part.shape(), &candidates[undecided..], |view| {
                    let interner = self.interner.borrow();
                    let core = core_of(&interner, id);
                    InternedDissection::new(interner.resolve(id), &core)
                        .answered_by(k, self.view_terms(&interner, view))
                });
            bump(&self.counters.atom_refreshes);
            changed |= mask != part.mask;
            *part = QueryPart {
                covered: candidates.len() as u16,
                epoch: current,
                mask,
                ..*part
            };
            stale = true;
        }
        if changed {
            absorb(&mut entry.parts);
        }
        stale
    }

    /// Labels an interned query and hands the label's atoms ([`Survivors`],
    /// read off the entry) to `use_label`, so a caller that packs, folds or
    /// collects pays for exactly that.
    ///
    /// A **fresh** entry is a hit: one pass over its parts checks their
    /// epochs, and `use_label` reads the surviving ones from the same
    /// block.  A **stale** entry is refreshed where it lies
    /// ([`refresh_entry`](Self::refresh_entry)) and read there.  An
    /// **absent** id runs the pipeline ([`first_sight`](Self::first_sight))
    /// and is stored in its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this labeler's interner.
    fn label_with<R>(&self, id: QueryId, use_label: impl FnOnce(Survivors<'_>) -> R) -> R {
        let mut slots = self.slots.borrow_mut();
        if let Some(entry) = slots.get_mut(id.index()).and_then(Option::as_mut) {
            bump(if self.refresh_entry(id, entry) {
                &self.counters.query_refreshes
            } else {
                &self.counters.hits
            });
            return use_label(entry.survivors());
        }
        let entry = QueryEntry {
            parts: self.first_sight(id),
        };
        bump(&self.counters.misses);
        let atom_misses = &self.counters.atom_misses;
        atom_misses.set(atom_misses.get() + entry.parts.len() as u64);
        let out = use_label(entry.survivors());
        if id.index() >= slots.len() {
            slots.resize_with(id.index() + 1, || None);
        }
        slots[id.index()] = Some(entry);
        out
    }
}

impl QueryLabeler for CachedLabeler {
    /// The boxed door: resolves the query through the budgeted intern
    /// ([`intern_within_budget`](Self::intern_within_budget); a lookup for
    /// known shapes, alpha-variants included) and labels it by id, or —
    /// a never-seen shape past the [`intern_budget`](Self::intern_budget)
    /// — through [`label_uncached`](Self::label_uncached).
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        match self.intern_within_budget(query) {
            Some(id) => self.label_interned(id),
            None => self.label_uncached(query),
        }
    }

    fn security_views(&self) -> &SecurityViews {
        &self.inner.views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::{parser::parse_query, Catalog};

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    fn paper_labelers() -> (
        Catalog,
        BaselineLabeler,
        HashPartitionedLabeler,
        BitVectorLabeler,
    ) {
        let registry = SecurityViews::paper_example();
        let catalog = registry.catalog().clone();
        (
            catalog,
            BaselineLabeler::new(registry.clone()),
            HashPartitionedLabeler::new(registry.clone()),
            BitVectorLabeler::new(registry),
        )
    }

    #[test]
    fn figure_1_label_of_q1_is_v1() {
        let (c, baseline, _, _) = paper_labelers();
        let q1 = q(&c, "Q1(x) :- Meetings(x, 'Cathy')");
        let label = baseline.label_query(&q1);
        let registry = baseline.security_views();
        let described = label.describe(registry);
        assert!(described.contains("V1"));
        assert!(!described.contains("V2"));
        assert!(!described.contains("V3"));
        assert_eq!(label.len(), 1);
    }

    #[test]
    fn figure_1_label_of_q2_is_v1_and_v3() {
        let (c, baseline, _, _) = paper_labelers();
        let q2 = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let label = baseline.label_query(&q2);
        let described = label.describe(baseline.security_views());
        assert!(described.contains("V1"));
        assert!(described.contains("V3"));
        assert_eq!(label.len(), 2);
        assert!(!label.contains_top());
    }

    #[test]
    fn time_only_queries_label_to_v2_or_v1() {
        let (c, baseline, _, _) = paper_labelers();
        // The time-column projection is answerable by both V1 and V2, so its
        // ℓ⁺ has two bits set; it is *below* the V1-only label.
        let times = q(&c, "Q(x) :- Meetings(x, y)");
        let label = baseline.label_query(&times);
        assert_eq!(label.len(), 1);
        assert_eq!(label.atoms()[0].view_count(), 2);

        let full = baseline.label_query(&q(&c, "Q(x, y) :- Meetings(x, y)"));
        assert!(label.leq(&full));
        assert!(!full.leq(&label));
    }

    #[test]
    fn all_three_labelers_agree_on_paper_queries() {
        let (c, baseline, hashed, bitvec) = paper_labelers();
        let queries = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q(p) :- Contacts(p, e, 'Manager'), Meetings(t, p)",
            "Q() :- Meetings(x, x)",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
        ];
        for text in queries {
            let query = q(&c, text);
            let a = baseline.label_query(&query);
            let b = hashed.label_query(&query);
            let v = bitvec.label_query(&query);
            assert_eq!(a, b, "baseline vs hashed disagree on {text}");
            assert_eq!(a, v, "baseline vs bitvec disagree on {text}");
        }
    }

    #[test]
    fn unanswerable_atoms_get_top_labels() {
        // Remove V3 so Contacts queries become unanswerable.
        let catalog = Catalog::paper_example();
        let mut registry = SecurityViews::new(&catalog);
        registry
            .add_program("V1(x, y) :- Meetings(x, y)\nV2(x) :- Meetings(x, y)")
            .unwrap();
        let labeler = BitVectorLabeler::new(registry);
        let query = q(&catalog, "Q(x) :- Contacts(x, y, z)");
        let label = labeler.label_query(&query);
        assert!(label.contains_top());
        assert!(label
            .describe(labeler.security_views())
            .contains("no security view answers"));
    }

    #[test]
    fn label_queries_accumulates_across_a_history() {
        let (c, _, hashed, _) = paper_labelers();
        let history = vec![
            q(&c, "Q(x) :- Meetings(x, y)"),
            q(&c, "Q(x, y, z) :- Contacts(x, y, z)"),
        ];
        let cumulative = hashed.label_queries(&history);
        assert_eq!(cumulative.len(), 2);
        // Each individual label is below the cumulative one.
        for single in &history {
            assert!(hashed.label_query(single).leq(&cumulative));
        }
        // The empty history labels to ⊥.
        assert!(hashed.label_queries(&[]).is_bottom());
    }

    #[test]
    fn packed_labels_match_unpacked_ones() {
        let (c, _, _, bitvec) = paper_labelers();
        let query = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let packed = bitvec.label_packed(&query);
        let unpacked = bitvec.label_query(&query);
        assert_eq!(packed.len(), unpacked.len());
        for (p, a) in packed.iter().zip(unpacked.atoms()) {
            assert_eq!(p.relation(), a.relation);
            assert_eq!(p.mask() as u64, a.mask);
        }
    }

    #[test]
    fn constants_and_self_joins_use_the_general_fallback() {
        // Register selection and diagonal views (not projection-style) and
        // check the bit-vector labeler still gets them right: those pairs
        // are decided on the terms, not by a mask test.
        let catalog = Catalog::paper_example();
        let mut registry = SecurityViews::new(&catalog);
        registry
            .add_program(
                r"
                Vc(x)    :- Meetings(x, 'Cathy')
                Vd(x)    :- Meetings(x, x)
                V1(x, y) :- Meetings(x, y)
                ",
            )
            .unwrap();
        let baseline = BaselineLabeler::new(registry.clone());
        let bitvec = BitVectorLabeler::new(registry);

        for text in [
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q() :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, x)",
            "Q(x) :- Meetings(x, y)",
        ] {
            let query = q(&catalog, text);
            assert_eq!(
                baseline.label_query(&query),
                bitvec.label_query(&query),
                "disagreement on {text}"
            );
        }
    }

    #[test]
    fn cached_labeler_agrees_with_the_other_variants() {
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let queries = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y)",
            "Q() :- Meetings(x, x)",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(p) :- Contacts(p, e, 'Manager'), Meetings(t, p)",
        ];
        for text in queries {
            let query = q(&c, text);
            assert_eq!(
                baseline.label_query(&query),
                cached.label_query(&query),
                "baseline vs cached disagree on {text}"
            );
        }
        // A second pass over the same queries is answered from the cache.
        let before = cached.stats();
        for text in queries {
            cached.label_query(&q(&c, text));
        }
        let after = cached.stats();
        assert_eq!(after.misses, before.misses, "second pass must not miss");
        assert!(after.hits > before.hits);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn cache_hits_on_alpha_renamed_queries() {
        let (c, _, _, _) = paper_labelers();
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // Different variable names, same canonical form: a pure hit.
        cached.label_query(&q(&c, "Q(a) :- Meetings(a, b)"));
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        // clear_entries empties the table, and nothing else: every counter
        // and every id is kept…
        let ids = cached.query_interner().len();
        cached.clear_entries();
        assert_eq!(
            cached.stats(),
            CacheStats {
                entries: 0,
                ..stats
            }
        );
        assert_eq!(cached.query_interner().len(), ids);
        // …and the next lookup of the flushed shape is a (counted) miss.
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        assert_eq!(cached.stats().misses, 2);
    }

    #[test]
    fn cache_capacity_bounds_both_tables() {
        // The ids bound both tables: the front door stops minting at the
        // intern budget, and an entry lives in its id's slot.
        let (c, baseline, _, _) = paper_labelers();
        let tiny = CachedLabeler::with_intern_budget(SecurityViews::paper_example(), 2);
        assert_eq!(tiny.intern_budget(), 2);
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
        ];
        for text in texts {
            let query = q(&c, text);
            // Labels stay correct on both sides of the budget.
            assert_eq!(tiny.label_query(&query), baseline.label_query(&query));
        }
        let stats = tiny.stats();
        let ids = tiny.query_interner().len();
        assert!(stats.entries <= ids, "{stats:?} with {ids} ids");
        // A refused shape is recomputed (a miss), never admitted.
        let before = tiny.stats();
        tiny.label_query(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let after = tiny.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.entries, before.entries);
        // The default constructor uses the documented budget.
        let default = CachedLabeler::new(SecurityViews::paper_example());
        assert_eq!(default.intern_budget(), DEFAULT_INTERN_BUDGET);
    }

    #[test]
    fn cloning_copies_entries_and_counters() {
        let (c, _, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        let copy = cached.clone();
        assert_eq!(copy.stats(), cached.stats());
        assert_eq!((copy.stats().entries, copy.stats().misses), (1, 1));
        // The clone answers the warmed shape without a miss, and counts
        // the hit on its own side only.
        copy.label_query(&q(&c, "Q(z) :- Meetings(z, w)"));
        assert_eq!((copy.stats().misses, copy.stats().hits), (1, 1));
        assert_eq!(cached.stats().hits, 0);
    }

    #[test]
    fn a_clone_is_an_independent_copy() {
        let (c, _, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let id = cached.intern(&q(&c, "Q(x) :- Meetings(x, y)"));
        let copy = cached.clone();
        // Ids issued before the clone agree on both sides…
        assert_eq!(copy.intern(&q(&c, "Q(a) :- Meetings(a, b)")), id);
        // …and a shape interned on one side afterwards is unknown to the
        // other, whose next id is its own.
        let late = q(&c, "Q(x) :- Meetings(x, y), Meetings(y, x)");
        let minted = copy.intern(&late);
        assert_eq!(cached.query_interner().lookup(&late), None);
        assert_eq!(cached.query_interner().len(), minted.index());
        let other = q(&c, "Q(x) :- Contacts(x, y, z), Meetings(z, y)");
        assert_eq!(cached.intern(&other), minted);
        assert_eq!(copy.query_interner().lookup(&other), None);
    }

    #[test]
    fn add_view_invalidates_only_the_affected_relation() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let meetings_q = q(&c, "Q(x) :- Meetings(x, y)");
        let contacts_q = q(&c, "Q(x, y, z) :- Contacts(x, y, z)");
        let before_meetings = cached.label_query(&meetings_q);
        cached.label_query(&contacts_q);

        // A new Meetings view appears online (same shape as V2: it answers
        // the time projection, so the cached Meetings mask must change).
        let id = cached
            .add_view("Vtime", q(&c, "Vtime(x) :- Meetings(x, y)"))
            .unwrap();
        assert_eq!(cached.security_views().view(id).name, "Vtime");
        assert_eq!(cached.stats().invalidations, 1);

        // The Contacts entry still answers as a pure, fresh hit.
        let s0 = cached.stats();
        cached.label_query(&contacts_q);
        let s1 = cached.stats();
        assert_eq!(s1.hits, s0.hits + 1);
        assert_eq!(s1.query_refreshes, 0);
        assert_eq!(s1.atom_refreshes, 0);

        // The Meetings entry lazily refreshes and picks up the new view.
        let after_meetings = cached.label_query(&meetings_q);
        let s2 = cached.stats();
        assert_eq!(s2.query_refreshes, 1);
        assert_eq!(s2.atom_refreshes, 1);
        assert_ne!(before_meetings, after_meetings);
        let fresh = BitVectorLabeler::new(cached.security_views().clone());
        assert_eq!(after_meetings, fresh.label_query(&meetings_q));

        // Once refreshed, the entry is a plain hit again.
        let s3 = cached.stats();
        cached.label_query(&meetings_q);
        let s4 = cached.stats();
        assert_eq!(s4.hits, s3.hits + 1);
        assert_eq!(s4.query_refreshes, 1);
    }

    #[test]
    fn stale_entries_rederive_only_their_stale_atoms() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        // A query with one Meetings atom and one Contacts atom.
        let mixed = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        cached.label_query(&mixed);
        cached
            .add_view("Vsel", q(&c, "Vsel(x, y) :- Meetings(x, y)"))
            .unwrap();
        let before = cached.stats();
        let refreshed = cached.label_query(&mixed);
        let after = cached.stats();
        // Exactly one atom (the Meetings one) was re-derived; the Contacts
        // atom kept its mask without touching the slow path.
        assert_eq!(after.query_refreshes, before.query_refreshes + 1);
        assert_eq!(after.atom_refreshes, before.atom_refreshes + 1);
        assert_eq!(after.misses, before.misses);
        let fresh = BitVectorLabeler::new(cached.security_views().clone());
        assert_eq!(refreshed, fresh.label_query(&mixed));
    }

    #[test]
    fn invalidate_relation_refreshes_to_the_same_label() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let query = q(&c, "Q(x) :- Meetings(x, y)");
        let before = cached.label_query(&query);
        let meetings = c.resolve("Meetings").unwrap();
        cached.invalidate_relation(meetings);
        assert_eq!(cached.stats().invalidations, 1);
        // Nothing actually changed, so the refresh reproduces the label —
        // but it must go through the refresh path, not a stale hit.
        assert_eq!(cached.label_query(&query), before);
        assert_eq!(cached.stats().query_refreshes, 1);
    }

    #[test]
    #[should_panic(expected = "rel#999 is not in the catalog")]
    fn invalidating_a_relation_outside_the_catalog_panics() {
        // Regression: this used to record an epoch no checkpoint could be
        // read back with (see `SecurityViews::bump_epoch`).
        CachedLabeler::new(SecurityViews::paper_example()).invalidate_relation(RelId(999));
    }

    #[test]
    fn a_mask_is_extended_only_across_registrations() {
        let entry = QueryPart {
            relation: RelId(0),
            covered: 2,
            survives: true,
            simple: true,
            epoch: 5,
            mask: 0b01,
            needs: 0,
        };
        // One epoch per appended candidate: the tail begins at `covered`.
        assert_eq!(entry.standing(6, 3), Some((0b01, 2)));
        assert_eq!(entry.standing(8, 5), Some((0b01, 2)));
        // An out-of-band bump somewhere in between.
        assert_eq!(entry.standing(6, 2), None);
        assert_eq!(entry.standing(8, 4), None);
        // An entry tagged newer than the registry it is read at (newer
        // epoch, longer list, or both) is recomputed, never extended.
        assert_eq!(entry.standing(4, 1), None);
        assert_eq!(entry.standing(4, 2), None);
        assert_eq!(entry.standing(5, 1), None);
    }

    #[test]
    fn a_part_is_no_larger_than_32_bytes() {
        // A hit reads every part of its entry to know it is fresh.
        assert!(std::mem::size_of::<QueryPart>() <= 32);
    }

    #[test]
    fn a_cache_slot_is_16_bytes() {
        // The entry's one block: a pointer and a length, `None` in the
        // pointer's niche.
        assert_eq!(std::mem::size_of::<Option<QueryEntry>>(), 16);
    }

    #[test]
    fn the_surviving_parts_are_the_label_their_pushes_build() {
        // Every sequence of up to six atom labels over two relations and
        // 3-bit masks (drawn from a fixed generator): the flagged parts, in
        // order, are exactly what pushing every part builds.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..20_000 {
            let len = next(7) as usize;
            let mut parts: Vec<QueryPart> = (0..len)
                .map(|_| QueryPart {
                    relation: RelId(next(2) as u32),
                    covered: 0,
                    survives: next(2) == 0,
                    simple: true,
                    epoch: 0,
                    mask: next(8),
                    needs: 0,
                })
                .collect();
            absorb(&mut parts);
            let entry = QueryEntry {
                parts: parts.into_boxed_slice(),
            };
            let pushed: DisclosureLabel = entry.parts.iter().map(QueryPart::label).collect();
            let survivors: Vec<AtomLabel> = entry.survivors().collect();
            assert_eq!(survivors, pushed.atoms(), "{:?}", entry.parts);
        }
    }

    /// The one part of query `id`'s entry in the labeler's slots.
    fn only_part(cached: &CachedLabeler, id: QueryId) -> QueryPart {
        let slots = cached.slots.borrow();
        let entry = slots[id.index()].as_ref().expect("the query was labeled");
        assert_eq!(entry.parts.len(), 1);
        entry.parts[0]
    }

    #[test]
    fn a_refreshed_mask_covers_the_whole_candidate_list() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let id = cached.intern(&q(&c, "Q(x) :- Meetings(x, y)"));
        cached.label_interned(id);
        assert_eq!(only_part(&cached, id).covered, 2);
        // Extended (a registration), recomputed (an out-of-band bump) and
        // extended again: the count follows the list every time, so the
        // next registration finds a tail of one.
        cached
            .add_view("W0", q(&c, "W0(x) :- Meetings(x, y)"))
            .unwrap();
        cached.label_interned(id);
        let part = only_part(&cached, id);
        assert_eq!((part.covered, part.mask), (3, 0b111));
        cached.invalidate_relation(c.resolve("Meetings").unwrap());
        cached.label_interned(id);
        assert_eq!(only_part(&cached, id).covered, 3);
        cached
            .add_view("W1", q(&c, "W1(y) :- Meetings(x, y)"))
            .unwrap();
        cached.label_interned(id);
        let part = only_part(&cached, id);
        assert_eq!((part.covered, part.mask), (4, 0b0111));
        assert_eq!(part.standing(part.epoch + 1, 5), Some((0b0111, 4)));
    }

    #[test]
    fn an_out_of_band_bump_recomputes_the_mask_in_full() {
        // `invalidate_relation` says "distrust what was derived": a mask
        // that is wrong — planted here, a changed definition in the field —
        // must not survive it.  (An extension would keep its bits.)
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let query = q(&c, "Q(x) :- Meetings(x, y)");
        let id = cached.intern(&query);
        let honest = cached.label_interned(id);
        let part = only_part(&cached, id);
        cached.slots.get_mut()[id.index()]
            .as_mut()
            .expect("labeled above")
            .parts[0]
            .mask ^= 0b11;
        cached.invalidate_relation(c.resolve("Meetings").unwrap());
        assert_eq!(cached.label_interned(id), honest);
        assert_eq!(only_part(&cached, id).mask, part.mask);
        assert_eq!(cached.stats().atom_refreshes, 1);
    }

    #[test]
    fn interned_needs_agree_with_the_boxed_analysis() {
        let mut catalog = Catalog::paper_example();
        catalog.add_relation_with_arity("Wide", 40).unwrap();
        let distinct: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let mut repeated = distinct.clone();
        repeated[39] = "v0".into();
        let mut late_repeat = distinct.clone();
        late_repeat[38] = "v37".into();
        catalog.add_relation_with_arity("Wider", 70).unwrap();
        let wider: Vec<String> = (0..70).map(|i| format!("v{i}")).collect();
        let texts = [
            "Q(x) :- Meetings(x, y)".to_owned(),
            "Q(x) :- Meetings(x, 'Cathy')".to_owned(),
            "Q(x) :- Meetings(x, x)".to_owned(),
            "Q() :- Contacts(x, y, x)".to_owned(),
            "Q(y) :- Contacts(x, y, 'Intern')".to_owned(),
            format!("Q(v0, v7) :- Wide({})", distinct.join(", ")),
            format!("Q(v3) :- Wide({})", repeated.join(", ")),
            format!("Q() :- Wide({})", late_repeat.join(", ")),
            format!("Q(v1) :- Wider({})", wider.join(", ")),
        ];
        let mut interner = QueryInterner::new();
        for text in &texts {
            let query = q(&catalog, text);
            let id = interner.intern(&query);
            assert_eq!(
                InternedDissection::new(interner.resolve(id), &[0]).shape(0),
                Shape::of(query.atom(0)),
                "{text}"
            );
        }
    }

    #[test]
    fn online_additions_respect_the_packed_view_budget() {
        use crate::security_views::MAX_PACKED_VIEWS_PER_RELATION;
        // Regression: the packed serving path carries 32 view bits per
        // relation, but the registry's general capacity is 64 — so an
        // unchecked online addition could push a relation past 32 and make
        // `AtomLabel::pack` silently truncate masks in release builds.
        // `add_view` must reject the 33rd view instead.
        let mut catalog = fdc_cq::Catalog::new();
        catalog.add_relation_with_arity("Wide", 2).unwrap();
        let mut cached = CachedLabeler::new(SecurityViews::new(&catalog));
        for i in 0..MAX_PACKED_VIEWS_PER_RELATION {
            let view = q(&catalog, "V(x, y) :- Wide(x, y)");
            cached.add_view(&format!("v{i}"), view).unwrap();
        }
        let probe = q(&catalog, "Q(x, y) :- Wide(x, y)");
        let before = cached.label_query(&probe);
        let stats_before = cached.stats();

        let overflow = q(&catalog, "V(x, y) :- Wide(x, y)");
        let err = cached.add_view("overflow", overflow).unwrap_err();
        assert_eq!(
            err,
            crate::error::LabelError::TooManyViewsForRelation {
                relation: "Wide".into(),
                count: MAX_PACKED_VIEWS_PER_RELATION + 1,
                limit: MAX_PACKED_VIEWS_PER_RELATION,
            }
        );
        // The rejection is side-effect free: no registry growth, no epoch
        // bump, no invalidation — and every mask still packs faithfully.
        assert_eq!(cached.security_views().len(), MAX_PACKED_VIEWS_PER_RELATION);
        assert_eq!(cached.stats().invalidations, stats_before.invalidations);
        assert_eq!(cached.label_query(&probe), before);
        for packed in cached.label_packed_interned(cached.intern(&probe)) {
            assert_eq!(u64::from(packed.mask()), before.atoms()[0].mask);
        }
    }

    #[test]
    fn incremental_view_additions_match_a_fresh_labeler() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let probes = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q() :- Meetings(x, x)",
        ];
        let additions = [
            ("W0", "W0(x) :- Meetings(x, x)"),
            ("W1", "W1(y) :- Contacts(x, y, z)"),
            ("W2", "W2(x) :- Meetings(x, 'Cathy')"),
            ("W3", "W3(x, z) :- Contacts(x, y, z)"),
        ];
        for (name, text) in additions {
            // Warm between mutations so stale entries exist at every step.
            for text in probes {
                cached.label_query(&q(&c, text));
            }
            cached.add_view(name, q(&c, text)).unwrap();
        }
        let fresh = CachedLabeler::new(cached.security_views().clone());
        let bitvec = BitVectorLabeler::new(cached.security_views().clone());
        for text in probes {
            let query = q(&c, text);
            let incremental = cached.label_query(&query);
            assert_eq!(incremental, fresh.label_query(&query), "on {text}");
            assert_eq!(incremental, bitvec.label_query(&query), "on {text}");
        }
    }

    #[test]
    fn interned_labeling_agrees_with_the_boxed_paths() {
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let texts = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y)",
            "Q() :- Meetings(x, x)",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(p) :- Contacts(p, e, 'Manager'), Meetings(t, p)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts.iter().map(|t| q(&c, t)).collect();
        let ids: Vec<_> = queries.iter().map(|query| cached.intern(query)).collect();
        // Interning is canonical: an alpha-variant maps to the same id.
        assert_eq!(cached.intern(&q(&c, "Q(a) :- Meetings(a, b)")), ids[2]);
        for (query, &id) in queries.iter().zip(&ids) {
            assert_eq!(
                baseline.label_query(query),
                cached.label_interned(id),
                "baseline vs interned disagree on {query:?}"
            );
            assert_eq!(
                cached.label_packed_interned(id),
                baseline.label_query(query).pack()
            );
        }
        // The batch fold matches the sequential fold, and a warm pass is
        // answered entirely from the slot cache.
        let expected = baseline.label_queries(&queries);
        assert_eq!(cached.label_queries_interned(&ids), expected);
        let warm = cached.stats();
        assert_eq!(cached.label_queries_interned(&ids), expected);
        let after = cached.stats();
        assert_eq!(after.misses, warm.misses, "warm pass must not miss");
        assert_eq!(after.hits, warm.hits + ids.len() as u64);
        assert!(cached.label_queries_interned(&[]).is_bottom());
    }

    #[test]
    fn the_arena_budget_bounds_implicit_interning() {
        let (c, baseline, _, _) = paper_labelers();
        let tiny = CachedLabeler::with_intern_budget(SecurityViews::paper_example(), 2);
        let num_views = tiny.security_views().len();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x, y, z) :- Contacts(x, y, z)",
        ];
        for text in texts {
            let query = q(&c, text);
            // Labels stay correct on both sides of the arena budget.
            assert_eq!(tiny.label_query(&query), baseline.label_query(&query));
        }
        // The arena stopped growing at the budget (plus the interned view
        // definitions), however many never-repeating shapes keep arriving.
        let after_sweep = tiny.query_interner().len();
        assert!(
            after_sweep <= 2 + num_views,
            "arena grew past its budget: {after_sweep} ids"
        );
        for text in texts.iter().cycle().take(50) {
            tiny.label_query(&q(&c, text));
        }
        assert_eq!(tiny.query_interner().len(), after_sweep);
        // Uncached shapes still count as misses, and an explicit intern
        // still mints past the budget…
        let before = tiny.stats();
        tiny.label_query(&q(&c, "Q(x, z) :- Contacts(x, y, z)"));
        assert_eq!(tiny.stats().misses, before.misses + 1);
        let explicit = tiny.intern(&q(&c, "Q(y, z) :- Contacts(x, y, z)"));
        assert!(tiny.query_interner().contains(explicit));
        // …but its ids count toward it.
        let pooled = CachedLabeler::with_intern_budget(SecurityViews::paper_example(), 1);
        pooled.intern(&q(&c, "Q(y) :- Meetings(x, y)"));
        assert_eq!(
            pooled.intern_within_budget(&q(&c, "Q() :- Meetings(x, y)")),
            None
        );
    }

    #[test]
    fn the_arena_budget_bounds_a_rebuilt_labeler() {
        // A labeler rebuilt from a spent one's interner (a checkpointed
        // reopen) refuses the shape the spent one refused.
        let (c, _, _, _) = paper_labelers();
        let views = SecurityViews::paper_example();
        let spent = CachedLabeler::with_intern_budget(views.clone(), 2);
        for text in ["Q(y) :- Meetings(x, y)", "Q() :- Meetings(x, y)"] {
            assert!(spent.intern_within_budget(&q(&c, text)).is_some());
        }
        let refused = q(&c, "Q(x) :- Meetings(x, 'Cathy')");
        assert_eq!(spent.intern_within_budget(&refused), None);
        let interner = spent.query_interner().clone();
        let rebuilt = CachedLabeler::with_interner(views, interner.clone(), 2);
        assert_eq!(rebuilt.intern_within_budget(&refused), None);
        assert_eq!(rebuilt.query_interner().len(), interner.len());
        let known = q(&c, "Q(b) :- Meetings(a, b)");
        assert_eq!(
            rebuilt.intern_within_budget(&known),
            interner.lookup(&known)
        );
    }

    #[test]
    fn interned_entries_refresh_after_view_mutations() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let meetings_q = q(&c, "Q(x) :- Meetings(x, y)");
        let id = cached.intern(&meetings_q);
        let before = cached.label_interned(id);
        cached
            .add_view("Vtime", q(&c, "Vtime(x) :- Meetings(x, y)"))
            .unwrap();
        // The stale interned entry re-derives and picks up the new view;
        // the id stays valid across the mutation.
        let after = cached.label_interned(id);
        assert_ne!(before, after);
        let fresh = BitVectorLabeler::new(cached.security_views().clone());
        assert_eq!(after, fresh.label_query(&meetings_q));
        assert_eq!(cached.stats().query_refreshes, 1);
        // label_queries_interned takes the refresh path too, not a stale hit.
        cached.invalidate_relation(c.resolve("Meetings").unwrap());
        assert_eq!(cached.label_queries_interned(&[id]), after);
        assert_eq!(cached.stats().query_refreshes, 2);
    }

    #[test]
    fn stale_tagged_entries_in_a_clone_rederive_never_serve() {
        // An entry whose tag trails the clone's registry is re-derived on
        // lookup, never served stale.
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let query = q(&c, "Q(x) :- Meetings(x, y)");
        cached.label_query(&query);
        // Mutate the registry *after* warming: clones taken now hold an
        // entry tagged with the old epoch.
        cached
            .add_view("Vnew", q(&c, "Vnew(x) :- Meetings(x, y)"))
            .unwrap();
        let clone = cached.clone();
        let fresh = BitVectorLabeler::new(clone.security_views().clone());
        assert_eq!(clone.label_query(&query), fresh.label_query(&query));
        assert_eq!(
            clone.stats().query_refreshes,
            1,
            "the stale entry refreshed"
        );
    }

    #[test]
    fn refreshes_do_not_consume_new_entry_capacity() {
        // A refresh patches its entry where it lies: it keeps its slot and
        // mints no id, so a refresh-heavy labeler near its intern budget
        // still admits a brand-new shape.
        let mut cached = CachedLabeler::with_intern_budget(SecurityViews::paper_example(), 2);
        let c = cached.security_views().catalog().clone();
        let warm = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
        ];
        for text in warm {
            cached.label_query(&q(&c, text));
        }
        assert_eq!(cached.stats().entries, 3);
        let ids = cached.query_interner().len();
        cached.invalidate_relation(c.resolve("Meetings").unwrap());
        for text in warm {
            cached.label_query(&q(&c, text));
        }
        let refreshed = cached.stats();
        assert_eq!(refreshed.query_refreshes, 3);
        assert_eq!(refreshed.entries, 3, "refreshes are not new slots");
        assert_eq!(cached.query_interner().len(), ids, "refreshes mint no id");
        // The budget's last id is still free for a brand-new shape…
        let fresh = q(&c, "Q(x) :- Contacts(x, y, z)");
        cached.label_query(&fresh);
        let before = cached.stats();
        assert_eq!(before.entries, 4, "the new shape was admitted");
        assert_eq!(cached.query_interner().len(), ids + 1);
        // …which then hits.
        cached.label_query(&fresh);
        let after = cached.stats();
        assert_eq!(after.misses, before.misses, "second lookup must hit");
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn a_full_cache_dedups_repeats_within_a_batch() {
        let (c, baseline, _, _) = paper_labelers();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts.iter().map(|t| q(&c, t)).collect();
        let expected = baseline.label_queries(&queries);
        // Every id has a slot, so a cold batch stores each id at its first
        // sight: each distinct id runs the pipeline once, and every repeat
        // is an ordinary hit.
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let ids: Vec<_> = queries.iter().map(|query| cached.intern(query)).collect();
        let batch = [ids[0], ids[1], ids[2], ids[1], ids[0], ids[2], ids[1]];
        assert_eq!(cached.label_queries_interned(&batch), expected);
        let stats = cached.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 4, 3));
        assert_eq!(stats.batch_dedup_hits, 0);
    }

    #[test]
    fn projection_shape_analysis() {
        let c = Catalog::paper_example();
        let exposed = |text: &str| Shape::of(q(&c, text).atom(0)).exposed();
        assert_eq!(exposed("V(x, y) :- Meetings(x, y)"), Some(0b11));
        assert_eq!(exposed("V(x) :- Meetings(x, y)"), Some(0b01));
        assert_eq!(exposed("V(y) :- Meetings(x, y)"), Some(0b10));
        assert_eq!(exposed("V() :- Meetings(x, y)"), Some(0));
        assert_eq!(exposed("V(x) :- Meetings(x, 'Cathy')"), None);
        assert_eq!(exposed("V(x) :- Meetings(x, x)"), None);
    }
}

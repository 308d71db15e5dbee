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
//!   `ℓ⁺` representation of Section 6.1; additionally caches the structural
//!   shape of each security view so the per-candidate check avoids the
//!   general rewriting machinery for the common projection-style views.
//!
//! A fourth variant goes beyond the paper's measured configurations:
//!
//! * [`CachedLabeler`] — a [`BitVectorLabeler`] plus id-keyed memo tables
//!   over the **interned query plane** (`fdc_cq::intern`): queries intern to
//!   dense canonical [`QueryId`]s, so the whole-query cache is a sharded
//!   slot vector (a hit skips folding, dissection and labeling entirely —
//!   and for pre-interned callers, hashing too) and the per-atom `ℓ⁺` cache
//!   is a plain indexed table over the ids `dissect_interned` emits.
//!   Combined with the sharded batch entry point [`label_queries_parallel`]
//!   this is the high-throughput serving path.  The caches are versioned
//!   with the registry's per-relation epochs, so the view universe can
//!   change online ([`CachedLabeler::add_view`]) without flushing: stale
//!   entries re-derive just their stale atoms.
//!
//! All variants produce identical [`DisclosureLabel`]s; the equivalence is
//! asserted by the test suite and exercised again by the Figure 5 benchmark.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use fdc_cq::folding::fold_interned_indices;
use fdc_cq::intern::{ITerm, QueryId, QueryInterner};
use fdc_cq::rewriting::{interned_rewritable_from_single, rewritable_from_single};
use fdc_cq::{ConjunctiveQuery, RelId, Term, VarKind};

use crate::dissect::{dissect, dissect_interned};
use crate::error::Result;
use crate::label::{AtomLabel, DisclosureLabel, PackedLabel, ViewMask};
use crate::pool::{WorkerContext, WorkerPool};
use crate::security_views::{SecurityViewId, SecurityViews};

/// The shared handle to a [`QueryInterner`]: one interner per serving stack,
/// shared between the [`CachedLabeler`] that owns it, the
/// `DisclosureService` front door, and any workload generator that pre-
/// interns its query pool.  The interner only grows, so sharing the handle
/// never invalidates an issued [`QueryId`].
pub type SharedQueryInterner = Arc<RwLock<QueryInterner>>;

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
            let relation = atom_query.atoms()[0].relation;
            let mut mask: ViewMask = 0;
            // Deliberately scan the whole registry (no partitioning): this is
            // the "baseline" curve of Figure 5.
            for (_, view) in self.views.iter() {
                if view.relation == relation && rewritable_from_single(&atom_query, &view.query) {
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
            let relation = atom_query.atoms()[0].relation;
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

/// Pre-analyzed shape of a single-atom security view, used by
/// [`BitVectorLabeler`] to answer `{atom} ⪯ {view}` with plain bit tests in
/// the common case.
///
/// A *projection-style* view has no constants and no repeated variables: it
/// is fully described by the bit mask of the positions it exposes
/// (distinguished positions).  For such views, an atom query with exposed
/// positions `E`, constant positions `C` and no repeated variables is
/// answerable iff `E ∪ C ⊆ exposed(view)`.  Views or atoms that fall outside
/// this shape fall back to the general rewriting check.
#[derive(Debug, Clone)]
struct CompiledView {
    id: SecurityViewId,
    bit: u32,
    /// Bit `i` set iff position `i` of the view is a distinguished variable.
    exposed_positions: Option<u64>,
}

/// The fully optimized labeler of Figure 5 ("bit vectors + hashing") and
/// Section 6.1.
#[derive(Debug, Clone)]
pub struct BitVectorLabeler {
    views: SecurityViews,
    by_relation: HashMap<RelId, Vec<CompiledView>>,
}

impl BitVectorLabeler {
    /// Builds a bit-vector labeler over a view registry.
    pub fn new(views: SecurityViews) -> Self {
        let mut by_relation: HashMap<RelId, Vec<CompiledView>> = HashMap::new();
        for (id, view) in views.iter() {
            by_relation
                .entry(view.relation)
                .or_default()
                .push(CompiledView {
                    id,
                    bit: view.bit,
                    exposed_positions: projection_shape(&view.query),
                });
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
        if let Some(atom) = query.atoms().first() {
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
        let view = self.views.view(id);
        self.by_relation
            .entry(view.relation)
            .or_default()
            .push(CompiledView {
                id,
                bit: view.bit,
                exposed_positions: projection_shape(&view.query),
            });
        Ok(id)
    }

    /// Computes `ℓ⁺` of one dissected single-atom query as a packed view
    /// mask, using the compiled projection shapes where possible.
    ///
    /// This is the per-atom step of [`label_query`](QueryLabeler::label_query),
    /// exposed so that memoizing layers (see [`CachedLabeler`]) can fill cache
    /// misses without re-dissecting.  The query must be single-atom
    /// (multi-atom queries go through `Dissect` first); debug builds assert
    /// this, release builds would silently consider only the first atom.
    pub fn atom_mask(&self, atom_query: &ConjunctiveQuery) -> ViewMask {
        debug_assert!(
            atom_query.is_single_atom(),
            "atom_mask requires a dissected single-atom query"
        );
        let relation = atom_query.atoms()[0].relation;
        let mut mask: ViewMask = 0;
        if let Some(candidates) = self.by_relation.get(&relation) {
            let needs = atom_needs(atom_query);
            for compiled in candidates {
                let answers = match (needs, compiled.exposed_positions) {
                    // Fast path: projection-style atom vs projection-style
                    // view — answerable iff every needed position is
                    // exposed by the view.
                    (Some(needed), Some(exposed)) => needed & !exposed == 0,
                    // Fallback: the general rewriting check.
                    _ => rewritable_from_single(atom_query, &self.views.view(compiled.id).query),
                };
                if answers {
                    mask |= 1u64 << compiled.bit;
                }
            }
        }
        mask
    }
}

/// If the single-atom query is projection-style (no constants, no repeated
/// variables), returns the bit mask of positions holding distinguished
/// variables; otherwise `None`.
fn projection_shape(query: &ConjunctiveQuery) -> Option<u64> {
    let atom = query.atoms().first()?;
    if atom.arity() > 64 || atom.has_constants() || atom.has_repeated_vars() {
        return None;
    }
    let mut mask = 0u64;
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Var(_, VarKind::Distinguished) => mask |= 1u64 << i,
            Term::Var(_, VarKind::Existential) => {}
            Term::Const(_) => return None,
        }
    }
    Some(mask)
}

/// For a single-atom query without repeated variables, the mask of positions
/// a projection-style view must expose to answer it: the positions holding
/// distinguished variables or constants.  `None` if the atom has repeated
/// variables (those need the general rewriting check).
///
/// Constants are included because a selection such as `M(x, 'Cathy')` is
/// answerable from a projection view exactly when the constant's column is
/// exposed (the rewriting applies the selection on top of the view).
fn atom_needs(query: &ConjunctiveQuery) -> Option<u64> {
    let atom = query.atoms().first()?;
    if atom.arity() > 64 || atom.has_repeated_vars() {
        return None;
    }
    let mut needed = 0u64;
    for (i, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Var(_, VarKind::Distinguished) | Term::Const(_) => needed |= 1u64 << i,
            Term::Var(_, VarKind::Existential) => {}
        }
    }
    Some(needed)
}

/// [`atom_needs`] over the interned flat representation: the needed-position
/// mask of one single-atom term slice, or `None` if the atom has repeated
/// variables (those need the general rewriting check).
fn interned_atom_needs(terms: &[ITerm]) -> Option<u64> {
    if terms.len() > 64 {
        return None;
    }
    let mut needed = 0u64;
    for (i, term) in terms.iter().enumerate() {
        if let Some(v) = term.var_index() {
            if terms[i + 1..].iter().any(|t| t.var_index() == Some(v)) {
                return None;
            }
        }
        match term {
            ITerm::Var(_, VarKind::Distinguished) | ITerm::Const(_) => needed |= 1u64 << i,
            ITerm::Var(_, VarKind::Existential) => {}
        }
    }
    Some(needed)
}

/// Computes `ℓ⁺` of one interned single-atom query against the compiled
/// per-relation candidates — the interned counterpart of
/// [`BitVectorLabeler::atom_mask`], and guaranteed to compute the same
/// mask: the projection fast path tests the same bit sets, and the
/// fallback runs the interned rewriting check against the interned view
/// definition.  Shared by the live [`CachedLabeler`] and its
/// [`LabelerSnapshot`]s, which differ only in where the result is cached.
fn interned_atom_mask(
    inner: &BitVectorLabeler,
    view_qids: &[QueryId],
    interner: &QueryInterner,
    atom: QueryId,
    relation: RelId,
) -> ViewMask {
    let atom_ref = interner.resolve(atom);
    debug_assert!(atom_ref.is_single_atom(), "dissected parts are single-atom");
    let needs = interned_atom_needs(atom_ref.atom_terms(0));
    let mut mask: ViewMask = 0;
    if let Some(candidates) = inner.by_relation.get(&relation) {
        for compiled in candidates {
            let answers = match (needs, compiled.exposed_positions) {
                (Some(needed), Some(exposed)) => needed & !exposed == 0,
                _ => interned_rewritable_from_single(
                    atom_ref,
                    interner.resolve(view_qids[compiled.id.index()]),
                ),
            };
            if answers {
                mask |= 1u64 << compiled.bit;
            }
        }
    }
    mask
}

/// Dissects an interned query into its single-atom parts, returning each
/// part's interned id, dense single-atom ordinal and relation.
///
/// A shape whose fold is not on record yet is folded under the **read**
/// lock — the fold is a pure function of the resolved view, and one hard
/// shape must not stall every other worker's front-door lookup — and the
/// write lock is taken only to record the result (idempotent, should
/// another worker have recorded it in between) and to mint part ids.
fn dissect_part_ids(interner: &SharedQueryInterner, id: QueryId) -> Vec<(QueryId, u32, RelId)> {
    let core = {
        let interner = interner.read().unwrap_or_else(|e| e.into_inner());
        match interner.cached_core(id) {
            Some(_) => None,
            None => Some(fold_interned_indices(interner.resolve(id))),
        }
    };
    let mut interner = interner.write().unwrap_or_else(|e| e.into_inner());
    if let Some(kept) = core {
        interner.record_core(id, &kept);
    }
    dissect_interned(&mut interner, id)
        .into_iter()
        .map(|(atom, relation)| {
            let ordinal = interner
                .single_atom_ordinal(atom)
                .expect("dissected parts are single-atom");
            (atom, ordinal, relation)
        })
        .collect()
}

/// Interns `query` if the implicit-intern budget still has room, returning
/// its id; `None` once `budget` has reached `capacity` and the shape is
/// unknown (the caller serves it through the uncached pipeline).  Shared by
/// [`CachedLabeler::label_query`] and [`LabelerSnapshot::label_query`] so
/// the live labeler and its snapshots draw on one arena budget.
fn intern_within_budget(
    interner: &SharedQueryInterner,
    budget: &AtomicUsize,
    capacity: usize,
    query: &ConjunctiveQuery,
) -> Option<QueryId> {
    // The arena budget counts the shapes the implicit path has interned —
    // dissected parts, view definitions and explicitly interned pools do
    // not consume it (they are bounded by the shapes that carry them).
    // The unsynchronized load can overshoot by a few entries under
    // concurrent first sightings; the bound stays O(capacity).
    let guard = interner.read().unwrap_or_else(|e| e.into_inner());
    match guard.lookup(query) {
        Some(id) => Some(id),
        None if budget.load(Ordering::Relaxed) >= capacity => None,
        None => {
            drop(guard);
            let mut guard = interner.write().unwrap_or_else(|e| e.into_inner());
            let before = guard.len();
            let id = guard.intern(query);
            // Another thread may have interned the shape between the two
            // locks; only the one that grew the arena is charged.
            if guard.len() > before {
                budget.fetch_add(1, Ordering::Relaxed);
            }
            Some(id)
        }
    }
}

impl QueryLabeler for BitVectorLabeler {
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        let mut label = DisclosureLabel::bottom();
        for atom_query in dissect(query) {
            let relation = atom_query.atoms()[0].relation;
            let mask = self.atom_mask(&atom_query);
            label.push(AtomLabel::new(relation, mask));
        }
        label
    }

    fn security_views(&self) -> &SecurityViews {
        &self.views
    }
}

// ---------------------------------------------------------------------------
// Cached: canonical-form memoization of the per-atom ℓ⁺ step.
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
    /// Per-atom `ℓ⁺` computations answered from the atom-level cache
    /// (only query-level misses and stale refreshes reach it).
    pub atom_hits: u64,
    /// Per-atom `ℓ⁺` computations that ran the full per-view check.
    pub atom_misses: u64,
    /// Number of distinct canonical atom forms currently cached.
    pub atom_entries: usize,
    /// Query-cache entries refreshed in place because some atom's relation
    /// epoch had advanced — only the stale atoms were re-derived, folding
    /// and dissection were skipped.
    pub query_refreshes: u64,
    /// Atom-cache entries recomputed because their relation epoch had
    /// advanced.
    pub atom_refreshes: u64,
    /// View-universe invalidations applied to this labeler
    /// ([`CachedLabeler::add_view`] / [`CachedLabeler::invalidate_relation`]).
    pub invalidations: u64,
    /// Whole-query labelings answered by batch-level dedup: a duplicate of
    /// a query already labeled earlier in the *same batch* reused that
    /// label instead of re-entering the pipeline.  Every dedup hit is also
    /// counted in [`hits`](Self::hits), so the other counters match what a
    /// sequential run of the same batch would report.
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

/// An atom-cache entry: the memoized `ℓ⁺` mask plus the epoch of the atom's
/// relation at computation time.  A lookup whose stored epoch trails the
/// registry's current epoch is stale and recomputes in place.
#[derive(Debug, Clone, Copy)]
struct AtomEntry {
    mask: ViewMask,
    epoch: u64,
}

/// One dissected part of a cached query entry.
///
/// The interned id of the single-atom query is retained so that an epoch
/// change can re-derive *just this atom's* mask: the expensive front of the
/// pipeline (folding and dissection, NP-hard in general) never re-runs for a
/// cached shape.  The relation, epoch and mask are stored per part — NOT
/// read back from the finished label — because [`DisclosureLabel::push`]
/// absorbs redundant atom labels, so the label's atoms are not 1:1 with the
/// dissected parts.
#[derive(Debug, Clone, Copy)]
struct QueryPart {
    /// Interned id of the dissected single-atom query.
    atom: QueryId,
    /// The atom's dense single-atom ordinal — the slot index of the
    /// per-atom cache, kept proportional to distinct atoms rather than the
    /// whole arena id space.
    ordinal: u32,
    relation: RelId,
    /// Epoch of the part's relation when its mask was computed.
    epoch: u64,
    /// The part's `ℓ⁺` mask at that epoch.
    mask: ViewMask,
}

/// A query-cache entry: the finished label plus the dissected parts it was
/// folded from.
#[derive(Debug, Clone)]
struct QueryEntry {
    label: DisclosureLabel,
    parts: Vec<QueryPart>,
}

/// Number of independent locks the query-level slot cache is striped over.
/// Query `id` lives in shard `id % QUERY_CACHE_SHARDS` at slot
/// `id / QUERY_CACHE_SHARDS`, so consecutive ids (the common case for a
/// workload interned in arrival order) spread across all stripes.
const QUERY_CACHE_SHARDS: usize = 16;

/// One stripe of the query-level cache: a plain slot vector indexed by
/// `QueryId / QUERY_CACHE_SHARDS`.  Dense ids make a `Vec` strictly better
/// than a hash map here: no hashing, no probing, and the lock is held for a
/// bounds check plus an index.
#[derive(Debug, Clone, Default)]
struct QueryCacheShard {
    slots: Vec<Option<QueryEntry>>,
}

/// The striped cache tables of a [`CachedLabeler`]: the query-level slot
/// stripes, the ordinal-indexed atom table, and the occupancy / arena-budget
/// gauges.
///
/// The tables live behind an `Arc` so a [`LabelerSnapshot`] can hold a
/// **read-only** handle onto the live labeler's warm state while serving
/// against a frozen epoch vector: the snapshot never writes here (its own
/// computations land in a private overlay) until it is retired through
/// [`CachedLabeler::retire_snapshot`], which publishes the overlay back so
/// warm state survives epochs.
#[derive(Debug)]
struct LabelTables {
    query_shards: Vec<RwLock<QueryCacheShard>>,
    /// Occupied query slots across all stripes (capacity accounting).
    query_entries: AtomicUsize,
    /// Per-atom `ℓ⁺` table, indexed by the interner's dense single-atom
    /// ordinal (so its footprint tracks distinct atoms, not arena ids).
    atom_cache: RwLock<Vec<Option<AtomEntry>>>,
    /// Occupied atom slots (capacity accounting).
    atom_entries: AtomicUsize,
    /// Shapes interned by the implicit `label_query` path — the arena
    /// budget (explicit `intern` calls are exempt, as are the dissected
    /// parts and view definitions that ride along with admitted shapes).
    implicit_interns: AtomicUsize,
}

impl LabelTables {
    fn new() -> Self {
        LabelTables {
            query_shards: (0..QUERY_CACHE_SHARDS)
                .map(|_| RwLock::new(QueryCacheShard::default()))
                .collect(),
            query_entries: AtomicUsize::new(0),
            atom_cache: RwLock::new(Vec::new()),
            atom_entries: AtomicUsize::new(0),
            implicit_interns: AtomicUsize::new(0),
        }
    }

    fn read_shard(&self, shard: usize) -> std::sync::RwLockReadGuard<'_, QueryCacheShard> {
        self.query_shards[shard]
            .read()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn write_shard(&self, shard: usize) -> std::sync::RwLockWriteGuard<'_, QueryCacheShard> {
        self.query_shards[shard]
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn read_atoms(&self) -> std::sync::RwLockReadGuard<'_, Vec<Option<AtomEntry>>> {
        self.atom_cache.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts (or refreshes) a query-cache entry, growing the stripe's slot
    /// vector only when actually admitting, and keeping the occupancy gauge
    /// exact (incremented only when an empty slot fills — under the stripe's
    /// write lock, so no double counting).
    fn store_query(&self, shard_idx: usize, slot: usize, entry: QueryEntry) {
        self.store_query_counted(shard_idx, slot, entry, true);
    }

    /// [`store_query`](Self::store_query) with explicit gauge control:
    /// `count_new: false` fills the slot without charging the occupancy
    /// gauge — used by snapshot overlays storing a *refresh* of an entry
    /// that still occupies the same slot in the shared base table (the
    /// distinct-slot count across base + overlay is unchanged, so charging
    /// it would double-count against the capacity).
    fn store_query_counted(
        &self,
        shard_idx: usize,
        slot: usize,
        entry: QueryEntry,
        count_new: bool,
    ) {
        let mut shard = self.write_shard(shard_idx);
        if slot >= shard.slots.len() {
            shard.slots.resize_with(slot + 1, || None);
        }
        if count_new && shard.slots[slot].is_none() {
            self.query_entries.fetch_add(1, Ordering::Relaxed);
        }
        shard.slots[slot] = Some(entry);
    }

    /// The cached atom entry at `slot`, if any.  `slot` is a dense
    /// single-atom ordinal that may have been minted *after* the table was
    /// last grown — out-of-range reads are an ordinary miss, never a panic.
    fn get_atom(&self, slot: usize) -> Option<AtomEntry> {
        self.read_atoms().get(slot).copied().flatten()
    }

    /// Inserts (or refreshes) an atom-cache entry, growing the table to
    /// cover the ordinal.  Growth happens under the write lock and is
    /// re-checked there: an ordinal minted after the table was sized (the
    /// interner grows between `dissect_interned` and the cache write) simply
    /// extends the table — it can neither index out of bounds nor be
    /// silently dropped.
    fn store_atom(&self, slot: usize, entry: AtomEntry) {
        self.store_atom_counted(slot, entry, true);
    }

    /// [`store_atom`](Self::store_atom) with explicit gauge control — see
    /// [`store_query_counted`](Self::store_query_counted).
    fn store_atom_counted(&self, slot: usize, entry: AtomEntry, count_new: bool) {
        let mut cache = self.atom_cache.write().unwrap_or_else(|e| e.into_inner());
        if slot >= cache.len() {
            cache.resize_with(slot + 1, || None);
        }
        if count_new && cache[slot].is_none() {
            self.atom_entries.fetch_add(1, Ordering::Relaxed);
        }
        cache[slot] = Some(entry);
    }

    /// Drops every cached entry (gauges included); counters owned by the
    /// labelers are untouched.
    fn clear(&self) {
        for shard in 0..QUERY_CACHE_SHARDS {
            self.write_shard(shard).slots.clear();
        }
        self.query_entries.store(0, Ordering::Relaxed);
        self.atom_cache
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.atom_entries.store(0, Ordering::Relaxed);
    }
}

/// A labeler that memoizes labeling by **interned query id**, at two levels.
///
/// A disclosure label depends only on the query's structure up to variable
/// renaming — the atoms, the constants, the variable-equality pattern and
/// the distinguished/existential tags.  The [`QueryInterner`] canonicalizes
/// exactly that, so `QueryId` equality *is* canonical-form equality and the
/// **query-level** cache becomes a sharded slot vector
/// indexed by id: a hit is a lock-striped `Vec` index straight to a finished
/// [`DisclosureLabel`], skipping the whole pipeline including the NP-hard
/// folding step of `Dissect`.  (This replaces the seed's single
/// `RwLock<HashMap<QueryKey, _>>`, whose every lookup allocated one key
/// vector per atom and serialized on one lock.)  Query-level misses run the
/// pipeline with a second, **atom-level** cache — a plain indexed table over
/// the ids [`dissect_interned`] emits — memoizing the per-atom `ℓ⁺` masks
/// that recur across distinct query shapes (e.g. the `Friend` join atoms the
/// Section 7.2 workload attaches to every friends-audience query).
///
/// Queries arriving as boxed [`ConjunctiveQuery`]s are interned on first
/// sight ([`intern`](Self::intern) / [`label_query`](QueryLabeler::label_query));
/// callers holding pre-interned ids — the `DisclosureService` admission
/// loop, the benchmark workloads — skip even that and call
/// [`label_interned`](Self::label_interned) /
/// [`label_queries_interned`](Self::label_queries_interned) directly.
///
/// Atom-level misses are filled by the interned per-view check (projection
/// bit tests with the interned rewriting fallback), which computes exactly
/// what [`BitVectorLabeler`] computes; the labeler never produces a
/// different label than the paper's three Figure 5 variants (asserted by
/// the property tests).
///
/// Both caches are internally synchronized: labeling takes `&self`, so one
/// `CachedLabeler` can be shared across worker threads — see
/// [`label_queries_parallel`] for the batch entry point.
///
/// Memory is bounded: each cache stops admitting new entries once it holds
/// [`capacity_limit`](Self::capacity_limit) canonical forms (lookups and
/// the computed results are unaffected — over-limit shapes are simply
/// recomputed), so a high-cardinality or adversarial stream of
/// never-repeating shapes cannot grow the tables without bound.  The
/// interner is bounded by the same limit on the implicit path: once
/// [`label_query`](QueryLabeler::label_query) has interned `capacity_limit`
/// distinct shapes, it stops interning unknown ones and falls back to the
/// uncached [`BitVectorLabeler`] pipeline (identical labels, counted as
/// misses).
/// Explicit [`intern`](Self::intern) calls are exempt — a caller asking for
/// an id is sizing its own pool and gets one unconditionally (dissected
/// atom parts of admitted shapes ride along the same exemption).
///
/// The labeler is **epoch-aware**: every cached mask and label records the
/// per-relation epoch of the [`SecurityViews`] registry it was computed
/// under.  When the view universe of relation `R` changes — an online
/// [`add_view`](Self::add_view) or an explicit
/// [`invalidate_relation`](Self::invalidate_relation) — only `R`'s epoch
/// advances; cached entries touching `R` become lazily stale and re-derive
/// exactly the stale atoms on their next lookup, while entries over other
/// relations keep hitting.  This is what lets a long-running service absorb
/// policy/view churn without flushing (and re-warming) the whole cache.
#[derive(Debug)]
pub struct CachedLabeler {
    inner: BitVectorLabeler,
    /// The query interner — the id authority every cache below is keyed by.
    /// Shared (`Arc`) so the service front door and workload generators can
    /// intern into the same id space; see [`SharedQueryInterner`].
    interner: SharedQueryInterner,
    /// Interned definition of every registered security view, indexed by
    /// [`SecurityViewId`] — the right-hand operand of the interned
    /// rewriting fallback.  Mutated only under `&mut self` (`add_view`).
    view_qids: Vec<QueryId>,
    /// The striped query/atom cache tables, `Arc`-shared so that
    /// [`snapshot`](Self::snapshot)s can keep answering warmed shapes while
    /// the live labeler moves on to newer epochs.
    tables: Arc<LabelTables>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    atom_hits: AtomicU64,
    atom_misses: AtomicU64,
    query_refreshes: AtomicU64,
    atom_refreshes: AtomicU64,
    invalidations: AtomicU64,
    batch_dedup_hits: AtomicU64,
}

/// Default per-cache entry limit of a [`CachedLabeler`].
///
/// Entries are a canonical key plus a small label (tens to a few hundred
/// bytes each), so the default bounds each table to the low hundreds of
/// megabytes in the worst case while comfortably holding every shape a
/// realistic workload produces.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

impl Clone for CachedLabeler {
    /// Cloning snapshots the cached entries and resets the counters.  The
    /// interner handle is **shared**, not copied — it only grows, so ids
    /// stay aligned between the original and the clone (which is what lets
    /// a snapshot keep answering warmed shapes).
    ///
    /// The snapshot is **consistent**: every query stripe's read lock and
    /// the atom table's read lock are held simultaneously while copying, so
    /// a clone taken while other threads label through the original can
    /// never capture one stripe before a concurrent insertion and another
    /// after it with a drifted occupancy gauge — the clone's `entries` /
    /// `atom_entries` gauges are recomputed from the copied slots, not
    /// copied from the racing atomics.  (Epoch bumps require `&mut self`
    /// and therefore cannot overlap a clone at all; concurrently inserted
    /// entries carry honest epoch tags either way, so a stale-tagged entry
    /// is always re-derived on lookup, never served — asserted by
    /// `concurrent_clones_are_internally_consistent`.)
    fn clone(&self) -> Self {
        // Take every stripe lock first (in index order, matching no writer
        // that ever holds two), then the atom lock: one consistent cut.
        let stripe_guards: Vec<_> = (0..QUERY_CACHE_SHARDS)
            .map(|shard| self.tables.read_shard(shard))
            .collect();
        let atom_guard = self.tables.read_atoms();
        let tables = LabelTables::new();
        let mut query_entries = 0usize;
        for (shard, guard) in stripe_guards.iter().enumerate() {
            query_entries += guard.slots.iter().filter(|slot| slot.is_some()).count();
            *tables.query_shards[shard]
                .write()
                .unwrap_or_else(|e| e.into_inner()) = (**guard).clone();
        }
        tables.query_entries.store(query_entries, Ordering::Relaxed);
        let atom_entries = atom_guard.iter().filter(|slot| slot.is_some()).count();
        *tables.atom_cache.write().unwrap_or_else(|e| e.into_inner()) = atom_guard.clone();
        tables.atom_entries.store(atom_entries, Ordering::Relaxed);
        tables.implicit_interns.store(
            self.tables.implicit_interns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        drop(atom_guard);
        drop(stripe_guards);
        CachedLabeler {
            inner: self.inner.clone(),
            interner: Arc::clone(&self.interner),
            view_qids: self.view_qids.clone(),
            tables: Arc::new(tables),
            capacity: self.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            atom_hits: AtomicU64::new(0),
            atom_misses: AtomicU64::new(0),
            query_refreshes: AtomicU64::new(0),
            atom_refreshes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            batch_dedup_hits: AtomicU64::new(0),
        }
    }
}

impl CachedLabeler {
    /// Builds a caching labeler over a view registry with the
    /// [default capacity limit](DEFAULT_CACHE_CAPACITY).
    pub fn new(views: SecurityViews) -> Self {
        Self::with_capacity_limit(views, DEFAULT_CACHE_CAPACITY)
    }

    /// Builds a caching labeler whose query- and atom-level caches each
    /// admit at most `capacity` entries (at least 1).
    ///
    /// Every registered security view is interned up front, so the interned
    /// rewriting fallback never has to intern mid-labeling.
    pub fn with_capacity_limit(views: SecurityViews, capacity: usize) -> Self {
        let mut interner = QueryInterner::new();
        let mut view_qids = Vec::with_capacity(views.len());
        for (id, view) in views.iter() {
            debug_assert_eq!(id.index(), view_qids.len(), "view ids are dense");
            view_qids.push(interner.intern(&view.query));
        }
        CachedLabeler {
            inner: BitVectorLabeler::new(views),
            interner: Arc::new(RwLock::new(interner)),
            view_qids,
            tables: Arc::new(LabelTables::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            atom_hits: AtomicU64::new(0),
            atom_misses: AtomicU64::new(0),
            query_refreshes: AtomicU64::new(0),
            atom_refreshes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            batch_dedup_hits: AtomicU64::new(0),
        }
    }

    /// Builds a caching labeler over a view registry with a
    /// **pre-populated** interner — the recovery constructor.
    ///
    /// Where [`with_capacity_limit`](Self::with_capacity_limit) starts
    /// from an empty interner and interns the view queries as ids
    /// `0, 1, …`, this takes an interner restored from a checkpoint
    /// (`QueryInterner::decode_from`) that already holds those shapes:
    /// interning a view query again finds its existing id, so every
    /// `QueryId` minted before the checkpoint stays valid — the property
    /// that makes interned admissions replayable across restarts.
    pub fn with_interner(
        views: SecurityViews,
        mut interner: QueryInterner,
        capacity: usize,
    ) -> Self {
        let mut view_qids = Vec::with_capacity(views.len());
        for (id, view) in views.iter() {
            debug_assert_eq!(id.index(), view_qids.len(), "view ids are dense");
            view_qids.push(interner.intern(&view.query));
        }
        CachedLabeler {
            inner: BitVectorLabeler::new(views),
            interner: Arc::new(RwLock::new(interner)),
            view_qids,
            tables: Arc::new(LabelTables::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            atom_hits: AtomicU64::new(0),
            atom_misses: AtomicU64::new(0),
            query_refreshes: AtomicU64::new(0),
            atom_refreshes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            batch_dedup_hits: AtomicU64::new(0),
        }
    }

    /// The per-cache entry limit.
    pub fn capacity_limit(&self) -> usize {
        self.capacity
    }

    /// The shared query-interner handle.
    ///
    /// Clone the handle to intern workload pools into this labeler's id
    /// space (see `fdc_ecosystem::ChurnGenerator::attach_interner`), or
    /// lock it read-only to resolve ids back to queries.
    pub fn interner(&self) -> SharedQueryInterner {
        Arc::clone(&self.interner)
    }

    /// Interns a query into this labeler's id space, returning its dense
    /// [`QueryId`].
    ///
    /// Already-interned shapes (including alpha-variants) take only the
    /// interner's read lock; genuinely new shapes take the write lock once.
    ///
    /// Explicit interning is exempt from the
    /// [`capacity_limit`](Self::capacity_limit) arena budget that bounds
    /// the implicit [`label_query`](QueryLabeler::label_query) path: a
    /// caller asking for an id is sizing its own pool and gets one
    /// unconditionally.
    pub fn intern(&self, query: &ConjunctiveQuery) -> QueryId {
        if let Some(id) = self.read_interner().lookup(query) {
            return id;
        }
        self.interner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .intern(query)
    }

    fn read_interner(&self) -> std::sync::RwLockReadGuard<'_, QueryInterner> {
        self.interner.read().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn shard_and_slot(id: QueryId) -> (usize, usize) {
        (
            id.index() % QUERY_CACHE_SHARDS,
            id.index() / QUERY_CACHE_SHARDS,
        )
    }

    fn read_query_shard(&self, shard: usize) -> std::sync::RwLockReadGuard<'_, QueryCacheShard> {
        self.tables.read_shard(shard)
    }

    /// The current epoch of a relation's view universe (delegated to the
    /// owned registry).  Epochs only change under `&mut self`, so they are
    /// stable for the duration of any `&self` labeling call.
    #[inline]
    fn epoch_of(&self, relation: RelId) -> u64 {
        self.inner.views.epoch(relation)
    }

    /// `ℓ⁺` of one dissected single-atom query (by interned id), through the
    /// epoch-checked indexed atom table.  `ordinal` is the atom's dense
    /// single-atom ordinal — the table's slot index.
    ///
    /// The ordinal may lie past the table's current length (the interner
    /// mints ordinals faster than the table grows when distinct atoms keep
    /// arriving): the read treats out-of-range slots as a plain miss and the
    /// write path ([`LabelTables::store_atom`]) extends the table under the
    /// write lock, so a mid-batch interner growth between `dissect_interned`
    /// and the cache write can neither index out of bounds nor lose the
    /// entry — asserted by `atom_ordinals_minted_mid_batch_grow_the_table`.
    fn cached_atom_mask(&self, atom: QueryId, ordinal: u32, relation: RelId) -> ViewMask {
        let current = self.epoch_of(relation);
        let slot = ordinal as usize;
        let mut stale = false;
        if let Some(entry) = self.tables.get_atom(slot) {
            if entry.epoch == current {
                self.atom_hits.fetch_add(1, Ordering::Relaxed);
                return entry.mask;
            }
            stale = true;
        }
        let mask = {
            let interner = self.read_interner();
            interned_atom_mask(&self.inner, &self.view_qids, &interner, atom, relation)
        };
        let counter = if stale {
            &self.atom_refreshes
        } else {
            &self.atom_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Refreshing an existing slot never grows the table, so stale
        // entries are always re-admitted; brand-new atoms respect the
        // capacity (the slot vector only grows for admitted entries).
        if stale || self.tables.atom_entries.load(Ordering::Relaxed) < self.capacity {
            self.tables.store_atom(
                slot,
                AtomEntry {
                    mask,
                    epoch: current,
                },
            );
        }
        mask
    }

    /// Registers one more security view online.
    ///
    /// Only the view's relation is invalidated (its epoch advances inside
    /// the registry): cached labels and masks for every other relation keep
    /// hitting, and entries touching the relation lazily re-derive just
    /// their stale atoms.  This is the incremental-relabeling path a
    /// dynamic service uses for `AddSecurityView` operations.
    pub fn add_view(&mut self, name: &str, query: ConjunctiveQuery) -> Result<SecurityViewId> {
        let view_qid = self
            .interner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .intern(&query);
        let id = self.inner.add_view(name, query)?;
        debug_assert_eq!(id.index(), self.view_qids.len(), "view ids are dense");
        self.view_qids.push(view_qid);
        *self.invalidations.get_mut() += 1;
        Ok(id)
    }

    /// Marks every cached label and mask derived for atoms over `relation`
    /// as stale by advancing the relation's epoch.
    ///
    /// Stale entries are not dropped: they re-derive lazily (and only their
    /// stale atoms) on next lookup.  Use this when a view definition changed
    /// out of band; [`add_view`](Self::add_view) invalidates automatically.
    pub fn invalidate_relation(&mut self, relation: RelId) {
        self.inner.views.bump_epoch(relation);
        *self.invalidations.get_mut() += 1;
    }

    /// Current hit/miss/invalidation counters and cache sizes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.tables.query_entries.load(Ordering::Relaxed),
            atom_hits: self.atom_hits.load(Ordering::Relaxed),
            atom_misses: self.atom_misses.load(Ordering::Relaxed),
            atom_entries: self.tables.atom_entries.load(Ordering::Relaxed),
            query_refreshes: self.query_refreshes.load(Ordering::Relaxed),
            atom_refreshes: self.atom_refreshes.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            batch_dedup_hits: self.batch_dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached entry while keeping the hit/miss/refresh
    /// counters — the flush-on-mutation strategy the epoch machinery
    /// exists to avoid, kept as the Figure 7 baseline
    /// (`InvalidationMode::FlushOnMutation` in `fdc-service`).  Keeping
    /// the counters cumulative is what makes the baseline's cost visible:
    /// every post-flush relabeling still counts as a miss.
    pub fn clear_entries(&self) {
        self.tables.clear();
    }

    /// Drops every cached entry **and** resets the counters (e.g. to
    /// isolate a fresh measurement window); see
    /// [`clear_entries`](Self::clear_entries) to flush without losing the
    /// cumulative statistics.
    pub fn clear(&self) {
        self.clear_entries();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.atom_hits.store(0, Ordering::Relaxed);
        self.atom_misses.store(0, Ordering::Relaxed);
        self.query_refreshes.store(0, Ordering::Relaxed);
        self.atom_refreshes.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.batch_dedup_hits.store(0, Ordering::Relaxed);
    }

    /// Labels a batch in parallel and folds the results into the cumulative
    /// disclosure label, using the process-wide [`WorkerPool`].
    ///
    /// Equivalent to [`QueryLabeler::label_queries`] (asserted by the test
    /// suite — the label lattice LUB is idempotent, so deduplicating
    /// repeats cannot change the fold).  Batches of at least
    /// [`POOLED_BATCH_THRESHOLD`] queries on a multi-core host are handed
    /// to the persistent workers as queue pushes (no thread spawns): the
    /// batch labels through a one-off [`LabelerSnapshot`] whose cache work
    /// — entries, counters, capacity charges — is drained back into this
    /// labeler when the batch completes, so the pooled path warms the
    /// cache exactly like the sequential one.  Smaller batches (and
    /// single-core hosts) label sequentially on the calling thread with
    /// batch-level dedup on canonical identity
    /// ([`label_queries_deduped`](Self::label_queries_deduped)).
    pub fn label_queries_batch(&self, queries: &[ConjunctiveQuery]) -> DisclosureLabel {
        // Length check first: small batches must not spin up the global
        // pool just to decide they don't need it.
        if queries.len() < POOLED_BATCH_THRESHOLD {
            return self.label_queries_deduped(queries);
        }
        let pool = WorkerPool::global();
        if pool.workers() <= 1 {
            return self.label_queries_deduped(queries);
        }
        let partials = self.pooled_batch(pool, queries, |snapshot, lane, chunk| {
            snapshot.label_queries_in(lane, &chunk)
        });
        let mut out = DisclosureLabel::bottom();
        for partial in &partials {
            out.combine_in_place(partial);
        }
        out
    }

    /// Labels a boxed batch sequentially with **batch-level dedup keyed on
    /// canonical identity**: each query is interned once (alpha-variants
    /// collapse to one [`QueryId`]) and every later duplicate in the batch
    /// reuses the label computed for its first occurrence — credited as a
    /// [`hit`](CacheStats::hits) plus a
    /// [`batch_dedup_hit`](CacheStats::batch_dedup_hits), never re-entering
    /// the labeling pipeline.  Queries past the implicit-intern arena
    /// budget have no cheap identity and label through the uncached
    /// pipeline, exactly like [`label_query`](QueryLabeler::label_query).
    ///
    /// The fold equals the plain [`QueryLabeler::label_queries`] result
    /// because the label lattice LUB is idempotent; the equivalence suite
    /// asserts it.
    pub fn label_queries_deduped(&self, queries: &[ConjunctiveQuery]) -> DisclosureLabel {
        let mut out = DisclosureLabel::bottom();
        let mut seen: HashMap<QueryId, DisclosureLabel> = HashMap::new();
        for query in queries {
            match self.intern_within_budget(query) {
                Some(id) => {
                    if let Some(label) = seen.get(&id) {
                        out.combine_in_place(label);
                        self.note_batch_dedup_hit();
                    } else {
                        let label = self.label_interned(id);
                        out.combine_in_place(&label);
                        seen.insert(id, label);
                    }
                }
                None => {
                    // Arena budget exhausted: serve without interning.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    out.combine_in_place(&self.inner.label_query(query));
                }
            }
        }
        out
    }

    /// Resolves `query` to its interned id through the **budgeted** intern
    /// [`label_query`](QueryLabeler::label_query) performs: known shapes
    /// (alpha-variants included) answer under the interner's read lock,
    /// unknown ones are interned while the implicit-intern arena budget
    /// ([`capacity_limit`](Self::capacity_limit)) has room.  `None` means
    /// the budget is spent and the shape was never seen: it has no id and
    /// must not get one (the arena bound would be lost) — label it with
    /// [`label_packed`](Self::label_packed), which serves it uncached.
    ///
    /// This is the service's front door: an admission resolves its operand
    /// once here, then labels, dedups and records by id.
    pub fn intern_within_budget(&self, query: &ConjunctiveQuery) -> Option<QueryId> {
        intern_within_budget(
            &self.interner,
            &self.tables.implicit_interns,
            self.capacity,
            query,
        )
    }

    /// Credits one batch-level dedup hit: the caller answered a duplicate
    /// query in a batch by fanning out a label computed earlier in that
    /// same batch.  Counted as a regular cache hit *as well*, so every
    /// other [`CacheStats`] column matches what labeling the duplicate
    /// would have reported.
    pub fn note_batch_dedup_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.batch_dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Labels each query of a batch in parallel, preserving order.
    ///
    /// The per-query counterpart of
    /// [`label_queries_batch`](Self::label_queries_batch) for callers that
    /// need individual labels (e.g. to feed a policy store); same pooled
    /// execution, same sequential fallback.
    pub fn label_batch(&self, queries: &[ConjunctiveQuery]) -> Vec<DisclosureLabel> {
        if queries.len() < POOLED_BATCH_THRESHOLD {
            return queries.iter().map(|q| self.label_query(q)).collect();
        }
        let pool = WorkerPool::global();
        if pool.workers() <= 1 {
            return queries.iter().map(|q| self.label_query(q)).collect();
        }
        self.pooled_batch(pool, queries, |snapshot, lane, chunk| {
            chunk
                .iter()
                .map(|q| snapshot.label_query_in(lane, q))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs one batch on the worker pool: chunks the queries, labels every
    /// chunk through a shared one-off [`LabelerSnapshot`] pinned to a fresh
    /// pool epoch — each task writing its private overlay lane — and
    /// retires the snapshot once the batch completes, publishing its cache
    /// work (entries, counters, capacity charges) back into this labeler.
    /// Returns the per-chunk results in chunk order.
    fn pooled_batch<R, F>(
        &self,
        pool: &WorkerPool,
        queries: &[ConjunctiveQuery],
        label_chunk: F,
    ) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&LabelerSnapshot, usize, Vec<ConjunctiveQuery>) -> R + Send + Sync + 'static,
    {
        let snapshot = Arc::new(self.snapshot_with_lanes(pool.workers() + 1));
        let epoch = pool.advance_epoch();
        // More chunks than workers so a skewed chunk can be stolen around.
        let chunk_len = queries
            .len()
            .div_ceil(pool.workers() * POOLED_CHUNKS_PER_WORKER)
            .max(1);
        let inputs: Vec<Vec<ConjunctiveQuery>> =
            queries.chunks(chunk_len).map(<[_]>::to_vec).collect();
        let shared = Arc::clone(&snapshot);
        let results = pool.run(inputs, move |chunk, ctx| {
            let _pin = ctx.pin(epoch);
            label_chunk(&shared, shared.lane_for(ctx), chunk)
        });
        // `run` returned, so every task (and its epoch pin and snapshot
        // handle) is gone: the snapshot's overlay can drain back.
        self.retire_snapshot(&snapshot);
        results
    }

    /// Labels one query and returns the packed 64-bit representation
    /// (Section 6.1) — the form the policy stores consume directly via
    /// `submit_packed`, so a cache hit plus a pack is the whole labeling
    /// stage of the admission path.
    pub fn label_packed(&self, query: &ConjunctiveQuery) -> Vec<PackedLabel> {
        self.label_query(query).pack()
    }

    /// Labels each query of a batch in parallel, preserving order, and
    /// returns the packed representation of every label.
    ///
    /// The packed counterpart of [`label_batch`](Self::label_batch) for
    /// callers that feed a policy store: the labels never leave the 64-bit
    /// form between the labeling and enforcement stages.
    pub fn label_batch_packed(&self, queries: &[ConjunctiveQuery]) -> Vec<Vec<PackedLabel>> {
        if queries.len() < POOLED_BATCH_THRESHOLD {
            return queries.iter().map(|q| self.label_packed(q)).collect();
        }
        let pool = WorkerPool::global();
        if pool.workers() <= 1 {
            return queries.iter().map(|q| self.label_packed(q)).collect();
        }
        self.pooled_batch(pool, queries, |snapshot, lane, chunk| {
            chunk
                .iter()
                .map(|q| snapshot.label_query_in(lane, q).pack())
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Labels an already-interned query — the hot path for callers that
    /// hold dense [`QueryId`]s (the service's admission loop, pre-interned
    /// workload pools).
    ///
    /// A warm lookup is a lock-striped `Vec` index: no canonical hashing, no
    /// key allocation.  Misses run the interned pipeline
    /// ([`dissect_interned`] + the indexed atom table); stale entries
    /// re-derive just their stale atoms, exactly like the boxed path.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this labeler's
    /// [`interner`](Self::interner).
    pub fn label_interned(&self, id: QueryId) -> DisclosureLabel {
        let (shard_idx, slot) = Self::shard_and_slot(id);
        let lookup = {
            let shard = self.read_query_shard(shard_idx);
            match shard.slots.get(slot).and_then(Option::as_ref) {
                Some(entry) => {
                    let fresh = entry
                        .parts
                        .iter()
                        .all(|part| part.epoch == self.epoch_of(part.relation));
                    if fresh {
                        QueryLookup::Fresh(entry.label.clone())
                    } else {
                        QueryLookup::Stale(entry.clone())
                    }
                }
                None => QueryLookup::Absent,
            }
        };
        match lookup {
            QueryLookup::Fresh(label) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                label
            }
            QueryLookup::Stale(entry) => {
                // Re-derive only the parts whose relation epoch advanced;
                // fresh parts keep their masks, and folding/dissection are
                // skipped entirely (the dissected part ids are stored).
                let mut label = DisclosureLabel::bottom();
                let mut parts = Vec::with_capacity(entry.parts.len());
                for part in entry.parts {
                    let current = self.epoch_of(part.relation);
                    let mask = if part.epoch == current {
                        part.mask
                    } else {
                        self.cached_atom_mask(part.atom, part.ordinal, part.relation)
                    };
                    label.push(AtomLabel::new(part.relation, mask));
                    parts.push(QueryPart {
                        atom: part.atom,
                        ordinal: part.ordinal,
                        relation: part.relation,
                        epoch: current,
                        mask,
                    });
                }
                self.query_refreshes.fetch_add(1, Ordering::Relaxed);
                let entry = QueryEntry {
                    label: label.clone(),
                    parts,
                };
                self.store_entry(shard_idx, slot, entry);
                label
            }
            QueryLookup::Absent => {
                let part_ids = dissect_part_ids(&self.interner, id);
                let mut label = DisclosureLabel::bottom();
                let mut parts = Vec::with_capacity(part_ids.len());
                for (atom, ordinal, relation) in part_ids {
                    let mask = self.cached_atom_mask(atom, ordinal, relation);
                    label.push(AtomLabel::new(relation, mask));
                    parts.push(QueryPart {
                        atom,
                        ordinal,
                        relation,
                        epoch: self.epoch_of(relation),
                        mask,
                    });
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                if self.tables.query_entries.load(Ordering::Relaxed) < self.capacity {
                    let entry = QueryEntry {
                        label: label.clone(),
                        parts,
                    };
                    self.store_entry(shard_idx, slot, entry);
                }
                label
            }
        }
    }

    /// Inserts (or refreshes) a query-cache entry, growing the shard's slot
    /// vector only when actually admitting.
    fn store_entry(&self, shard_idx: usize, slot: usize, entry: QueryEntry) {
        self.tables.store_query(shard_idx, slot, entry);
    }

    /// Folds a pre-interned batch into the cumulative disclosure label of
    /// answering every query — the interned counterpart of
    /// [`label_queries`](QueryLabeler::label_queries), and the series the
    /// Figure 5 benchmark reports as `interned`.
    ///
    /// Fresh hits combine straight out of the cache under the shard's read
    /// lock, so the steady state does one `Vec` index and one in-place
    /// lattice fold per query — no hashing, no label clone.
    ///
    /// Within one batch each distinct id runs the labeling pipeline at most
    /// once: a repeated id that cannot be served from the cache (e.g. the
    /// cache is at capacity and its first occurrence was not admitted)
    /// reuses the label computed earlier in the batch and is credited as a
    /// [`hit`](CacheStats::hits) plus a
    /// [`batch_dedup_hit`](CacheStats::batch_dedup_hits).  Warm batches
    /// never touch the dedup list, so the steady state is unchanged.
    pub fn label_queries_interned(&self, ids: &[QueryId]) -> DisclosureLabel {
        let mut out = DisclosureLabel::bottom();
        // Ids that missed the cache earlier in this batch, with the label
        // each resolved to.  Kept as a linear list: it only ever holds
        // cold-path ids, and a batch's distinct cold ids are few.
        let mut missed: Vec<(QueryId, DisclosureLabel)> = Vec::new();
        for &id in ids {
            if self.combine_fresh_hit(id, &mut out) {
                continue;
            }
            if let Some((_, label)) = missed.iter().find(|(seen, _)| *seen == id) {
                out.combine_in_place(label);
                self.note_batch_dedup_hit();
                continue;
            }
            let label = self.label_interned(id);
            out.combine_in_place(&label);
            missed.push((id, label));
        }
        out
    }

    /// Labels each pre-interned query of a batch, preserving order — the
    /// interned counterpart of [`label_batch`](Self::label_batch).
    pub fn label_batch_interned(&self, ids: &[QueryId]) -> Vec<DisclosureLabel> {
        ids.iter().map(|&id| self.label_interned(id)).collect()
    }

    /// Labels one pre-interned query and returns the packed 64-bit
    /// representation — the form the policy stores consume directly.
    pub fn label_packed_interned(&self, id: QueryId) -> Vec<PackedLabel> {
        self.label_interned(id).pack()
    }

    /// Combines a fresh cached entry for `id` into `out` without cloning the
    /// label; returns false on a miss or stale entry (the caller falls back
    /// to [`label_interned`](Self::label_interned)).
    fn combine_fresh_hit(&self, id: QueryId, out: &mut DisclosureLabel) -> bool {
        let (shard_idx, slot) = Self::shard_and_slot(id);
        let shard = self.read_query_shard(shard_idx);
        if let Some(entry) = shard.slots.get(slot).and_then(Option::as_ref) {
            let fresh = entry
                .parts
                .iter()
                .all(|part| part.epoch == self.epoch_of(part.relation));
            if fresh {
                out.combine_in_place(&entry.label);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Freezes this labeler into an immutable [`LabelerSnapshot`].
    ///
    /// The snapshot pins the view universe (registry, compiled candidate
    /// lists and per-relation epochs) **by value** and takes a read-only
    /// handle onto the live striped query/atom caches, so it keeps labeling
    /// at the frozen epoch vector — concurrently and without locks against
    /// the live labeler — while the live side absorbs further mutations.
    /// Everything the snapshot computes lands in a private overlay; hand it
    /// back through [`retire_snapshot`](Self::retire_snapshot) so the warm
    /// state survives the epoch.
    pub fn snapshot(&self) -> LabelerSnapshot {
        self.snapshot_with_lanes(1)
    }

    /// [`snapshot`](Self::snapshot) with `lanes` private overlay lanes —
    /// one per concurrent reader, so pool workers labeling sibling chunks
    /// of one snapshot never contend on a shared overlay's stripe locks.
    /// Lane 0 belongs to the coordinator (and any task running inline on
    /// the submitting thread); lanes `1..` map to pool workers through
    /// [`LabelerSnapshot::lane_for`].  All lanes drain back at
    /// [`retire_snapshot`](Self::retire_snapshot).
    pub fn snapshot_with_lanes(&self, lanes: usize) -> LabelerSnapshot {
        LabelerSnapshot {
            inner: self.inner.clone(),
            view_qids: self.view_qids.clone(),
            interner: Arc::clone(&self.interner),
            base: Arc::clone(&self.tables),
            overlays: (0..lanes.max(1)).map(|_| LabelTables::new()).collect(),
            capacity: self.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            atom_hits: AtomicU64::new(0),
            atom_misses: AtomicU64::new(0),
            query_refreshes: AtomicU64::new(0),
            atom_refreshes: AtomicU64::new(0),
        }
    }

    /// Retires a [`snapshot`](Self::snapshot) of this labeler: drains every
    /// overlay lane — every entry the snapshot computed or refreshed while
    /// serving, on any worker — into the shared striped tables, and folds
    /// its hit/miss/refresh counters into this labeler's, so cache state
    /// *and* accounting survive the epoch handover.  Entries carry the
    /// epoch tags they were computed under; if the live registry has moved
    /// past them they are honestly stale and re-derive on next lookup.
    /// Two lanes that derived the same slot wrote identical entries (both
    /// read the same frozen base at the same frozen epochs), so the merge
    /// absorbs the duplicate — last store wins, content is equal.
    ///
    /// Retire snapshots in the order they were taken (the pipelined service
    /// executor does); anything the snapshot computes after retirement is
    /// discarded with it.
    ///
    /// # Panics
    ///
    /// Debug builds assert that the snapshot was taken from this labeler
    /// (the shared tables must be the same allocation).
    pub fn retire_snapshot(&self, snapshot: &LabelerSnapshot) {
        debug_assert!(
            Arc::ptr_eq(&self.tables, &snapshot.base),
            "a snapshot must be retired into the labeler it was taken from"
        );
        for overlay in &snapshot.overlays {
            for shard_idx in 0..QUERY_CACHE_SHARDS {
                let drained = std::mem::take(
                    &mut *overlay.query_shards[shard_idx]
                        .write()
                        .unwrap_or_else(|e| e.into_inner()),
                );
                for (slot, entry) in drained.slots.into_iter().enumerate() {
                    if let Some(entry) = entry {
                        self.tables.store_query(shard_idx, slot, entry);
                    }
                }
            }
            overlay.query_entries.store(0, Ordering::Relaxed);
            let drained_atoms = std::mem::take(
                &mut *overlay
                    .atom_cache
                    .write()
                    .unwrap_or_else(|e| e.into_inner()),
            );
            for (slot, entry) in drained_atoms.into_iter().enumerate() {
                if let Some(entry) = entry {
                    self.tables.store_atom(slot, entry);
                }
            }
            overlay.atom_entries.store(0, Ordering::Relaxed);
        }
        for (mine, theirs) in [
            (&self.hits, &snapshot.hits),
            (&self.misses, &snapshot.misses),
            (&self.atom_hits, &snapshot.atom_hits),
            (&self.atom_misses, &snapshot.atom_misses),
            (&self.query_refreshes, &snapshot.query_refreshes),
            (&self.atom_refreshes, &snapshot.atom_refreshes),
        ] {
            mine.fetch_add(theirs.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// An immutable, concurrently-servable view of a [`CachedLabeler`] at a
/// frozen per-relation epoch vector — the labeling half of the service
/// layer's `ServiceSnapshot` (see `fdc-service`).
///
/// A snapshot owns a copy of the view universe (registry, compiled
/// candidate lists, interned view definitions) exactly as it stood when
/// [`CachedLabeler::snapshot`] ran, shares the parent's [`QueryInterner`]
/// (ids stay aligned) and holds a **read-only** handle onto the parent's
/// striped query/atom cache tables: warm shapes keep hitting across the
/// handover.  Labels the snapshot computes or refreshes itself accumulate
/// in private overlay **lanes** — one per concurrent reader, selected via
/// [`lane_for`](Self::lane_for), each checked before the shared tables on
/// that reader's lookups — and flow back into the shared tables when the
/// snapshot is retired through [`CachedLabeler::retire_snapshot`].  A
/// pipelined executor can thus label a read run against the previous epoch
/// while the live labeler already serves the next one, with sibling pool
/// workers never contending on overlay stripe locks, and without losing
/// the run's cache work.
///
/// Every label a snapshot produces equals what a fresh [`BitVectorLabeler`]
/// over the frozen registry computes (property-tested); only *which epoch*
/// answers is pinned, never *what* the answer is.
#[derive(Debug)]
pub struct LabelerSnapshot {
    /// The frozen view universe: registry (with its epoch vector), compiled
    /// per-relation candidates.
    inner: BitVectorLabeler,
    /// Interned view definitions, frozen with the registry.
    view_qids: Vec<QueryId>,
    /// The parent's interner — shared, so ids issued on either side agree.
    interner: SharedQueryInterner,
    /// Read-only handle onto the parent's shared cache tables.
    base: Arc<LabelTables>,
    /// Entries this snapshot computed or refreshed, one private lane per
    /// concurrent reader (lane 0 = coordinator/inline); all lanes drain
    /// back into `base` at retirement.
    overlays: Vec<LabelTables>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    atom_hits: AtomicU64,
    atom_misses: AtomicU64,
    query_refreshes: AtomicU64,
    atom_refreshes: AtomicU64,
}

impl LabelerSnapshot {
    /// The frozen epoch of a relation's view universe.
    #[inline]
    fn epoch_of(&self, relation: RelId) -> u64 {
        self.inner.views.epoch(relation)
    }

    /// The frozen security-view registry (with the epoch vector the
    /// snapshot serves at).
    pub fn security_views(&self) -> &SecurityViews {
        &self.inner.views
    }

    /// The shared query-interner handle (see [`CachedLabeler::interner`]).
    pub fn interner(&self) -> SharedQueryInterner {
        Arc::clone(&self.interner)
    }

    /// True if `id` was issued by the shared interner — the validity check
    /// behind interned admissions.
    pub fn contains(&self, id: QueryId) -> bool {
        self.interner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains(id)
    }

    /// [`CachedLabeler::intern_within_budget`] against the arena budget
    /// this snapshot **shares** with its parent — how pool workers resolve
    /// a staged plain admission to the id they hand back.
    pub fn intern_within_budget(&self, query: &ConjunctiveQuery) -> Option<QueryId> {
        intern_within_budget(
            &self.interner,
            &self.base.implicit_interns,
            self.capacity,
            query,
        )
    }

    /// Counters accumulated by this snapshot since it was taken (or last
    /// retired); entry gauges report the private overlay lanes' **newly
    /// admitted** slots only (refreshes of slots still occupied in the
    /// shared base table are stored but not charged — the distinct-slot
    /// count across base and overlays is what the capacity bounds).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.overlay_gauge(|o| &o.query_entries),
            atom_hits: self.atom_hits.load(Ordering::Relaxed),
            atom_misses: self.atom_misses.load(Ordering::Relaxed),
            atom_entries: self.overlay_gauge(|o| &o.atom_entries),
            query_refreshes: self.query_refreshes.load(Ordering::Relaxed),
            atom_refreshes: self.atom_refreshes.load(Ordering::Relaxed),
            invalidations: 0,
            // Snapshots label chunk-by-chunk without batch context, so
            // they never dedup within a batch.
            batch_dedup_hits: 0,
        }
    }

    /// The number of private overlay lanes this snapshot was taken with.
    pub fn lanes(&self) -> usize {
        self.overlays.len()
    }

    /// The overlay lane a pool task should write through: lane 0 for the
    /// coordinator and inline tasks, lanes `1..` for pool workers (wrapped
    /// modulo the lane count, so a snapshot taken with fewer lanes than
    /// the pool has workers still works — wrapped lanes merely share a
    /// lane's stripe locks again).
    pub fn lane_for(&self, ctx: &WorkerContext<'_>) -> usize {
        match ctx.worker_index() {
            Some(index) if self.overlays.len() > 1 => 1 + index % (self.overlays.len() - 1),
            _ => 0,
        }
    }

    /// Sums one entry gauge across every overlay lane.
    fn overlay_gauge(&self, gauge: impl Fn(&LabelTables) -> &AtomicUsize) -> usize {
        self.overlays
            .iter()
            .map(|overlay| gauge(overlay).load(Ordering::Relaxed))
            .sum()
    }

    /// Looks `id` up in the reader's own overlay lane first, then the
    /// shared tables.  Sibling lanes are deliberately not consulted: a
    /// slot another worker derived concurrently re-derives here to the
    /// identical entry (same frozen base, same frozen epochs), and the
    /// retirement merge absorbs the duplicate.
    fn lookup(&self, lane: usize, shard_idx: usize, slot: usize) -> QueryLookup {
        for tables in [&self.overlays[lane], &*self.base] {
            let shard = tables.read_shard(shard_idx);
            if let Some(entry) = shard.slots.get(slot).and_then(Option::as_ref) {
                let fresh = entry
                    .parts
                    .iter()
                    .all(|part| part.epoch == self.epoch_of(part.relation));
                return if fresh {
                    QueryLookup::Fresh(entry.label.clone())
                } else {
                    QueryLookup::Stale(entry.clone())
                };
            }
        }
        QueryLookup::Absent
    }

    /// [`CachedLabeler::cached_atom_mask`] against the lane-over-shared
    /// tables, at the frozen epochs.
    fn cached_atom_mask(
        &self,
        lane: usize,
        atom: QueryId,
        ordinal: u32,
        relation: RelId,
    ) -> ViewMask {
        let current = self.epoch_of(relation);
        let slot = ordinal as usize;
        let mut stale = false;
        if let Some(entry) = self.overlays[lane]
            .get_atom(slot)
            .or_else(|| self.base.get_atom(slot))
        {
            if entry.epoch == current {
                self.atom_hits.fetch_add(1, Ordering::Relaxed);
                return entry.mask;
            }
            stale = true;
        }
        let mask = {
            let interner = self.interner.read().unwrap_or_else(|e| e.into_inner());
            interned_atom_mask(&self.inner, &self.view_qids, &interner, atom, relation)
        };
        let counter = if stale {
            &self.atom_refreshes
        } else {
            &self.atom_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Stale entries always re-admit without charging the gauge (their
        // slot is already occupied in the shared base table, so the
        // distinct-slot count is unchanged — overlay entries are never
        // stale within one snapshot, epochs are frozen); brand-new atoms
        // respect the capacity shared with the parent (base occupancy +
        // overlay-only additions across every lane).
        let occupied = self.base.atom_entries.load(Ordering::Relaxed)
            + self.overlay_gauge(|o| &o.atom_entries);
        if stale || occupied < self.capacity {
            self.overlays[lane].store_atom_counted(
                slot,
                AtomEntry {
                    mask,
                    epoch: current,
                },
                !stale,
            );
        }
        mask
    }

    /// Labels an already-interned query at the frozen epoch vector — the
    /// snapshot counterpart of [`CachedLabeler::label_interned`].  Writes
    /// through overlay lane 0 (the coordinator's lane); pool tasks use
    /// [`label_interned_in`](Self::label_interned_in) with their
    /// [`lane_for`](Self::lane_for) lane.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by the shared interner.
    pub fn label_interned(&self, id: QueryId) -> DisclosureLabel {
        self.label_interned_in(0, id)
    }

    /// [`label_interned`](Self::label_interned) through the given private
    /// overlay lane.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by the shared interner, or if `lane`
    /// is out of range for this snapshot's [`lanes`](Self::lanes).
    pub fn label_interned_in(&self, lane: usize, id: QueryId) -> DisclosureLabel {
        let (shard_idx, slot) = CachedLabeler::shard_and_slot(id);
        match self.lookup(lane, shard_idx, slot) {
            QueryLookup::Fresh(label) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                label
            }
            QueryLookup::Stale(entry) => {
                let mut label = DisclosureLabel::bottom();
                let mut parts = Vec::with_capacity(entry.parts.len());
                for part in entry.parts {
                    let current = self.epoch_of(part.relation);
                    let mask = if part.epoch == current {
                        part.mask
                    } else {
                        self.cached_atom_mask(lane, part.atom, part.ordinal, part.relation)
                    };
                    label.push(AtomLabel::new(part.relation, mask));
                    parts.push(QueryPart {
                        atom: part.atom,
                        ordinal: part.ordinal,
                        relation: part.relation,
                        epoch: current,
                        mask,
                    });
                }
                self.query_refreshes.fetch_add(1, Ordering::Relaxed);
                // A refresh re-admits without charging the gauge: the slot
                // is still occupied in the shared base table (overlay
                // entries are never stale — epochs are frozen), so the
                // distinct-slot count across base + overlays is unchanged.
                self.overlays[lane].store_query_counted(
                    shard_idx,
                    slot,
                    QueryEntry {
                        label: label.clone(),
                        parts,
                    },
                    false,
                );
                label
            }
            QueryLookup::Absent => {
                let part_ids = dissect_part_ids(&self.interner, id);
                let mut label = DisclosureLabel::bottom();
                let mut parts = Vec::with_capacity(part_ids.len());
                for (atom, ordinal, relation) in part_ids {
                    let mask = self.cached_atom_mask(lane, atom, ordinal, relation);
                    label.push(AtomLabel::new(relation, mask));
                    parts.push(QueryPart {
                        atom,
                        ordinal,
                        relation,
                        epoch: self.epoch_of(relation),
                        mask,
                    });
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                let occupied = self.base.query_entries.load(Ordering::Relaxed)
                    + self.overlay_gauge(|o| &o.query_entries);
                if occupied < self.capacity {
                    self.overlays[lane].store_query(
                        shard_idx,
                        slot,
                        QueryEntry {
                            label: label.clone(),
                            parts,
                        },
                    );
                }
                label
            }
        }
    }

    /// [`label_query`](QueryLabeler::label_query) through the given private
    /// overlay lane — the entry point pool tasks use with their
    /// [`lane_for`](Self::lane_for) lane.
    pub fn label_query_in(&self, lane: usize, query: &ConjunctiveQuery) -> DisclosureLabel {
        match self.intern_within_budget(query) {
            Some(id) => self.label_interned_in(lane, id),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.inner.label_query(query)
            }
        }
    }

    /// Folds a batch through the given private overlay lane — the
    /// lane-aware counterpart of [`label_queries`](QueryLabeler::label_queries).
    pub fn label_queries_in(&self, lane: usize, queries: &[ConjunctiveQuery]) -> DisclosureLabel {
        let mut out = DisclosureLabel::bottom();
        for query in queries {
            out.combine_in_place(&self.label_query_in(lane, query));
        }
        out
    }

    /// Labels one query and returns the packed 64-bit representation.
    pub fn label_packed(&self, query: &ConjunctiveQuery) -> Vec<PackedLabel> {
        self.label_query(query).pack()
    }

    /// [`label_packed`](Self::label_packed) through the given private
    /// overlay lane.
    pub fn label_packed_in(&self, lane: usize, query: &ConjunctiveQuery) -> Vec<PackedLabel> {
        self.label_query_in(lane, query).pack()
    }

    /// Labels one pre-interned query and returns the packed representation.
    pub fn label_packed_interned(&self, id: QueryId) -> Vec<PackedLabel> {
        self.label_interned(id).pack()
    }

    /// [`label_packed_interned`](Self::label_packed_interned) through the
    /// given private overlay lane.
    pub fn label_packed_interned_in(&self, lane: usize, id: QueryId) -> Vec<PackedLabel> {
        self.label_interned_in(lane, id).pack()
    }
}

impl QueryLabeler for LabelerSnapshot {
    /// Interns the query (drawing on the implicit-intern budget **shared**
    /// with the parent labeler) and labels it at the frozen epoch vector
    /// through overlay lane 0; past the budget, unknown shapes serve
    /// through the frozen uncached pipeline, exactly like
    /// [`CachedLabeler::label_query`].
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        self.label_query_in(0, query)
    }

    fn security_views(&self) -> &SecurityViews {
        &self.inner.views
    }
}

/// Outcome of a query-cache lookup: fresh hit, stale entry to refresh, or
/// no entry at all.
enum QueryLookup {
    Fresh(DisclosureLabel),
    Stale(QueryEntry),
    Absent,
}

impl QueryLabeler for CachedLabeler {
    /// Interns the query (a read-locked lookup for known shapes, including
    /// alpha-variants) and labels it through the id-keyed caches.
    ///
    /// Once this path has interned [`capacity_limit`](Self::capacity_limit)
    /// distinct shapes, further unknown shapes are **not** interned: they
    /// label through the uncached [`BitVectorLabeler`] pipeline instead
    /// (identical labels, counted as misses), so an adversarial stream of
    /// never-repeating shapes cannot grow the arena without bound.
    fn label_query(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        match self.intern_within_budget(query) {
            Some(id) => self.label_interned(id),
            None => {
                // Arena budget exhausted: serve without interning.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.inner.label_query(query)
            }
        }
    }

    fn security_views(&self) -> &SecurityViews {
        self.inner.security_views()
    }
}

/// Labels a batch of queries in parallel with any thread-safe labeler and
/// folds the per-query labels into the cumulative disclosure label of the
/// whole batch (the label of answering every query).
///
/// The batch is sharded into `threads` contiguous chunks, each labeled on a
/// scoped worker thread with the plain sequential
/// [`label_queries`](QueryLabeler::label_queries), and the partial labels
/// are folded with [`DisclosureLabel::combine_in_place`].  Folding is
/// order-insensitive (the label lattice LUB is associative and commutative),
/// so the result equals the sequential one; the test suite asserts this.
pub fn label_queries_parallel<L>(
    labeler: &L,
    queries: &[ConjunctiveQuery],
    threads: usize,
) -> DisclosureLabel
where
    L: QueryLabeler + Sync,
{
    let partials = map_chunks_parallel(queries, threads, |chunk| labeler.label_queries(chunk));
    let mut out = DisclosureLabel::bottom();
    for partial in &partials {
        out.combine_in_place(partial);
    }
    out
}

/// Batches shorter than this run on the calling thread even when multiple
/// worker threads are requested: for tiny batches, spawning scoped threads
/// costs more than the work they would parallelize (the crossover is
/// asserted by the `small_batches_run_on_the_calling_thread` test).  Entry
/// points that need a different crossover use
/// [`map_chunks_parallel_with_threshold`]; the policy layer exposes the
/// analogous knob as `ShardedPolicyStore::set_parallel_threshold`.
pub const SMALL_BATCH_SEQUENTIAL_THRESHOLD: usize = 32;

/// Batches shorter than this run sequentially instead of through the
/// persistent [`WorkerPool`] on the boxed-query batch entry points
/// ([`CachedLabeler::label_queries_batch`] / `label_batch` /
/// `label_batch_packed`).  The pooled path pays one labeler snapshot and
/// one owned copy of the batch up front; both amortize across a few hundred
/// queries, so the crossover sits well below the benchmark batch size of
/// 500 — on a multi-core host the parallel series engages (and wins) at
/// every Figure 5 sweep point, and on a single-core host the pool is
/// inline-only and the sequential path is taken regardless.
pub const POOLED_BATCH_THRESHOLD: usize = 256;

/// Chunks handed to the pool per worker on the pooled batch path: more
/// chunks than workers, so a skewed chunk leaves stealable work behind it.
const POOLED_CHUNKS_PER_WORKER: usize = 4;

/// Splits `items` into up to `threads` contiguous chunks and maps `f`
/// over them on scoped worker threads, returning the per-chunk results in
/// chunk order.  One chunk (or an empty input) runs on the calling thread,
/// and batches below [`SMALL_BATCH_SEQUENTIAL_THRESHOLD`] run sequentially
/// regardless of `threads`.
///
/// This is the one scoped-thread fan-out shared by every batch entry point
/// — the labelers' parallel paths here and the service's request loop —
/// so chunk sizing, the small-batch fallback and panic propagation live in
/// a single place.
pub fn map_chunks_parallel<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> T + Sync,
{
    map_chunks_parallel_with_threshold(items, threads, SMALL_BATCH_SEQUENTIAL_THRESHOLD, f)
}

/// [`map_chunks_parallel`] with an explicit sequential-fallback threshold:
/// batches shorter than `min_parallel_len` run as one chunk on the calling
/// thread.  `0` (or `1`) disables the fallback entirely.
pub fn map_chunks_parallel_with_threshold<I, T, F>(
    items: &[I],
    threads: usize,
    min_parallel_len: usize,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> T + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads <= 1 || items.len() < min_parallel_len {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|ck| scope.spawn(move || f(ck)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    })
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
        // Register a selection view (not projection-style) and check the
        // bit-vector labeler still gets it right via the fallback path.
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
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // Different variable names, same canonical form: a pure hit.
        cached.label_query(&q(&c, "Q(a) :- Meetings(a, b)"));
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        // clear_entries drops the tables but keeps the counters…
        cached.clear_entries();
        let kept = cached.stats();
        assert_eq!(kept.entries, 0);
        assert_eq!(kept.atom_entries, 0);
        assert_eq!((kept.hits, kept.misses), (1, 1));
        // …and the next lookup of the flushed shape is a (counted) miss.
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        assert_eq!(cached.stats().misses, 2);
        // Full clearing also resets the counters.
        cached.clear();
        assert_eq!(cached.stats(), CacheStats::default());
    }

    #[test]
    fn cache_capacity_bounds_both_tables() {
        let (c, baseline, _, _) = paper_labelers();
        let tiny = CachedLabeler::with_capacity_limit(SecurityViews::paper_example(), 2);
        assert_eq!(tiny.capacity_limit(), 2);
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
        ];
        for text in texts {
            let query = q(&c, text);
            // Labels stay correct even once the tables are full.
            assert_eq!(tiny.label_query(&query), baseline.label_query(&query));
        }
        let stats = tiny.stats();
        assert!(
            stats.entries <= 2,
            "query cache exceeded its cap: {stats:?}"
        );
        assert!(
            stats.atom_entries <= 2,
            "atom cache exceeded its cap: {stats:?}"
        );
        // Over-limit shapes are recomputed (a miss), never admitted.
        let before = tiny.stats();
        tiny.label_query(&q(&c, "Q(x) :- Meetings(x, 'Cathy')"));
        let after = tiny.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.entries, before.entries);
        // The default constructor uses the documented limit.
        let default = CachedLabeler::new(SecurityViews::paper_example());
        assert_eq!(default.capacity_limit(), DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn cloning_keeps_entries_but_resets_counters() {
        let (c, _, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        let snapshot = cached.clone();
        assert_eq!(snapshot.stats().entries, 1);
        assert_eq!(snapshot.stats().misses, 0);
        // The snapshot answers the warmed shape without a miss.
        snapshot.label_query(&q(&c, "Q(z) :- Meetings(z, w)"));
        assert_eq!(snapshot.stats().misses, 0);
        assert_eq!(snapshot.stats().hits, 1);
    }

    #[test]
    fn parallel_batch_labeling_matches_sequential() {
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let texts = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q() :- Meetings(x, x)",
        ];
        let queries: Vec<ConjunctiveQuery> =
            (0..50).map(|i| q(&c, texts[i % texts.len()])).collect();
        let sequential = baseline.label_queries(&queries);
        assert_eq!(cached.label_queries_batch(&queries), sequential);
        // The generic parallel helper agrees for every labeler and any
        // thread count, including degenerate ones.
        for threads in [1, 2, 3, 64] {
            assert_eq!(
                label_queries_parallel(&baseline, &queries, threads),
                sequential
            );
            assert_eq!(
                label_queries_parallel(&cached, &queries, threads),
                sequential
            );
        }
        assert!(label_queries_parallel(&cached, &[], 4).is_bottom());
    }

    #[test]
    fn parallel_per_query_labels_preserve_order() {
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let queries: Vec<ConjunctiveQuery> = (0..17)
            .map(|i| {
                if i % 2 == 0 {
                    q(&c, "Q(x) :- Meetings(x, y)")
                } else {
                    q(&c, "Q(x, y, z) :- Contacts(x, y, z)")
                }
            })
            .collect();
        let expected: Vec<DisclosureLabel> = queries
            .iter()
            .map(|query| baseline.label_query(query))
            .collect();
        assert_eq!(cached.label_batch(&queries), expected);
        assert!(cached.label_batch(&[]).is_empty());
    }

    #[test]
    fn packed_batch_labels_match_per_query_packing() {
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let queries: Vec<ConjunctiveQuery> = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        ]
        .iter()
        .cycle()
        .take(20)
        .map(|t| q(&c, t))
        .collect();
        let expected: Vec<Vec<PackedLabel>> = queries
            .iter()
            .map(|query| baseline.label_query(query).pack())
            .collect();
        assert_eq!(cached.label_batch_packed(&queries), expected);
        assert_eq!(cached.label_packed(&queries[0]), expected[0]);
        assert!(cached.label_batch_packed(&[]).is_empty());
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
        for packed in cached.label_packed(&probe) {
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
        // Per-query interned labels line up positionally.
        let per_query: Vec<DisclosureLabel> = queries
            .iter()
            .map(|query| baseline.label_query(query))
            .collect();
        assert_eq!(cached.label_batch_interned(&ids), per_query);
        assert!(cached.label_queries_interned(&[]).is_bottom());
    }

    #[test]
    fn the_arena_budget_bounds_implicit_interning() {
        let (c, baseline, _, _) = paper_labelers();
        let tiny = CachedLabeler::with_capacity_limit(SecurityViews::paper_example(), 2);
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
        // The arena stopped growing at the budget (capacity + interned view
        // definitions + the dissected parts of admitted shapes), however
        // many never-repeating shapes keep arriving.
        let after_sweep = tiny.interner().read().unwrap().len();
        assert!(
            after_sweep <= 2 + num_views + 2,
            "arena grew past its budget: {after_sweep} ids"
        );
        for text in texts.iter().cycle().take(50) {
            tiny.label_query(&q(&c, text));
        }
        assert_eq!(tiny.interner().read().unwrap().len(), after_sweep);
        // Uncached shapes still count as misses, and explicit interning
        // remains exempt from the budget.
        let before = tiny.stats();
        tiny.label_query(&q(&c, "Q(x, z) :- Contacts(x, y, z)"));
        assert_eq!(tiny.stats().misses, before.misses + 1);
        let explicit = tiny.intern(&q(&c, "Q(y, z) :- Contacts(x, y, z)"));
        assert!(tiny.interner().read().unwrap().contains(explicit));
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
    fn shared_interner_aligns_ids_across_clones() {
        let (c, _, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let id = cached.intern(&q(&c, "Q(x) :- Meetings(x, y)"));
        let snapshot = cached.clone();
        // The clone shares the interner, so ids issued by either side agree.
        assert_eq!(snapshot.intern(&q(&c, "Q(a) :- Meetings(a, b)")), id);
        let late = snapshot.intern(&q(&c, "Q(x, y) :- Meetings(x, y)"));
        assert_eq!(cached.intern(&q(&c, "Q(p, r) :- Meetings(p, r)")), late);
        let handle = cached.interner();
        assert!(handle.read().unwrap().contains(late));
    }

    #[test]
    fn small_batches_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..10).collect();
        // Below the threshold the single chunk runs on the caller.
        let threads_used = map_chunks_parallel(&items, 8, |chunk| {
            (std::thread::current().id(), chunk.len())
        });
        assert_eq!(threads_used.len(), 1);
        assert_eq!(threads_used[0], (caller, items.len()));
        // At or past the threshold the batch fans out again.
        let big: Vec<u32> = (0..SMALL_BATCH_SEQUENTIAL_THRESHOLD as u32).collect();
        let fanned =
            map_chunks_parallel(&big, 4, |chunk| (std::thread::current().id(), chunk.len()));
        assert_eq!(fanned.len(), 4);
        assert!(fanned.iter().all(|(id, _)| *id != caller));
        assert_eq!(fanned.iter().map(|(_, n)| n).sum::<usize>(), big.len());
        // The explicit-threshold variant honors a custom crossover, and a
        // zero threshold disables the fallback.
        let custom = map_chunks_parallel_with_threshold(&items, 8, 11, |chunk| {
            (std::thread::current().id(), chunk.len())
        });
        assert_eq!(custom.len(), 1);
        assert_eq!(custom[0].0, caller);
        let forced = map_chunks_parallel_with_threshold(&items, 2, 0, |chunk| {
            (std::thread::current().id(), chunk.len())
        });
        assert_eq!(forced.len(), 2);
        assert!(forced.iter().all(|(id, _)| *id != caller));
        // Labeling results are unaffected on either side of the crossover.
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        for batch in [8usize, SMALL_BATCH_SEQUENTIAL_THRESHOLD + 8] {
            let queries: Vec<ConjunctiveQuery> = (0..batch)
                .map(|i| {
                    if i % 2 == 0 {
                        q(&c, "Q(x) :- Meetings(x, y)")
                    } else {
                        q(&c, "Q(x, y, z) :- Contacts(x, y, z)")
                    }
                })
                .collect();
            assert_eq!(
                label_queries_parallel(&cached, &queries, 4),
                baseline.label_queries(&queries)
            );
        }
    }

    #[test]
    fn atom_ordinals_minted_mid_batch_grow_the_table() {
        // Regression (satellite of the snapshot PR): the atom cache is a
        // slot vector indexed by the interner's dense single-atom ordinal.
        // Ordinals keep being minted while a batch is in flight, so a
        // lookup may carry an ordinal past the table's current length —
        // that must read as a miss and the write must grow the table, never
        // index out of bounds or silently drop the entry.
        let (c, baseline, _, _) = paper_labelers();
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        // Size the table with one early shape…
        cached.label_query(&q(&c, "Q(x) :- Meetings(x, y)"));
        let sized = cached.stats().atom_entries;
        // …then intern a burst of distinct shapes (minting ordinals far
        // past the sized table) and label them *newest first*, so the very
        // first write lands beyond the current table length.
        let texts = [
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q(z) :- Contacts(x, y, z)",
            "Q(x, z) :- Contacts(x, y, z)",
        ];
        let ids: Vec<_> = texts.iter().map(|t| cached.intern(&q(&c, t))).collect();
        for (&id, text) in ids.iter().zip(&texts).rev() {
            assert_eq!(
                cached.label_interned(id),
                baseline.label_query(&q(&c, text)),
                "mid-batch-minted ordinal mislabeled {text}"
            );
        }
        let grown = cached.stats();
        assert!(
            grown.atom_entries > sized,
            "the table must admit the late ordinals: {grown:?}"
        );
        // A second pass is all hits: nothing was silently skipped.
        let warm = cached.stats();
        for &id in &ids {
            cached.label_interned(id);
        }
        let after = cached.stats();
        assert_eq!(after.atom_misses, warm.atom_misses);
        assert_eq!(after.misses, warm.misses);
        // At capacity, late ordinals still label correctly (uncached) and
        // never corrupt the occupancy gauge.
        let tiny = CachedLabeler::with_capacity_limit(SecurityViews::paper_example(), 1);
        let tiny_ids: Vec<_> = texts.iter().map(|t| tiny.intern(&q(&c, t))).collect();
        for (&id, text) in tiny_ids.iter().zip(&texts).rev() {
            assert_eq!(
                tiny.label_interned(id),
                baseline.label_query(&q(&c, text)),
                "capacity-bounded mislabel on {text}"
            );
        }
        assert!(tiny.stats().atom_entries <= 1);
    }

    #[test]
    fn concurrent_clones_are_internally_consistent() {
        // Regression (satellite of the snapshot PR): Clone used to copy one
        // stripe at a time and carry the racing occupancy gauge over, so a
        // clone taken mid-labeling could disagree with its own slots.  The
        // consistent clone holds every stripe lock at once and recounts.
        let (c, baseline, _, _) = paper_labelers();
        let cached = std::sync::Arc::new(CachedLabeler::new(SecurityViews::paper_example()));
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q(z) :- Contacts(x, y, z)",
            "Q(x, z) :- Contacts(x, y, z)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts.iter().map(|t| q(&c, t)).collect();
        let clones = std::thread::scope(|scope| {
            let labeler = std::sync::Arc::clone(&cached);
            let writer = scope.spawn(move || {
                for query in queries.iter().cycle().take(400) {
                    labeler.label_query(query);
                }
            });
            let mut clones = Vec::new();
            for _ in 0..20 {
                clones.push(CachedLabeler::clone(&cached));
            }
            writer.join().expect("writer panicked");
            clones
        });
        for clone in clones {
            // The gauges equal the actual occupied slots of the cut…
            let stats = clone.stats();
            for text in texts {
                let query = q(&c, text);
                // …and every captured entry (fresh-tagged by construction —
                // no epoch moved) answers correctly without re-deriving.
                assert_eq!(clone.label_query(&query), baseline.label_query(&query));
            }
            // Shapes missing from the cut count as misses, so the captured
            // occupancy plus the clone's fresh misses must cover the
            // sweep exactly — a drifted gauge breaks this equality.
            let after = clone.stats();
            assert_eq!(
                stats.entries + (after.misses as usize),
                texts.len(),
                "clone gauge disagrees with its captured entries: {stats:?} then {after:?}"
            );
            assert_eq!(after.query_refreshes, 0, "no stale entries were served");
        }
    }

    #[test]
    fn stale_tagged_entries_in_a_clone_rederive_never_serve() {
        // The documented epoch contract behind the consistent clone: an
        // entry whose tag trails the clone's registry is re-derived on
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
    fn snapshots_serve_the_frozen_epoch_vector() {
        let mut cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let query = q(&c, "Q(x) :- Meetings(x, y)");
        let id = cached.intern(&query);
        let before = cached.label_interned(id);
        let snapshot = cached.snapshot();
        // The live labeler moves to a new epoch; the snapshot stays frozen.
        cached
            .add_view("Vtime", q(&c, "Vtime(x) :- Meetings(x, y)"))
            .unwrap();
        let after = cached.label_interned(id);
        assert_ne!(before, after, "the new view must change the live label");
        assert_eq!(snapshot.label_interned(id), before, "snapshot is frozen");
        assert_eq!(
            snapshot.label_query(&q(&c, "Q(a) :- Meetings(a, b)")),
            before,
            "boxed snapshot path labels at the frozen epochs too"
        );
        let frozen_meetings = snapshot
            .security_views()
            .epoch(c.resolve("Meetings").unwrap());
        let live_meetings = cached
            .security_views()
            .epoch(c.resolve("Meetings").unwrap());
        assert_eq!(live_meetings, frozen_meetings + 1);
        assert!(snapshot.contains(id));
    }

    #[test]
    fn snapshot_refreshes_do_not_consume_new_entry_capacity() {
        // Regression: the snapshot's capacity check sums base occupancy and
        // overlay additions.  A refresh of a stale *base* entry lands in
        // the overlay but occupies the same slot as before, so it must not
        // be charged — otherwise a refresh-heavy snapshot near capacity
        // wrongly refuses to cache brand-new shapes.
        let mut cached = CachedLabeler::with_capacity_limit(SecurityViews::paper_example(), 4);
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
        cached.invalidate_relation(c.resolve("Meetings").unwrap());
        let snapshot = cached.snapshot();
        // The snapshot refreshes every stale base entry…
        for text in warm {
            snapshot.label_query(&q(&c, text));
        }
        let refreshed = snapshot.stats();
        assert_eq!(refreshed.query_refreshes, 3);
        assert_eq!(refreshed.entries, 0, "refreshes are not new slots");
        assert_eq!(refreshed.atom_entries, 0, "atom refreshes neither");
        // …and still has room to admit a brand-new shape under the cap.
        let fresh = q(&c, "Q(x, y, z) :- Contacts(x, y, z)");
        snapshot.label_query(&fresh);
        let before = snapshot.stats();
        assert_eq!(before.entries, 1, "the new shape was admitted");
        snapshot.label_query(&fresh);
        let after = snapshot.stats();
        assert_eq!(after.misses, before.misses, "second lookup must hit");
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn retired_snapshots_publish_their_cache_work() {
        let cached = CachedLabeler::new(SecurityViews::paper_example());
        let c = cached.security_views().catalog().clone();
        let snapshot = cached.snapshot();
        // The snapshot computes two shapes the live labeler never saw.
        let contacts = q(&c, "Q(x, y, z) :- Contacts(x, y, z)");
        let meetings = q(&c, "Q(x) :- Meetings(x, y)");
        snapshot.label_query(&contacts);
        snapshot.label_query(&meetings);
        assert_eq!(snapshot.stats().misses, 2);
        assert_eq!(cached.stats().entries, 0, "overlay work is private");
        cached.retire_snapshot(&snapshot);
        // Entries and counters flowed back…
        let live = cached.stats();
        assert_eq!(live.entries, 2);
        assert_eq!(live.misses, 2);
        // …so the live labeler now hits on the snapshot-warmed shapes.
        cached.label_query(&contacts);
        assert_eq!(cached.stats().hits, 1);
        // Retirement drained the overlay: retiring again is a no-op.
        cached.retire_snapshot(&snapshot);
        assert_eq!(cached.stats().misses, 2);
        assert_eq!(cached.stats().entries, 2);
    }

    #[test]
    fn projection_shape_analysis() {
        let c = Catalog::paper_example();
        assert_eq!(
            projection_shape(&q(&c, "V(x, y) :- Meetings(x, y)")),
            Some(0b11)
        );
        assert_eq!(
            projection_shape(&q(&c, "V(x) :- Meetings(x, y)")),
            Some(0b01)
        );
        assert_eq!(
            projection_shape(&q(&c, "V(y) :- Meetings(x, y)")),
            Some(0b10)
        );
        assert_eq!(projection_shape(&q(&c, "V() :- Meetings(x, y)")), Some(0));
        assert_eq!(
            projection_shape(&q(&c, "V(x) :- Meetings(x, 'Cathy')")),
            None
        );
        assert_eq!(projection_shape(&q(&c, "V(x) :- Meetings(x, x)")), None);
    }
}

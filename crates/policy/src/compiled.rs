//! The compiled policy form and its interning arena.
//!
//! Section 6.2's decision procedure asks one question per policy partition:
//! "does every atom of this label intersect the permitted views of its
//! relation?"  Answering it needs none of a
//! [`PolicyPartition`](crate::PolicyPartition)'s bookkeeping (names, hash
//! maps, the registry) — just the permitted [`ViewMask`] per relation and
//! partition.  [`compile`] distils a
//! [`SecurityPolicy`] into exactly that, as one **span** of `u64` words:
//!
//! ```text
//! span[0]               table_len << 32 | k      (k = number of partitions)
//! span[1 + r * k + i]   the views partition i permits on relation r,
//!                       for r < table_len — zero where it permits none
//! ```
//!
//! `table_len` is one past the highest relation some partition permits a
//! view on, so equal policies compile to equal spans, and a span holds no
//! offset into anything: it can be hashed, compared and copied as a unit.
//! Partition *names* are dropped (they play no role in decisions, and
//! dropping them lets policies that differ only in labeling share a span);
//! partition *order* is kept, because bit `i` of a consistency word means
//! partition `i`.
//!
//! This is the only compiled form.  The [`PolicyArena`] keeps every
//! distinct span once, end to end in one `Vec<u64>`, and hands out dense
//! `u32` ids — real app ecosystems draw policies from a bounded space of
//! permission presets — so per-principal state is an id, a consistency word
//! and two counters, which is what makes the paper's 1,000,000-principal
//! axis (Figure 6) cheap enough to run by default.  Every decision of
//! [`PolicyStore`](crate::PolicyStore) is one call of
//! `PolicyArena::surviving_bits`, the crate's single decide loop;
//! [`ReferenceMonitor`](crate::ReferenceMonitor) deliberately does *not*
//! use it — it is the uncompiled specification the loop is tested against.
//!
//! Every mutation of the policy plane works on spans, in a **scratch** span
//! the caller owns (one per [`PolicyStore`](crate::PolicyStore), outside
//! the shared arena):
//!
//! * registration, replacement and checkpoint decode [`compile`] into the
//!   scratch; a grant or revoke copies the principal's span there and sets
//!   or clears the view's bit in its relation's row, growing or shrinking
//!   `table_len` so the result is the span the edited policy compiles to;
//! * the arena hashes the scratch **once**, with a word hash seeded per
//!   arena, and that hash is the index key as it is — the index hashes
//!   nothing again;
//! * only a form never seen is appended, and only then is its boxed source
//!   policy kept — a known form costs a hash, one probe and a span compare,
//!   and allocates nothing.  A form a grant or revoke created records the
//!   edit instead (the form it edited, the view's relation and bit), and
//!   its source — the edited form's source with the view permitted or
//!   revoked in every partition — is built the first time it is asked for.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fdc_core::ViewMask;
use fdc_cq::RelId;

use crate::policy::SecurityPolicy;

/// Maximum number of partitions per policy supported by the one-word
/// consistency bit vector.
pub const MAX_PARTITIONS: usize = 64;

/// The initial consistency bit vector for a policy with `num_partitions`
/// partitions: one set bit per partition ("every `Wi` is still consistent
/// with the — empty — history"), Example 6.3's `⟨1, 1⟩`.
///
/// # Panics
///
/// Panics if `num_partitions` exceeds [`MAX_PARTITIONS`].
#[inline]
pub fn initial_consistency_word(num_partitions: usize) -> u64 {
    assert!(
        num_partitions <= MAX_PARTITIONS,
        "policies are limited to {MAX_PARTITIONS} partitions"
    );
    if num_partitions == 0 {
        0
    } else {
        u64::MAX >> (64 - num_partitions)
    }
}

/// Compiles `policy` into its span — the layout in the [module docs](self).
///
/// The span is sized by
/// [`relation_bound`](SecurityPolicy::relation_bound): a caller holding a
/// policy that came from outside the program checks that bound against its
/// catalog first.
///
/// # Panics
///
/// Panics if the policy has more than [`MAX_PARTITIONS`] partitions (the
/// consistency bit vector is a single `u64`).
pub fn compile(policy: &SecurityPolicy) -> Vec<u64> {
    let mut span = Vec::new();
    compile_into(policy, &mut span);
    span
}

/// [`compile`] into `span`, replacing what it held and reusing its
/// capacity.
fn compile_into(policy: &SecurityPolicy, span: &mut Vec<u64>) {
    let k = policy.len();
    assert!(
        k <= MAX_PARTITIONS,
        "policies are limited to {MAX_PARTITIONS} partitions"
    );
    let table_len = policy.relation_bound();
    span.clear();
    span.resize(1 + table_len * k, 0);
    span[0] = header(table_len, k);
    for (i, partition) in policy.partitions().iter().enumerate() {
        for &(relation, mask) in partition.pairs() {
            span[1 + relation.index() * k + i] = mask;
        }
    }
}

/// A span's first word.
#[inline]
fn header(table_len: usize, k: usize) -> u64 {
    (table_len as u64) << 32 | k as u64
}

/// `(table_len, k)` of a span's first word.
#[inline]
fn unpack_header(header: u64) -> (usize, usize) {
    ((header >> 32) as usize, header as u32 as usize)
}

/// Sets (`grant`) or clears the `bit` mask in every partition's word of
/// `relation`'s row of `span` — a grant or revoke of one view on the
/// compiled form.  Grows the table when `relation` is past it, and shrinks
/// it while its top row is empty, so the result is exactly the span the
/// edited policy compiles to.  Returns false, leaving `span` as it was,
/// when the edit changes nothing.
fn edit_span(span: &mut Vec<u64>, relation: RelId, bit: ViewMask, grant: bool) -> bool {
    let (mut table_len, k) = unpack_header(span[0]);
    let r = relation.index();
    let row = |r: usize| 1 + r * k..1 + (r + 1) * k;
    if grant {
        if k == 0 || (r < table_len && span[row(r)].iter().all(|&w| w & bit != 0)) {
            return false;
        }
        if r >= table_len {
            table_len = r + 1;
            span.resize(1 + table_len * k, 0);
        }
        span[row(r)].iter_mut().for_each(|w| *w |= bit);
    } else {
        if r >= table_len || span[row(r)].iter().all(|&w| w & bit == 0) {
            return false;
        }
        span[row(r)].iter_mut().for_each(|w| *w &= !bit);
        while table_len > 0 && span[row(table_len - 1)].iter().all(|&w| w == 0) {
            table_len -= 1;
        }
        span.truncate(1 + table_len * k);
    }
    span[0] = header(table_len, k);
    true
}

/// The source policy of an arena entry.
#[derive(Debug, Clone)]
struct Source {
    /// The policy, once there is one.
    policy: OnceLock<SecurityPolicy>,
    /// For an entry a grant or revoke created, the recipe of `policy`.
    edit: Option<Edit>,
}

/// A grant (`grant`) or revoke of the view bits `bit` of `relation` in
/// every partition of entry `from`'s source.
#[derive(Debug, Clone, Copy)]
struct Edit {
    from: u32,
    relation: RelId,
    bit: ViewMask,
    grant: bool,
}

/// The index's hasher: its keys are span hashes already, so it hands them
/// through.
#[derive(Debug, Default)]
struct SpanKey(u64);

impl Hasher for SpanKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the policy index is keyed by u64 span hashes");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// An interning arena of compiled policies.
///
/// [`intern`](Self::intern) compiles a policy, resolves the span against
/// every span already held and returns a dense `u32` id; only a span never
/// seen before is appended.  The arena also keeps one source
/// [`SecurityPolicy`] per id — the first policy that compiled to the span —
/// so callers can still inspect (and a checkpoint can still name) the
/// policy behind an id.
///
/// Online policy churn (`PolicyStore::grant_view` / `revoke_view`) edits a
/// copy of the principal's span and resolves it the same way: a grant or
/// revoke that lands on a known span reuses its id, and one that lands on
/// a new span appends it with the edit as its source's recipe.  Entries
/// are never removed — real ecosystems draw policies from a bounded preset
/// space, so the arena converges to the (small) set of forms in circulation
/// rather than growing with the mutation count; [`hits`](Self::hits) makes
/// this observable.
#[derive(Debug)]
pub struct PolicyArena {
    /// Where each policy's span starts in `words`; it ends where the next
    /// one starts.
    spans: Vec<u32>,
    words: Vec<u64>,
    /// This arena's seed of [`hash`](Self::hash), drawn from `RandomState`.
    seed: u64,
    /// A span's hash → its id.  The hash only picks where to look: a
    /// candidate is confirmed by comparing spans in `words`, and a span
    /// whose slot is taken by a different one goes under the next free key.
    index: HashMap<u64, u32, BuildHasherDefault<SpanKey>>,
    sources: Vec<Source>,
    /// Interning hits.  Atomic so that a **hit** — the steady-state outcome
    /// of online churn over a bounded preset space — is recorded through a
    /// shared (`Arc`'d) arena without copy-on-write cloning it.
    hits: AtomicU64,
}

impl Default for PolicyArena {
    fn default() -> Self {
        PolicyArena {
            spans: Vec::new(),
            words: Vec::new(),
            seed: RandomState::new().hash_one(0u64),
            index: HashMap::default(),
            sources: Vec::new(),
            hits: AtomicU64::new(0),
        }
    }
}

impl Clone for PolicyArena {
    fn clone(&self) -> Self {
        PolicyArena {
            spans: self.spans.clone(),
            words: self.words.clone(),
            seed: self.seed,
            index: self.index.clone(),
            sources: self.sources.clone(),
            hits: AtomicU64::new(self.hits()),
        }
    }
}

impl PolicyArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PolicyArena::default()
    }

    /// Interns a policy, returning its id: the policy is compiled into
    /// `scratch` (whatever it held is overwritten) and hashed once; a span
    /// the arena already holds answers with the existing id (the passed
    /// policy is dropped) through the shared pointer — the arena is copied
    /// only to append a new span, and only while another handle to it is
    /// outstanding.
    ///
    /// # Panics
    ///
    /// Panics if the policy has more than [`MAX_PARTITIONS`] partitions, or
    /// if the arena exceeds `u32::MAX` distinct policies or words.
    pub fn intern(this: &mut Arc<Self>, scratch: &mut Vec<u64>, policy: SecurityPolicy) -> u32 {
        compile_into(&policy, scratch);
        let source = Source {
            policy: OnceLock::from(policy),
            edit: None,
        };
        Self::resolve(this, scratch, source)
    }

    /// Grants (`grant`) or revokes the view bits `bit` of `relation` in
    /// every partition of policy `id`, returning the id of the result:
    /// `id`'s span is copied into `scratch`, edited there and resolved like
    /// [`intern`](Self::intern).  No source policy is read or built — a
    /// new form records the edit, and [`source`](Self::source) replays it
    /// when asked.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this arena.
    pub(crate) fn edit(
        this: &mut Arc<Self>,
        scratch: &mut Vec<u64>,
        id: u32,
        (relation, bit): (RelId, ViewMask),
        grant: bool,
    ) -> u32 {
        scratch.clear();
        scratch.extend_from_slice(this.span(id));
        if !edit_span(scratch, relation, bit, grant) {
            this.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let source = Source {
            policy: OnceLock::new(),
            edit: Some(Edit {
                from: id,
                relation,
                bit,
                grant,
            }),
        };
        Self::resolve(this, scratch, source)
    }

    /// The id of `span`, appending it with `source` if the arena does not
    /// hold it yet.
    fn resolve(this: &mut Arc<Self>, span: &[u64], source: Source) -> u32 {
        let hash = this.hash(span);
        match this.probe(span, hash) {
            Ok(id) => {
                this.hits.fetch_add(1, Ordering::Relaxed);
                id
            }
            Err(key) => {
                let arena = Arc::make_mut(this);
                let id =
                    u32::try_from(arena.spans.len()).expect("more than u32::MAX distinct policies");
                let start =
                    u32::try_from(arena.words.len()).expect("policy arena buffer too large");
                arena.spans.push(start);
                arena.words.extend_from_slice(span);
                arena.index.insert(key, id);
                arena.sources.push(source);
                id
            }
        }
    }

    /// The index key of a span: a folded multiply over its words, seeded
    /// per arena from `RandomState` — spans come from outside the program,
    /// and the seed keeps a crafted set of them from colliding anywhere
    /// but by chance.  Four lanes each fold every fourth word, so the
    /// multiplies of a span overlap instead of queuing one behind the
    /// other; the lanes fold into the key in order.
    fn hash(&self, span: &[u64]) -> u64 {
        const MULTIPLE: u64 = 0x5851_F42D_4C95_7F2D;
        let fold = |a: u64, b: u64| {
            let full = u128::from(a) * u128::from(b);
            full as u64 ^ (full >> 64) as u64
        };
        let mut lanes = [0, 1, 2, 3].map(|lane| self.seed ^ MULTIPLE.wrapping_mul(lane));
        let mut words = span.chunks_exact(4);
        for chunk in &mut words {
            for (lane, &word) in lanes.iter_mut().zip(chunk) {
                *lane = fold(*lane ^ word, MULTIPLE);
            }
        }
        for (lane, &word) in lanes.iter_mut().zip(words.remainder()) {
            *lane = fold(*lane ^ word, MULTIPLE);
        }
        let folded = lanes
            .iter()
            .fold(self.seed, |hash, &lane| fold(hash ^ lane, MULTIPLE));
        fold(folded, self.seed | 1)
    }

    /// The id whose span equals `span`, or else the index key free to take
    /// it.  Keys are never removed, so walking up from the hash visits
    /// every span that was ever displaced from it.
    fn probe(&self, span: &[u64], hash: u64) -> Result<u32, u64> {
        let mut key = hash;
        loop {
            match self.index.get(&key) {
                None => return Err(key),
                Some(&id) if self.span(id) == span => return Ok(id),
                Some(_) => key = key.wrapping_add(1),
            }
        }
    }

    /// The compiled span of policy `id` — the layout in the
    /// [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this arena.
    pub fn span(&self, id: u32) -> &[u64] {
        let start = self.spans[id as usize] as usize;
        let end = self
            .spans
            .get(id as usize + 1)
            .map_or(self.words.len(), |&next| next as usize);
        &self.words[start..end]
    }

    /// The decide loop (Section 6.2, Example 6.3): the partitions of policy
    /// `id` that would remain consistent if a label with these
    /// `(relation, ℓ⁺ mask)` atoms were added to a history whose
    /// consistency word is `consistent` — the currently consistent
    /// partitions `Wi` with `mask ∩ permitted_i(relation) ≠ ∅` for every
    /// atom.  (Cumulative consistency of `Wi` is the conjunction of the
    /// per-query checks, by Definition 3.1 (b).)
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this arena.
    #[inline]
    pub(crate) fn surviving_bits(
        &self,
        id: u32,
        consistent: u64,
        atoms: impl IntoIterator<Item = (RelId, ViewMask)>,
    ) -> u64 {
        let start = self.spans[id as usize] as usize;
        let (table_len, k) = unpack_header(self.words[start]);
        let mut surviving = consistent;
        for (relation, mask) in atoms {
            if relation.index() >= table_len {
                return 0;
            }
            let row = start + 1 + relation.index() * k;
            let mut allowing = 0u64;
            for (i, &permitted) in self.words[row..row + k].iter().enumerate() {
                allowing |= u64::from(mask & permitted != 0) << i;
            }
            surviving &= allowing;
            if surviving == 0 {
                break;
            }
        }
        surviving
    }

    /// Number of partitions of the policy behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this arena.
    #[inline]
    pub fn num_partitions(&self, id: u32) -> usize {
        self.words[self.spans[id as usize] as usize] as u32 as usize
    }

    /// The source policy behind an id (the first-registered representative
    /// of its compiled form).  A form a grant or revoke created gets its
    /// source here, the first time it is asked for: the edited form's
    /// source with the view permitted or revoked in every partition.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this arena.
    pub fn source(&self, id: u32) -> &SecurityPolicy {
        let built = |id: u32| self.sources[id as usize].policy.get();
        if let Some(policy) = built(id) {
            return policy;
        }
        // Build the chain of recorded edits back to a built source, oldest
        // first — iteratively, as a chain can be as long as the arena.
        let mut chain = vec![id];
        let mut from = id;
        while let Some(edit) = self.sources[from as usize].edit {
            from = edit.from;
            if built(from).is_some() {
                break;
            }
            chain.push(from);
        }
        for &link in chain.iter().rev() {
            let edit = self.sources[link as usize]
                .edit
                .expect("an unbuilt source records its edit");
            let mut policy = built(edit.from)
                .expect("an edit's source is built before it")
                .clone();
            for partition in policy.partitions_mut() {
                partition.set(edit.relation, edit.bit, edit.grant);
            }
            debug_assert_eq!(
                compile(&policy),
                self.span(link),
                "a source compiles to its span"
            );
            // A concurrent reader may have built it first; both built the same policy.
            let _ = self.sources[link as usize].policy.set(policy);
        }
        built(id).expect("the chain ends at the source asked for")
    }

    /// Number of distinct compiled policies.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of [`intern`](Self::intern) calls answered by an existing
    /// entry — the interning hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PolicyPartition;
    use fdc_core::SecurityViews;

    fn registry() -> SecurityViews {
        SecurityViews::paper_example()
    }

    fn intern(arena: &mut Arc<PolicyArena>, policy: SecurityPolicy) -> u32 {
        PolicyArena::intern(arena, &mut Vec::new(), policy)
    }

    fn wall(registry: &SecurityViews, names: [&str; 2]) -> SecurityPolicy {
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views(names[0], registry, [v1]),
            PolicyPartition::from_views(names[1], registry, [v3]),
        ])
    }

    #[test]
    fn initial_word_matches_the_partition_count() {
        assert_eq!(initial_consistency_word(0), 0);
        assert_eq!(initial_consistency_word(1), 0b1);
        assert_eq!(initial_consistency_word(5), 0b11111);
        assert_eq!(initial_consistency_word(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "limited to 64 partitions")]
    fn initial_word_rejects_too_many_partitions() {
        initial_consistency_word(65);
    }

    #[test]
    fn compiled_partitions_agree_with_uncompiled_masks() {
        let registry = registry();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let policy = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1, v2]),
            PolicyPartition::from_views("both", &registry, [v2, v3]),
            PolicyPartition::new("nothing"),
        ]);
        let span = compile(&policy);
        let (table_len, k) = (policy.relation_bound(), policy.len());
        assert_eq!(table_len, registry.catalog().len());
        assert_eq!(span[0], (table_len as u64) << 32 | k as u64);
        assert_eq!(span.len(), 1 + table_len * k);
        for r in 0..table_len {
            for (i, partition) in policy.partitions().iter().enumerate() {
                assert_eq!(
                    span[1 + r * k + i],
                    partition.permitted_mask(RelId(r as u32)),
                    "relation {r}, partition {i}"
                );
            }
        }
        // Nothing permitted, nothing tabled — whatever the partition count.
        assert_eq!(compile(&SecurityPolicy::new()), [0]);
        let nothing = SecurityPolicy::stateless(PolicyPartition::new("nothing"));
        assert_eq!(compile(&nothing), [1]);
    }

    #[test]
    fn interning_dedupes_up_to_partition_names() {
        let registry = registry();
        let mut arena = Arc::new(PolicyArena::new());
        let a = intern(&mut arena, wall(&registry, ["meetings", "contacts"]));
        // Same structure, different partition names: same arena entry.
        let b = intern(&mut arena, wall(&registry, ["left", "right"]));
        assert_eq!(a, b);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.hits(), 1);
        // A structurally different policy gets a fresh entry.
        let c = intern(&mut arena, SecurityPolicy::allow_all(&registry));
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        // Source lookup returns the first representative.
        assert_eq!(arena.source(a).partitions()[0].name, "meetings");
        assert_eq!(arena.num_partitions(a), 2);
        assert_eq!(arena.num_partitions(c), 1);
        assert!(!arena.is_empty());
    }

    #[test]
    fn spans_that_collide_in_the_index_are_told_apart_by_their_words() {
        let registry = registry();
        let mut arena = Arc::new(PolicyArena::new());
        let first = intern(&mut arena, wall(&registry, ["meetings", "contacts"]));
        // Make the second policy's hash point at the first one's entry, as
        // a 64-bit collision would.
        let second = SecurityPolicy::allow_all(&registry);
        let key = arena.hash(&compile(&second));
        Arc::get_mut(&mut arena).unwrap().index.insert(key, first);
        // The words disagree, so it is a new policy, filed under the next
        // key — where later lookups of it walk to.
        let id = intern(&mut arena, second.clone());
        assert_ne!(id, first);
        assert_eq!(arena.index.get(&key.wrapping_add(1)), Some(&id));
        assert_eq!(intern(&mut arena, second), id);
        assert_eq!(
            intern(&mut arena, wall(&registry, ["meetings", "contacts"])),
            first
        );
        assert_eq!((arena.len(), arena.hits()), (2, 2));
    }

    #[test]
    fn atom_major_surviving_bits_match_the_partition_major_definition() {
        use fdc_core::{AtomLabel, DisclosureLabel};
        let registry = registry();
        let policy = wall(&registry, ["meetings", "contacts"]);
        let mut arena = Arc::new(PolicyArena::new());
        let id = intern(&mut arena, policy.clone());
        let meetings = registry.catalog().resolve("Meetings").unwrap();
        let contacts = registry.catalog().resolve("Contacts").unwrap();
        // Sweep all small labels over the two relations and all consistency
        // words, comparing against the definitional partition-major loop.
        for m_mask in 0u64..4 {
            for c_mask in 0u64..2 {
                let mut atoms = Vec::new();
                if m_mask != 0 {
                    atoms.push(AtomLabel::new(meetings, m_mask));
                }
                if c_mask != 0 {
                    atoms.push(AtomLabel::new(contacts, c_mask));
                }
                let label = DisclosureLabel::from_atoms(atoms);
                for consistent in 0u64..4 {
                    let mut expected = 0u64;
                    for (i, partition) in policy.partitions().iter().enumerate() {
                        if consistent & (1 << i) != 0 && partition.allows(&label) {
                            expected |= 1 << i;
                        }
                    }
                    let atoms = label.atoms().iter().map(|atom| (atom.relation, atom.mask));
                    assert_eq!(
                        arena.surviving_bits(id, consistent, atoms),
                        expected,
                        "m={m_mask:#b} c={c_mask:#b} consistent={consistent:#b}"
                    );
                }
            }
        }
        // A relation past the policy's table is permitted by no partition.
        let beyond = RelId(policy.relation_bound() as u32);
        assert_eq!(arena.surviving_bits(id, 0b11, [(beyond, u64::MAX)]), 0);
    }

    #[test]
    fn partition_order_is_part_of_the_identity() {
        // Policies that differ only in partition order must NOT be merged:
        // the consistency bit at index i has to mean the same partition as it
        // does for a ReferenceMonitor built from the original policy.
        let registry = registry();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let ab = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("a", &registry, [v1]),
            PolicyPartition::from_views("b", &registry, [v3]),
        ]);
        let ba = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("b", &registry, [v3]),
            PolicyPartition::from_views("a", &registry, [v1]),
        ]);
        let mut arena = Arc::new(PolicyArena::new());
        assert_ne!(intern(&mut arena, ab), intern(&mut arena, ba));
        assert_eq!(arena.len(), 2);
    }
}

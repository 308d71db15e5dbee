//! The observed workload behind `AuditApp`: every principal's recent
//! submissions in **one append-only log**.
//!
//! ```text
//!   heads (8 B per principal)          log (8 B per entry, arrival order)
//!   ┌────────────┐                     ┌──────────────────────────────────┐
//!   │ p0 newest ─┼──────────────────┐  │ 0: id 17, prev –                 │ ← p0's oldest
//!   │    len  3  │                  │  │ 1: id  4, prev –                 │ ← p1's only
//!   ├────────────┤                  │  │ 2: id 17, prev 0                 │
//!   │ p1 newest ─┼─► 1              └─►│ 3: BOXED, prev 2                 │ ← p0's newest
//!   │    len  1  │                     └──────────────────────────────────┘
//!   └────────────┘                     boxed (log position → query): [(3, Q)]
//! ```
//!
//! * A **record** reads and writes the principal's 8-byte head and appends
//!   one 8-byte entry linking back to the previous newest — one touch of an
//!   array that stays cache-resident (800 kB at 100 k principals) plus a
//!   sequential write, and no allocation beyond the log's amortised growth.
//!   The entry is the interned [`QueryId`] the admission resolved to; the
//!   rare operand that has no id (a never-seen shape arriving after the
//!   labeler's arena budget is spent) is cloned into the `boxed` side
//!   table, keyed by its log position.
//! * **Eviction is logical.**  A head's `len` saturates at `history_cap`;
//!   only the newest `len` links of a chain are live, so the entry a full
//!   ring pushes out is simply never reached again.
//! * An **audit walk** follows `len ≤ history_cap` links from `newest` and
//!   yields them oldest first — the order `AuditReport::uncovered_queries`
//!   indexes into.
//! * **Compaction** rewrites the live entries, oldest first per principal,
//!   into a fresh log (chains become contiguous, dead entries and their
//!   boxed queries are freed) when the log reaches `2 × live + principals`
//!   entries.  A compaction costs `O(live + principals)` and at least that
//!   many records separate two of them, so recording stays amortised O(1);
//!   nothing is dead before some ring has filled, so a service whose rings
//!   never fill never compacts.  Memory is bounded by 16 B per live entry
//!   plus 16 B per principal.
//!
//! Links are 32 bits wide, so the log holds fewer than 2³² entries: when
//! it gets there the history compacts early, and if the *live* entries
//! alone do not fit — `principals × history_cap` of them at worst — it
//! panics with that message rather than wrap a link (see
//! [`ServiceConfig::history_cap`](crate::ServiceConfig::history_cap)).
//!
//! The checkpoint image stores the rings, not the log: per principal an
//! entry count and the entries oldest first ([`History::encode_into`]), so
//! the image bytes do not depend on arrival interleaving or on when the
//! log last compacted.

use fdc_cq::intern::{QueryId, QueryInterner};
use fdc_cq::{Catalog, ConjunctiveQuery};
use fdc_durability::codec::{put_len, put_u32, put_u8, CodecError, Cursor};
use fdc_policy::PrincipalId;

use crate::durable;
use crate::service::AdmissionQuery;

/// History entry tag of the checkpoint image: an interned query id (`u32`).
const HISTORY_ID: u8 = 0;
/// History entry tag of the checkpoint image: a wire-encoded boxed query.
const HISTORY_BOXED: u8 = 1;

/// [`Entry::what`] of an entry whose query lives in the `boxed` side table.
/// Never a valid id: ids are dense `u32` indices, so the interner would
/// have to hold 2³² shapes first.
const BOXED: u32 = u32::MAX;

/// Log positions are `u32`s, so the log holds at most this many entries.
const MAX_ENTRIES: usize = u32::MAX as usize;

/// One principal's ring: the log position of its newest entry and how many
/// links back from it are live (at most `history_cap`).  `newest` means
/// nothing while `len` is zero.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    newest: u32,
    len: u32,
}

/// One recorded submission: the interned id (or [`BOXED`]) and the log
/// position of the same principal's previous entry.  `prev` of a ring's
/// oldest live entry is never followed.
#[derive(Debug, Clone, Copy)]
struct Entry {
    what: u32,
    prev: u32,
}

/// Every principal's bounded audit history; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct History {
    heads: Vec<Head>,
    log: Vec<Entry>,
    /// The queries of [`BOXED`] entries by log position, ascending (entries
    /// are appended in position order and compaction re-sorts).
    boxed: Vec<(u32, Box<ConjunctiveQuery>)>,
    /// Live entries: the sum of every head's `len`.
    live: usize,
    /// `ServiceConfig::history_cap`, saturated to the link width.
    cap: u32,
    /// [`MAX_ENTRIES`], except in the unit test that reaches it.
    max_entries: usize,
}

impl History {
    /// An empty history keeping at most `cap` entries per principal; a cap
    /// of zero records nothing.
    pub(crate) fn new(cap: usize) -> Self {
        History {
            heads: Vec::new(),
            log: Vec::new(),
            boxed: Vec::new(),
            live: 0,
            cap: u32::try_from(cap).unwrap_or(u32::MAX),
            max_entries: MAX_ENTRIES,
        }
    }

    /// True when submissions are recorded — and with it auditing enabled.
    /// The single home of the `history_cap == 0` convention.
    pub(crate) fn enabled(&self) -> bool {
        self.cap != 0
    }

    /// Adds the (empty) ring of a newly registered principal.
    pub(crate) fn register(&mut self) {
        self.heads.push(Head::default());
    }

    /// Records a submitted query as the principal's newest entry; at the
    /// cap the oldest ages out, so the newest submission always lands in
    /// the audited workload (regression-tested at cap and cap + 1).  The
    /// operand is already resolved, so this appends an id; only the
    /// over-budget shape clones its query.
    ///
    /// # Panics
    ///
    /// Panics if the live entries alone fill the 32-bit log (see the
    /// [module docs](self)).
    pub(crate) fn record(&mut self, principal: PrincipalId, query: AdmissionQuery<'_>) {
        if !self.enabled() {
            return;
        }
        if self.log.len() >= self.room() {
            self.compact();
            assert!(
                self.log.len() < self.max_entries,
                "audit history full: {} principals × history_cap {} keep {} entries live, and \
                 32-bit links address fewer than {}; lower ServiceConfig::history_cap",
                self.heads.len(),
                self.cap,
                self.live,
                self.max_entries,
            );
        }
        let at = self.log.len() as u32;
        let what = match query {
            AdmissionQuery::Interned(id) => id.0,
            AdmissionQuery::Plain(query) => {
                self.boxed.push((at, Box::new(query.clone())));
                BOXED
            }
        };
        let head = &mut self.heads[principal.index()];
        self.log.push(Entry {
            what,
            prev: head.newest,
        });
        head.newest = at;
        if head.len < self.cap {
            head.len += 1;
            self.live += 1;
        }
    }

    /// Entries the log may hold before it compacts: `2 × live + principals`
    /// (see the [module docs](self)), within the link width.
    fn room(&self) -> usize {
        let slack = self.live.saturating_mul(2).saturating_add(self.heads.len());
        slack.min(self.max_entries)
    }

    /// The principal's recorded workload, oldest first — at most
    /// `history_cap` link reads.
    pub(crate) fn workload(&self, principal: PrincipalId) -> Vec<AdmissionQuery<'_>> {
        let mut chain = Vec::new();
        self.oldest_first(self.heads[principal.index()], &mut chain)
            .collect()
    }

    /// Fills `chain` (a scratch buffer) with the log positions of one
    /// ring's live entries, newest first.
    fn fill_chain(&self, head: Head, chain: &mut Vec<u32>) {
        chain.clear();
        let mut at = head.newest;
        for _ in 0..head.len {
            chain.push(at);
            at = self.log[at as usize].prev;
        }
    }

    /// Walks one ring through the scratch buffer `chain`, oldest first.
    fn oldest_first<'a: 'c, 'c>(
        &'a self,
        head: Head,
        chain: &'c mut Vec<u32>,
    ) -> impl Iterator<Item = AdmissionQuery<'a>> + 'c {
        self.fill_chain(head, chain);
        chain.iter().rev().map(|&at| self.entry(at))
    }

    /// The entry at log position `at`, as the operand it recorded.
    fn entry(&self, at: u32) -> AdmissionQuery<'_> {
        match self.log[at as usize].what {
            BOXED => {
                let slot = self
                    .boxed
                    .binary_search_by_key(&at, |&(position, _)| position)
                    .expect("a boxed entry's query is in the side table");
                AdmissionQuery::Plain(&self.boxed[slot].1)
            }
            id => AdmissionQuery::Interned(QueryId(id)),
        }
    }

    /// Rewrites the live entries into a fresh log, oldest first per
    /// principal, freeing the dead ones and the boxed queries only they
    /// referenced.  The new log has room for every record up to the next
    /// compaction, so a steady state allocates only here.
    fn compact(&mut self) {
        let mut log = Vec::with_capacity(self.room());
        // Old → new position of every live boxed entry.
        let mut moved: Vec<(u32, u32)> = Vec::new();
        let mut chain = Vec::new();
        for principal in 0..self.heads.len() {
            self.fill_chain(self.heads[principal], &mut chain);
            for &old in chain.iter().rev() {
                let new = log.len() as u32;
                let what = self.log[old as usize].what;
                if what == BOXED {
                    moved.push((old, new));
                }
                log.push(Entry {
                    what,
                    prev: new.saturating_sub(1),
                });
            }
            if !chain.is_empty() {
                self.heads[principal].newest = log.len() as u32 - 1;
            }
        }
        moved.sort_unstable();
        let mut moved = moved.into_iter().peekable();
        let mut boxed = Vec::new();
        for (old, query) in std::mem::take(&mut self.boxed) {
            if moved.peek().is_some_and(|&(live, _)| live == old) {
                let (_, new) = moved.next().expect("peeked");
                boxed.push((new, query));
            }
        }
        boxed.sort_unstable_by_key(|&(position, _)| position);
        self.boxed = boxed;
        self.log = log;
    }

    /// Serializes the history section of a checkpoint image: a principal
    /// count, and per principal an entry count and the ring oldest first,
    /// each entry [`HISTORY_ID`] + `u32` id into the image's interner
    /// section or [`HISTORY_BOXED`] + query.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.heads.len());
        let mut chain = Vec::new();
        for &head in &self.heads {
            put_len(out, head.len as usize);
            for entry in self.oldest_first(head, &mut chain) {
                match entry {
                    AdmissionQuery::Interned(id) => {
                        put_u8(out, HISTORY_ID);
                        put_u32(out, id.0);
                    }
                    AdmissionQuery::Plain(query) => {
                        put_u8(out, HISTORY_BOXED);
                        fdc_cq::wire::encode_query(query, out);
                    }
                }
            }
        }
    }

    /// Decodes the section [`encode_into`](Self::encode_into) wrote, for a
    /// service of `num_principals` principals keeping `cap` entries each:
    /// a recovered ring longer than the *current* cap keeps its newest
    /// `cap` entries, and a zero cap keeps none.  Every entry is validated
    /// whether or not it is kept: an id must lie inside `interner` (decoded
    /// from the same image), a boxed query must fit `catalog`.
    pub(crate) fn decode_from(
        cursor: &mut Cursor<'_>,
        num_principals: usize,
        cap: usize,
        interner: &QueryInterner,
        catalog: &Catalog,
    ) -> Result<Self, CodecError> {
        let at = cursor.pos();
        if cursor.count(8)? != num_principals {
            return Err(CodecError::invalid(
                at,
                "history length differs from the principal count",
            ));
        }
        let mut history = History::new(cap);
        for principal in 0..num_principals {
            history.register();
            let principal = PrincipalId(principal as u32);
            let entries = cursor.count(5)?;
            for entry in 0..entries {
                let kept = entries - entry <= cap;
                let at = cursor.pos();
                match cursor.u8()? {
                    HISTORY_ID => {
                        let id = QueryId(cursor.u32()?);
                        if !interner.contains(id) {
                            return Err(CodecError::invalid(
                                at,
                                format!(
                                    "history query id {} outside the {}-query interner",
                                    id.0,
                                    interner.len()
                                ),
                            ));
                        }
                        if kept {
                            history.record(principal, AdmissionQuery::Interned(id));
                        }
                    }
                    HISTORY_BOXED => {
                        let query = fdc_cq::wire::decode_query(cursor)?;
                        durable::validate_query(catalog, &query, at)?;
                        if kept {
                            history.record(principal, AdmissionQuery::Plain(&query));
                        }
                    }
                    tag => {
                        return Err(CodecError::invalid(
                            at,
                            format!("unknown history entry tag {tag}"),
                        ))
                    }
                }
            }
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use fdc_core::{CachedLabeler, SecurityViews};
    use fdc_cq::parser::parse_query;
    use fdc_policy::{PolicyPartition, SecurityPolicy};

    use super::*;
    use crate::{DisclosureService, ServiceConfig};

    /// A recorded entry by value: what the naive model keeps.
    #[derive(Debug, Clone, PartialEq)]
    enum Owned {
        Id(u32),
        Boxed(ConjunctiveQuery),
    }

    impl Owned {
        fn of(entry: AdmissionQuery<'_>) -> Self {
            match entry {
                AdmissionQuery::Interned(id) => Owned::Id(id.0),
                AdmissionQuery::Plain(query) => Owned::Boxed(query.clone()),
            }
        }

        fn borrowed(&self) -> AdmissionQuery<'_> {
            match self {
                Owned::Id(id) => AdmissionQuery::Interned(QueryId(*id)),
                Owned::Boxed(query) => AdmissionQuery::Plain(query),
            }
        }
    }

    /// The structure the log replaced: one ring per principal, evicting
    /// from the front.
    struct Model {
        rings: Vec<VecDeque<Owned>>,
        cap: usize,
    }

    impl Model {
        fn record(&mut self, principal: usize, entry: Owned) {
            if self.cap == 0 {
                return;
            }
            let ring = &mut self.rings[principal];
            while ring.len() >= self.cap {
                ring.pop_front();
            }
            ring.push_back(entry);
        }

        /// The rings as a recovery under `cap` must see them.
        fn truncated(&self, cap: usize) -> Vec<Vec<Owned>> {
            self.rings
                .iter()
                .map(|ring| {
                    ring.iter()
                        .skip(ring.len().saturating_sub(cap))
                        .cloned()
                        .collect()
                })
                .collect()
        }
    }

    fn rings_of(history: &History) -> Vec<Vec<Owned>> {
        (0..history.heads.len())
            .map(|p| {
                let workload = history.workload(PrincipalId(p as u32));
                workload.into_iter().map(Owned::of).collect()
            })
            .collect()
    }

    /// splitmix64: the stream is a function of the seed alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// An interner holding a few shapes (the ids history entries may name)
    /// and distinct queries to box.
    fn universe() -> (SecurityViews, QueryInterner, Vec<ConjunctiveQuery>) {
        let views = SecurityViews::paper_example();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q(x, z) :- Contacts(x, y, z)",
            "Q(y) :- Meetings(x, y)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts
            .iter()
            .map(|text| parse_query(views.catalog(), text).unwrap())
            .collect();
        let mut interner = QueryInterner::new();
        for query in &queries {
            interner.intern(query);
        }
        (views, interner, queries)
    }

    #[test]
    fn the_log_matches_a_ring_per_principal() {
        let (views, interner, queries) = universe();
        for cap in [1usize, 2, 3, 1024] {
            for seed in 0..4u64 {
                let mut rng = Rng(seed * 1_000 + cap as u64);
                let mut history = History::new(cap);
                let mut model = Model {
                    rings: Vec::new(),
                    cap,
                };
                let at = |step: usize| format!("cap {cap}, seed {seed}, step {step}");
                for step in 0..2_000 {
                    let principals = model.rings.len();
                    match rng.below(100) {
                        0..=4 if principals < 12 => {
                            history.register();
                            model.rings.push(VecDeque::new());
                        }
                        5..=79 if principals > 0 => {
                            let entry = if rng.below(100) < 15 {
                                Owned::Boxed(queries[rng.below(queries.len())].clone())
                            } else {
                                Owned::Id(rng.below(interner.len()) as u32)
                            };
                            let principal = rng.below(principals);
                            history.record(PrincipalId(principal as u32), entry.borrowed());
                            model.record(principal, entry);
                        }
                        80..=89 if principals > 0 => {
                            let principal = rng.below(principals);
                            let walked: Vec<Owned> = history
                                .workload(PrincipalId(principal as u32))
                                .into_iter()
                                .map(Owned::of)
                                .collect();
                            assert_eq!(
                                walked,
                                Vec::from(model.rings[principal].clone()),
                                "{}",
                                at(step)
                            );
                        }
                        90..=94 => {
                            // A forced compaction leaves exactly the live
                            // entries and exactly their boxed queries.
                            history.compact();
                            let live: usize = model.rings.iter().map(VecDeque::len).sum();
                            let boxed = model
                                .rings
                                .iter()
                                .flatten()
                                .filter(|entry| matches!(entry, Owned::Boxed(_)))
                                .count();
                            assert_eq!(history.log.len(), live, "{}", at(step));
                            assert_eq!(history.boxed.len(), boxed, "{}", at(step));
                        }
                        95..=99 => {
                            // Checkpoint and recover, under the same, a
                            // smaller, a zero and a larger cap.
                            let mut image = Vec::new();
                            history.clone().encode_into(&mut image);
                            for recovered_cap in [cap, cap / 2, 0, cap + 1] {
                                let mut cursor = Cursor::new(&image);
                                let recovered = History::decode_from(
                                    &mut cursor,
                                    principals,
                                    recovered_cap,
                                    &interner,
                                    views.catalog(),
                                )
                                .unwrap();
                                cursor.expect_end().unwrap();
                                assert_eq!(
                                    rings_of(&recovered),
                                    model.truncated(recovered_cap),
                                    "{}, recovered under {recovered_cap}",
                                    at(step)
                                );
                                if recovered_cap >= cap {
                                    let mut again = Vec::new();
                                    recovered.encode_into(&mut again);
                                    assert_eq!(again, image, "{}: not a fixed point", at(step));
                                }
                            }
                        }
                        _ => {}
                    }
                    let live: usize = model.rings.iter().map(VecDeque::len).sum();
                    assert_eq!(history.live, live, "{}", at(step));
                    assert!(
                        history.log.len() <= 2 * live + principals + 1,
                        "{}: {} entries for {live} live",
                        at(step),
                        history.log.len()
                    );
                }
                assert_eq!(
                    rings_of(&history),
                    model.truncated(cap),
                    "cap {cap}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn a_full_log_compacts_before_it_gives_up() {
        // 3 principals × cap 2 = 6 live entries fit an 8-entry log for
        // ever: reaching the limit compacts, it does not wrap or panic.
        let mut history = History {
            max_entries: 8,
            ..History::new(2)
        };
        let mut model = Model {
            rings: vec![VecDeque::new(); 3],
            cap: 2,
        };
        for principal in 0..3 {
            history.register();
            for id in 0..40u32 {
                let entry = Owned::Id(id * 3 + principal as u32);
                history.record(PrincipalId(principal as u32), entry.borrowed());
                model.record(principal, entry);
                assert!(history.log.len() <= 8);
            }
        }
        assert_eq!(rings_of(&history), model.truncated(2));
    }

    #[test]
    #[should_panic(expected = "audit history full: 5 principals × history_cap 2")]
    fn live_entries_beyond_the_link_width_panic_by_name() {
        let mut history = History {
            max_entries: 8,
            ..History::new(2)
        };
        for principal in 0..5 {
            history.register();
            for id in 0..2 {
                history.record(
                    PrincipalId(principal),
                    AdmissionQuery::Interned(QueryId(id)),
                );
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// A service that has served a fixed stream — ids and over-budget boxed
    /// entries, rings below, at and past their cap, an untouched principal
    /// — and the configuration it was built with.
    fn fixed_stream_service() -> (DisclosureService, ServiceConfig) {
        let registry = SecurityViews::paper_example();
        let config = ServiceConfig {
            history_cap: 3,
            ..ServiceConfig::default()
        };
        let mut service = DisclosureService::with_labeler(
            CachedLabeler::with_intern_budget(registry.clone(), 2),
            config,
        );
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        for _ in 0..4 {
            service.register_principal(SecurityPolicy::chinese_wall([
                PolicyPartition::from_views("meetings", &registry, [v1]),
                PolicyPartition::from_views("contacts", &registry, [v3]),
            ]));
        }
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, z) :- Contacts(x, y, z)",
            "Q(y) :- Meetings(x, y)",
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(z) :- Contacts(x, y, z)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts
            .iter()
            .map(|text| parse_query(registry.catalog(), text).unwrap())
            .collect();
        // Principal 0 gets 8 submissions (past the cap), 1 gets 4, 2 gets
        // 2, 3 none.  The first three shapes are view definitions and have
        // ids from the start, the next two spend the arena budget of 2, and
        // the last two are recorded boxed: one ages out of principal 0's
        // ring, the others are live in the image.
        let principals = [0u32, 1, 0, 0, 2, 1, 0, 0, 1, 0, 0, 2, 0, 1];
        for (i, principal) in principals.into_iter().enumerate() {
            service
                .submit(
                    PrincipalId(principal),
                    &queries[(i * 3 + 1) % queries.len()],
                )
                .unwrap();
        }
        let has_id: Vec<bool> = {
            let interner = service.interner();
            queries
                .iter()
                .map(|q| interner.lookup(q).is_some())
                .collect()
        };
        assert_eq!(has_id, [true, true, true, true, true, false, false]);
        (service, config)
    }

    /// The checkpoint image of the fixed stream is byte for byte what the
    /// build that introduced image version 4 wrote (the length and hash
    /// were taken from it), and decoding it is the inverse of encoding it.
    #[test]
    fn the_checkpoint_image_of_a_fixed_stream_is_unchanged() {
        let (service, config) = fixed_stream_service();
        let image = service.freeze(0, true).encode();
        assert_eq!(
            (image.len(), fnv1a(&image)),
            (1_115, 1_696_248_341_321_253_659)
        );
        let recovered = DisclosureService::decode_state(&image, config).unwrap();
        assert_eq!(recovered.freeze(0, true).encode(), image);
    }

    /// Version 4 is the one-shard version-3 image minus two words and
    /// nothing else moved: the store's section used to open with a shard
    /// count (1) and a principal count (4) before the one store's image,
    /// and putting them back reproduces what the last version-3 build
    /// wrote for this stream on one shard (the length and hash were taken
    /// from it).
    #[test]
    fn the_version_4_image_is_the_one_shard_version_3_image_minus_its_count_words() {
        let (service, _) = fixed_stream_service();
        let mut image = service.freeze(0, true).encode();
        let mut store = Vec::new();
        service.store().encode_into(&mut store);
        let store_at = image
            .windows(store.len())
            .position(|window| window == store)
            .expect("the image holds the store's section");
        let counts = [1u64, 4].map(u64::to_le_bytes).concat();
        image.splice(store_at..store_at, counts);
        assert_eq!(
            (image.len(), fnv1a(&image)),
            (1_131, 17_389_320_741_288_089_432)
        );
    }
}

//! Sharded multi-principal enforcement: a [`PolicyStore`] per worker.
//!
//! Policy decisions are embarrassingly parallel *across* principals — each
//! submit touches exactly one principal's state — so the store scales by
//! partitioning principals round-robin over N independent shards, each a
//! complete [`PolicyStore`] owned by (at most) one worker thread at a time.
//! No locks, no atomics on the decision path: a batch is split by shard,
//! each busy shard is **moved** into a task on a caller-supplied persistent
//! [`WorkerPool`] — queue pushes, not thread spawns —
//! and moved back with its decisions, each of which is handed to the
//! caller's sink with its request index
//! ([`decide_batch_on`](ShardedPolicyStore::decide_batch_on);
//! [`submit_batch_on`](ShardedPolicyStore::submit_batch_on) collects them
//! into request order).  The store
//! never owns or spins up a pool itself, so an embedding service runs
//! exactly one worker plane.
//!
//! Sequential entry points ([`submit`](ShardedPolicyStore::submit),
//! [`submit_packed`](ShardedPolicyStore::submit_packed), …) route single
//! requests to the owning shard, so a sharded store can stand in wherever a
//! flat store is used; the decision/state equivalence of the two (and of the
//! per-principal [`ReferenceMonitor`](crate::ReferenceMonitor)) is asserted
//! by the property tests.

use fdc_core::{DisclosureLabel, PackedLabel, SecurityViewId, SecurityViews, WorkerPool};

use crate::monitor::Decision;
use crate::policy::SecurityPolicy;
use crate::store::{PolicyStore, PrincipalId};

/// Batches shorter than this are decided sequentially on the calling thread
/// by default: for tiny batches, even the pool hand-off (cloning the packed
/// labels into owned per-shard requests, a queue push per busy shard) costs
/// more than the handful of bit-mask decisions being parallelized.  Tune per
/// store with [`ShardedPolicyStore::set_parallel_threshold`] (a
/// `DisclosureService` passes its `ServiceConfig::parallel_threshold`, the
/// crossover it also applies to its labeling fan-out).
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 32;

/// One shard's slice of a fanned-out batch: `(request index, shard-local
/// principal, packed label, commit)`.
type ShardRequests = Vec<(usize, PrincipalId, Vec<PackedLabel>, bool)>;

/// A policy store partitioned over independent shards.
///
/// Principal `p` lives in shard `p % num_shards` at local slot
/// `p / num_shards`, so round-robin registration keeps the shards balanced
/// and the routing is pure arithmetic.  Each shard interns its own policies,
/// so heavily shared policies cost one arena entry per shard.
#[derive(Debug, Clone)]
pub struct ShardedPolicyStore {
    shards: Vec<PolicyStore>,
    num_principals: usize,
    /// Minimum batch length for the pooled per-shard fan-out; shorter
    /// batches fall back to the sequential path.
    parallel_threshold: usize,
}

impl ShardedPolicyStore {
    /// Creates an empty store with `num_shards` shards (at least 1) and the
    /// [default small-batch threshold](DEFAULT_PARALLEL_THRESHOLD).
    pub fn new(num_shards: usize) -> Self {
        ShardedPolicyStore {
            shards: (0..num_shards.max(1)).map(|_| PolicyStore::new()).collect(),
            num_principals: 0,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current small-batch sequential-fallback threshold.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Sets the minimum batch length at which
    /// [`submit_batch_on`](Self::submit_batch_on) /
    /// [`decide_batch_on`](Self::decide_batch_on) fan out to
    /// the worker pool.  `0` (or `1`) forces the parallel path for every
    /// non-trivial batch.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.num_principals
    }

    /// True if no principals are registered.
    pub fn is_empty(&self) -> bool {
        self.num_principals == 0
    }

    /// The shard and shard-local id of a principal.
    #[inline]
    fn locate(&self, principal: PrincipalId) -> (usize, PrincipalId) {
        let shard = principal.index() % self.shards.len();
        let local = PrincipalId((principal.index() / self.shards.len()) as u32);
        (shard, local)
    }

    /// Registers a principal with its policy and returns its (global) id.
    ///
    /// # Panics
    ///
    /// Panics if the policy has more than
    /// [`MAX_PARTITIONS`](crate::MAX_PARTITIONS) partitions.
    pub fn register(&mut self, policy: SecurityPolicy) -> PrincipalId {
        let id = PrincipalId(self.num_principals as u32);
        let shard = id.index() % self.shards.len();
        self.shards[shard].register(policy);
        self.num_principals += 1;
        id
    }

    /// The policy of a principal (the interned representative — see
    /// [`PolicyStore::policy`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn policy(&self, principal: PrincipalId) -> &SecurityPolicy {
        let (shard, local) = self.locate(principal);
        self.shards[shard].policy(local)
    }

    /// The consistency bit vector of a principal.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn consistency_bits(&self, principal: PrincipalId) -> u64 {
        let (shard, local) = self.locate(principal);
        self.shards[shard].consistency_bits(local)
    }

    /// Replaces a principal's policy online, preserving its consistency
    /// word and counters (see [`PolicyStore::replace_policy`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store or the partition count
    /// changes.
    pub fn replace_policy(&mut self, principal: PrincipalId, policy: SecurityPolicy) {
        let (shard, local) = self.locate(principal);
        self.shards[shard].replace_policy(local, policy);
    }

    /// Grants one more security view to a principal (see
    /// [`PolicyStore::grant_view`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn grant_view(
        &mut self,
        principal: PrincipalId,
        registry: &SecurityViews,
        view: SecurityViewId,
    ) {
        let (shard, local) = self.locate(principal);
        self.shards[shard].grant_view(local, registry, view);
    }

    /// Revokes a security view from a principal (see
    /// [`PolicyStore::revoke_view`]).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn revoke_view(
        &mut self,
        principal: PrincipalId,
        registry: &SecurityViews,
        view: SecurityViewId,
    ) {
        let (shard, local) = self.locate(principal);
        self.shards[shard].revoke_view(local, registry, view);
    }

    /// Submits a query label on behalf of a principal (see
    /// [`PolicyStore::submit`]).
    pub fn submit(&mut self, principal: PrincipalId, label: &DisclosureLabel) -> Decision {
        let (shard, local) = self.locate(principal);
        self.shards[shard].submit(local, label)
    }

    /// [`submit`](Self::submit) on the packed 64-bit label representation.
    pub fn submit_packed(&mut self, principal: PrincipalId, label: &[PackedLabel]) -> Decision {
        let (shard, local) = self.locate(principal);
        self.shards[shard].submit_packed(local, label)
    }

    /// Pure check (no state update) for a principal.
    pub fn check(&self, principal: PrincipalId, label: &DisclosureLabel) -> Decision {
        let (shard, local) = self.locate(principal);
        self.shards[shard].check(local, label)
    }

    /// [`check`](Self::check) on the packed 64-bit label representation.
    pub fn check_packed(&self, principal: PrincipalId, label: &[PackedLabel]) -> Decision {
        let (shard, local) = self.locate(principal);
        self.shards[shard].check_packed(local, label)
    }

    /// Submits a batch of packed requests sequentially, in order.
    pub fn submit_batch(&mut self, batch: &[(PrincipalId, &[PackedLabel])]) -> Vec<Decision> {
        batch
            .iter()
            .map(|(principal, label)| self.submit_packed(*principal, label))
            .collect()
    }

    /// Submits a batch of packed requests with one pool task per busy
    /// shard, returning the decisions in request order — the all-commit,
    /// collected form of [`decide_batch_on`](Self::decide_batch_on), whose
    /// decisions (and per-principal state) equal the sequential
    /// [`submit_batch`](Self::submit_batch); asserted by the property
    /// tests.
    pub fn submit_batch_on(
        &mut self,
        pool: &WorkerPool,
        batch: &[(PrincipalId, &[PackedLabel])],
    ) -> Vec<Decision> {
        let mut decisions = vec![Decision::Deny; batch.len()];
        self.decide_batch_on(
            pool,
            batch
                .iter()
                .map(|&(principal, label)| (principal, label, true)),
            |i, decision| decisions[i] = decision,
        );
        decisions
    }

    /// The one place that chooses between deciding a batch inline and
    /// fanning it out per shard: a fan-out needs more than one shard, more
    /// than one pool worker and at least
    /// [`parallel_threshold`](Self::parallel_threshold) (and two) requests.
    fn fans_out(&self, pool: &WorkerPool, batch_len: usize) -> bool {
        self.shards.len() > 1
            && pool.workers() > 1
            && batch_len > 1
            && batch_len >= self.parallel_threshold
    }

    /// Partitions a batch into owned per-shard request lists (cloning each
    /// packed label — a handful of `u64`s — so the requests can outlive the
    /// borrowed batch inside the pool tasks).
    fn partition<'a>(
        &self,
        batch: impl Iterator<Item = (PrincipalId, &'a [PackedLabel], bool)>,
    ) -> Vec<ShardRequests> {
        let num_shards = self.shards.len();
        let mut by_shard: Vec<ShardRequests> = vec![Vec::new(); num_shards];
        for (i, (principal, label, commit)) in batch.enumerate() {
            let local = PrincipalId((principal.index() / num_shards) as u32);
            by_shard[principal.index() % num_shards].push((i, local, label.to_vec(), commit));
        }
        by_shard
    }

    /// The move-in/move-out fan-out: every shard with pending requests is
    /// moved into a pool task together with its request list, decides them
    /// in batch order, and is moved back; each decision is handed to `sink`
    /// with its request index, shard by shard.
    fn fan_out(
        &mut self,
        pool: &WorkerPool,
        by_shard: Vec<ShardRequests>,
        mut sink: impl FnMut(usize, Decision),
    ) {
        let mut slots: Vec<Option<PolicyStore>> = self.shards.drain(..).map(Some).collect();
        let mut inputs: Vec<(usize, PolicyStore, ShardRequests)> = Vec::new();
        for (shard_idx, requests) in by_shard.into_iter().enumerate() {
            if !requests.is_empty() {
                let shard = slots[shard_idx].take().expect("each shard moved out once");
                inputs.push((shard_idx, shard, requests));
            }
        }
        let outputs = pool.run(inputs, move |(shard_idx, mut shard, requests), _ctx| {
            let decided: Vec<(usize, Decision)> = requests
                .into_iter()
                .map(|(i, local, label, commit)| (i, shard.decide_packed(local, &label, commit)))
                .collect();
            (shard_idx, shard, decided)
        });
        for (shard_idx, shard, decided) in outputs {
            slots[shard_idx] = Some(shard);
            for (i, decision) in decided {
                sink(i, decision);
            }
        }
        self.shards = slots
            .into_iter()
            .map(|slot| slot.expect("each shard moved back once"))
            .collect();
    }

    /// Serializes the sharded store — shard count, principal count,
    /// parallel threshold, then every shard via
    /// [`PolicyStore::encode_into`] — into `out`.
    ///
    /// The per-shard layout is a function of the shard count (principal
    /// `p` lives in shard `p % num_shards`), so the count is part of the
    /// format and recovery reopens the store with the checkpoint's shard
    /// count, not the current configuration's.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use fdc_durability::codec::{put_len, put_u64};
        put_len(out, self.shards.len());
        put_u64(out, self.num_principals as u64);
        put_u64(out, self.parallel_threshold as u64);
        for shard in &self.shards {
            shard.encode_into(out);
        }
    }

    /// Deserializes a store written by [`encode_into`](Self::encode_into),
    /// validating that the per-shard principal counts reproduce the
    /// round-robin placement exactly and that every policy fits `catalog`
    /// (see [`PolicyStore::decode_from`]).
    pub fn decode_from(
        cursor: &mut fdc_durability::codec::Cursor<'_>,
        catalog: &fdc_cq::Catalog,
    ) -> std::result::Result<Self, fdc_durability::codec::CodecError> {
        use fdc_durability::codec::CodecError;
        let at = cursor.pos();
        let num_shards = cursor.count(16)?;
        if num_shards == 0 {
            return Err(CodecError::invalid(at, "zero shards"));
        }
        // Every principal is a 20-byte record further on, which bounds the
        // count by the input and keeps the placement arithmetic below in
        // range.
        let num_principals = cursor.count(20)?;
        let parallel_threshold = cursor.u64()? as usize;
        let mut shards = Vec::with_capacity(num_shards);
        for index in 0..num_shards {
            let at = cursor.pos();
            let shard = PolicyStore::decode_from(cursor, catalog)?;
            // Round-robin placement: shard i holds principals i, i+n, ...
            let expected = (num_principals + num_shards - 1 - index) / num_shards;
            if shard.len() != expected {
                return Err(CodecError::invalid(
                    at,
                    format!(
                        "shard {index} holds {} principals, round-robin expects {expected}",
                        shard.len()
                    ),
                ));
            }
            shards.push(shard);
        }
        Ok(ShardedPolicyStore {
            shards,
            num_principals,
            parallel_threshold,
        })
    }

    /// Decides one packed request, committing only when `commit` is true
    /// (see [`PolicyStore::decide_packed`]).
    pub fn decide_packed(
        &mut self,
        principal: PrincipalId,
        label: &[PackedLabel],
        commit: bool,
    ) -> Decision {
        let (shard, local) = self.locate(principal);
        self.shards[shard].decide_packed(local, label, commit)
    }

    /// Decides a mixed batch of packed submits (`commit = true`) and checks
    /// (`commit = false`), handing each decision to `sink` together with
    /// its request's index in `batch` — no request vector comes in and no
    /// decision vector goes out, so a caller that keeps its labels in one
    /// arena and its answers in response slots decides a batch without
    /// allocating.
    ///
    /// Small batches (and single-shard or single-worker set-ups — see
    /// `fans_out`, the only place that rule lives) are decided inline on
    /// the calling thread, `sink` running in request order; larger ones
    /// take one pool task per busy shard, and `sink` runs shard by shard
    /// once the tasks are back.  Either way the requests of one principal
    /// are decided — and reach `sink` — in batch order, so a check between
    /// two submits for the same principal observes exactly the state it
    /// would under sequential processing, and a sink that keeps
    /// per-principal state sees it in stream order.
    ///
    /// The pool is always supplied by the caller: the store owns no
    /// threads of its own and never falls back to a process-global pool,
    /// so a service embedding this store runs exactly one worker plane.
    pub fn decide_batch_on<'a>(
        &mut self,
        pool: &WorkerPool,
        batch: impl ExactSizeIterator<Item = (PrincipalId, &'a [PackedLabel], bool)>,
        mut sink: impl FnMut(usize, Decision),
    ) {
        if self.fans_out(pool, batch.len()) {
            let by_shard = self.partition(batch);
            self.fan_out(pool, by_shard, sink);
        } else {
            for (i, (principal, label, commit)) in batch.enumerate() {
                sink(i, self.decide_packed(principal, label, commit));
            }
        }
    }

    /// `(answered, refused)` counters for a principal.
    pub fn stats(&self, principal: PrincipalId) -> (u64, u64) {
        let (shard, local) = self.locate(principal);
        self.shards[shard].stats(local)
    }

    /// Total `(answered, refused)` across all principals — O(num_shards).
    pub fn totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(a, r), shard| {
            let (sa, sr) = shard.totals();
            (a + sa, r + sr)
        })
    }

    /// Number of distinct compiled policies summed over the shards (a policy
    /// shared across shards counts once per shard holding it).
    pub fn unique_policies(&self) -> usize {
        self.shards.iter().map(PolicyStore::unique_policies).sum()
    }

    /// Bytes of per-principal state summed over the shards.
    pub fn state_bytes(&self) -> usize {
        self.shards.iter().map(PolicyStore::state_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PolicyPartition;
    use fdc_core::{BaselineLabeler, QueryLabeler, SecurityViews};
    use fdc_cq::parser::parse_query;

    fn setup() -> (SecurityViews, BaselineLabeler) {
        let registry = SecurityViews::paper_example();
        let labeler = BaselineLabeler::new(registry.clone());
        (registry, labeler)
    }

    fn label(labeler: &BaselineLabeler, text: &str) -> DisclosureLabel {
        let catalog = labeler.security_views().catalog();
        labeler.label_query(&parse_query(catalog, text).unwrap())
    }

    /// `decide_batch_on`, with the sink's decisions collected into request
    /// order (every slot must be answered exactly once).
    fn decide_collected(
        store: &mut ShardedPolicyStore,
        pool: &WorkerPool,
        batch: &[(PrincipalId, &[PackedLabel], bool)],
    ) -> Vec<Decision> {
        let mut decisions = vec![None; batch.len()];
        store.decide_batch_on(pool, batch.iter().copied(), |i, decision| {
            assert!(decisions[i].replace(decision).is_none(), "slot {i} twice");
        });
        decisions.into_iter().map(Option::unwrap).collect()
    }

    fn wall(registry: &SecurityViews) -> SecurityPolicy {
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", registry, [v1]),
            PolicyPartition::from_views("contacts", registry, [v3]),
        ])
    }

    #[test]
    fn encode_decode_round_trips_the_sharded_layout() {
        let (registry, labeler) = setup();
        let mut store = ShardedPolicyStore::new(3);
        store.set_parallel_threshold(7);
        let ids: Vec<PrincipalId> = (0..10).map(|_| store.register(wall(&registry))).collect();
        let meetings = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        let contacts = label(&labeler, "Q(x, y, z) :- Contacts(x, y, z)");
        for (i, &id) in ids.iter().enumerate() {
            let l = if i % 2 == 0 { &meetings } else { &contacts };
            store.submit(id, l);
        }
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        let mut back = ShardedPolicyStore::decode_from(&mut cursor, registry.catalog()).unwrap();
        cursor.expect_end().unwrap();
        assert_eq!(back.num_shards(), 3);
        assert_eq!(back.len(), store.len());
        assert_eq!(back.parallel_threshold(), 7);
        assert_eq!(back.totals(), store.totals());
        for &id in &ids {
            assert_eq!(back.consistency_bits(id), store.consistency_bits(id));
            assert_eq!(back.stats(id), store.stats(id));
        }
        // Decisions keep matching after the round trip.
        let mut live = store;
        for &id in &ids {
            assert_eq!(live.submit(id, &meetings), back.submit(id, &meetings));
            assert_eq!(live.submit(id, &contacts), back.submit(id, &contacts));
        }
    }

    #[test]
    fn decode_rejects_a_layout_that_breaks_round_robin() {
        let (registry, _) = setup();
        let mut store = ShardedPolicyStore::new(2);
        for _ in 0..5 {
            store.register(wall(&registry));
        }
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        // Claim one fewer principal than the shards actually hold: the
        // round-robin check must reject the mismatch.
        let mut decode = |claimed: u64| {
            bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
            let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
            ShardedPolicyStore::decode_from(&mut cursor, registry.catalog())
        };
        assert!(decode(5).is_ok());
        assert!(decode(4).is_err());
        // Regression: a count no input could hold used to overflow the
        // placement arithmetic (a panic in a debug build).
        for claimed in [u64::MAX, u64::MAX - 1, 1 << 63] {
            let err = decode(claimed).unwrap_err().to_string();
            assert!(err.contains("element count"), "{claimed}: {err}");
        }
    }

    #[test]
    fn sharded_routing_matches_a_flat_store() {
        let (registry, labeler) = setup();
        let mut flat = PolicyStore::new();
        let mut sharded = ShardedPolicyStore::new(3);
        assert_eq!(sharded.num_shards(), 3);
        for _ in 0..10 {
            flat.register(wall(&registry));
            sharded.register(wall(&registry));
        }
        assert_eq!(sharded.len(), 10);
        assert!(!sharded.is_empty());
        assert_eq!(sharded.policy(PrincipalId(7)).len(), 2);

        let texts = [
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, z) :- Contacts(x, y, z)",
        ];
        for (i, text) in texts.iter().cycle().take(40).enumerate() {
            let l = label(&labeler, text);
            let p = PrincipalId((i % 10) as u32);
            assert_eq!(flat.submit(p, &l), sharded.submit(p, &l));
            assert_eq!(flat.check(p, &l), sharded.check(p, &l));
            assert_eq!(
                flat.check_packed(p, &l.pack()),
                sharded.check_packed(p, &l.pack())
            );
            assert_eq!(flat.consistency_bits(p), sharded.consistency_bits(p));
        }
        for i in 0..10 {
            let p = PrincipalId(i);
            assert_eq!(flat.stats(p), sharded.stats(p));
        }
        assert_eq!(flat.totals(), sharded.totals());
        assert_eq!(flat.state_bytes(), sharded.state_bytes());
        // One wall policy per shard holding principals.
        assert_eq!(sharded.unique_policies(), 3);
    }

    #[test]
    fn parallel_batches_match_sequential_batches() {
        let (registry, labeler) = setup();
        let mut sequential = ShardedPolicyStore::new(4);
        let mut parallel = ShardedPolicyStore::new(4);
        for _ in 0..13 {
            sequential.register(wall(&registry));
            parallel.register(wall(&registry));
        }
        let labels: Vec<Vec<_>> = [
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, z) :- Contacts(x, y, z)",
            "Q(y) :- Meetings(x, y)",
        ]
        .iter()
        .cycle()
        .take(100)
        .map(|text| label(&labeler, text).pack())
        .collect();
        let batch: Vec<(PrincipalId, &[PackedLabel])> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (PrincipalId((i % 13) as u32), l.as_slice()))
            .collect();
        let pool = WorkerPool::new(4);
        assert_eq!(
            parallel.submit_batch_on(&pool, &batch),
            sequential.submit_batch(&batch)
        );
        assert_eq!(parallel.totals(), sequential.totals());
        for i in 0..13 {
            let p = PrincipalId(i);
            assert_eq!(parallel.consistency_bits(p), sequential.consistency_bits(p));
            assert_eq!(parallel.stats(p), sequential.stats(p));
        }
    }

    #[test]
    fn mixed_parallel_batches_match_sequential_decisions() {
        let (registry, labeler) = setup();
        let mut parallel = ShardedPolicyStore::new(4);
        let mut sequential = ShardedPolicyStore::new(4);
        for _ in 0..9 {
            parallel.register(wall(&registry));
            sequential.register(wall(&registry));
        }
        let labels: Vec<Vec<PackedLabel>> = [
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, z) :- Contacts(x, y, z)",
        ]
        .iter()
        .cycle()
        .take(80)
        .map(|text| label(&labeler, text).pack())
        .collect();
        // Interleave checks (every third request) with submits.
        let batch: Vec<(PrincipalId, &[PackedLabel], bool)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (PrincipalId((i % 9) as u32), l.as_slice(), i % 3 != 0))
            .collect();
        let expected: Vec<Decision> = batch
            .iter()
            .map(|(p, l, commit)| sequential.decide_packed(*p, l, *commit))
            .collect();
        let pool = WorkerPool::new(4);
        assert_eq!(decide_collected(&mut parallel, &pool, &batch), expected);
        assert_eq!(parallel.totals(), sequential.totals());
        for i in 0..9 {
            let p = PrincipalId(i);
            assert_eq!(parallel.consistency_bits(p), sequential.consistency_bits(p));
            assert_eq!(parallel.stats(p), sequential.stats(p));
        }
    }

    #[test]
    fn sharded_grants_and_revokes_match_a_flat_store() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let mut flat = PolicyStore::new();
        let mut sharded = ShardedPolicyStore::new(3);
        for _ in 0..7 {
            flat.register(wall(&registry));
            sharded.register(wall(&registry));
        }
        let times = label(&labeler, "Q(x) :- Meetings(x, y)");
        let full = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        for i in 0..7 {
            let p = PrincipalId(i);
            flat.submit(p, &full);
            sharded.submit(p, &full);
            if i % 2 == 0 {
                flat.revoke_view(p, &registry, v1);
                sharded.revoke_view(p, &registry, v1);
            } else {
                flat.grant_view(p, &registry, v2);
                sharded.grant_view(p, &registry, v2);
            }
        }
        for i in 0..7 {
            let p = PrincipalId(i);
            assert_eq!(flat.submit(p, &times), sharded.submit(p, &times));
            assert_eq!(flat.submit(p, &full), sharded.submit(p, &full));
            assert_eq!(flat.consistency_bits(p), sharded.consistency_bits(p));
            assert_eq!(flat.stats(p), sharded.stats(p));
            assert_eq!(flat.policy(p), sharded.policy(p));
        }
    }

    #[test]
    fn small_batches_fall_back_to_the_sequential_path() {
        let (registry, labeler) = setup();
        // A store with a raised threshold decides a 100-request batch
        // sequentially; one with a zero threshold fans out.  Both must equal
        // the plain sequential store on decisions and state.
        let mut raised = ShardedPolicyStore::new(4);
        raised.set_parallel_threshold(1_000);
        assert_eq!(raised.parallel_threshold(), 1_000);
        let mut forced = ShardedPolicyStore::new(4);
        forced.set_parallel_threshold(0);
        let mut sequential = ShardedPolicyStore::new(4);
        assert_eq!(sequential.parallel_threshold(), DEFAULT_PARALLEL_THRESHOLD);
        for _ in 0..11 {
            raised.register(wall(&registry));
            forced.register(wall(&registry));
            sequential.register(wall(&registry));
        }
        let labels: Vec<Vec<PackedLabel>> = [
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
        ]
        .iter()
        .cycle()
        .take(100)
        .map(|text| label(&labeler, text).pack())
        .collect();
        let batch: Vec<(PrincipalId, &[PackedLabel])> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (PrincipalId((i % 11) as u32), l.as_slice()))
            .collect();
        let pool = WorkerPool::new(4);
        let expected = sequential.submit_batch(&batch);
        assert_eq!(raised.submit_batch_on(&pool, &batch), expected);
        assert_eq!(forced.submit_batch_on(&pool, &batch), expected);
        assert_eq!(raised.totals(), sequential.totals());
        assert_eq!(forced.totals(), sequential.totals());
        // Same crossover on the mixed submit/check path.
        let mixed: Vec<(PrincipalId, &[PackedLabel], bool)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (PrincipalId((i % 11) as u32), l.as_slice(), i % 2 == 0))
            .collect();
        let expected_mixed: Vec<Decision> = mixed
            .iter()
            .map(|(p, l, commit)| sequential.decide_packed(*p, l, *commit))
            .collect();
        assert_eq!(decide_collected(&mut raised, &pool, &mixed), expected_mixed);
        assert_eq!(decide_collected(&mut forced, &pool, &mixed), expected_mixed);
        for i in 0..11 {
            let p = PrincipalId(i);
            assert_eq!(raised.stats(p), sequential.stats(p));
            assert_eq!(forced.stats(p), sequential.stats(p));
        }
    }

    #[test]
    fn degenerate_shapes_fall_back_to_the_sequential_path() {
        let (registry, labeler) = setup();
        // Zero requested shards is clamped to one.
        let mut single = ShardedPolicyStore::new(0);
        assert_eq!(single.num_shards(), 1);
        let p = single.register(wall(&registry));
        let packed = label(&labeler, "Q(x) :- Meetings(x, y)").pack();
        let batch: Vec<(PrincipalId, &[PackedLabel])> = vec![(p, packed.as_slice())];
        let pool = WorkerPool::new(4);
        assert_eq!(single.submit_batch_on(&pool, &batch).len(), 1);
        assert!(single.submit_batch_on(&pool, &[]).is_empty());
        assert_eq!(single.totals(), (1, 0));
    }
}

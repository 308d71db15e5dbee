//! Sharded multi-principal enforcement: a [`PolicyStore`] per shard.
//!
//! Principals are placed round-robin over N independent shards, each a
//! complete [`PolicyStore`]; principal `p` lives in shard `p % N` at local
//! slot `p / N`.  The placement is the store's **on-disk layout** — a
//! checkpoint writes the shard count and then every shard's image, and
//! recovery reopens the store with the checkpoint's count — and nothing
//! more: every request is decided on the calling thread, by routing it to
//! its shard ([`decide_packed`](ShardedPolicyStore::decide_packed) and the
//! [`submit`](ShardedPolicyStore::submit) /
//! [`check`](ShardedPolicyStore::check) adapters over it), so a sharded
//! store stands in wherever a flat store is used.  The decision/state
//! equivalence of the two (and of the per-principal
//! [`ReferenceMonitor`](crate::ReferenceMonitor)) is asserted by the
//! property tests.

use fdc_core::{DisclosureLabel, PackedLabel, SecurityViewId, SecurityViews};

use crate::monitor::Decision;
use crate::policy::SecurityPolicy;
use crate::store::{PolicyStore, PrincipalId};

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
}

impl ShardedPolicyStore {
    /// Creates an empty store with `num_shards` shards (at least 1).
    pub fn new(num_shards: usize) -> Self {
        ShardedPolicyStore {
            shards: (0..num_shards.max(1)).map(|_| PolicyStore::new()).collect(),
            num_principals: 0,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// Serializes the sharded store — shard count, principal count, then
    /// every shard via [`PolicyStore::encode_into`] — into `out`.
    ///
    /// The per-shard layout is a function of the shard count (principal
    /// `p` lives in shard `p % num_shards`), so the count is part of the
    /// format and recovery reopens the store with the checkpoint's shard
    /// count, not the current configuration's.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use fdc_durability::codec::{put_len, put_u64};
        put_len(out, self.shards.len());
        put_u64(out, self.num_principals as u64);
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
    fn degenerate_shapes_fall_back_to_the_sequential_path() {
        let (registry, labeler) = setup();
        // Zero requested shards is clamped to one, which decides like a
        // flat store.
        let mut single = ShardedPolicyStore::new(0);
        assert_eq!(single.num_shards(), 1);
        let p = single.register(wall(&registry));
        let packed = label(&labeler, "Q(x) :- Meetings(x, y)").pack();
        assert!(single.decide_packed(p, &packed, false).is_allow());
        assert_eq!(single.totals(), (0, 0));
        assert!(single.decide_packed(p, &packed, true).is_allow());
        assert_eq!(single.totals(), (1, 0));
    }
}

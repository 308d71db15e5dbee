//! Epoch snapshots: the immutable read plane of a [`DisclosureService`].
//!
//! A [`ServiceSnapshot`] freezes everything a **read** (an admission's
//! labeling, an audit's workload relabeling) depends on, at one point of the
//! operation stream:
//!
//! * the security-view registry at its current per-relation **epoch
//!   vector**, together with the compiled per-relation candidate lists
//!   (via [`LabelerSnapshot`]);
//! * a read-only handle onto the live labeler's striped query/atom caches,
//!   so warm shapes keep hitting across the handover (the snapshot's own
//!   cache work accumulates in private per-worker overlay *lanes* —
//!   contention-free writes — and every lane is published back when the
//!   snapshot retires);
//! * one copy-on-write [`PolicyArena`] handle per policy shard — the
//!   compiled-policy universe the segment's decisions are made against.
//!
//! What a snapshot deliberately does **not** freeze is per-principal
//! enforcement state (consistency words, counters, histories): decisions
//! are order-sensitive, so [`run_pipelined`] keeps applying them to the
//! live store at their stream position.  The split works because labels
//! depend only on the view universe — never on policies — so the expensive
//! half of every admission can run against a frozen epoch while the cheap,
//! order-sensitive half stays sequential.
//!
//! [`DisclosureService`]: crate::DisclosureService
//! [`run_pipelined`]: crate::DisclosureService::run_pipelined

use std::sync::Arc;

use fdc_core::{LabelerSnapshot, QueryLabeler, SecurityViews, WorkerContext};
use fdc_cq::intern::QueryId;
use fdc_cq::RelId;
use fdc_policy::PolicyArena;

/// An immutable view of a [`DisclosureService`](crate::DisclosureService)'s
/// read plane at a frozen epoch vector.
///
/// Snapshots follow a **build → serve → retire** lifecycle:
///
/// 1. **Build** ([`DisclosureService::snapshot`](crate::DisclosureService::snapshot)):
///    the view universe is copied at its current epochs, the live caches are
///    handed over read-only, and the policy arenas are pinned copy-on-write.
/// 2. **Serve**: any number of threads label queries through the snapshot
///    (`&self` throughout) while the live service keeps mutating — grants,
///    revokes and even new security views never disturb a serving snapshot.
/// 3. **Retire** (`CachedLabeler::retire_snapshot`, done by the pipelined
///    executor): the labels the snapshot computed or refreshed are published
///    back into the live striped tables, so the warm state survives the
///    epoch.
///
/// Every label a snapshot produces equals what the live labeler produced at
/// the moment the snapshot was built; the pipelined equivalence property
/// test asserts this end to end.
#[derive(Debug)]
pub struct ServiceSnapshot {
    labeler: LabelerSnapshot,
    arenas: Vec<Arc<PolicyArena>>,
}

impl ServiceSnapshot {
    pub(crate) fn new(labeler: LabelerSnapshot, arenas: Vec<Arc<PolicyArena>>) -> Self {
        ServiceSnapshot { labeler, arenas }
    }

    /// The frozen labeling stage: the registry at the snapshot's epoch
    /// vector plus the shared-cache handle.
    pub fn labeler(&self) -> &LabelerSnapshot {
        &self.labeler
    }

    /// The frozen security-view registry (the epoch vector answers which
    /// view universe this snapshot serves).
    pub fn security_views(&self) -> &SecurityViews {
        self.labeler.security_views()
    }

    /// The frozen epoch of one relation's view universe.
    pub fn epoch(&self, relation: RelId) -> u64 {
        self.security_views().epoch(relation)
    }

    /// The pinned compiled-policy arena of policy shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_policy_shards()`.
    pub fn arena(&self, shard: usize) -> &Arc<PolicyArena> {
        &self.arenas[shard]
    }

    /// Number of pinned policy-arena handles (one per policy shard).
    pub fn num_policy_shards(&self) -> usize {
        self.arenas.len()
    }

    /// True if `id` was issued by the service's interner — interned
    /// admissions validate against the shared interner, which only grows,
    /// so validity at the snapshot is validity at the stream position.
    pub fn contains(&self, id: QueryId) -> bool {
        self.labeler.contains(id)
    }

    /// The private overlay lane a pool worker should write through — lane
    /// 0 (the coordinator's) for inline execution, a per-worker lane on
    /// multi-lane snapshots (see
    /// [`LabelerSnapshot::lane_for`]).
    pub fn lane_for(&self, ctx: &WorkerContext<'_>) -> usize {
        self.labeler.lane_for(ctx)
    }
}

//! The batch fan-out's old surface, kept only so that the frozen end-to-end
//! benchmark (`examples/svc_bench`) compiles.  Nothing else may call it
//! (`tests/compat_surface.rs`).  Delete with ROADMAP item 1.

use fdc_core::LabelerSnapshot;

use crate::DisclosureService;

/// The worker-plane counters [`ServiceStats::parallel`](crate::ServiceStats)
/// once held: every one is 0, since every request is served on the calling
/// thread.  Read by `svc_bench`'s `measure.rs` (the `core.pool.*` and
/// `service.segments_labeled` / `service.snapshots_reclaimed` rungs).
/// Delete with ROADMAP item 1.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParallelStats {
    /// Always 0.  Delete with ROADMAP item 1.
    pub segments_labeled: u64,
    /// Always empty.  Delete with ROADMAP item 1.
    pub tasks_per_worker: Vec<u64>,
    /// Always 0.  Delete with ROADMAP item 1.
    pub tasks_inline: u64,
    /// Always 0.  Delete with ROADMAP item 1.
    pub steals: u64,
    /// Always 0.  Delete with ROADMAP item 1.
    pub queue_full_stalls: u64,
    /// Always 0.  Delete with ROADMAP item 1.
    pub queue_empty_stalls: u64,
    /// Always 0.  Delete with ROADMAP item 1.
    pub snapshots_reclaimed: u64,
}

impl DisclosureService {
    /// A handle onto the service's labeler that labels through its live
    /// tables.  Timed by `svc_bench`'s `run.rs` (the
    /// `service.snapshot.build_ns` rung).  Delete with ROADMAP item 1.
    pub fn snapshot(&self) -> LabelerSnapshot<'_> {
        self.labeler.snapshot_with_lanes(1)
    }
}

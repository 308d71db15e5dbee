//! The labeling fan-out's old surface, kept only so that the frozen
//! end-to-end benchmark (`examples/svc_bench`) compiles; every request is
//! labeled inline.  Nothing else may call it (`tests/compat_surface.rs`).
//! Delete with ROADMAP item 1.

use fdc_cq::intern::QueryId;

use crate::{CachedLabeler, PackedLabel};

/// An executor of one worker, the calling thread, for `svc_bench`'s
/// `ladder.rs` (`new`, `workers`, `run`).  Delete with ROADMAP item 1.
pub struct WorkerPool;

impl WorkerPool {
    /// An inline executor whatever `workers` is; delete with ROADMAP item 1.
    pub fn new(_workers: usize) -> WorkerPool {
        WorkerPool
    }

    /// Always 1: the calling thread.  Delete with ROADMAP item 1.
    pub fn workers(&self) -> usize {
        1
    }

    /// Maps `f` over `inputs` on the calling thread, in order.  Delete with
    /// ROADMAP item 1.
    pub fn run<I, R>(&self, inputs: Vec<I>, f: impl Fn(I, &WorkerContext) -> R) -> Vec<R> {
        inputs
            .into_iter()
            .map(|input| f(input, &WorkerContext))
            .collect()
    }
}

/// The context [`WorkerPool::run`] hands its task, taken by
/// `svc_bench`'s `ladder.rs` to [`LabelerSnapshot::lane_for`].  Delete with
/// ROADMAP item 1.
pub struct WorkerContext;

/// A handle that labels through the labeler's **live** tables; it holds no
/// copy of anything.  Taken in `svc_bench`'s `ladder.rs` and `measure.rs`
/// (the `core.snapshot.*` rungs).  Delete with ROADMAP item 1.
pub struct LabelerSnapshot<'a>(&'a CachedLabeler);

impl LabelerSnapshot<'_> {
    /// Always lane 0.  Called by `svc_bench`'s `ladder.rs`.  Delete with
    /// ROADMAP item 1.
    pub fn lane_for(&self, _ctx: &WorkerContext) -> usize {
        0
    }

    /// [`CachedLabeler::label_packed_interned`]; the lane is ignored.
    /// Called by `svc_bench`'s `ladder.rs`.  Delete with ROADMAP item 1.
    pub fn label_packed_interned_in(&self, _lane: usize, id: QueryId) -> Vec<PackedLabel> {
        self.0.label_packed_interned(id)
    }
}

/// Nothing to release; `svc_bench`'s `run.rs` drops the handle by hand,
/// which clippy refuses without drop glue.  Delete with ROADMAP item 1.
impl Drop for LabelerSnapshot<'_> {
    fn drop(&mut self) {}
}

impl CachedLabeler {
    /// A handle onto this labeler (`lanes` is ignored), for `svc_bench`'s
    /// `ladder.rs` and `measure.rs`.  Delete with ROADMAP item 1.
    pub fn snapshot_with_lanes(&self, _lanes: usize) -> LabelerSnapshot<'_> {
        LabelerSnapshot(self)
    }

    /// Does nothing: a handle holds nothing to hand back.  Called by
    /// `svc_bench`'s `ladder.rs` and `measure.rs`.  Delete with ROADMAP
    /// item 1.
    pub fn retire_snapshot(&self, _snapshot: &LabelerSnapshot<'_>) {}
}

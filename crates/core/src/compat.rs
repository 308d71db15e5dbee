//! The labeling fan-out's old surface, kept only so that the frozen
//! end-to-end benchmark (`examples/svc_bench`) compiles; every request is
//! labeled inline.  Nothing else may call it (`tests/compat_surface.rs`).
//! Every item here goes with ROADMAP item 1.

use std::cell::{RefCell, RefMut};
use std::marker::PhantomData;
use std::sync::{LockResult, Mutex};

use fdc_cq::intern::{QueryId, QueryInterner};

use crate::{CachedLabeler, PackedLabel};

/// An executor of one worker, the calling thread (`ladder.rs`).
pub struct WorkerPool;

impl WorkerPool {
    /// An inline executor whatever `workers` is.
    pub fn new(_workers: usize) -> WorkerPool {
        WorkerPool
    }

    /// Always 1: the calling thread.
    pub fn workers(&self) -> usize {
        1
    }

    /// Maps `f` over `inputs` on the calling thread, in order.
    pub fn run<I, R>(&self, inputs: Vec<I>, f: impl Fn(I, &WorkerContext) -> R) -> Vec<R> {
        inputs
            .into_iter()
            .map(|input| f(input, &WorkerContext))
            .collect()
    }
}

/// The context [`WorkerPool::run`] hands its task.
pub struct WorkerContext;

/// A copy of the labeler, locked so that `ladder.rs` may share it in an
/// `Arc`; only trace runs build one (`measure.rs`, `run.rs`).
pub struct LabelerSnapshot<'a>(Mutex<CachedLabeler>, PhantomData<&'a ()>);

impl LabelerSnapshot<'_> {
    /// Always lane 0.
    pub fn lane_for(&self, _ctx: &WorkerContext) -> usize {
        0
    }

    /// [`CachedLabeler::label_packed_interned`]; the lane is ignored.
    pub fn label_packed_interned_in(&self, _lane: usize, id: QueryId) -> Vec<PackedLabel> {
        let labeler = self.0.lock().unwrap_or_else(|e| e.into_inner());
        labeler.label_packed_interned(id)
    }
}

/// The labeler's interner as the old lock handle (`ladder.rs`).  It has no
/// `Drop`: `label_phases` registers a view after its last use.
pub struct InternerHandle<'a>(&'a RefCell<QueryInterner>);

impl<'a> InternerHandle<'a> {
    /// The interner, borrowed mutably; always `Ok`.
    pub fn write(&self) -> LockResult<RefMut<'a, QueryInterner>> {
        Ok(self.0.borrow_mut())
    }
}

impl CachedLabeler {
    /// A copy of this labeler (`lanes` is ignored).
    pub fn snapshot_with_lanes(&self, _lanes: usize) -> LabelerSnapshot<'_> {
        LabelerSnapshot(Mutex::new(self.clone()), PhantomData)
    }

    /// Does nothing: the copy is freed when it is dropped.
    pub fn retire_snapshot(&self, _snapshot: &LabelerSnapshot<'_>) {}

    /// The interner's lock-shaped handle.
    pub fn interner(&self) -> InternerHandle<'_> {
        InternerHandle(&self.interner)
    }
}

//! The persistent thread-per-core worker runtime.
//!
//! Forking scoped worker threads per batch costs tens of microseconds per
//! thread — more than labeling an entire warm segment — so every parallel
//! path of the system (the service's admission labeling, the policy
//! store's per-shard decisions, the pipelined executor's segment labelers)
//! runs on a [`WorkerPool`] of **persistent workers** instead.  Whoever
//! needs one builds it and passes it down; there is no process-wide pool.
//!
//! * one long-lived worker thread per requested core, each owning a bounded
//!   task queue (`fdc-worker-{i}`);
//! * callers hand a batch over as queue pushes ([`WorkerPool::submit`] /
//!   [`WorkerPool::run`]) — single-producer, single-consumer in the common
//!   case, with **work-stealing** from the tail of sibling queues when a
//!   skewed batch leaves a worker idle;
//! * panics inside tasks are contained per task (`catch_unwind`) and
//!   re-raised on the caller's [`PendingBatch::wait`], so a poisoned task
//!   can never deadlock the pool or leak a worker;
//! * dropping the pool drains the queues, parks no new work and joins every
//!   worker thread.
//!
//! A batch's tasks are done once [`PendingBatch::wait`] returns, so a
//! caller that hands them shared state (a labeling snapshot) may reclaim it
//! right after the wait: the pool keeps no reader registry of its own.
//!
//! Everything here is safe Rust (`fdc-core` forbids `unsafe`): queues are
//! `Mutex<VecDeque>`s, parking is a `Condvar` guarded by a generation
//! counter (no lost wakeups), and task inputs are owned (`Send + 'static`),
//! which is exactly what lets the workers outlive any single batch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Bound of each worker's task queue.  A full queue spills the push to the
/// next worker (counted as a full-queue stall); if every queue is at
/// capacity the submitting thread runs the task itself — natural
/// backpressure instead of unbounded buffering.
pub const WORKER_QUEUE_CAPACITY: usize = 256;

/// A queued unit of work.  Boxed `FnOnce` receiving the executing worker's
/// context (its lane).
type Task = Box<dyn FnOnce(&WorkerContext) + Send + 'static>;

/// Parking state: a generation counter bumped on every push (so a worker
/// that scanned empty queues can detect a racing push before sleeping) and
/// the shutdown flag.
struct Idle {
    seq: u64,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    idle: Mutex<Idle>,
    work_ready: Condvar,
    /// Round-robin cursor distributing pushes across the queues.
    next_queue: AtomicUsize,
    tasks_run: Vec<AtomicU64>,
    tasks_inline: AtomicU64,
    steals: AtomicU64,
    queue_full_stalls: AtomicU64,
    queue_empty_stalls: AtomicU64,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Tasks run under `catch_unwind`, so poisoning is unreachable on the
    // task path; recover defensively everywhere else too.
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A persistent pool of thread-per-core workers with bounded queues and
/// work-stealing.  See the [module docs](self) for the architecture.
///
/// A pool built with `workers <= 1` spawns no threads at all: every batch
/// runs inline on the submitting thread, so single-core hosts pay neither
/// thread churn nor hand-off cost.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

/// Counters of a [`WorkerPool`], snapshotted by [`WorkerPool::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Parallel width of the pool (`1` for an inline-only pool).
    pub workers: usize,
    /// Tasks executed by each worker thread, in worker order.  Empty for
    /// an inline-only pool.
    pub tasks_per_worker: Vec<u64>,
    /// Tasks the submitting thread ran itself (inline-only pools, and
    /// backpressure when every queue was at capacity).
    pub tasks_inline: u64,
    /// Tasks a worker stole from a sibling's queue tail.
    pub steals: u64,
    /// Pushes that found a worker's queue at capacity and spilled over.
    pub queue_full_stalls: u64,
    /// Times a worker found every queue empty and parked.
    pub queue_empty_stalls: u64,
}

/// The executing worker's view of the pool, passed to every task: worker
/// tasks learn [which worker lane](Self::worker_index) they run on.
pub struct WorkerContext {
    index: Option<usize>,
}

impl WorkerContext {
    /// The index of the pool worker executing this task, or `None` when the
    /// task runs inline on the submitting thread (inline-only pools,
    /// single-task batches and full-queue backpressure).  Snapshot readers
    /// use it to select a private per-worker overlay lane.
    pub fn worker_index(&self) -> Option<usize> {
        self.index
    }
}

/// Per-batch completion state shared between the submitter and the tasks.
struct BatchResults<R> {
    slots: Vec<Option<R>>,
    remaining: usize,
    panicked: bool,
}

struct BatchShared<R> {
    results: Mutex<BatchResults<R>>,
    done: Condvar,
}

impl<R> BatchShared<R> {
    fn complete(&self, index: usize, result: std::thread::Result<R>) {
        let mut guard = lock(&self.results);
        match result {
            Ok(value) => guard.slots[index] = Some(value),
            Err(_) => guard.panicked = true,
        }
        guard.remaining -= 1;
        if guard.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A batch in flight on a [`WorkerPool`]: the asynchronous half of
/// [`WorkerPool::submit`].  [`wait`](Self::wait) blocks until every task
/// has completed and returns the results in input order.
#[must_use = "a pending batch does nothing until waited on"]
pub struct PendingBatch<R> {
    shared: Arc<BatchShared<R>>,
}

impl<R> PendingBatch<R> {
    /// Blocks until every task of the batch has completed and returns the
    /// results in input order.
    ///
    /// # Panics
    ///
    /// Re-raises a panic if any task of the batch panicked (the remaining
    /// tasks still ran to completion — a panicking task can never wedge
    /// the pool).
    pub fn wait(self) -> Vec<R> {
        let mut guard = lock(&self.shared.results);
        while guard.remaining > 0 {
            guard = self
                .shared
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
        if guard.panicked {
            panic!("worker pool task panicked");
        }
        std::mem::take(&mut guard.slots)
            .into_iter()
            .map(|slot| slot.expect("completed task left a result"))
            .collect()
    }
}

impl WorkerPool {
    /// Builds a pool of `workers` persistent worker threads (`workers <= 1`
    /// builds an inline-only pool with no threads at all).
    pub fn new(workers: usize) -> WorkerPool {
        let spawned = if workers <= 1 { 0 } else { workers };
        let shared = Arc::new(Shared {
            queues: (0..spawned).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(Idle {
                seq: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            next_queue: AtomicUsize::new(0),
            tasks_run: (0..spawned).map(|_| AtomicU64::new(0)).collect(),
            tasks_inline: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            queue_full_stalls: AtomicU64::new(0),
            queue_empty_stalls: AtomicU64::new(0),
        });
        let handles = (0..spawned)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fdc-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Parallel width of the pool: its worker-thread count, or 1 for an
    /// inline-only pool.
    pub fn workers(&self) -> usize {
        self.handles.len().max(1)
    }

    /// Snapshots the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers(),
            tasks_per_worker: self
                .shared
                .tasks_run
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            tasks_inline: self.shared.tasks_inline.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            queue_full_stalls: self.shared.queue_full_stalls.load(Ordering::Relaxed),
            queue_empty_stalls: self.shared.queue_empty_stalls.load(Ordering::Relaxed),
        }
    }

    /// Submits one task per input and returns a [`PendingBatch`] that
    /// yields the results in input order.  `f` is shared across the tasks;
    /// each task receives one owned input plus the executing worker's
    /// [`WorkerContext`].
    ///
    /// Inline-only pools (and single-input batches, where hand-off cannot
    /// win) run everything on the calling thread before returning.
    pub fn submit<I, R, F>(&self, inputs: Vec<I>, f: F) -> PendingBatch<R>
    where
        I: Send + 'static,
        R: Send + 'static,
        F: Fn(I, &WorkerContext) -> R + Send + Sync + 'static,
    {
        let total = inputs.len();
        let shared = Arc::new(BatchShared {
            results: Mutex::new(BatchResults {
                slots: (0..total).map(|_| None).collect(),
                remaining: total,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        if self.handles.is_empty() || total <= 1 {
            let ctx = WorkerContext { index: None };
            for (index, input) in inputs.into_iter().enumerate() {
                self.shared.tasks_inline.fetch_add(1, Ordering::Relaxed);
                shared.complete(index, catch_unwind(AssertUnwindSafe(|| f(input, &ctx))));
            }
            return PendingBatch { shared };
        }
        let f = Arc::new(f);
        for (index, input) in inputs.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let batch = Arc::clone(&shared);
            self.push(Box::new(move |ctx| {
                batch.complete(index, catch_unwind(AssertUnwindSafe(|| f(input, ctx))));
            }));
        }
        PendingBatch { shared }
    }

    /// [`submit`](Self::submit) + [`wait`](PendingBatch::wait): runs the
    /// batch to completion and returns the results in input order.
    pub fn run<I, R, F>(&self, inputs: Vec<I>, f: F) -> Vec<R>
    where
        I: Send + 'static,
        R: Send + 'static,
        F: Fn(I, &WorkerContext) -> R + Send + Sync + 'static,
    {
        self.submit(inputs, f).wait()
    }

    /// Enqueues one task: round-robin over the worker queues, spilling past
    /// full ones, running inline as backpressure when every queue is at
    /// capacity.
    fn push(&self, task: Task) {
        let queues = &self.shared.queues;
        let start = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % queues.len();
        let mut task = Some(task);
        for offset in 0..queues.len() {
            let queue = &queues[(start + offset) % queues.len()];
            let mut guard = lock(queue);
            if guard.len() < WORKER_QUEUE_CAPACITY {
                guard.push_back(task.take().expect("task pushed at most once"));
                drop(guard);
                self.signal();
                return;
            }
            drop(guard);
            self.shared
                .queue_full_stalls
                .fetch_add(1, Ordering::Relaxed);
        }
        // Every queue is at capacity: the submitter absorbs the overflow.
        self.shared.tasks_inline.fetch_add(1, Ordering::Relaxed);
        let ctx = WorkerContext { index: None };
        (task.take().expect("task pushed at most once"))(&ctx);
    }

    /// Bumps the work generation and wakes parked workers.  The bump is
    /// ordered after the queue push (both behind locks), so a worker that
    /// read the generation before scanning can never sleep through it.
    fn signal(&self) {
        {
            let mut idle = lock(&self.shared.idle);
            idle.seq = idle.seq.wrapping_add(1);
        }
        self.shared.work_ready.notify_all();
    }
}

impl Drop for WorkerPool {
    /// Shuts the pool down: workers drain every queued task, then exit;
    /// all worker threads are joined before `drop` returns.
    fn drop(&mut self) {
        {
            let mut idle = lock(&self.shared.idle);
            idle.shutdown = true;
            idle.seq = idle.seq.wrapping_add(1);
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker thread can only terminate by returning (tasks run
            // under catch_unwind), so join errors are unreachable; ignore
            // them rather than double-panicking in drop.
            let _ = handle.join();
        }
    }
}

/// Dequeues work for worker `me`: its own queue front first (FIFO), then a
/// steal from the tail of the nearest non-empty sibling.
fn find_task(shared: &Shared, me: usize) -> Option<(Task, bool)> {
    if let Some(task) = lock(&shared.queues[me]).pop_front() {
        return Some((task, false));
    }
    let n = shared.queues.len();
    for offset in 1..n {
        if let Some(task) = lock(&shared.queues[(me + offset) % n]).pop_back() {
            return Some((task, true));
        }
    }
    None
}

fn worker_loop(shared: &Shared, me: usize) {
    let ctx = WorkerContext { index: Some(me) };
    loop {
        // Read the work generation *before* scanning: a push that lands
        // after the scan bumps the generation, which the park below
        // re-checks under the same lock — no lost wakeups.
        let seen = lock(&shared.idle).seq;
        if let Some((task, stolen)) = find_task(shared, me) {
            if stolen {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            shared.tasks_run[me].fetch_add(1, Ordering::Relaxed);
            task(&ctx);
            continue;
        }
        let idle = lock(&shared.idle);
        if idle.shutdown {
            drop(idle);
            // Drain anything pushed between the scan and the flag; only
            // then is the queue state final (no submitter can race a
            // `Drop` in progress — it holds the pool exclusively).
            while let Some((task, _)) = find_task(shared, me) {
                shared.tasks_run[me].fetch_add(1, Ordering::Relaxed);
                task(&ctx);
            }
            return;
        }
        if idle.seq == seen {
            shared.queue_empty_stalls.fetch_add(1, Ordering::Relaxed);
            let _unused = shared
                .work_ready
                .wait(idle)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = WorkerPool::new(4);
        let inputs: Vec<usize> = (0..500).collect();
        let doubled = pool.run(inputs, |i, _ctx| i * 2);
        assert_eq!(doubled, (0..500).map(|i| i * 2).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        let executed: u64 = stats.tasks_per_worker.iter().sum::<u64>() + stats.tasks_inline;
        assert_eq!(executed, 500);
    }

    #[test]
    fn inline_pools_spawn_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let caller = std::thread::current().id();
        let seen = pool.run(vec![(); 10], move |(), _ctx| std::thread::current().id());
        assert!(seen.iter().all(|id| *id == caller));
        assert_eq!(pool.stats().tasks_inline, 10);
        assert!(pool.stats().tasks_per_worker.is_empty());
    }

    #[test]
    fn single_task_batches_run_inline() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let seen = pool.run(vec![()], move |(), _ctx| std::thread::current().id());
        assert_eq!(seen, vec![caller]);
    }

    #[test]
    fn empty_batches_complete_immediately() {
        let pool = WorkerPool::new(2);
        let none: Vec<u32> = Vec::new();
        assert!(pool.run(none, |i, _ctx| i).is_empty());
    }

    #[test]
    fn panicking_tasks_propagate_without_wedging_the_pool() {
        let pool = WorkerPool::new(2);
        let survived = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&survived);
        let batch = pool.submit((0..64).collect::<Vec<usize>>(), move |i, _ctx| {
            if i == 17 {
                panic!("injected task failure");
            }
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| batch.wait()));
        assert!(outcome.is_err(), "the task panic reaches the waiter");
        // Every non-panicking task still completed, and the pool still
        // serves new batches afterwards.
        assert_eq!(survived.load(Ordering::Relaxed), 63);
        assert_eq!(pool.run(vec![20, 22], |i, _ctx| i + 1), vec![21, 23]);
    }

    #[test]
    fn drop_joins_workers_after_draining_queued_tasks() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pending = {
            let pool = WorkerPool::new(3);
            let counter = Arc::clone(&ran);
            let batch = pool.submit((0..200).collect::<Vec<usize>>(), move |_, _ctx| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            drop(pool); // shutdown drains the queues before joining
            batch
        };
        pending.wait();
        assert_eq!(ran.load(Ordering::Relaxed), 200);
    }
}

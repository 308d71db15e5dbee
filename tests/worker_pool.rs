//! Lifecycle tests for the persistent worker pool.
//!
//! * **Shutdown/drop** — dropping a pool joins every worker after
//!   draining its queues; a pool outlives none of its threads.
//! * **Panic containment** — a panicking task fails only its own batch
//!   (the waiter observes the panic), the pool keeps serving later
//!   batches, and still drops cleanly.
//!
//! What the pool computes for the service — skewed bursts, stolen chunks,
//! snapshots reclaimed by epoch — is judged against the specification in
//! the `workers: 4` rows of the executor matrix (`pipelined_equivalence`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fdc::core::WorkerPool;

#[test]
fn dropping_a_pool_joins_workers_after_draining() {
    let ran = Arc::new(AtomicU64::new(0));
    let pool = WorkerPool::new(4);
    let counter = Arc::clone(&ran);
    let results = pool.run((0..64u64).collect(), move |i, _ctx| {
        counter.fetch_add(1, Ordering::Relaxed);
        i * 2
    });
    assert_eq!(results, (0..64u64).map(|i| i * 2).collect::<Vec<_>>());
    assert_eq!(ran.load(Ordering::Relaxed), 64);
    // Queue one more batch and drop the pool before waiting on it: the
    // drop drains the queues (every task still runs) and joins all
    // workers — if a worker leaked or deadlocked, drop would hang and
    // the harness would time this test out.
    let counter = Arc::clone(&ran);
    let pending = pool.submit((0..32u64).collect(), move |i, _ctx| {
        counter.fetch_add(1, Ordering::Relaxed);
        i
    });
    drop(pool);
    assert_eq!(pending.wait(), (0..32u64).collect::<Vec<_>>());
    assert_eq!(ran.load(Ordering::Relaxed), 96);
}

#[test]
fn panicking_task_fails_its_batch_but_not_the_pool() {
    let pool = WorkerPool::new(4);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run((0..16u32).collect(), |i, _ctx| {
            assert!(i != 9, "injected task failure");
            i
        })
    }));
    assert!(outcome.is_err(), "the waiter observes the task panic");
    // The pool is not wedged: a later batch completes normally, and the
    // pool still shuts down cleanly on drop.
    let results = pool.run((0..16u32).collect(), |i, _ctx| i + 1);
    assert_eq!(results, (1..=16u32).collect::<Vec<_>>());
    drop(pool);
}

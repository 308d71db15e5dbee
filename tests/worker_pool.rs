//! Stress and lifecycle tests for the persistent worker pool.
//!
//! * **Seeded interleaving stress** — deterministic pseudo-random mixed
//!   streams with heavily *skewed* segments (long bursts for one
//!   principal, wide plain queries mixed into cheap interned ones) are
//!   served by the pooled pipelined executor (`workers: 4`, so chunk
//!   stealing and epoch-based snapshot reclamation run on any host) and
//!   must be extensionally equal to strictly sequential `apply`
//!   processing: every response, the totals, and every principal's
//!   consistency word.
//! * **Shutdown/drop** — dropping a pool joins every worker after
//!   draining its queues; a pool outlives none of its threads.
//! * **Panic containment** — a panicking task fails only its own batch
//!   (the waiter observes the panic), the pool keeps serving later
//!   batches, and still drops cleanly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fdc::core::{SecurityViews, WorkerPool};
use fdc::cq::parser::parse_query;
use fdc::policy::{PolicyPartition, PrincipalId, SecurityPolicy};
use fdc::service::{DisclosureService, Operation, Response, ServiceConfig};

const NUM_PRINCIPALS: usize = 6;

/// Query shapes of mixed labeling cost: single-atom shapes are cache-warm
/// after one derivation, the join shape re-derives more per miss — the
/// cost skew that makes work-stealing observable.
const SHAPES: [&str; 5] = [
    "Q(x) :- Meetings(x, y)",
    "Q(x, y) :- Meetings(x, y)",
    "Q(x, y, z) :- Contacts(x, y, z)",
    "Q(z) :- Contacts(x, y, z)",
    "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
];

/// A tiny deterministic generator (splitmix64) so every run of the stress
/// test sees the same interleavings per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn build_service(registry: &SecurityViews, num_shards: usize, workers: usize) -> DisclosureService {
    let mut service = DisclosureService::new(
        registry.clone(),
        ServiceConfig {
            num_shards,
            workers,
            ..ServiceConfig::default()
        },
    );
    let v1 = registry.id_by_name("V1").unwrap();
    let v2 = registry.id_by_name("V2").unwrap();
    let v3 = registry.id_by_name("V3").unwrap();
    for i in 0..NUM_PRINCIPALS {
        let policy = if i % 2 == 0 {
            SecurityPolicy::chinese_wall([
                PolicyPartition::from_views("meetings", registry, [v1, v2]),
                PolicyPartition::from_views("contacts", registry, [v3]),
            ])
        } else {
            SecurityPolicy::stateless(PolicyPartition::from_views("times", registry, [v2]))
        };
        service.register_principal(policy);
    }
    service
}

/// Generates one seeded mixed stream: mostly admissions in *bursts* (a
/// burst pins one principal and often one query shape, skewing both the
/// decision shards and the labeling chunks), with occasional grants,
/// revokes and `AddSecurityView` boundaries splitting the segments.
fn seeded_stream(catalog: &fdc::cq::Catalog, seed: u64, len: usize) -> Vec<Operation> {
    let mut rng = Rng(seed);
    let mut ops = Vec::with_capacity(len);
    let mut added = 0usize;
    while ops.len() < len {
        match rng.below(10) {
            0 => {
                let principal = PrincipalId(rng.below(NUM_PRINCIPALS) as u32);
                let grant = rng.below(2) == 0;
                let view = ["V1", "V2", "V3"][rng.below(3)].to_owned();
                ops.push(if grant {
                    Operation::GrantView { principal, view }
                } else {
                    Operation::RevokeView { principal, view }
                });
            }
            1 if added < 4 => {
                // A segment boundary: the next segment labels through a
                // fresh snapshot while this one's retires by epoch.
                ops.push(Operation::AddSecurityView {
                    name: format!("S{added}"),
                    query: parse_query(catalog, "S(x) :- Meetings(x, y)").unwrap(),
                });
                added += 1;
            }
            _ => {
                // An admission burst: one principal, a narrow shape pool.
                let principal = PrincipalId(rng.below(NUM_PRINCIPALS) as u32);
                let shape = rng.below(SHAPES.len());
                let burst = 1 + rng.below(24);
                for _ in 0..burst {
                    if ops.len() >= len {
                        break;
                    }
                    let text = SHAPES[if rng.below(4) == 0 {
                        rng.below(SHAPES.len())
                    } else {
                        shape
                    }];
                    let query = parse_query(catalog, text).unwrap();
                    ops.push(if rng.below(5) == 0 {
                        Operation::Check { principal, query }
                    } else {
                        Operation::Submit { principal, query }
                    });
                }
            }
        }
    }
    ops.truncate(len);
    ops
}

#[test]
fn seeded_interleavings_match_sequential_apply() {
    let registry = SecurityViews::paper_example();
    let catalog = registry.catalog().clone();
    for seed in [1, 7, 42, 1337, 0xDEAD_BEEF] {
        let ops = seeded_stream(&catalog, seed, 320);
        let mut pooled = build_service(&registry, 4, 4);
        let pooled_responses = pooled.run_pipelined(&ops);
        let mut sequential = build_service(&registry, 1, 1);
        let sequential_responses: Vec<Response> =
            ops.iter().map(|op| sequential.apply(op)).collect();
        assert_eq!(pooled_responses, sequential_responses, "seed {seed}");
        assert_eq!(pooled.totals(), sequential.totals(), "seed {seed}");
        assert_eq!(pooled.stats(), sequential.stats(), "seed {seed}");
        for i in 0..NUM_PRINCIPALS {
            let p = PrincipalId(i as u32);
            assert_eq!(
                pooled.store().consistency_bits(p),
                sequential.store().consistency_bits(p),
                "seed {seed}"
            );
            assert_eq!(
                pooled.store().stats(p),
                sequential.store().stats(p),
                "seed {seed}"
            );
        }
        // The pooled run actually exercised the epoch plane: every
        // labeled segment's snapshot was reclaimed by end of run.
        let parallel = pooled.stats().parallel;
        assert!(parallel.segments_labeled > 0, "seed {seed}");
        assert_eq!(
            parallel.snapshots_reclaimed, parallel.segments_labeled,
            "seed {seed}"
        );
        assert_eq!(parallel.workers, 4, "seed {seed}");
    }
}

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

//! Property test: every executor answers the specification.
//!
//! Generated streams of the paper world — plain and **interned** admissions
//! (submits and checks, alpha-renamed resubmissions, skewed bursts),
//! `GrantView` / `RevokeView` / `AddSecurityView` mutations, audits, and
//! deliberately invalid operations (ghost principals, never-minted query
//! ids, unknown, not-yet-registered, duplicate and over-budget views) — are
//! applied to [`ReferenceService`](fdc::service::ReferenceService), the
//! paper's three steps over the boxed reference algorithms, and served by
//! every row of the executor matrix (`support/harness.rs`): `apply`; the
//! typed methods; `run_pipelined`; durable `apply` and
//! `run_pipelined`, reopened from a checkpoint and from the log alone.
//! Every row must give the model's responses and end in the model's
//! state — totals, each principal's policy, consistency word, counters,
//! audit and probe decisions, the registry's views and epochs, the label of
//! every pool query.
//!
//! The one thing the model cannot state is pinned between the in-memory
//! rows: the typed methods and `run_pipelined` leave the cumulative
//! `CacheStats` equal to `apply`'s, every column.

#[path = "support/harness.rs"]
mod harness;

use std::collections::BTreeSet;

use harness::{refusal, run_matrix, steps, Step, World, REFUSALS, STEP_CHOICES, STEP_KINDS};
use proptest::prelude::*;

const NUM_PRINCIPALS: usize = 4;

/// What the matrix property draws its streams from.
fn step_strategy() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u8..STEP_KINDS, 0usize..STEP_CHOICES, 0usize..STEP_CHOICES);
    proptest::collection::vec(step, 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_executor_answers_the_model(steps in step_strategy()) {
        let world = World::paper(NUM_PRINCIPALS);
        run_matrix("matrix", &world, &world.stream(&steps));
    }
}

/// The generator regression net: both sources of steps — the strategy above
/// and the seeded [`steps`] of the longer suites — still reach every refusal
/// the service can answer a stream operation with.
#[test]
fn generated_streams_reach_every_refusal() {
    let world = World::paper(NUM_PRINCIPALS);
    let strategy = step_strategy();
    let mut rng = proptest::test_runner::TestRng::from_name("every_executor_answers_the_model");
    let drawn: Vec<Vec<Step>> = (0..256).map(|_| strategy.new_value(&mut rng)).collect();
    let seeded: Vec<Vec<Step>> = (0..6).map(|seed| steps(seed, 120)).collect();
    for (source, streams) in [("strategy", drawn), ("seeded", seeded)] {
        let mut reached = BTreeSet::new();
        for steps in streams {
            let mut model = world.model();
            for op in world.stream(&steps) {
                reached.extend(refusal(&model.apply(&op)));
            }
        }
        for kind in REFUSALS {
            assert!(
                reached.contains(kind),
                "{source} streams never reach a {kind}"
            );
        }
    }
}

//! Overlay-merge equivalence: a pooled multi-lane snapshot run, merged
//! back at retirement, must be indistinguishable from a sequential
//! shared-table run.
//!
//! The property quantifies over seeded ecosystem workloads, deduped to
//! distinct canonical queries (the form the service's admission path
//! actually pools — duplicates are fanned out from the first slot, never
//! re-labeled).  The pooled side labels through a
//! [`LabelerSnapshot`](fdc::core::LabelerSnapshot) with one private
//! overlay lane per worker on an explicit [`WorkerPool`]; the sequential
//! side labels the same queries straight through a fresh labeler's shared
//! striped tables.  Asserted exactly:
//!
//! * **labels** — every packed label equal, in input order;
//! * **accounting** — cumulative query-plane counters (hits, misses,
//!   entries, refreshes) equal; on the atom plane the *lookup count* is
//!   conserved (`atom_hits + atom_misses` equal — lanes can shift the
//!   split, because a lane never sees a sibling's concurrently derived
//!   atom, but never the amount of work probed) and the merged table is
//!   the sequential table (`atom_entries` equal: the retirement merge
//!   absorbs duplicate derivations);
//! * **merged tables serve** — after retirement a full relabel of the
//!   batch is pure query-cache hits on both sides.

use std::collections::HashSet;
use std::sync::Arc;

use fdc::core::{CachedLabeler, PackedLabel, WorkerPool};
use fdc::ecosystem::{Ecosystem, WorkloadConfig};
use proptest::prelude::*;

const WORKERS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_lane_runs_match_sequential_shared_table_runs(seed in 0u64..1_000_000) {
        let eco = Ecosystem::new();
        let mut workload = eco.workload(WorkloadConfig::stress(3, seed));
        let raw = workload.batch(160);
        let parallel = CachedLabeler::new(eco.views.clone());
        let mut seen = HashSet::new();
        let queries: Vec<_> = raw
            .into_iter()
            .filter(|q| seen.insert(parallel.intern(q)))
            .collect();

        // Pooled run: chunks fanned out on an explicit pool, each worker
        // writing cache work into its private overlay lane, all lanes
        // merged back into the shared tables at retirement.
        let pool = WorkerPool::new(WORKERS);
        let snapshot = Arc::new(parallel.snapshot_with_lanes(pool.workers() + 1));
        let chunk_len = queries.len().div_ceil(pool.workers() * 4).max(1);
        let chunks: Vec<Vec<_>> = queries.chunks(chunk_len).map(<[_]>::to_vec).collect();
        let shared = Arc::clone(&snapshot);
        let packed: Vec<Vec<PackedLabel>> = pool
            .run(chunks, move |chunk, ctx| {
                let lane = shared.lane_for(ctx);
                chunk
                    .iter()
                    .map(|q| shared.label_packed_in(lane, q))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        parallel.retire_snapshot(&snapshot);

        // Sequential reference: the same distinct queries, in order,
        // straight through a fresh labeler's shared tables.
        let sequential = CachedLabeler::new(eco.views.clone());
        let expected: Vec<Vec<PackedLabel>> =
            queries.iter().map(|q| sequential.label_packed(q)).collect();
        prop_assert_eq!(&packed, &expected);

        // Exact cumulative accounting (counters folded at retirement).
        let par = parallel.stats();
        let seq = sequential.stats();
        prop_assert_eq!(par.hits, seq.hits);
        prop_assert_eq!(par.misses, seq.misses);
        prop_assert_eq!(par.entries, seq.entries);
        prop_assert_eq!(par.query_refreshes, seq.query_refreshes);
        prop_assert_eq!(par.atom_refreshes, seq.atom_refreshes);
        prop_assert_eq!(
            par.atom_hits + par.atom_misses,
            seq.atom_hits + seq.atom_misses,
            "atom lookups are conserved across lane assignments"
        );
        prop_assert_eq!(
            par.atom_entries, seq.atom_entries,
            "the merge must absorb duplicate lane derivations"
        );

        // The merged tables serve: a full relabel of the batch is pure
        // query-cache hits on both sides, with identical labels.
        for q in &queries {
            prop_assert_eq!(parallel.label_packed(q), sequential.label_packed(q));
        }
        let par_warm = parallel.stats();
        let seq_warm = sequential.stats();
        prop_assert_eq!(par_warm.misses, par.misses, "post-merge relabel must not miss");
        prop_assert_eq!(par_warm.hits, par.hits + queries.len() as u64);
        prop_assert_eq!(seq_warm.misses, seq.misses);
        prop_assert_eq!(seq_warm.hits, seq.hits + queries.len() as u64);
    }
}

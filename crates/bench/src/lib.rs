//! Shared helpers for the benchmark harness.
//!
//! Each Criterion bench target in `benches/` regenerates one table or figure
//! of the paper's evaluation (Section 7); this library crate holds the
//! set-up code they share so that the per-bench files stay focused on the
//! measurement itself.
//!
//! | Bench target          | Regenerates                                   |
//! |------------------------|----------------------------------------------|
//! | `fig5_labeler`         | Figure 5 — disclosure labeler performance     |
//! | `fig6_policy`          | Figure 6 — policy checker performance         |
//! | `table2_casestudy`     | Table 2 — FQL vs Graph API review             |
//! | `ablation_label_repr`  | Section 6.1 ablation — packed vs set labels   |
//! | `ablation_dissect`     | Section 6.1 ablation — folding / dissect cost |
//!
//! The `fig5_json` / `fig6_json` binaries emit the same measurements as
//! machine-readable trajectories (`BENCH_fig5.json` / `BENCH_fig6.json`).
//! The `pairs` binary runs two `svc_bench` builds in alternating pairs and
//! judges them by [`paired`]'s statistic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use fdc_core::{DisclosureLabel, PackedLabel};
use fdc_ecosystem::policies::PolicyGeneratorConfig;
use fdc_ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc_policy::{PolicyStore, PrincipalId};
use fdc_service::{DisclosureService, Operation, Response, ServiceConfig};

pub mod paired;
pub mod seed_store;

pub use seed_store::SeedPolicyStore;

/// Number of queries per pre-generated benchmark batch.
///
/// The paper measures the time to analyze one million queries; Criterion
/// instead measures throughput on a smaller batch and reports
/// queries/second, from which the per-million figure follows directly.
pub const BATCH_SIZE: usize = 500;

/// Template-pool size used by the Figure 6 workloads: principals draw their
/// random policies from this many distinct presets (the realistic app
/// ecosystem regime; the interned store deduplicates them into the arena).
pub const FIG6_TEMPLATE_POOL: usize = 1_000;

/// A pre-generated labeling workload for one Figure 5 configuration.
pub struct LabelingWorkload {
    /// The assembled ecosystem (schema, views, labelers).
    pub ecosystem: Ecosystem,
    /// The generated queries.
    pub queries: Vec<fdc_cq::ConjunctiveQuery>,
    /// The same queries interned once through the cached labeler's
    /// interner, index-aligned with [`queries`](Self::queries) — the
    /// operand of the `interned` Figure 5 series (labeling by dense
    /// `QueryId`, no per-request canonical hashing).
    pub interned: Vec<fdc_cq::intern::QueryId>,
    /// Maximum number of atoms per query in this configuration.
    pub max_atoms: usize,
}

/// Builds the Figure 5 workload for a given maximum number of atoms per
/// query (3, 6, 9, 12 or 15 in the paper).
///
/// The batch is interned **once** through the ecosystem's cached labeler —
/// the setup cost an interned serving deployment pays per distinct shape,
/// not per request.
pub fn labeling_workload(max_atoms: usize, batch: usize) -> LabelingWorkload {
    let ecosystem = Ecosystem::new();
    let max_subqueries = (max_atoms / 3).max(1);
    let mut generator = ecosystem.workload(WorkloadConfig::stress(
        max_subqueries,
        0xF15 + max_atoms as u64,
    ));
    let queries = generator.batch(batch);
    let interned = queries.iter().map(|q| ecosystem.cached.intern(q)).collect();
    LabelingWorkload {
        ecosystem,
        queries,
        interned,
        max_atoms,
    }
}

/// A pre-generated policy-checking workload for one Figure 6 configuration.
pub struct PolicyWorkload {
    /// The multi-principal policy store (compiled + interned).
    pub store: PolicyStore,
    /// Pre-labeled queries, round-robined across principals.
    pub labels: Vec<DisclosureLabel>,
    /// The packed 64-bit form of [`labels`](Self::labels), index-aligned.
    pub packed: Vec<Vec<PackedLabel>>,
    /// Number of principals in the store.
    pub num_principals: usize,
    /// Time [`PolicyStore::register`] took per principal while the store
    /// was built (generation excluded), in nanoseconds.
    pub register_ns_per_principal: f64,
}

/// The policy-generator configuration of one Figure 6 grid point.
pub fn fig6_policy_config(
    max_partitions: usize,
    max_elements_per_partition: usize,
) -> PolicyGeneratorConfig {
    PolicyGeneratorConfig {
        max_partitions,
        max_elements_per_partition,
        template_pool: FIG6_TEMPLATE_POOL,
        seed: 0xF16,
    }
}

/// Builds the Figure 6 workload: `num_principals` random policies with the
/// given maximum partitions (1 or 5) and maximum elements per partition
/// (5–50), plus a batch of labeled queries to push through the checker.
///
/// Labels are produced by the caching labeler (the serving path), so
/// workload setup does not dominate smoke runs.
pub fn policy_workload(
    num_principals: usize,
    max_partitions: usize,
    max_elements_per_partition: usize,
    label_batch: usize,
) -> PolicyWorkload {
    let ecosystem = Ecosystem::new();
    let mut policies = ecosystem.policy_generator(fig6_policy_config(
        max_partitions,
        max_elements_per_partition,
    ));
    // Generated a chunk at a time, so that only registration is timed and
    // the pending policies stay few even at a million principals.
    const CHUNK: usize = 4096;
    let mut store = PolicyStore::new();
    let mut register = std::time::Duration::ZERO;
    let mut chunk = Vec::with_capacity(CHUNK);
    while store.len() < num_principals {
        let take = CHUNK.min(num_principals - store.len());
        chunk.extend((0..take).map(|_| policies.next_policy(&ecosystem.views)));
        let started = Instant::now();
        for policy in chunk.drain(..) {
            store.register(policy);
        }
        register += started.elapsed();
    }
    let mut generator = ecosystem.workload(WorkloadConfig::base(0xF16F));
    let labels = ecosystem.label_batch_cached(&generator.batch(label_batch));
    let packed = labels.iter().map(DisclosureLabel::pack).collect();
    PolicyWorkload {
        store,
        labels,
        packed,
        num_principals,
        register_ns_per_principal: register.as_nanos() as f64 / num_principals.max(1) as f64,
    }
}

/// Median nanoseconds per [`PolicyStore::grant_view`] and per
/// [`PolicyStore::revoke_view`] over a fixed seeded batch of `batch` of
/// each, alternating, on a copy of `store` — each on a random principal
/// and a random view of the ecosystem registry, timed call by call (the
/// timer's own cost included).
pub fn policy_mutation_ns(store: &PolicyStore, batch: usize) -> (f64, f64) {
    let registry = Ecosystem::new().views;
    let views: Vec<_> = registry.iter().map(|(id, _)| id).collect();
    let mut store = store.clone();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut grants, mut revokes) = (Vec::with_capacity(batch), Vec::with_capacity(batch));
    for _ in 0..batch {
        for (grant, times) in [(true, &mut grants), (false, &mut revokes)] {
            let roll = next();
            let principal = PrincipalId((roll % store.len().max(1) as u64) as u32);
            let view = views[(roll >> 32) as usize % views.len()];
            let started = Instant::now();
            if grant {
                store.grant_view(principal, &registry, view);
            } else {
                store.revoke_view(principal, &registry, view);
            }
            times.push(started.elapsed().as_nanos() as f64);
        }
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times.get(times.len() / 2).copied().unwrap_or(0.0)
    };
    (median(&mut grants), median(&mut revokes))
}

/// Builds the seed revision's uncompiled store over the same policies as
/// [`policy_workload`] — the baseline the fig6 trajectory is measured
/// against.  O(num_principals) `SecurityPolicy` clones: keep the principal
/// count moderate (the seed hid its 1M point behind `FDC_FIG6_FULL` for a
/// reason).
pub fn seed_policy_store(
    num_principals: usize,
    max_partitions: usize,
    max_elements_per_partition: usize,
) -> SeedPolicyStore {
    let ecosystem = Ecosystem::new();
    let mut policies = ecosystem.policy_generator(fig6_policy_config(
        max_partitions,
        max_elements_per_partition,
    ));
    let mut store = SeedPolicyStore::new();
    for _ in 0..num_principals {
        store.register(policies.next_policy(&ecosystem.views));
    }
    store
}

/// The policy-generator configuration of the Figure 7 churn experiment:
/// the paper's "fairly complex Chinese Wall" regime (up to 5 partitions,
/// up to 25 elements each) over the template pool.
pub fn fig7_policy_config() -> PolicyGeneratorConfig {
    fig6_policy_config(5, 25)
}

/// Builds the Figure 7 service under test: `num_principals` pooled random
/// policies behind a [`DisclosureService`].
///
/// Audit history is disabled (the churn stream contains no audits), so the
/// measured path is admissions + mutations only.
pub fn fig7_service(num_principals: usize) -> DisclosureService {
    let ecosystem = Ecosystem::new();
    ecosystem.disclosure_service(
        fig7_policy_config(),
        num_principals,
        ServiceConfig {
            history_cap: 0,
            ..ServiceConfig::default()
        },
    )
}

/// Figure 7's `flush_on_mutation` baseline — the conservative strategy of a
/// service without dependency tracking ("something about disclosure control
/// changed, recompute the world") — as a way of *driving* the service: `ops`
/// are served through `run_pipelined` up to and including each mutation,
/// and every mutation that applied is followed by a flush of the whole
/// label cache.  Entries are dropped but the labeler's counters accumulate
/// across flushes, so the re-warming cost stays visible in
/// `labeler().stats()`.  Returns the responses, in request order, and the
/// number of flushes.
pub fn run_flushing_on_mutation(
    service: &mut DisclosureService,
    ops: &[Operation],
) -> (Vec<Response>, u64) {
    let mut responses = Vec::with_capacity(ops.len());
    let mut flushes = 0;
    for run in ops.chunk_by(|before, _| !before.is_mutation()) {
        responses.extend(service.run_pipelined(run));
        let applied = responses.last().is_some_and(|r| !r.is_rejected());
        if run.last().is_some_and(Operation::is_mutation) && applied {
            service.flush_label_cache();
            flushes += 1;
        }
    }
    (responses, flushes)
}

/// Query-template-pool size of the Figure 7 churn workload: admissions
/// draw from this many distinct query shapes (the serving steady state,
/// mirroring [`FIG6_TEMPLATE_POOL`] on the policy side).
pub const FIG7_QUERY_POOL: usize = 2_000;

/// Generates the Figure 7 operation stream: `ops` mixed operations at the
/// given mutation:query ratio, preceded by `warmup` pure admissions that
/// seed the query pool and bring the label cache to steady state before
/// timing starts.
///
/// Both streams come from one deterministic generator, so the incremental
/// and flush-on-mutation services measure identical work.
pub fn fig7_streams(
    num_principals: usize,
    mutation_ratio: f64,
    warmup: usize,
    ops: usize,
) -> (Vec<Operation>, Vec<Operation>) {
    let ecosystem = Ecosystem::new();
    let mut churn = ecosystem.churn(ChurnConfig {
        mutation_ratio,
        add_view_share: 0.1,
        check_share: 0.0,
        query_pool: FIG7_QUERY_POOL,
        num_principals,
        seed: 0xF17_BBBB,
        // The stress workload (up to 2 uid-joined subqueries, ≤6 atoms):
        // folding/dissection dominate a cold labeling, which is exactly the
        // work the flush-on-mutation baseline keeps redoing.
        workload: WorkloadConfig::stress(2, 0xF17_0002),
    });
    (churn.admissions(warmup), churn.ops(ops))
}

/// The principal counts swept by the Figure 6 benchmark.
///
/// The paper sweeps 1K, 50K and 1M principals, and since the store interns
/// compiled policies (24 bytes per principal), the full 1M axis is the
/// default.  Set `FDC_FIG6_FULL=0` to shrink the largest point to 250K on
/// memory-constrained machines; `FDC_FIG6_FULL=1` remains accepted as the
/// (now default) full axis.
pub fn fig6_principal_counts() -> Vec<usize> {
    if std::env::var("FDC_FIG6_FULL").is_ok_and(|v| v == "0") {
        vec![1_000, 50_000, 250_000]
    } else {
        vec![1_000, 50_000, 1_000_000]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_policy::PrincipalId;

    #[test]
    fn labeling_workload_respects_the_atom_bound() {
        let w = labeling_workload(6, 100);
        assert_eq!(w.queries.len(), 100);
        assert_eq!(w.max_atoms, 6);
        assert!(w.queries.iter().all(|q| q.num_atoms() <= 6));
        // The interned ids are index-aligned with the boxed queries and
        // label identically through either representation.
        assert_eq!(w.interned.len(), w.queries.len());
        use fdc_core::QueryLabeler as _;
        for (query, &id) in w.queries.iter().zip(&w.interned).take(10) {
            assert_eq!(
                w.ecosystem.cached.label_interned(id),
                w.ecosystem.baseline.label_query(query)
            );
        }
        assert_eq!(
            w.ecosystem.cached.label_queries_interned(&w.interned),
            w.ecosystem.baseline.label_queries(&w.queries)
        );
    }

    #[test]
    fn policy_workload_builds_consistent_state() {
        let w = policy_workload(50, 5, 10, 20);
        assert_eq!(w.store.len(), 50);
        assert_eq!(w.labels.len(), 20);
        assert_eq!(w.packed.len(), 20);
        assert_eq!(w.num_principals, 50);
        for (label, packed) in w.labels.iter().zip(&w.packed) {
            assert_eq!(&label.pack(), packed);
        }
    }

    #[test]
    fn principal_counts_have_three_points() {
        assert_eq!(fig6_principal_counts().len(), 3);
    }

    #[test]
    fn fig7_helpers_build_consistent_state() {
        let (warmup, stream) = fig7_streams(50, 0.05, 20, 200);
        assert_eq!(warmup.len(), 20);
        assert_eq!(stream.len(), 200);
        assert!(warmup.iter().all(|op| op.is_admission()));
        assert!(stream.iter().any(|op| op.is_mutation()));
        let mut service = fig7_service(50);
        assert_eq!(service.num_principals(), 50);
        for response in service.run_pipelined(&warmup) {
            assert!(!response.is_rejected());
        }
        let responses = service.run_pipelined(&stream);
        assert!(responses.iter().all(|response| !response.is_rejected()));
        assert!(service.stats().mutations > 0);
        // Identical streams drive the flush baseline to identical decisions,
        // and it does flush: once per mutation, leaving the cache to re-warm.
        let mut flush = fig7_service(50);
        flush.run_pipelined(&warmup);
        let (flush_responses, flushes) = run_flushing_on_mutation(&mut flush, &stream);
        assert_eq!(flush_responses, responses);
        assert_eq!(flush.totals(), service.totals());
        assert_eq!(flushes, service.stats().mutations);
        assert!(flush.labeler().stats().misses > service.labeler().stats().misses);
    }

    #[test]
    fn seed_and_interned_stores_decide_identically() {
        let w = policy_workload(25, 5, 10, 60);
        let mut interned = w.store.clone();
        let mut seed = seed_policy_store(25, 5, 10);
        assert_eq!(seed.len(), 25);
        for (i, label) in w.labels.iter().enumerate() {
            let p = PrincipalId((i % 25) as u32);
            let expected = seed.submit(p, label);
            assert_eq!(interned.submit(p, label), expected, "label {i}");
        }
        assert_eq!(interned.totals(), seed.totals());
    }
}

//! A ready-made bundle of the evaluation substrate.
//!
//! [`Ecosystem`] packages the Facebook-like schema, its security views, and
//! the three labeler variants, so that examples, integration tests and the
//! benchmark harness can set the whole system up with one call.

use fdc_core::{
    BaselineLabeler, BitVectorLabeler, CachedLabeler, DisclosureLabel, HashPartitionedLabeler,
    QueryLabeler, SecurityViews,
};
use fdc_cq::ConjunctiveQuery;
use fdc_service::{DisclosureService, ServiceConfig};

use crate::churn::{ChurnConfig, ChurnGenerator};
use crate::policies::{PolicyGenerator, PolicyGeneratorConfig};
use crate::schema::{facebook_catalog, FacebookSchema};
use crate::views::facebook_security_views;
use crate::workload::{WorkloadConfig, WorkloadGenerator};

/// The fully assembled evaluation ecosystem.
#[derive(Debug, Clone)]
pub struct Ecosystem {
    /// The eight-relation schema.
    pub schema: FacebookSchema,
    /// The 37 security views (16 for `User`, 3 per other relation).
    pub views: SecurityViews,
    /// The baseline labeler (Figure 5's "baseline" curve).
    pub baseline: BaselineLabeler,
    /// The hash-partitioned labeler (Figure 5's "hashing only" curve).
    pub hashed: HashPartitionedLabeler,
    /// The bit-vector labeler (Figure 5's "bit vectors + hashing" curve).
    pub bitvec: BitVectorLabeler,
    /// The canonical-form caching labeler (beyond the paper's variants —
    /// the high-throughput serving path).
    pub cached: CachedLabeler,
}

impl Ecosystem {
    /// Builds the evaluation ecosystem.
    pub fn new() -> Self {
        let schema = facebook_catalog();
        let views = facebook_security_views(&schema);
        Ecosystem {
            baseline: BaselineLabeler::new(views.clone()),
            hashed: HashPartitionedLabeler::new(views.clone()),
            bitvec: BitVectorLabeler::new(views.clone()),
            cached: CachedLabeler::new(views.clone()),
            schema,
            views,
        }
    }

    /// A workload generator over this ecosystem's schema.
    pub fn workload(&self, config: WorkloadConfig) -> WorkloadGenerator {
        WorkloadGenerator::new(self.schema.clone(), config)
    }

    /// A policy generator over this ecosystem's security views.
    pub fn policy_generator(&self, config: PolicyGeneratorConfig) -> PolicyGenerator {
        PolicyGenerator::new(&self.views, config)
    }

    /// Labels a query with the production (bit-vector) labeler.
    pub fn label(&self, query: &ConjunctiveQuery) -> DisclosureLabel {
        self.bitvec.label_query(query)
    }

    /// Labels a batch of queries with the production labeler, returning one
    /// label per query (the raw material of the Figure 6 experiment).
    pub fn label_batch(&self, queries: &[ConjunctiveQuery]) -> Vec<DisclosureLabel> {
        queries.iter().map(|q| self.label(q)).collect()
    }

    /// Labels a batch of queries through the caching labeler, returning
    /// one label per query in input order.
    pub fn label_batch_cached(&self, queries: &[ConjunctiveQuery]) -> Vec<DisclosureLabel> {
        queries.iter().map(|q| self.cached.label_query(q)).collect()
    }

    /// Builds a [`DisclosureService`] — the dynamic front door of the
    /// system (labeling, enforcement, mutation and audit behind one
    /// entry point) — with `num_principals` randomly generated policies.
    pub fn disclosure_service(
        &self,
        config: PolicyGeneratorConfig,
        num_principals: usize,
        service_config: ServiceConfig,
    ) -> DisclosureService {
        let mut service = DisclosureService::new(self.views.clone(), service_config);
        let mut policies = self.policy_generator(config);
        for _ in 0..num_principals {
            let policy = policies.next_policy(&self.views);
            service.register_principal(policy);
        }
        service
    }

    /// A churn-stream generator over this ecosystem's schema and views —
    /// the operation mix of the Figure 7 dynamic-service experiment.
    pub fn churn(&self, config: ChurnConfig) -> ChurnGenerator {
        ChurnGenerator::new(self.schema.clone(), &self.views, config)
    }
}

impl Default for Ecosystem {
    fn default() -> Self {
        Ecosystem::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ecosystem_assembles_consistently() {
        let eco = Ecosystem::default();
        assert_eq!(eco.schema.catalog.len(), 8);
        assert_eq!(eco.views.len(), 37);
        assert_eq!(eco.baseline.security_views().len(), eco.views.len());
        assert_eq!(eco.hashed.security_views().len(), eco.views.len());
        assert_eq!(eco.bitvec.security_views().len(), eco.views.len());
        assert_eq!(eco.cached.security_views().len(), eco.views.len());
    }

    #[test]
    fn all_labelers_agree_on_a_workload_sample() {
        let eco = Ecosystem::new();
        let mut workload = eco.workload(WorkloadConfig::stress(2, 17));
        let queries = workload.batch(150);
        for query in &queries {
            let a = eco.baseline.label_query(query);
            let b = eco.hashed.label_query(query);
            let c = eco.bitvec.label_query(query);
            let d = eco.cached.label_query(query);
            assert_eq!(a, b, "baseline vs hashed disagree on {query:?}");
            assert_eq!(a, c, "baseline vs bitvec disagree on {query:?}");
            assert_eq!(a, d, "baseline vs cached disagree on {query:?}");
        }
        // A repeated batch — the serving steady state — is answered
        // entirely from the query cache.
        let cold = eco.cached.stats();
        for query in &queries {
            eco.cached.label_query(query);
        }
        let warm = eco.cached.stats();
        assert_eq!(warm.misses, cold.misses, "second pass must not miss");
        assert!(warm.hits >= cold.hits + queries.len() as u64);
    }

    #[test]
    fn parallel_batch_labeling_matches_the_sequential_path() {
        let eco = Ecosystem::new();
        let mut workload = eco.workload(WorkloadConfig::stress(3, 23));
        let queries = workload.batch(200);
        assert_eq!(eco.label_batch_cached(&queries), eco.label_batch(&queries));
    }

    #[test]
    fn label_batch_produces_one_label_per_query() {
        let eco = Ecosystem::new();
        let mut workload = eco.workload(WorkloadConfig::base(3));
        let queries = workload.batch(50);
        let labels = eco.label_batch(&queries);
        assert_eq!(labels.len(), queries.len());
        for label in &labels {
            assert!(!label.is_bottom());
            assert!(!label.contains_top());
        }
    }

    #[test]
    fn policy_generator_and_workload_compose() {
        use fdc_policy::PrincipalId;
        let eco = Ecosystem::new();
        let mut policies = eco.policy_generator(PolicyGeneratorConfig {
            max_partitions: 5,
            max_elements_per_partition: 20,
            template_pool: 0,
            seed: 4,
        });
        let mut store = policies.build_store(&eco.views, 100);
        let mut workload = eco.workload(WorkloadConfig::base(5));
        let labels = eco.label_batch(&workload.batch(200));
        let mut allowed = 0usize;
        let mut denied = 0usize;
        for (i, label) in labels.iter().enumerate() {
            let principal = PrincipalId((i % 100) as u32);
            if store.submit(principal, label).is_allow() {
                allowed += 1;
            } else {
                denied += 1;
            }
        }
        assert_eq!(allowed + denied, 200);
        // Random policies should neither allow nor deny everything.
        assert!(allowed > 0);
        assert!(denied > 0);
    }

    #[test]
    fn the_disclosure_service_agrees_with_the_manual_two_stage_path() {
        use fdc_policy::PrincipalId;
        use fdc_service::Operation;
        let eco = Ecosystem::new();
        let config = PolicyGeneratorConfig {
            max_partitions: 5,
            max_elements_per_partition: 20,
            template_pool: 16,
            seed: 11,
        };
        let num_principals = 50;
        let mut service = eco.disclosure_service(config, num_principals, ServiceConfig::default());
        assert_eq!(service.num_principals(), num_principals);

        let mut flat = eco
            .policy_generator(config)
            .build_store(&eco.views, num_principals);
        let mut workload = eco.workload(WorkloadConfig::base(12));
        let queries = workload.batch(300);
        let ops: Vec<Operation> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| Operation::Submit {
                principal: PrincipalId((i % num_principals) as u32),
                query: query.clone(),
            })
            .collect();
        let responses = service.run_pipelined(&ops);
        for (i, (query, response)) in queries.iter().zip(&responses).enumerate() {
            let p = PrincipalId((i % num_principals) as u32);
            let expected = flat.submit(p, &eco.label(query));
            assert_eq!(response.decision(), Some(expected), "query {i}");
        }
        assert_eq!(service.totals(), flat.totals());
    }
}

//! Random policy generation for the policy-checker experiment (Figure 6).
//!
//! Section 7.2: "we wrote a simple policy checker that maintained
//! information about the security policies of between 1,000 and 1,000,000
//! distinct principals.  Each principal's security policy was randomly
//! generated.  The maximum number of partitions per policy was set to either
//! 1 (a stateless security policy) or 5 (a fairly complex Chinese Wall
//! policy).  However, the actual number of partitions per policy could vary
//! between principals ...  Similarly, we allowed the maximum number of
//! elements (i.e., single-atom views) per partition to vary between 5 and
//! 50."

use fdc_core::{SecurityViewId, SecurityViews};
use fdc_policy::{PolicyPartition, PolicyStore, SecurityPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random policy generator.
#[derive(Debug, Clone, Copy)]
pub struct PolicyGeneratorConfig {
    /// Maximum number of partitions per policy (1 = stateless, 5 = the
    /// paper's "fairly complex Chinese Wall policy").
    pub max_partitions: usize,
    /// Maximum number of permitted views per partition (the paper sweeps
    /// this between 5 and 50).
    pub max_elements_per_partition: usize,
    /// Size of the template pool principals draw their policies from.
    ///
    /// `0` (the default, the paper's exact setup) gives every principal a
    /// freshly drawn random policy.  A positive value generates that many
    /// random *templates* and assigns each further principal a uniformly
    /// sampled template — the realistic regime for app ecosystems, where
    /// policies come from a bounded set of permission presets, and the one
    /// the interned [`PolicyStore`] deduplicates to a handful of arena
    /// entries.
    pub template_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PolicyGeneratorConfig {
    fn default() -> Self {
        PolicyGeneratorConfig {
            max_partitions: 1,
            max_elements_per_partition: 10,
            template_pool: 0,
            seed: 0xFDC_2013,
        }
    }
}

/// Generates random per-principal policies over a security-view registry.
#[derive(Debug, Clone)]
pub struct PolicyGenerator {
    config: PolicyGeneratorConfig,
    rng: SmallRng,
    all_views: Vec<SecurityViewId>,
    templates: Vec<SecurityPolicy>,
}

impl PolicyGenerator {
    /// Creates a generator drawing views from `registry`.
    pub fn new(registry: &SecurityViews, config: PolicyGeneratorConfig) -> Self {
        PolicyGenerator {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            all_views: registry.iter().map(|(id, _)| id).collect(),
            templates: Vec::new(),
        }
    }

    /// Generates one random policy.
    ///
    /// The number of partitions is between 1 and the configured maximum, and
    /// each partition permits between 1 and `max_elements_per_partition`
    /// randomly chosen views (sampling with replacement, so the number of
    /// *distinct* permitted views may be smaller).  With a positive
    /// [`template_pool`](PolicyGeneratorConfig::template_pool), the first
    /// `template_pool` calls draw fresh policies that seed the pool and
    /// later calls return a uniformly sampled pooled template.
    pub fn next_policy(&mut self, registry: &SecurityViews) -> SecurityPolicy {
        let pool = self.config.template_pool;
        if pool > 0 && self.templates.len() >= pool {
            let i = self.rng.gen_range(0..self.templates.len());
            return self.templates[i].clone();
        }
        let policy = self.fresh_policy(registry);
        if pool > 0 {
            self.templates.push(policy.clone());
        }
        policy
    }

    /// Draws one fresh random policy, ignoring the template pool.
    fn fresh_policy(&mut self, registry: &SecurityViews) -> SecurityPolicy {
        let partitions = if self.config.max_partitions <= 1 {
            1
        } else {
            self.rng.gen_range(1..=self.config.max_partitions)
        };
        let mut policy = SecurityPolicy::new();
        for p in 0..partitions {
            let elements = self
                .rng
                .gen_range(1..=self.config.max_elements_per_partition.max(1));
            let mut partition = PolicyPartition::new(format!("partition-{p}"));
            for _ in 0..elements {
                let view = self.all_views[self.rng.gen_range(0..self.all_views.len())];
                partition.permit(registry, view);
            }
            policy.push(partition);
        }
        policy
    }

    /// Builds a [`PolicyStore`] with `num_principals` randomly generated
    /// policies — the state the Figure 6 experiment iterates over.  The
    /// store interns the policies, so with a template pool the arena holds
    /// at most `template_pool` compiled entries however many principals are
    /// registered.
    pub fn build_store(&mut self, registry: &SecurityViews, num_principals: usize) -> PolicyStore {
        let mut store = PolicyStore::new();
        for _ in 0..num_principals {
            let policy = self.next_policy(registry);
            store.register(policy);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_catalog;
    use crate::views::facebook_security_views;

    fn registry() -> SecurityViews {
        facebook_security_views(&facebook_catalog())
    }

    #[test]
    fn stateless_config_generates_single_partition_policies() {
        let registry = registry();
        let mut generator = PolicyGenerator::new(
            &registry,
            PolicyGeneratorConfig {
                max_partitions: 1,
                max_elements_per_partition: 10,
                template_pool: 0,
                seed: 1,
            },
        );
        for _ in 0..50 {
            let policy = generator.next_policy(&registry);
            assert_eq!(policy.len(), 1);
            assert!(policy.is_stateless());
            assert!(policy.partitions()[0].num_permitted() >= 1);
            assert!(policy.partitions()[0].num_permitted() <= 10);
        }
    }

    #[test]
    fn chinese_wall_config_generates_varied_partition_counts() {
        let registry = registry();
        let mut generator = PolicyGenerator::new(
            &registry,
            PolicyGeneratorConfig {
                max_partitions: 5,
                max_elements_per_partition: 20,
                template_pool: 0,
                seed: 2,
            },
        );
        let mut counts = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let policy = generator.next_policy(&registry);
            assert!((1..=5).contains(&policy.len()));
            counts.insert(policy.len());
        }
        // The actual number of partitions varies between principals.
        assert!(counts.len() >= 3);
    }

    #[test]
    fn store_building_registers_the_requested_number_of_principals() {
        let registry = registry();
        let mut generator = PolicyGenerator::new(&registry, PolicyGeneratorConfig::default());
        let store = generator.build_store(&registry, 1000);
        assert_eq!(store.len(), 1000);
    }

    #[test]
    fn template_pools_bound_the_distinct_policy_count() {
        let registry = registry();
        let config = PolicyGeneratorConfig {
            max_partitions: 5,
            max_elements_per_partition: 25,
            template_pool: 16,
            seed: 7,
        };
        let mut generator = PolicyGenerator::new(&registry, config);
        let store = generator.build_store(&registry, 2_000);
        assert_eq!(store.len(), 2_000);
        // The interned arena collapses the pooled draws: at most 16 distinct
        // compiled policies (fewer if two templates collide structurally).
        assert!(
            store.unique_policies() <= 16,
            "expected ≤16 templates, got {}",
            store.unique_policies()
        );
        assert!(store.arena().hits() >= 2_000 - 16);
        // Pooling is deterministic per seed.
        let mut again = PolicyGenerator::new(&registry, config);
        let mut reference = PolicyGenerator::new(&registry, config);
        for _ in 0..50 {
            assert_eq!(
                reference.next_policy(&registry),
                again.next_policy(&registry)
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let registry = registry();
        let config = PolicyGeneratorConfig {
            max_partitions: 5,
            max_elements_per_partition: 15,
            template_pool: 0,
            seed: 99,
        };
        let mut a = PolicyGenerator::new(&registry, config);
        let mut b = PolicyGenerator::new(&registry, config);
        for _ in 0..20 {
            assert_eq!(a.next_policy(&registry), b.next_policy(&registry));
        }
    }
}

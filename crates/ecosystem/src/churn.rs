//! The churn workload: a mixed operation stream for the dynamic service.
//!
//! The Figure 5/6 workloads freeze the world — fixed views, fixed policies —
//! but a live app ecosystem mutates while queries keep arriving: users grant
//! and revoke permissions, administrators evolve `Fgen`.  The
//! [`ChurnGenerator`] reproduces that regime as a randomized stream of
//! [`fdc_service::Operation`]s with a **configurable mutation:query ratio**:
//! most operations are admissions drawn from the Section 7.2 query
//! generator, and a configurable fraction are mutations — `GrantView` /
//! `RevokeView` on random principals and, for a sub-share, `AddSecurityView`
//! registering a fresh random projection view (capacity permitting: each
//! relation's view budget is the 32-bit packed mask).
//!
//! The Figure 7 benchmark (`fig7_json`) drives two identically seeded
//! streams through an incremental service and a flush-on-mutation service
//! to measure the payoff of epoch-based invalidation.
//!
//! Admissions are emitted boxed (`Submit` / `Check`); a caller that wants
//! the 8-byte interned forms maps the stream through
//! [`Operation::interned`] with the target service's
//! [`intern`](fdc_service::DisclosureService::intern).

use fdc_core::security_views::MAX_PACKED_VIEWS_PER_RELATION;
use fdc_core::SecurityViews;
use fdc_cq::{ConjunctiveQuery, RelId};
use fdc_service::Operation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::schema::FacebookSchema;
use crate::views::projection_view;
use crate::workload::{WorkloadConfig, WorkloadGenerator};

/// Configuration of the churn stream.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Fraction of operations that are mutations (0.0 reproduces the static
    /// Figure 5/6 regime; the Figure 7 sweep uses 0, 0.001, 0.01 and 0.1).
    pub mutation_ratio: f64,
    /// Fraction of *mutations* that add a new security view (the rest split
    /// evenly between grants and revokes).  View additions degrade to
    /// grants once every relation's 32-view packed budget is full.
    pub add_view_share: f64,
    /// Fraction of *admissions* that are pure checks instead of submits.
    pub check_share: f64,
    /// Size of the query template pool admissions draw from.
    ///
    /// `0` gives every admission a freshly generated random query (the
    /// paper's exact Section 7.2 setup — maximal shape diversity).  A
    /// positive value caps the stream at that many distinct query shapes:
    /// the first `query_pool` admissions generate fresh queries that seed
    /// the pool, later admissions resample it — the realistic serving
    /// regime, where apps issue the same parameterized query shapes over
    /// and over and the canonical-form cache reaches a hit-dominated steady
    /// state (mirroring `PolicyGeneratorConfig::template_pool`).
    pub query_pool: usize,
    /// Number of registered principals mutations and admissions target.
    pub num_principals: usize,
    /// RNG seed (also splits off the query-generator seed).
    pub seed: u64,
    /// Configuration of the underlying Section 7.2 query generator.
    pub workload: WorkloadConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mutation_ratio: 0.01,
            add_view_share: 0.1,
            check_share: 0.0,
            query_pool: 0,
            num_principals: 1_000,
            seed: 0xF17,
            workload: WorkloadConfig::default(),
        }
    }
}

/// Generates the mixed operation stream of the Figure 7 experiment.
///
/// The generator tracks the view universe it has grown so far (names and
/// per-relation counts), so grants and revokes always target views that
/// exist by the time the operation is applied — provided the stream is
/// applied in order to a service seeded with the same registry.
#[derive(Debug, Clone)]
pub struct ChurnGenerator {
    schema: FacebookSchema,
    queries: WorkloadGenerator,
    rng: SmallRng,
    config: ChurnConfig,
    /// Names of every view grantable so far (registry views + churn adds).
    view_names: Vec<String>,
    /// Per-relation view counts, indexed by relation id, tracking the
    /// 32-view packed budget.
    view_counts: Vec<usize>,
    /// Number of views added by this generator (for unique naming).
    added: usize,
    /// The query template pool (see [`ChurnConfig::query_pool`]).
    pool: Vec<ConjunctiveQuery>,
}

impl ChurnGenerator {
    /// Creates a generator over a schema and the registry the target
    /// service starts from.
    pub fn new(schema: FacebookSchema, registry: &SecurityViews, config: ChurnConfig) -> Self {
        let queries = WorkloadGenerator::new(schema.clone(), config.workload);
        let view_names = registry.iter().map(|(_, v)| v.name.clone()).collect();
        let view_counts = (0..schema.catalog.len())
            .map(|r| registry.views_for_relation(RelId(r as u32)).len())
            .collect();
        ChurnGenerator {
            schema,
            queries,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x5EED_C4A9),
            config,
            view_names,
            view_counts,
            added: 0,
            pool: Vec::new(),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> ChurnConfig {
        self.config
    }

    /// Number of `AddSecurityView` operations generated so far.
    pub fn views_added(&self) -> usize {
        self.added
    }

    /// Draws true with probability `p`.
    fn draw(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // Parts-per-million resolution is plenty for the swept ratios.
        self.rng.gen_range(0u64..1_000_000) < (p * 1_000_000.0) as u64
    }

    fn random_principal(&mut self) -> fdc_policy::PrincipalId {
        fdc_policy::PrincipalId(self.rng.gen_range(0..self.config.num_principals.max(1)) as u32)
    }

    /// The next admission query: fresh from the Section 7.2 generator, or
    /// resampled from the template pool once it is seeded.
    fn next_admission_query(&mut self) -> ConjunctiveQuery {
        if self.config.query_pool == 0 {
            return self.queries.next_query();
        }
        if self.pool.len() < self.config.query_pool {
            let query = self.queries.next_query();
            self.pool.push(query.clone());
            return query;
        }
        self.pool[self.rng.gen_range(0..self.pool.len())].clone()
    }

    /// Generates one pure admission operation (no mutation draw) — used to
    /// produce warmup prefixes that seed the query pool and the label cache
    /// before a measured churn stream begins.
    pub fn next_admission(&mut self) -> Operation {
        let principal = self.random_principal();
        let query = self.next_admission_query();
        if self.draw(self.config.check_share) {
            Operation::Check { principal, query }
        } else {
            Operation::Submit { principal, query }
        }
    }

    /// Generates the next operation of the stream.
    pub fn next_op(&mut self) -> Operation {
        if self.draw(self.config.mutation_ratio) {
            return self.next_mutation();
        }
        self.next_admission()
    }

    /// Generates a batch of operations.
    pub fn ops(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Generates a batch of pure admissions (see
    /// [`next_admission`](Self::next_admission)).
    pub fn admissions(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_admission()).collect()
    }

    fn next_mutation(&mut self) -> Operation {
        if self.draw(self.config.add_view_share) {
            if let Some(op) = self.next_add_view() {
                return op;
            }
            // Every relation's view budget is full: degrade to a grant so
            // the configured mutation ratio is preserved.
        }
        let principal = self.random_principal();
        let view = self.view_names[self.rng.gen_range(0..self.view_names.len())].clone();
        if self.rng.gen_range(0u32..2) == 0 {
            Operation::GrantView { principal, view }
        } else {
            Operation::RevokeView { principal, view }
        }
    }

    /// Builds an `AddSecurityView` for a random relation with remaining
    /// budget, or `None` if every relation is full.
    fn next_add_view(&mut self) -> Option<Operation> {
        let num_relations = self.view_counts.len();
        let start = self.rng.gen_range(0..num_relations);
        let relation = (0..num_relations)
            .map(|offset| (start + offset) % num_relations)
            .find(|&r| self.view_counts[r] < MAX_PACKED_VIEWS_PER_RELATION)?;
        let rel_id = RelId(relation as u32);
        let rel_schema = self.schema.catalog.relation(rel_id);
        let info = self.schema.info(rel_id);
        // A random projection view: the uid and is_friend anchors (so
        // audience-restricted queries stay answerable, mirroring the
        // registry's construction) plus a random subset of the attributes.
        let mut exposed: Vec<&str> = Vec::new();
        for (col, attr) in rel_schema.attributes.iter().enumerate() {
            let anchor = col == info.uid_column || col == info.is_friend_column;
            if anchor || self.rng.gen_range(0u32..3) == 0 {
                exposed.push(attr.as_str());
            }
        }
        let query = projection_view(&self.schema, rel_id, &exposed);
        let name = format!("churn_view_{}", self.added);
        self.added += 1;
        self.view_counts[relation] += 1;
        self.view_names.push(name.clone());
        Some(Operation::AddSecurityView { name, query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_catalog;
    use crate::views::facebook_security_views;

    fn generator(config: ChurnConfig) -> ChurnGenerator {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        ChurnGenerator::new(schema, &registry, config)
    }

    #[test]
    fn a_zero_ratio_stream_is_pure_admissions() {
        let mut churn = generator(ChurnConfig {
            mutation_ratio: 0.0,
            ..ChurnConfig::default()
        });
        for op in churn.ops(500) {
            assert!(op.is_admission());
        }
        assert_eq!(churn.views_added(), 0);
    }

    #[test]
    fn the_mutation_ratio_is_approximately_respected() {
        let mut churn = generator(ChurnConfig {
            mutation_ratio: 0.1,
            num_principals: 50,
            ..ChurnConfig::default()
        });
        let ops = churn.ops(5_000);
        let mutations = ops.iter().filter(|op| op.is_mutation()).count();
        // 10% ±3% over 5000 draws.
        assert!(
            (350..=650).contains(&mutations),
            "expected ~500 mutations, got {mutations}"
        );
        // Grants, revokes and view additions all occur.
        assert!(ops
            .iter()
            .any(|op| matches!(op, Operation::GrantView { .. })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, Operation::RevokeView { .. })));
        assert!(churn.views_added() > 0);
    }

    #[test]
    fn the_query_pool_bounds_shape_diversity() {
        use fdc_cq::intern::QueryInterner;
        let mut pooled = generator(ChurnConfig {
            mutation_ratio: 0.0,
            query_pool: 16,
            ..ChurnConfig::default()
        });
        // Interning canonicalizes, so the interner's size after the stream
        // is exactly the number of distinct shapes.
        let mut shapes = QueryInterner::new();
        for op in pooled.ops(400) {
            let Operation::Submit { query, .. } = op else {
                panic!("pure admission stream");
            };
            shapes.intern(&query);
        }
        assert!(
            shapes.len() <= 16,
            "expected <= 16 distinct shapes, got {}",
            shapes.len()
        );
        // admissions() fills the same pool ops() samples from.
        let mut warmed = generator(ChurnConfig {
            mutation_ratio: 1.0, // every measured op would be a mutation...
            query_pool: 8,
            ..ChurnConfig::default()
        });
        let warmup = warmed.admissions(50);
        assert_eq!(warmup.len(), 50);
        assert!(warmup.iter().all(|op| op.is_admission()));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = ChurnConfig {
            mutation_ratio: 0.05,
            ..ChurnConfig::default()
        };
        let a = generator(config).ops(300);
        let b = generator(config).ops(300);
        for (x, y) in a.iter().zip(&b) {
            // Operation does not implement PartialEq (queries are heavy);
            // compare the debug forms.
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn generated_streams_apply_cleanly_to_a_service() {
        use fdc_ecosystem_service_smoke::build_service;
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let mut churn = ChurnGenerator::new(
            schema,
            &registry,
            ChurnConfig {
                mutation_ratio: 0.2,
                add_view_share: 0.3,
                check_share: 0.1,
                num_principals: 20,
                ..ChurnConfig::default()
            },
        );
        let mut service = build_service(&registry, 20);
        let ops = churn.ops(1_000);
        let responses = service.run_pipelined(&ops);
        assert_eq!(responses.len(), ops.len());
        // Every operation of a well-formed stream is accepted: grants and
        // revokes only name views that exist by their stream position, and
        // view additions respect the per-relation budget.
        for (op, response) in ops.iter().zip(&responses) {
            assert!(!response.is_rejected(), "{op:?} -> {response:?}");
        }
        assert!(service.labeler().stats().invalidations >= churn.views_added() as u64);
    }

    #[test]
    fn pipelined_execution_matches_sequential_apply_on_churn_streams() {
        // The wiring behind the fig7 series: identical generated streams
        // through the batch executor and through op-by-op `apply` must
        // produce identical responses and per-principal state, across
        // mutation ratios (including heavy churn) and for interned streams.
        use fdc_ecosystem_service_smoke::build_service;
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        for mutation_ratio in [0.0, 0.05, 0.3] {
            let config = ChurnConfig {
                mutation_ratio,
                add_view_share: 0.25,
                check_share: 0.15,
                query_pool: 24,
                num_principals: 12,
                ..ChurnConfig::default()
            };
            let mut sequential_churn = ChurnGenerator::new(schema.clone(), &registry, config);
            let mut pipelined_churn = ChurnGenerator::new(schema.clone(), &registry, config);
            let mut sequential = build_service(&registry, 12);
            let mut pipelined = build_service(&registry, 12);
            let ops = interned(sequential_churn.ops(700), &mut sequential);
            let pipelined_ops = interned(pipelined_churn.ops(700), &mut pipelined);
            let sequential_responses: Vec<_> = ops.iter().map(|op| sequential.apply(op)).collect();
            assert_eq!(
                sequential_responses,
                pipelined.run_pipelined(&pipelined_ops),
                "at mutation ratio {mutation_ratio}"
            );
            assert_eq!(sequential.totals(), pipelined.totals());
            for i in 0..12 {
                let p = fdc_policy::PrincipalId(i);
                assert_eq!(
                    sequential.store().consistency_bits(p),
                    pipelined.store().consistency_bits(p)
                );
                assert_eq!(sequential.store().stats(p), pipelined.store().stats(p));
            }
        }
    }

    #[test]
    fn interned_streams_decide_identically_to_boxed_streams() {
        use fdc_ecosystem_service_smoke::build_service;
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let config = ChurnConfig {
            mutation_ratio: 0.05,
            add_view_share: 0.2,
            check_share: 0.2,
            query_pool: 12,
            num_principals: 15,
            ..ChurnConfig::default()
        };
        // Boxed reference stream.
        let mut boxed_churn = ChurnGenerator::new(schema.clone(), &registry, config);
        let mut boxed_service = build_service(&registry, 15);
        let boxed_ops = boxed_churn.ops(600);
        let boxed_responses = boxed_service.run_pipelined(&boxed_ops);
        // Same seed, mapped through the target service's interner: each
        // pooled shape is interned once and admissions stream as 8-byte ids.
        let mut interned_churn = ChurnGenerator::new(schema, &registry, config);
        let mut interned_service = build_service(&registry, 15);
        let interned_ops = interned(interned_churn.ops(600), &mut interned_service);
        assert!(interned_ops
            .iter()
            .all(|op| !matches!(op, Operation::Submit { .. } | Operation::Check { .. })));
        assert!(interned_ops
            .iter()
            .any(|op| matches!(op, Operation::SubmitInterned { .. })));
        let interned_responses = interned_service.run_pipelined(&interned_ops);
        assert_eq!(boxed_responses, interned_responses);
        assert_eq!(boxed_service.totals(), interned_service.totals());
        let pool_size = interned_service.interner().len();
        assert!(
            pool_size >= 12,
            "the pool was interned ({pool_size} shapes)"
        );

        // The same generator's later ops, mapped through a *different*
        // service, carry that service's ids for the pooled shapes.
        let mut boxed_third = build_service(&registry, 15);
        let mut interned_third = build_service(&registry, 15);
        let boxed_more = boxed_churn.ops(150);
        let interned_more = interned(interned_churn.ops(150), &mut interned_third);
        assert_eq!(
            boxed_third.run_pipelined(&boxed_more),
            interned_third.run_pipelined(&interned_more)
        );
        assert_eq!(boxed_third.totals(), interned_third.totals());
    }

    #[test]
    fn every_loggable_churn_op_round_trips_through_the_wal_codec() {
        // The durable service logs churn streams verbatim; every loggable
        // operation the generator can emit — submits and boxed checks over
        // generated queries, grants/revokes on registry and churn-added view names,
        // view additions with fresh projection definitions — must encode
        // to a WAL payload that decodes back to the identical [`WalOp`]
        // against the same catalog.
        use fdc_service::durable::{decode_wal_op, WalOp};
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let catalog = registry.catalog().clone();
        let mut churn = generator(ChurnConfig {
            mutation_ratio: 0.4,
            add_view_share: 0.4,
            check_share: 0.3,
            num_principals: 10,
            ..ChurnConfig::default()
        });
        let (mut round_tripped, mut checks) = (0, 0);
        for op in churn.ops(400) {
            let wal_op = match op {
                Operation::Submit { principal, query } => WalOp::Submit { principal, query },
                Operation::Check { principal, query } => {
                    checks += 1;
                    WalOp::Check { principal, query }
                }
                Operation::GrantView { principal, view } => WalOp::GrantView { principal, view },
                Operation::RevokeView { principal, view } => WalOp::RevokeView { principal, view },
                Operation::AddSecurityView { name, query } => {
                    WalOp::AddSecurityView { name, query }
                }
                _ => continue,
            };
            let mut payload = Vec::new();
            wal_op.encode_into(&mut payload);
            let decoded = decode_wal_op(&catalog, &payload).expect("churn ops are encodable");
            assert_eq!(decoded, wal_op);
            round_tripped += 1;
        }
        assert!(round_tripped > 100, "only {round_tripped} loggable ops");
        assert!(checks > 20, "only {checks} boxed checks");
    }

    /// `ops` with every admission interned into `service`'s id space.
    fn interned(
        ops: Vec<Operation>,
        service: &mut fdc_service::DisclosureService,
    ) -> Vec<Operation> {
        ops.into_iter()
            .map(|op| op.interned(|query| service.intern(query).unwrap()))
            .collect()
    }

    /// Tiny helper namespace so the test above reads naturally.
    mod fdc_ecosystem_service_smoke {
        use fdc_core::SecurityViews;
        use fdc_policy::{PolicyPartition, SecurityPolicy};
        use fdc_service::DisclosureService;

        pub fn build_service(registry: &SecurityViews, principals: usize) -> DisclosureService {
            let mut service = DisclosureService::with_defaults(registry.clone());
            let all: Vec<_> = registry.iter().map(|(id, _)| id).collect();
            for i in 0..principals {
                // A mix of permissive and narrow single-partition policies.
                let views = all.iter().copied().filter(|id| id.index() % (i + 1) == 0);
                service.register_principal(SecurityPolicy::stateless(PolicyPartition::from_views(
                    format!("p{i}"),
                    registry,
                    views,
                )));
            }
            service
        }
    }
}

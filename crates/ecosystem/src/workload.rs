//! The randomized query workload of Section 7.2.
//!
//! "After examining a number of sample Facebook applications, we decided to
//! use a workload of queries that were randomly generated with the following
//! process:
//!
//! 1. Select a random relation from the schema.
//! 2. Select a random subset of its attributes.
//! 3. Randomly request these attributes for either (i) the current user,
//!    (ii) friends of the current user, (iii) friends of friends of the
//!    current user, or (iv) a non-friend."
//!
//! Option (ii) adds one join with the `Friend` relation and option (iii)
//! two, so base queries contain between one and three body atoms.  The
//! stress-test extension repeats the process up to five times and joins the
//! resulting subqueries on the `uid` attribute, which appears in every
//! relation.

use fdc_cq::query::{Arg, QueryBuilder};
use fdc_cq::{ConjunctiveQuery, RelId};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::schema::FacebookSchema;

/// Whose data the generated query requests (step 3 of the workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audience {
    /// The current user's own data: `uid = 'me'`.
    CurrentUser,
    /// Data of the current user's friends: one join with `Friend`.
    Friends,
    /// Data of friends of friends: two joins with `Friend`.
    FriendsOfFriends,
    /// Data of an unrelated user: `uid = 'other'`.
    NonFriend,
}

impl Audience {
    /// All audiences, in the order the generator samples them.
    pub const ALL: [Audience; 4] = [
        Audience::CurrentUser,
        Audience::Friends,
        Audience::FriendsOfFriends,
        Audience::NonFriend,
    ];

    /// Number of `Friend` joins this audience adds to a subquery.
    pub fn friend_joins(self) -> usize {
        match self {
            Audience::Friends => 1,
            Audience::FriendsOfFriends => 2,
            Audience::CurrentUser | Audience::NonFriend => 0,
        }
    }
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Maximum number of subqueries joined on `uid` (1 reproduces the base
    /// workload of 1–3 atoms; 5 is the paper's stress test of up to 15
    /// atoms).
    pub max_subqueries: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            max_subqueries: 1,
            seed: 0xFDC_2013,
        }
    }
}

impl WorkloadConfig {
    /// The base workload: one subquery, 1–3 atoms per query.
    pub fn base(seed: u64) -> Self {
        WorkloadConfig {
            max_subqueries: 1,
            seed,
        }
    }

    /// The stress workload with up to `max_subqueries` uid-joined subqueries.
    pub fn stress(max_subqueries: usize, seed: u64) -> Self {
        WorkloadConfig {
            max_subqueries: max_subqueries.max(1),
            seed,
        }
    }

    /// Maximum number of body atoms a generated query can have
    /// (each subquery contributes 1 target atom plus up to 2 Friend joins).
    pub fn max_atoms(&self) -> usize {
        self.max_subqueries * 3
    }
}

/// The random query generator of Section 7.2.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    schema: FacebookSchema,
    config: WorkloadConfig,
    rng: SmallRng,
    relation_dist: Uniform<usize>,
}

impl WorkloadGenerator {
    /// Creates a generator over the evaluation schema.
    pub fn new(schema: FacebookSchema, config: WorkloadConfig) -> Self {
        let relation_dist = Uniform::new(0, schema.catalog.len());
        WorkloadGenerator {
            schema,
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            relation_dist,
        }
    }

    /// The schema the generator draws relations from.
    pub fn schema(&self) -> &FacebookSchema {
        &self.schema
    }

    /// The generator's configuration.
    pub fn config(&self) -> WorkloadConfig {
        self.config
    }

    /// Generates the next random query.
    pub fn next_query(&mut self) -> ConjunctiveQuery {
        let num_subqueries = if self.config.max_subqueries <= 1 {
            1
        } else {
            self.rng.gen_range(1..=self.config.max_subqueries)
        };

        let mut builder = QueryBuilder::new();
        for subquery in 0..num_subqueries {
            self.add_subquery(&mut builder, subquery);
        }
        builder
            .build()
            .expect("generated queries are valid by construction")
    }

    /// Generates a batch of queries.
    pub fn batch(&mut self, n: usize) -> Vec<ConjunctiveQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }

    fn add_subquery(&mut self, builder: &mut QueryBuilder, index: usize) {
        // Step 1: a random relation.
        let relation = RelId(self.relation_dist.sample(&mut self.rng) as u32);
        let info = self.schema.info(relation);
        let rel_schema = self.schema.catalog.relation(relation);
        let arity = rel_schema.arity();

        // Step 3 (chosen before building the atom so we know what the owner
        // uid column must be): the audience.
        let audience = Audience::ALL[self.rng.gen_range(0..Audience::ALL.len())];

        // The owner uid term of the target atom depends on the audience.
        // Friend-based audiences bind the shared `uid` variable, which is
        // also the join key of the stress-test subqueries.
        let owner: Arg = match audience {
            Audience::CurrentUser => Arg::from("me"),
            Audience::NonFriend => Arg::from("other"),
            Audience::Friends | Audience::FriendsOfFriends => Arg::Var(builder.dvar("uid")),
        };

        // Step 2: a random subset of attributes to request (distinguished).
        // At least one attribute is always requested.
        let mut requested = vec![false; arity];
        let num_requested = self.rng.gen_range(1..=arity.min(8));
        for _ in 0..num_requested {
            let col = self.rng.gen_range(0..arity);
            requested[col] = true;
        }

        // Build the target atom.
        let args: Vec<Arg> = (0..arity)
            .map(|col| {
                if col == info.uid_column {
                    owner.clone()
                } else if requested[col] {
                    Arg::Var(builder.dvar(&format!("s{index}_{}", rel_schema.attributes[col])))
                } else {
                    Arg::Var(builder.evar(&format!("s{index}_e{col}")))
                }
            })
            .collect();
        builder.atom(relation, args);

        // The Friend joins for options (ii) and (iii).
        let friend = self.schema.friend();
        match audience {
            Audience::Friends => {
                // Friend('me', uid, _)
                let uid = builder.dvar("uid");
                let flag = builder.evar(&format!("s{index}_ff0"));
                builder.atom(friend, ["me".into(), Arg::Var(uid), Arg::Var(flag)]);
            }
            Audience::FriendsOfFriends => {
                // Friend('me', hop, _) ∧ Friend(hop, uid, _)
                let uid = builder.dvar("uid");
                let hop = builder.dvar(&format!("s{index}_hop"));
                let flag0 = builder.evar(&format!("s{index}_ff0"));
                let flag1 = builder.evar(&format!("s{index}_ff1"));
                builder.atom(friend, ["me".into(), Arg::Var(hop), Arg::Var(flag0)]);
                builder.atom(friend, [Arg::Var(hop), Arg::Var(uid), Arg::Var(flag1)]);
            }
            Audience::CurrentUser | Audience::NonFriend => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_catalog;

    fn generator(config: WorkloadConfig) -> WorkloadGenerator {
        WorkloadGenerator::new(facebook_catalog(), config)
    }

    #[test]
    fn base_workload_queries_have_one_to_three_atoms() {
        let mut generator = generator(WorkloadConfig::base(7));
        let mut seen = [false; 4];
        for _ in 0..500 {
            let q = generator.next_query();
            assert!(
                (1..=3).contains(&q.num_atoms()),
                "unexpected atom count {}",
                q.num_atoms()
            );
            assert!(q.validate(&generator.schema.catalog).is_ok());
            seen[q.num_atoms()] = true;
        }
        // One-atom (self / non-friend), two-atom (friends) and three-atom
        // (friends of friends) queries all appear.
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn stress_workload_produces_wider_queries() {
        let config = WorkloadConfig::stress(5, 11);
        assert_eq!(config.max_atoms(), 15);
        let mut generator = generator(config);
        let mut max_seen = 0;
        for _ in 0..500 {
            let q = generator.next_query();
            max_seen = max_seen.max(q.num_atoms());
            assert!(q.num_atoms() <= 15);
            assert!(q.validate(&generator.schema.catalog).is_ok());
        }
        assert!(
            max_seen > 4,
            "stress workload should produce multi-subquery joins (max seen {max_seen})"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = generator(WorkloadConfig::base(42));
        let mut b = generator(WorkloadConfig::base(42));
        for _ in 0..50 {
            assert_eq!(a.next_query(), b.next_query());
        }
        let mut c = generator(WorkloadConfig::base(43));
        let batch_a: Vec<_> = a.batch(50);
        let batch_c: Vec<_> = c.batch(50);
        assert_ne!(batch_a, batch_c);
    }

    #[test]
    fn every_audience_appears_in_a_large_sample() {
        let mut generator = generator(WorkloadConfig::base(3));
        let friend = generator.schema.friend();
        let mut joins_seen = [false; 3]; // 0, 1, 2 Friend joins
        for _ in 0..300 {
            let q = generator.next_query();
            let friend_atoms = q.atoms().filter(|a| a.relation == friend).count();
            // The anchor join for constant-audience single-subquery queries
            // also targets Friend, so clamp at 2.
            joins_seen[friend_atoms.min(2)] = true;
        }
        assert!(joins_seen.iter().filter(|s| **s).count() >= 2);
    }

    #[test]
    fn audience_helpers() {
        assert_eq!(Audience::CurrentUser.friend_joins(), 0);
        assert_eq!(Audience::Friends.friend_joins(), 1);
        assert_eq!(Audience::FriendsOfFriends.friend_joins(), 2);
        assert_eq!(Audience::NonFriend.friend_joins(), 0);
        assert_eq!(Audience::ALL.len(), 4);
    }

    #[test]
    fn default_config_is_the_base_workload() {
        let config = WorkloadConfig::default();
        assert_eq!(config.max_subqueries, 1);
        assert_eq!(config.max_atoms(), 3);
        let stress = WorkloadConfig::stress(0, 1);
        assert_eq!(
            stress.max_subqueries, 1,
            "stress clamps to at least one subquery"
        );
    }

    #[test]
    fn generated_queries_are_labelable() {
        use fdc_core::{BitVectorLabeler, QueryLabeler};
        let schema = facebook_catalog();
        let registry = crate::views::facebook_security_views(&schema);
        let labeler = BitVectorLabeler::new(registry);
        let mut generator = WorkloadGenerator::new(schema, WorkloadConfig::stress(3, 5));
        for _ in 0..200 {
            let q = generator.next_query();
            let label = labeler.label_query(&q);
            assert!(!label.is_bottom());
            // Every atom of the evaluation schema is answerable by at least
            // the relation's full view, so no ⊤ labels appear.
            assert!(!label.contains_top(), "query {q:?} produced a ⊤ label");
        }
    }
}

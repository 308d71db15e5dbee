//! The six workloads: their operation streams, the service each one drives,
//! and the decision digest every run is checked against.
//!
//! Why each workload exists is recorded next to its name in
//! [`Workload::why`]; `README.md` has the long form.

use std::fs;
use std::io;
use std::path::Path;

use fdc::core::SecurityViews;
use fdc::ecosystem::policies::{PolicyGenerator, PolicyGeneratorConfig};
use fdc::ecosystem::schema::FacebookSchema;
use fdc::ecosystem::{
    facebook_catalog, facebook_security_views, ChurnConfig, ChurnGenerator, WorkloadConfig,
};
use fdc::policy::Decision;
use fdc::service::{
    DisclosureService, DurabilityConfig, Operation, RecoveryReport, Response, ServiceConfig,
};

/// Operations per `run_pipelined` call on the batch workloads: one
/// "request" of the closed-loop client.
pub const BATCH_OPS: usize = 1_024;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotInline,
    HotPooled,
    ColdShapes,
    ViewChurn,
    Durable,
    SingleOp,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload::HotInline,
    Workload::HotPooled,
    Workload::ColdShapes,
    Workload::ViewChurn,
    Workload::Durable,
    Workload::SingleOp,
];

/// Which generated stream a workload replays.  Workloads naming the same
/// stream must produce the same decision digest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    Hot,
    Cold,
    Churn,
    Mix,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotInline => "hot_inline",
            Workload::HotPooled => "hot_pooled",
            Workload::ColdShapes => "cold_shapes",
            Workload::ViewChurn => "view_churn",
            Workload::Durable => "durable",
            Workload::SingleOp => "single_op",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also the `why` of
    /// `BENCHMARK.json`; at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotInline => {
                "2000-shape pool, 1% grants/revokes, workers=1: every label is a cache hit, so \
                 canonicalise+intern, history/staging and decide dominate; pool, WAL and \
                 cold-label changes must not move it"
            }
            Workload::HotPooled => {
                "the hot_inline stream at workers=min(nproc,4): the only difference is the \
                 worker pool, snapshot lanes and epochs, so hot_inline/hot_pooled is the \
                 pool's cost or gain"
            }
            Workload::ColdShapes => {
                "no query pool, up to 15 atoms, no mutations: every admission is a never-seen \
                 shape, so intern-insert, GYO, fold, dissect, containment and cache insert do \
                 the work; caches are bypassed"
            }
            Workload::ViewChurn => {
                "hot pool with one AddSecurityView per ~250 ops: admissions take the \
                 stale-refresh path and run_pipelined splits segments at every add; neither \
                 hit nor miss path alone"
            }
            Workload::Durable => {
                "hot_inline stream through open_durable (fsync on, group_commit 64) with a \
                 mid-run checkpoint and a timed reopen: WAL append/commit/fsync, checkpoint \
                 encode and replay dominate"
            }
            Workload::SingleOp => {
                "hot stream plus AddSecurityView and AuditApp, one op per apply call: the \
                 op-at-a-time executor and every op kind; catches a batch-path gain paid for \
                 by the single-op path"
            }
        }
    }

    pub fn stream(self) -> StreamKind {
        match self {
            Workload::HotInline | Workload::HotPooled | Workload::Durable => StreamKind::Hot,
            Workload::ColdShapes => StreamKind::Cold,
            Workload::ViewChurn => StreamKind::Churn,
            Workload::SingleOp => StreamKind::Mix,
        }
    }
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sizes of one workload at one scale.  `scale_div` 1 is the published
/// size; `selfcheck` runs at 20.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub principals: usize,
    pub query_pool: usize,
    pub template_pool: usize,
    pub warmup_ops: usize,
    pub timed_ops: usize,
    /// Operations per executor call: [`BATCH_OPS`], or 1 on `single_op`.
    pub batch: usize,
    pub workers: usize,
    pub durable: bool,
}

impl Plan {
    /// The plan of `workload`, or an error when this host cannot run it.
    pub fn new(workload: Workload, scale_div: usize) -> Result<Plan, String> {
        let div = scale_div.max(1);
        let (warmup, timed) = match workload.stream() {
            StreamKind::Hot | StreamKind::Mix => (20_000, 200_000),
            StreamKind::Cold => (0, 40_000),
            StreamKind::Churn => (20_000, 60_000),
        };
        let workers = if workload == Workload::HotPooled {
            let threads = host_threads();
            if threads < 2 {
                return Err(
                    "hot_pooled needs at least 2 hardware threads: on one core the pool \
                     can only be oversubscribed, which measures the scheduler"
                        .into(),
                );
            }
            threads.min(4)
        } else {
            1
        };
        Ok(Plan {
            workload,
            principals: 100_000 / div,
            query_pool: 2_000 / div,
            template_pool: 1_000 / div,
            warmup_ops: warmup / div,
            timed_ops: timed / div,
            batch: if workload == Workload::SingleOp {
                1
            } else {
                BATCH_OPS
            },
            workers,
            durable: workload == Workload::Durable,
        })
    }

    /// Rounds of an untraced run given `--seconds`: a fixed count per
    /// workload, never a function of how fast the rounds went, so both sides
    /// of a comparison get the same number of draws.  The rates are sized on
    /// a 2-vCPU host so that a run's timed part is about `seconds` (more on
    /// `cold_shapes` and `hot_pooled`, whose windows are the longest and so
    /// the likeliest to be disturbed) and its wall time, set-up, service
    /// builds and teardown included, about three times that.
    pub fn rounds(&self, seconds: f64) -> usize {
        let per_second = match self.workload {
            Workload::HotInline => 2.0,
            Workload::HotPooled => 0.75,
            Workload::ColdShapes => 2.6,
            Workload::ViewChurn => 5.5,
            Workload::Durable => 0.625,
            Workload::SingleOp => 2.0,
        };
        ((seconds * per_second).ceil() as usize).max(3)
    }

    /// `ServiceConfig::default()` except `workers`: history recording, shard
    /// count, thresholds and the durability knobs stay at what users get.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            ..ServiceConfig::default()
        }
    }
}

/// SplitMix64 step: derives independent generator seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The schema and initial registry every service and generator starts from.
pub struct World {
    pub schema: FacebookSchema,
    pub views: SecurityViews,
}

impl World {
    pub fn new() -> World {
        let schema = facebook_catalog();
        let views = facebook_security_views(&schema);
        World { schema, views }
    }
}

/// One generated stream: an untimed warm-up prefix and the timed part.
pub struct Stream {
    pub warmup: Vec<Operation>,
    pub timed: Vec<Operation>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.warmup.len() + self.timed.len()
    }
}

/// Generates the stream of `plan` from `seed` (boxed `Submit` / `Check`:
/// the service pays canonicalisation like a real front door).
pub fn generate(world: &World, plan: &Plan, seed: u64) -> Stream {
    let kind = plan.workload.stream();
    let hot = ChurnConfig {
        mutation_ratio: 0.01,
        add_view_share: 0.0,
        check_share: 0.10,
        query_pool: plan.query_pool,
        num_principals: plan.principals,
        seed: mix(seed, 1),
        workload: WorkloadConfig::stress(2, mix(seed, 2)),
    };
    let config = match kind {
        StreamKind::Hot => hot,
        StreamKind::Cold => ChurnConfig {
            mutation_ratio: 0.0,
            query_pool: 0,
            workload: WorkloadConfig::stress(5, mix(seed, 2)),
            ..hot
        },
        StreamKind::Churn => ChurnConfig {
            mutation_ratio: 0.004,
            add_view_share: 1.0,
            ..hot
        },
        StreamKind::Mix => ChurnConfig {
            add_view_share: 0.1,
            ..hot
        },
    };
    let mut churn = ChurnGenerator::new(world.schema.clone(), &world.views, config);
    let warmup = churn.admissions(plan.warmup_ops);
    let timed = if kind == StreamKind::Mix {
        splice_audits(&mut churn, plan.timed_ops)
    } else {
        churn.ops(plan.timed_ops)
    };
    Stream { warmup, timed }
}

/// `n` operations where every 1000th is an `AuditApp` of the principal that
/// submitted most recently, so the audit has a workload to relabel.
fn splice_audits(churn: &mut ChurnGenerator, n: usize) -> Vec<Operation> {
    let mut ops = Vec::with_capacity(n);
    let mut last_submitter = None;
    while ops.len() < n {
        if ops.len() % 1_000 == 999 {
            if let Some(principal) = last_submitter {
                ops.push(Operation::AuditApp { principal });
                continue;
            }
        }
        let op = churn.next_op();
        if let Operation::Submit { principal, .. } = &op {
            last_submitter = Some(*principal);
        }
        ops.push(op);
    }
    ops
}

/// Chinese-Wall policies at fig7's setting: at most 5 partitions of at most
/// 25 views, drawn from a template pool.
fn policy_generator(world: &World, plan: &Plan, seed: u64) -> PolicyGenerator {
    PolicyGenerator::new(
        &world.views,
        PolicyGeneratorConfig {
            max_partitions: 5,
            max_elements_per_partition: 25,
            template_pool: plan.template_pool,
            seed: mix(seed, 3),
        },
    )
}

/// Registers the plan's principals; the same seed registers the same
/// policies under the same ids.
pub fn register_principals(service: &mut DisclosureService, world: &World, plan: &Plan, seed: u64) {
    let mut policies = policy_generator(world, plan, seed);
    for _ in 0..plan.principals {
        service.register_principal(policies.next_policy(&world.views));
    }
}

/// A fresh in-memory service with every principal registered.
pub fn build_in_memory(
    world: &World,
    plan: &Plan,
    seed: u64,
    config: ServiceConfig,
) -> DisclosureService {
    let mut service = DisclosureService::new(world.views.clone(), config);
    register_principals(&mut service, world, plan, seed);
    service
}

/// The policies of [`register_principals`], for the ladder's own store.
pub fn policies<'a>(
    world: &'a World,
    plan: &Plan,
    seed: u64,
) -> impl Iterator<Item = fdc::policy::SecurityPolicy> + 'a {
    let mut generator = policy_generator(world, plan, seed);
    let views = &world.views;
    let principals = plan.principals;
    (0..principals).map(move |_| generator.next_policy(views))
}

/// Seeds `dir` with a checkpoint of the registered principals.
///
/// Registration commits one WAL record per principal, which with fsync on
/// costs about 13 s per 100 000 principals; the seed directory is therefore
/// written with fsync **off**, checkpointed and closed, and each round copies
/// it and reopens the copy with the default (fsync on) configuration.
pub fn seed_directory(world: &World, plan: &Plan, seed: u64, dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let config = ServiceConfig {
        durability: DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        },
        ..plan.service_config()
    };
    let (mut service, _) = DisclosureService::open_durable(world.views.clone(), config, dir)?;
    register_principals(&mut service, world, plan, seed);
    service.checkpoint()?;
    service.close()
}

/// Copies the seed directory and opens the copy with the plan's (default
/// durability) configuration.
pub fn open_round_directory(
    world: &World,
    plan: &Plan,
    seed_dir: &Path,
    round_dir: &Path,
) -> io::Result<(DisclosureService, RecoveryReport)> {
    if round_dir.exists() {
        fs::remove_dir_all(round_dir)?;
    }
    fs::create_dir_all(round_dir)?;
    for entry in fs::read_dir(seed_dir)? {
        let entry = entry?;
        fs::copy(entry.path(), round_dir.join(entry.file_name()))?;
    }
    DisclosureService::open_durable(world.views.clone(), plan.service_config(), round_dir)
}

/// Bytes of the files in `dir` whose names start with `prefix`.
pub fn dir_bytes(dir: &Path, prefix: &str) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(prefix) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Allow/deny counts plus an FNV-1a over the response sequence: two runs
/// with equal digests answered every operation of the stream alike.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest {
    pub allow: u64,
    pub deny: u64,
    pub rejected: u64,
    pub other: u64,
    pub fnv: u64,
}

impl Digest {
    pub fn new() -> Digest {
        Digest {
            allow: 0,
            deny: 0,
            rejected: 0,
            other: 0,
            fnv: FNV_OFFSET,
        }
    }

    pub fn fold(&mut self, response: &Response) {
        let word: u64 = match response {
            Response::Decision(Decision::Allow) => {
                self.allow += 1;
                1
            }
            Response::Decision(Decision::Deny) => {
                self.deny += 1;
                2
            }
            Response::PolicyUpdated => {
                self.other += 1;
                3
            }
            Response::ViewAdded(id) => {
                self.other += 1;
                4 | (id.index() as u64) << 8
            }
            Response::Audit(report) => {
                self.other += 1;
                5 | (report.requested.len() as u64) << 8
                    | (report.used.len() as u64) << 24
                    | (report.uncovered_queries.len() as u64) << 40
            }
            Response::Rejected(_) => {
                self.rejected += 1;
                6
            }
        };
        self.fnv = fnv1a(self.fnv, &word.to_le_bytes());
    }

    pub fn fold_all(&mut self, responses: &[Response]) {
        for response in responses {
            self.fold(response);
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "allow={} deny={} rejected={} other={} fnv={:016x}",
            self.allow, self.deny, self.rejected, self.other, self.fnv
        )
    }
}

/// The sequential reference: the whole stream through `apply` on a fresh
/// in-memory `workers: 1` service.  Returns the digest plus the final
/// `totals()` and store-image hash (what `durable` must reopen to).
pub fn reference_run(world: &World, plan: &Plan, seed: u64, stream: &Stream) -> Reference {
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let mut service = build_in_memory(world, plan, seed, config);
    let mut digest = Digest::new();
    for op in stream.warmup.iter().chain(&stream.timed) {
        digest.fold(&service.apply(op));
    }
    Reference {
        digest,
        totals: service.totals(),
        store_hash: store_hash(&service),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reference {
    pub digest: Digest,
    pub totals: (u64, u64),
    pub store_hash: u64,
}

/// FNV-1a over the policy store's checkpoint encoding: per-principal policy
/// ids, consistency words and counters.
pub fn store_hash(service: &DisclosureService) -> u64 {
    let mut image = Vec::new();
    service.store().encode_into(&mut image);
    fnv1a(FNV_OFFSET, &image)
}

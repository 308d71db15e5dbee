//! The traced run's instruments: spans, and the **layer ladder** — a set of
//! stand-alone layer instances the benchmark owns and replays every batch
//! through, one layer at a time, so each layer's time is measured around
//! calls into its public functions without instrumenting the service.
//!
//! The ladder is the paper's three steps spelled out over the same entry
//! points the service uses: `QueryInterner::intern` (canonicalise + intern),
//! `CachedLabeler::label_packed_interned` (label against the security
//! views), `ShardedPolicyStore::decide_packed` (compare with the policy and
//! update state), plus `durable::encode_*` and `WalWriter` on `durable`.
//! Its decisions must equal the service's; a request's service self time is
//! its parent span minus the ladder's child spans for the same batch.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fdc::core::{CachedLabeler, PackedLabel, QueryLabeler, WorkerPool};
use fdc::cq::{ConjunctiveQuery, QueryId};
use fdc::durability::WalWriter;
use fdc::policy::ShardedPolicyStore;
use fdc::service::durable::{encode_add_view, encode_grant, encode_revoke, encode_submit};
use fdc::service::{DurabilityConfig, Operation, Response};

use crate::workload::{self, Plan, World};

/// One timed interval.  `parent` indexes the span that caused it; spans of
/// one request share `req` (the batch index).  Ladder spans are replays:
/// they run right after their parent returned, not inside it.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u32,
}

/// Spans kept in memory and written out as JSON lines at exit.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations of the spans named `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |span| span.name == name)
            .map(|span| span.end_ns - span.start_ns)
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).sum()
    }

    /// Total duration of the spans whose parent is a span named `parent`.
    pub fn children_total(&self, parent: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| {
                span.parent
                    .is_some_and(|p| self.spans[p as usize].name == parent)
            })
            .map(|span| span.end_ns - span.start_ns)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.req
            )?;
        }
        out.flush()
    }
}

/// Where a replay records its child spans.
pub struct SpanSite<'a> {
    pub trace: &'a mut Trace,
    pub parent: u32,
    pub req: u32,
}

/// Labeling batches are split into this many chunks per pool worker, as in
/// the service's pooled stage.
const CHUNKS_PER_WORKER: usize = 4;
/// Shortest run the ladder hands to the pool (`ServiceConfig::default()`'s
/// `parallel_threshold`).
const POOLED_MIN: usize = 32;

/// Sums the ladder keeps beside its spans (rare operations are timed one by
/// one, so their cost is known apart from the pass they sit in).
#[derive(Default)]
pub struct LadderSums {
    pub admissions: u64,
    pub check_ns: u64,
    pub checks: u64,
    pub grant_ns: u64,
    pub grants: u64,
    pub revoke_ns: u64,
    pub revokes: u64,
    pub wal_records: u64,
    /// Appends that returned without flushing.
    pub wal_plain_appends: u64,
    /// Flushes: appends that filled the group plus explicit commits.
    pub wal_commits: u64,
    pub wal_append_ns: u64,
    pub wal_commit_ns: u64,
}

pub struct Ladder {
    labeler: CachedLabeler,
    store: ShardedPolicyStore,
    pool: Arc<WorkerPool>,
    wal: Option<(WalWriter, PathBuf)>,
    /// One boxed representative per distinct shape, in first-seen order.
    pub distinct: Vec<ConjunctiveQuery>,
    seen: HashSet<QueryId>,
    pub sums: LadderSums,
}

impl Ladder {
    /// Stand-alone layer instances over the same registry, policies and
    /// shard count as the service under test.  `wal_dir` is given on
    /// `durable` only.
    pub fn new(
        world: &World,
        plan: &Plan,
        seed: u64,
        num_shards: usize,
        wal_dir: Option<&Path>,
    ) -> io::Result<Ladder> {
        let labeler = CachedLabeler::new(world.views.clone());
        let mut store = ShardedPolicyStore::new(num_shards);
        for policy in workload::policies(world, plan, seed) {
            store.register(policy);
        }
        let wal = match wal_dir {
            Some(dir) => {
                if dir.exists() {
                    fs::remove_dir_all(dir)?;
                }
                fs::create_dir_all(dir)?;
                let writer = WalWriter::create(dir, DurabilityConfig::default(), 1)?;
                Some((writer, dir.to_path_buf()))
            }
            None => None,
        };
        Ok(Ladder {
            labeler,
            store,
            pool: Arc::new(WorkerPool::new(plan.workers)),
            wal,
            distinct: Vec::new(),
            seen: HashSet::new(),
            sums: LadderSums::default(),
        })
    }

    pub fn labeler(&self) -> &CachedLabeler {
        &self.labeler
    }

    /// Replays one batch layer by layer and checks every decision against
    /// the service's `responses`.  With a `site`, each layer's pass over the
    /// batch is recorded as a child span of the request.
    ///
    /// `AuditApp` has no ladder layer (the ladder keeps no history); its
    /// time stays in the service's self time.
    pub fn replay(
        &mut self,
        ops: &[Operation],
        responses: &[Response],
        mut site: Option<SpanSite<'_>>,
    ) -> Result<(), String> {
        let mut span = |name: &'static str, start: Instant, end: Instant| {
            if let Some(site) = site.as_mut() {
                site.trace
                    .push(name, start, end, Some(site.parent), site.req);
            }
        };
        // The service logs the whole batch before executing any of it.
        if let Some((writer, _)) = self.wal.as_mut() {
            let start = Instant::now();
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for op in ops {
                let mut payload = Vec::new();
                match op {
                    Operation::Submit { principal, query } => {
                        encode_submit(*principal, query, &mut payload)
                    }
                    Operation::GrantView { principal, view } => {
                        encode_grant(*principal, view, &mut payload)
                    }
                    Operation::RevokeView { principal, view } => {
                        encode_revoke(*principal, view, &mut payload)
                    }
                    Operation::AddSecurityView { name, query } => {
                        encode_add_view(name, query, &mut payload)
                    }
                    _ => continue,
                }
                payloads.push(payload);
            }
            let encoded = Instant::now();
            span("service.wal_encode", start, encoded);
            let mut commits = writer.stats().commits;
            for payload in &payloads {
                let before = Instant::now();
                writer
                    .append(payload)
                    .map_err(|e| format!("ladder WAL append: {e}"))?;
                let took = before.elapsed().as_nanos() as u64;
                // An append that fills the group-commit batch flushes
                // and fsyncs inside the call: that is commit time.
                let now = writer.stats().commits;
                if now == commits {
                    self.sums.wal_append_ns += took;
                    self.sums.wal_plain_appends += 1;
                } else {
                    self.sums.wal_commit_ns += took;
                    self.sums.wal_commits += now - commits;
                    commits = now;
                }
            }
            let before = Instant::now();
            writer
                .commit()
                .map_err(|e| format!("ladder WAL commit: {e}"))?;
            let end = Instant::now();
            self.sums.wal_commit_ns += (end - before).as_nanos() as u64;
            self.sums.wal_commits += writer.stats().commits - commits;
            self.sums.wal_records += payloads.len() as u64;
            span("durability.wal", encoded, end);
        }

        // Segments end at `AddSecurityView`, the only op that changes what
        // a label is.
        let mut start = 0;
        while start <= ops.len() {
            let end = ops[start..]
                .iter()
                .position(|op| matches!(op, Operation::AddSecurityView { .. }))
                .map_or(ops.len(), |offset| start + offset);
            self.replay_segment(&ops[start..end], &responses[start..end], &mut span)?;
            if let Some(Operation::AddSecurityView { name, query }) = ops.get(end) {
                let before = Instant::now();
                let added = self.labeler.add_view(name, query.clone());
                span("core.add_view", before, Instant::now());
                let served = matches!(responses[end], Response::ViewAdded(_));
                if added.is_ok() != served {
                    return Err(format!(
                        "AddSecurityView `{name}` disagrees with the service"
                    ));
                }
            }
            start = end + 1;
        }
        Ok(())
    }

    fn replay_segment(
        &mut self,
        ops: &[Operation],
        responses: &[Response],
        span: &mut impl FnMut(&'static str, Instant, Instant),
    ) -> Result<(), String> {
        if ops.is_empty() {
            return Ok(());
        }
        // Layer `cq`: canonicalise + intern every admission's query.
        let before = Instant::now();
        let mut ids: Vec<QueryId> = Vec::with_capacity(ops.len());
        {
            let handle = self.labeler.interner();
            let mut interner = handle.write().unwrap_or_else(|e| e.into_inner());
            for op in ops {
                if let Operation::Submit { query, .. } | Operation::Check { query, .. } = op {
                    ids.push(interner.intern(query));
                }
            }
        }
        span("cq.intern", before, Instant::now());
        // Outside any span: remember one boxed query per distinct shape.
        let mut k = 0;
        for op in ops {
            if let Operation::Submit { query, .. } | Operation::Check { query, .. } = op {
                if self.seen.insert(ids[k]) {
                    self.distinct.push(query.clone());
                }
                k += 1;
            }
        }

        // Layer `core`: label by id — inline, or on the pool through a
        // snapshot with one overlay lane per worker when the plan is pooled.
        let before = Instant::now();
        let labels: Vec<Vec<PackedLabel>> = if self.pool.workers() > 1 && ids.len() >= POOLED_MIN {
            let snapshot = Arc::new(self.labeler.snapshot_with_lanes(self.pool.workers() + 1));
            let built = Instant::now();
            span("core.snapshot.build", before, built);
            let chunk_len = ids
                .len()
                .div_ceil(self.pool.workers() * CHUNKS_PER_WORKER)
                .max(1);
            let chunks: Vec<Vec<QueryId>> = ids.chunks(chunk_len).map(<[_]>::to_vec).collect();
            let shared = Arc::clone(&snapshot);
            let labeled = self.pool.run(chunks, move |chunk, ctx| {
                let lane = shared.lane_for(ctx);
                chunk
                    .into_iter()
                    .map(|id| shared.label_packed_interned_in(lane, id))
                    .collect::<Vec<_>>()
            });
            let ran = Instant::now();
            span("core.label", built, ran);
            self.labeler.retire_snapshot(&snapshot);
            span("core.snapshot.retire", ran, Instant::now());
            labeled.into_iter().flatten().collect()
        } else {
            let labels = ids
                .iter()
                .map(|&id| self.labeler.label_packed_interned(id))
                .collect();
            span("core.label", before, Instant::now());
            labels
        };

        // Layer `policy`: decisions and grants/revokes in stream order.
        let before = Instant::now();
        let registry = self.labeler.security_views();
        let mut labels = labels.into_iter();
        for (op, response) in ops.iter().zip(responses) {
            let (principal, commit) = match op {
                Operation::Submit { principal, .. } => (*principal, true),
                Operation::Check { principal, .. } => (*principal, false),
                Operation::GrantView { principal, view }
                | Operation::RevokeView { principal, view } => {
                    let grant = matches!(op, Operation::GrantView { .. });
                    let id = registry
                        .id_by_name(view)
                        .ok_or_else(|| format!("ladder does not know view `{view}`"))?;
                    let at = Instant::now();
                    if grant {
                        self.store.grant_view(*principal, registry, id);
                        self.sums.grant_ns += at.elapsed().as_nanos() as u64;
                        self.sums.grants += 1;
                    } else {
                        self.store.revoke_view(*principal, registry, id);
                        self.sums.revoke_ns += at.elapsed().as_nanos() as u64;
                        self.sums.revokes += 1;
                    }
                    continue;
                }
                _ => continue,
            };
            let label = labels.next().expect("one label per admission");
            let decision = if commit {
                self.store.decide_packed(principal, &label, true)
            } else {
                // Checks are a tenth of the admissions: timed one by one.
                let at = Instant::now();
                let decision = self.store.decide_packed(principal, &label, false);
                self.sums.check_ns += at.elapsed().as_nanos() as u64;
                self.sums.checks += 1;
                decision
            };
            if response.decision() != Some(decision) {
                return Err(format!(
                    "ladder decided {decision:?} for principal {} where the service answered \
                     {response:?}",
                    principal.0
                ));
            }
        }
        span("policy.apply", before, Instant::now());
        self.sums.admissions += ids.len() as u64;
        Ok(())
    }

    /// Removes the ladder's WAL directory.
    pub fn cleanup(&mut self) {
        if let Some((writer, dir)) = self.wal.take() {
            drop(writer);
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// The label layer's three phases over a workload's distinct shapes, on a
/// fresh labeler: first sight (intern-insert, then the full pipeline), a
/// relabel (hits), and a relabel after one `add_view` (stale refreshes).
pub struct LabelPhases {
    pub intern_first_ns: f64,
    pub intern_repeat_ns: f64,
    pub miss_ns: f64,
    pub hit_ns: f64,
    /// `None` when the added view staled no cached shape.
    pub refresh_ns: Option<f64>,
    pub add_view_ns: f64,
    pub shapes: usize,
}

pub fn label_phases(world: &World, distinct: &[ConjunctiveQuery]) -> Option<LabelPhases> {
    if distinct.is_empty() {
        return None;
    }
    let n = distinct.len() as f64;
    let mut labeler = CachedLabeler::new(world.views.clone());
    let interner = labeler.interner();
    let intern_all = || -> (Vec<QueryId>, f64) {
        let mut guard = interner.write().unwrap_or_else(|e| e.into_inner());
        let before = Instant::now();
        let ids = distinct.iter().map(|q| guard.intern(q)).collect();
        (ids, before.elapsed().as_nanos() as f64 / n)
    };
    let (ids, intern_first_ns) = intern_all();
    let (_, intern_repeat_ns) = intern_all();
    let label_all = |labeler: &CachedLabeler| -> f64 {
        let before = Instant::now();
        for &id in &ids {
            std::hint::black_box(labeler.label_packed_interned(id));
        }
        before.elapsed().as_nanos() as f64
    };
    let miss_ns = label_all(&labeler) / n;
    let hit_ns = label_all(&labeler) / n;
    // One more projection view over `User`: every cached shape with a
    // `User` atom goes stale, the rest keep hitting.
    let user = world.schema.user();
    let view =
        fdc::ecosystem::views::projection_view(&world.schema, user, &["uid", "is_friend", "name"]);
    let before = Instant::now();
    labeler
        .add_view("svc_bench_probe_view", view)
        .expect("the User relation has view budget left");
    let add_view_ns = before.elapsed().as_nanos() as f64;
    let stats = labeler.stats();
    let relabel_ns = label_all(&labeler);
    let refreshed = (labeler.stats().query_refreshes - stats.query_refreshes) as f64;
    let refresh_ns =
        (refreshed > 0.0).then(|| ((relabel_ns - (n - refreshed) * hit_ns) / refreshed).max(0.0));
    Some(LabelPhases {
        intern_first_ns,
        intern_repeat_ns,
        miss_ns,
        hit_ns,
        refresh_ns,
        add_view_ns,
        shapes: distinct.len(),
    })
}

/// ns per item of one 1 024-item no-op `WorkerPool::run` at `width`
/// (median of several), on a pool of the ladder's own.
pub fn pool_roundtrip_ns(width: usize) -> f64 {
    const ITEMS: usize = 1_024;
    let pool = WorkerPool::new(width);
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let inputs: Vec<usize> = (0..ITEMS).collect();
            let before = Instant::now();
            let out = pool.run(inputs, |item, _| item);
            let ns = before.elapsed().as_nanos() as f64;
            std::hint::black_box(out);
            ns / ITEMS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

//! One run of one workload: set-up, the sequential reference, then rounds.
//!
//! Every round builds a fresh service, warms it up untimed and replays the
//! identical timed stream (a fixed op count, so both sides of a later
//! comparison do identical work); `--seconds` only decides how many rounds
//! a run holds.  `measure` turns the rounds into metrics.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fdc::core::CacheStats;
use fdc::service::{DisclosureService, Operation, Response, ServiceStats};

use crate::hist::Histogram;
use crate::ladder::{Ladder, LadderSums, SpanSite, Trace};
use crate::measure::median;
use crate::workload::{
    self, dir_bytes, store_hash, Digest, Plan, Reference, Stream, Workload, World, BATCH_OPS,
};

/// The median-latency metric of each operation kind on `single_op`, indexed
/// by [`kind_of`].
pub const KIND_P50_METRICS: [&str; 6] = [
    "service.apply.submit_p50_ns",
    "service.apply.check_p50_ns",
    "service.apply.grant_p50_ns",
    "service.apply.revoke_p50_ns",
    "service.apply.add_view_p50_ns",
    "service.apply.audit_p50_ns",
];

fn kind_of(op: &Operation) -> usize {
    match op {
        Operation::Submit { .. } | Operation::SubmitInterned { .. } => 0,
        Operation::Check { .. } | Operation::CheckInterned { .. } => 1,
        Operation::GrantView { .. } => 2,
        Operation::RevokeView { .. } => 3,
        Operation::AddSecurityView { .. } => 4,
        Operation::AuditApp { .. } => 5,
    }
}

/// Everything a run sets up once, before its rounds.
pub struct Prepared {
    pub world: World,
    pub plan: Plan,
    pub seed: u64,
    pub stream: Stream,
    pub reference: Reference,
    /// Scratch directory of this process; `durable` writes below it.
    pub scratch: PathBuf,
    /// Seconds of set-up ahead of the rounds: generation + reference run
    /// (median over the times it was done), plus seeding on `durable`.
    pub once_s: f64,
}

impl Prepared {
    /// Sets a run up.  The stream and its sequential reference are made
    /// `setups` times over (same seed, same result) so that the untraced run
    /// can report the median set-up time, not one draw of it.
    pub fn new(
        workload: Workload,
        seed: u64,
        scale_div: usize,
        scratch: &Path,
        setups: usize,
    ) -> Result<Prepared, String> {
        let plan = Plan::new(workload, scale_div)?;
        let world = World::new();
        let mut timings = Vec::new();
        let (stream, reference) = loop {
            let started = Instant::now();
            let stream = workload::generate(&world, &plan, seed);
            let reference = workload::reference_run(&world, &plan, seed, &stream);
            timings.push(started.elapsed().as_secs_f64());
            if timings.len() >= setups {
                break (stream, reference);
            }
        };
        if reference.digest.rejected != 0 {
            return Err(format!(
                "the reference run rejected {} operations: workloads must not contain \
                 operations that fail",
                reference.digest.rejected
            ));
        }
        fs::create_dir_all(scratch).map_err(|e| format!("scratch {}: {e}", scratch.display()))?;
        let mut prepared = Prepared {
            world,
            plan,
            seed,
            stream,
            reference,
            scratch: scratch.to_path_buf(),
            once_s: median(timings),
        };
        if plan.durable {
            let started = Instant::now();
            workload::seed_directory(&prepared.world, &plan, seed, &prepared.seed_dir())
                .map_err(|e| format!("seeding the durable directory: {e}"))?;
            prepared.once_s += started.elapsed().as_secs_f64();
        }
        Ok(prepared)
    }

    fn seed_dir(&self) -> PathBuf {
        self.scratch.join("seed")
    }

    fn round_dir(&self) -> PathBuf {
        self.scratch.join("round")
    }

    pub fn ladder_wal_dir(&self) -> PathBuf {
        self.scratch.join("ladder-wal")
    }
}

/// What the `durable` workload measures beside serving.
#[derive(Clone, Copy, Default)]
pub struct DurableRound {
    pub checkpoint_ns: u64,
    /// The three halves of the checkpoint, timed apart in traced rounds.
    pub begin_ns: u64,
    pub encode_ns: u64,
    pub complete_ns: u64,
    pub checkpoint_bytes: u64,
    /// WAL bytes written during the timed part.
    pub wal_bytes: u64,
    pub recovery_ns: u64,
    pub records_replayed: u64,
    /// `open_durable` of a copy of the directory right after the
    /// checkpoint: bulk-load with nothing to replay (traced rounds only).
    pub bulkload_ns: Option<u64>,
}

/// One round's measurements.
pub struct Round {
    /// Service build (or directory copy + open) and warm-up.
    pub setup_s: f64,
    /// Summed request latencies of the timed part.
    pub exec_ns: u64,
    pub requests: Histogram,
    /// The same latencies in stream order (ns, saturating at 4.29 s): the
    /// stream is identical in every round, so entry `i` of two rounds timed
    /// the same work.
    pub latencies: Vec<u32>,
    /// Per-kind latencies (`single_op`, untraced rounds).
    pub kinds: Vec<Histogram>,
    pub digest: Digest,
    /// Service labeler counters over the timed part (`entries`: at the end).
    pub cache: CacheStats,
    /// Service counters over the timed part (`parallel`: whole round).
    pub stats: ServiceStats,
    pub state_bytes: usize,
    /// Resolved policy-shard count of the service.
    pub num_shards: usize,
    /// Median ns of `DisclosureService::snapshot` on the warm service
    /// (traced rounds only).
    pub snapshot_build_ns: Option<f64>,
    pub durable: Option<DurableRound>,
}

fn cache_delta(end: CacheStats, start: CacheStats) -> CacheStats {
    CacheStats {
        hits: end.hits - start.hits,
        misses: end.misses - start.misses,
        entries: end.entries,
        atom_hits: end.atom_hits - start.atom_hits,
        atom_misses: end.atom_misses - start.atom_misses,
        atom_entries: end.atom_entries,
        query_refreshes: end.query_refreshes - start.query_refreshes,
        atom_refreshes: end.atom_refreshes - start.atom_refreshes,
        invalidations: end.invalidations - start.invalidations,
        batch_dedup_hits: end.batch_dedup_hits - start.batch_dedup_hits,
    }
}

/// Name of the parent span around one executor call.  On `single_op` a span
/// groups 1 024 consecutive `apply` calls: a span per 2 µs call would
/// measure the timer.
pub fn request_span(plan: &Plan) -> &'static str {
    if plan.batch == 1 {
        "service.apply_x1024"
    } else {
        "service.run_pipelined"
    }
}

fn execute(service: &mut DisclosureService, plan: &Plan, ops: &[Operation]) -> Vec<Response> {
    if plan.batch == 1 {
        ops.iter().map(|op| service.apply(op)).collect()
    } else {
        service.run_pipelined(ops)
    }
}

/// The traced round's instruments.
pub struct Tracing<'a> {
    pub trace: &'a mut Trace,
    pub ladder: &'a mut Ladder,
}

/// Runs one round.  With `tracing`, every executor / checkpoint / close /
/// open call on the service is wrapped in a parent span and every batch is
/// replayed through the ladder right after the service answered it.
pub fn run_round(prep: &Prepared, mut tracing: Option<Tracing<'_>>) -> Result<Round, String> {
    let plan = &prep.plan;
    let io_err = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let setup_started = Instant::now();
    let round_dir = prep.round_dir();
    let mut service = if plan.durable {
        workload::open_round_directory(&prep.world, plan, &prep.seed_dir(), &round_dir)
            .map_err(|e| io_err("opening the round directory", e))?
            .0
    } else {
        workload::build_in_memory(&prep.world, plan, prep.seed, plan.service_config())
    };
    let mut digest = Digest::new();
    for chunk in prep.stream.warmup.chunks(BATCH_OPS) {
        let responses = execute(&mut service, plan, chunk);
        digest.fold_all(&responses);
        if let Some(t) = tracing.as_mut() {
            t.ladder.replay(chunk, &responses, None)?;
        }
    }
    if let Some(t) = tracing.as_mut() {
        // Spans cover the timed part only; so must the sums they are
        // divided by.
        t.ladder.sums = LadderSums::default();
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let cache_start = service.labeler().stats();
    let stats_start = service.stats();
    let (wal_start, ckpt_start) = if plan.durable {
        (
            dir_bytes(&round_dir, "wal-").map_err(|e| io_err("sizing the WAL", e))?,
            dir_bytes(&round_dir, "ckpt-").map_err(|e| io_err("sizing checkpoints", e))?,
        )
    } else {
        (0, 0)
    };
    let per_op = plan.batch == 1 && tracing.is_none();
    let request_span = request_span(plan);
    let mut requests = Histogram::new();
    let mut latencies: Vec<u32> = Vec::with_capacity(prep.stream.timed.len() / plan.batch + 1);
    let mut kinds: Vec<Histogram> = if per_op {
        KIND_P50_METRICS.iter().map(|_| Histogram::new()).collect()
    } else {
        Vec::new()
    };
    let mut exec_ns = 0u64;
    let mut durable = plan.durable.then(DurableRound::default);
    let chunks: Vec<&[Operation]> = prep.stream.timed.chunks(BATCH_OPS).collect();
    let middle = (chunks.len() - 1) / 2;
    for (req, chunk) in chunks.iter().enumerate() {
        let mut parent = None;
        let responses = if per_op {
            let mut responses = Vec::with_capacity(chunk.len());
            for op in chunk.iter() {
                let before = Instant::now();
                let response = service.apply(op);
                let ns = before.elapsed().as_nanos() as u64;
                requests.record(ns);
                latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
                kinds[kind_of(op)].record(ns);
                exec_ns += ns;
                responses.push(response);
            }
            responses
        } else {
            let before = Instant::now();
            let responses = execute(&mut service, plan, chunk);
            let after = Instant::now();
            let ns = (after - before).as_nanos() as u64;
            requests.record(ns);
            latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
            exec_ns += ns;
            if let Some(t) = tracing.as_mut() {
                parent = Some(t.trace.push(request_span, before, after, None, req as u32));
            }
            responses
        };
        digest.fold_all(&responses);
        if let Some(t) = tracing.as_mut() {
            let site = SpanSite {
                trace: t.trace,
                parent: parent.expect("traced requests have a parent span"),
                req: req as u32,
            };
            t.ladder.replay(chunk, &responses, Some(site))?;
        }
        if let (Some(durable), true) = (durable.as_mut(), req == middle) {
            checkpoint(&mut service, durable, tracing.as_mut(), req as u32)
                .map_err(|e| io_err("mid-run checkpoint", e))?;
            if tracing.is_some() {
                durable.bulkload_ns = Some(
                    bulkload_probe(prep, &round_dir).map_err(|e| io_err("bulk-load probe", e))?,
                );
            }
        }
    }

    let cache = cache_delta(service.labeler().stats(), cache_start);
    let mut stats = service.stats();
    stats.admissions -= stats_start.admissions;
    stats.mutations -= stats_start.mutations;
    stats.audits -= stats_start.audits;
    stats.durability.wal_appends -= stats_start.durability.wal_appends;
    stats.durability.wal_commits -= stats_start.durability.wal_commits;
    stats.durability.wal_fsyncs -= stats_start.durability.wal_fsyncs;
    stats.durability.wal_records_committed -= stats_start.durability.wal_records_committed;
    let state_bytes = service.store().state_bytes();
    let num_shards = service.config().num_shards;
    let snapshot_build_ns = tracing.is_some().then(|| {
        median(
            (0..15)
                .map(|_| {
                    let before = Instant::now();
                    let snapshot = service.snapshot();
                    let ns = before.elapsed().as_nanos() as f64;
                    drop(snapshot);
                    ns
                })
                .collect(),
        )
    });

    let totals = service.totals();
    let image = store_hash(&service);
    // A service recovered from a checkpoint interns its policies in the
    // image's order, not registration order, so only in-memory services are
    // held to the reference's store image; `durable` is held to its totals
    // here and to its own image across the reopen below.
    let image_expected = if plan.durable {
        image
    } else {
        prep.reference.store_hash
    };
    if (totals, image) != (prep.reference.totals, image_expected) {
        return Err(format!(
            "final state differs from the reference: totals {totals:?} vs {:?}, store image \
             {image:016x} vs {:016x}",
            prep.reference.totals, prep.reference.store_hash
        ));
    }
    if let Some(durable) = durable.as_mut() {
        durable.wal_bytes =
            dir_bytes(&round_dir, "wal-").map_err(|e| io_err("sizing the WAL", e))? - wal_start;
        durable.checkpoint_bytes = dir_bytes(&round_dir, "ckpt-")
            .map_err(|e| io_err("sizing checkpoints", e))?
            - ckpt_start;
        let last = chunks.len() as u32;
        let before = Instant::now();
        service.close().map_err(|e| io_err("close", e))?;
        let closed = Instant::now();
        let (reopened, report) = DisclosureService::open_durable(
            prep.world.views.clone(),
            plan.service_config(),
            &round_dir,
        )
        .map_err(|e| io_err("reopening the round directory", e))?;
        let ready = Instant::now();
        if let Some(t) = tracing.as_mut() {
            t.trace.push("service.close", before, closed, None, last);
            t.trace
                .push("service.open_durable", closed, ready, None, last);
        }
        durable.recovery_ns = (ready - closed).as_nanos() as u64;
        durable.records_replayed = report.records_replayed;
        let reopened_state = (reopened.totals(), store_hash(&reopened));
        if reopened_state != (totals, image) {
            return Err(format!(
                "durable reopened to totals {:?} / store image {:016x}, but closed with \
                 {totals:?} / {image:016x}",
                reopened_state.0, reopened_state.1
            ));
        }
        drop(reopened);
        fs::remove_dir_all(&round_dir).map_err(|e| io_err("removing the round directory", e))?;
    }
    Ok(Round {
        setup_s,
        exec_ns,
        requests,
        latencies,
        kinds,
        digest,
        cache,
        stats,
        state_bytes,
        num_shards,
        snapshot_build_ns,
        durable,
    })
}

/// The mid-run checkpoint: `checkpoint()` as callers see it, or its three
/// halves under one parent span in a traced round.
fn checkpoint(
    service: &mut DisclosureService,
    durable: &mut DurableRound,
    tracing: Option<&mut Tracing<'_>>,
    req: u32,
) -> std::io::Result<()> {
    let started = Instant::now();
    match tracing {
        None => {
            service.checkpoint()?;
        }
        Some(t) => {
            let pending = service.begin_checkpoint()?;
            let begun = Instant::now();
            let payload = pending.encode();
            let encoded = Instant::now();
            service.complete_checkpoint(&pending, &payload)?;
            let completed = Instant::now();
            let parent = t
                .trace
                .push("service.checkpoint", started, completed, None, req);
            for (name, from, to) in [
                ("service.checkpoint.begin", started, begun),
                ("service.checkpoint.encode", begun, encoded),
                ("service.checkpoint.complete", encoded, completed),
            ] {
                t.trace.push(name, from, to, Some(parent), req);
            }
            durable.begin_ns = (begun - started).as_nanos() as u64;
            durable.encode_ns = (encoded - begun).as_nanos() as u64;
            durable.complete_ns = (completed - encoded).as_nanos() as u64;
        }
    }
    durable.checkpoint_ns = started.elapsed().as_nanos() as u64;
    Ok(())
}

/// Opens a copy of the round directory as it stands right after the
/// checkpoint (image on disk, fresh empty segment): recovery with nothing
/// to replay, i.e. the bulk-load alone.
fn bulkload_probe(prep: &Prepared, round_dir: &Path) -> std::io::Result<u64> {
    let copy = prep.scratch.join("bulkload");
    let before = Instant::now();
    let (service, _) = workload::open_round_directory(&prep.world, &prep.plan, round_dir, &copy)?;
    let ns = before.elapsed().as_nanos() as u64;
    drop(service);
    fs::remove_dir_all(&copy)?;
    Ok(ns)
}

/// `apply` at the default `history_cap` minus `apply` at 0 over the same
/// operations (the stream's first `sample` ops), per submit.  The two
/// services take turns, one 1 024-op chunk each, so drift of the host hits
/// both alike instead of landing in the difference.
pub fn history_probe(prep: &Prepared, sample: usize) -> f64 {
    let ops: Vec<&Operation> = prep
        .stream
        .warmup
        .iter()
        .chain(&prep.stream.timed)
        .take(sample)
        .collect();
    let submits = ops
        .iter()
        .filter(|op| matches!(op, Operation::Submit { .. }))
        .count()
        .max(1);
    let build = |history_cap: usize| {
        let config = fdc::service::ServiceConfig {
            history_cap,
            ..prep.plan.service_config()
        };
        workload::build_in_memory(&prep.world, &prep.plan, prep.seed, config)
    };
    let mut sides = [
        (build(prep.plan.service_config().history_cap), 0u64),
        (build(0), 0u64),
    ];
    for chunk in ops.chunks(BATCH_OPS) {
        for (service, ns) in &mut sides {
            let before = Instant::now();
            for op in chunk {
                std::hint::black_box(service.apply(op));
            }
            *ns += before.elapsed().as_nanos() as u64;
        }
    }
    (sides[0].1 as f64 - sides[1].1 as f64) / submits as f64
}

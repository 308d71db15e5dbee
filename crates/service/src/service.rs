//! The disclosure-control front door.
//!
//! A request — one `apply` or one `run_pipelined` call — is the unit: one
//! write-ahead commit, then every operation answered at its stream
//! position.  It owns two buffers, and a warm admission allocates nothing
//! beyond them:
//!
//! ```text
//!  responses    [ D ][ D ][ P ][ V ][ D ] …   one per operation, pushed in
//!                                             request order
//!  label arena  ▒▒▒│▒│▒▒▒▒│▒▒│ …   a label packed end to end, copied from
//!               its cache entry (`append_packed_interned`)
//! ```
//!
//! An admission is labeled into the arena, the policy store decides the
//! label where it lies, and a committed submission becomes one 8-byte
//! append to the audit history's log (see the `history` module) — the
//! paper's three steps, on the calling thread (`admit`).  The arena belongs
//! to the service between requests, so a warm one reuses its capacity.

use std::cell::Ref;
use std::io;
use std::path::Path;
use std::sync::Arc;

use fdc_core::{
    CacheStats, CachedLabeler, DoorStats, PackedLabel, QueryLabeler, SecurityViews,
    DEFAULT_INTERN_BUDGET, MAX_PACKED_VIEWS_PER_RELATION,
};
use fdc_cq::intern::{QueryId, QueryInterner};
use fdc_cq::{ConjunctiveQuery, RelId};
use fdc_durability::codec::{CodecError, Cursor};
use fdc_durability::{
    checkpoint_seqs, latest_checkpoint, prune_checkpoints, prune_segments, read_log,
    sweep_stale_temps, write_checkpoint, Clock, DurabilityConfig, StdVfs, SystemClock, Vfs,
    WalStats, WalWriter,
};
use fdc_policy::{
    audit_labels, requested_views, AuditReport, Decision, PolicyStore, PrincipalId, SecurityPolicy,
    MAX_PARTITIONS,
};

use crate::durable::{self, DurableState, RecoveryReport, WalOp};
use crate::health::{DurabilityHealth, ServiceMode};
use crate::history::History;
use crate::ops::{Operation, PolicyBound, Response, ServiceError};

/// Checkpoints retained on disk after
/// [`DisclosureService::checkpoint`] prunes: the newest plus one
/// predecessor, so a checkpoint file corrupted in place (partial write,
/// bit rot) still leaves a valid older image to recover from.
const CHECKPOINTS_KEPT: usize = 2;

/// The first relation of `views` with more views than a packed label holds
/// ([`MAX_PACKED_VIEWS_PER_RELATION`]), if any.
fn over_packed_budget(views: &SecurityViews) -> Option<RelId> {
    (0..views.catalog().len() as u32)
        .map(RelId)
        .find(|&relation| views.views_for_relation(relation).len() > MAX_PACKED_VIEWS_PER_RELATION)
}

/// Configuration of a [`DisclosureService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ignored: the service holds one policy store.  Kept so that
    /// `svc_bench`'s `run.rs` compiles; delete with ROADMAP item 1.
    pub num_shards: usize,
    /// Ignored: every request is served on the calling thread.  Kept so
    /// that `svc_bench`'s `Plan::service_config` compiles; delete with
    /// ROADMAP item 1.
    pub workers: usize,
    /// Per-principal cap on the observed-workload history that backs
    /// `AuditApp` (a bounded ring of the interned ids of recently submitted
    /// queries).  `0` disables history recording — and with it auditing —
    /// for memory-critical deployments.  All rings share one log with
    /// 32-bit links, so `principals × history_cap` must stay below 2³²: a
    /// record that would not fit panics instead of wrapping a link (8 bytes
    /// an entry, that is 32 GiB of history first).
    pub history_cap: usize,
    /// Write-ahead-log tuning (segment rotation size, fsync, retries)
    /// for services opened with
    /// [`open_durable`](DisclosureService::open_durable).  Ignored by
    /// in-memory services built with [`new`](DisclosureService::new).
    pub durability: DurabilityConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            num_shards: 1,
            workers: 1,
            history_cap: 1024,
            durability: DurabilityConfig::default(),
        }
    }
}

/// Service-level counters, complementing the labeler's
/// [`CacheStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Admissions served (submits + checks that reached a decision).
    pub admissions: u64,
    /// Mutations applied (grants + revokes + view additions).
    pub mutations: u64,
    /// Audits served.
    pub audits: u64,
    /// Durability health (WAL, checkpoint and serving-mode counters).
    /// All zeros on in-memory services.
    pub durability: DurabilityHealth,
    /// Always zero; read by `svc_bench`'s `measure.rs`.  Delete with
    /// ROADMAP item 1.
    #[doc(hidden)]
    pub parallel: crate::compat::ParallelStats,
}

/// The single front door of the disclosure-control system.
///
/// A `DisclosureService` owns the three moving parts the static pipeline of
/// PR 2 kept frozen — the [`SecurityViews`] registry (inside the labeler),
/// the epoch-aware [`CachedLabeler`] and the [`PolicyStore`] — and
/// serves a mixed stream of admissions, policy mutations, view-universe
/// mutations and audits:
///
/// * **Admissions** (`Submit` / `Check`) run the fused hot path: canonical
///   cache hit → packed label → bit-mask decision, on the calling thread.
/// * **Policy mutations** (`GrantView` / `RevokeView`) flip the view's bit
///   in a copy of the principal's compiled policy and re-resolve it against
///   the policy arena, preserving the consistency word and counters; the
///   label caches are untouched (labels do not depend on policies), so a
///   grant is an O(policy size) operation however warm the cache is.
/// * **View-universe mutations** (`AddSecurityView`) register the view
///   online and bump only the affected relation's epoch: cached labels over
///   other relations keep hitting, and stale entries re-derive just their
///   stale atoms on next use.
/// * **Audits** (`AuditApp`) compare a principal's requested permissions
///   (derived from its live policy) against its observed workload (a
///   bounded per-principal history of submitted queries), surfacing
///   overprivileged apps exactly as Section 2.2 envisions.
///
/// Mutations take effect at their position in the stream: a grant between
/// two submits is observed by the second and not the first, in a batch as
/// in sequential processing (asserted by the property tests).
#[derive(Debug)]
pub struct DisclosureService {
    /// The labeling stage, and the owner of the query interner — the id
    /// authority behind every `SubmitInterned` / `CheckInterned`
    /// operation: callers obtain ids through [`intern`](Self::intern) and
    /// the service validates them at admission time.  Outside this
    /// crate it is lent only as a [`LabelerView`], which cannot mint.
    pub(crate) labeler: CachedLabeler,
    store: PolicyStore,
    /// Per-principal ring of recently submitted queries (capped at
    /// `config.history_cap`), the observed workload `AuditApp` audits
    /// against — held as the interned ids the admissions resolved to, in
    /// one append-only log (see [`History`]).  Empty rings when history is
    /// disabled.
    history: History,
    /// The label arena an admission labels into (see the module docs),
    /// kept between requests so a warm one reuses its capacity.
    arena: Vec<PackedLabel>,
    config: ServiceConfig,
    stats: ServiceStats,
    /// The write-ahead log, present only on services opened with
    /// [`open_durable`](Self::open_durable).  `None` during recovery
    /// replay too, which is what keeps replayed operations from being
    /// re-logged.
    durable: Option<DurableState>,
}

/// The query operand of one admission: a borrowed boxed query or an
/// interned id.  Operations arrive in either form; the front door
/// (`DisclosureService::admit`) turns every operand it can into `Interned`, and
/// everything after it — labeling, the audit history — works by id.  Past
/// the front door `Plain` is the one shape that has no id: a never-seen
/// query arriving after the labeler's arena budget is spent, which must
/// not be interned or the arena bound is lost.
#[derive(Clone, Copy)]
pub(crate) enum AdmissionQuery<'a> {
    Plain(&'a ConjunctiveQuery),
    Interned(QueryId),
}

/// One operation in borrowed form — what an [`Operation`] of a batch and
/// the operands of a typed method (`submit`, `grant_view`, …) both reduce
/// to, so that logging and execution exist once, over this type.
#[derive(Clone, Copy)]
enum Request<'a> {
    /// An admission: the operand as submitted, and whether the decision
    /// commits (`Submit*`) or only probes (`Check*`).
    Admit {
        principal: PrincipalId,
        query: AdmissionQuery<'a>,
        commit: bool,
    },
    /// A `GrantView` (`grant`) or `RevokeView`.
    SetView {
        principal: PrincipalId,
        view: &'a str,
        grant: bool,
    },
    AddView {
        name: &'a str,
        query: &'a ConjunctiveQuery,
    },
    Audit {
        principal: PrincipalId,
    },
}

impl<'a> From<&'a Operation> for Request<'a> {
    fn from(op: &'a Operation) -> Self {
        let admit = |principal, query, commit| Request::Admit {
            principal,
            query,
            commit,
        };
        match op {
            Operation::Submit { principal, query } => {
                admit(*principal, AdmissionQuery::Plain(query), true)
            }
            Operation::Check { principal, query } => {
                admit(*principal, AdmissionQuery::Plain(query), false)
            }
            Operation::SubmitInterned { principal, query } => {
                admit(*principal, AdmissionQuery::Interned(*query), true)
            }
            Operation::CheckInterned { principal, query } => {
                admit(*principal, AdmissionQuery::Interned(*query), false)
            }
            Operation::GrantView { principal, view } => Request::SetView {
                principal: *principal,
                view,
                grant: true,
            },
            Operation::RevokeView { principal, view } => Request::SetView {
                principal: *principal,
                view,
                grant: false,
            },
            Operation::AddSecurityView { name, query } => Request::AddView { name, query },
            Operation::AuditApp { principal } => Request::Audit {
                principal: *principal,
            },
        }
    }
}

/// A deep copy of the service's state: the labeler (with its registry,
/// interner and label cache), the policy store, the audit history, the
/// configuration and the counters.  The copy and the original serve
/// independently from then on.  A clone of a durable service is an
/// in-memory copy: it holds no write-ahead log, so it logs nothing and
/// serving on it changes nothing on disk.
impl Clone for DisclosureService {
    fn clone(&self) -> Self {
        DisclosureService {
            stats: self.stats.clone(),
            ..Self::assemble(
                self.labeler.clone(),
                self.store.clone(),
                self.history.clone(),
                self.config,
            )
        }
    }
}

impl DisclosureService {
    /// Builds a service over a security-view registry.
    ///
    /// # Panics
    ///
    /// Panics if any relation of the registry already exceeds the packed
    /// per-relation view budget
    /// ([`MAX_PACKED_VIEWS_PER_RELATION`] = 32): the service serves the
    /// packed 64-bit label path end to end, where wider masks would
    /// silently truncate.
    pub fn new(views: SecurityViews, config: ServiceConfig) -> Self {
        if let Some(relation) = over_packed_budget(&views) {
            panic!(
                "relation `{}` exceeds the {MAX_PACKED_VIEWS_PER_RELATION}-view packed budget; \
                 wide registries must stay on the unpacked labelers",
                views.catalog().name(relation)
            );
        }
        Self::with_labeler(CachedLabeler::new(views), config)
    }

    /// [`new`](Self::new) over a caller-built labeling stage (the unit
    /// tests size the labeler's arena budget down to reach the
    /// over-budget admission path).
    pub(crate) fn with_labeler(labeler: CachedLabeler, config: ServiceConfig) -> Self {
        let history = History::new(config.history_cap);
        Self::assemble(labeler, PolicyStore::new(), history, config)
    }

    /// Puts a service together from its stateful parts, fresh or decoded.
    fn assemble(
        labeler: CachedLabeler,
        store: PolicyStore,
        history: History,
        config: ServiceConfig,
    ) -> Self {
        DisclosureService {
            labeler,
            config,
            store,
            history,
            arena: Vec::new(),
            stats: ServiceStats::default(),
            durable: None,
        }
    }

    /// Builds a service with the default configuration.
    pub fn with_defaults(views: SecurityViews) -> Self {
        DisclosureService::new(views, ServiceConfig::default())
    }

    /// Registers a principal with its policy and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the policy exceeds a bound of the service (more than
    /// [`MAX_PARTITIONS`] partitions, a relation outside the catalog), or
    /// if a durable service cannot log the registration (it is serving
    /// degraded, or the log failed on this very record) — see
    /// [`try_register_principal`](Self::try_register_principal) for the
    /// non-panicking form.
    pub fn register_principal(&mut self, policy: SecurityPolicy) -> PrincipalId {
        self.try_register_principal(policy)
            .unwrap_or_else(|err| panic!("principal registration failed: {err}"))
    }

    /// [`register_principal`](Self::register_principal), answering
    /// degraded-mode refusals as
    /// [`ServiceError::DurabilityUnavailable`] — and a policy with more
    /// than [`MAX_PARTITIONS`] partitions, or naming a relation outside the
    /// catalog, as [`ServiceError::InvalidPolicy`] — instead of panicking.
    /// Registration is a mutation: a durable service must not
    /// acknowledge one it cannot make durable.
    pub fn try_register_principal(
        &mut self,
        policy: SecurityPolicy,
    ) -> Result<PrincipalId, ServiceError> {
        self.validate_policy(&policy)?;
        self.log_record(|out| durable::encode_register(&policy, out))?;
        let id = self.store.register(policy);
        self.history.register();
        Ok(id)
    }

    /// The security-view registry (owned by the labeling stage).
    pub fn registry(&self) -> &SecurityViews {
        self.labeler.security_views()
    }

    /// The labeling stage, read-only: its cache statistics.
    pub fn labeler(&self) -> LabelerView<'_> {
        LabelerView(&self.labeler)
    }

    /// Drops every cached label while keeping the cache counters — the
    /// flush-on-mutation strategy the epoch machinery exists to avoid,
    /// kept as the Figure 7 baseline (`fdc_bench::run_flushing_on_mutation`
    /// flushes after every mutation it serves).  Ids and the registry are
    /// untouched.
    pub fn flush_label_cache(&mut self) {
        self.labeler.clear_entries();
    }

    /// The service's query interner — the id authority behind interned
    /// admissions — borrowed read-only, to resolve or look up ids.  Mint
    /// ids with [`intern`](Self::intern); a stream of boxed admissions
    /// becomes an interned one through
    /// [`Operation::interned`](crate::Operation::interned).
    ///
    /// Every method that can mint takes `&mut self`, so a borrow of the
    /// interner cannot meet a mint:
    ///
    /// ```compile_fail,E0502
    /// # use fdc_core::SecurityViews;
    /// # use fdc_service::DisclosureService;
    /// let mut service = DisclosureService::with_defaults(SecurityViews::paper_example());
    /// let query = fdc_cq::parser::parse_query(
    ///     service.registry().catalog(),
    ///     "Q(x) :- Meetings(x, 'Cathy')",
    /// )
    /// .unwrap();
    /// let interner = service.interner();
    /// service.intern(&query).unwrap(); // `service` is borrowed by `interner`
    /// drop(interner);
    /// ```
    pub fn interner(&self) -> Ref<'_, QueryInterner> {
        self.labeler.query_interner()
    }

    /// Interns a query into the service's id space, returning the dense
    /// [`QueryId`] that [`submit_interned`](Self::submit_interned) /
    /// [`check_interned`](Self::check_interned) and the
    /// `SubmitInterned` / `CheckInterned` operations accept.
    ///
    /// A new shape is a mutation of the id space: a durable service logs
    /// it as a [`WalOp::Define`] before the id is returned, so a reopen
    /// from the log alone hands the query the same id.  Refused with
    /// [`ServiceError::DurabilityUnavailable`] while the service serves
    /// degraded (for a known shape too, as every mutation is), or if the
    /// record does not land.
    pub fn intern(&mut self, query: &ConjunctiveQuery) -> Result<QueryId, ServiceError> {
        if self.is_degraded() {
            return Err(ServiceError::DurabilityUnavailable);
        }
        if let Some(id) = self.interner().lookup(query) {
            return Ok(id);
        }
        let id = QueryId(self.known_ids() as u32);
        self.log_record(|out| durable::encode_define(id, query, out))?;
        let minted = self.labeler.intern(query);
        debug_assert_eq!(minted, id, "ids are dense");
        Ok(minted)
    }

    /// The enforcement stage.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Service-level operation counters, including the durability
    /// health block (all zeros on in-memory services).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats.clone();
        stats.durability = self.durability_health();
        stats
    }

    /// The current serving mode.  In-memory services are always
    /// [`ServiceMode::Healthy`]; a durable service degrades to
    /// read-only serving when its write-ahead log fails permanently and
    /// is promoted back by a successful
    /// [`checkpoint`](Self::checkpoint).
    pub fn mode(&self) -> ServiceMode {
        self.durable
            .as_ref()
            .map_or(ServiceMode::Healthy, |durable| durable.mode)
    }

    /// True when the service is serving degraded (mutations refused,
    /// admissions from memory).
    pub fn is_degraded(&self) -> bool {
        matches!(self.mode(), ServiceMode::Degraded(_))
    }

    /// What recovery found when this service was opened with
    /// [`open_durable`](Self::open_durable); `None` on in-memory
    /// services.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable.as_ref().map(|durable| durable.report)
    }

    /// The durability health block of [`stats`](Self::stats).
    fn durability_health(&self) -> DurabilityHealth {
        let Some(durable) = &self.durable else {
            return DurabilityHealth::default();
        };
        let wal = durable.wal_stats();
        DurabilityHealth {
            wal_appends: wal.appends,
            wal_commits: wal.commits,
            wal_fsyncs: wal.fsyncs,
            wal_fsync_failures: wal.fsync_failures,
            wal_retries: wal.retries,
            wal_segment_recoveries: wal.segment_recoveries,
            wal_records_committed: wal.records_committed,
            wal_max_commit_records: wal.max_commit_records,
            mode_transitions: durable.mode_transitions,
            checkpoints: durable.checkpoints,
            checkpoint_failures: durable.checkpoint_failures,
            last_checkpoint_seq: durable.last_checkpoint_seq,
            log_since_checkpoint: durable.last_seq.saturating_sub(durable.last_checkpoint_seq),
        }
    }

    /// Number of registered principals.
    pub fn num_principals(&self) -> usize {
        self.store.len()
    }

    /// Total `(answered, refused)` across all principals.
    pub fn totals(&self) -> (u64, u64) {
        self.store.totals()
    }

    /// A policy from outside must fit the store before it is logged or
    /// compiled — a record for an operation that cannot apply must not
    /// reach the log, and replay must not die on one that did: the
    /// consistency word has a bit per partition, and the compiled form a
    /// row per relation id up to the highest one named.
    fn validate_policy(&self, policy: &SecurityPolicy) -> Result<(), ServiceError> {
        let relations = self.registry().catalog().len();
        if policy.len() > MAX_PARTITIONS {
            Err(ServiceError::InvalidPolicy(PolicyBound::Partitions(
                MAX_PARTITIONS,
            )))
        } else if policy.relation_bound() > relations {
            Err(ServiceError::InvalidPolicy(PolicyBound::Relations(
                relations,
            )))
        } else {
            Ok(())
        }
    }

    fn validate_principal(&self, principal: PrincipalId) -> Result<(), ServiceError> {
        if principal.index() < self.store.len() {
            Ok(())
        } else {
            Err(ServiceError::UnknownPrincipal(principal))
        }
    }

    /// The write-ahead step: the one place records reach the log, for
    /// every entry point.  Encodes and appends the record of each loggable
    /// item of a request of `len` items, in stream order — `encode(i, out)`
    /// writes item `i`'s record and says whether it has one — and commits
    /// once at the end, the request's acknowledgement point (a segment
    /// rotation is the only thing that commits a prefix earlier).  Logging
    /// a request before executing any of it preserves the write-ahead
    /// invariant: the log's readable prefix is always a prefix of the
    /// applied operation stream.
    ///
    /// Returns the request's **cut**: the position of the first item whose
    /// record is not durable, `len` when there is none (always, on an
    /// in-memory service and during replay, where this is a no-op).  What
    /// an executor does with an item at or past the cut is
    /// [`execute`](Self::execute)'s rule.  A failure past the writer's
    /// retry budget does **not** panic: the poisoned writer sheds its
    /// buffer and truncates torn bytes, the service degrades to read-only
    /// serving, and the cut falls at the first shed record.  An already
    /// degraded service logs nothing and cuts at 0.
    fn write_ahead(
        durable: &mut Option<DurableState>,
        len: usize,
        mut encode: impl FnMut(usize, &mut Vec<u8>) -> bool,
    ) -> usize {
        let Some(durable) = durable else {
            return len;
        };
        let Some(writer) = durable.writer.as_mut() else {
            return 0;
        };
        let committed_before = writer.stats().records_committed;
        let mut payload = Vec::new();
        let landed = (0..len)
            .try_for_each(|i| {
                payload.clear();
                if encode(i, &mut payload) {
                    writer.append(&payload)?;
                }
                Ok(())
            })
            .and_then(|()| writer.commit());
        if landed.is_ok() {
            durable.last_seq = writer.next_seq() - 1;
            return len;
        }
        // Records land in stream order and a commit is all-or-nothing, so
        // the committed-record delta is how many of this request's records
        // are durable — those operations will replay.  The cut is the
        // position of the next loggable item, found with `encode` itself.
        let mut durable_records = (writer.stats().records_committed - committed_before) as usize;
        durable.last_seq += durable_records as u64;
        durable.degrade();
        for i in 0..len {
            payload.clear();
            if encode(i, &mut payload) {
                if durable_records == 0 {
                    return i;
                }
                durable_records -= 1;
            }
        }
        len
    }

    /// [`write_ahead`](Self::write_ahead) for the two mutations that are
    /// not [`Operation`]s (registration, policy replacement): one record,
    /// refused with [`ServiceError::DurabilityUnavailable`] if it did not
    /// land.
    fn log_record(&mut self, encode: impl Fn(&mut Vec<u8>)) -> Result<(), ServiceError> {
        let cut = Self::write_ahead(&mut self.durable, 1, |_, out| {
            encode(out);
            true
        });
        if cut == 0 {
            return Err(ServiceError::DurabilityUnavailable);
        }
        Ok(())
    }

    /// Admits (and commits) one query on behalf of a principal.
    ///
    /// On a degraded service the submission is served from memory (and
    /// not logged): admission counters move, and reach disk again with
    /// the next successful checkpoint.  A WAL failure on this very record
    /// likewise degrades the service and serves the decision from memory
    /// rather than erroring — the admission's record was shed with the
    /// dead writer, so recovery stays a prefix of what was acknowledged.
    pub fn submit(
        &mut self,
        principal: PrincipalId,
        query: &ConjunctiveQuery,
    ) -> Result<Decision, ServiceError> {
        self.decide(principal, AdmissionQuery::Plain(query), true)
    }

    /// Pure check: would this query be admitted right now?  It commits
    /// nothing, but the first sight of a shape mints its id, so a durable
    /// service logs a boxed check (as a [`WalOp::Check`]) as it logs a
    /// boxed submit.
    pub fn check(
        &mut self,
        principal: PrincipalId,
        query: &ConjunctiveQuery,
    ) -> Result<Decision, ServiceError> {
        self.decide(principal, AdmissionQuery::Plain(query), false)
    }

    /// [`submit`](Self::submit) by pre-interned query id: the label comes
    /// straight out of the id-indexed slot cache — no parsing, no hashing,
    /// no query clone on the wire.
    ///
    /// A service with a write-ahead log records the submission as its
    /// resolved canonical query, so the log replays without depending on
    /// the (volatile) id assignment.
    pub fn submit_interned(
        &mut self,
        principal: PrincipalId,
        query: QueryId,
    ) -> Result<Decision, ServiceError> {
        self.decide(principal, AdmissionQuery::Interned(query), true)
    }

    /// [`check`](Self::check) by pre-interned query id; never commits.
    pub fn check_interned(
        &mut self,
        principal: PrincipalId,
        query: QueryId,
    ) -> Result<Decision, ServiceError> {
        self.decide(principal, AdmissionQuery::Interned(query), false)
    }

    /// One typed admission, as a request of one.
    fn decide(
        &mut self,
        principal: PrincipalId,
        query: AdmissionQuery<'_>,
        commit: bool,
    ) -> Result<Decision, ServiceError> {
        let request = Request::Admit {
            principal,
            query,
            commit,
        };
        match self.serve(request)? {
            Response::Decision(decision) => Ok(decision),
            other => unreachable!("an admission answers with a decision, got {other:?}"),
        }
    }

    /// Grants a security view (by name) to a principal.  Refused with
    /// [`ServiceError::DurabilityUnavailable`] while the service serves
    /// degraded.
    pub fn grant_view(&mut self, principal: PrincipalId, view: &str) -> Result<(), ServiceError> {
        self.set_view(principal, view, true)
    }

    /// Revokes a security view (by name) from a principal.  Refused
    /// with [`ServiceError::DurabilityUnavailable`] while the service
    /// serves degraded.
    pub fn revoke_view(&mut self, principal: PrincipalId, view: &str) -> Result<(), ServiceError> {
        self.set_view(principal, view, false)
    }

    /// One typed grant or revoke, as a request of one.
    fn set_view(
        &mut self,
        principal: PrincipalId,
        view: &str,
        grant: bool,
    ) -> Result<(), ServiceError> {
        let request = Request::SetView {
            principal,
            view,
            grant,
        };
        match self.serve(request)? {
            Response::PolicyUpdated => Ok(()),
            other => unreachable!("a policy mutation answers PolicyUpdated, got {other:?}"),
        }
    }

    /// Replaces a principal's policy wholesale, preserving its
    /// consistency word and counters — the bulk counterpart of a
    /// grant/revoke sequence, logged as a single WAL record on durable
    /// services.  Refused with [`ServiceError::DurabilityUnavailable`]
    /// when that record cannot be made durable, and — before anything is
    /// logged or changed — with
    /// [`ServiceError::InvalidPolicy`]`(`[`PolicyBound::PartitionCount`]`)`
    /// when the replacement changes the partition count: the word is
    /// carried over bit for bit, so bit `i` must keep meaning partition `i`.
    pub fn replace_policy(
        &mut self,
        principal: PrincipalId,
        policy: SecurityPolicy,
    ) -> Result<(), ServiceError> {
        self.validate_principal(principal)?;
        self.validate_policy(&policy)?;
        let partitions = self.store.policy(principal).len();
        if policy.len() != partitions {
            return Err(ServiceError::InvalidPolicy(PolicyBound::PartitionCount(
                partitions,
            )));
        }
        self.log_record(|out| durable::encode_replace_policy(principal, &policy, out))?;
        self.store.replace_policy(principal, policy);
        self.stats.mutations += 1;
        Ok(())
    }

    /// Registers a new security view online.
    ///
    /// Only the view's relation is invalidated; rejected registrations
    /// (duplicate name, multi-atom definition, the relation's 32-view
    /// packed budget) leave every cache, epoch and policy untouched.
    pub fn add_security_view(
        &mut self,
        name: &str,
        query: ConjunctiveQuery,
    ) -> Result<fdc_core::SecurityViewId, ServiceError> {
        let request = Request::AddView {
            name,
            query: &query,
        };
        match self.serve(request)? {
            Response::ViewAdded(id) => Ok(id),
            other => unreachable!("a view addition answers ViewAdded, got {other:?}"),
        }
    }

    /// Audits a principal: its requested permissions (the union of its
    /// policy's permitted views, live) against its observed workload.
    pub fn audit_app(&mut self, principal: PrincipalId) -> Result<AuditReport, ServiceError> {
        match self.serve(Request::Audit { principal })? {
            Response::Audit(report) => Ok(*report),
            other => unreachable!("an audit answers with a report, got {other:?}"),
        }
    }

    /// Applies one operation sequentially.
    ///
    /// On a degraded durable service, mutations answer
    /// [`Response::Rejected`] with
    /// [`ServiceError::DurabilityUnavailable`]; admissions, checks and
    /// audits keep serving from memory.  A WAL failure on the
    /// operation's own record degrades the service mid-call and the
    /// same contract applies to it.
    pub fn apply(&mut self, op: &Operation) -> Response {
        self.serve(op.into()).unwrap_or_else(Response::Rejected)
    }

    /// The single-operation path behind [`apply`](Self::apply), every typed
    /// method and WAL replay: a request of one through the write-ahead
    /// step, then executed against the live state.  `Err` is a rejection.
    fn serve(&mut self, request: Request<'_>) -> Result<Response, ServiceError> {
        let known = self.known_ids();
        let cut = Self::write_ahead(&mut self.durable, 1, |_, out| {
            encode_loggable(request, &self.labeler, known, out)
        });
        self.execute(request, cut > 0, known)
    }

    /// The ids the interner has issued, `0..known_ids()` (ids are dense):
    /// read when a request is logged, it is what the request's interned
    /// operands are judged against.
    fn known_ids(&self) -> usize {
        self.interner().len()
    }

    /// Executes one operation at its stream position, after the write-ahead
    /// step; `logged` says whether the operation lies before its request's
    /// cut, and `known` is [`known_ids`](Self::known_ids) at that step.
    ///
    /// This is where the service's durability rule lives, once: **a
    /// mutation whose record is not durable answers
    /// [`ServiceError::DurabilityUnavailable`] and changes nothing;
    /// admissions, checks and audits always serve** (from memory — a
    /// submission whose record was shed is simply absent after recovery,
    /// which keeps the recovered state a prefix of what was acknowledged).
    fn execute(
        &mut self,
        request: Request<'_>,
        logged: bool,
        known: usize,
    ) -> Result<Response, ServiceError> {
        match request {
            Request::Admit {
                principal,
                query,
                commit,
            } => self
                .admit(principal, query, commit, known)
                .map(Response::Decision),
            Request::SetView { .. } | Request::AddView { .. } if !logged => {
                Err(ServiceError::DurabilityUnavailable)
            }
            Request::SetView {
                principal,
                view,
                grant,
            } => {
                self.validate_principal(principal)?;
                let registry = self.labeler.security_views();
                let id = registry
                    .id_by_name(view)
                    .ok_or_else(|| ServiceError::UnknownView(view.to_owned()))?;
                if grant {
                    self.store.grant_view(principal, registry, id);
                } else {
                    self.store.revoke_view(principal, registry, id);
                }
                self.stats.mutations += 1;
                Ok(Response::PolicyUpdated)
            }
            Request::AddView { name, query } => {
                let id = self.labeler.add_view(name, query.clone())?;
                self.stats.mutations += 1;
                Ok(Response::ViewAdded(id))
            }
            Request::Audit { principal } => self
                .audit(principal)
                .map(|report| Response::Audit(Box::new(report))),
        }
    }

    /// Serves one admission against the live state: the front door, then
    /// label by id, decide, and record a committed submission.
    ///
    /// The front door validates the principal and resolves the operand to
    /// the id everything downstream works by.  A plain query goes through
    /// the labeler's budgeted intern — the one canonicalisation of the
    /// admission — and stays `Plain` only when it has no id and may not get
    /// one (see [`AdmissionQuery`]); an interned operand must be one of the
    /// `known` ids its request was logged against.
    fn admit(
        &mut self,
        principal: PrincipalId,
        query: AdmissionQuery<'_>,
        commit: bool,
        known: usize,
    ) -> Result<Decision, ServiceError> {
        self.validate_principal(principal)?;
        let query = match query {
            AdmissionQuery::Plain(q) => self
                .labeler
                .intern_within_budget(q)
                .map_or(query, AdmissionQuery::Interned),
            AdmissionQuery::Interned(id) if id.index() < known => query,
            AdmissionQuery::Interned(id) => return Err(ServiceError::UnknownQuery(id)),
        };
        self.stats.admissions += 1;
        self.arena.clear();
        match query {
            AdmissionQuery::Plain(q) => self.labeler.label_uncached(q).pack_into(&mut self.arena),
            AdmissionQuery::Interned(id) => {
                self.labeler.append_packed_interned(id, &mut self.arena);
            }
        }
        let decision = self.store.decide_packed(principal, &self.arena, commit);
        if commit {
            self.history.record(principal, query);
        }
        Ok(decision)
    }

    /// The audit behind [`audit_app`](Self::audit_app) and `AuditApp`
    /// operations.
    fn audit(&mut self, principal: PrincipalId) -> Result<AuditReport, ServiceError> {
        self.validate_principal(principal)?;
        if !self.history.enabled() {
            return Err(ServiceError::AuditingDisabled);
        }
        self.stats.audits += 1;
        let policy = self.store.policy(principal);
        let labeler = &self.labeler;
        // Ids label by id — cache hits for a workload the service has just
        // served, no query materialized — and the rare boxed entry through
        // the uncached pipeline: an audit mints nothing, so it has nothing
        // to log.
        let labels = self
            .history
            .workload(principal)
            .into_iter()
            .map(|entry| match entry {
                AdmissionQuery::Interned(id) => labeler.label_interned(id),
                AdmissionQuery::Plain(query) => labeler.label_uncached(query),
            });
        let registry = labeler.security_views();
        Ok(audit_labels(
            registry,
            requested_views(policy, registry),
            labels,
        ))
    }

    /// Opens (or creates) a durable service homed in `dir`, recovering
    /// whatever state the directory holds: the newest valid checkpoint
    /// seeds the state, and the WAL records past it replay on top, in
    /// sequence order, through the same application paths the live
    /// service uses.  A torn tail (the crash landed mid-record) is
    /// truncated; a fresh directory starts from `views` with an empty
    /// log.
    ///
    /// Every state-changing operation the returned service applies is
    /// appended to the log *before* it applies (write-ahead), so a crash
    /// at any instant loses at most the operations whose log records had
    /// not reached disk — and never leaves half-applied state behind.
    /// [`ServiceConfig::durability`] tunes the fsync/batching trade-off.
    ///
    /// `views` is only read when the directory has no checkpoint (first
    /// boot, or a crash before the first [`checkpoint`](Self::checkpoint));
    /// callers must pass the same initial registry on every open, since a
    /// zero-checkpoint recovery replays the log against it.  Once a
    /// checkpoint exists, the registry (and the interner, policies,
    /// per-principal state and audit histories) come from disk.  A
    /// checkpoint that does not load (another version, a bad checksum) is
    /// skipped for the next-newest, but only while the log still holds
    /// every record past the image that loads; otherwise the open fails
    /// with [`io::ErrorKind::InvalidData`], naming the seq the log resumes
    /// at, the image's seq and why each skipped file was refused.
    ///
    /// The audit history is bounded by the *current*
    /// [`ServiceConfig::history_cap`]: a recovered history longer than
    /// the cap drops its oldest entries, and a zero cap drops it
    /// entirely.  [`ServiceStats`] counters restart at zero — they are
    /// observability counters, not durable state (interned checks and
    /// audits are never logged).
    pub fn open_durable(
        views: SecurityViews,
        config: ServiceConfig,
        dir: &Path,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::open_durable_in(views, config, dir, Arc::new(StdVfs), Arc::new(SystemClock))
    }

    /// [`open_durable`](Self::open_durable) through an explicit
    /// filesystem and clock — the entry point of the fault-injection
    /// suites, which open services over an
    /// [`fdc_durability::FaultVfs`] and an instant clock.  Production
    /// callers use [`open_durable`](Self::open_durable), which pins
    /// [`StdVfs`] and the real clock.
    pub fn open_durable_in(
        views: SecurityViews,
        config: ServiceConfig,
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
    ) -> io::Result<(Self, RecoveryReport)> {
        vfs.create_dir_all(dir)?;
        // A crash between a checkpoint's temp write and its rename
        // strands a `ckpt-*.tmp` orphan; sweep them before reading so
        // they can never accumulate (the rename-failure regression test
        // in `fdc-durability` covers the stranding itself).
        let temps_swept = sweep_stale_temps(vfs.as_ref(), dir)? as u64;
        let (loaded, skipped) = latest_checkpoint(vfs.as_ref(), dir)?;
        let (mut service, checkpoint_seq) = match loaded {
            Some((seq, payload)) => (
                Self::decode_state(&payload, config).map_err(invalid_data)?,
                seq,
            ),
            None => (DisclosureService::new(views, config), 0),
        };
        let contents = read_log(vfs.as_ref(), dir)?;
        // The log must continue the image.  When the newest checkpoints do
        // not load (another version, a bad checksum), the log was pruned up
        // to them: replaying what is left onto an older image, or onto the
        // initial registry, would drop every record in between.
        let resumes_at = contents
            .records
            .iter()
            .map(|record| record.seq)
            .find(|&seq| seq > checkpoint_seq)
            .unwrap_or(contents.tail.next_seq);
        if resumes_at > checkpoint_seq + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "the log resumes at seq {resumes_at}, past the image at seq \
                     {checkpoint_seq}; skipped: {}",
                    skipped.join("; ")
                ),
            ));
        }
        let mut replayed = 0u64;
        let catalog = service.registry().catalog().clone();
        for record in &contents.records {
            // Records at or below the checkpoint are already reflected in
            // its image (a crash between checkpoint write and segment
            // pruning leaves them behind); skip, don't double-apply.
            if record.seq <= checkpoint_seq {
                continue;
            }
            let op = durable::decode_wal_op(&catalog, &record.payload).map_err(invalid_data)?;
            service.replay(op).map_err(|err| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("WAL record {}: {err}", record.seq),
                )
            })?;
            replayed += 1;
        }
        let writer = WalWriter::resume(
            Arc::clone(&vfs),
            Arc::clone(&clock),
            dir,
            config.durability,
            &contents.tail,
            checkpoint_seq + 1,
        )?;
        let last_seq = writer.next_seq() - 1;
        let report = RecoveryReport {
            checkpoint_seq,
            records_replayed: replayed,
            last_seq,
            discarded_bytes: contents.discarded_bytes,
            discarded_records: contents.discarded_records,
            temps_swept,
        };
        service.durable = Some(DurableState {
            writer: Some(writer),
            dir: dir.to_path_buf(),
            vfs,
            clock,
            wal_base: WalStats::default(),
            mode: ServiceMode::Healthy,
            mode_transitions: 0,
            checkpoints: 0,
            checkpoint_failures: 0,
            last_checkpoint_seq: checkpoint_seq,
            last_seq,
            report,
        });
        Ok((service, report))
    }

    /// True when this service was opened with
    /// [`open_durable`](Self::open_durable) and logs its mutations.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Writes a checkpoint of the full service state — registry (with
    /// epochs), interner, policy store, audit histories — at the
    /// current log position, then prunes: only the newest two checkpoint
    /// files are kept (the predecessor survives as a fallback should the
    /// newest be damaged in place), and WAL segments wholly covered by
    /// the *oldest retained* checkpoint are deleted — every checkpoint
    /// still on disk keeps the log records past it, so falling back to
    /// the older image loses nothing.  Returns the checkpoint's sequence
    /// number.
    ///
    /// The image is written to a temporary file and atomically renamed
    /// into place, so a crash mid-checkpoint leaves the previous
    /// checkpoint (and the full log) intact.  Recovery from the image is
    /// a *bulkload*: per-principal state is restored as raw words, with
    /// no per-principal policy compilation.
    ///
    /// On a **degraded** service the checkpoint is the recovery path:
    /// the image is taken at the frozen durable horizon (which, by the
    /// read-only contract, covers every acknowledged mutation — plus
    /// the degraded window's in-memory admissions, which become durable
    /// with it).  If the image lands, the stale WAL segments are
    /// removed, a fresh segment starts past the image, and the service
    /// is promoted back to [`ServiceMode::Healthy`]; if storage is
    /// still failing, the attempt counts in
    /// [`DurabilityHealth::checkpoint_failures`] and the service stays
    /// degraded until the caller's next attempt.  The service schedules
    /// no checkpoint itself: a caller checkpoints when
    /// [`DurabilityHealth::log_since_checkpoint`] (the replay debt)
    /// passes its own budget, or while [`is_degraded`](Self::is_degraded).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, and on services not opened with
    /// [`open_durable`](Self::open_durable).
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        let pending = self.begin_checkpoint()?;
        let payload = pending.encode();
        self.complete_checkpoint(&pending, &payload)
    }

    /// First half of a [`checkpoint`](Self::checkpoint): commits the WAL,
    /// fixes the sequence number the image will cover, and freezes the
    /// state to serialize — all cheap (structural clones, no
    /// serialization except the append-only interner).  The returned
    /// [`PendingCheckpoint`] owns everything the expensive
    /// [`encode`](PendingCheckpoint::encode) step needs and borrows
    /// nothing from the service, so the caller can keep serving
    /// mutations between the halves, or move the pending checkpoint to a
    /// thread of its own and encode there;
    /// [`complete_checkpoint`](Self::complete_checkpoint) finishes the
    /// job.  Mutations admitted between `begin` and `complete` are covered
    /// by their WAL records past the pending sequence number, which the
    /// completion never prunes.
    ///
    /// # Errors
    ///
    /// Fails on services not opened with
    /// [`open_durable`](Self::open_durable).
    pub fn begin_checkpoint(&mut self) -> io::Result<PendingCheckpoint> {
        let durable = self.durable.as_mut().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint requires a service opened with open_durable",
            )
        })?;
        if let Some(writer) = durable.writer.as_mut() {
            // The buffer is normally empty here (every entry point
            // commits); a failure means storage just died under a
            // straggler batch — degrade and checkpoint anyway, the
            // image covers everything acknowledged.
            if writer.commit().is_err() {
                durable.degrade();
            }
        }
        let seq = match durable.writer.as_ref() {
            Some(writer) => writer.next_seq() - 1,
            None => durable.last_seq,
        };
        let healthy = durable.writer.is_some();
        Ok(self.freeze(seq, healthy))
    }

    /// Freezes the state a checkpoint image serializes: the append-only
    /// interner pre-encoded, structural clones of the registry and the
    /// store, and the history log copied as it is — three flat vectors,
    /// however many principals there are (the image stores ids too,
    /// resolved against that same interner).
    pub(crate) fn freeze(&self, seq: u64, healthy: bool) -> PendingCheckpoint {
        let mut interner = Vec::new();
        self.interner().encode_into(&mut interner);
        PendingCheckpoint {
            seq,
            healthy,
            views: self.labeler.security_views().clone(),
            interner,
            store: self.store.clone(),
            history: self.history.clone(),
        }
    }

    /// Second half of a [`checkpoint`](Self::checkpoint): writes the
    /// encoded image for `pending` and retires the log debt behind it
    /// (rotate + prune on a healthy service, segment replacement and
    /// Degraded → Healthy promotion on a degraded one).  If the service
    /// was healthy at [`begin_checkpoint`](Self::begin_checkpoint) but
    /// degraded while the payload was encoded, the image is written and
    /// counted but **no** segment is touched: the surviving log holds
    /// acknowledged records past the image that promotion-style pruning
    /// would destroy.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors writing the image, and on services not opened
    /// with [`open_durable`](Self::open_durable).
    pub fn complete_checkpoint(
        &mut self,
        pending: &PendingCheckpoint,
        payload: &[u8],
    ) -> io::Result<u64> {
        let seq = pending.seq;
        let fsync = self.config.durability.fsync;
        let durability = self.config.durability;
        let durable = self.durable.as_mut().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint requires a service opened with open_durable",
            )
        })?;
        let dir = durable.dir.clone();
        let vfs = Arc::clone(&durable.vfs);
        match write_checkpoint(vfs.as_ref(), &dir, seq, payload, fsync) {
            Ok(_) => {
                durable.checkpoints += 1;
                durable.last_checkpoint_seq = seq;
            }
            Err(err) => {
                durable.checkpoint_failures += 1;
                return Err(err);
            }
        }
        if durable.writer.is_some() {
            // Healthy path.  Rotate so the covered records' segment
            // becomes prunable: the fresh segment starts exactly at the
            // replay point (seq + 1).  A rotation failure means storage
            // is going — the image landed, so degrade and report the
            // checkpoint as the success it was.
            let writer = durable.writer.as_mut().expect("healthy path");
            if writer.rotate().is_err() {
                durable.degrade();
                return Ok(seq);
            }
            prune_checkpoints(vfs.as_ref(), &dir, CHECKPOINTS_KEPT)?;
            let horizon = checkpoint_seqs(vfs.as_ref(), &dir)?
                .first()
                .copied()
                .unwrap_or(seq);
            prune_segments(vfs.as_ref(), &dir, horizon)?;
        } else if pending.healthy {
            // The service was healthy at `begin` but degraded between the
            // halves (a mutation served meanwhile failed to log): the old
            // segments hold acknowledged records *past* `seq` that the
            // image does not cover, so the promotion path's
            // delete-and-replace below would destroy durable state.  The
            // image landed (and counted); promotion waits for a checkpoint
            // begun on the frozen degraded horizon.
        } else {
            // Degraded promotion.  The image at `seq` shadows every
            // record the old segments hold — including any torn bytes a
            // failed truncation left past the durable horizon — so
            // remove them *before* starting the fresh segment: recovery
            // must never stitch a stale tail across the new log.  Every
            // step is fallible on still-sick storage; any failure
            // leaves the service degraded (with a valid checkpoint) and
            // the next attempt retries.
            let clock = Arc::clone(&durable.clock);
            let fresh = (|| -> io::Result<WalWriter> {
                for name in vfs.list(&dir)? {
                    if name.starts_with("wal-") && name.ends_with(".log") {
                        vfs.remove_file(&dir.join(&name))?;
                    }
                }
                WalWriter::create_in(Arc::clone(&vfs), clock, &dir, durability, seq + 1)
            })();
            if let Ok(writer) = fresh {
                durable.writer = Some(writer);
                durable.last_seq = seq;
                durable.mode = ServiceMode::Healthy;
                durable.mode_transitions += 1;
                // Best-effort: stale checkpoints never block promotion.
                let _ = prune_checkpoints(vfs.as_ref(), &dir, CHECKPOINTS_KEPT);
            }
        }
        Ok(seq)
    }

    /// Shuts the service down cleanly: commits any buffered WAL records
    /// and drops the log handle.  A no-op (beyond dropping) on
    /// non-durable services.  Skipping `close` is *safe* — that is the
    /// whole point of the WAL — it just leaves the un-committed batch
    /// tail to be dropped as a torn tail on the next open.
    pub fn close(mut self) -> io::Result<()> {
        if let Some(mut durable) = self.durable.take() {
            if let Some(writer) = durable.writer.as_mut() {
                writer.commit()?;
            }
        }
        Ok(())
    }

    /// Applies one decoded WAL record during recovery, through the entry
    /// points live traffic uses — with no log attached, their write-ahead
    /// step is a no-op.  Rejections (unknown principal, duplicate view
    /// name, …) are deliberately ignored: the live service logged the
    /// operation before validating it, and a rejected operation changed no
    /// state then either.  The one refusal is a `Define` whose query
    /// re-interns to another id than the record names: the log does not
    /// describe this service's id space.
    fn replay(&mut self, op: WalOp) -> Result<(), String> {
        debug_assert!(self.durable.is_none(), "replay must never re-log");
        match op {
            WalOp::RegisterPrincipal { policy } => {
                // A policy the store cannot hold (too many partitions, a
                // relation outside the catalog) is refused before it is
                // logged, so only a hand-damaged log carries one: skipped,
                // like a replacement the live call would have refused.
                let _ = self.try_register_principal(policy);
            }
            WalOp::Submit { principal, query } => {
                let _ = self.submit(principal, &query);
            }
            WalOp::Check { principal, query } => {
                let _ = self.check(principal, &query);
            }
            WalOp::Define { id, query } => {
                let replayed = self.intern(&query);
                if replayed != Ok(id) {
                    return Err(format!(
                        "a Define of id {} re-interns as {replayed:?}",
                        id.0
                    ));
                }
            }
            WalOp::GrantView { principal, view } => {
                let _ = self.grant_view(principal, &view);
            }
            WalOp::RevokeView { principal, view } => {
                let _ = self.revoke_view(principal, &view);
            }
            WalOp::AddSecurityView { name, query } => {
                let _ = self.add_security_view(&name, query);
            }
            WalOp::ReplacePolicy { principal, policy } => {
                let _ = self.replace_policy(principal, policy);
            }
        }
        Ok(())
    }

    /// Rebuilds a service from a checkpoint payload.  Every length,
    /// index and cross-structure invariant is validated — a corrupt or
    /// truncated payload yields an error, never a panic or a
    /// half-consistent service.
    ///
    /// The history section is one ring per principal,
    /// each entry a tag byte and its operand: a `u32` query id, which must
    /// lie inside the interner decoded from the same image, or a
    /// wire-encoded query (the over-budget shape that never got an id),
    /// which must fit the catalog; see `History::decode_from`.
    pub(crate) fn decode_state(payload: &[u8], config: ServiceConfig) -> Result<Self, CodecError> {
        let mut cursor = Cursor::new(payload);
        let views = SecurityViews::decode_from(&mut cursor)?;
        let at = cursor.pos();
        let interner = QueryInterner::decode_from(&mut cursor)?;
        // History ids — and interned admissions — label straight out of the
        // arena, so its queries must fit the catalog like any decoded query.
        for index in 0..interner.len() {
            let query = interner.resolve(QueryId(index as u32));
            if (0..query.num_atoms()).any(|a| query.relation(a).index() >= views.catalog().len()) {
                return Err(CodecError::invalid(
                    at,
                    format!("interned query {index} references a relation outside the catalog"),
                ));
            }
        }
        let store = PolicyStore::decode_from(&mut cursor, views.catalog())?;
        // The recovered history obeys the *current* cap.
        let history = History::decode_from(
            &mut cursor,
            store.len(),
            config.history_cap,
            &interner,
            views.catalog(),
        )?;
        cursor.expect_end()?;
        // The packed-budget invariant `new` asserts, as a decode error.
        if let Some(relation) = over_packed_budget(&views) {
            return Err(CodecError::invalid(
                0,
                format!(
                    "relation `{}` exceeds the packed view budget",
                    views.catalog().name(relation)
                ),
            ));
        }
        let labeler = CachedLabeler::with_interner(views, interner, DEFAULT_INTERN_BUDGET);
        Ok(Self::assemble(labeler, store, history, config))
    }

    /// Serves a batch of operations, returning one response per operation
    /// in request order — the service's batch executor: the whole batch
    /// goes through the write-ahead step first — one commit — and then
    /// every operation executes at its stream position against the live
    /// state, as [`apply`](Self::apply) executes it.
    ///
    /// The batch is one request, so its interned operands are judged
    /// against the interner as it stood when the batch was logged: an id
    /// first minted by a plain admission *inside* the batch is refused
    /// ([`ServiceError::UnknownQuery`]), in memory as on a durable service,
    /// whose log holds no record for it.  Sequential `apply` admits such an
    /// id, each operation being a request of its own.
    pub fn run_pipelined(&mut self, ops: &[Operation]) -> Vec<Response> {
        if ops.is_empty() {
            return Vec::new();
        }
        let known = self.known_ids();
        let cut = Self::write_ahead(&mut self.durable, ops.len(), |i, out| {
            encode_loggable((&ops[i]).into(), &self.labeler, known, out)
        });
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                self.execute(op.into(), i < cut, known)
                    .unwrap_or_else(Response::Rejected)
            })
            .collect()
    }
}

/// Encodes the WAL record for `request` into `out`, returning whether the
/// operation is loggable at all.  Every operation that may mint an id is
/// logged — a boxed submit or check, whose first sight interns its shape,
/// and a view addition, which interns the view's definition — so replay
/// mints the ids in the order the live service did.  Interned checks and
/// audits neither mint nor change state, and an interned submit whose id
/// is not one of the `known` ids changes none either (admission will
/// reject it), so none of those produce a record.  Known interned submits
/// are logged as their resolved canonical query, which replay re-interns.
/// Every mutation is loggable, which is what lets one cut index stand for
/// a request's coverage.
fn encode_loggable(
    request: Request<'_>,
    labeler: &CachedLabeler,
    known: usize,
    out: &mut Vec<u8>,
) -> bool {
    match request {
        Request::Admit {
            principal,
            query: AdmissionQuery::Plain(query),
            commit,
        } => {
            let encode = if commit {
                durable::encode_submit
            } else {
                durable::encode_check
            };
            encode(principal, query, out);
        }
        Request::Admit { commit: false, .. } | Request::Audit { .. } => return false,
        Request::Admit {
            principal,
            query: AdmissionQuery::Interned(id),
            ..
        } => {
            if id.index() >= known {
                return false;
            }
            let query = labeler.query_interner().to_query(id);
            durable::encode_submit(principal, &query, out);
        }
        Request::SetView {
            principal,
            view,
            grant: true,
        } => durable::encode_grant(principal, view, out),
        Request::SetView {
            principal, view, ..
        } => durable::encode_revoke(principal, view, out),
        Request::AddView { name, query } => durable::encode_add_view(name, query, out),
    }
    true
}

/// Wraps a checkpoint/WAL decode error as the `InvalidData` I/O error
/// [`DisclosureService::open_durable`] reports.
fn invalid_data(err: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// A checkpoint in flight between
/// [`DisclosureService::begin_checkpoint`] and
/// [`DisclosureService::complete_checkpoint`]: the service state frozen at
/// the pending sequence number, *owned*, so the expensive serialization
/// needs no access to the service: the caller may serve between the
/// halves, or send this to a thread of its own to encode.
#[derive(Debug)]
pub struct PendingCheckpoint {
    /// The WAL sequence number the image will cover (last acknowledged
    /// record at `begin`).
    seq: u64,
    /// Whether the service was healthy at `begin` — decides whether the
    /// completion may retire old log segments (a checkpoint begun healthy
    /// but completed degraded must not, see
    /// [`DisclosureService::complete_checkpoint`]).
    healthy: bool,
    views: SecurityViews,
    /// The interner, pre-encoded at `begin`: one pass over the labeler's
    /// arena, where a structural clone would copy every side table too.
    interner: Vec<u8>,
    store: PolicyStore,
    history: History,
}

impl PendingCheckpoint {
    /// The WAL sequence number the image will cover.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Serializes the frozen state into the checkpoint payload — the
    /// expensive half of a checkpoint, which reads nothing of the service
    /// (so it may run on another thread), and the inverse of
    /// `DisclosureService::decode_state`.
    ///
    /// Layout: registry, interner, policy store, then the audit history
    /// (`History::encode_into`: the rings oldest first, ids into the
    /// interner section).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.views.encode_into(&mut payload);
        payload.extend_from_slice(&self.interner);
        self.store.encode_into(&mut payload);
        self.history.encode_into(&mut payload);
        payload
    }
}

/// The service's labeling stage, lent read-only by
/// [`DisclosureService::labeler`]: it reads the cache counters, and can
/// neither mint an id nor fill a cache slot.
#[derive(Debug, Clone, Copy)]
pub struct LabelerView<'a>(&'a CachedLabeler);

impl LabelerView<'_> {
    /// The labeler's hit/miss/invalidation counters and cache sizes.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }

    /// How the front door has resolved the boxed operands it was handed.
    pub fn door_stats(&self) -> DoorStats {
        self.0.door_stats()
    }
}

//! Durability health: the service's serving-mode state machine and the
//! always-on counters that make storage trouble observable.
//!
//! A durable [`DisclosureService`](crate::DisclosureService) is a tiny
//! two-state machine:
//!
//! ```text
//!            WAL commit fails past its retry budget
//!   Healthy ────────────────────────────────────────▶ Degraded(ReadOnly)
//!      ▲                                                    │
//!      └────────────────────────────────────────────────────┘
//!            a checkpoint lands on recovered storage
//!            (fresh WAL segment, stale segments removed)
//! ```
//!
//! * **Healthy** — every state-changing operation is appended to the
//!   write-ahead log (and committed) *before* it applies.
//! * **Degraded(ReadOnly)** — the log is gone.  Mutations (grants,
//!   revokes, view/principal registrations, policy replacements) are
//!   refused with
//!   [`ServiceError::DurabilityUnavailable`](crate::ServiceError::DurabilityUnavailable)
//!   so no acknowledged mutation can ever be lost; admissions (submits
//!   and checks) keep serving from memory — their per-principal counters
//!   become durable again with the next successful checkpoint.
//!
//! Promotion back to healthy is the caller's next
//! [`checkpoint`](crate::DisclosureService::checkpoint): the service owns
//! no thread and retries nothing on its own.  Once a full state image
//! lands on (recovered) storage, the old segments are removed, a fresh
//! WAL segment starts at the image's sequence horizon, and logging
//! resumes; until then each attempt fails and counts in
//! [`DurabilityHealth::checkpoint_failures`].

/// How a durable service is currently serving.  In-memory services
/// (built with [`new`](crate::DisclosureService::new)) always report
/// [`Healthy`](ServiceMode::Healthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceMode {
    /// The write-ahead log is live: mutations are logged before they
    /// apply and every acknowledged operation is durable.
    #[default]
    Healthy,
    /// The write-ahead log failed permanently; serving continues under
    /// the given degraded contract until a checkpoint promotes the
    /// service back to [`Healthy`](ServiceMode::Healthy).
    Degraded(DegradedMode),
}

/// The degraded-serving contract (what keeps working when the log is
/// gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Mutations are refused, admissions serve from memory.
    #[default]
    ReadOnly,
}

/// Durability health counters, nested inside
/// [`ServiceStats`](crate::ServiceStats).  All zeros on services without
/// a durable home.
///
/// The `wal_*` counters aggregate across writer replacements: when a
/// dead writer is dropped on degradation its counters are folded into a
/// base the next writer's counters stack on, so the series never resets
/// mid-life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityHealth {
    /// WAL records appended (buffered; a superset of the committed).
    pub wal_appends: u64,
    /// Successful WAL commits: one per request, plus one per segment
    /// rotation a request crosses.
    pub wal_commits: u64,
    /// Successful `sync_data` calls on WAL segments.
    pub wal_fsyncs: u64,
    /// Failed `sync_data` calls — each recovered by reopen-and-rewrite,
    /// never by re-issuing the fsync (see `fdc_durability::retry`).
    pub wal_fsync_failures: u64,
    /// Commit retry rounds (transient write errors, torn writes, fsync
    /// failures that were recovered within the retry budget).
    pub wal_retries: u64,
    /// Segment reopen-truncate-rewrite recoveries.
    pub wal_segment_recoveries: u64,
    /// WAL records made durable by successful commits.
    pub wal_records_committed: u64,
    /// Largest record count a single commit flushed — the largest
    /// request's, unless it crossed a segment rotation.
    pub wal_max_commit_records: u64,
    /// Serving-mode transitions (Healthy → Degraded and Degraded →
    /// Healthy each count one).
    pub mode_transitions: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed with an I/O error.
    pub checkpoint_failures: u64,
    /// Sequence number of the newest checkpoint written by *this*
    /// process (the recovery checkpoint until the first
    /// [`checkpoint`](crate::DisclosureService::checkpoint) call).
    pub last_checkpoint_seq: u64,
    /// Durable log records not yet covered by a checkpoint — the replay
    /// debt a crash right now would pay.
    pub log_since_checkpoint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_default_to_healthy_and_compare() {
        assert_eq!(ServiceMode::default(), ServiceMode::Healthy);
        let degraded = ServiceMode::Degraded(DegradedMode::ReadOnly);
        assert_ne!(degraded, ServiceMode::Healthy);
        assert_eq!(degraded, ServiceMode::Degraded(DegradedMode::default()));
    }

    #[test]
    fn health_defaults_to_all_zeros() {
        let health = DurabilityHealth::default();
        assert_eq!(health.wal_appends, 0);
        assert_eq!(health.mode_transitions, 0);
        assert_eq!(health.log_since_checkpoint, 0);
    }
}

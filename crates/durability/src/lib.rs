//! The durable state plane: write-ahead log, checkpoints, and
//! crash-consistent recovery primitives.
//!
//! Everything above this crate (the policy store, the view registry, the
//! interner, the `DisclosureService`) is memory-only; this crate supplies
//! the three disk-side pieces the ROADMAP's "durable state plane" item
//! calls for, with **no dependencies** beyond `std`:
//!
//! * a **write-ahead log** ([`wal`]): length-prefixed, CRC-32-checksummed
//!   records appended to size-rotated segment files, buffered until the
//!   caller's `commit` (one `fsync` per request, not per record), and read
//!   back by a torn-tail-tolerant scanner that stops cleanly at the first
//!   truncated or corrupt record;
//! * **checkpoints** ([`checkpoint`]): opaque binary snapshots written
//!   atomically (temp file + rename) with a whole-file checksum, so a
//!   crash mid-checkpoint can never shadow the previous good one;
//! * the shared **codec** ([`codec`]) and **CRC-32** ([`crc`]) helpers the
//!   two file formats (and the state serializers in the upper crates) are
//!   built from;
//! * a **virtual filesystem** ([`vfs`]): every byte the WAL and
//!   checkpoint layers touch goes through the [`Vfs`] trait, so the
//!   production [`StdVfs`] can be swapped for the deterministic
//!   fault-injecting [`FaultVfs`] (transient write errors, torn writes,
//!   fsyncgate-semantics fsync failures, `ENOSPC`, failed renames, dead
//!   disks) in the robustness suites;
//! * a **retry policy** ([`retry`]): bounded exponential backoff with
//!   jitter behind an injectable [`Clock`], governing how the WAL's
//!   commit loop recovers from transient storage failures — always by
//!   reopen-and-rewrite from the last committed offset, never by
//!   re-issuing a failed fsync over possibly-dropped pages.
//!
//! The crate knows nothing about *what* is logged or snapshotted — record
//! payloads and checkpoint bodies are byte strings to it.  The layering is
//! deliberate: `fdc-cq`, `fdc-core` and `fdc-policy` each serialize their
//! own state with the [`codec`] primitives, and `fdc-service` composes the
//! pieces into `open_durable` / `checkpoint` / `close` plus the
//! write-ahead hooks on its operation stream.
//!
//! # Crash-consistency contract
//!
//! Writers append a record (and receive its sequence number) *before*
//! applying the operation it describes; [`wal::read_log`] returns every
//! record whose length prefix, checksum and sequence number check out, in
//! order, stopping at the first that does not.  Together those two rules
//! make the log's readable prefix a prefix of the applied operation
//! stream, which is exactly what the crash-at-any-byte-prefix property
//! test (`tests/crash_recovery.rs` at the workspace root) asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod retry;
pub mod vfs;
pub mod wal;

pub use checkpoint::{
    checkpoint_seqs, latest_checkpoint, prune_checkpoints, sweep_stale_temps, write_checkpoint,
};
pub use codec::{CodecError, Cursor};
pub use retry::{Clock, InstantClock, RetryPolicy, SystemClock};
pub use vfs::{FaultCounters, FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{
    prune_segments, read_log, LogContents, TailPosition, WalRecord, WalStats, WalWriter,
};

/// Tuning knobs for the write-ahead log's segment rotation, syncing and
/// retries.
///
/// The defaults favour durability: every commit point syncs to disk.
/// Benchmark harnesses that only need *replayability* (not
/// power-loss-safety) can set `fsync: false` to skip the `File::sync_data`
/// calls while keeping the record format and the commit points identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// A segment file is closed and a new one started once it grows past
    /// this many bytes, buffered appends included — which makes this the
    /// byte bound on what a writer buffers between
    /// [`commit`](wal::WalWriter::commit)s.  `0` is treated as "never
    /// rotate".
    pub segment_bytes: u64,
    /// Whether flushes call `sync_data` on the segment file.  Disable
    /// only when crash-durability across power loss is not required.
    pub fsync: bool,
    /// How transient commit failures (`EINTR`-style write errors, torn
    /// writes, fsync failures) are retried: bounded attempts with
    /// exponential backoff and jitter.  Every retry round reopens the
    /// segment and rewrites from the last committed offset — a failed
    /// fsync is never simply re-issued (see [`retry`]).
    pub retry: RetryPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl DurabilityConfig {
    /// Effective rotation threshold, `None` meaning "never rotate".
    pub fn rotate_at(&self) -> Option<u64> {
        if self.segment_bytes == 0 {
            None
        } else {
            Some(self.segment_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_durable() {
        let config = DurabilityConfig::default();
        assert!(config.fsync);
        assert_eq!(config.rotate_at(), Some(8 * 1024 * 1024));
    }

    #[test]
    fn zero_knobs_have_sane_meanings() {
        let config = DurabilityConfig {
            segment_bytes: 0,
            fsync: false,
            ..DurabilityConfig::default()
        };
        assert_eq!(config.rotate_at(), None);
    }
}

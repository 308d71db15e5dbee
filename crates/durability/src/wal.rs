//! The write-ahead log: size-rotated segment files of length-prefixed,
//! CRC-checksummed, sequence-numbered records.
//!
//! # On-disk format
//!
//! A log is a directory of segment files named
//! `wal-<first_seq:020>.log` (zero-padded so lexicographic order is
//! sequence order).  Each segment is:
//!
//! ```text
//! header:  magic  b"FDCWAL01"          8 bytes
//!          version u32 LE  (= 1)       4 bytes
//!          first_seq u64 LE            8 bytes
//! records: [ len u32 LE                4 bytes   (payload length)
//!            crc u32 LE                4 bytes   (CRC-32 of seq ++ payload)
//!            seq u64 LE                8 bytes
//!            payload                   len bytes ] *
//! ```
//!
//! Sequence numbers are assigned by the writer, strictly increasing by
//! one across segment boundaries; the first record of a segment carries
//! the segment's `first_seq`.
//!
//! # Torn tails
//!
//! A crash can leave the last record half-written (or, still buffered
//! ahead of its commit, absent entirely).  [`read_log`] accepts that: it
//! returns every record whose frame, checksum and sequence number are
//! intact, **stopping at the first that is not**, reports where the
//! valid prefix ends as a [`TailPosition`] so a resuming [`WalWriter`]
//! can truncate the torn bytes and continue appending at the next
//! sequence number, and counts the discarded bytes and residual record
//! frames so recovery can tell a clean shutdown from a truncation.
//!
//! # Failure policy
//!
//! All I/O goes through a [`Vfs`], so the fault-injection suites can
//! exercise every failure path.  A commit that fails *transiently*
//! (`EINTR`-style write errors, torn writes, fsync failures) is retried
//! under the configured [`RetryPolicy`](crate::retry::RetryPolicy) — but never by re-issuing the
//! same syscall over unknown file state.  Each retry round **reopens
//! the segment, truncates it back to the last known-committed length,
//! and rewrites the still-buffered bytes** before syncing again; this
//! is the only sound recovery under fsyncgate semantics, where a failed
//! fsync may have dropped the unsynced pages for good.  `ENOSPC` and
//! exhausted retries are final: the writer poisons itself (best-effort
//! truncating any torn tail first) and the service layer degrades to
//! read-only serving instead of panicking.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::Crc32;
use crate::retry::{is_transient, Clock, SystemClock};
use crate::vfs::{StdVfs, Vfs, VfsFile};
use crate::DurabilityConfig;

/// Segment file magic: "FDC WAL format 01".
pub const SEGMENT_MAGIC: &[u8; 8] = b"FDCWAL01";
/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Bytes of segment header before the first record.
pub const SEGMENT_HEADER_LEN: u64 = 20;
/// Bytes of record framing before the payload (`len + crc + seq`).
pub const RECORD_HEADER_LEN: usize = 16;

/// Largest accepted record payload (a sanity bound for the reader — a
/// corrupt length prefix must not look like a plausible giant record).
pub const MAX_RECORD_LEN: u32 = 1 << 30;

/// Builds the file name of the segment whose first record is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// One intact record read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number.
    pub seq: u64,
    /// The record's payload, exactly as appended.
    pub payload: Vec<u8>,
}

/// Where the valid prefix of the log ends — the position a resuming
/// writer continues from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailPosition {
    /// The segment holding the last valid record and the byte length of
    /// its valid prefix (anything past it is torn and must be
    /// truncated), or `None` if the directory holds no segments.
    pub active_segment: Option<(PathBuf, u64)>,
    /// The sequence number the next appended record must carry.  `1`
    /// when the directory holds no segments at all (callers recovering
    /// from a checkpoint take the max of this and `checkpoint_seq + 1`).
    pub next_seq: u64,
}

/// Everything [`read_log`] found: the valid record prefix, the tail
/// position for a resuming writer, and how much was left behind.
#[derive(Debug)]
pub struct LogContents {
    /// All intact records, in sequence order.
    pub records: Vec<WalRecord>,
    /// Where the valid prefix ends.
    pub tail: TailPosition,
    /// Bytes past the valid prefix that the scan discarded: the torn
    /// tail of the active segment plus any unreachable later segments.
    /// `0` means the log was cleanly closed.
    pub discarded_bytes: u64,
    /// Residual record frames inside those discarded bytes (complete
    /// frames that failed their checksum or sequence check, plus one for
    /// a trailing partial frame).  A lower bound on lost records.
    pub discarded_records: u64,
}

/// Health counters of one [`WalWriter`], cheap enough to keep always-on
/// and surfaced through the service stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended (buffered; not necessarily yet committed).
    pub appends: u64,
    /// Successful commits (write + optional fsync reached disk).
    pub commits: u64,
    /// Successful `sync_data` calls on segment files.
    pub fsyncs: u64,
    /// Failed `sync_data` calls (each one triggers reopen-and-rewrite
    /// recovery, never a naive re-fsync).
    pub fsync_failures: u64,
    /// Retry rounds taken by commits that eventually succeeded or died.
    pub retries: u64,
    /// Times a segment was reopened and truncated back to its committed
    /// length to recover from a failed write or fsync.
    pub segment_recoveries: u64,
    /// Records made durable by successful commits.
    pub records_committed: u64,
    /// Largest number of records a single successful commit flushed.
    pub max_commit_records: u64,
}

impl WalStats {
    /// Folds another stats snapshot into this one (sums, except the
    /// batch high-water mark which takes the max).  The service layer
    /// uses this to carry counters across writer replacements.
    pub fn absorb(&mut self, other: WalStats) {
        self.appends += other.appends;
        self.commits += other.commits;
        self.fsyncs += other.fsyncs;
        self.fsync_failures += other.fsync_failures;
        self.retries += other.retries;
        self.segment_recoveries += other.segment_recoveries;
        self.records_committed += other.records_committed;
        self.max_commit_records = self.max_commit_records.max(other.max_commit_records);
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Lists segment files in `dir`, sorted by the `first_seq` encoded in
/// their names.
fn list_segments(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for name in vfs.list(dir)? {
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, dir.join(&name)));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Encodes one record frame (header + payload) into `out`.
fn encode_record(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= MAX_RECORD_LEN as u64);
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Scans one segment's bytes.  Returns the records that check out, the
/// byte length of the valid prefix, and whether the scan was `clean`
/// (reached end-of-file without meeting a torn or corrupt record).
///
/// `expected_seq` is the sequence number the first record must carry
/// (`None` lets the segment header decide).
fn scan_segment(
    bytes: &[u8],
    expected_first: Option<u64>,
    records: &mut Vec<WalRecord>,
) -> io::Result<(u64, bool, u64)> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return Err(invalid("segment shorter than its header".into()));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(invalid("bad segment magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION {
        return Err(invalid(format!("unsupported segment version {version}")));
    }
    let first_seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if let Some(expected) = expected_first {
        if first_seq != expected {
            return Err(invalid(format!(
                "segment first_seq {first_seq} does not continue the log (expected {expected})"
            )));
        }
    }
    let mut pos = SEGMENT_HEADER_LEN as usize;
    let mut next_seq = first_seq;
    loop {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            // End of file (clean) or a torn frame header (not clean).
            return Ok((pos as u64, bytes.len() == pos, next_seq));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
        if len > MAX_RECORD_LEN || bytes.len() - pos - RECORD_HEADER_LEN < len as usize {
            return Ok((pos as u64, false, next_seq));
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len as usize];
        let mut crc = Crc32::new();
        crc.update(&seq.to_le_bytes());
        crc.update(payload);
        if crc.finish() != stored_crc || seq != next_seq {
            return Ok((pos as u64, false, next_seq));
        }
        records.push(WalRecord {
            seq,
            payload: payload.to_vec(),
        });
        pos += RECORD_HEADER_LEN + len as usize;
        next_seq = seq + 1;
    }
}

/// True if `bytes` are a segment whose header never reached the disk whole
/// and that holds no record: shorter than a header but agreeing with one
/// as far as it goes (magic, then version), or exactly a header's worth of
/// zeros.  That is what a creation leaves when `ENOSPC` or a dead disk cuts
/// its header write — or a failed fsync drops it — and nothing after it was
/// ever acknowledged.  A wrong magic or version is not torn: it is someone
/// else's file.
fn torn_header(bytes: &[u8]) -> bool {
    let mut prefix = SEGMENT_MAGIC.to_vec();
    prefix.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    let checked = bytes.len().min(prefix.len());
    (bytes.len() < SEGMENT_HEADER_LEN as usize && bytes[..checked] == prefix[..checked])
        || (bytes.len() == SEGMENT_HEADER_LEN as usize && bytes.iter().all(|&b| b == 0))
}

/// Counts record frames in the discarded region starting at `pos`:
/// complete frames (whatever their checksum says) plus one for any
/// trailing partial frame.  A lower bound on records lost to the tear.
fn count_residual_frames(bytes: &[u8], mut pos: usize) -> u64 {
    let mut count = 0;
    while bytes.len().saturating_sub(pos) >= RECORD_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            break;
        }
        let frame = RECORD_HEADER_LEN + len as usize;
        if bytes.len() - pos < frame {
            break;
        }
        count += 1;
        pos += frame;
    }
    if pos < bytes.len() {
        count += 1;
    }
    count
}

/// Reads the whole log back: every intact record in order, stopping at
/// the first truncated or corrupt one (a *torn tail*), plus the
/// [`TailPosition`] a resuming writer continues from.
///
/// Records must be sequence-contiguous; a record whose number breaks the
/// chain (as a mid-log corruption would produce) also stops the scan.
/// Structural damage *before* any record — wrong magic, an impossible
/// version — is reported as an error rather than an empty log, so operator
/// mistakes (pointing at the wrong directory) are not silently "recovered"
/// from — and so is a first segment cut inside its header when its name
/// says it begins the log (`first_seq` 1): nothing ever covered what came
/// before it.  A first segment named past 1 exists only because a
/// checkpoint covered its predecessors and they were removed (pruning, a
/// degraded promotion); if its header tore for good and no record follows
/// (short or zeroed, see `torn_header`) — the promotion's fresh segment cut
/// by `ENOSPC` — it reads as a torn tail, and recovery starts from that
/// checkpoint.
///
/// Everything past the valid prefix is accounted in
/// [`LogContents::discarded_bytes`] and
/// [`LogContents::discarded_records`] rather than silently dropped.
pub fn read_log(vfs: &dyn Vfs, dir: &Path) -> io::Result<LogContents> {
    let segments = list_segments(vfs, dir)?;
    let mut records = Vec::new();
    let mut tail = TailPosition {
        active_segment: None,
        next_seq: 1,
    };
    let mut discarded_bytes = 0u64;
    let mut discarded_records = 0u64;
    let mut expected_first: Option<u64> = None;
    // Once the chain breaks, every later segment is unreachable: count
    // it as discarded instead of scanning it.
    let mut stopped = false;
    for (index, &(first_seq, ref path)) in segments.iter().enumerate() {
        if stopped {
            discarded_bytes += vfs.file_len(path).unwrap_or(0);
            continue;
        }
        let bytes = vfs.read(path)?;
        let scanned = scan_segment(&bytes, expected_first, &mut records);
        let (valid_len, clean, next_seq) = match scanned {
            Ok(result) => result,
            Err(err)
                if index == 0 && records.is_empty() && !(first_seq > 1 && torn_header(&bytes)) =>
            {
                return Err(err)
            }
            // A later segment that does not continue the chain is
            // unreachable past the valid prefix: stop at the previous
            // tail (already recorded below).
            Err(_) => {
                stopped = true;
                discarded_bytes += bytes.len() as u64;
                if bytes.len() as u64 > SEGMENT_HEADER_LEN {
                    discarded_records += count_residual_frames(&bytes, SEGMENT_HEADER_LEN as usize);
                }
                continue;
            }
        };
        tail = TailPosition {
            active_segment: Some((path.clone(), valid_len)),
            next_seq,
        };
        if !clean {
            stopped = true;
            discarded_bytes += bytes.len() as u64 - valid_len;
            discarded_records += count_residual_frames(&bytes, valid_len as usize);
            continue;
        }
        expected_first = Some(next_seq);
    }
    Ok(LogContents {
        records,
        tail,
        discarded_bytes,
        discarded_records,
    })
}

/// Deletes every segment made wholly redundant by a checkpoint at
/// `upto_seq`: segment `i` can go once a *later* segment exists whose
/// `first_seq <= upto_seq + 1` (every record the deleted segment holds
/// is then both below the checkpoint and not the replay start point).
pub fn prune_segments(vfs: &dyn Vfs, dir: &Path, upto_seq: u64) -> io::Result<usize> {
    let segments = list_segments(vfs, dir)?;
    let mut removed = 0;
    for window in segments.windows(2) {
        let (_, ref path) = window[0];
        let (next_first, _) = window[1];
        if next_first <= upto_seq + 1 {
            vfs.remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Which stage of a commit failed — the distinction matters because a
/// failed *write* may be retried after truncating back to known-good
/// state, while a failed *fsync* must additionally assume the unsynced
/// pages are gone (both recover via reopen-and-rewrite; neither ever
/// re-issues the failing call over unknown state).
enum FlushStage {
    Write,
    Sync,
}

/// The appending side of the log: committed by its caller, size-rotated,
/// with bounded retry-and-rewrite recovery on transient storage failures.
///
/// Appends buffer in memory and reach the file (and, if configured, the
/// disk) at *commit points*: [`commit`](WalWriter::commit), and the
/// rotation an append triggers once the segment — buffered bytes included
/// — has reached [`DurabilityConfig::segment_bytes`], which is what bounds
/// the buffer.  Callers enforce the write-ahead invariant by committing
/// before applying the logged operations.
///
/// A commit that fails past its retry budget **poisons** the writer:
/// the buffered records are dropped (after a best-effort truncation of
/// any torn bytes), and every later call fails fast.  The service layer
/// responds by degrading to read-only serving and replacing the writer
/// once a checkpoint lands on a recovered disk.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    config: DurabilityConfig,
    vfs: Arc<dyn Vfs>,
    clock: Arc<dyn Clock>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes of the current segment known committed (written, and synced
    /// when fsync is on).  Recovery truncates back to this offset.
    committed_len: u64,
    /// `committed_len` plus the bytes buffered in `buf` (what the
    /// segment will hold after the next successful commit) — the size
    /// rotation is decided on.
    segment_len: u64,
    next_seq: u64,
    buf: Vec<u8>,
    pending: usize,
    poisoned: bool,
    stats: WalStats,
}

impl WalWriter {
    /// Starts a fresh segment in `dir` (created if absent) whose first
    /// record will carry `first_seq`, on the production [`StdVfs`].
    pub fn create(dir: &Path, config: DurabilityConfig, first_seq: u64) -> io::Result<Self> {
        Self::create_in(
            Arc::new(StdVfs),
            Arc::new(SystemClock),
            dir,
            config,
            first_seq,
        )
    }

    /// [`create`](Self::create) through an explicit [`Vfs`] and
    /// [`Clock`].
    pub fn create_in(
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
        dir: &Path,
        config: DurabilityConfig,
        first_seq: u64,
    ) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        let mut stats = WalStats::default();
        let (file, path, segment_len) = Self::new_segment(
            vfs.as_ref(),
            clock.as_ref(),
            &config,
            dir,
            first_seq,
            &mut stats,
        )?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            config,
            vfs,
            clock,
            file,
            path,
            committed_len: segment_len,
            segment_len,
            next_seq: first_seq,
            buf: Vec::new(),
            pending: 0,
            poisoned: false,
            stats,
        })
    }

    /// Resumes appending after [`read_log`]: truncates the torn tail of
    /// the active segment (if any), removes any unreachable later
    /// segments, and continues at `tail.next_seq`.
    ///
    /// `min_next_seq` guards the case where every segment was pruned
    /// after a checkpoint: when the directory is empty the writer starts
    /// at `max(tail.next_seq, min_next_seq)` (callers pass
    /// `checkpoint_seq + 1`).
    pub fn resume(
        vfs: Arc<dyn Vfs>,
        clock: Arc<dyn Clock>,
        dir: &Path,
        config: DurabilityConfig,
        tail: &TailPosition,
        min_next_seq: u64,
    ) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        // Segments past the active one are unreachable (their records
        // sit beyond a torn or corrupt region) — with no active segment,
        // every one is (a header torn for good): remove them so rotation
        // cannot collide with a stale file and no later scan meets them
        // ahead of the fresh segment.
        let active = tail.active_segment.as_ref().map(|(path, _)| path);
        for (first_seq, other) in list_segments(vfs.as_ref(), dir)? {
            if first_seq >= tail.next_seq && active != Some(&other) {
                vfs.remove_file(&other)?;
            }
        }
        let Some((path, valid_len)) = &tail.active_segment else {
            return Self::create_in(vfs, clock, dir, config, tail.next_seq.max(min_next_seq));
        };
        let mut file = vfs.open_rw(path)?;
        file.set_len(*valid_len)?;
        file.seek_end()?;
        if config.fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            config,
            vfs,
            clock,
            file,
            path: path.clone(),
            committed_len: *valid_len,
            segment_len: *valid_len,
            next_seq: tail.next_seq,
            buf: Vec::new(),
            pending: 0,
            poisoned: false,
            stats: WalStats::default(),
        })
    }

    /// Creates the next segment file and writes its header — synced, if
    /// [`DurabilityConfig::fsync`], because the caller counts the header as
    /// committed length: fsyncgate recovery truncates back to that length,
    /// and over a header the disk never took it would keep zeros.
    /// Transient failures and a failed sync are retried by re-creating
    /// (which truncates whatever the failed attempt left); retry rounds and
    /// syncs are counted into `stats`.
    fn new_segment(
        vfs: &dyn Vfs,
        clock: &dyn Clock,
        config: &DurabilityConfig,
        dir: &Path,
        first_seq: u64,
        stats: &mut WalStats,
    ) -> io::Result<(Box<dyn VfsFile>, PathBuf, u64)> {
        let path = dir.join(segment_file_name(first_seq));
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&first_seq.to_le_bytes());
        let mut attempt = 0u32;
        loop {
            let mut sync_failed = false;
            let attempted = vfs.create(&path).and_then(|mut file| {
                file.write_all(&header)?;
                if config.fsync {
                    file.sync_data().inspect_err(|_| sync_failed = true)?;
                    stats.fsyncs += 1;
                }
                Ok(file)
            });
            stats.fsync_failures += u64::from(sync_failed);
            match attempted {
                Ok(file) => return Ok((file, path, SEGMENT_HEADER_LEN)),
                Err(err)
                    if (sync_failed || is_transient(&err))
                        && config.retry.should_retry(attempt) =>
                {
                    stats.retries += 1;
                    clock.sleep(config.retry.delay_for(attempt, first_seq));
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// The sequence number the next [`append`](WalWriter::append) will
    /// return.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This writer's health counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Whether a fatal commit failure has poisoned this writer (every
    /// later append or commit fails fast until it is replaced).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn poisoned_err() -> io::Error {
        io::Error::other(
            "write-ahead log writer is poisoned by an earlier unrecoverable commit failure",
        )
    }

    /// Appends one record, returning its sequence number.  The record is
    /// buffered when this returns; it is on disk once
    /// [`commit`](WalWriter::commit) runs (or a later append rotates the
    /// segment, which commits first).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= MAX_RECORD_LEN as u64,
            "WAL record payload exceeds MAX_RECORD_LEN"
        );
        if self.poisoned {
            return Err(Self::poisoned_err());
        }
        if let Some(limit) = self.config.rotate_at() {
            if self.segment_len >= limit {
                self.rotate()?;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let before = self.buf.len();
        encode_record(&mut self.buf, seq, payload);
        self.segment_len += (self.buf.len() - before) as u64;
        self.pending += 1;
        self.stats.appends += 1;
        Ok(seq)
    }

    /// One flush attempt: write the buffered bytes, then (if configured)
    /// sync.  On failure reports which stage died — the caller recovers
    /// by reopen-and-rewrite, never by repeating the failed call.
    fn try_flush(&mut self) -> Result<(), (FlushStage, io::Error)> {
        self.file
            .write_all(&self.buf)
            .map_err(|err| (FlushStage::Write, err))?;
        if self.config.fsync {
            match self.file.sync_data() {
                Ok(()) => self.stats.fsyncs += 1,
                Err(err) => {
                    self.stats.fsync_failures += 1;
                    return Err((FlushStage::Sync, err));
                }
            }
        }
        Ok(())
    }

    /// Reopens the current segment, truncates it back to the committed
    /// length and positions at its end — the only sound way to retry
    /// after a torn write or a failed fsync (whose unsynced pages may be
    /// gone for good).
    fn reopen_segment(&mut self) -> io::Result<()> {
        let mut file = self.vfs.open_rw(&self.path)?;
        file.set_len(self.committed_len)?;
        file.seek_end()?;
        self.file = file;
        self.stats.segment_recoveries += 1;
        Ok(())
    }

    /// Flushes every buffered append to the file and (if
    /// [`DurabilityConfig::fsync`]) to disk: the commit point.
    ///
    /// Transient failures are retried under the configured
    /// [`RetryPolicy`](crate::retry::RetryPolicy), each round truncating back to the committed
    /// offset and rewriting the whole buffer.  A failure that exhausts
    /// the budget (or is final to begin with, like `ENOSPC`) poisons the
    /// writer and returns the error; the buffered records are dropped so
    /// an operation the caller rejected can never resurface on replay.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.poisoned {
            return Err(Self::poisoned_err());
        }
        if self.buf.is_empty() {
            self.pending = 0;
            return Ok(());
        }
        let policy = self.config.retry;
        let mut attempt = 0u32;
        loop {
            let (stage, err) = match self.try_flush() {
                Ok(()) => {
                    self.committed_len += self.buf.len() as u64;
                    debug_assert_eq!(self.committed_len, self.segment_len);
                    self.buf.clear();
                    self.stats.commits += 1;
                    self.stats.records_committed += self.pending as u64;
                    self.stats.max_commit_records =
                        self.stats.max_commit_records.max(self.pending as u64);
                    self.pending = 0;
                    return Ok(());
                }
                Err(failure) => failure,
            };
            // A failed *write* left the file in an unknown state only if
            // it was transient/torn; `ENOSPC` and hard errors are final.
            // A failed *sync* is always recoverable-by-rewrite (the data
            // may be dropped, but the bytes are still in `buf`) — what
            // is never sound is re-issuing the same fsync.
            let recoverable = match stage {
                FlushStage::Write => is_transient(&err),
                FlushStage::Sync => true,
            };
            if recoverable && policy.should_retry(attempt) {
                self.stats.retries += 1;
                self.clock.sleep(policy.delay_for(attempt, self.next_seq));
                attempt += 1;
                match self.reopen_segment() {
                    Ok(()) => continue,
                    Err(reopen_err) => return self.poison(reopen_err),
                }
            }
            return self.poison(err);
        }
    }

    /// Fatal-failure path: best-effort truncation of any torn bytes (so
    /// a record the caller is about to reject cannot survive on disk),
    /// then drop the buffer and fail fast forever after.
    fn poison(&mut self, err: io::Error) -> io::Result<()> {
        if let Ok(mut file) = self.vfs.open_rw(&self.path) {
            let _ = file.set_len(self.committed_len);
        }
        self.segment_len = self.committed_len;
        self.buf.clear();
        self.pending = 0;
        self.poisoned = true;
        Err(err)
    }

    /// Closes the current segment and starts the next one at the current
    /// sequence position.  Commits first, so the old segment is complete
    /// on disk before the new one exists.  Checkpointing callers rotate
    /// right after writing a checkpoint so the covered segment becomes
    /// eligible for [`prune_segments`].
    pub fn rotate(&mut self) -> io::Result<()> {
        self.commit()?;
        let (file, path, segment_len) = Self::new_segment(
            self.vfs.as_ref(),
            self.clock.as_ref(),
            &self.config,
            &self.dir,
            self.next_seq,
            &mut self.stats,
        )?;
        self.file = file;
        self.path = path;
        self.committed_len = segment_len;
        self.segment_len = segment_len;
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort final flush; explicit `commit` is the durable path.
        if !self.poisoned {
            let _ = self.commit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{InstantClock, RetryPolicy};
    use crate::vfs::{FaultSchedule, FaultVfs};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdc_wal_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_fsync() -> DurabilityConfig {
        DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        }
    }

    fn resume_std(dir: &Path, tail: &TailPosition, min_next_seq: u64) -> WalWriter {
        let (vfs, clock) = (Arc::new(StdVfs), Arc::new(SystemClock));
        WalWriter::resume(vfs, clock, dir, no_fsync(), tail, min_next_seq).unwrap()
    }

    /// Appends one record and commits it: a request of one.
    fn append_committed(writer: &mut WalWriter, payload: &[u8]) -> io::Result<u64> {
        let seq = writer.append(payload)?;
        writer.commit()?;
        Ok(seq)
    }

    #[test]
    fn round_trips_records_in_order() {
        let dir = temp_dir("round_trip");
        let mut writer = WalWriter::create(&dir, no_fsync(), 1).unwrap();
        for i in 0..10u8 {
            assert_eq!(writer.append(&[i; 3]).unwrap(), 1 + i as u64);
        }
        writer.commit().unwrap();
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 10);
        assert_eq!(log.records[4].seq, 5);
        assert_eq!(log.records[4].payload, vec![4u8; 3]);
        assert_eq!(log.tail.next_seq, 11);
        assert_eq!(log.discarded_bytes, 0, "a clean log discards nothing");
        assert_eq!(log.discarded_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_reach_the_file_at_commit_or_rotation_never_before() {
        let dir = temp_dir("commit_points");
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync: false,
            ..DurabilityConfig::default()
        };
        let mut writer = WalWriter::create(&dir, config, 1).unwrap();
        writer.append(b"a").unwrap();
        writer.append(b"b").unwrap();
        // Buffered: nothing past the header on disk.
        assert_eq!(read_log(&StdVfs, &dir).unwrap().records.len(), 0);
        writer.commit().unwrap();
        assert_eq!(read_log(&StdVfs, &dir).unwrap().records.len(), 2);
        // 20 header bytes + 17 a record: `c` takes the segment, buffer
        // included, to 71 ≥ 64, so the next append rotates — which commits
        // `c` and leaves `d` buffered in the fresh segment.
        writer.append(b"c").unwrap();
        assert_eq!(read_log(&StdVfs, &dir).unwrap().records.len(), 2);
        writer.append(b"d").unwrap();
        assert_eq!(read_log(&StdVfs, &dir).unwrap().records.len(), 3);
        assert_eq!(list_segments(&StdVfs, &dir).unwrap().len(), 2);
        writer.commit().unwrap();
        assert_eq!(read_log(&StdVfs, &dir).unwrap().records.len(), 4);
        let stats = writer.stats();
        assert_eq!(stats.appends, 4);
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.records_committed, 4);
        assert_eq!(stats.max_commit_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_reader_spans_them() {
        let dir = temp_dir("rotation");
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync: false,
            ..DurabilityConfig::default()
        };
        let mut writer = WalWriter::create(&dir, config, 1).unwrap();
        for i in 0..20u64 {
            writer.append(&i.to_le_bytes()).unwrap();
        }
        writer.commit().unwrap();
        assert!(list_segments(&StdVfs, &dir).unwrap().len() > 1);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 20);
        assert_eq!(log.tail.next_seq, 21);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_truncation_point() {
        let dir = temp_dir("torn_tail");
        let mut writer = WalWriter::create(&dir, no_fsync(), 1).unwrap();
        for i in 0..5u8 {
            writer.append(&[i; 7]).unwrap();
        }
        writer.commit().unwrap();
        drop(writer);
        let path = dir.join(segment_file_name(1));
        let full = fs::read(&path).unwrap();
        for cut in (SEGMENT_HEADER_LEN as usize)..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let log = read_log(&StdVfs, &dir).unwrap();
            let complete = (cut - SEGMENT_HEADER_LEN as usize) / (RECORD_HEADER_LEN + 7);
            assert_eq!(log.records.len(), complete, "cut at byte {cut}");
            assert_eq!(log.tail.next_seq, complete as u64 + 1);
            let valid = SEGMENT_HEADER_LEN + (complete * (RECORD_HEADER_LEN + 7)) as u64;
            assert_eq!(log.discarded_bytes, cut as u64 - valid, "cut at byte {cut}");
            assert_eq!(log.discarded_records, u64::from(cut as u64 != valid));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_the_scan_and_counts_the_residue() {
        let dir = temp_dir("corrupt");
        let mut writer = WalWriter::create(&dir, no_fsync(), 1).unwrap();
        for i in 0..4u8 {
            writer.append(&[i; 8]).unwrap();
        }
        writer.commit().unwrap();
        drop(writer);
        let path = dir.join(segment_file_name(1));
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the third record.
        let record_len = RECORD_HEADER_LEN + 8;
        let offset = SEGMENT_HEADER_LEN as usize + 2 * record_len + RECORD_HEADER_LEN + 3;
        bytes[offset] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.tail.next_seq, 3);
        // The corrupt record and the (unreachable) intact one after it.
        assert_eq!(log.discarded_bytes, 2 * record_len as u64);
        assert_eq!(log.discarded_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_and_continues_the_sequence() {
        let dir = temp_dir("resume");
        let mut writer = WalWriter::create(&dir, no_fsync(), 1).unwrap();
        for i in 0..3u8 {
            writer.append(&[i; 4]).unwrap();
        }
        writer.commit().unwrap();
        drop(writer);
        let path = dir.join(segment_file_name(1));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 2);
        let mut writer = resume_std(&dir, &log.tail, 1);
        assert_eq!(writer.next_seq(), 3);
        writer.append(b"resumed").unwrap();
        writer.commit().unwrap();
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[2].payload, b"resumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_on_empty_directory_honours_min_next_seq() {
        let dir = temp_dir("resume_empty");
        let log = read_log(&StdVfs, &dir).unwrap();
        assert!(log.records.is_empty());
        let writer = resume_std(&dir, &log.tail, 42);
        assert_eq!(writer.next_seq(), 42);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_only_checkpoint_covered_segments() {
        let dir = temp_dir("prune");
        let config = DurabilityConfig {
            segment_bytes: 48,
            fsync: false,
            ..DurabilityConfig::default()
        };
        let mut writer = WalWriter::create(&dir, config, 1).unwrap();
        for i in 0..12u64 {
            writer.append(&i.to_le_bytes()).unwrap();
        }
        writer.commit().unwrap();
        let before = list_segments(&StdVfs, &dir).unwrap();
        assert!(before.len() >= 3);
        // A checkpoint at the last record covers every non-final segment.
        let removed = prune_segments(&StdVfs, &dir, 12).unwrap();
        assert_eq!(removed, before.len() - 1);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.tail.next_seq, 13);
        // A checkpoint below the first surviving record removes nothing.
        assert_eq!(prune_segments(&StdVfs, &dir, 0).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_whose_header_tore_for_good_is_a_torn_tail_not_a_refusal() {
        // A degraded promotion writes a checkpoint at 7, removes every
        // segment, then creates the fresh one at 8; `ENOSPC` on its header
        // write leaves an empty file — the only segment recovery will see.
        let dir = temp_dir("torn_header");
        let schedule = FaultSchedule {
            seed: 3,
            enospc_per_mille: 1000,
            ..FaultSchedule::default()
        };
        let vfs = Arc::new(FaultVfs::over_std(schedule));
        let clock = Arc::new(InstantClock::new());
        let err = WalWriter::create_in(vfs, clock, &dir, no_fsync(), 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let path = dir.join(segment_file_name(8));
        assert_eq!(fs::read(&path).unwrap(), b"");
        let mut header = SEGMENT_MAGIC.to_vec();
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&8u64.to_le_bytes());
        // Empty, cut anywhere inside the header, or zeroed: no record, so
        // nothing acknowledged is behind it — an empty log.
        let mut torn: Vec<Vec<u8>> = (0..header.len())
            .map(|cut| header[..cut].to_vec())
            .collect();
        torn.push(vec![0; header.len()]);
        for bytes in torn {
            fs::write(&path, &bytes).unwrap();
            let log = read_log(&StdVfs, &dir).unwrap_or_else(|e| panic!("{bytes:?}: {e}"));
            assert!(log.records.is_empty());
            assert_eq!(log.tail.active_segment, None, "{bytes:?}");
            assert_eq!(log.discarded_bytes, bytes.len() as u64);
            assert_eq!(log.discarded_records, 0);
            // The writer resumes past the checkpoint the caller names and
            // the torn file is replaced, not stitched in.
            let mut writer = resume_std(&dir, &log.tail, 8);
            append_committed(&mut writer, b"after").unwrap();
            drop(writer);
            let log = read_log(&StdVfs, &dir).unwrap();
            assert_eq!(log.records.len(), 1, "{bytes:?}");
            assert_eq!((log.records[0].seq, log.discarded_bytes), (8, 0));
        }
        // What is there must still be a header: a wrong magic or version is
        // somebody else's file, however short.
        let mut wrong_version = header[..12].to_vec();
        wrong_version[8] = 2;
        for bytes in [b"FDCWAL02".to_vec(), b"not a wal".to_vec(), wrong_version] {
            fs::write(&path, &bytes).unwrap();
            assert!(read_log(&StdVfs, &dir).is_err(), "{bytes:?}");
        }
        // The log's very first segment torn in its header is still refused:
        // no checkpoint ever covered what came before it.
        fs::remove_file(&path).unwrap();
        fs::write(dir.join(segment_file_name(1)), &header[..11]).unwrap();
        assert!(read_log(&StdVfs, &dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_directory_is_an_error_not_an_empty_log() {
        let dir = temp_dir("wrong_dir");
        fs::write(dir.join(segment_file_name(1)), b"not a wal segment at all").unwrap();
        assert!(read_log(&StdVfs, &dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A writer over a `FaultVfs` with instant backoff, for fault
    /// tests.  The segment is created under a quiet schedule; the real
    /// one is armed only once the writer exists, so each test exercises
    /// exactly the append/commit path it means to.
    fn fault_writer(
        dir: &Path,
        config: DurabilityConfig,
        schedule: FaultSchedule,
    ) -> (WalWriter, FaultVfs, Arc<InstantClock>) {
        let vfs = FaultVfs::over_std(FaultSchedule::quiet(schedule.seed));
        let clock = Arc::new(InstantClock::new());
        let writer =
            WalWriter::create_in(Arc::new(vfs.clone()), clock.clone(), dir, config, 1).unwrap();
        vfs.set_schedule(schedule);
        (writer, vfs, clock)
    }

    #[test]
    fn transient_write_errors_are_retried_to_success() {
        let dir = temp_dir("retry_transient");
        let config = DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 77,
            write_transient_per_mille: 300,
            ..FaultSchedule::default()
        };
        let (mut writer, vfs, clock) = fault_writer(&dir, config, schedule);
        for i in 0..200u64 {
            append_committed(&mut writer, &i.to_le_bytes()).unwrap();
        }
        let stats = writer.stats();
        assert!(stats.retries > 0, "the schedule must have forced retries");
        assert_eq!(stats.retries, clock.sleep_count(), "each retry backs off");
        assert!(vfs.counters().transient_writes > 0);
        drop(writer);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 200, "every committed record survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_writes_recover_by_truncate_and_rewrite() {
        let dir = temp_dir("retry_torn");
        let config = DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 1234,
            torn_write_per_mille: 250,
            ..FaultSchedule::default()
        };
        let (mut writer, vfs, _clock) = fault_writer(&dir, config, schedule);
        for i in 0..200u64 {
            writer.append(&i.to_le_bytes()).unwrap();
            if i % 4 == 3 {
                writer.commit().unwrap();
            }
        }
        assert!(vfs.counters().torn_writes > 0);
        assert!(writer.stats().segment_recoveries > 0);
        drop(writer);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 200);
        for (i, record) in log.records.iter().enumerate() {
            assert_eq!(record.payload, (i as u64).to_le_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failures_recover_by_rewrite_not_refsync() {
        let dir = temp_dir("retry_fsync");
        let config = DurabilityConfig {
            fsync: true,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 99,
            fsync_failure_per_mille: 250,
            ..FaultSchedule::default()
        };
        let (mut writer, vfs, _clock) = fault_writer(&dir, config, schedule);
        for i in 0..100u64 {
            append_committed(&mut writer, &i.to_le_bytes()).unwrap();
        }
        let stats = writer.stats();
        assert!(stats.fsync_failures > 0, "the schedule must hit fsyncs");
        assert_eq!(stats.fsync_failures, vfs.counters().fsync_failures);
        assert!(
            stats.segment_recoveries >= stats.fsync_failures,
            "every failed fsync must reopen-and-rewrite, never re-fsync"
        );
        drop(writer);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(
            log.records.len(),
            100,
            "fsyncgate loses no committed record"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fresh_segment_header_survives_a_failed_fsync() {
        // Rotation under fsyncgate: a failed sync drops everything the
        // disk never took.  If that could include a fresh segment's
        // header, reopen-and-rewrite would truncate "back" to a header of
        // zeros and every later record would sit behind a bad magic.
        let dir = temp_dir("rotate_fsync");
        let config = DurabilityConfig {
            segment_bytes: 64,
            fsync: true,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 99,
            fsync_failure_per_mille: 250,
            ..FaultSchedule::default()
        };
        let (mut writer, vfs, _clock) = fault_writer(&dir, config, schedule);
        for i in 0..100u64 {
            append_committed(&mut writer, &i.to_le_bytes()).unwrap();
        }
        assert!(vfs.counters().fsync_failures > 0);
        drop(writer);
        assert!(list_segments(&StdVfs, &dir).unwrap().len() > 10);
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 100, "no committed record is lost");
        assert_eq!(log.discarded_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dead_disk_poisons_the_writer_and_sheds_the_buffer() {
        let dir = temp_dir("dead_disk");
        let config = DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        };
        let (mut writer, vfs, _clock) = fault_writer(&dir, config, FaultSchedule::quiet(1));
        append_committed(&mut writer, b"acked").unwrap();
        vfs.fail_permanently();
        let err = append_committed(&mut writer, b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected permanent disk failure"));
        assert!(writer.is_poisoned());
        // Poisoned: even after the disk heals, this writer refuses.
        vfs.heal();
        assert!(writer.append(b"late").is_err());
        assert!(writer.commit().is_err());
        drop(writer);
        // Only the acknowledged record survives; the rejected one can
        // never resurface on replay.
        let log = read_log(&StdVfs, &dir).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.records[0].payload, b"acked");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_final_not_retried() {
        let dir = temp_dir("enospc_final");
        let config = DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 6,
            enospc_per_mille: 1000,
            ..FaultSchedule::default()
        };
        let (mut writer, _vfs, clock) = fault_writer(&dir, config, schedule);
        let err = append_committed(&mut writer, b"wont fit").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(clock.sleep_count(), 0, "ENOSPC must not back off and retry");
        assert!(writer.is_poisoned());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retries_poison_with_bounded_backoff() {
        let dir = temp_dir("exhausted");
        let retry = RetryPolicy {
            max_retries: 3,
            base_delay_micros: 100,
            max_delay_micros: 1_000,
            jitter_seed: 5,
        };
        let config = DurabilityConfig {
            fsync: false,
            retry,
            ..DurabilityConfig::default()
        };
        let schedule = FaultSchedule {
            seed: 21,
            write_transient_per_mille: 1000,
            ..FaultSchedule::default()
        };
        let (mut writer, _vfs, clock) = fault_writer(&dir, config, schedule);
        assert!(append_committed(&mut writer, b"never lands").is_err());
        assert_eq!(clock.sleep_count(), 3, "exactly max_retries backoffs");
        assert!(writer.is_poisoned());
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Atomic, checksummed checkpoints.
//!
//! A checkpoint is an opaque payload (the upper layers serialize the
//! policy arena, per-principal records, view registry and interner into
//! it) stamped with the WAL sequence number it covers: recovery loads
//! the latest *valid* checkpoint and replays only the log records past
//! its sequence number.
//!
//! # On-disk format
//!
//! One file per checkpoint, named `ckpt-<seq:020>.ck`:
//!
//! ```text
//! magic    b"FDCCKPT1"       8 bytes
//! version  u32 LE  (= 4)     4 bytes
//! seq      u64 LE            8 bytes   (last WAL seq the payload covers)
//! len      u64 LE            8 bytes   (payload length)
//! payload                    len bytes
//! crc      u32 LE            4 bytes   (CRC-32 of everything above)
//! ```
//!
//! The version numbers the *payload's* layout, which this crate never
//! looks inside.  Version 4 is the disclosure service's image whose policy
//! store section is one store's image and nothing else (version 3 put a
//! shard count and a principal count before one image per shard; version 2
//! carried a fan-out threshold after those counts; version 1 stored every
//! recorded query of the audit history in full).  There is one reader: a
//! file of any other version fails the version check, by number, like any
//! other invalid file.
//!
//! # Atomicity
//!
//! [`write_checkpoint`] writes to a `.tmp` sibling, syncs it, then
//! renames it into place — a crash mid-write leaves at worst a stray
//! temp file (swept by [`sweep_stale_temps`] on the next open), never a
//! half-written checkpoint under the real name.  The whole-file CRC
//! catches the remaining failure modes (partial rename targets on
//! non-atomic filesystems, bit rot), and [`latest_checkpoint`] skips
//! invalid files, naming each with its reason, and falls back to the
//! next-newest; its caller refuses a log that does not continue the image
//! it fell back to.
//!
//! All I/O goes through the caller's [`Vfs`], so the fault-injection
//! suites can exercise fsync failures and failed renames on the
//! checkpoint path too.

use std::io;
use std::path::{Path, PathBuf};

use crate::crc::{crc32, Crc32};
use crate::vfs::Vfs;

/// Checkpoint file magic: "FDC checkpoint format 1".
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FDCCKPT1";
/// Checkpoint format version (see the module docs for what 4 changed).
pub const CHECKPOINT_VERSION: u32 = 4;
/// Fixed bytes before the payload.
pub const CHECKPOINT_HEADER_LEN: usize = 28;

/// Builds the file name of the checkpoint covering WAL sequence `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.ck")
}

/// Lists checkpoint files in `dir`, sorted ascending by the sequence
/// number encoded in their names.
fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut checkpoints = Vec::new();
    for name in vfs.list(dir)? {
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".ck"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            checkpoints.push((seq, dir.join(&name)));
        }
    }
    checkpoints.sort();
    Ok(checkpoints)
}

/// Writes a checkpoint covering WAL sequence `seq` atomically into
/// `dir`, returning its final path.
///
/// `fsync` controls whether the temp file (and, on platforms where it
/// matters, the directory) is synced before and after the rename.
pub fn write_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    payload: &[u8],
    fsync: bool,
) -> io::Result<PathBuf> {
    vfs.create_dir_all(dir)?;
    let final_path = dir.join(checkpoint_file_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(seq)));
    let mut header = Vec::with_capacity(CHECKPOINT_HEADER_LEN);
    header.extend_from_slice(CHECKPOINT_MAGIC);
    header.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(payload);
    {
        let mut file = vfs.create(&tmp_path)?;
        file.write_all(&header)?;
        file.write_all(payload)?;
        file.write_all(&crc.finish().to_le_bytes())?;
        if fsync {
            file.sync_all()?;
        }
    }
    vfs.rename(&tmp_path, &final_path)?;
    if fsync {
        // Persist the rename itself where the platform allows syncing a
        // directory handle; failure is not actionable here.
        let _ = vfs.sync_dir(dir);
    }
    Ok(final_path)
}

/// Validates and decodes one checkpoint file.
fn load_checkpoint(vfs: &dyn Vfs, path: &Path) -> io::Result<(u64, Vec<u8>)> {
    let mut bytes = vfs.read(path)?;
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if bytes.len() < CHECKPOINT_HEADER_LEN + 4 {
        return Err(invalid("checkpoint shorter than header + trailer"));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(invalid("bad checkpoint magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(invalid(&format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    if bytes.len() as u64 != CHECKPOINT_HEADER_LEN as u64 + len + 4 {
        return Err(invalid("checkpoint length field disagrees with file size"));
    }
    let body_end = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(invalid("checkpoint checksum mismatch"));
    }
    bytes.truncate(body_end);
    bytes.drain(..CHECKPOINT_HEADER_LEN);
    Ok((seq, bytes))
}

/// A checkpoint's `(covered_seq, payload)`.
pub type Checkpoint = (u64, Vec<u8>);

/// Loads the newest checkpoint in `dir` that validates (magic, version,
/// length, whole-file CRC), returning it beside one line per newer file
/// skipped, newest first: `checkpoint <seq>: <reason>`.  Invalid or
/// half-written files are skipped, not fatal; `None` means no valid
/// checkpoint exists and recovery must replay the log from the beginning
/// — which only holds the beginning if nothing was pruned past a skipped
/// file, so the caller checks that the log continues the image.
pub fn latest_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
) -> io::Result<(Option<Checkpoint>, Vec<String>)> {
    let mut skipped = Vec::new();
    if !vfs.exists(dir) {
        return Ok((None, skipped));
    }
    for (seq, path) in list_checkpoints(vfs, dir)?.into_iter().rev() {
        match load_checkpoint(vfs, &path) {
            Ok(loaded) => return Ok((Some(loaded), skipped)),
            Err(err) => skipped.push(format!("checkpoint {seq}: {err}")),
        }
    }
    Ok((None, skipped))
}

/// Sequence numbers of the checkpoint files currently in `dir`,
/// ascending.  Validity is not checked — this lists what is on disk.
/// Callers pruning WAL segments prune up to the *oldest* listed
/// checkpoint, so that every retained checkpoint (not just the newest)
/// still has the log records past it, should it be the one recovery
/// falls back to.
pub fn checkpoint_seqs(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<u64>> {
    Ok(list_checkpoints(vfs, dir)?
        .into_iter()
        .map(|(seq, _)| seq)
        .collect())
}

/// Sweeps stray `ckpt-*.tmp` files left by a crash (or a failed rename)
/// between temp-write and rename-into-place.  They are garbage by
/// construction — a completed checkpoint lives under its final name —
/// so recovery deletes them on open.  Returns how many were removed.
pub fn sweep_stale_temps(vfs: &dyn Vfs, dir: &Path) -> io::Result<usize> {
    if !vfs.exists(dir) {
        return Ok(0);
    }
    let mut removed = 0;
    for name in vfs.list(dir)? {
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            vfs.remove_file(&dir.join(&name))?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Deletes old checkpoints, keeping the newest `keep` files (by the
/// sequence number in the name; `keep` is clamped to at least 1).
/// Validity is not re-checked, which is why the service keeps two:
/// even if the newest file is later found corrupt, its valid
/// predecessor is still on disk.  Also sweeps stray `.tmp` files from
/// interrupted writes.  Returns how many files were removed.
pub fn prune_checkpoints(vfs: &dyn Vfs, dir: &Path, keep: usize) -> io::Result<usize> {
    let checkpoints = list_checkpoints(vfs, dir)?;
    let mut removed = 0;
    let cutoff = checkpoints.len().saturating_sub(keep.max(1));
    for (_, path) in &checkpoints[..cutoff] {
        vfs.remove_file(path)?;
        removed += 1;
    }
    removed += sweep_stale_temps(vfs, dir)?;
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::Arc;

    use crate::vfs::{FaultSchedule, FaultVfs, StdVfs};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdc_ckpt_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_payload_and_seq() {
        let dir = temp_dir("round_trip");
        write_checkpoint(&StdVfs, &dir, 17, b"state bytes", false).unwrap();
        let (seq, payload) = latest_checkpoint(&StdVfs, &dir).unwrap().0.unwrap();
        assert_eq!(seq, 17);
        assert_eq!(payload, b"state bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_wins_over_newer_corrupt() {
        let dir = temp_dir("latest_valid");
        write_checkpoint(&StdVfs, &dir, 5, b"old good", false).unwrap();
        let newer = write_checkpoint(&StdVfs, &dir, 9, b"new bad", false).unwrap();
        let mut bytes = fs::read(&newer).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0x55;
        fs::write(&newer, &bytes).unwrap();
        let (seq, payload) = latest_checkpoint(&StdVfs, &dir).unwrap().0.unwrap();
        assert_eq!(seq, 5);
        assert_eq!(payload, b"old good");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_skipped() {
        let dir = temp_dir("truncated");
        write_checkpoint(&StdVfs, &dir, 3, b"good", false).unwrap();
        let newer = write_checkpoint(&StdVfs, &dir, 8, b"will be cut", false).unwrap();
        let bytes = fs::read(&newer).unwrap();
        fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
        let (seq, _) = latest_checkpoint(&StdVfs, &dir).unwrap().0.unwrap();
        assert_eq!(seq, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a checkpoint, rewrites its header's version field to
    /// `version` and re-seals the CRC, so the version check is the only
    /// thing left to refuse the file.
    fn assert_version_is_refused(version: u32) {
        let dir = temp_dir(&format!("version_{version}"));
        let path = write_checkpoint(&StdVfs, &dir, 6, b"old payload", false).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&StdVfs, &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!("unsupported checkpoint version {version}")
        );
        assert_eq!(
            latest_checkpoint(&StdVfs, &dir).unwrap(),
            (None, vec![format!("checkpoint 6: {err}")])
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_version_1_image_is_refused() {
        assert_version_is_refused(1);
    }

    #[test]
    fn a_version_2_image_is_refused() {
        assert_version_is_refused(2);
    }

    #[test]
    fn a_version_3_image_is_refused() {
        assert_version_is_refused(3);
    }

    #[test]
    fn empty_or_missing_directory_yields_none() {
        let dir = temp_dir("empty");
        assert!(latest_checkpoint(&StdVfs, &dir).unwrap().0.is_none());
        fs::remove_dir_all(&dir).unwrap();
        assert!(latest_checkpoint(&StdVfs, &dir).unwrap().0.is_none());
    }

    #[test]
    fn prune_keeps_the_newest_and_sweeps_temp_files() {
        let dir = temp_dir("prune");
        for seq in [1u64, 4, 9, 12] {
            write_checkpoint(&StdVfs, &dir, seq, b"x", false).unwrap();
        }
        fs::write(dir.join("ckpt-00000000000000000099.ck.tmp"), b"stray").unwrap();
        let removed = prune_checkpoints(&StdVfs, &dir, 2).unwrap();
        assert_eq!(removed, 3);
        let (seq, _) = latest_checkpoint(&StdVfs, &dir).unwrap().0.unwrap();
        assert_eq!(seq, 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_stale_temps() {
        let dir = temp_dir("sweep");
        write_checkpoint(&StdVfs, &dir, 7, b"keep me", false).unwrap();
        fs::write(dir.join("ckpt-00000000000000000003.ck.tmp"), b"stray").unwrap();
        fs::write(dir.join("ckpt-00000000000000000009.ck.tmp"), b"stray").unwrap();
        fs::write(dir.join("unrelated.txt"), b"leave me").unwrap();
        assert_eq!(sweep_stale_temps(&StdVfs, &dir).unwrap(), 2);
        assert!(dir.join(checkpoint_file_name(7)).exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(
            sweep_stale_temps(&StdVfs, &dir).unwrap(),
            0,
            "sweep is idempotent"
        );
        // A missing directory sweeps nothing rather than erroring.
        assert_eq!(sweep_stale_temps(&StdVfs, &dir.join("absent")).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rename_leaves_temp_for_the_sweep_and_old_checkpoint_wins() {
        let dir = temp_dir("rename_fault");
        let vfs = FaultVfs::over_std(FaultSchedule {
            seed: 31,
            rename_failure_per_mille: 1000,
            ..FaultSchedule::default()
        });
        write_checkpoint(&vfs, &dir, 4, b"old good", false).unwrap_err();
        // Even the first write fails its rename under this schedule, so
        // install the baseline through a quiet vfs instead.
        let quiet: Arc<dyn Vfs> = Arc::new(StdVfs);
        write_checkpoint(quiet.as_ref(), &dir, 4, b"old good", false).unwrap();
        let err = write_checkpoint(&vfs, &dir, 9, b"never lands", false).unwrap_err();
        assert!(err.to_string().contains("injected rename failure"));
        // The failed install left a temp file and no ckpt-9: recovery
        // still sees the old checkpoint, and the sweep clears the stray.
        // (The quiet re-install of ckpt-4 reused — and so consumed — the
        // first failed attempt's temp file, leaving exactly one stray.)
        let (seq, payload) = latest_checkpoint(&StdVfs, &dir).unwrap().0.unwrap();
        assert_eq!(seq, 4);
        assert_eq!(payload, b"old good");
        assert!(dir.join("ckpt-00000000000000000009.ck.tmp").exists());
        assert_eq!(sweep_stale_temps(&StdVfs, &dir).unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}

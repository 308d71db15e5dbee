//! The compat surface stays a surface: the labeling fan-out's and the
//! sharded policy store's old API is kept, in one `compat.rs` module per
//! crate, and two ignored `ServiceConfig` fields are kept beside it, only
//! so that the frozen end-to-end benchmark (`examples/svc_bench`)
//! compiles.  No code under `crates/`, `src/` or `tests/` outside those
//! modules may name it, and the modules stay small.  The single-threaded
//! core (labeler, interner, churn generator, and every service source but
//! its compat module) names no lock, atomic or thread either.

use std::fs;
use std::path::{Path, PathBuf};

/// The compat modules, relative to the repository root.
const COMPAT_MODULES: [&str; 3] = [
    "crates/core/src/compat.rs",
    "crates/policy/src/compat.rs",
    "crates/service/src/compat.rs",
];

/// Their line budget, in total.
const COMPAT_LINE_BUDGET: usize = 150;

/// Identifiers only the compat modules may use.
const FORBIDDEN: [&str; 17] = [
    "WorkerPool",
    "WorkerContext",
    "LabelerSnapshot",
    "snapshot_with_lanes",
    "retire_snapshot",
    "lane_for",
    "label_interned_in",
    "label_packed_in",
    "label_packed_interned_in",
    "append_packed_in",
    "append_packed_interned_in",
    "ParallelStats",
    "ParallelPlane",
    "ShardedPolicyStore",
    "InternerHandle",
    "num_shards",
    "workers",
];

/// Text only the compat modules may contain: the labeler's interner taken
/// through the old lock handle (elsewhere it is `query_interner()` to read
/// and `intern` to mint).
const FORBIDDEN_TEXT: &str = "interner().write()";

/// The single-threaded core: files that must name no lock, no atomic, no
/// thread and no shared interner handle.  Every `.rs` file under
/// [`LOCK_FREE_SERVICE`] is one too, but for its compat module.
const LOCK_FREE: [&str; 3] = [
    "crates/core/src/labeler.rs",
    "crates/cq/src/intern.rs",
    "crates/ecosystem/src/churn.rs",
];

/// The service crate's sources, all of them in the single-threaded core.
const LOCK_FREE_SERVICE: &str = "crates/service/src";

/// What the single-threaded core may not name.
const LOCKS: [&str; 8] = [
    "RwLock",
    "Mutex",
    "AtomicU64",
    "AtomicUsize",
    "AtomicBool",
    "JoinHandle",
    "spawn",
    "SharedQueryInterner",
];

/// The mentions allowed elsewhere, all in `crates/service/src/service.rs`:
/// the declarations of the `ServiceStats::parallel` field and of the two
/// ignored `ServiceConfig` fields, and those fields' `Default` lines.
const ALLOWED: [&str; 5] = [
    "pub parallel: crate::compat::ParallelStats,",
    "pub num_shards: usize,",
    "pub workers: usize,",
    "num_shards: 1,",
    "workers: 1,",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` uses `name` as a whole identifier.
fn names(line: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(name).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn only_the_compat_modules_name_the_compat_surface() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        sources(&root.join(dir), &mut files);
    }
    let this_file = root.join(file!());
    let mut offenders = Vec::new();
    for file in files {
        let relative = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        if COMPAT_MODULES.contains(&relative.as_str()) || file == this_file {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        for (number, line) in text.lines().enumerate() {
            if relative == "crates/service/src/service.rs" && ALLOWED.contains(&line.trim()) {
                continue;
            }
            for name in FORBIDDEN.iter().filter(|name| names(line, name)) {
                offenders.push(format!("{relative}:{}: `{name}`", number + 1));
            }
            if line.contains(FORBIDDEN_TEXT) {
                offenders.push(format!("{relative}:{}: `{FORBIDDEN_TEXT}`", number + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "the compat surface is named outside the compat modules:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_compat_modules_stay_within_their_budget() {
    let lines: usize = COMPAT_MODULES
        .iter()
        .map(|module| {
            fs::read_to_string(root().join(module))
                .unwrap()
                .lines()
                .count()
        })
        .sum();
    assert!(
        lines <= COMPAT_LINE_BUDGET,
        "{lines} compat lines > {COMPAT_LINE_BUDGET}"
    );
}

#[test]
fn the_single_threaded_core_names_no_lock() {
    let root = root();
    let mut files: Vec<PathBuf> = LOCK_FREE.iter().map(|file| root.join(file)).collect();
    sources(&root.join(LOCK_FREE_SERVICE), &mut files);
    let compat = root.join(LOCK_FREE_SERVICE).join("compat.rs");
    let mut offenders = Vec::new();
    for file in files.iter().filter(|file| **file != compat) {
        let relative = file.strip_prefix(&root).unwrap().display();
        let text = fs::read_to_string(file).unwrap();
        for (number, line) in text.lines().enumerate() {
            for name in LOCKS.iter().filter(|name| names(line, name)) {
                offenders.push(format!("{relative}:{}: `{name}`", number + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a lock or atomic is named in the single-threaded core:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_identifier_match_is_whole_words() {
    assert!(names("use fdc::core::WorkerPool;", "WorkerPool"));
    assert!(names("x.label_packed_in(0, q)", "label_packed_in"));
    assert!(!names("x.label_packed_interned(id)", "label_packed_in"));
    assert!(!names("MyWorkerPoolish", "WorkerPool"));
}

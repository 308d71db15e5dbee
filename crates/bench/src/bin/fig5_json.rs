//! Figure 5, machine-readable: side-by-side throughput of every labeler.
//!
//! Measures the labeler variants — baseline, hash-partitioned, bit-vector,
//! canonical-form cached, and the **interned** serving path (pre-interned
//! dense `QueryId`s straight into the sharded slot cache: no parsing, no
//! canonical hashing, no label clone) — on the Figure 5 workload at
//! `BATCH_SIZE` queries per batch, for each of the paper's max-atoms
//! settings, and writes the queries/second trajectory to `BENCH_fig5.json`
//! (or the path given as the first argument).  A `high_atoms` block adds
//! cold labeling (`interned_cold`: an empty cache, every shape first seen)
//! at 20 and 28 atoms, past the paper's axis.  Each sweep point also
//! records what its generated batch's queries cost in memory: the mean
//! `query_heap_bytes` (the bytes of a query's one block, by its length)
//! and `query_blocks` — exact per seed, so a layout change shows as a
//! before/after pair.
//!
//! ```text
//! cargo run --release -p fdc-bench --bin fig5_json            # full run
//! FDC_BENCH_SMOKE=1 cargo run -p fdc-bench --bin fig5_json    # CI smoke
//! ```
//!
//! The smoke mode shrinks the sweep and the repeat count so CI can validate
//! the measurement path in seconds; the JSON layout is identical.

use std::time::Instant;

use fdc_bench::{labeling_workload, LabelingWorkload, BATCH_SIZE};
use fdc_core::QueryLabeler;

/// One labeler's measurement at one max-atoms setting.
struct Measurement {
    name: &'static str,
    queries_per_sec: f64,
}

/// All measurements at one max-atoms setting.
struct SweepPoint {
    max_atoms: usize,
    results: Vec<Measurement>,
    /// Mean `ConjunctiveQuery::heap_bytes` over the generated batch: the
    /// bytes of a query's one block, by its length.  Exact per seed.
    query_heap_bytes: f64,
    /// Mean `ConjunctiveQuery::heap_blocks` over the generated batch.
    query_blocks: f64,
}

/// The mean heap bytes and heap blocks of a batch's queries.
fn query_footprint(workload: &LabelingWorkload) -> (f64, f64) {
    let queries = &workload.queries;
    let n = queries.len().max(1) as f64;
    let bytes: usize = queries.iter().map(|q| q.heap_bytes()).sum();
    let blocks: usize = queries.iter().map(|q| q.heap_blocks()).sum();
    (bytes as f64 / n, blocks as f64 / n)
}

/// Cold labeling throughput at one max-atoms setting past the paper's axis.
struct HighAtomsPoint {
    max_atoms: usize,
    interned_cold: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .filter(|a| a != "--smoke")
        .unwrap_or_else(|| "BENCH_fig5.json".to_owned());
    let smoke = std::env::var("FDC_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke");

    let (sweep, repeats): (&[usize], usize) = if smoke {
        (&[3, 6], 1)
    } else {
        (&[3, 6, 9, 12, 15], 3)
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "fig5_json: batch={BATCH_SIZE} repeats={repeats} host_threads={host_threads} smoke={smoke}"
    );
    println!(
        "{:>9} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>10} | {:>6}",
        "max_atoms", "baseline", "hashing", "bitvec", "cached_seq", "interned", "query_B", "blocks"
    );

    let mut points = Vec::new();
    for &max_atoms in sweep {
        let workload = labeling_workload(max_atoms, BATCH_SIZE);
        let results = measure_point(&workload, repeats);
        let (query_heap_bytes, query_blocks) = query_footprint(&workload);
        println!(
            "{:>9} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0} | {:>10.1} | {:>6.2}",
            max_atoms,
            results[0].queries_per_sec,
            results[1].queries_per_sec,
            results[2].queries_per_sec,
            results[3].queries_per_sec,
            results[4].queries_per_sec,
            query_heap_bytes,
            query_blocks,
        );
        points.push(SweepPoint {
            max_atoms,
            results,
            query_heap_bytes,
            query_blocks,
        });
    }

    let speedup = overall_speedup(&points, "cached_sequential", "baseline");
    println!("\ncached vs baseline: {speedup:.1}x (worst point across the sweep)");
    let interned_speedup = overall_speedup(&points, "interned", "cached_sequential");
    println!(
        "interned vs cached (QueryKey-free slot lookup): {interned_speedup:.1}x \
         (worst point across the sweep)"
    );
    // The interned plane removes the canonical hash and the label clone from
    // every warm lookup; if it ever stops beating the cached path, the
    // representation regressed.  The smoke run enforces this in CI.
    if smoke {
        assert!(
            interned_speedup > 1.0,
            "interned series must beat the cached baseline (got {interned_speedup:.2}x)"
        );
    }

    // High-atoms section: the paper's sweep stops at 15 atoms; cold
    // labeling (intern, fold, dissect, label from an empty cache) is also
    // measured at 20 and 28 atoms, where the fold has the most to search.
    let (high_sweep, high_repeats): (&[usize], usize) =
        if smoke { (&[20], 1) } else { (&[20, 28], 3) };
    println!("\nhigh atoms (cold labeling): repeats={high_repeats}");
    println!("{:>9} | {:>13}", "max_atoms", "interned_cold");
    let high_points: Vec<HighAtomsPoint> = high_sweep
        .iter()
        .map(|&max_atoms| {
            let point = measure_high_point(max_atoms, high_repeats);
            println!("{:>9} | {:>13.0}", max_atoms, point.interned_cold);
            point
        })
        .collect();

    let json = render_json(
        &points,
        host_threads,
        smoke,
        speedup,
        interned_speedup,
        &high_points,
    );
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
}

/// Measures cold labeling at one high max-atoms setting: the workload is
/// rebuilt for every repeat so each timed run starts from an empty cache.
fn measure_high_point(max_atoms: usize, repeats: usize) -> HighAtomsPoint {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let workload = labeling_workload(max_atoms, BATCH_SIZE);
        let start = Instant::now();
        std::hint::black_box(
            workload
                .ecosystem
                .cached
                .label_queries_interned(&workload.interned),
        );
        best = best.min(start.elapsed().as_secs_f64());
    }
    HighAtomsPoint {
        max_atoms,
        interned_cold: BATCH_SIZE as f64 / best.max(f64::MIN_POSITIVE),
    }
}

/// Measures every labeler on one workload; order matches the table header.
fn measure_point(workload: &LabelingWorkload, repeats: usize) -> Vec<Measurement> {
    let eco = &workload.ecosystem;
    let queries = &workload.queries;
    let interned = &workload.interned;
    // Warm the canonical-form cache so the cached series measures the
    // steady state of a long-running server rather than a cold start.
    eco.cached.label_queries(queries);
    vec![
        Measurement {
            name: "baseline",
            queries_per_sec: best_qps(repeats, queries.len(), || {
                std::hint::black_box(eco.baseline.label_queries(queries));
            }),
        },
        Measurement {
            name: "hashing_only",
            queries_per_sec: best_qps(repeats, queries.len(), || {
                std::hint::black_box(eco.hashed.label_queries(queries));
            }),
        },
        Measurement {
            name: "bitvectors_hashing",
            queries_per_sec: best_qps(repeats, queries.len(), || {
                std::hint::black_box(eco.bitvec.label_queries(queries));
            }),
        },
        Measurement {
            name: "cached_sequential",
            queries_per_sec: best_qps(repeats, queries.len(), || {
                std::hint::black_box(eco.cached.label_queries(queries));
            }),
        },
        // The interned serving path: the batch was interned once at setup
        // (dense `QueryId`s), so each lookup is a slot index
        // and an in-place lattice fold — no canonical hashing at all.
        Measurement {
            name: "interned",
            queries_per_sec: best_qps(repeats, interned.len(), || {
                std::hint::black_box(eco.cached.label_queries_interned(interned));
            }),
        },
    ]
}

/// Runs the routine `repeats` times and reports the best queries/second.
fn best_qps(repeats: usize, queries: usize, mut routine: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        routine();
        best = best.min(start.elapsed().as_secs_f64());
    }
    queries as f64 / best.max(f64::MIN_POSITIVE)
}

/// The minimum, across sweep points, of `numerator`'s speedup over
/// `denominator` — a conservative single-number summary.
fn overall_speedup(points: &[SweepPoint], numerator: &str, denominator: &str) -> f64 {
    points
        .iter()
        .map(|p| {
            let num = series(p, numerator);
            let den = series(p, denominator);
            if den > 0.0 {
                num / den
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min)
}

fn series(point: &SweepPoint, name: &str) -> f64 {
    point
        .results
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.queries_per_sec)
}

/// Renders the trajectory as JSON by hand (the workspace is offline, so no
/// serde; the structure is flat enough that manual rendering stays simple).
fn render_json(
    points: &[SweepPoint],
    host_threads: usize,
    smoke: bool,
    speedup: f64,
    interned_speedup: f64,
    high_points: &[HighAtomsPoint],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"fig5_labeler_throughput\",\n");
    out.push_str("  \"unit\": \"queries_per_second\",\n");
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"min_speedup_cached_vs_baseline\": {speedup:.2},\n"
    ));
    out.push_str(&format!(
        "  \"min_speedup_interned_vs_cached\": {interned_speedup:.2},\n"
    ));
    out.push_str("  \"high_atoms\": {\n");
    out.push_str("    \"sweep\": [\n");
    for (i, p) in high_points.iter().enumerate() {
        out.push_str(&format!(
            "      {{ \"max_atoms\": {}, \"interned_cold\": {:.1} }}{}\n",
            p.max_atoms,
            p.interned_cold,
            if i + 1 == high_points.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"sweep\": [\n");
    for (i, point) in points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"max_atoms\": {},\n", point.max_atoms));
        out.push_str(&format!(
            "      \"query_heap_bytes\": {:.1},\n",
            point.query_heap_bytes
        ));
        out.push_str(&format!(
            "      \"query_blocks\": {:.2},\n",
            point.query_blocks
        ));
        out.push_str("      \"queries_per_sec\": {\n");
        for (j, m) in point.results.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {:.1}{}\n",
                m.name,
                m.queries_per_sec,
                if j + 1 == point.results.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("      }\n");
        out.push_str(if i + 1 == points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

//! Figure 7, machine-readable: dynamic-service throughput under policy
//! churn.
//!
//! The paper's Figures 5 and 6 measure the two static stages (labeling and
//! enforcement) over a frozen world.  Figure 7 is this repository's dynamic
//! extension: a [`DisclosureService`] serves a mixed operation stream —
//! admissions plus `GrantView` / `RevokeView` / `AddSecurityView` mutations
//! — at 100K principals, swept over mutation:query ratios
//! {0, 0.1%, 1%, 10%}.  Two strategies are measured on identical streams,
//! both through the service's one batch executor (`run_pipelined`):
//!
//! * `incremental` — per-relation epoch versioning: a view-universe change
//!   bumps one relation's epoch and cached labels lazily re-derive just
//!   their stale atoms; policy grants/revokes never touch the label cache,
//!   so the stream splits only at `AddSecurityView` boundaries.
//! * `flush_on_mutation` — the conservative baseline a service without
//!   dependency tracking must adopt: every mutation flushes the whole label
//!   cache, so each flush forces the full labeling pipeline to re-run per
//!   distinct query shape until the cache re-warms.  The service has no
//!   such mode; the harness drives it that way
//!   (`fdc_bench::run_flushing_on_mutation`: serve up to and including each
//!   mutation, then clear the cache) and counts its own flushes.
//!
//! ```text
//! cargo run --release -p fdc-bench --bin fig7_json            # full run
//! FDC_BENCH_SMOKE=1 cargo run -p fdc-bench --bin fig7_json    # CI smoke
//! ```
//!
//! The emitted `BENCH_fig7.json` records ops/second per ratio and strategy,
//! the per-strategy cache counters (`CachedLabeler::stats()`), the host's
//! thread count, and the headline `speedup_at_1pct` (incremental vs flush,
//! acceptance ≥ 2× — enforced by the `bench_check` binary in CI).  Every
//! request is served on the calling thread.

use std::time::Instant;

use fdc_bench::{fig7_service, fig7_streams, run_flushing_on_mutation};
use fdc_core::CacheStats;
use fdc_service::{DisclosureService, Operation, ServiceStats};

/// The swept mutation:query ratios.
const RATIOS: [f64; 4] = [0.0, 0.001, 0.01, 0.1];

/// One strategy's measurement at one ratio.
#[derive(Clone)]
struct Measurement {
    mode: &'static str,
    ops_per_sec: f64,
    /// Label-cache flushes the harness performed.
    flushes: u64,
    cache: CacheStats,
    service: ServiceStats,
}

/// Both strategies at one ratio.
struct SweepPoint {
    mutation_ratio: f64,
    results: Vec<Measurement>,
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a != "--smoke")
        .unwrap_or_else(|| "BENCH_fig7.json".to_owned());
    let smoke = std::env::var("FDC_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke");

    // Warmup must exceed the query pool (FIG7_QUERY_POOL) so the measured
    // stream runs at the cache's steady state.
    // Best-of-8 on the full run: the swept strategies differ by a few
    // percent at some points, which single-shot timing on a shared host
    // cannot resolve (observed run-to-run swings exceed 10%); best-of-N
    // converges every strategy to the machine's fast state before the
    // ratios are taken.
    let (num_principals, warmup_ops, stream_ops, repeats) = if smoke {
        (2_000, 2_500, 5_000, 1)
    } else {
        (100_000, 20_000, 100_000, 8)
    };
    let batch_ops = 1_024;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fig7_json: principals={num_principals} warmup={warmup_ops} stream={stream_ops} \
         batch={batch_ops} repeats={repeats} host_threads={host_threads} smoke={smoke}"
    );
    println!(
        "{:>10} | {:>14} | {:>18} | {:>8}",
        "ratio", "incremental", "flush_on_mutation", "speedup"
    );

    // Series name, and whether the harness flushes after every mutation.
    let strategies = [("incremental", false), ("flush_on_mutation", true)];
    let mut points = Vec::new();
    for &ratio in &RATIOS {
        let (warmup, stream) = fig7_streams(num_principals, ratio, warmup_ops, stream_ops);
        // Round-robin the repeats across the strategies (A B, A B, …)
        // instead of exhausting one strategy's repeats before the next:
        // machine-speed drift over the sweep then hits every strategy's
        // k-th repeat alike, so the best-of comparison stays fair.
        let mut best: Vec<Option<Measurement>> = vec![None; strategies.len()];
        for _ in 0..repeats.max(1) {
            for (slot, &strategy) in strategies.iter().enumerate() {
                let sample = measure_once(num_principals, strategy, &warmup, &stream, batch_ops);
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| sample.ops_per_sec > b.ops_per_sec)
                {
                    best[slot] = Some(sample);
                }
            }
        }
        let results: Vec<Measurement> = best
            .into_iter()
            .map(|sample| sample.expect("at least one repeat"))
            .collect();
        let speedup = results[0].ops_per_sec / results[1].ops_per_sec;
        println!(
            "{:>10} | {:>14.0} | {:>18.0} | {:>7.1}x",
            ratio, results[0].ops_per_sec, results[1].ops_per_sec, speedup
        );
        points.push(SweepPoint {
            mutation_ratio: ratio,
            results,
        });
    }

    let speedup_at_1pct = speedup_at(&points, 0.01);
    println!(
        "\nincremental vs flush-on-mutation at the 1% mutation ratio: {speedup_at_1pct:.1}x \
         (acceptance: >= 2x)"
    );

    let json = render_json(
        &points,
        num_principals,
        warmup_ops,
        stream_ops,
        batch_ops,
        host_threads,
        smoke,
        speedup_at_1pct,
    );
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
}

/// Measures one strategy once at one ratio: build a fresh service, run the
/// warmup (pure admissions) untimed, then time the churn stream in
/// serving-sized batches.
fn measure_once(
    num_principals: usize,
    (mode, flush_on_mutation): (&'static str, bool),
    warmup: &[Operation],
    stream: &[Operation],
    batch_ops: usize,
) -> Measurement {
    let mut service = fig7_service(num_principals);
    run_in_batches(&mut service, warmup, batch_ops, false);
    let start = Instant::now();
    let flushes = run_in_batches(&mut service, stream, batch_ops, flush_on_mutation);
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    Measurement {
        mode,
        ops_per_sec: stream.len() as f64 / elapsed,
        flushes,
        cache: service.labeler().stats(),
        service: service.stats(),
    }
}

/// Feeds the stream to the service in serving-sized batches — as it is, or
/// flushing the label cache after every mutation — and returns the number
/// of flushes.
fn run_in_batches(
    service: &mut DisclosureService,
    ops: &[Operation],
    batch_ops: usize,
    flush_on_mutation: bool,
) -> u64 {
    let mut flushes = 0;
    for chunk in ops.chunks(batch_ops) {
        if flush_on_mutation {
            let (responses, flushed) = run_flushing_on_mutation(service, chunk);
            std::hint::black_box(responses);
            flushes += flushed;
        } else {
            std::hint::black_box(service.run_pipelined(chunk));
        }
    }
    flushes
}

/// The incremental:flush speedup at the sweep point closest to `ratio`.
fn speedup_at(points: &[SweepPoint], ratio: f64) -> f64 {
    points
        .iter()
        .find(|p| (p.mutation_ratio - ratio).abs() < 1e-9)
        .map(|p| p.results[0].ops_per_sec / p.results[1].ops_per_sec)
        .unwrap_or(f64::NAN)
}

/// Renders the trajectory as JSON by hand (the workspace is offline, so no
/// serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    points: &[SweepPoint],
    num_principals: usize,
    warmup_ops: usize,
    stream_ops: usize,
    batch_ops: usize,
    host_threads: usize,
    smoke: bool,
    speedup_at_1pct: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"fig7_churn_throughput\",\n");
    out.push_str("  \"unit\": \"ops_per_second\",\n");
    out.push_str(&format!("  \"num_principals\": {num_principals},\n"));
    out.push_str(&format!("  \"warmup_ops\": {warmup_ops},\n"));
    out.push_str(&format!("  \"stream_ops\": {stream_ops},\n"));
    out.push_str(&format!("  \"batch_ops\": {batch_ops},\n"));
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"speedup_at_1pct\": {},\n",
        if speedup_at_1pct.is_finite() {
            format!("{speedup_at_1pct:.2}")
        } else {
            "null".to_owned()
        }
    ));
    // Floor history: PR 3 set 3.0 against the pre-interned boxed labeling
    // pipeline.  The PR 4 interned query plane made the *flush baseline's*
    // cold relabeling ~3x cheaper (id-keyed dissection, no canonical
    // hashing), compressing the incremental:flush gap at every ratio; the
    // floor tracks the honest gap over the current pipeline.
    out.push_str("  \"min_speedup_required\": 2.0,\n");
    out.push_str("  \"sweep\": [\n");
    for (i, point) in points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"mutation_ratio\": {},\n",
            point.mutation_ratio
        ));
        for (j, m) in point.results.iter().enumerate() {
            out.push_str(&format!("      \"{}\": {{\n", m.mode));
            out.push_str(&format!("        \"ops_per_sec\": {:.1},\n", m.ops_per_sec));
            out.push_str(&format!(
                "        \"mutations\": {},\n",
                m.service.mutations
            ));
            out.push_str(&format!("        \"flushes\": {},\n", m.flushes));
            out.push_str("        \"cache\": {\n");
            out.push_str(&format!("          \"hits\": {},\n", m.cache.hits));
            out.push_str(&format!("          \"misses\": {},\n", m.cache.misses));
            out.push_str(&format!(
                "          \"query_refreshes\": {},\n",
                m.cache.query_refreshes
            ));
            out.push_str(&format!(
                "          \"atom_refreshes\": {},\n",
                m.cache.atom_refreshes
            ));
            out.push_str(&format!(
                "          \"invalidations\": {},\n",
                m.cache.invalidations
            ));
            out.push_str(&format!("          \"entries\": {}\n", m.cache.entries));
            out.push_str("        }\n");
            out.push_str(if j + 1 == point.results.len() {
                "      }\n"
            } else {
                "      },\n"
            });
        }
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

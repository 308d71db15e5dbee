//! Figure 6, machine-readable: policy-checker throughput at every store
//! generation.
//!
//! Measures the time to push a batch of disclosure labels through the
//! multi-principal policy checker, round-robined over the principals, for
//! the paper's grid — {1-way, 5-way partitions} × {1K, 50K, 1M principals}
//! × {5, 25, 50 max elements per partition} — and writes the labels/second
//! trajectory to `BENCH_fig6.json` (or the path given as the first
//! argument).  Three series per grid point, one per store generation:
//!
//! * `seed_store` — the seed revision's uncompiled, uninterned store
//!   (cloned `SecurityPolicy` per principal, hash lookups per atom).
//!   Measured up to 50K principals; at 1M the seed representation is the
//!   several-hundred-megabyte configuration the seed hid behind
//!   `FDC_FIG6_FULL`, so the point is reported as `null`.
//! * `interned` — the compiled/interned store, unpacked labels.
//! * `interned_packed` — the same store on the packed 64-bit path.
//!
//! Beside them every point records the policy plane's per-layer costs on
//! the interned store: `register_ns_per_principal`, registration time per
//! principal while the store was built (policy generation excluded), and
//! `grant_ns` / `revoke_ns`, the median of a fixed seeded batch of grants
//! and revokes on random principals and views of the built store.
//!
//! ```text
//! cargo run --release -p fdc-bench --bin fig6_json            # full run
//! FDC_BENCH_SMOKE=1 cargo run -p fdc-bench --bin fig6_json    # CI smoke
//! ```
//!
//! The smoke mode shrinks the grid and the repeat count so CI can validate
//! the measurement path in seconds; the JSON layout is identical.

use std::time::Instant;

use fdc_bench::{
    fig6_principal_counts, policy_mutation_ns, policy_workload, seed_policy_store,
    FIG6_TEMPLATE_POOL,
};
use fdc_core::PackedLabel;
use fdc_policy::PrincipalId;

/// The series measured at every grid point, in column order.
const SERIES: [&str; 3] = ["seed_store", "interned", "interned_packed"];

/// Principal counts at which the seed store is still reasonable to build.
const SEED_STORE_LIMIT: usize = 50_000;

/// Grants (and as many revokes) timed per grid point.
const MUTATION_BATCH: usize = 2_000;

/// One store generation's measurement at one grid point.
struct Measurement {
    name: &'static str,
    labels_per_sec: Option<f64>,
}

/// All measurements at one grid point.
struct SweepPoint {
    num_principals: usize,
    max_partitions: usize,
    max_elements: usize,
    unique_policies: usize,
    state_bytes_per_principal: f64,
    register_ns_per_principal: f64,
    grant_ns: f64,
    revoke_ns: f64,
    results: Vec<Measurement>,
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a != "--smoke")
        .unwrap_or_else(|| "BENCH_fig6.json".to_owned());
    let smoke = std::env::var("FDC_BENCH_SMOKE").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--smoke");

    let (principal_counts, element_sweep, label_batch, repeats): (
        Vec<usize>,
        &[usize],
        usize,
        usize,
    ) = if smoke {
        (vec![1_000, 10_000], &[5, 25], 2_000, 1)
    } else {
        (fig6_principal_counts(), &[5, 25, 50], 20_000, 3)
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "fig6_json: label_batch={label_batch} repeats={repeats} host_threads={host_threads} \
         template_pool={FIG6_TEMPLATE_POOL} smoke={smoke}"
    );
    let header: Vec<String> = SERIES.iter().map(|name| format!("{name:>16}")).collect();
    println!(
        "{:>10} {:>5} {:>9} | {} | {:>8} {:>8} {:>8}",
        "principals",
        "way",
        "elements",
        header.join(" | "),
        "reg_ns",
        "grant_ns",
        "revoke_ns"
    );

    let mut points = Vec::new();
    for &num_principals in &principal_counts {
        for &max_partitions in &[1usize, 5] {
            for &max_elements in element_sweep {
                let point = measure_point(
                    num_principals,
                    max_partitions,
                    max_elements,
                    label_batch,
                    repeats,
                );
                let cells: Vec<String> = SERIES
                    .iter()
                    .map(|name| format!("{:>16}", cell(&point, name)))
                    .collect();
                println!(
                    "{:>10} {:>5} {:>9} | {} | {:>8.0} {:>8.0} {:>8.0}",
                    num_principals,
                    max_partitions,
                    max_elements,
                    cells.join(" | "),
                    point.register_ns_per_principal,
                    point.grant_ns,
                    point.revoke_ns
                );
                points.push(point);
            }
        }
    }

    let packed_speedups = speedups_at(&points, SEED_STORE_LIMIT, "interned_packed");
    let unpacked_speedups = speedups_at(&points, SEED_STORE_LIMIT, "interned");
    let speedup_packed = min_of(&packed_speedups);
    let speedup_unpacked = min_of(&unpacked_speedups);
    let mean_packed = mean_of(&packed_speedups);
    let mean_unpacked = mean_of(&unpacked_speedups);
    println!(
        "\ninterned vs seed store at 50K principals: \
         worst cell {speedup_unpacked:.1}x unpacked / {speedup_packed:.1}x packed, \
         mean {mean_unpacked:.1}x unpacked / {mean_packed:.1}x packed"
    );

    let json = render_json(
        &points,
        label_batch,
        host_threads,
        smoke,
        [speedup_unpacked, speedup_packed, mean_unpacked, mean_packed],
    );
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
}

/// Minimum wall-clock length of one timed sample: the routine (one pass
/// over the label batch) is repeated inside the timing window until it
/// covers at least this long, so sub-millisecond passes do not drown in
/// scheduler noise.
const MIN_SAMPLE_SECS: f64 = 0.005;

/// Measures every store generation at one grid point.
fn measure_point(
    num_principals: usize,
    max_partitions: usize,
    max_elements: usize,
    label_batch: usize,
    repeats: usize,
) -> SweepPoint {
    let workload = policy_workload(num_principals, max_partitions, max_elements, label_batch);
    let labels = &workload.labels;
    let packed = &workload.packed;
    // Round-robin principal assignment, fixed outside the timed loops: a
    // serving system receives (principal, label) pairs, it does not compute
    // a modulo per request.
    let principals: Vec<PrincipalId> = (0..labels.len())
        .map(|i| PrincipalId((i % num_principals) as u32))
        .collect();
    // One contiguous buffer for the packed batch (as a serving system's
    // request arena would be), sliced per label.
    let packed_flat: Vec<PackedLabel> = packed.iter().flatten().copied().collect();
    let packed_slices: Vec<&[PackedLabel]> = {
        let mut start = 0usize;
        packed
            .iter()
            .map(|label| {
                let slice = &packed_flat[start..start + label.len()];
                start += label.len();
                slice
            })
            .collect()
    };

    let mut results = Vec::new();

    // Seed store: only up to the limit (its per-principal policy clones are
    // exactly the memory blow-up the rebuild removes).
    let seed_qps = (num_principals <= SEED_STORE_LIMIT).then(|| {
        let mut seed = seed_policy_store(num_principals, max_partitions, max_elements);
        best_qps(repeats, labels.len(), || {
            for (principal, label) in principals.iter().zip(labels) {
                std::hint::black_box(seed.submit(*principal, label));
            }
        })
    });
    results.push(Measurement {
        name: "seed_store",
        labels_per_sec: seed_qps,
    });

    let mut store = workload.store.clone();
    results.push(Measurement {
        name: "interned",
        labels_per_sec: Some(best_qps(repeats, labels.len(), || {
            for (principal, label) in principals.iter().zip(labels) {
                std::hint::black_box(store.submit(*principal, label));
            }
        })),
    });

    let mut packed_store = workload.store.clone();
    results.push(Measurement {
        name: "interned_packed",
        labels_per_sec: Some(best_qps(repeats, labels.len(), || {
            for (principal, label) in principals.iter().zip(&packed_slices) {
                std::hint::black_box(packed_store.submit_packed(*principal, label));
            }
        })),
    });

    let (grant_ns, revoke_ns) = policy_mutation_ns(&workload.store, MUTATION_BATCH);
    SweepPoint {
        num_principals,
        max_partitions,
        max_elements,
        unique_policies: workload.store.unique_policies(),
        state_bytes_per_principal: workload.store.state_bytes() as f64
            / workload.store.len().max(1) as f64,
        register_ns_per_principal: workload.register_ns_per_principal,
        grant_ns,
        revoke_ns,
        results,
    }
}

/// Runs the routine `repeats` times — stretching each timed sample to at
/// least [`MIN_SAMPLE_SECS`] by repeating the routine inside the window —
/// and reports the best labels/second.
fn best_qps(repeats: usize, labels: usize, mut routine: impl FnMut()) -> f64 {
    // Calibrate: how many passes does one sample need?
    let start = Instant::now();
    routine();
    let one_pass = start.elapsed().as_secs_f64().max(1e-9);
    let passes = ((MIN_SAMPLE_SECS / one_pass).ceil() as usize).clamp(1, 10_000);

    let mut best = one_pass;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        for _ in 0..passes {
            routine();
        }
        best = best.min(start.elapsed().as_secs_f64() / passes as f64);
    }
    labels as f64 / best.max(f64::MIN_POSITIVE)
}

/// A table cell for one series of a point.
fn cell(point: &SweepPoint, name: &str) -> String {
    match series(point, name) {
        Some(qps) => format!("{qps:.0}"),
        None => "-".to_owned(),
    }
}

fn series(point: &SweepPoint, name: &str) -> Option<f64> {
    point
        .results
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| m.labels_per_sec)
}

/// `numerator`'s per-cell speedups over the seed store across the grid
/// cells measured at exactly `principals` principals (falling back to the
/// largest measured count below it, so smoke grids still report numbers).
fn speedups_at(points: &[SweepPoint], principals: usize, numerator: &str) -> Vec<f64> {
    let at = points
        .iter()
        .filter(|p| p.num_principals <= principals && series(p, "seed_store").is_some())
        .map(|p| p.num_principals)
        .max()
        .unwrap_or(principals);
    points
        .iter()
        .filter(|p| p.num_principals == at)
        .filter_map(|p| match (series(p, numerator), series(p, "seed_store")) {
            (Some(num), Some(den)) if den > 0.0 => Some(num / den),
            _ => None,
        })
        .collect()
}

/// The conservative worst-cell summary of [`speedups_at`].
fn min_of(speedups: &[f64]) -> f64 {
    speedups.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The mean-cell summary of [`speedups_at`].
fn mean_of(speedups: &[f64]) -> f64 {
    if speedups.is_empty() {
        f64::INFINITY
    } else {
        speedups.iter().sum::<f64>() / speedups.len() as f64
    }
}

/// Renders the trajectory as JSON by hand (the workspace is offline, so no
/// serde; the structure is flat enough that manual rendering stays simple).
fn render_json(
    points: &[SweepPoint],
    label_batch: usize,
    host_threads: usize,
    smoke: bool,
    speedups: [f64; 4],
) -> String {
    let [speedup_unpacked, speedup_packed, mean_unpacked, mean_packed] = speedups;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"fig6_policy_throughput\",\n");
    out.push_str("  \"unit\": \"labels_per_second\",\n");
    out.push_str(&format!("  \"label_batch\": {label_batch},\n"));
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str(&format!("  \"template_pool\": {FIG6_TEMPLATE_POOL},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    let finite = |v: f64| {
        if v.is_finite() {
            format!("{v:.2}")
        } else {
            "null".to_owned()
        }
    };
    out.push_str(&format!(
        "  \"min_speedup_interned_vs_seed\": {},\n",
        finite(speedup_unpacked)
    ));
    out.push_str(&format!(
        "  \"min_speedup_interned_packed_vs_seed\": {},\n",
        finite(speedup_packed)
    ));
    out.push_str(&format!(
        "  \"mean_speedup_interned_vs_seed\": {},\n",
        finite(mean_unpacked)
    ));
    out.push_str(&format!(
        "  \"mean_speedup_interned_packed_vs_seed\": {},\n",
        finite(mean_packed)
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, point) in points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"num_principals\": {},\n",
            point.num_principals
        ));
        out.push_str(&format!(
            "      \"max_partitions\": {},\n",
            point.max_partitions
        ));
        out.push_str(&format!(
            "      \"max_elements\": {},\n",
            point.max_elements
        ));
        out.push_str(&format!(
            "      \"unique_policies\": {},\n",
            point.unique_policies
        ));
        out.push_str(&format!(
            "      \"state_bytes_per_principal\": {:.1},\n",
            point.state_bytes_per_principal
        ));
        out.push_str(&format!(
            "      \"register_ns_per_principal\": {:.1},\n",
            point.register_ns_per_principal
        ));
        out.push_str(&format!("      \"grant_ns\": {:.1},\n", point.grant_ns));
        out.push_str(&format!("      \"revoke_ns\": {:.1},\n", point.revoke_ns));
        out.push_str("      \"labels_per_sec\": {\n");
        for (j, m) in point.results.iter().enumerate() {
            let value = match m.labels_per_sec {
                Some(qps) => format!("{qps:.1}"),
                None => "null".to_owned(),
            };
            out.push_str(&format!(
                "        \"{}\": {}{}\n",
                m.name,
                value,
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

//! Figure 5, machine-readable: side-by-side throughput of every labeler.
//!
//! Measures the labeler variants — baseline, hash-partitioned, bit-vector,
//! canonical-form cached, and the **interned** serving path (pre-interned
//! dense `QueryId`s straight into the sharded slot cache: no parsing, no
//! canonical hashing, no label clone) — on the Figure 5 workload at
//! `BATCH_SIZE` queries per batch, for each of the paper's max-atoms
//! settings, and writes the queries/second trajectory to `BENCH_fig5.json`
//! (or the path given as the first argument).
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
use fdc_cq::containment::interned_contained_in;
use fdc_cq::homomorphism::HeadPolicy;
use fdc_cq::structure::{gyo_reduce, semi_join_homomorphism_into, EarStep};
use fdc_cq::{QueryId, QueryRef};

/// One labeler's measurement at one max-atoms setting.
struct Measurement {
    name: &'static str,
    queries_per_sec: f64,
}

/// All measurements at one max-atoms setting.
struct SweepPoint {
    max_atoms: usize,
    results: Vec<Measurement>,
}

/// The structural section at one high max-atoms setting: cold labeling
/// throughput, and the containment microkernel (all ordered pairs over the
/// first `pairs_k` shapes) through the join-tree semi-join vs. the
/// backtracking search.
struct HighAtomsPoint {
    max_atoms: usize,
    interned_structural: f64,
    containment_structural: f64,
    containment_generic: f64,
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
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("fig5_json: batch={BATCH_SIZE} repeats={repeats} threads={threads} smoke={smoke}");
    println!(
        "{:>9} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12}",
        "max_atoms", "baseline", "hashing", "bitvec", "cached_seq", "interned"
    );

    let mut points = Vec::new();
    for &max_atoms in sweep {
        let workload = labeling_workload(max_atoms, BATCH_SIZE);
        let results = measure_point(&workload, repeats);
        println!(
            "{:>9} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0}",
            max_atoms,
            results[0].queries_per_sec,
            results[1].queries_per_sec,
            results[2].queries_per_sec,
            results[3].queries_per_sec,
            results[4].queries_per_sec,
        );
        points.push(SweepPoint { max_atoms, results });
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

    // Structural section: the paper's sweep stops at 15 atoms, but the
    // semi-join test is aimed exactly at the atom counts above that
    // ceiling, so the high-atoms series extends the axis to 20 and 28.
    let (high_sweep, high_repeats, pairs_k): (&[usize], usize, usize) = if smoke {
        (&[20], 1, 24)
    } else {
        (&[20, 28], 3, 40)
    };
    println!("\nhigh atoms (semi-join vs backtracking): pairs_k={pairs_k} repeats={high_repeats}");
    println!(
        "{:>9} | {:>16} | {:>18} | {:>18}",
        "max_atoms", "label_structural", "contain_structural", "contain_generic"
    );
    let mut high_points = Vec::new();
    let mut calls = KernelCalls::default();
    for &max_atoms in high_sweep {
        let point = measure_high_point(max_atoms, high_repeats, pairs_k, &mut calls);
        println!(
            "{:>9} | {:>16.0} | {:>18.0} | {:>18.0}",
            max_atoms,
            point.interned_structural,
            point.containment_structural,
            point.containment_generic,
        );
        high_points.push(point);
    }
    let structural_speedup = high_points
        .iter()
        .map(|p| {
            if p.containment_generic > 0.0 {
                p.containment_structural / p.containment_generic
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "containment via join-tree semi-joins vs generic backtracking: \
         {structural_speedup:.1}x (worst point)"
    );
    // One deliberately cyclic shape: GYO gets stuck on the triangle, so
    // only the backtracking search can answer for it.
    exercise_cyclic_fallback(&mut calls);
    println!(
        "kernel calls: acyclic_queries={} structural_checks={} backtrack_fallbacks={}",
        calls.acyclic_queries, calls.structural_checks, calls.backtrack_fallbacks
    );
    if smoke {
        assert!(
            structural_speedup >= 1.0,
            "structural containment must not lose to generic backtracking \
             (got {structural_speedup:.2}x)"
        );
    }

    let high = HighAtomsSection {
        points: high_points,
        pairs_k,
        structural_speedup,
        calls,
    };
    let json = render_json(&points, threads, smoke, speedup, interned_speedup, &high);
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("wrote {out_path}");
}

/// Everything the high-atoms structural section contributes to the JSON.
struct HighAtomsSection {
    points: Vec<HighAtomsPoint>,
    pairs_k: usize,
    structural_speedup: f64,
    calls: KernelCalls,
}

/// What the high-atoms kernel ran, counted at its own call sites — the
/// JSON's `counters` block.
#[derive(Default)]
struct KernelCalls {
    /// Pool entries `gyo_reduce` accepted.
    acyclic_queries: usize,
    /// `semi_join_homomorphism_into` calls.
    structural_checks: u64,
    /// Backtracking containment calls (`interned_contained_in`), the
    /// triangle's included.
    backtrack_fallbacks: u64,
}

/// Measures one high max-atoms setting.
///
/// Cold labeling rebuilds the workload for every repeat so each timed run
/// starts from an empty cache.  It runs no semi-join: labeling asks its
/// homomorphism questions between single atoms and inside fold, so the
/// `interned_structural` series is the cold pipeline at high atom counts.
/// The containment kernel reduces each of `pairs_k` broom shapes once with
/// `gyo_reduce` and times all ordered containment pairs — through the
/// join-tree semi-join with that certificate and through the backtracking
/// search of `interned_contained_in`.
fn measure_high_point(
    max_atoms: usize,
    repeats: usize,
    pairs_k: usize,
    calls: &mut KernelCalls,
) -> HighAtomsPoint {
    let mut label_structural = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let workload = labeling_workload(max_atoms, BATCH_SIZE);
        let start = Instant::now();
        std::hint::black_box(
            workload
                .ecosystem
                .cached
                .label_queries_interned(&workload.interned),
        );
        label_structural = label_structural.min(start.elapsed().as_secs_f64());
    }

    let (interner, ids) = tree_pattern_pool(pairs_k, max_atoms, 0x5713 + max_atoms as u64);
    let refs: Vec<QueryRef<'_>> = ids.iter().map(|&id| interner.resolve(id)).collect();
    let ears: Vec<Vec<EarStep>> = refs
        .iter()
        .map(|&q| gyo_reduce(q).expect("a broom is a tree"))
        .collect();
    calls.acyclic_queries += ears.len();
    let pairs = refs.len() * refs.len();
    let mut contain_structural = f64::INFINITY;
    let mut contain_generic = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        // `a ⊑ b` is a homomorphism from `b` into `a`.
        let start = Instant::now();
        for &a in &refs {
            for (&b, b_ears) in refs.iter().zip(&ears) {
                std::hint::black_box(semi_join_homomorphism_into(
                    b,
                    b_ears,
                    a.atoms,
                    a,
                    HeadPolicy::DistinguishedToDistinguished,
                ));
            }
        }
        contain_structural = contain_structural.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for &a in &refs {
            for &b in &refs {
                std::hint::black_box(interned_contained_in(a, b));
            }
        }
        contain_generic = contain_generic.min(start.elapsed().as_secs_f64());
        calls.structural_checks += pairs as u64;
        calls.backtrack_fallbacks += pairs as u64;
    }
    HighAtomsPoint {
        max_atoms,
        interned_structural: BATCH_SIZE as f64 / label_structural.max(f64::MIN_POSITIVE),
        containment_structural: pairs as f64 / contain_structural.max(f64::MIN_POSITIVE),
        containment_generic: pairs as f64 / contain_generic.max(f64::MIN_POSITIVE),
    }
}

/// Builds the containment kernel's query pool: `count` deterministic
/// **broom patterns** over a single ternary `Edge` relation — a
/// distinguished root `v0` with `max_atoms / 3` independent depth-3 chains
/// hanging off it, so every query has roughly `max_atoms` atoms and is a
/// tree (hence acyclic).
///
/// Chain `c` is `Edge(v0, x_c, 'c0'), Edge(x_c, y_c, 'c<t2>'),
/// Edge(y_c, z_c, 'c<t3>')` with `t2, t3` drawn from two constants, so
/// each chain carries one of four *signatures* `(t2, t3)`.  A chain of the
/// source query embeds exactly into the target chains that share its
/// signature, and the mismatch is only discovered one or two hops below
/// the root.  That is the regime the semi-join fast path exists for: when
/// a late chain's signature is missing from the target, chronological
/// backtracking re-enumerates every placement of the earlier chains
/// (a product of their per-chain candidate counts) before concluding
/// failure, while the join-tree pass retains each ear once and stays
/// linear in the candidate lists.  (The stress workload's queries spread
/// their atoms over many relations, so random containment pairs there
/// fail on the first unmatched relation and measure nothing but call
/// overhead.)
fn tree_pattern_pool(
    count: usize,
    max_atoms: usize,
    seed: u64,
) -> (fdc_cq::QueryInterner, Vec<QueryId>) {
    use std::fmt::Write as _;
    let mut catalog = fdc_cq::Catalog::new();
    catalog
        .add_relation("Edge", &["src", "dst", "tag"])
        .expect("fresh catalog accepts the relation");
    // Splitmix-style LCG: deterministic across runs and hosts.
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    };
    let mut interner = fdc_cq::QueryInterner::new();
    let mut ids = Vec::with_capacity(count);
    let chains = (max_atoms / 3).max(1);
    for _ in 0..count {
        let mut text = String::from("Q(v0) :- ");
        for c in 0..chains {
            if c > 0 {
                text.push_str(", ");
            }
            // Skew the leaf tag: 'c1' leaves are rare, so a source chain
            // ending in 'c1' frequently has no matching target chain (a
            // failing pair), while the common 'c0'-leaf chains keep every
            // preceding chain's placement count high — exactly the
            // re-enumeration the backtracking search pays for and the
            // join-tree pass avoids.  Few chains shrink that placement
            // product, so below eight chains the mid tag is pinned too
            // (every chain placement stays live until the leaf); with
            // eight or more chains the product explodes on its own, so
            // both tags go uniform there to keep the generic series'
            // runtime bounded.
            let (t2, t3) = if chains < 8 {
                (0, usize::from(next(8) == 0))
            } else {
                (next(2), next(2))
            };
            write!(
                text,
                "Edge(v0, x{c}, 'c0'), Edge(x{c}, y{c}, 'c{t2}'), Edge(y{c}, z{c}, 'c{t3}')"
            )
            .expect("string write");
        }
        let query = fdc_cq::parser::parse_query(&catalog, &text).expect("generated broom parses");
        ids.push(interner.intern(&query));
    }
    (interner, ids)
}

/// Runs one containment over a deliberately cyclic shape (the triangle):
/// GYO reduction finds no ear, so only the backtracking search answers.
fn exercise_cyclic_fallback(calls: &mut KernelCalls) {
    let mut catalog = fdc_cq::Catalog::new();
    catalog
        .add_relation("Edge", &["src", "dst"])
        .expect("fresh catalog accepts the relation");
    let triangle =
        fdc_cq::parser::parse_query(&catalog, "Q() :- Edge(x, y), Edge(y, z), Edge(z, x)")
            .expect("the triangle parses");
    let mut interner = fdc_cq::QueryInterner::new();
    let id = interner.intern(&triangle);
    let triangle = interner.resolve(id);
    assert!(gyo_reduce(triangle).is_none(), "the triangle is cyclic");
    std::hint::black_box(interned_contained_in(triangle, triangle));
    calls.backtrack_fallbacks += 1;
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
        // (dense `QueryId`s), so each lookup is a lock-striped slot index
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
    threads: usize,
    smoke: bool,
    speedup: f64,
    interned_speedup: f64,
    high: &HighAtomsSection,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"figure\": \"fig5_labeler_throughput\",\n");
    out.push_str("  \"unit\": \"queries_per_second\",\n");
    out.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!(
        "  \"min_speedup_cached_vs_baseline\": {speedup:.2},\n"
    ));
    out.push_str(&format!(
        "  \"min_speedup_interned_vs_cached\": {interned_speedup:.2},\n"
    ));
    out.push_str(&format!(
        "  \"min_speedup_structural_vs_generic\": {:.2},\n",
        high.structural_speedup
    ));
    out.push_str("  \"counters\": {\n");
    out.push_str(&format!(
        "    \"acyclic_queries\": {},\n",
        high.calls.acyclic_queries
    ));
    out.push_str(&format!(
        "    \"structural_checks\": {},\n",
        high.calls.structural_checks
    ));
    out.push_str(&format!(
        "    \"backtrack_fallbacks\": {}\n",
        high.calls.backtrack_fallbacks
    ));
    out.push_str("  },\n");
    out.push_str("  \"high_atoms\": {\n");
    out.push_str(&format!("    \"containment_pairs_k\": {},\n", high.pairs_k));
    out.push_str("    \"sweep\": [\n");
    for (i, p) in high.points.iter().enumerate() {
        out.push_str("      {\n");
        out.push_str(&format!("        \"max_atoms\": {},\n", p.max_atoms));
        out.push_str(&format!(
            "        \"interned_structural\": {:.1},\n",
            p.interned_structural
        ));
        out.push_str(&format!(
            "        \"containment_structural\": {:.1},\n",
            p.containment_structural
        ));
        out.push_str(&format!(
            "        \"containment_generic\": {:.1}\n",
            p.containment_generic
        ));
        out.push_str(if i + 1 == high.points.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
    out.push_str("  \"sweep\": [\n");
    for (i, point) in points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"max_atoms\": {},\n", point.max_atoms));
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

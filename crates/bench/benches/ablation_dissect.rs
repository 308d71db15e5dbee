//! Ablation — the cost of `Dissect` (query folding + atom splitting).
//!
//! The complexity analysis in Section 6.1 points out that the folding step
//! of `Dissect` is the only super-polynomial component of the labeling
//! pipeline (query folding is NP-hard; the implementation is a brute-force
//! search).  This ablation separates the dissection cost from the per-atom
//! `ℓ⁺` computation, and shows how redundancy in the input query (duplicate
//! atoms that folding must remove) affects it — for the boxed reference
//! (`dissect_only`) and for what the service runs when it first sees a shape
//! (`interned_first_sight`: intern + the rigidity fold + every part's
//! shape — the positions a projection-style view must expose, and whether
//! the part is simple — read off the interned query by
//! `InternedDissection`, into an interner that has never seen the shape).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdc_bench::labeling_workload;
use fdc_core::dissect::{dissect, InternedDissection};
use fdc_core::QueryLabeler;
use fdc_cq::folding::fold_interned_indices;
use fdc_cq::intern::QueryInterner;
use fdc_cq::{Atom, AtomRef, ConjunctiveQuery};
use std::hint::black_box;
use std::time::Duration;

/// Duplicates every atom of the query `copies` times (a worst-ish case for
/// folding: all the duplicates are redundant and must be folded away).
fn add_redundancy(query: &ConjunctiveQuery, copies: usize) -> ConjunctiveQuery {
    let mut atoms: Vec<Atom> = Vec::new();
    for _ in 0..=copies {
        atoms.extend(query.atoms().map(AtomRef::to_atom));
    }
    ConjunctiveQuery::from_parts(
        atoms,
        query.var_kinds().collect(),
        (0..query.num_vars())
            .map(|i| query.var_name(fdc_cq::VarId(i as u32)).to_owned())
            .collect(),
    )
    .expect("duplicating atoms preserves validity")
}

fn ablation(c: &mut Criterion) {
    let workload = labeling_workload(6, 200);

    let mut group = c.benchmark_group("ablation_dissect");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(workload.queries.len() as u64));

    // Dissection alone, with increasing redundancy.
    for copies in [0usize, 1, 2] {
        let queries: Vec<ConjunctiveQuery> = workload
            .queries
            .iter()
            .map(|q| add_redundancy(q, copies))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("dissect_only", format!("{copies}x_redundant")),
            &queries,
            |b, queries| {
                b.iter(|| {
                    for q in queries {
                        black_box(dissect(q));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("interned_first_sight", format!("{copies}x_redundant")),
            &queries,
            |b, queries| {
                b.iter(|| {
                    let mut interner = QueryInterner::new();
                    for q in queries {
                        let id = interner.intern(q);
                        let core = fold_interned_indices(interner.resolve(id));
                        interner.record_core(id, &core);
                        let mut dissection = InternedDissection::new(interner.resolve(id), &core);
                        for k in 0..dissection.len() {
                            black_box(dissection.shape(k));
                        }
                    }
                })
            },
        );
    }

    // Full labeling vs dissection alone on the clean workload, to show the
    // split between dissection and ℓ⁺ computation.
    group.bench_function("full_labeling_clean", |b| {
        b.iter(|| {
            for q in &workload.queries {
                black_box(workload.ecosystem.bitvec.label_query(q));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);

//! Property test: keeping a cached label current never changes it.
//!
//! A stale cache entry is not re-derived: its query entry is patched where
//! it lies, and a stale atom mask is *extended* by the views registered
//! since it was computed whenever nothing but registrations happened in
//! between (`crates/core/src/labeler.rs`, "The algorithm").  That rule
//! reads epochs and list lengths recorded at other times, so this suite
//! drives seeded interleavings of everything that moves them:
//!
//! * `add_view` of projection views *and* of views with constants or
//!   repeated variables (those are decided by reading terms, not by the
//!   mask test), on a registry that starts empty or at the paper's three
//!   views;
//! * `invalidate_relation`, the out-of-band bump an extension must not
//!   cross;
//! * `label_interned` / `label_packed_interned` over a pool of shapes.
//!
//! After every step the label equals a fresh `BitVectorLabeler`'s over the
//! registry as it stands, and the counters say what happened: a shape the
//! labeler's tables hold is a hit or a refresh — never a miss, at query or
//! atom level — and one they do not hold is exactly one miss.  CI runs this in release as well: the epoch
//! arithmetic must hold where overflow wraps instead of panicking.

use std::collections::HashSet;

use fdc::core::{
    BitVectorLabeler, CacheStats, CachedLabeler, DisclosureLabel, QueryLabeler, SecurityViews,
};
use fdc::cq::intern::QueryId;
use fdc::cq::parser::parse_query;
use fdc::cq::{Catalog, ConjunctiveQuery, RelId};

const SHAPES: [&str; 16] = [
    "Q(x) :- Meetings(x, y)",
    "Q(x, y) :- Meetings(x, y)",
    "Q(y) :- Meetings(x, y)",
    "Q() :- Meetings(x, y)",
    "Q(x) :- Meetings(x, 'Cathy')",
    "Q() :- Meetings(x, 'Cathy')",
    "Q(x) :- Meetings(x, x)",
    "Q() :- Meetings(z, z)",
    "Q(x, y, z) :- Contacts(x, y, z)",
    "Q(z) :- Contacts(x, y, z)",
    "Q(x) :- Contacts(x, y, 'Intern')",
    "Q(x) :- Contacts(x, x, z)",
    "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
    "Q(x, z) :- Meetings(x, y), Meetings(y, z)",
    "Q(y) :- Contacts(y, w, 'Manager'), Meetings(t, y)",
    "Q(a, c) :- Contacts(a, b, c), Contacts(c, d, a)",
];

/// Definitions an interleaving registers online.  The first eight are
/// projection views (answered by a bit test); the rest carry a constant or
/// a repeated variable, so both they and the atoms they answer go through
/// the interned rewriting check.
const DEFINITIONS: [&str; 16] = [
    "V(x) :- Meetings(x, y)",
    "V(y) :- Meetings(x, y)",
    "V(x, y) :- Meetings(x, y)",
    "V() :- Meetings(x, y)",
    "V(x, y) :- Contacts(x, y, z)",
    "V(z) :- Contacts(x, y, z)",
    "V(x, z) :- Contacts(x, y, z)",
    "V(x, y, z) :- Contacts(x, y, z)",
    "V(x) :- Meetings(x, 'Cathy')",
    "V(x) :- Meetings(x, x)",
    "V() :- Meetings(x, x)",
    "V(x, y) :- Contacts(x, y, 'Intern')",
    "V(y) :- Contacts(x, y, 'Manager')",
    "V(x) :- Contacts(x, x, z)",
    "V(x) :- Contacts(x, y, y)",
    "V(x) :- Contacts(x, y, 'Intern')",
];

/// What a fresh `BitVectorLabeler` over `views` says of every shape.
fn fresh_labels(views: &SecurityViews, shapes: &[ConjunctiveQuery]) -> Vec<DisclosureLabel> {
    let fresh = BitVectorLabeler::new(views.clone());
    shapes
        .iter()
        .map(|shape| fresh.label_query(shape))
        .collect()
}

/// How often the interleavings reached what the suite exists for.
#[derive(Default)]
struct Coverage {
    refreshes: u64,
    atom_refreshes: u64,
    registrations: u64,
    fallback_registrations: u64,
    bumps: u64,
}

fn run(seed: u64, coverage: &mut Coverage) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    let catalog = Catalog::paper_example();
    let views = if seed.is_multiple_of(2) {
        SecurityViews::new(&catalog)
    } else {
        SecurityViews::paper_example()
    };
    let mut labeler = CachedLabeler::new(views);
    let shapes: Vec<ConjunctiveQuery> = SHAPES
        .iter()
        .map(|text| parse_query(&catalog, text).unwrap())
        .collect();
    let ids: Vec<QueryId> = shapes.iter().map(|shape| labeler.intern(shape)).collect();
    let mut expected = fresh_labels(labeler.security_views(), &shapes);
    // The ids the labeler's tables hold.
    let mut held: HashSet<QueryId> = HashSet::new();

    for step in 0..500 {
        let at = format!("seed {seed}, step {step}");
        match next(100) {
            0..=11 => {
                let pick = next(DEFINITIONS.len());
                let view = parse_query(&catalog, DEFINITIONS[pick]).unwrap();
                // Refused once the relation's packed budget is spent.
                if labeler.add_view(&format!("v{step}"), view).is_ok() {
                    expected = fresh_labels(labeler.security_views(), &shapes);
                    coverage.registrations += 1;
                    coverage.fallback_registrations += u64::from(pick >= 8);
                }
            }
            12..=17 => {
                labeler.invalidate_relation(RelId(next(catalog.len()) as u32));
                coverage.bumps += 1;
            }
            _ => {
                let shape = next(ids.len());
                let id = ids[shape];
                let known = !held.insert(id);
                let before = labeler.stats();
                if next(2) == 0 {
                    assert_eq!(labeler.label_interned(id), expected[shape], "{at}");
                } else {
                    assert_eq!(
                        labeler.label_packed_interned(id),
                        expected[shape].pack(),
                        "{at}"
                    );
                }
                let after = labeler.stats();
                let moved = |count: fn(&CacheStats) -> u64| count(&after) - count(&before);
                if known {
                    assert_eq!(moved(|s| s.misses), 0, "{at}: a held shape missed");
                    assert_eq!(moved(|s| s.atom_misses), 0, "{at}: a held atom missed");
                    assert_eq!(moved(|s| s.hits + s.query_refreshes), 1, "{at}");
                } else {
                    assert_eq!(moved(|s| s.misses), 1, "{at}");
                    assert_eq!(moved(|s| s.hits + s.query_refreshes), 0, "{at}");
                }
                coverage.refreshes += moved(|s| s.query_refreshes);
                coverage.atom_refreshes += moved(|s| s.atom_refreshes);
            }
        }
    }
}

#[test]
fn maintained_labels_equal_fresh_ones_under_every_interleaving() {
    let mut coverage = Coverage::default();
    for seed in 1..=40 {
        run(seed, &mut coverage);
    }
    let Coverage {
        refreshes,
        atom_refreshes,
        registrations,
        fallback_registrations,
        bumps,
    } = coverage;
    assert!(refreshes > 1_000 && atom_refreshes > 1_000);
    assert!(registrations > 100 && fallback_registrations > 50);
    assert!(bumps > 100);
}

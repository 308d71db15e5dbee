//! Pinned: recognising a known query allocates nothing.
//!
//! The front door asks the interner "have I seen this query?" once per
//! admission, so the hit path of `QueryInterner::lookup` / `intern` hashes
//! and compares the operand in place.  This binary installs a counting
//! global allocator (which is why it is a test binary of its own) and
//! asserts the count around each call:
//!
//! * **0** allocations for a known shape whose variables fit the on-stack
//!   numbering (64 slots) — a 1-atom query, a 2-atom `User` join with string
//!   and integer constants, and a query with exactly 64 variables;
//! * **at most 1** for a known shape one variable past that capacity (the
//!   heap fallback of the numbering).
//!
//! The front door's own lookup, `QueryInterner::recognise`, is pinned too:
//!
//! * **0** allocations for a repeat recognised by its bytes (its id's
//!   exemplar), at any variable count — the byte step numbers nothing;
//! * **at most 1** for the call that records an exemplar (the exemplar
//!   arena's amortised growth), plus the numbering's fallback past 64
//!   variables.
//!
//! The first sight of a shape is pinned the same way, once its fold is on
//! record:
//!
//! * reading every part's shape off the interned query
//!   (`InternedDissection`) allocates **nothing** up to 64 variables and
//!   **1** block past that (the join-variable set and two scratch sets),
//!   however many atoms the shape has;
//! * a first sight whose parts mask tests decide allocates **exactly its
//!   entry** — one block, its part slice (the label is read off the parts)
//!   — plus that one block past 64 variables.
//!
//! And an interned term is pinned at 4 bytes: the arena's term buffer is
//! most of what a cached shape costs.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.

use std::hint::black_box;

use fdc::core::dissect::InternedDissection;
use fdc::core::CachedLabeler;
use fdc::cq::folding::fold_interned_indices;
use fdc::cq::intern::{ITerm, QueryInterner, Recognised};
use fdc::cq::{Atom, ConjunctiveQuery, Term};
use fdc::ecosystem::{facebook_catalog, Ecosystem};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[path = "support/user_join.rs"]
mod user_join;
use user_join::user_join;

/// Interns `query`, then counts what recognising it again costs.
fn hit_path_allocations(query: &ConjunctiveQuery) -> (u64, u64) {
    let mut interner = QueryInterner::new();
    // A few other shapes first, so the probe has neighbours to step over.
    for fresh in [1, 2, 3] {
        interner.intern(&user_join(fresh));
    }
    let id = interner.intern(query);
    let shapes = interner.len();
    let lookup = allocations(|| {
        assert_eq!(black_box(interner.lookup(black_box(query))), Some(id));
    });
    let intern = allocations(|| {
        assert_eq!(black_box(interner.intern(black_box(query))), id);
    });
    assert_eq!(interner.len(), shapes);
    (lookup, intern)
}

#[test]
fn the_counter_counts() {
    assert_eq!(allocations(|| drop(black_box(Box::new(1u64)))), 1);
    assert!(allocations(|| drop(black_box(vec![1u32; 100]))) >= 1);
    assert_eq!(allocations(|| ()), 0);
}

#[test]
fn a_known_single_atom_query_is_recognised_without_allocating() {
    let user = facebook_catalog().user();
    let terms = (0..34u32)
        .map(|v| match v {
            0 => Term::dist(0),
            5 => Term::constant("Cathy"),
            9 => Term::constant(1984),
            _ => Term::exist(if v < 5 {
                v
            } else if v < 9 {
                v - 1
            } else {
                v - 2
            }),
        })
        .collect();
    let query = ConjunctiveQuery::from_atoms(vec![Atom::new(user, terms)]).unwrap();
    assert_eq!(hit_path_allocations(&query), (0, 0));
}

#[test]
fn a_known_user_join_is_recognised_without_allocating() {
    assert_eq!(hit_path_allocations(&user_join(10)), (0, 0));
}

#[test]
fn a_query_at_the_inline_numbering_capacity_is_recognised_without_allocating() {
    let query = user_join(30);
    assert_eq!(query.num_vars(), 64);
    assert_eq!(hit_path_allocations(&query), (0, 0));
}

#[test]
fn one_variable_past_the_capacity_costs_at_most_the_fallback_allocation() {
    let query = user_join(31);
    assert_eq!(query.num_vars(), 65);
    let (lookup, intern) = hit_path_allocations(&query);
    assert!(lookup <= 1, "lookup allocated {lookup} times");
    assert!(intern <= 1, "intern allocated {intern} times");
}

/// Interns `query`, then counts what the front door's recording call and
/// a byte-recognised repeat cost.
fn front_door_allocations(query: &ConjunctiveQuery) -> (u64, u64) {
    let mut interner = QueryInterner::new();
    for fresh in [1, 2, 3] {
        interner.intern(&user_join(fresh));
    }
    let id = interner.intern(query);
    let record = allocations(|| {
        assert_eq!(
            black_box(interner.recognise(black_box(query))),
            Some(Recognised::Compared(id))
        );
    });
    let repeat = allocations(|| {
        assert_eq!(
            black_box(interner.recognise(black_box(query))),
            Some(Recognised::Bytes(id))
        );
    });
    (record, repeat)
}

#[test]
fn a_repeat_recognised_by_its_bytes_allocates_nothing() {
    for joined in [10, 30, 31] {
        let (record, repeat) = front_door_allocations(&user_join(joined));
        assert_eq!(repeat, 0, "a byte hit on user_join({joined}) allocated");
        // The first exemplar grows the empty arena: one block.  Past 64
        // variables the compare pass's numbering takes one more.
        let fallback = u64::from(user_join(joined).num_vars() > 64);
        assert_eq!(record, 1 + fallback, "recording user_join({joined})");
    }
}

#[test]
fn recording_exemplars_allocates_at_most_the_arenas_amortised_growth() {
    // Many shapes recorded one after another: each recording call costs
    // at most one block (the arena's growth), and the blocks grow
    // geometrically, so most calls cost none.
    let mut interner = QueryInterner::new();
    let shapes: Vec<ConjunctiveQuery> = (1..=30).map(user_join).collect();
    for shape in &shapes {
        interner.intern(shape);
    }
    let mut total = 0;
    for shape in &shapes {
        let count = allocations(|| {
            black_box(interner.recognise(black_box(shape)));
        });
        assert!(count <= 1, "one recording call allocated {count} times");
        total += count;
    }
    assert!(total <= 8, "30 recordings allocated {total} times");
    for shape in &shapes {
        let count = allocations(|| {
            let found = black_box(interner.recognise(black_box(shape)));
            assert!(matches!(found, Some(Recognised::Bytes(_))));
        });
        assert_eq!(count, 0);
    }
}

/// What reading every part's shape of a shape whose fold is on record
/// allocates, with the number of parts.
fn part_mask_allocations(query: &ConjunctiveQuery) -> (usize, u64) {
    let mut interner = QueryInterner::new();
    let id = interner.intern(query);
    let kept = fold_interned_indices(interner.resolve(id));
    interner.record_core(id, &kept);
    let core = interner.cached_core(id).expect("recorded above");
    let mut parts = 0;
    let count = allocations(|| {
        let mut dissection = InternedDissection::new(black_box(interner.resolve(id)), core);
        parts = dissection.len();
        for k in 0..parts {
            black_box(dissection.shape(k));
        }
    });
    (parts, count)
}

#[test]
fn dissecting_a_65_variable_shape_again_allocates_only_its_scratch() {
    let query = user_join(31);
    assert_eq!(query.num_vars(), 65);
    // The join-variable set spills past 64 variables: one block.
    assert_eq!(part_mask_allocations(&query), (2, 1));
    assert_eq!(part_mask_allocations(&user_join(30)), (2, 0));
}

#[test]
fn dissection_scratch_does_not_grow_with_the_number_of_parts() {
    // Twelve `User` atoms joined on `uid`, told apart by a constant: none
    // folds, every one contributes 32 variables of its own.
    let schema = facebook_catalog();
    let user = schema.user();
    let arity = schema.catalog.arity(user) as u32;
    let atom = |i: u32| {
        let mut terms = vec![Term::dist(0), Term::constant(i64::from(i))];
        terms.extend((2..arity).map(|column| Term::exist(i * (arity - 2) + column - 1)));
        Atom::new(user, terms)
    };
    let query = ConjunctiveQuery::from_atoms((0..12).map(atom).collect()).unwrap();
    assert!(query.num_vars() > 300);
    assert_eq!(part_mask_allocations(&query), (12, 1));

    // A single-atom query is its own only part: nothing to allocate.
    let single = ConjunctiveQuery::from_atoms(vec![atom(0)]).unwrap();
    assert_eq!(part_mask_allocations(&single), (1, 0));
}

/// What the first sight of `query` allocates once its fold is on record:
/// labeled, flushed, then labeled again into a buffer with room.
fn first_sight_allocations(query: &ConjunctiveQuery) -> u64 {
    let mut labeler = CachedLabeler::new(Ecosystem::new().views);
    let id = labeler.intern(query);
    labeler.label_interned(id);
    // Flushing keeps the slot vector's capacity, so storing the entry again
    // does not grow it.
    labeler.clear_entries();
    let mut out = Vec::with_capacity(16);
    let count = allocations(|| {
        labeler.append_packed_interned(black_box(id), &mut out);
    });
    assert_eq!(labeler.stats().misses, 2);
    count
}

#[test]
fn a_projection_style_first_sight_allocates_exactly_its_entry() {
    // Every part of these shapes is decided by bit tests against the
    // Facebook views: the entry's part slice, nothing else.
    assert_eq!(first_sight_allocations(&user_join(10)), 1);
    assert_eq!(first_sight_allocations(&user_join(30)), 1);
    // Past 64 variables the join-variable set takes one block more.
    assert_eq!(first_sight_allocations(&user_join(31)), 2);
}

#[test]
fn an_interned_term_is_four_bytes() {
    assert_eq!(std::mem::size_of::<ITerm>(), 4);
}

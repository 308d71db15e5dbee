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
//! `Dissect` over the flat representation is pinned the same way: once a
//! shape's fold is on record, visiting its parts costs a fixed handful of
//! scratch allocations — two per-variable tables and two part buffers —
//! however many atoms or variables the shape has, and none at all for a
//! single-atom query.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.

use std::hint::black_box;

use fdc::core::dissect::dissect_interned;
use fdc::cq::intern::QueryInterner;
use fdc::cq::{Atom, ConjunctiveQuery, Term};
use fdc::ecosystem::facebook_catalog;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// `User(u, x1, …, x33), User(u, y1, …, y_fresh, 'c', 7, 'c', 7, …)`: a
/// self-join on `uid` whose second atom has `fresh` variables of its own and
/// constants in its remaining columns — `34 + fresh` variables in all.
fn user_join(fresh: usize) -> ConjunctiveQuery {
    let schema = facebook_catalog();
    let user = schema.user();
    let arity = schema.catalog.arity(user);
    assert_eq!(arity, 34);
    let first: Vec<Term> = (0..arity as u32)
        .map(|v| {
            if v % 2 == 0 {
                Term::dist(v)
            } else {
                Term::exist(v)
            }
        })
        .collect();
    let mut second = vec![Term::dist(0)];
    for column in 1..arity {
        second.push(if column <= fresh {
            Term::exist((arity + column - 1) as u32)
        } else if column % 2 == 0 {
            Term::constant("a constant longer than one hash word")
        } else {
            Term::constant(7)
        });
    }
    let query = ConjunctiveQuery::from_atoms(vec![Atom::new(user, first), Atom::new(user, second)])
        .unwrap();
    assert_eq!(query.num_vars(), arity + fresh);
    query
}

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

/// What one `dissect_interned` pass allocates on a shape whose fold is on
/// record, with the number of parts it visited.
fn redissection_allocations(query: &ConjunctiveQuery) -> (usize, u64) {
    let mut interner = QueryInterner::new();
    let id = interner.intern(query);
    interner.core_atom_indices(id);
    let core = interner.cached_core(id).expect("recorded above");
    let mut parts = 0;
    let count = allocations(|| {
        dissect_interned(black_box(interner.resolve(id)), core, |part| {
            black_box(part);
            parts += 1;
        });
    });
    (parts, count)
}

/// The scratch of one dissection: `atoms_with`, `local`, `terms` and
/// `kinds`.
const DISSECT_SCRATCH: u64 = 4;

#[test]
fn dissecting_a_65_variable_shape_again_allocates_only_its_scratch() {
    let query = user_join(31);
    assert_eq!(query.num_vars(), 65);
    let (parts, count) = redissection_allocations(&query);
    assert_eq!(parts, 2);
    assert!(count <= DISSECT_SCRATCH, "{count} allocations");
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
    let (parts, count) = redissection_allocations(&query);
    assert_eq!(parts, 12);
    assert!(count <= DISSECT_SCRATCH, "{count} allocations");

    // A single-atom query is its own only part: nothing to assemble.
    let single = ConjunctiveQuery::from_atoms(vec![atom(0)]).unwrap();
    let (parts, count) = redissection_allocations(&single);
    assert_eq!(parts, 1);
    assert_eq!(count, 0, "{count} allocations");
}

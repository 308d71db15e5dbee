//! Pinned: a query's variables cost a constant number of heap blocks.
//!
//! Variable names are display text; the paper's representation is the atoms
//! plus one kind per variable.  A `ConjunctiveQuery` therefore keeps its
//! names packed — one buffer of names back to back plus their end offsets —
//! beside one block of kinds.  This binary installs the counting global
//! allocator of `intern_alloc` (which is why it is a test binary of its own)
//! and asserts:
//!
//! * `clone()` of a query with 1, 8 and 40 variables allocates exactly
//!   `1 + atoms + string constants + K` — the atom vector, one term vector
//!   per atom, one buffer per string constant — with the same `K ≤ 3` at
//!   every variable count;
//! * `wire::decode_query` of the same queries allocates the same constant on
//!   top of those — the three blocks and the validation's scratch — so no
//!   string per name;
//! * a query stays 72 bytes, and an `Operation` that carries one 96.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.

use std::hint::black_box;
use std::mem::size_of;

use fdc::cq::query::QueryBuilder;
use fdc::cq::wire::{decode_query, encode_query};
use fdc::cq::{Catalog, ConjunctiveQuery, Constant, Term};
use fdc::durability::codec::Cursor;
use fdc::service::Operation;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const VARIABLE_COUNTS: [usize; 3] = [1, 8, 40];

/// `R(var0, 'a string constant'), R(var1, 7), R(var2, 'a string constant'), …`:
/// one atom per variable, alternating distinguished variables with string
/// constants and existential ones with integers.
fn query_with_vars(n: usize) -> ConjunctiveQuery {
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("R", &["a", "b"]).unwrap();
    let mut b = QueryBuilder::new();
    for i in 0..n {
        if i % 2 == 0 {
            let v = b.dvar(&format!("var{i}"));
            b.atom(r, [v.into(), "a string constant".into()]);
        } else {
            let v = b.evar(&format!("var{i}"));
            b.atom(r, [v.into(), 7.into()]);
        }
    }
    let query = b.build().unwrap();
    assert_eq!(query.num_vars(), n);
    query
}

/// The blocks a query owns outside its variable table: the atom vector, one
/// term vector per atom and one buffer per string constant.
fn body_blocks(query: &ConjunctiveQuery) -> u64 {
    let constants = query
        .atoms()
        .iter()
        .flat_map(|atom| &atom.terms)
        .filter(|term| matches!(term, Term::Const(Constant::Str(s)) if !s.is_empty()))
        .count();
    (1 + query.num_atoms() + constants) as u64
}

#[test]
fn a_clone_copies_the_variables_in_a_constant_number_of_blocks() {
    let mut variable_blocks = Vec::new();
    for n in VARIABLE_COUNTS {
        let query = query_with_vars(n);
        let mut copy = None;
        let clone = allocations(|| copy = Some(black_box(&query).clone()));
        assert_eq!(copy.as_ref(), Some(&query));
        variable_blocks.push(clone - body_blocks(&query));
    }
    assert!(
        variable_blocks
            .iter()
            .all(|&k| k == variable_blocks[0] && k <= 3),
        "variable blocks per clone at {VARIABLE_COUNTS:?} variables: {variable_blocks:?}"
    );
}

#[test]
fn decoding_allocates_no_string_per_name() {
    let mut variable_blocks = Vec::new();
    for n in VARIABLE_COUNTS {
        let query = query_with_vars(n);
        let mut bytes = Vec::new();
        encode_query(&query, &mut bytes);
        let mut decoded = None;
        let decode = allocations(|| {
            decoded = Some(decode_query(&mut Cursor::new(black_box(&bytes))).unwrap());
        });
        assert_eq!(decoded.as_ref(), Some(&query));
        variable_blocks.push(decode - body_blocks(&query));
    }
    assert!(
        variable_blocks.iter().all(|&k| k == variable_blocks[0]),
        "blocks beyond the body per decode at {VARIABLE_COUNTS:?} variables: {variable_blocks:?}"
    );
    assert!(variable_blocks[0] <= 4, "{variable_blocks:?}");
}

#[test]
fn a_query_and_an_operation_do_not_grow() {
    let (query, operation) = (size_of::<ConjunctiveQuery>(), size_of::<Operation>());
    assert!(
        query <= 72 && operation <= 96,
        "query {query} B, operation {operation} B"
    );
}

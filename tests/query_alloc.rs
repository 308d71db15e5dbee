//! Pinned: a query is one heap block, whatever its constants.
//!
//! A `ConjunctiveQuery` keeps every atom's terms back to back as 4-byte
//! words and, after them in the same block, the meta table — the kind
//! bitset, the name end offsets and the names, the constant table (each
//! distinct constant once), each atom's relation and term end, and the
//! counts.  This binary installs the counting global allocator of
//! `intern_alloc` (which is why it is a test binary of its own) and
//! asserts:
//!
//! * `clone()` of a query with 0, 1, 8 and 40 variables (1 to 40 atoms),
//!   with a short and with a long string constant, and of a query with
//!   many distinct constants, allocates exactly 1 block however many
//!   atoms, variables and constants it has, and `heap_blocks()` says so;
//! * so does a clone of what every public constructor returns — the
//!   builder, the parser, `from_parts`, `from_atoms`, `rename_canonical`,
//!   the fold, `QueryInterner::to_query` and the wire decoder;
//! * `wire::decode_query` of the queries with 1, 8 and 40 variables
//!   allocates exactly the query's block (`DECODE_SCRATCH_BLOCKS` is 0):
//!   no block per atom, no string per name or constant, no scratch table,
//!   and none for the validation walk, whose first-occurrence numbering
//!   stays on the stack up to 64 variables;
//! * a term and a constant are 16 bytes, an atom 24, a query 24, and an
//!   `Operation` that carries one 48.
//!
//! Counts are per thread, so the harness running tests in parallel does not
//! disturb them.

use std::hint::black_box;
use std::mem::size_of;

use fdc::cq::canonical::rename_canonical;
use fdc::cq::folding::fold;
use fdc::cq::intern::QueryInterner;
use fdc::cq::parser::parse_query;
use fdc::cq::query::QueryBuilder;
use fdc::cq::wire::{decode_query, encode_query};
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, Constant, Term, VarKind};
use fdc::durability::codec::Cursor;
use fdc::service::Operation;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const VARIABLE_COUNTS: [usize; 4] = [0, 1, 8, 40];

/// The blocks a decode allocates and frees (or grows) on top of the query
/// it returns: none.  The first pass over the bytes sizes the block and
/// finds the distinct constants on the stack; the second writes the block.
const DECODE_SCRATCH_BLOCKS: u64 = 0;

/// A string constant past the inline capacity, and one well within it.
const STRING_CONSTANTS: [&str; 2] = ["a string constant", "me"];

/// Every query the block counts are taken over: each variable count with
/// each string constant.
fn cases() -> impl Iterator<Item = (usize, &'static str)> {
    VARIABLE_COUNTS
        .into_iter()
        .flat_map(|n| STRING_CONSTANTS.map(|constant| (n, constant)))
}

/// `R(var0, constant), R(var1, 7), R(var2, constant), …`: one atom per
/// variable, alternating distinguished variables with the string constant
/// and existential ones with integers; `R(constant, 7)` when `n` is 0.
fn query_with_vars(n: usize, constant: &str) -> ConjunctiveQuery {
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("R", &["a", "b"]).unwrap();
    let mut b = QueryBuilder::new();
    if n == 0 {
        b.atom(r, [constant.into(), 7.into()]);
    }
    for i in 0..n {
        if i % 2 == 0 {
            let v = b.dvar(&format!("var{i}"));
            b.atom(r, [v.into(), constant.into()]);
        } else {
            let v = b.evar(&format!("var{i}"));
            b.atom(r, [v.into(), 7.into()]);
        }
    }
    let query = b.build().unwrap();
    assert_eq!(query.num_vars(), n);
    query
}

/// `R(c0, 0), R(c1, 1), …, R(c19, 19), R(c0, 0)`: 20 distinct long string
/// constants and 20 integers, the first pair repeated once — enough to
/// grow the constructors' hash index of their constant table.
fn query_with_many_constants() -> ConjunctiveQuery {
    let mut catalog = Catalog::new();
    let r = catalog.add_relation("R", &["a", "b"]).unwrap();
    let mut b = QueryBuilder::new();
    for i in (0..20).chain([0]) {
        let text = format!("a string constant number {i}");
        b.atom(r, [text.as_str().into(), i64::from(i).into()]);
    }
    b.build().unwrap()
}

#[test]
fn a_clone_copies_the_variables_in_a_constant_number_of_blocks() {
    let queries = cases()
        .map(|(n, constant)| query_with_vars(n, constant))
        .chain([query_with_many_constants()]);
    for query in queries {
        let mut copy = None;
        let clone = allocations(|| copy = Some(black_box(&query).clone()));
        assert_eq!(copy.as_ref(), Some(&query));
        assert_eq!(clone, 1, "blocks per clone of {query:?}");
        assert_eq!(query.heap_blocks(), 1);
    }
}

#[test]
fn every_constructor_returns_one_block() {
    let catalog = Catalog::paper_example();
    let text = "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern'), Meetings(x, y)";
    let parsed = parse_query(&catalog, text).unwrap();
    let atoms: Vec<Atom> = parsed.atoms().map(|atom| atom.to_atom()).collect();
    let kinds: Vec<VarKind> = parsed.var_kinds().collect();
    let names = vec!["x".to_owned(), "y".to_owned(), "w".to_owned()];
    let mut bytes = Vec::new();
    encode_query(&parsed, &mut bytes);
    let mut interner = QueryInterner::new();
    let id = interner.intern(&parsed);
    let built = query_with_vars(8, "me");
    let constructed = [
        ("builder", built),
        ("parser", parsed.clone()),
        (
            "from_parts",
            ConjunctiveQuery::from_parts(atoms.clone(), kinds, names).unwrap(),
        ),
        ("from_atoms", ConjunctiveQuery::from_atoms(atoms).unwrap()),
        ("rename_canonical", rename_canonical(&parsed)),
        ("fold", fold(&parsed)),
        ("to_query", interner.to_query(id)),
        ("decode", decode_query(&mut Cursor::new(&bytes)).unwrap()),
    ];
    for (how, query) in constructed {
        let mut copy = None;
        let clone = allocations(|| copy = Some(black_box(&query).clone()));
        assert_eq!(copy.as_ref(), Some(&query), "{how}");
        assert_eq!((clone, query.heap_blocks()), (1, 1), "{how}");
    }
}

#[test]
fn decoding_allocates_no_string_per_name() {
    for (n, constant) in cases().filter(|&(n, _)| n > 0) {
        let query = query_with_vars(n, constant);
        let mut bytes = Vec::new();
        encode_query(&query, &mut bytes);
        let mut decoded = None;
        let decode = allocations(|| {
            decoded = Some(decode_query(&mut Cursor::new(black_box(&bytes))).unwrap());
        });
        assert_eq!(decoded.as_ref(), Some(&query));
        assert_eq!(
            decode,
            1 + DECODE_SCRATCH_BLOCKS,
            "blocks per decode at {n} variables with {constant:?}"
        );
    }
}

#[test]
fn a_query_and_an_operation_do_not_grow() {
    assert_eq!(size_of::<ConjunctiveQuery>(), 24);
    assert_eq!(size_of::<Operation>(), 48);
}

#[test]
fn a_constant_lives_in_its_term() {
    assert_eq!(size_of::<Constant>(), 16);
    assert_eq!(size_of::<Term>(), 16);
    assert_eq!(size_of::<Atom>(), 24);
}

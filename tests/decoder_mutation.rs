//! Property test: hostile bytes never panic a decoder.
//!
//! Every decoder that reads bytes from disk — the interner's arena image
//! (`QueryInterner::decode_from`), a wire query and catalog
//! (`fdc_cq::wire`), a security policy (`fdc_policy::wire::decode_policy`),
//! the policy store's image (`PolicyStore::decode_from`, a checkpoint's
//! whole store section) and a WAL record payload (`durable::decode_wal_op`)
//! — is fed mutations of valid encodings:
//!
//! * every single-bit flip;
//! * every byte set to each of 0, 1, 0x7f, 0x80 and 0xff;
//! * every truncation;
//! * 20 000 seeded overwrites of 2 to 8 bytes at random positions.
//!
//! Each must return, not panic; an error names an offset inside the input
//! (at most its length); and an interner that decodes passes
//! `QueryInterner::check_invariants` (every id resolves back to a query
//! that its own lookup finds under that id, and whose constructor's hash is
//! the one stored for it) and re-encodes to the input it was decoded from,
//! byte for byte.  A failure prints the mutation and the mutated bytes.
//!
//! Semantic mutators edit a valid image so that every array stays in range,
//! yet the image is not one construction can build; each must be refused
//! at the offset of what it edited, or, for an interner image, at the first
//! byte that building its queries again does not reproduce:
//!
//! * duplicate a query span (two ids for one shape): refused at the
//!   duplicate, which interns to the first one's id;
//! * swap the first occurrences of two variables of one query, every index
//!   and tag still in range (a numbering construction never writes):
//!   refused at the first swapped term's value;
//! * append a constant that no query uses to the constant table: refused
//!   at the constant count, the field it edited;
//! * append a query span over two queries' atoms: refused at that span, as
//!   soon as the rebuilt arena outgrows the image's;
//! * set a principal's consistency bit at or past its policy's partition
//!   count;
//! * zero the consistency word of a principal whose policy has partitions.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdc::core::{BaselineLabeler, QueryLabeler, SecurityViews};
use fdc::cq::intern::{QueryId, QueryInterner};
use fdc::cq::parser::parse_query;
use fdc::cq::wire::{
    decode_catalog, decode_query, encode_catalog, encode_query, put_constant, read_constant,
};
use fdc::cq::{Catalog, ConjunctiveQuery, Constant};
use fdc::durability::codec::{CodecError, Cursor};
use fdc::policy::wire::{decode_policy, encode_policy};
use fdc::policy::{PolicyPartition, PolicyStore, PrincipalId, SecurityPolicy};
use fdc::service::durable::{
    decode_wal_op, encode_add_view, encode_check, encode_define, encode_grant, encode_register,
    encode_replace_policy, encode_revoke, encode_submit,
};

/// Seeded multi-byte overwrites per encoded input.
const OVERWRITES: usize = 20_000;

/// Calls `check` on every mutation of `bytes` listed in the module docs,
/// each named by what it did and where (for the failure message).
fn for_each_mutation(bytes: &[u8], seed: u64, mut check: impl FnMut((&str, usize), &[u8])) {
    let mut buf = bytes.to_vec();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            buf[byte] ^= 1 << bit;
            check(("flipped bit", byte * 8 + bit), &buf);
            buf[byte] ^= 1 << bit;
        }
        for value in [0, 1, 0x7f, 0x80, 0xff] {
            if bytes[byte] != value {
                buf[byte] = value;
                check(("special value at byte", byte), &buf);
                buf[byte] = bytes[byte];
            }
        }
    }
    for len in 0..bytes.len() {
        check(("truncation to length", len), &bytes[..len]);
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..OVERWRITES {
        buf.copy_from_slice(bytes);
        for _ in 0..2 + next() % 7 {
            let at = (next() % bytes.len() as u64) as usize;
            buf[at] = next() as u8;
        }
        check(("overwrite round", round), &buf);
    }
}

/// Runs `decode` on every mutation of `bytes`: it must not panic, and an
/// error must name an offset inside the input.
fn assert_never_panics(
    what: &str,
    bytes: &[u8],
    seed: u64,
    decode: impl Fn(&[u8]) -> Result<(), CodecError>,
) {
    assert!(!bytes.is_empty(), "{what}: nothing to mutate");
    for_each_mutation(bytes, seed, |(mutation, at), input| {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(input)));
        let failure = match outcome {
            Err(_) => "panicked".to_owned(),
            Ok(Err(CodecError::UnexpectedEof { offset } | CodecError::Invalid { offset, .. }))
                if offset > input.len() =>
            {
                format!(
                    "reported offset {offset} past the input's {} bytes",
                    input.len()
                )
            }
            Ok(_) => return,
        };
        panic!("{what}: {failure} on {mutation} {at}, input {input:02x?}");
    });
}

/// Decodes an interner image; one that decodes must keep the interner's
/// invariants, encode every query it resolves, and be what its interner
/// encodes, byte for byte.
fn decode_interner(input: &[u8]) -> Result<(), CodecError> {
    let mut cursor = Cursor::new(input);
    let interner = QueryInterner::decode_from(&mut cursor)?;
    interner.check_invariants();
    let mut out = Vec::new();
    for index in 0..interner.len() {
        let query = interner.to_query(QueryId(index as u32));
        out.clear();
        encode_query(&query, &mut out);
    }
    out.clear();
    interner.encode_into(&mut out);
    assert_eq!(
        out,
        input[..cursor.pos()],
        "an accepted image is not what its interner encodes"
    );
    Ok(())
}

fn queries(catalog: &Catalog) -> Vec<ConjunctiveQuery> {
    [
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        "Q(x) :- Meetings(x, x), Meetings(x, y)",
        "Q() :- Meetings(9, 'a constant longer than fourteen bytes')",
        "Q(x, z) :- Meetings(x, y), Meetings(y, z), Contacts(z, w, -3)",
    ]
    .iter()
    .map(|text| parse_query(catalog, text).unwrap())
    .collect()
}

/// A store of two principals under `policy`, one of them committed to a
/// side by a submit, and one under the empty policy (no partitions).
fn policy_store(registry: &SecurityViews, policy: &SecurityPolicy) -> PolicyStore {
    let mut store = PolicyStore::new();
    let committed = store.register(policy.clone());
    store.register(policy.clone());
    store.register(SecurityPolicy::new());
    let query = parse_query(registry.catalog(), "Q(x, y) :- Meetings(x, y)").unwrap();
    let label = BaselineLabeler::new(registry.clone()).label_query(&query);
    assert!(store.submit(committed, &label).is_allow());
    store
}

/// A decoder under test, given the catalog WAL records resolve against.
type Decode = fn(&Catalog, &[u8]) -> Result<(), CodecError>;

#[test]
fn hostile_bytes_never_panic_a_decoder() {
    let registry = SecurityViews::paper_example();
    let catalog = registry.catalog().clone();
    let queries = queries(&catalog);
    let [v1, v2, v3] = ["V1", "V2", "V3"].map(|name| registry.id_by_name(name).unwrap());
    let policy = SecurityPolicy::chinese_wall([
        PolicyPartition::from_views("meetings-side", &registry, [v1, v2]),
        PolicyPartition::from_views("contacts-side", &registry, [v3]),
    ]);
    let interner: Decode = |_, input| decode_interner(input);
    let query: Decode = |_, input| decode_query(&mut Cursor::new(input)).map(drop);
    let wal: Decode = |catalog, input| decode_wal_op(catalog, input).map(drop);

    let mut inputs: Vec<(String, Vec<u8>, Decode)> = Vec::new();
    let mut encoded = |what: &str, decode: Decode, encode: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        inputs.push((what.to_owned(), bytes, decode));
    };
    // The interner image, empty, then with one and with every query.
    for count in [0, 1, queries.len()] {
        let mut arena = QueryInterner::new();
        for q in &queries[..count] {
            arena.intern(q);
        }
        encoded(&format!("interner of {count}"), interner, &|out| {
            arena.encode_into(out)
        });
    }
    for (i, q) in queries.iter().enumerate() {
        encoded(&format!("query {i}"), query, &|out| encode_query(q, out));
    }
    encoded(
        "catalog",
        |_, input| decode_catalog(&mut Cursor::new(input)).map(drop),
        &|out| encode_catalog(&catalog, out),
    );
    encoded(
        "policy",
        |_, input| decode_policy(&mut Cursor::new(input)).map(drop),
        &|out| encode_policy(&policy, out),
    );
    let store = policy_store(&registry, &policy);
    encoded(
        "policy store",
        |catalog, input| PolicyStore::decode_from(&mut Cursor::new(input), catalog).map(drop),
        &|out| store.encode_into(out),
    );
    let p = PrincipalId(7);
    let selection = parse_query(&catalog, "Vc(x) :- Meetings(x, 'Cathy')").unwrap();
    encoded("register", wal, &|out| encode_register(&policy, out));
    encoded("submit", wal, &|out| encode_submit(p, &queries[0], out));
    encoded("check", wal, &|out| encode_check(p, &queries[1], out));
    encoded("define", wal, &|out| {
        encode_define(QueryId(9), &queries[2], out)
    });
    encoded("grant", wal, &|out| encode_grant(p, "V2", out));
    encoded("revoke", wal, &|out| encode_revoke(p, "V3", out));
    encoded("add view", wal, &|out| {
        encode_add_view("Vc", &selection, out)
    });
    encoded("replace", wal, &|out| {
        encode_replace_policy(p, &policy, out)
    });

    for (i, (what, bytes, decode)) in inputs.iter().enumerate() {
        let seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
        assert_never_panics(what, bytes, seed, |input| decode(&catalog, input));
    }
}

#[test]
fn an_image_duplicating_a_query_span_is_refused() {
    let catalog = SecurityViews::paper_example().catalog().clone();
    let queries = queries(&catalog);
    for count in [1, queries.len()] {
        let mut arena = QueryInterner::new();
        for q in &queries[..count] {
            arena.intern(q);
        }
        let mut image = Vec::new();
        arena.encode_into(&mut image);
        // The image ends with the query table: a count, then a 16-byte
        // span per query.
        let table = image.len() - 16 * count;
        for duplicated in 0..count {
            let mut bytes = image.clone();
            bytes[table - 8..table].copy_from_slice(&(count as u64 + 1).to_le_bytes());
            let span = table + 16 * duplicated;
            bytes.extend_from_within(span..span + 16);
            assert_eq!(
                refusal(&bytes),
                (
                    image.len(),
                    format!("query {count} interns as query {duplicated}")
                ),
                "query {duplicated} of {count}"
            );
        }
    }
}

/// The image of an interner holding every query of [`queries`], and the
/// offset of its term array: past the constant table and the term count.
fn interner_image(catalog: &Catalog) -> (QueryInterner, Vec<u8>, usize) {
    let mut arena = QueryInterner::new();
    for q in &queries(catalog) {
        arena.intern(q);
    }
    let mut image = Vec::new();
    arena.encode_into(&mut image);
    let mut cursor = Cursor::new(&image);
    for _ in 0..cursor.count(2).unwrap() {
        read_constant(&mut cursor).unwrap();
    }
    cursor.count(5).unwrap();
    let terms = cursor.pos();
    (arena, image, terms)
}

/// Where and why an interner image is refused.
fn refusal(bytes: &[u8]) -> (usize, String) {
    match QueryInterner::decode_from(&mut Cursor::new(bytes)) {
        Err(CodecError::Invalid { offset, what }) => (offset, what),
        other => panic!("{other:?}"),
    }
}

/// What construction says of an image it does not reproduce.
const NOT_REPRODUCED: &str = "image differs from the arena its queries build";

#[test]
fn an_image_numbering_a_query_otherwise_than_construction_is_refused() {
    let catalog = SecurityViews::paper_example().catalog().clone();
    let (arena, image, terms) = interner_image(&catalog);
    let mut swapped = 0;
    for index in 0..arena.len() {
        let query = arena.resolve(QueryId(index as u32));
        // A query's terms are consecutive in the term array, 5 bytes each.
        let first = query.atoms[0].term_start as usize;
        let flat: Vec<_> = (0..query.num_atoms())
            .flat_map(|atom| query.atom_terms(atom))
            .collect();
        let occurrence = |v| flat.iter().position(|term| term.var_index() == Some(v));
        let (Some(zero), Some(one)) = (occurrence(0), occurrence(1)) else {
            continue;
        };
        // Swapped whole, each term keeps a tag that agrees with its
        // variable's kind; variable 1 now occurs first.
        let [zero, one] = [zero, one].map(|position| terms + 5 * (first + position));
        let mut bytes = image.clone();
        for k in 0..5 {
            bytes.swap(zero + k, one + k);
        }
        assert_eq!(
            refusal(&bytes),
            (zero + 1, NOT_REPRODUCED.to_owned()),
            "query {index}"
        );
        swapped += 1;
    }
    assert!(swapped >= 3, "only {swapped} queries have two variables");
}

#[test]
fn an_image_holding_a_constant_no_query_uses_is_refused() {
    let catalog = SecurityViews::paper_example().catalog().clone();
    let (_, image, terms) = interner_image(&catalog);
    let table = terms - 8;
    let count = u64::from_le_bytes(image[..8].try_into().unwrap());
    let mut bytes = (count + 1).to_le_bytes().to_vec();
    bytes.extend_from_slice(&image[8..table]);
    put_constant(&mut bytes, &Constant::Int(4242));
    bytes.extend_from_slice(&image[table..]);
    assert_eq!(refusal(&bytes), (0, NOT_REPRODUCED.to_owned()));
}

#[test]
fn a_rebuild_that_outgrows_the_image_is_refused_before_it_grows_further() {
    // Two one-atom queries, then a third span over both atoms (and the
    // second query's kinds): a query that builds and is new, but whose
    // atoms the rebuilt arena would hold twice.  Spans like it, one per
    // suffix of a long atom table, would otherwise rebuild an arena
    // quadratic in the image.
    let catalog = SecurityViews::paper_example().catalog().clone();
    let mut arena = QueryInterner::new();
    for text in ["Q() :- Meetings(x, y)", "Q() :- Contacts(x, y, z)"] {
        arena.intern(&parse_query(&catalog, text).unwrap());
    }
    let mut bytes = Vec::new();
    arena.encode_into(&mut bytes);
    let span = bytes.len();
    let count = span - 8 - 2 * 16;
    bytes[count..count + 8].copy_from_slice(&3u64.to_le_bytes());
    for field in [0u32, 2, 2, 3] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    assert_eq!(
        refusal(&bytes),
        (span, "query outgrows the image's arena".to_owned())
    );
}

#[test]
fn an_image_holding_a_consistency_word_no_construction_makes_is_refused() {
    let registry = SecurityViews::paper_example();
    let [v1, v3] = ["V1", "V3"].map(|name| registry.id_by_name(name).unwrap());
    let policy = SecurityPolicy::chinese_wall([
        PolicyPartition::from_views("meetings", &registry, [v1]),
        PolicyPartition::from_views("contacts", &registry, [v3]),
    ]);
    let store = policy_store(&registry, &policy);
    let mut image = Vec::new();
    store.encode_into(&mut image);
    let decode =
        |bytes: &[u8]| PolicyStore::decode_from(&mut Cursor::new(bytes), registry.catalog());
    assert!(decode(&image).is_ok());
    // The image ends with the principal records (a policy id, two
    // counters, then the word: 20 bytes each) and the two 8-byte totals.
    let records = image.len() - 16 - 20 * store.len();
    let past = "consistency word sets a bit past its policy's partitions";
    for principal in 0..store.len() {
        let partitions = store.policy(PrincipalId(principal as u32)).len();
        let word_at = records + 20 * principal + 12;
        let word = u64::from_le_bytes(image[word_at..word_at + 8].try_into().unwrap());
        let mut hostile = vec![(word | 1 << partitions, past), (word | 1 << 63, past)];
        if partitions > 0 {
            hostile.push((0, "consistency word is 0 for a policy with partitions"));
        }
        for (edited, refusal) in hostile {
            let mut bytes = image.clone();
            bytes[word_at..word_at + 8].copy_from_slice(&edited.to_le_bytes());
            match decode(&bytes) {
                Err(CodecError::Invalid { offset, what }) => assert_eq!(
                    (offset, what.as_str()),
                    (word_at, refusal),
                    "principal {principal}, word {edited:#b}"
                ),
                other => panic!("principal {principal}, word {edited:#b}: {other:?}"),
            }
        }
    }
}

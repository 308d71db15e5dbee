//! Binary wire format for catalogs and boxed conjunctive queries — the
//! `fdc-cq` piece of the durable state plane.
//!
//! Everything here round-trips through the length-checked
//! [`fdc_durability::codec`] primitives: encoding appends to a
//! `Vec<u8>`, decoding reads through a [`Cursor`] and reports failures
//! as [`CodecError`]s with byte offsets instead of panicking.  Decoded
//! queries pass the checks of [`ConjunctiveQuery::from_parts`], so a
//! checkpoint (or WAL record) can never materialize a query the
//! constructor would have rejected.

use fdc_durability::codec::put_len;
use fdc_durability::codec::{put_i64, put_str, put_u32, put_u8, CodecError, Cursor};

use crate::catalog::{Catalog, RelId};
use crate::intern::ITerm;
use crate::query::{Body, ConjunctiveQuery, VarTable};
use crate::term::{ConstRef, Constant, TermRef, VarId, VarKind};

const CONST_INT: u8 = 0;
const CONST_STR: u8 = 1;
const TERM_VAR: u8 = 0;
const TERM_CONST: u8 = 1;
const KIND_DISTINGUISHED: u8 = 0;
const KIND_EXISTENTIAL: u8 = 1;

/// Encodes one [`Constant`].
pub fn put_constant(out: &mut Vec<u8>, constant: &Constant) {
    put_const_ref(out, constant.as_const_ref());
}

/// Encodes one constant by value, as [`put_constant`] encodes the
/// [`Constant`] holding it.
fn put_const_ref(out: &mut Vec<u8>, constant: ConstRef<'_>) {
    match constant {
        ConstRef::Int(i) => {
            put_u8(out, CONST_INT);
            put_i64(out, i);
        }
        ConstRef::Str(s) => {
            put_u8(out, CONST_STR);
            put_str(out, s);
        }
    }
}

/// Decodes one [`Constant`].
pub fn read_constant(cursor: &mut Cursor<'_>) -> Result<Constant, CodecError> {
    read_const_ref(cursor).map(ConstRef::to_constant)
}

/// Decodes one constant by value, its text borrowed from the input.
pub(crate) fn read_const_ref<'a>(cursor: &mut Cursor<'a>) -> Result<ConstRef<'a>, CodecError> {
    let at = cursor.pos();
    match cursor.u8()? {
        CONST_INT => Ok(ConstRef::Int(cursor.i64()?)),
        CONST_STR => Ok(ConstRef::Str(cursor.str()?)),
        tag => Err(CodecError::invalid(
            at,
            format!("unknown constant tag {tag}"),
        )),
    }
}

/// Encodes one [`VarKind`] as a byte.
pub fn put_var_kind(out: &mut Vec<u8>, kind: VarKind) {
    put_u8(
        out,
        match kind {
            VarKind::Distinguished => KIND_DISTINGUISHED,
            VarKind::Existential => KIND_EXISTENTIAL,
        },
    );
}

/// Decodes one [`VarKind`].
pub fn read_var_kind(cursor: &mut Cursor<'_>) -> Result<VarKind, CodecError> {
    let at = cursor.pos();
    match cursor.u8()? {
        KIND_DISTINGUISHED => Ok(VarKind::Distinguished),
        KIND_EXISTENTIAL => Ok(VarKind::Existential),
        tag => Err(CodecError::invalid(
            at,
            format!("unknown variable-kind tag {tag}"),
        )),
    }
}

/// Encodes a [`Catalog`]: every relation in id order, with its name and
/// full attribute names (so a decoded catalog resolves exactly like the
/// original).
pub fn encode_catalog(catalog: &Catalog, out: &mut Vec<u8>) {
    put_len(out, catalog.len());
    for (_, schema) in catalog.iter() {
        put_str(out, &schema.name);
        put_len(out, schema.attributes.len());
        for attribute in &schema.attributes {
            put_str(out, attribute);
        }
    }
}

/// Decodes a [`Catalog`], reassigning the same dense [`RelId`]s the
/// encoder saw.
pub fn decode_catalog(cursor: &mut Cursor<'_>) -> Result<Catalog, CodecError> {
    let num_relations = cursor.count(9)?;
    let mut catalog = Catalog::new();
    for _ in 0..num_relations {
        let at = cursor.pos();
        let name = cursor.str()?.to_owned();
        let num_attributes = cursor.count(8)?;
        let mut attributes = Vec::with_capacity(num_attributes);
        for _ in 0..num_attributes {
            attributes.push(cursor.str()?.to_owned());
        }
        catalog
            .add_relation(&name, &attributes)
            .map_err(|err| CodecError::invalid(at, format!("invalid relation: {err}")))?;
    }
    Ok(catalog)
}

/// Encodes a boxed [`ConjunctiveQuery`] with full fidelity — variable
/// kinds, display names, atom order, constants — so `decode` returns a
/// query `Eq`-identical to the input.
pub fn encode_query(query: &ConjunctiveQuery, out: &mut Vec<u8>) {
    put_len(out, query.num_vars());
    for kind in query.var_kinds() {
        put_var_kind(out, kind);
    }
    for v in 0..query.num_vars() {
        put_str(out, query.var_name(VarId(v as u32)));
    }
    put_len(out, query.num_atoms());
    for atom in query.atoms() {
        put_u32(out, atom.relation.0);
        put_len(out, atom.arity());
        for term in atom.terms() {
            match term {
                TermRef::Var(v, _) => {
                    put_u8(out, TERM_VAR);
                    put_u32(out, v.0);
                }
                TermRef::Const(c) => {
                    put_u8(out, TERM_CONST);
                    put_const_ref(out, c);
                }
            }
        }
    }
}

/// Skips one encoded term; errors as [`decode_query`] reports them.  For a
/// constant, returns the bytes of its value (8 for an integer).
fn skip_term(cursor: &mut Cursor<'_>) -> Result<Option<usize>, CodecError> {
    let at = cursor.pos();
    match cursor.u8()? {
        TERM_VAR => cursor.u32().map(|_| None),
        TERM_CONST => {
            let at = cursor.pos();
            match cursor.u8()? {
                CONST_INT => cursor.i64().map(|_| Some(8)),
                CONST_STR => cursor.bytes().map(|text| Some(text.len())),
                tag => Err(CodecError::invalid(
                    at,
                    format!("unknown constant tag {tag}"),
                )),
            }
        }
        tag => Err(CodecError::invalid(at, format!("unknown term tag {tag}"))),
    }
}

/// Decodes a [`ConjunctiveQuery`], re-validating it as
/// [`ConjunctiveQuery::from_parts`] does.  The terms and the atom table go
/// straight into the query's two blocks, each sized by a first pass over
/// the bytes.
pub fn decode_query(cursor: &mut Cursor<'_>) -> Result<ConjunctiveQuery, CodecError> {
    let start = cursor.pos();
    let num_vars = cursor.count(1)?;
    if num_vars > ITerm::MAX_VAR_INDEX as usize + 1 {
        return Err(CodecError::invalid(
            start,
            format!("{num_vars} variables: a query holds at most 2^30"),
        ));
    }
    let mut kinds = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        kinds.push(read_var_kind(cursor)?);
    }
    // The names go straight into the query's packed table, sized by a first
    // pass over their lengths.
    let mut lengths = cursor.clone();
    let mut name_bytes = 0;
    for _ in 0..num_vars {
        name_bytes += lengths.bytes()?.len();
    }
    if u32::try_from(name_bytes).is_err() {
        return Err(CodecError::invalid(start, "variable names exceed 4 GiB"));
    }
    let mut vars = VarTable::unnamed(kinds, name_bytes);
    for _ in 0..num_vars {
        vars.name_next(cursor.str()?);
    }
    let num_atoms = cursor.count(12)?;
    let mut sizing = cursor.clone();
    let (mut num_terms, mut num_consts, mut const_bytes) = (0, 0, 0);
    for _ in 0..num_atoms {
        sizing.u32()?;
        let arity = sizing.count(5)?;
        num_terms += arity;
        for _ in 0..arity {
            if let Some(bytes) = skip_term(&mut sizing)? {
                num_consts += 1;
                const_bytes += bytes;
            }
        }
    }
    let mut body = Body::with_capacity(num_atoms, num_terms, vars.block_len());
    body.reserve_consts(num_consts, const_bytes);
    for _ in 0..num_atoms {
        let relation = RelId(cursor.u32()?);
        let arity = cursor.count(5)?;
        for _ in 0..arity {
            let at = cursor.pos();
            match cursor.u8()? {
                TERM_VAR => {
                    let v = cursor.u32()? as usize;
                    if v >= num_vars {
                        return Err(CodecError::invalid(
                            at,
                            format!("variable index {v} out of range ({num_vars} vars)"),
                        ));
                    }
                    let v = VarId(v as u32);
                    body.push_var(v, vars.kind(v));
                }
                TERM_CONST => body.push_const(read_const_ref(cursor)?),
                tag => {
                    return Err(CodecError::invalid(at, format!("unknown term tag {tag}")));
                }
            }
        }
        body.end_atom(relation);
    }
    ConjunctiveQuery::from_body(body, vars, true)
        .map_err(|err| CodecError::invalid(start, format!("invalid query: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::parser::parse_query;
    use crate::term::Term;

    #[test]
    fn catalog_round_trips_with_identical_ids() {
        let catalog = Catalog::paper_example();
        let mut out = Vec::new();
        encode_catalog(&catalog, &mut out);
        let mut cursor = Cursor::new(&out);
        let back = decode_catalog(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        assert_eq!(back.len(), catalog.len());
        for (id, schema) in catalog.iter() {
            assert_eq!(back.resolve(&schema.name), Some(id));
            assert_eq!(back.relation(id).attributes, schema.attributes);
        }
    }

    #[test]
    fn queries_round_trip_eq_identical() {
        let catalog = Catalog::paper_example();
        for text in [
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(z, z)",
            "Q(a) :- Meetings(a, 9)",
        ] {
            let query = parse_query(&catalog, text).unwrap();
            let mut out = Vec::new();
            encode_query(&query, &mut out);
            let mut cursor = Cursor::new(&out);
            let back = decode_query(&mut cursor).unwrap();
            cursor.expect_end().unwrap();
            assert_eq!(back, query, "round trip changed {text}");
        }
        // Names are copied byte for byte, boundaries included.
        let meetings = catalog.resolve("Meetings").unwrap();
        for names in [
            ["ab", "c"],
            ["a", "bc"],
            ["", "a"],
            ["a", ""],
            ["", ""],
            ["é", "日本"],
        ] {
            let query = ConjunctiveQuery::from_parts(
                vec![Atom::new(meetings, vec![Term::dist(0), Term::exist(1)])],
                vec![VarKind::Distinguished, VarKind::Existential],
                names.map(str::to_owned).to_vec(),
            )
            .unwrap();
            let mut out = Vec::new();
            encode_query(&query, &mut out);
            let mut cursor = Cursor::new(&out);
            let back = decode_query(&mut cursor).unwrap();
            cursor.expect_end().unwrap();
            assert_eq!(back, query, "round trip changed {names:?}");
            assert_eq!(
                [back.var_name(VarId(0)), back.var_name(VarId(1))],
                names,
                "round trip changed {names:?}"
            );
        }
    }

    #[test]
    fn constant_bytes_match_the_pinned_encoding() {
        let cases: [(Constant, &[u8]); 4] = [
            (
                Constant::int(-2),
                &[0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
            ),
            (
                Constant::str("me"),
                &[1, 2, 0, 0, 0, 0, 0, 0, 0, b'm', b'e'],
            ),
            (
                Constant::str("fourteen bytes"),
                b"\x01\x0e\0\0\0\0\0\0\0fourteen bytes",
            ),
            (
                Constant::str("fifteen bytes!!"),
                b"\x01\x0f\0\0\0\0\0\0\0fifteen bytes!!",
            ),
        ];
        for (constant, golden) in cases {
            let mut out = Vec::new();
            put_constant(&mut out, &constant);
            assert_eq!(out, golden, "{constant:?}");
            let mut cursor = Cursor::new(&out);
            assert_eq!(read_constant(&mut cursor).unwrap(), constant);
            cursor.expect_end().unwrap();
        }
    }

    #[test]
    fn truncated_query_bytes_are_an_error_not_a_panic() {
        let catalog = Catalog::paper_example();
        let query = parse_query(&catalog, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let mut out = Vec::new();
        encode_query(&query, &mut out);
        for cut in 0..out.len() {
            let mut cursor = Cursor::new(&out[..cut]);
            assert!(decode_query(&mut cursor).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn out_of_range_variable_is_rejected() {
        let catalog = Catalog::paper_example();
        let query = parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap();
        let mut out = Vec::new();
        encode_query(&query, &mut out);
        // The last term is Var(1): bump its index out of range.
        let len = out.len();
        out[len - 4..].copy_from_slice(&9u32.to_le_bytes());
        let mut cursor = Cursor::new(&out);
        assert!(decode_query(&mut cursor).is_err());
    }
}

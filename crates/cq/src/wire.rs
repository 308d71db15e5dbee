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
use crate::intern::{constant_hash, find_slot, table_of, ITerm};
use crate::query::{entry_len, BlockWriter, ConjunctiveQuery};
use crate::term::{ConstBytes, ConstRef, Constant, TermRef, VarId, VarKind};

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

/// The distinct constants of a body being decoded, in first-occurrence
/// order, borrowed from the input: up to [`Distinct::INLINE`] of them on
/// the stack, more in a vector found again through an open-addressed
/// index.
struct Distinct<'a> {
    inline: [ConstBytes<'a>; Distinct::INLINE],
    /// Every constant once there are more than `INLINE`; empty before.
    spill: Vec<ConstBytes<'a>>,
    /// The spilled constants' indices under [`constant_hash`], at most
    /// half full.
    index: Vec<u32>,
    len: usize,
    /// Bytes of the constants' entries in a query's constant table.
    entry_bytes: usize,
}

impl<'a> Distinct<'a> {
    /// Constants found by a linear scan before the table spills.
    const INLINE: usize = 8;

    fn new() -> Self {
        Distinct {
            inline: [ConstBytes::Int(0); Distinct::INLINE],
            spill: Vec::new(),
            index: Vec::new(),
            len: 0,
            entry_bytes: 0,
        }
    }

    /// The index of `constant`, added on first sight.
    fn add(&mut self, constant: ConstBytes<'a>) -> u32 {
        if self.len <= Self::INLINE {
            if let Some(k) = self.inline[..self.len].iter().position(|&c| c == constant) {
                return k as u32;
            }
            if self.len < Self::INLINE {
                self.inline[self.len] = constant;
                return self.enter(constant);
            }
            self.spill = self.inline.to_vec();
            self.reindex();
        }
        let hash = constant_hash(constant);
        match find_slot(&self.index, hash, |k| self.spill[k as usize] == constant) {
            Ok(k) => k,
            Err(slot) => {
                self.spill.push(constant);
                let k = self.enter(constant);
                if self.spill.len() * 2 > self.index.len() {
                    self.reindex();
                } else {
                    self.index[slot] = k;
                }
                k
            }
        }
    }

    /// Counts a constant just added; returns its index.
    fn enter(&mut self, constant: ConstBytes<'a>) -> u32 {
        self.entry_bytes += entry_len(constant);
        self.len += 1;
        self.len as u32 - 1
    }

    /// Indexes the spilled constants in twice as many slots, rounded up to
    /// a power of two.
    fn reindex(&mut self) {
        let hashes: Vec<u32> = self.spill.iter().map(|&c| constant_hash(c)).collect();
        self.index = table_of(&hashes);
    }
}

/// Decodes a [`ConjunctiveQuery`], re-validating it as
/// [`ConjunctiveQuery::from_parts`] does.  A first pass over the bytes
/// checks them and counts the terms, the name bytes and the distinct
/// constants; the second writes the query's one block, allocated at its
/// final size, and allocates nothing else while the query has at most 8
/// distinct constants and 64 variables.
pub fn decode_query(cursor: &mut Cursor<'_>) -> Result<ConjunctiveQuery, CodecError> {
    let start = cursor.pos();
    let num_vars = cursor.count(1)?;
    if num_vars > ITerm::MAX_VAR_INDEX as usize + 1 {
        return Err(CodecError::invalid(
            start,
            format!("{num_vars} variables: a query holds at most 2^30"),
        ));
    }
    let mut vars = cursor.clone();
    for _ in 0..num_vars {
        read_var_kind(cursor)?;
    }
    let mut name_bytes = 0;
    for _ in 0..num_vars {
        name_bytes += cursor.str()?.len();
    }
    if u32::try_from(name_bytes).is_err() {
        return Err(CodecError::invalid(start, "variable names exceed 4 GiB"));
    }
    let num_atoms = cursor.count(12)?;
    let mut body = cursor.clone();
    let (mut num_terms, mut max_relation) = (0usize, 0);
    let mut consts = Distinct::new();
    for _ in 0..num_atoms {
        max_relation = max_relation.max(cursor.u32()?);
        let arity = cursor.count(5)?;
        num_terms += arity;
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
                }
                TERM_CONST => {
                    consts.add(read_const_ref(cursor)?.as_const_bytes());
                }
                tag => {
                    return Err(CodecError::invalid(at, format!("unknown term tag {tag}")));
                }
            }
        }
    }
    let invalid = |err| CodecError::invalid(start, format!("invalid query: {err}"));
    if u32::try_from(num_terms).is_err() || u32::try_from(consts.entry_bytes).is_err() {
        return Err(CodecError::invalid(start, "a query's terms exceed 4 GiB"));
    }
    let mut block = BlockWriter::for_parts(
        num_terms,
        num_atoms,
        num_vars,
        name_bytes,
        (consts.len, consts.entry_bytes),
        max_relation,
    )
    .map_err(invalid)?;
    // The second pass reads bytes the first one checked.
    for v in 0..num_vars {
        block.set_kind(v, read_var_kind(&mut vars)?);
    }
    for _ in 0..num_vars {
        block.push_name(vars.bytes()?);
    }
    for _ in 0..num_atoms {
        let relation = RelId(body.u32()?);
        for _ in 0..body.count(5)? {
            if body.u8()? == TERM_VAR {
                block.push_var(VarId(body.u32()?));
            } else {
                let constant = if body.u8()? == CONST_INT {
                    ConstBytes::Int(body.i64()?)
                } else {
                    ConstBytes::Str(body.bytes()?)
                };
                block.push_constant(consts.add(constant), constant);
            }
        }
        block.end_atom(relation);
    }
    block.build().map_err(invalid)
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

//! Property test: a query's two-block layout reads back exactly the atoms it
//! was built from, whichever constructor built it.
//!
//! A `ConjunctiveQuery` keeps every atom's terms back to back in one term
//! slice, and the atom count, each atom's relation and term end and the
//! variable table in one meta block.  Every constructor lays those blocks
//! out itself: the builder, the parser, the wire decoder, `from_atoms`,
//! `from_parts`, the fold (`with_atoms_unchecked`, which keeps a subset of
//! the atoms) and `QueryInterner::to_query`.  For random bodies — 1 to 15
//! atoms, arities 0 to 6, repeated variables, constants or none at all,
//! names past 64 KiB — each constructor's `atoms()` (forwards and
//! backwards), `atom(i)`, `terms()`, kinds, names and `shape_hash` must
//! equal the owned-`Atom` model it was given.
//!
//! The constants are drawn to stress the per-query constant table: repeated
//! constants, `Int(7)` next to `Str("7")`, strings of 13, 14, 15 and 40
//! bytes (around and past the 14 bytes a `SmallStr` keeps inline), many
//! distinct integers and short and long strings, and, in the fold case,
//! constants whose first occurrence the fold drops.  Every constructor
//! writes the table the same way, so queries of equal models are equal and
//! hash alike, and a query's `AtomRef`s compare, order and hash exactly as
//! the model's owned `Atom`s do.

use fdc::cq::folding::fold;
use fdc::cq::intern::QueryInterner;
use fdc::cq::parser::parse_query;
use fdc::cq::query::QueryBuilder;
use fdc::cq::wire::{decode_query, encode_query};
use fdc::cq::{Atom, AtomRef, Catalog, ConjunctiveQuery, Constant, RelId, Term, VarId, VarKind};
use fdc::durability::codec::Cursor;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Arity of relation `Ri` in [`catalog`].
const ARITIES: [usize; 6] = [0, 1, 2, 3, 4, 6];

/// Relations `R0` to `R11`, their arities cycling through [`ARITIES`].
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..12 {
        let attributes: Vec<String> = (0..ARITIES[i % ARITIES.len()])
            .map(|a| format!("a{a}"))
            .collect();
        catalog.add_relation(&format!("R{i}"), &attributes).unwrap();
    }
    catalog
}

/// A splitmix64 stream: the model's choices, reproducible from the case's
/// seed.
struct Choices(u64);

impl Choices {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Texts around the 14 bytes a `SmallStr` keeps inline, and past them.
const TEXT: &str = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";

/// A constant, two times in three from a small pool, so constants repeat:
/// `Int(7)` and `Str("7")`, a few small integers, and strings of 1, 13,
/// 14, 15 and 40 bytes, each length in two versions that differ in their
/// last byte.  Otherwise from wide ranges — an integer in -500..500, a
/// short or a long string out of 100 each — so a body also holds many
/// distinct constants.
fn constant(choose: &mut Choices) -> Constant {
    match choose.below(9) {
        0 => Constant::int(7),
        1 => Constant::str("7"),
        2 => Constant::int(choose.below(3) as i64 - 1),
        3..=5 => {
            let len = [1, 13, 14, 15, 40][choose.below(5)];
            let last = ["~", "!"][choose.below(2)];
            Constant::str(format!("{}{last}", &TEXT[..len - 1]))
        }
        6 => Constant::int(choose.below(1000) as i64 - 500),
        7 => Constant::str(format!("s{}", choose.below(100))),
        _ => Constant::str(format!("a long string constant {}", choose.below(100))),
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A query as owned atoms, variables numbered by first occurrence (so the
/// parser, which numbers them that way, assigns the same ids).
#[derive(Debug)]
struct Model {
    atoms: Vec<Atom>,
    kinds: Vec<VarKind>,
    names: Vec<String>,
}

impl Model {
    fn generate(seed: u64) -> Model {
        let mut choose = Choices(seed);
        let num_atoms = match seed % 3 {
            0 => 1,
            1 => 15,
            _ => 1 + choose.below(15),
        };
        let constants = seed % 4 != 1;
        let long_name = seed % 8 == 5;
        let (mut kinds, mut names) = (Vec::new(), Vec::new());
        let atoms = (0..num_atoms)
            .map(|_| {
                let relation = choose.below(12);
                let terms = (0..ARITIES[relation % ARITIES.len()])
                    .map(|_| match choose.below(if constants { 6 } else { 3 }) {
                        0 | 1 if !kinds.is_empty() => {
                            let v = choose.below(kinds.len());
                            Term::Var(VarId(v as u32), kinds[v])
                        }
                        0..=2 => {
                            let kind = if choose.below(2) == 0 {
                                VarKind::Distinguished
                            } else {
                                VarKind::Existential
                            };
                            let id = kinds.len();
                            kinds.push(kind);
                            names.push(if long_name && id == 0 {
                                format!("w{}", "z".repeat(1 << 16))
                            } else {
                                format!("v{id}")
                            });
                            Term::Var(VarId(id as u32), kind)
                        }
                        _ => Term::Const(constant(&mut choose)),
                    })
                    .collect();
                Atom::new(RelId(relation as u32), terms)
            })
            .collect();
        Model {
            atoms,
            kinds,
            names,
        }
    }

    fn synthetic_names(&self) -> Vec<String> {
        (0..self.kinds.len()).map(|i| format!("x{i}")).collect()
    }

    fn parts(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::from_parts(self.atoms.clone(), self.kinds.clone(), self.names.clone())
            .unwrap()
    }

    fn built(&self) -> ConjunctiveQuery {
        let mut builder = QueryBuilder::new();
        for (name, kind) in self.names.iter().zip(&self.kinds) {
            match kind {
                VarKind::Distinguished => builder.dvar(name),
                VarKind::Existential => builder.evar(name),
            };
        }
        for atom in &self.atoms {
            builder.atom(
                atom.relation,
                atom.terms.iter().map(|term| match term {
                    Term::Var(v, _) => (*v).into(),
                    Term::Const(c) => c.clone().into(),
                }),
            );
        }
        builder.build().unwrap()
    }
}

/// The canonical hash of `atoms` as the interner's arena computes it.
fn arena_hash(atoms: &[Atom], kinds: &[VarKind]) -> u32 {
    let query = ConjunctiveQuery::from_parts(
        atoms.to_vec(),
        kinds.to_vec(),
        (0..kinds.len()).map(|i| format!("x{i}")).collect(),
    )
    .unwrap();
    let mut interner = QueryInterner::new();
    let id = interner.intern(&query);
    interner.shape_hash(id)
}

/// Every read of `query`'s layout against the owned model.
fn assert_layout(
    how: &str,
    query: &ConjunctiveQuery,
    atoms: &[Atom],
    kinds: &[VarKind],
    names: &[String],
    hash: u32,
) {
    let model: Vec<AtomRef<'_>> = atoms.iter().map(Atom::as_atom_ref).collect();
    prop_assert_eq!(query.num_atoms(), atoms.len(), "{}", how);
    prop_assert_eq!(query.atoms().len(), atoms.len(), "{}", how);
    prop_assert_eq!(&query.atoms().collect::<Vec<_>>(), &model, "{}", how);
    let backwards: Vec<AtomRef<'_>> = query.atoms().rev().collect();
    prop_assert!(backwards.iter().eq(model.iter().rev()), "{}", how);
    for (i, atom) in model.iter().enumerate() {
        prop_assert_eq!(query.atom(i), *atom, "{} atom {}", how, i);
        let mut rest = query.atoms();
        rest.nth(i);
        prop_assert_eq!(rest.len(), atoms.len() - i - 1, "{}", how);
    }
    let terms: Vec<Term> = atoms.iter().flat_map(|atom| atom.terms.to_vec()).collect();
    prop_assert_eq!(query.terms().len(), terms.len(), "{}", how);
    prop_assert_eq!(query.terms().to_vec(), terms.clone(), "{}", how);
    prop_assert!(
        query
            .terms()
            .iter()
            .rev()
            .eq(terms.iter().rev().map(Term::as_term_ref)),
        "{}",
        how
    );
    // A query's atoms compare, order and hash as the owned atoms do.
    for (i, a) in atoms.iter().enumerate() {
        let lent = query.atom(i);
        prop_assert_eq!(hash_of(&lent), hash_of(a), "{} atom {}", how, i);
        prop_assert_eq!(
            hash_of(&lent),
            hash_of(&a.as_atom_ref()),
            "{} atom {}",
            how,
            i
        );
        prop_assert_eq!(lent.to_atom(), a.clone(), "{} atom {}", how, i);
        for (j, b) in atoms.iter().enumerate() {
            let other = query.atom(j);
            prop_assert_eq!(lent == other, a == b, "{} atoms {} {}", how, i, j);
            prop_assert_eq!(lent.cmp(&other), a.cmp(b), "{} atoms {} {}", how, i, j);
            prop_assert_eq!(
                lent.cmp(&b.as_atom_ref()),
                a.cmp(b),
                "{} atoms {} {}",
                how,
                i,
                j
            );
            for (k, term) in lent.terms().iter().enumerate() {
                let model = &a.terms[k];
                prop_assert_eq!(term, model.as_term_ref(), "{}", how);
                prop_assert_eq!(hash_of(&term), hash_of(model), "{}", how);
                if let Some(other) = b.terms.get(k) {
                    prop_assert_eq!(term.cmp(&other.as_term_ref()), model.cmp(other), "{}", how);
                }
            }
        }
    }
    prop_assert_eq!(
        query.var_kinds().collect::<Vec<_>>(),
        kinds.to_vec(),
        "{}",
        how
    );
    for (i, name) in names.iter().enumerate() {
        prop_assert_eq!(query.var_name(VarId(i as u32)), name.as_str(), "{}", how);
    }
    prop_assert_eq!(query.shape_hash(), hash, "{}", how);
    let clone = query.clone();
    prop_assert_eq!(&clone, query, "{}", how);
    prop_assert!(clone.atoms().eq(query.atoms()), "{}", how);
    // One block, the words and the meta table, even with every atom
    // nullary.
    prop_assert_eq!(query.heap_blocks(), 1, "{}", how);
}

/// Queries of equal models are equal, blocks and all, and hash alike.
fn assert_same(how: &str, query: &ConjunctiveQuery, model: &ConjunctiveQuery) {
    prop_assert_eq!(query, model, "{}", how);
    prop_assert_eq!(hash_of(query), hash_of(model), "{}", how);
    prop_assert_eq!(query.heap_bytes(), model.heap_bytes(), "{}", how);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_constructor_lays_out_the_atoms_it_was_given(seed in 0u64..u64::MAX) {
        let catalog = catalog();
        let model = Model::generate(seed);
        let (atoms, kinds, names) = (&model.atoms, &model.kinds, &model.names);
        let hash = arena_hash(atoms, kinds);

        let built = model.built();
        assert_layout("builder", &built, atoms, kinds, names, hash);
        let parts = model.parts();
        assert_layout("from_parts", &parts, atoms, kinds, names, hash);
        assert_same("from_parts", &parts, &built);
        let synthetic = model.synthetic_names();
        let renamed =
            ConjunctiveQuery::from_parts(atoms.clone(), kinds.clone(), synthetic.clone()).unwrap();
        let from_atoms = ConjunctiveQuery::from_atoms(atoms.clone()).unwrap();
        assert_layout("from_atoms", &from_atoms, atoms, kinds, &synthetic, hash);
        assert_same("from_atoms", &from_atoms, &renamed);

        let text = built.display_with(&catalog).to_string();
        let parsed = parse_query(&catalog, &text).unwrap();
        assert_layout("parser", &parsed, atoms, kinds, names, hash);
        assert_same("parser", &parsed, &built);

        let mut bytes = Vec::new();
        encode_query(&built, &mut bytes);
        let mut cursor = Cursor::new(&bytes);
        let decoded = decode_query(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        assert_layout("wire", &decoded, atoms, kinds, names, hash);
        assert_same("wire", &decoded, &built);

        let mut interner = QueryInterner::new();
        let id = interner.intern(&built);
        prop_assert_eq!(interner.shape_hash(id), hash);
        let to_query = interner.to_query(id);
        // The model numbers its variables by first occurrence, as the
        // interner does, so its canonical form is the model itself.
        assert_layout("to_query", &to_query, atoms, kinds, &synthetic, hash);
        assert_same("to_query", &to_query, &renamed);
        prop_assert_eq!(interner.lookup(&decoded), Some(id));
        interner.check_invariants();
    }

    /// The fold keeps a subset of the atoms through `with_atoms_unchecked`.
    /// Give every atom a relation of its own and append a copy of atom `k`:
    /// exactly the first copy folds away, so the core is the other atoms,
    /// then atom `k`, over the unchanged variable table.  The constants
    /// atom `k` holds first occur at another place in the core, so the
    /// core's constant table is rebuilt in a new order, exactly as
    /// `from_parts` of the kept atoms writes it.
    #[test]
    fn a_folded_query_lays_out_the_atoms_it_kept(seed in 0u64..u64::MAX) {
        let model = Model::generate(seed);
        let mut atoms: Vec<Atom> = model
            .atoms
            .iter()
            .enumerate()
            .map(|(i, atom)| Atom::new(RelId(100 + i as u32), atom.terms.to_vec()))
            .collect();
        let k = (seed >> 8) as usize % atoms.len();
        atoms.push(atoms[k].clone());
        let query =
            ConjunctiveQuery::from_parts(atoms.clone(), model.kinds.clone(), model.names.clone())
                .unwrap();
        let duplicate = atoms.remove(k);
        let core = fold(&query);
        let hash = arena_hash(&atoms, &model.kinds);
        assert_layout("fold", &core, &atoms, &model.kinds, &model.names, hash);
        prop_assert_eq!(atoms.last(), Some(&duplicate));
        let kept = ConjunctiveQuery::from_parts(atoms, model.kinds.clone(), model.names.clone());
        assert_same("fold", &core, &kept.unwrap());
    }
}

/// The edges of the block's width rule: 255 and 65 535 are the largest
/// numbers 1 and 2 bytes hold, one more needs the next width.
const WIDTH_EDGES: [usize; 4] = [255, 256, 65_535, 65_536];

/// Bytes of a constant's entry in a query's constant table: a tag, then
/// the integer's 8 bytes or the text.
fn entry_bytes(constant: &Constant) -> usize {
    match constant {
        Constant::Int(_) => 1 + 8,
        Constant::Str(text) => 1 + text.len(),
    }
}

impl Model {
    /// The distinct constants, in first-occurrence order.
    fn constants(&self) -> Vec<&Constant> {
        let mut distinct: Vec<&Constant> = Vec::new();
        for atom in &self.atoms {
            for term in atom.terms.iter() {
                if let Term::Const(c) = term {
                    if !distinct.contains(&c) {
                        distinct.push(c);
                    }
                }
            }
        }
        distinct
    }

    /// Pads the last name so the names total exactly `total` bytes; false
    /// if there is no name or they are already longer.
    fn pad_names(&mut self, total: usize) -> bool {
        let len: usize = self.names.iter().map(String::len).sum();
        match self.names.last_mut() {
            Some(last) if len <= total => {
                last.push_str(&"n".repeat(total - len));
                true
            }
            _ => false,
        }
    }

    /// Appends atoms of `Int(7)` until the body holds exactly `total`
    /// terms, six at a time over `R5` and then one at a time over `R1`.
    fn pad_terms(&mut self, total: usize) -> bool {
        let mut len: usize = self.atoms.iter().map(|atom| atom.terms.len()).sum();
        if len > total {
            return false;
        }
        for (relation, arity) in [(5, 6), (1, 1)] {
            while len + arity <= total {
                self.atoms
                    .push(Atom::new(RelId(relation), vec![Term::constant(7); arity]));
                len += arity;
            }
        }
        true
    }

    /// Appends an atom over `R1` holding one new string constant sized so
    /// the constant table's entries total exactly `total` bytes.
    fn pad_constants(&mut self, total: usize) -> bool {
        let len: usize = self.constants().into_iter().map(entry_bytes).sum();
        if len + 1 > total {
            return false;
        }
        let text = "#".repeat(total - len - 1);
        self.atoms
            .push(Atom::new(RelId(1), vec![Term::constant(text.as_str())]));
        true
    }

    /// The query's wire encoding, written from the model by the documented
    /// format: the variable count, a kind byte per variable, each name;
    /// the atom count, then per atom its relation, arity and tagged terms.
    /// Counts and lengths are 8 bytes, relations and variable ids 4, all
    /// little-endian.
    fn wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let len = |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u64).to_le_bytes());
        len(&mut out, self.kinds.len());
        out.extend(
            self.kinds
                .iter()
                .map(|kind| u8::from(kind.is_existential())),
        );
        for name in &self.names {
            len(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
        }
        len(&mut out, self.atoms.len());
        for atom in &self.atoms {
            out.extend_from_slice(&atom.relation.0.to_le_bytes());
            len(&mut out, atom.terms.len());
            for term in atom.terms.iter() {
                match term {
                    Term::Var(v, _) => {
                        out.push(0);
                        out.extend_from_slice(&v.0.to_le_bytes());
                    }
                    Term::Const(Constant::Int(i)) => {
                        out.extend_from_slice(&[1, 0]);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    Term::Const(Constant::Str(text)) => {
                        out.extend_from_slice(&[1, 1]);
                        len(&mut out, text.len());
                        out.extend_from_slice(text.as_bytes());
                    }
                }
            }
        }
        out
    }

    /// The query in datalog notation: the distinguished variables in order
    /// of first occurrence, then every atom.
    fn display(&self, catalog: &Catalog) -> String {
        let mut head: Vec<&str> = Vec::new();
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|atom| {
                let terms: Vec<String> = atom
                    .terms
                    .iter()
                    .map(|term| match term {
                        Term::Var(v, kind) => {
                            let name = self.names[v.index()].as_str();
                            if kind.is_distinguished() && !head.contains(&name) {
                                head.push(name);
                            }
                            name.to_owned()
                        }
                        Term::Const(c) => c.to_string(),
                    })
                    .collect();
                format!("{}({})", catalog.name(atom.relation), terms.join(", "))
            })
            .collect();
        format!("Q({}) :- {}", head.join(", "), atoms.join(", "))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At each edge of the width rule — names totalling 255/256 and
    /// 65 535/65 536 bytes, 255/256 terms, constant entries totalling
    /// 255/256 and 65 535/65 536 bytes — every accessor, the display, the
    /// canonical hash, `Eq` / `Hash` against a `from_parts` rebuild and the
    /// wire encoding (byte for byte, against the model's) and round trip
    /// read the model back.
    #[test]
    fn every_width_edge_reads_back_the_model(
        seed in 0u64..u64::MAX,
        edge in 0usize..WIDTH_EDGES.len(),
        part in 0usize..3,
    ) {
        let catalog = catalog();
        let mut model = Model::generate(seed);
        let total = WIDTH_EDGES[edge];
        let padded = match part {
            0 => model.pad_names(total),
            1 => total < 65_535 && model.pad_terms(total),
            _ => model.pad_constants(total),
        };
        if !padded {
            // No name to pad, or the model already lies past the edge.
            return;
        }
        let (atoms, kinds, names) = (&model.atoms, &model.kinds, &model.names);
        let hash = arena_hash(atoms, kinds);
        let built = model.built();
        assert_layout("edge builder", &built, atoms, kinds, names, hash);
        let parts = model.parts();
        assert_same("edge from_parts", &parts, &built);
        prop_assert_eq!(built.display_with(&catalog).to_string(), model.display(&catalog));
        let parsed = parse_query(&catalog, &model.display(&catalog)).unwrap();
        assert_same("edge parser", &parsed, &built);

        let mut bytes = Vec::new();
        encode_query(&built, &mut bytes);
        prop_assert!(bytes == model.wire(), "the wire bytes are the model's");
        let mut cursor = Cursor::new(&bytes);
        let decoded = decode_query(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        assert_layout("edge wire", &decoded, atoms, kinds, names, hash);
        assert_same("edge wire", &decoded, &built);
    }
}

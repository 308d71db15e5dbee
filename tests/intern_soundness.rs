//! Property test: query interning is sound.
//!
//! The interned query plane (`fdc_cq::intern`) claims three things:
//!
//! 1. **Alpha-equivalent queries get the same `QueryId`** — interning
//!    canonicalizes by first-occurrence variable renaming, so queries that
//!    differ only in variable identities collapse to one id.
//! 2. **Structurally distinct queries get distinct ids** — ids discriminate
//!    exactly as finely as the canonical keys they replace.
//! 3. **`resolve`/`to_query` after `intern` is lossless** — the
//!    reconstructed query is structurally identical (up to renaming) and
//!    extensionally equal (semantic equivalence in both directions) to the
//!    input.
//!
//! All three are driven here over the paper's Section 7.2 workload generator
//! (randomized relations, audiences, projections, multi-subquery joins) and
//! a hand-written shape pool covering constants, repeated variables and
//! self-joins.
//!
//! Also pinned: what an id resolves to is a property of the canonical
//! query, not of interner history; and the front door's byte step
//! (`QueryInterner::recognise`) answers exactly what `lookup` answers,
//! whatever exemplar an id holds.

use std::collections::{HashMap, HashSet};

use fdc::cq::canonical::{rename_canonical, structurally_identical};
use fdc::cq::containment::equivalent;
use fdc::cq::intern::{QueryId, QueryInterner, Recognised};
use fdc::cq::parser::parse_query;
use fdc::cq::{Atom, Catalog, ConjunctiveQuery, Constant, RelId, Term, VarId, VarKind};
use fdc::durability::codec::Cursor;
use fdc::ecosystem::policies::PolicyGeneratorConfig;
use fdc::ecosystem::{ChurnConfig, Ecosystem, WorkloadConfig};
use fdc::service::{Operation, ServiceConfig};
use proptest::prelude::*;

/// One shared soundness check: interning `query` twice (once as given, once
/// alpha-renamed) yields one id, and the id resolves back to an
/// extensionally equal query.
fn assert_sound(interner: &mut QueryInterner, query: &ConjunctiveQuery) {
    let id = interner.intern(query);
    // Idempotence and alpha-invariance: the canonical renaming is a
    // different `ConjunctiveQuery` value (fresh names, renumbered ids) but
    // the same shape.
    prop_assert_eq!(interner.intern(query), id, "interning is not idempotent");
    let renamed = rename_canonical(query);
    prop_assert_eq!(
        interner.intern(&renamed),
        id,
        "alpha-equivalent query got a different id: {:?}",
        renamed
    );
    prop_assert_eq!(interner.lookup(query), Some(id));
    // Round trip: structurally identical and extensionally equal.
    let back = interner.to_query(id);
    prop_assert!(
        structurally_identical(query, &back),
        "round trip changed the structure: {:?} vs {:?}",
        query,
        back
    );
    prop_assert!(
        equivalent(query, &back),
        "round trip changed the semantics: {:?} vs {:?}",
        query,
        back
    );
    // The zero-copy view agrees with the reconstruction on the cheap facts.
    let view = interner.resolve(id);
    prop_assert_eq!(view.num_atoms(), query.num_atoms());
    prop_assert_eq!(view.num_vars(), query.num_vars());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ecosystem workloads: soundness holds for every generated query, and
    /// distinct ids imply distinct structure (and vice versa) across a
    /// whole batch.
    #[test]
    fn interning_is_sound_on_ecosystem_workloads(
        seed in 0u64..1_000_000,
        max_subqueries in 1usize..5,
    ) {
        let eco = Ecosystem::new();
        let mut generator = eco.workload(WorkloadConfig::stress(max_subqueries, seed));
        let queries = generator.batch(30);
        let mut interner = QueryInterner::new();
        let mut ids = Vec::with_capacity(queries.len());
        for query in &queries {
            assert_sound(&mut interner, query);
            ids.push(interner.intern(query));
        }
        // Ids discriminate exactly like structural identity.
        for (qa, ia) in queries.iter().zip(&ids) {
            for (qb, ib) in queries.iter().zip(&ids) {
                prop_assert_eq!(
                    ia == ib,
                    structurally_identical(qa, qb),
                    "id equality diverged from structural identity on {:?} vs {:?}",
                    qa,
                    qb
                );
            }
        }
        // The id space stays dense: no more ids than interned shapes.
        prop_assert!(interner.len() <= queries.len());
        for &id in &ids {
            prop_assert!(interner.contains(id));
        }
    }

    /// Paper-schema shapes: constants, repeated variables, self-joins and
    /// permuted heads — every pair discriminates exactly as structural
    /// identity does, within one interner and across insertion orders.
    #[test]
    fn interning_discriminates_tricky_shapes(shuffle_seed in 0u64..1_000_000) {
        let catalog = Catalog::paper_example();
        let texts = [
            "Q(x) :- Meetings(x, y)",
            "Q(y) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(y, x) :- Meetings(x, y)",
            "Q() :- Meetings(x, y)",
            "Q() :- Meetings(z, z)",
            "Q(x) :- Meetings(x, x)",
            "Q(x) :- Meetings(x, 'Cathy')",
            "Q(x) :- Meetings(x, 'Bob')",
            "Q() :- Meetings(9, 'Jim')",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Manager')",
            "Q() :- Meetings(x, y), Contacts(p, r, s)",
            "Q() :- Contacts(p, r, s), Meetings(x, y)",
            "Q() :- Meetings(x, y), Meetings(y, z)",
            "Q() :- Meetings(x, y), Meetings(z, w)",
        ];
        // Insert in a seed-dependent order: ids differ run to run, but the
        // discrimination must not.
        let mut order: Vec<usize> = (0..texts.len()).collect();
        let mut state = shuffle_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let queries: Vec<ConjunctiveQuery> = texts
            .iter()
            .map(|t| parse_query(&catalog, t).unwrap())
            .collect();
        let mut interner = QueryInterner::new();
        let mut ids = vec![None; texts.len()];
        for &i in &order {
            assert_sound(&mut interner, &queries[i]);
            ids[i] = Some(interner.intern(&queries[i]));
        }
        for i in 0..texts.len() {
            for j in 0..texts.len() {
                prop_assert_eq!(
                    ids[i] == ids[j],
                    structurally_identical(&queries[i], &queries[j]),
                    "{} vs {}",
                    texts[i],
                    texts[j]
                );
            }
        }
        // The id space never exceeds the pool (head-permuted twins such as
        // `Q(x, y)` vs `Q(y, x)` collapse in the tagged representation).
        prop_assert!(interner.len() <= texts.len());
        prop_assert!(interner.len() >= texts.len() - 1);
    }

    /// What an id resolves to is a property of the canonical query, not of
    /// interner history: it must not change with insertion order,
    /// re-interning the same query, or a round trip through `to_query` into
    /// a fresh interner.
    #[test]
    fn classification_is_stable_across_insertion_order(shuffle_seed in 0u64..1_000_000) {
        let catalog = Catalog::paper_example();
        let texts = [
            // Paths, stars, self-joins, constants.
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(x, y), Meetings(y, z)",
            "Q(x) :- Meetings(x, x)",
            "Q() :- Meetings(x, y), Meetings(x, z), Meetings(x, w)",
            // Cycles: the triangle and a square.
            "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x)",
            "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, w), Meetings(w, x)",
        ];
        let queries: Vec<ConjunctiveQuery> = texts
            .iter()
            .map(|t| parse_query(&catalog, t).unwrap())
            .collect();
        // Natural order into one interner, shuffled order into another.
        let mut order: Vec<usize> = (0..texts.len()).collect();
        let mut state = shuffle_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut natural = QueryInterner::new();
        let natural_ids: Vec<_> = queries.iter().map(|q| natural.intern(q)).collect();
        let mut shuffled = QueryInterner::new();
        let mut shuffled_ids = vec![None; texts.len()];
        for &i in &order {
            shuffled_ids[i] = Some(shuffled.intern(&queries[i]));
        }
        for (i, text) in texts.iter().enumerate() {
            let a = natural_ids[i];
            let b = shuffled_ids[i].unwrap();
            // Re-interning is a no-op...
            prop_assert_eq!(natural.intern(&queries[i]), a);
            prop_assert_eq!(shuffled.intern(&queries[i]), b);
            // ...both orders resolve the query to the same shape and split
            // the pool into the same classes...
            let resolved = natural.to_query(a);
            prop_assert!(
                structurally_identical(&resolved, &shuffled.to_query(b)),
                "the resolved query changed with insertion order on {}",
                text
            );
            prop_assert!(structurally_identical(&queries[i], &resolved), "on {}", text);
            for j in 0..texts.len() {
                prop_assert_eq!(
                    a == natural_ids[j],
                    Some(b) == shuffled_ids[j],
                    "{} and {} split differently",
                    text,
                    texts[j]
                );
            }
            // ...and a round trip through `to_query` into a fresh interner
            // resolves to the same shape again.
            let mut fresh = QueryInterner::new();
            let again = fresh.intern(&resolved);
            prop_assert!(structurally_identical(&resolved, &fresh.to_query(again)), "on {}", text);
        }
    }
}

// ---------------------------------------------------------------------
// Identity under the in-place lookup: the hash/probe/compare walk must
// discriminate exactly like `structurally_identical`, whatever the operand's
// own variable ids, constants, tags, atom boundaries or size.
// ---------------------------------------------------------------------

/// A query shape before variable ids are chosen: terms name variables by
/// pool index, `kinds[p]` is pool variable `p`'s tag.
#[derive(Clone, Debug)]
struct Shape {
    atoms: Vec<(RelId, Vec<ShapeTerm>)>,
    kinds: Vec<VarKind>,
}

#[derive(Clone, Debug, PartialEq)]
enum ShapeTerm {
    Var(usize),
    Const(Constant),
}

fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Renders a shape with its variables assigned `VarId`s by a seeded
/// permutation: two renderings of one shape are alpha-variants whose ids
/// generally disagree.
fn render(shape: &Shape, state: &mut u64) -> ConjunctiveQuery {
    let mut used: Vec<usize> = Vec::new();
    for (_, terms) in &shape.atoms {
        for term in terms {
            if let ShapeTerm::Var(p) = term {
                if !used.contains(p) {
                    used.push(*p);
                }
            }
        }
    }
    let mut ids: Vec<u32> = (0..used.len() as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
    let atoms = shape
        .atoms
        .iter()
        .map(|(relation, terms)| {
            let terms = terms
                .iter()
                .map(|term| match term {
                    ShapeTerm::Var(p) => {
                        let position = used.iter().position(|u| u == p).unwrap();
                        Term::Var(VarId(ids[position]), shape.kinds[*p])
                    }
                    ShapeTerm::Const(c) => Term::Const(c.clone()),
                })
                .collect();
            Atom::new(*relation, terms)
        })
        .collect();
    ConjunctiveQuery::from_atoms(atoms).unwrap()
}

const POOL_VARS: usize = 5;

fn constant_pool() -> [Constant; 8] {
    [
        Constant::int(1),
        Constant::str("1"),
        Constant::int(2),
        Constant::str(""),
        // Longer than one 8-byte hash word, differing only in the last byte.
        Constant::str("a shared prefix, then 1"),
        Constant::str("a shared prefix, then 2"),
        // Exactly `SmallStr::INLINE` bytes, and one byte past it with the
        // same 14-byte prefix: one is stored in place, the other is not.
        Constant::str("fourteen bytes"),
        Constant::str("fourteen bytes!"),
    ]
}

fn random_shape(state: &mut u64) -> Shape {
    let constants = constant_pool();
    let atoms = (0..1 + next(state) % 3)
        .map(|_| {
            let relation = RelId((next(state) % 2) as u32);
            let terms = (0..1 + next(state) % 4)
                .map(|_| {
                    if next(state).is_multiple_of(3) {
                        let c = (next(state) % constants.len() as u64) as usize;
                        ShapeTerm::Const(constants[c].clone())
                    } else {
                        ShapeTerm::Var((next(state) % POOL_VARS as u64) as usize)
                    }
                })
                .collect();
            (relation, terms)
        })
        .collect();
    let kinds = (0..POOL_VARS)
        .map(|_| {
            if next(state).is_multiple_of(2) {
                VarKind::Distinguished
            } else {
                VarKind::Existential
            }
        })
        .collect();
    Shape { atoms, kinds }
}

/// One wide atom over `vars` distinct variables (every third one
/// distinguished) — beyond the interner's on-stack numbering when
/// `vars > 64`.
fn wide_shape(vars: usize) -> Shape {
    Shape {
        atoms: vec![(RelId(0), (0..vars).map(ShapeTerm::Var).collect())],
        kinds: (0..vars)
            .map(|v| {
                if v % 3 == 0 {
                    VarKind::Distinguished
                } else {
                    VarKind::Existential
                }
            })
            .collect(),
    }
}

/// The near-misses of a shape: each differs from it in exactly the one
/// respect a sloppy hash or compare would overlook (or, when the shape has
/// nothing of that kind to change, is the shape again — the oracle decides).
fn near_misses(shape: &Shape) -> Vec<Shape> {
    let mut out = Vec::new();
    let map_constants = |f: &dyn Fn(&Constant) -> Constant| {
        let mut variant = shape.clone();
        for (_, terms) in &mut variant.atoms {
            for term in terms {
                if let ShapeTerm::Const(c) = term {
                    *c = f(c);
                }
            }
        }
        variant
    };
    // `Int(1)` <-> `Str("1")`.
    out.push(map_constants(&|c| match c {
        Constant::Int(i) => Constant::str(i.to_string()),
        Constant::Str(s) => s.parse().map_or_else(|_| c.clone(), Constant::Int),
    }));
    // Constants differing only in the last byte.
    out.push(map_constants(&|c| match c {
        Constant::Str(s) if !s.is_empty() => {
            let mut s = s.to_string();
            let last = s.pop().unwrap();
            s.push(if last == '2' { '1' } else { '2' });
            Constant::str(s)
        }
        other => other.clone(),
    }));
    // Constants one byte longer: a 14-byte one crosses the inline capacity
    // and keeps its 14-byte prefix.
    out.push(map_constants(&|c| match c {
        Constant::Str(s) => Constant::str(format!("{s}!")),
        other => other.clone(),
    }));
    // Same terms, one variable's distinguished/existential tag flipped.
    for p in [0, shape.kinds.len() - 1] {
        let mut variant = shape.clone();
        variant.kinds[p] = match variant.kinds[p] {
            VarKind::Distinguished => VarKind::Existential,
            VarKind::Existential => VarKind::Distinguished,
        };
        out.push(variant);
    }
    // Same flat term sequence under one relation, split at other arities.
    let relation = shape.atoms[0].0;
    let flat: Vec<ShapeTerm> = shape.atoms.iter().flat_map(|(_, t)| t.clone()).collect();
    for cut in [0, 1, flat.len() / 2] {
        let (head, tail) = flat.split_at(cut);
        let atoms = [head, tail]
            .into_iter()
            .filter(|part| !part.is_empty())
            .map(|part| (relation, part.to_vec()))
            .collect();
        out.push(Shape {
            atoms,
            kinds: shape.kinds.clone(),
        });
    }
    // The last term replaced by a repeat of the first variable (changes the
    // equality pattern and, for wide shapes, the variable count).
    let mut variant = shape.clone();
    if let Some(first) = flat.iter().find(|t| matches!(t, ShapeTerm::Var(_))) {
        *variant.atoms.last_mut().unwrap().1.last_mut().unwrap() = first.clone();
    }
    out.push(variant);
    out
}

/// The whole arena as bytes — equal images mean nothing was minted, not a
/// query and not a constant.
fn image(interner: &QueryInterner) -> Vec<u8> {
    let mut bytes = Vec::new();
    interner.encode_into(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Id equality ⇔ structural identity over a seeded mix of alpha-variants
    /// and near-misses, and the ids survive a checkpoint round trip.
    #[test]
    fn ids_discriminate_exactly_like_structural_identity(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        // Hand-picked shapes that have every feature the near-misses vary,
        // the inline numbering capacity and its two neighbours, then random
        // ones.
        let constants = constant_pool();
        let mut bases = vec![
            Shape {
                atoms: vec![
                    (RelId(0), vec![
                        ShapeTerm::Var(0),
                        ShapeTerm::Const(constants[0].clone()),
                        ShapeTerm::Var(1),
                    ]),
                    (RelId(1), vec![
                        ShapeTerm::Var(1),
                        ShapeTerm::Const(constants[4].clone()),
                        ShapeTerm::Var(0),
                        ShapeTerm::Var(2),
                        ShapeTerm::Const(constants[6].clone()),
                    ]),
                ],
                kinds: vec![VarKind::Distinguished, VarKind::Existential, VarKind::Existential],
            },
            wide_shape(63),
            wide_shape(64),
            wide_shape(65),
            wide_shape(130),
        ];
        bases.extend((0..8).map(|_| random_shape(&mut state)));
        let mut queries = Vec::new();
        for base in &bases {
            // Two renderings: alpha-variants with permuted `VarId`s.
            queries.push(render(base, &mut state));
            queries.push(render(base, &mut state));
            for variant in near_misses(base) {
                queries.push(render(&variant, &mut state));
            }
        }

        let mut interner = QueryInterner::new();
        let ids: Vec<_> = queries.iter().map(|q| interner.intern(q)).collect();
        let mut equal_pairs = 0usize;
        for (i, (qa, ia)) in queries.iter().zip(&ids).enumerate() {
            prop_assert_eq!(interner.lookup(qa), Some(*ia));
            for (qb, ib) in queries.iter().zip(&ids).skip(i + 1) {
                let identical = structurally_identical(qa, qb);
                equal_pairs += usize::from(identical);
                prop_assert_eq!(
                    ia == ib,
                    identical,
                    "id equality diverged from structural identity on {:?} vs {:?}",
                    qa,
                    qb
                );
            }
        }
        // The mix is not vacuous: every base has its alpha-variant, and the
        // near-misses of the hand-picked shapes are all genuinely different.
        prop_assert!(equal_pairs >= bases.len());
        prop_assert!(interner.len() >= bases.len() + 8);

        // Checkpoint round trip: the rebuilt index finds every query at its
        // old id, so re-interning mints nothing.
        let bytes = image(&interner);
        let mut cursor = Cursor::new(&bytes);
        let mut back = QueryInterner::decode_from(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        for (query, id) in queries.iter().zip(&ids) {
            prop_assert_eq!(back.lookup(query), Some(*id));
            prop_assert_eq!(back.intern(query), *id);
        }
        prop_assert_eq!(back.len(), interner.len());
        prop_assert_eq!(image(&back), bytes);
    }
}

/// `lookup` of something never seen — a new shape over known constants, a
/// known shape with a new constant, a new constant that shares a long prefix
/// with a known one — answers `None` and mints nothing: not an id, not a
/// constant.
#[test]
fn lookup_of_the_unknown_leaves_no_trace() {
    let catalog = Catalog::paper_example();
    let q = |text: &str| parse_query(&catalog, text).unwrap();
    let mut interner = QueryInterner::new();
    let known = interner.intern(&q("Q(x) :- Meetings(x, 'Cathy the intern')"));
    interner.intern(&q("Q(x) :- Meetings(x, y), Contacts(y, w, 9)"));
    let before = image(&interner);
    for text in [
        "Q(x, y) :- Meetings(x, y)",
        "Q() :- Meetings(9, 'Cathy the intern')",
        "Q(x) :- Meetings(x, 'Jim')",
        "Q(x) :- Meetings(x, 'Cathy the interm')",
        "Q(x) :- Meetings(x, 10)",
        "Q(x) :- Meetings(x, y), Contacts(y, w, '9')",
    ] {
        assert_eq!(interner.lookup(&q(text)), None, "{text}");
        assert_eq!(interner.len(), 2, "{text}");
    }
    assert_eq!(image(&interner), before, "a lookup minted something");
    assert_eq!(
        interner.lookup(&q("Q(a) :- Meetings(a, 'Cathy the intern')")),
        Some(known)
    );
}

// ---------------------------------------------------------------------
// The stored hash: a query carries its canonical hash from construction,
// and the front door probes with it instead of hashing.  It must be the
// hash of the query's interned entry, bit for bit, however the query was
// built.
// ---------------------------------------------------------------------

/// Interns `query` and checks its stored hash against the one the arena
/// computes for its entry, before and after a checkpoint round trip.
fn assert_stored_hash_is_the_entrys(interner: &mut QueryInterner, query: &ConjunctiveQuery) {
    let id = interner.intern(query);
    assert_eq!(query.shape_hash(), interner.shape_hash(id), "{query:?}");
    let bytes = image(interner);
    let back = QueryInterner::decode_from(&mut Cursor::new(&bytes)).unwrap();
    assert_eq!(query.shape_hash(), back.shape_hash(id), "{query:?}");
    assert_eq!(back.lookup(query), Some(id), "{query:?}");
}

/// A catalog with a 70-column relation, so one atom can carry more
/// variables than the on-stack numbering holds.
fn wide_catalog() -> Catalog {
    let mut catalog = Catalog::paper_example();
    let columns: Vec<String> = (0..70).map(|i| format!("c{i}")).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    catalog.add_relation("Wide", &columns).unwrap();
    catalog
}

#[test]
fn every_constructor_stores_the_hash_of_its_interned_entry() {
    use fdc::cq::folding::fold;
    use fdc::cq::query::QueryBuilder;
    use fdc::cq::wire::{decode_query, encode_query};

    let catalog = wide_catalog();
    let meetings = catalog.resolve("Meetings").unwrap();
    let contacts = catalog.resolve("Contacts").unwrap();
    let wide = catalog.resolve("Wide").unwrap();
    let wide_vars: Vec<String> = (0..70).map(|i| format!("v{i}")).collect();
    let mut interner = QueryInterner::new();
    let mut queries: Vec<ConjunctiveQuery> = Vec::new();

    // Parser, including a self-join that folds and a 70-variable atom.
    for text in [
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        "Q() :- Meetings(z, z)",
        "Q(x) :- Meetings(x, 9), Meetings(x, y)",
        "Q(x) :- Meetings(x, y), Meetings(x, z)",
        "Q(x) :- Meetings(x, 'a string constant longer than one word')",
    ] {
        queries.push(parse_query(&catalog, text).unwrap());
    }
    queries.push(
        parse_query(
            &catalog,
            &format!("Q(v0, v3) :- Wide({})", wide_vars.join(", ")),
        )
        .unwrap(),
    );

    // Builder, with variables declared out of body order.
    let mut b = QueryBuilder::new();
    let w = b.evar("w");
    let y = b.evar("y");
    let x = b.dvar("x");
    b.atom(meetings, [x.into(), y.into()]);
    b.atom(contacts, [y.into(), w.into(), "Intern".into()]);
    queries.push(b.build().unwrap());
    let mut b = QueryBuilder::new();
    let vars: Vec<_> = (0..70)
        .rev()
        .map(|i| {
            if i % 3 == 0 {
                b.dvar(&wide_vars[i])
            } else {
                b.evar(&wide_vars[i])
            }
        })
        .collect();
    b.atom(wide, vars.iter().map(|&v| v.into()));
    queries.push(b.build().unwrap());

    // from_atoms and from_parts, with ids that are not first-occurrence.
    queries.push(
        ConjunctiveQuery::from_atoms(vec![
            Atom::new(meetings, vec![Term::exist(1), Term::dist(0)]),
            Atom::new(meetings, vec![Term::dist(0), Term::exist(2)]),
        ])
        .unwrap(),
    );
    queries.push(
        ConjunctiveQuery::from_atoms(vec![Atom::new(
            wide,
            (0..70u32).rev().map(Term::exist).collect(),
        )])
        .unwrap(),
    );
    queries.push(
        ConjunctiveQuery::from_parts(
            vec![Atom::new(
                contacts,
                vec![Term::exist(1), Term::dist(0), Term::Const(Constant::int(7))],
            )],
            vec![VarKind::Distinguished, VarKind::Existential],
            vec!["x".into(), "z".into()],
        )
        .unwrap(),
    );

    // Everything built so far, through the wire, folded, renamed, and back
    // out of the arena.
    let built = queries.len();
    for i in 0..built {
        let query = queries[i].clone();
        let mut bytes = Vec::new();
        encode_query(&query, &mut bytes);
        queries.push(decode_query(&mut Cursor::new(&bytes)).unwrap());
        queries.push(fold(&query));
        queries.push(rename_canonical(&query));
        let id = interner.intern(&query);
        queries.push(interner.to_query(id));
    }
    // A fold that drops atoms leaves declared variables out of the body.
    let folded = fold(&queries[3]);
    assert_eq!((folded.num_atoms(), folded.num_vars()), (1, 3));
    assert!(queries.iter().any(|q| q.num_vars() > 64));

    for query in &queries {
        assert_stored_hash_is_the_entrys(&mut interner, query);
    }
}

#[test]
fn random_queries_keep_their_ids_across_an_encode_and_decode() {
    let mut state = 0x5eed_u64;
    let mut shapes: Vec<Shape> = (0..2_000).map(|_| random_shape(&mut state)).collect();
    shapes.extend([63, 64, 65, 130].map(wide_shape));
    let queries: Vec<ConjunctiveQuery> = shapes.iter().map(|s| render(s, &mut state)).collect();
    let mut interner = QueryInterner::new();
    let ids: Vec<_> = queries.iter().map(|q| interner.intern(q)).collect();
    for (query, &id) in queries.iter().zip(&ids) {
        assert_eq!(query.shape_hash(), interner.shape_hash(id), "{query:?}");
    }
    let bytes = image(&interner);
    let mut cursor = Cursor::new(&bytes);
    let back = QueryInterner::decode_from(&mut cursor).unwrap();
    cursor.expect_end().unwrap();
    for ((query, shape), &id) in queries.iter().zip(&shapes).zip(&ids) {
        assert_eq!(back.lookup(query), Some(id), "{query:?}");
        // An alpha-variant rendered afresh finds the same id.
        assert_eq!(back.lookup(&render(shape, &mut state)), Some(id));
    }
    assert_eq!(back.len(), interner.len());
    assert_eq!(image(&back), bytes);
}

// ---------------------------------------------------------------------
// The front door's byte step: an id may keep one operand's structure (its
// exemplar), and `recognise` accepts an operand whose structure and
// variable count equal it without the compare pass.  Whatever exemplar an
// id holds, `recognise` must answer what `lookup` answers and what an
// interner built by `intern` alone answers.
// ---------------------------------------------------------------------

/// `query` with every variable renamed — same ids, same kinds — to a name
/// of `len + 1` bytes.
fn renamed(query: &ConjunctiveQuery, len: usize) -> ConjunctiveQuery {
    let names = (0..query.num_vars())
        .map(|v| format!("v{v:_>len$}"))
        .collect();
    ConjunctiveQuery::from_parts(
        query.atoms().map(|atom| atom.to_atom()).collect(),
        query.var_kinds().collect(),
        names,
    )
    .unwrap()
}

/// `query` with its variable ids permuted at random, each variable keeping
/// its kind and name: an alpha-variant with other term words.
fn permuted(query: &ConjunctiveQuery, state: &mut u64) -> ConjunctiveQuery {
    let n = query.num_vars();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
    let atoms = query
        .atoms()
        .map(|atom| {
            let terms = atom.terms().iter().map(|term| match term.to_term() {
                Term::Var(v, kind) => Term::Var(VarId(perm[v.index()]), kind),
                constant => constant,
            });
            Atom::new(atom.relation, terms.collect())
        })
        .collect();
    let mut kinds = vec![VarKind::Existential; n];
    let mut names = vec![String::new(); n];
    for v in 0..n {
        kinds[perm[v] as usize] = query.var_kind(VarId(v as u32));
        names[perm[v] as usize] = query.var_name(VarId(v as u32)).to_owned();
    }
    ConjunctiveQuery::from_parts(atoms, kinds, names).unwrap()
}

/// Interns the first half of `pool` (rounded up) into two interners, then
/// puts five variants of every pool query — itself, a clone, renamed with
/// 3-byte and with 301-byte names (the latter widen the block), and
/// permuted — through `recognise` on one of them, three times over: before
/// any exemplar, as the first one records, and after.  Every answer must
/// be `lookup`'s and the other interner's, which only ever `intern`s; a
/// query of the second half stays unknown to both.  An id's exemplar is
/// the first variant the compare pass matched, so that variant and its
/// clone are byte hits from then on.
fn assert_front_door_is_exact(pool: &[ConjunctiveQuery], seed: u64) {
    let mut door = QueryInterner::new();
    let mut plain = QueryInterner::new();
    for query in &pool[..pool.len().div_ceil(2)] {
        prop_assert_eq!(door.intern(query), plain.intern(query));
    }
    let mut state = seed | 1;
    let mut recorded: HashSet<QueryId> = HashSet::new();
    for query in pool {
        let variants = [
            query.clone(),
            query.clone(),
            renamed(query, 2),
            renamed(query, 300),
            permuted(query, &mut state),
        ];
        let first_record = plain.lookup(query).filter(|&id| !recorded.contains(&id));
        for _ in 0..3 {
            for variant in &variants {
                let expected = plain.lookup(variant);
                if let Some(id) = expected {
                    prop_assert_eq!(plain.intern(variant), id);
                    recorded.insert(id);
                }
                prop_assert_eq!(door.lookup(variant), expected, "{:?}", variant);
                prop_assert_eq!(
                    door.recognise(variant).map(Recognised::id),
                    expected,
                    "{:?}",
                    variant
                );
            }
        }
        if let Some(id) = first_record {
            prop_assert_eq!(door.recognise(&variants[0]), Some(Recognised::Bytes(id)));
            prop_assert_eq!(door.recognise(&variants[1]), Some(Recognised::Bytes(id)));
        }
    }
    prop_assert_eq!(door.len(), plain.len());
    door.check_invariants();
}

/// The hand-written pool: constants, repeated variables, self-joins and
/// permuted heads over the paper's schema.
fn hand_pool() -> Vec<ConjunctiveQuery> {
    let catalog = Catalog::paper_example();
    [
        "Q(x) :- Meetings(x, y)",
        "Q(y) :- Meetings(x, y)",
        "Q(x, y) :- Meetings(x, y)",
        "Q() :- Meetings(z, z)",
        "Q(x) :- Meetings(x, 'Cathy')",
        "Q() :- Meetings(9, 'Jim')",
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        "Q() :- Contacts(p, r, s), Meetings(x, y)",
        "Q() :- Meetings(x, y), Meetings(y, z), Meetings(z, x)",
        "Q(a) :- Meetings(a, b)",
        "Q(x) :- Meetings(x, 'Bob')",
        "Q(x) :- Meetings(x, y), Contacts(y, w, 'Manager')",
        "Q() :- Meetings(x, y), Meetings(x, z), Meetings(x, w)",
        "Q(x) :- Meetings(x, x)",
    ]
    .iter()
    .map(|text| parse_query(&catalog, text).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Section 7.2 streams: 40 generated queries, half of them interned.
    #[test]
    fn the_front_door_answers_what_lookup_answers_on_ecosystem_workloads(
        seed in 0u64..1_000_000,
        max_subqueries in 1usize..5,
    ) {
        let eco = Ecosystem::new();
        let queries = eco.workload(WorkloadConfig::stress(max_subqueries, seed)).batch(40);
        assert_front_door_is_exact(&queries, seed);
    }

    /// The hand-written pool, in a seed-dependent order.
    #[test]
    fn the_front_door_answers_what_lookup_answers_on_tricky_shapes(seed in 0u64..1_000_000) {
        let mut pool = hand_pool();
        let mut state = seed | 1;
        for i in (1..pool.len()).rev() {
            pool.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        assert_front_door_is_exact(&pool, seed);
    }
}

/// The door's counters on a seeded hot stream (a 300-query pool, 1 %
/// grants and revokes, 10 % checks) served twice through `run_pipelined`.
/// Each admission moves exactly one counter; the first pass mints each
/// shape once.  The expected byte hits are counted by a model of the
/// recording rule that tells operands apart by `==` (equal queries have
/// equal blocks): an id's exemplar is the first operand the compare pass
/// matched, and an operand equal to it is a byte hit.  Different operands
/// of one structure (other names, same widths) are byte hits the model
/// does not count, so the model bounds byte hits from below and compare
/// hits from above.  After the warm pass, compare hits stay within the
/// number of distinct shapes, and every resent operand is a byte hit.
#[test]
fn a_warm_hot_stream_is_recognised_by_its_bytes() {
    let eco = Ecosystem::new();
    let mut service = eco.disclosure_service(
        PolicyGeneratorConfig::default(),
        200,
        ServiceConfig::default(),
    );
    let ops = eco
        .churn(ChurnConfig {
            mutation_ratio: 0.01,
            add_view_share: 0.0,
            check_share: 0.1,
            query_pool: 300,
            num_principals: 200,
            seed: 7,
            workload: WorkloadConfig::stress(2, 7),
        })
        .ops(6_000);
    let operands: Vec<&ConjunctiveQuery> = ops
        .iter()
        .filter_map(|op| match op {
            Operation::Submit { query, .. } | Operation::Check { query, .. } => Some(query),
            _ => None,
        })
        .collect();
    // The model, over both passes.  `ids` is filled by the service's own
    // interner after the first pass: the model only needs to know which
    // operands share an id.
    let mut passes = Vec::new();
    let mut before = service.labeler().door_stats();
    for _ in 0..2 {
        service.run_pipelined(&ops);
        let after = service.labeler().door_stats();
        passes.push((
            after.byte_hits - before.byte_hits,
            after.compare_hits - before.compare_hits,
            after.misses - before.misses,
            after.over_budget - before.over_budget,
        ));
        before = after;
    }
    let interner = service.interner();
    interner.check_invariants();
    let ids: Vec<QueryId> = operands
        .iter()
        .map(|query| interner.lookup(query).expect("every operand was minted"))
        .collect();
    let shapes = ids.iter().collect::<HashSet<_>>().len() as u64;
    let mut exemplars: HashMap<QueryId, &ConjunctiveQuery> = HashMap::new();
    let mut seen: HashSet<QueryId> = HashSet::new();
    let mut model = [(0u64, 0u64); 2];
    for (pass, counts) in model.iter_mut().enumerate() {
        for (&query, &id) in operands.iter().zip(&ids) {
            if seen.insert(id) {
                assert_eq!(pass, 0, "a shape is first seen in the first pass");
            } else if exemplars
                .get(&id)
                .is_some_and(|&exemplar| exemplar == query)
            {
                counts.0 += 1;
            } else {
                exemplars.entry(id).or_insert(query);
                counts.1 += 1;
            }
        }
    }
    let admissions = operands.len() as u64;
    for (pass, (&(byte_hits, compare_hits, misses, over_budget), &(model_bytes, model_compared))) in
        passes.iter().zip(&model).enumerate()
    {
        assert_eq!(over_budget, 0, "pass {pass}");
        assert_eq!(misses, if pass == 0 { shapes } else { 0 }, "pass {pass}");
        assert_eq!(byte_hits + compare_hits + misses, admissions, "pass {pass}");
        assert!(
            byte_hits >= model_bytes,
            "pass {pass}: {byte_hits} < {model_bytes}"
        );
        assert!(compare_hits <= model_compared, "pass {pass}");
    }
    let (byte_hits, compare_hits, _, _) = passes[1];
    assert!(
        compare_hits <= shapes,
        "{compare_hits} compare hits, {shapes} shapes"
    );
    assert!(byte_hits >= admissions - shapes);
    assert!(byte_hits > 0 && model[1].0 > 0);
}

//! The `Dissect` algorithm of Section 5.2.
//!
//! Security views are single-atom, so multi-atom queries are labeled in two
//! steps: `Dissect` first converts a conjunctive query into a set of
//! single-atom queries, then the single-atom machinery labels each one.
//!
//! `Dissect`:
//!
//! 1. computes a **folding** of the query (removes redundant atoms — see
//!    [`fdc_cq::folding`]);
//! 2. splits the folding into its constituent atoms;
//! 3. **promotes to distinguished** every existential variable that appears
//!    in at least two atoms: any set of single-atom views that allows the
//!    join to be computed must reveal the values of the join attributes.
//!
//! The composition of `Dissect` with the single-atom labeler is itself a
//! disclosure labeler (end of Section 5.2).
//!
//! [`dissect`] is the boxed reference: it materializes every part as a
//! query of its own.  [`InternedDissection`] is what a first sight runs on
//! an interned shape: it finds the join variables once and reads each
//! part's [`Shape`], and the positional rule's verdict against a view
//! ([`answers`]), off the core atom where it lies.

use fdc_cq::bitset::BitSet;
use fdc_cq::folding::fold;
use fdc_cq::intern::{ITerm, ITermView, QueryRef};
use fdc_cq::{Atom, AtomRef, ConjunctiveQuery, RelId, Term, TermRef, VarId, VarKind};

use crate::answers::{self, Shape};

/// Dissects a conjunctive query into single-atom queries.
///
/// The result contains one single-atom query per atom of the folded input,
/// with join variables promoted to distinguished.  Variable ids are
/// compacted per output atom, but names are carried over from the input to
/// keep labels explainable.
pub fn dissect(query: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let folded = fold(query);
    if folded.num_atoms() == 1 {
        return vec![single_atom_query(&folded, folded.atom(0), &[])];
    }

    // Count in how many atoms each variable occurs; existential variables
    // occurring in ≥ 2 atoms become distinguished.
    let counts = folded.atoms_per_variable();
    let promoted: Vec<VarId> = (0..folded.num_vars() as u32)
        .map(VarId)
        .filter(|v| folded.var_kind(*v).is_existential() && counts[v.index()] >= 2)
        .collect();

    folded
        .atoms()
        .map(|atom| single_atom_query(&folded, atom, &promoted))
        .collect()
}

/// Extracts one atom of `source` as a standalone single-atom query,
/// promoting the listed variables to distinguished.
fn single_atom_query(
    source: &ConjunctiveQuery,
    atom: AtomRef<'_>,
    promoted: &[VarId],
) -> ConjunctiveQuery {
    let mut var_kinds: Vec<VarKind> = Vec::new();
    let mut var_names: Vec<String> = Vec::new();
    let mut mapping: std::collections::HashMap<VarId, VarId> = std::collections::HashMap::new();

    let terms: Vec<Term> = atom
        .terms()
        .iter()
        .map(|t| match t {
            TermRef::Var(v, _) => {
                let kind = if promoted.contains(&v) {
                    VarKind::Distinguished
                } else {
                    source.var_kind(v)
                };
                let next = VarId(mapping.len() as u32);
                let new_id = *mapping.entry(v).or_insert_with(|| {
                    var_kinds.push(kind);
                    var_names.push(source.var_name(v).to_owned());
                    next
                });
                Term::Var(new_id, var_kinds[new_id.index()])
            }
            TermRef::Const(c) => c.to_term(),
        })
        .collect();

    ConjunctiveQuery::from_parts(vec![Atom::new(atom.relation, terms)], var_kinds, var_names)
        .expect("a single atom extracted from a valid query is valid")
}

/// [`dissect`] over the interned query plane, read where the query lies.
///
/// `core` is the query's fold: the indices of its surviving atoms in
/// increasing order, as [`fold_interned_indices`] computes them (an
/// interner records them with `QueryInterner::record_core`).  Part `k` is
/// core atom `core[k]`.
///
/// Construction walks the core once to find the *join variables* — those
/// occurring in at least two core atoms, which `Dissect` promotes to
/// distinguished — and keeps them as a [`BitSet`]: one word up to 64
/// variables, one heap block past that (with two scratch sets), as the
/// interner's first-occurrence numbering spills.  Each part's [`Shape`]
/// ([`shape`](Self::shape)) and the rule's verdict against a view
/// ([`answered_by`](Self::answered_by)) are then read straight off its
/// atom: no part is ever assembled.
///
/// [`fold_interned_indices`]: fdc_cq::folding::fold_interned_indices
#[derive(Debug)]
pub struct InternedDissection<'q> {
    query: QueryRef<'q>,
    core: &'q [u32],
    /// The join variables, up to 64 variables.
    joins: u64,
    /// Past 64 variables, three sets of `words` words each, back to back:
    /// the join variables and two scratch sets; empty otherwise.
    spill: Vec<u64>,
    words: usize,
}

impl<'q> InternedDissection<'q> {
    /// The dissection of `query` whose fold is `core`.
    pub fn new(query: QueryRef<'q>, core: &'q [u32]) -> Self {
        let words = query.num_vars().div_ceil(64);
        let mut joins = 0u64;
        let mut spill = Vec::new();
        if words <= 1 {
            join_variables(query, core, &mut joins, &mut 0, &mut 0);
        } else {
            spill = vec![0; 3 * words];
            let (joins, scratch) = spill.split_at_mut(words);
            let (earlier, this) = scratch.split_at_mut(words);
            join_variables(query, core, joins, earlier, this);
        }
        InternedDissection {
            query,
            core,
            joins,
            spill,
            words,
        }
    }

    /// Number of parts: the size of the core.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True if the core is empty (a query always keeps an atom).
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The relation of part `k`.
    pub fn relation(&self, k: usize) -> RelId {
        self.query.relation(self.core[k] as usize)
    }

    /// The [`Shape`] of part `k`, its join variables counted as
    /// distinguished: what [`Shape::of`] reads off the same part of the
    /// equivalent boxed query's [`dissect`].
    pub fn shape(&mut self, k: usize) -> Shape {
        let terms = self.terms(k);
        if terms.len() > 64 {
            return Shape::WIDE;
        }
        if self.spill.is_empty() {
            return part_shape(terms, &self.joins, &mut 0, &mut 0);
        }
        let (joins, scratch) = self.spill.split_at_mut(self.words);
        let (met, twice) = scratch.split_at_mut(self.words);
        met.clear();
        twice.clear();
        part_shape(terms, &*joins, met, twice)
    }

    /// Rules 1–4 ([`answers::by_terms`]): whether the view with terms
    /// `view`, interned by the interner this query was resolved from,
    /// answers part `k`.
    pub fn answered_by(&self, k: usize, view: &[ITerm]) -> bool {
        let joins = if self.spill.is_empty() {
            std::slice::from_ref(&self.joins)
        } else {
            &self.spill[..self.words]
        };
        let pinned = |term: &ITerm| {
            term.var_index()
                .is_none_or(|v| term.is_distinguished() || BitSet::contains(joins, v as usize))
        };
        answers::by_terms(self.terms(k), pinned, view)
    }

    /// The terms of part `k`'s atom, as they lie in the query.
    fn terms(&self, k: usize) -> &'q [ITerm] {
        self.query.atom_terms(self.core[k] as usize)
    }
}

/// Adds to `joins` every variable that occurs in at least two atoms of
/// `core`; `earlier` and `this` are empty scratch sets.
fn join_variables<S: BitSet + ?Sized>(
    query: QueryRef<'_>,
    core: &[u32],
    joins: &mut S,
    earlier: &mut S,
    this: &mut S,
) {
    for &atom in core {
        this.clear();
        for v in query
            .atom_terms(atom as usize)
            .iter()
            .filter_map(|t| t.var_index())
        {
            this.insert(v as usize);
        }
        joins.union_with_common(earlier, this);
        earlier.union_with(this);
    }
}

/// [`InternedDissection::shape`] of the part `terms` (at most 64), with join
/// variables `joins`; `met` and `twice` are empty scratch sets.
fn part_shape<S: BitSet + ?Sized>(terms: &[ITerm], joins: &S, met: &mut S, twice: &mut S) -> Shape {
    let (mut needs, mut constants, mut repeats) = (0u64, false, false);
    for (i, term) in terms.iter().enumerate() {
        match term.get() {
            ITermView::Const(_) => {
                needs |= 1 << i;
                constants = true;
            }
            ITermView::Var(v, kind) => {
                let v = v as usize;
                if met.contains(v) {
                    twice.insert(v);
                    repeats = true;
                }
                met.insert(v);
                if kind.is_distinguished() || joins.contains(v) {
                    needs |= 1 << i;
                }
            }
        }
    }
    if repeats {
        // A repeated variable is needed at each of its positions, the
        // first one included.
        for (i, term) in terms.iter().enumerate() {
            if term.var_index().is_some_and(|v| twice.contains(v as usize)) {
                needs |= 1 << i;
            }
        }
    }
    Shape {
        needs,
        simple: !constants && !repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::folding::fold_interned_indices;
    use fdc_cq::intern::QueryInterner;
    use fdc_cq::{parser::parse_query, Catalog};

    fn catalog() -> Catalog {
        Catalog::paper_example()
    }

    fn q(c: &Catalog, s: &str) -> ConjunctiveQuery {
        parse_query(c, s).unwrap()
    }

    #[test]
    fn example_5_4_join_variables_are_promoted() {
        // Q2(x) :- M(x, y), C(y, w, 'Intern')  dissects to
        // [M(xd, yd)] and [C(yd, we, 'Intern')].
        let c = catalog();
        let q2 = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&q2);
        assert_eq!(parts.len(), 2);

        let expected_m = q(&c, "P(x, y) :- Meetings(x, y)");
        let expected_c = q(&c, "P(y) :- Contacts(y, w, 'Intern')");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected_m));
        assert!(fdc_cq::containment::equivalent(&parts[1], &expected_c));
    }

    #[test]
    fn single_atom_queries_pass_through() {
        let c = catalog();
        let q1 = q(&c, "Q1(x) :- Meetings(x, 'Cathy')");
        let parts = dissect(&q1);
        assert_eq!(parts.len(), 1);
        assert!(fdc_cq::containment::equivalent(&parts[0], &q1));
    }

    #[test]
    fn redundant_atoms_are_folded_before_splitting() {
        let c = catalog();
        let redundant = q(&c, "Q(x) :- Meetings(x, y), Meetings(x, z)");
        let parts = dissect(&redundant);
        assert_eq!(parts.len(), 1);
        let expected = q(&c, "P(x) :- Meetings(x, y)");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected));
    }

    #[test]
    fn non_join_existentials_stay_existential() {
        let c = catalog();
        // w appears only in the Contacts atom, so it stays existential; y is
        // the join variable and is promoted.
        let q2 = q(&c, "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&q2);
        let contacts_part = &parts[1];
        let dist: Vec<&str> = contacts_part
            .distinguished_vars()
            .map(|v| contacts_part.var_name(v))
            .collect();
        assert_eq!(dist, vec!["y"]);
        let exist: Vec<&str> = contacts_part
            .existential_vars()
            .map(|v| contacts_part.var_name(v))
            .collect();
        assert_eq!(exist, vec!["w"]);
    }

    #[test]
    fn already_distinguished_join_variables_are_unchanged() {
        let c = catalog();
        let qd = q(&c, "Q(x, y) :- Meetings(x, y), Contacts(y, w, 'Intern')");
        let parts = dissect(&qd);
        assert_eq!(parts.len(), 2);
        let expected_m = q(&c, "P(x, y) :- Meetings(x, y)");
        assert!(fdc_cq::containment::equivalent(&parts[0], &expected_m));
    }

    #[test]
    fn three_way_joins_promote_every_join_variable() {
        let c = catalog();
        // y joins atoms 1-2, w joins atoms 2-3.
        let q3 = q(
            &c,
            "Q(x) :- Meetings(x, y), Contacts(y, w, p), Meetings(w, z)",
        );
        let parts = dissect(&q3);
        assert_eq!(parts.len(), 3);
        // The middle atom exposes both join variables but not p.
        let middle = &parts[1];
        let dist: Vec<&str> = middle
            .distinguished_vars()
            .map(|v| middle.var_name(v))
            .collect();
        assert_eq!(dist, vec!["y", "w"]);
    }

    #[test]
    fn constants_are_preserved_verbatim() {
        let c = catalog();
        let qc = q(
            &c,
            "Q(x) :- Meetings(x, y), Contacts(y, 'a@b.com', 'Intern')",
        );
        let parts = dissect(&qc);
        assert!(parts[1].atom(0).has_constants());
        assert_eq!(parts[1].atom(0).arity(), 3);
    }

    #[test]
    fn dissection_output_is_always_single_atom() {
        let c = catalog();
        let inputs = [
            "Q(x) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q() :- Meetings(x, y), Meetings(y, z), Contacts(z, w, p)",
            "Q(x) :- Meetings(x, x), Meetings(x, y)",
        ];
        for text in inputs {
            for part in dissect(&q(&c, text)) {
                assert!(
                    part.is_single_atom(),
                    "dissect({text}) produced a multi-atom part"
                );
            }
        }
    }

    #[test]
    fn interned_dissection_matches_boxed_dissection() {
        let c = catalog();
        let mut interner = QueryInterner::new();
        let inputs = [
            "Q1(x) :- Meetings(x, 'Cathy')",
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
            "Q(x) :- Meetings(x, y), Meetings(x, z)",
            "Q(x, z) :- Meetings(x, y), Meetings(y, z)",
            "Q(x) :- Meetings(x, y), Contacts(y, w, p), Meetings(w, z)",
            "Q() :- Meetings(x, y), Meetings(y, z), Contacts(z, w, p)",
            "Q(x) :- Meetings(x, x), Meetings(x, y)",
            "Q(x) :- Meetings(x, y), Contacts(y, z, z)",
            "Q() :- Contacts(x, w, p), Meetings(p, p), Meetings(w, 'Cathy')",
        ];
        for text in inputs {
            let query = q(&c, text);
            let boxed: Vec<_> = dissect(&query)
                .iter()
                .map(|part| (part.atom(0).relation, Shape::of(part.atom(0))))
                .collect();
            let id = interner.intern(&query);
            let core = fold_interned_indices(interner.resolve(id));
            let mut dissection = InternedDissection::new(interner.resolve(id), &core);
            let interned: Vec<_> = (0..dissection.len())
                .map(|k| (dissection.relation(k), dissection.shape(k)))
                .collect();
            assert_eq!(boxed, interned, "parts differ on {text}");
        }
    }

    #[test]
    fn self_join_on_the_same_relation_keeps_both_atoms() {
        let c = catalog();
        // Meetings(x, y) ∧ Meetings(y, z): a genuine self-join; y is the join
        // variable and must be promoted in both parts.
        let qs = q(&c, "Q(x, z) :- Meetings(x, y), Meetings(y, z)");
        let parts = dissect(&qs);
        assert_eq!(parts.len(), 2);
        for part in &parts {
            let names: Vec<&str> = part
                .distinguished_vars()
                .map(|v| part.var_name(v))
                .collect();
            assert!(
                names.contains(&"y"),
                "join variable y must be distinguished"
            );
        }
    }
}

//! In-memory database instances and conjunctive-query evaluation.
//!
//! The disclosure framework reasons about queries symbolically, but a small
//! executable semantics is invaluable: it lets the test suite validate the
//! symbolic machinery (containment, folding, rewriting) against actual query
//! answers on concrete data, and it lets the examples show real answers
//! flowing — or not flowing — to an app.
//!
//! [`Database`] stores one set of tuples per relation of a [`Catalog`];
//! [`evaluate`] computes the answer of a [`ConjunctiveQuery`] under the
//! standard set semantics used by the paper: an answer is one binding of the
//! distinguished variables (in [`ConjunctiveQuery::head_vars`] order) such
//! that some extension to the existential variables satisfies every body
//! atom.

use std::collections::{BTreeSet, HashMap};

use crate::catalog::{Catalog, RelId};
use crate::error::{CqError, Result};
use crate::query::ConjunctiveQuery;
use crate::term::{Constant, TermRef, VarId};

/// A tuple of constants.
pub type Tuple = Vec<Constant>;

/// An in-memory database instance over a catalog.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: HashMap<RelId, BTreeSet<Tuple>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts a tuple into a relation, validating its arity against the
    /// catalog.
    pub fn insert<T>(&mut self, catalog: &Catalog, relation: RelId, tuple: T) -> Result<()>
    where
        T: IntoIterator,
        T::Item: Into<Constant>,
    {
        let tuple: Tuple = tuple.into_iter().map(Into::into).collect();
        let expected = catalog.arity(relation);
        if tuple.len() != expected {
            return Err(CqError::ArityMismatch {
                relation: catalog.name(relation).to_owned(),
                expected,
                found: tuple.len(),
            });
        }
        self.relations.entry(relation).or_default().insert(tuple);
        Ok(())
    }

    /// The tuples of a relation (empty if none were inserted).
    pub fn tuples(&self, relation: RelId) -> impl Iterator<Item = &Tuple> {
        self.relations.get(&relation).into_iter().flatten()
    }

    /// Number of tuples in a relation.
    pub fn cardinality(&self, relation: RelId) -> usize {
        self.relations.get(&relation).map_or(0, BTreeSet::len)
    }

    /// Total number of tuples in the database.
    pub fn len(&self) -> usize {
        self.relations.values().map(BTreeSet::len).sum()
    }

    /// True if the database holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(BTreeSet::is_empty)
    }

    /// The Figure 1 (a) example instance: Alice's meetings and contacts.
    pub fn paper_example(catalog: &Catalog) -> Self {
        let meetings = catalog.resolve("Meetings").expect("paper catalog");
        let contacts = catalog.resolve("Contacts").expect("paper catalog");
        let mut db = Database::new();
        for (time, person) in [(9i64, "Jim"), (10, "Cathy"), (12, "Bob")] {
            db.insert(
                catalog,
                meetings,
                [Constant::from(time), Constant::from(person)],
            )
            .expect("valid tuple");
        }
        for (person, email, position) in [
            ("Jim", "jim@e.com", "Manager"),
            ("Cathy", "cathy@e.com", "Intern"),
            ("Bob", "bob@e.com", "Consultant"),
        ] {
            db.insert(
                catalog,
                contacts,
                [
                    Constant::from(person),
                    Constant::from(email),
                    Constant::from(position),
                ],
            )
            .expect("valid tuple");
        }
        db
    }
}

/// Evaluates a conjunctive query on a database.
///
/// The answer is the set of bindings of the distinguished variables, ordered
/// as [`ConjunctiveQuery::head_vars`].  A boolean query returns either one
/// empty tuple (true) or no tuples (false).
pub fn evaluate(query: &ConjunctiveQuery, db: &Database) -> BTreeSet<Tuple> {
    let head = query.head_vars();
    let mut answers = BTreeSet::new();
    let mut binding: HashMap<VarId, Constant> = HashMap::new();
    eval_rec(query, db, 0, &mut binding, &head, &mut answers);
    answers
}

/// True if the query has at least one answer on the database.
pub fn satisfiable(query: &ConjunctiveQuery, db: &Database) -> bool {
    !evaluate(query, db).is_empty()
}

fn eval_rec(
    query: &ConjunctiveQuery,
    db: &Database,
    atom_index: usize,
    binding: &mut HashMap<VarId, Constant>,
    head: &[VarId],
    answers: &mut BTreeSet<Tuple>,
) {
    let Some(atom) = (atom_index < query.num_atoms()).then(|| query.atom(atom_index)) else {
        let answer: Tuple = head
            .iter()
            .map(|v| {
                binding
                    .get(v)
                    .expect("head variables are bound by safety")
                    .clone()
            })
            .collect();
        answers.insert(answer);
        return;
    };
    'tuples: for tuple in db.tuples(atom.relation) {
        if tuple.len() != atom.arity() {
            continue;
        }
        let mut newly_bound: Vec<VarId> = Vec::new();
        for (term, value) in atom.terms().iter().zip(tuple.iter()) {
            match term {
                TermRef::Const(c) => {
                    if c != *value {
                        for v in newly_bound.drain(..) {
                            binding.remove(&v);
                        }
                        continue 'tuples;
                    }
                }
                TermRef::Var(v, _) => match binding.get(&v) {
                    Some(bound) if bound != value => {
                        for v in newly_bound.drain(..) {
                            binding.remove(&v);
                        }
                        continue 'tuples;
                    }
                    Some(_) => {}
                    None => {
                        binding.insert(v, value.clone());
                        newly_bound.push(v);
                    }
                },
            }
        }
        eval_rec(query, db, atom_index + 1, binding, head, answers);
        for v in newly_bound {
            binding.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn setup() -> (Catalog, Database) {
        let catalog = Catalog::paper_example();
        let db = Database::paper_example(&catalog);
        (catalog, db)
    }

    fn tuple(values: &[&str]) -> Tuple {
        values.iter().map(|v| Constant::from(*v)).collect()
    }

    #[test]
    fn the_figure_1_instance_loads() {
        let (catalog, db) = setup();
        assert_eq!(db.len(), 6);
        assert!(!db.is_empty());
        assert_eq!(db.cardinality(catalog.resolve("Meetings").unwrap()), 3);
        assert_eq!(db.cardinality(catalog.resolve("Contacts").unwrap()), 3);
        assert!(Database::new().is_empty());
    }

    #[test]
    fn arity_is_validated_on_insert() {
        let (catalog, _) = setup();
        let meetings = catalog.resolve("Meetings").unwrap();
        let mut db = Database::new();
        let err = db
            .insert(&catalog, meetings, [Constant::from(9i64)])
            .unwrap_err();
        assert!(matches!(err, CqError::ArityMismatch { .. }));
        assert!(db.is_empty());
    }

    #[test]
    fn q1_returns_cathys_meeting_time() {
        // Q1(x) :- Meetings(x, 'Cathy') — Cathy is met at 10.
        let (catalog, db) = setup();
        let q1 = parse_query(&catalog, "Q1(x) :- Meetings(x, 'Cathy')").unwrap();
        let answers = evaluate(&q1, &db);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers.iter().next().unwrap(), &vec![Constant::Int(10)]);
    }

    #[test]
    fn q2_joins_meetings_with_interns() {
        // Q2(x) :- Meetings(x, y) ∧ Contacts(y, w, 'Intern') — only Cathy is
        // an intern, met at 10.
        let (catalog, db) = setup();
        let q2 = parse_query(
            &catalog,
            "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
        )
        .unwrap();
        let answers = evaluate(&q2, &db);
        assert_eq!(answers, BTreeSet::from([vec![Constant::Int(10)]]));
    }

    #[test]
    fn projections_and_boolean_queries() {
        let (catalog, db) = setup();
        let v2 = parse_query(&catalog, "V2(x) :- Meetings(x, y)").unwrap();
        let times = evaluate(&v2, &db);
        assert_eq!(
            times,
            BTreeSet::from([
                vec![Constant::Int(9)],
                vec![Constant::Int(10)],
                vec![Constant::Int(12)]
            ])
        );

        let v5 = parse_query(&catalog, "V5() :- Meetings(x, y)").unwrap();
        assert_eq!(evaluate(&v5, &db), BTreeSet::from([vec![]]));
        assert!(satisfiable(&v5, &db));

        // A query about someone who is never met is unsatisfiable.
        let nobody = parse_query(&catalog, "Q(x) :- Meetings(x, 'Nobody')").unwrap();
        assert!(!satisfiable(&nobody, &db));
        assert!(evaluate(&nobody, &db).is_empty());
    }

    #[test]
    fn head_order_follows_first_occurrence() {
        let (catalog, db) = setup();
        let v3 = parse_query(&catalog, "V3(x, y, z) :- Contacts(x, y, z)").unwrap();
        let answers = evaluate(&v3, &db);
        assert_eq!(answers.len(), 3);
        assert!(answers.contains(&tuple(&["Cathy", "cathy@e.com", "Intern"])));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (catalog, _) = setup();
        let meetings = catalog.resolve("Meetings").unwrap();
        let mut db = Database::new();
        db.insert(
            &catalog,
            meetings,
            [Constant::from("a"), Constant::from("a")],
        )
        .unwrap();
        db.insert(
            &catalog,
            meetings,
            [Constant::from("a"), Constant::from("b")],
        )
        .unwrap();
        let diag = parse_query(&catalog, "Q(x) :- Meetings(x, x)").unwrap();
        let answers = evaluate(&diag, &db);
        assert_eq!(answers, BTreeSet::from([tuple(&["a"])]));
    }

    #[test]
    fn equivalent_queries_have_equal_answers_on_the_example_instance() {
        use crate::containment::equivalent_same_space;
        use crate::folding::fold;
        let (catalog, db) = setup();
        let redundant = parse_query(
            &catalog,
            "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(y, e, p)",
        )
        .unwrap();
        let folded = fold(&redundant);
        assert!(equivalent_same_space(&folded, &redundant));
        assert_eq!(evaluate(&folded, &db), evaluate(&redundant, &db));
    }

    #[test]
    fn contained_queries_have_subset_answers() {
        let (catalog, db) = setup();
        let selective = parse_query(&catalog, "Q(x) :- Meetings(x, 'Cathy')").unwrap();
        let general = parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap();
        assert!(crate::containment::contained_in(&selective, &general));
        let sel_answers = evaluate(&selective, &db);
        let gen_answers = evaluate(&general, &db);
        assert!(sel_answers.is_subset(&gen_answers));
    }
}

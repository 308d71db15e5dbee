//! Conjunctive-query substrate for fine-grained disclosure control.
//!
//! This crate implements the query-language machinery that the disclosure
//! labeling framework of Bender, Kot, Gehrke and Koch (*Fine-Grained
//! Disclosure Control for App Ecosystems*, SIGMOD 2013) is built on:
//!
//! * [`Catalog`] — a relational schema (relation names, attribute names).
//! * [`Term`], [`Atom`], [`ConjunctiveQuery`] — the paper's representation of
//!   conjunctive queries as a list of body atoms whose variables are tagged
//!   *distinguished* or *existential* (Section 5 of the paper).
//! * [`parse_query`](parser::parse_query) — a small datalog-style parser for
//!   the notation used throughout the paper, e.g.
//!   `Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')`.
//! * [`homomorphism`] / [`containment`] — containment mappings between
//!   conjunctive queries (Chandra–Merlin), query equivalence.
//! * [`folding`] — query folding / core computation, used by the `Dissect`
//!   labeling algorithm.
//! * [`bitset`] — one-word / many-word bit sets over a query's atoms or
//!   variables, for the fold and the first-sight dissection.
//! * [`rewriting`] — equivalent view rewriting checks for single-atom views,
//!   the concrete disclosure order used by the paper's labelers.
//! * [`intern`] — the interned query plane: an arena-backed flat CQ
//!   representation with dense [`QueryId`]s and a zero-copy [`QueryRef`]
//!   view, which the fold runs on directly.
//!
//! The crate has no dependencies and is deliberately self-contained so that
//! the labeling layer (`fdc-core`) and the policy layer (`fdc-policy`) can be
//! tested and benchmarked without a SQL engine.
//!
//! # Quick example
//!
//! ```
//! use fdc_cq::{Catalog, parser::parse_query, rewriting::rewritable_from_single};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_relation("Meetings", &["time", "person"]).unwrap();
//!
//! let v1 = parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap();
//! let v2 = parse_query(&catalog, "V2(x) :- Meetings(x, y)").unwrap();
//!
//! // The projection V2 can be answered from the full view V1 ...
//! assert!(rewritable_from_single(&v2, &v1));
//! // ... but not the other way around.
//! assert!(!rewritable_from_single(&v1, &v2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod bitset;
pub mod canonical;
pub mod catalog;
pub mod containment;
pub mod database;
pub mod error;
pub mod folding;
pub mod homomorphism;
pub mod intern;
pub mod parser;
pub mod query;
pub mod rewriting;
pub mod substitution;
pub mod term;
pub mod wire;

pub use atom::{Atom, AtomRef, Terms};
pub use catalog::{Catalog, RelId, RelationSchema};
pub use database::{evaluate, Database};
pub use error::{CqError, Result};
pub use intern::{QueryId, QueryInterner, QueryRef};
pub use query::ConjunctiveQuery;
pub use term::{ConstRef, Constant, SmallStr, Term, TermRef, VarId, VarKind};

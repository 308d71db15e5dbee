//! Security policies and the reference monitor.
//!
//! This crate implements the policy side of the paper (Sections 3.4 and
//! 6.2): given the disclosure labels produced by `fdc-core`, decide whether
//! each incoming query may be answered without ever exceeding the principal's
//! permitted disclosure — including *cumulative* disclosure across the whole
//! query history and stateful Chinese-Wall policies.
//!
//! Two representations of policies are provided:
//!
//! * the **formal** one of Definition 3.9 ([`lattice_policy`]): a down-closed
//!   subset of an explicit lattice of disclosure labels, built on
//!   `fdc-order`.  Faithful to the theory, but exponential to materialize —
//!   used for the worked examples and to validate the compact
//!   representation.
//! * the **compact** one of Section 6.2 ([`policy`], [`monitor`],
//!   [`store`]): a policy is a small collection of *partitions*, each a set
//!   of permitted single-atom security views; the reference monitor keeps
//!   one bit per partition and makes decisions with a handful of bit-mask
//!   operations per query.  This is the representation benchmarked in the
//!   paper's Figure 6.
//!
//! The store that serves traffic, the multi-principal [`PolicyStore`],
//! further *compiles and interns* the compact representation
//! ([`compiled`]): a policy becomes one flat span of words, the only
//! compiled form there is, deduplicated across principals by the
//! [`PolicyArena`] so per-principal state is 24 bytes and the paper's
//! million-principal axis runs by default, and every decision is one loop
//! over that span.  The
//! single-principal [`ReferenceMonitor`] compiles nothing: it is Section
//! 6.2 as written, the specification that loop is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
#[doc(hidden)]
pub mod compat;
pub mod compiled;
pub mod lattice_policy;
pub mod monitor;
pub mod partition;
pub mod policy;
pub mod store;
pub mod wire;

pub use audit::{audit_app, audit_labels, requested_views, AuditReport};
#[doc(hidden)]
pub use compat::*;
pub use compiled::{initial_consistency_word, PolicyArena, MAX_PARTITIONS};
pub use monitor::{Decision, ReferenceMonitor};
pub use partition::PolicyPartition;
pub use policy::SecurityPolicy;
pub use store::{PolicyStore, PrincipalId};

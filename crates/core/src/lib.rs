//! Disclosure labelers for app ecosystems.
//!
//! This crate is the primary contribution of the reproduced paper (Bender,
//! Kot, Gehrke, Koch — *Fine-Grained Disclosure Control for App Ecosystems*,
//! SIGMOD 2013): practical algorithms that label arbitrary conjunctive
//! queries with the set of **security views** needed to answer them, under
//! the *equivalent view rewriting* disclosure order and single-atom security
//! views.
//!
//! The pipeline mirrors Sections 4–6 of the paper:
//!
//! 1. [`SecurityViews`] registers the single-atom security views (the
//!    generating set `Fgen` of Section 4.2) and assigns each a stable id and
//!    a bit position.
//! 2. [`dissect::dissect`] converts an arbitrary conjunctive query into a set
//!    of single-atom queries (Section 5.2): fold away redundant atoms, split
//!    into atoms, and promote join variables to distinguished.
//! 3. For each dissected atom, the labelers compute
//!    `ℓ⁺(V) = {Vi ∈ Fgen : {V} ⪯ {Vi}}`, the set of security views that can
//!    answer it (Section 6.1).  The bit-vector and cached labelers decide
//!    each (atom, view) pair by one positional rule ([`answers`]); the
//!    baseline and hash-partitioned ones run the rewriting check.
//! 4. The resulting [`DisclosureLabel`] supports the fast `⊇`-based
//!    comparisons used for policy enforcement in `fdc-policy`.
//!
//! Three labeler implementations are provided, matching the three curves of
//! the paper's Figure 5:
//!
//! * [`BaselineLabeler`] — a straightforward adaptation of the `LabelGen`
//!   algorithm of Section 4.2 (scans every security view for every atom);
//! * [`HashPartitionedLabeler`] — partitions the security views by relation
//!   with a hash table;
//! * [`BitVectorLabeler`] — hash partitioning plus the packed bit-vector
//!   label representation of Section 6.1.
//!
//! A fourth variant, [`CachedLabeler`], goes beyond the paper: it owns a
//! shared [`QueryInterner`](fdc_cq::intern::QueryInterner) and memoizes
//! whole-query labels by dense interned
//! [`QueryId`](fdc_cq::intern::QueryId) (sharded slot vectors instead of
//! hash maps); a miss computes each dissected part's `ℓ⁺` where the part
//! lies, and keeps what a refresh of the part needs.  Callers holding
//! pre-interned ids label through `CachedLabeler::label_interned` /
//! `label_queries_interned` without touching a hash function at all.
//!
//! The GLB machinery of Section 5.1 ([`unify::gen_mgu`],
//! [`unify::glb_singleton`]) and the generic labeling procedures of
//! Sections 3.3 and 4 ([`algorithms`]) are also exposed, both for
//! completeness and because the examples and the test suite exercise the
//! paper's worked examples through them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod answers;
#[doc(hidden)]
pub mod compat;
pub mod dissect;
pub mod error;
pub mod label;
pub mod labeler;
pub mod rewriting_order;
pub mod security_views;
pub mod unify;

#[doc(hidden)]
pub use compat::*;
pub use error::{LabelError, Result};
pub use label::{AtomLabel, DisclosureLabel, PackedLabel, ViewMask};
pub use labeler::{
    BaselineLabeler, BitVectorLabeler, CacheStats, CachedLabeler, DoorStats,
    HashPartitionedLabeler, QueryLabeler, DEFAULT_INTERN_BUDGET,
};
pub use security_views::{
    SecurityViewId, SecurityViews, MAX_PACKED_VIEWS_PER_RELATION, MAX_VIEWS_PER_RELATION,
};

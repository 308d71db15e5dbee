//! The service's slice of the durable state plane: WAL record payloads
//! and the checkpoint image.
//!
//! The layering is deliberate: `fdc-durability` moves opaque byte
//! strings (framing, checksums, segments, atomic snapshot files) and
//! knows nothing about disclosure control; *this* module defines what
//! those bytes mean for a [`DisclosureService`](crate::DisclosureService)
//! — which operations are logged, how each is encoded, and what a
//! checkpoint image contains.
//!
//! # What gets logged
//!
//! Every operation that changes the state — the id space included — as
//! [`WalOp`]s:
//!
//! * principal registration ([`WalOp::RegisterPrincipal`]),
//! * committed admissions ([`WalOp::Submit`] — submits move the
//!   per-principal consistency word and counters, so they are part of
//!   the durable state),
//! * checks of a boxed query ([`WalOp::Check`]) — the first sight of a
//!   shape mints its id, so a boxed check is logged like a boxed submit;
//!   interned checks and audits are read-only and are *not* logged,
//! * explicit interns of a new shape ([`WalOp::Define`], the id the
//!   caller was handed and its query),
//! * policy mutations ([`WalOp::GrantView`] / [`WalOp::RevokeView`] /
//!   [`WalOp::ReplacePolicy`]),
//! * view-universe mutations ([`WalOp::AddSecurityView`]).
//!
//! Interned submissions (`SubmitInterned`) are logged as their resolved
//! canonical query: replay goes through the plain-query path and
//! re-interns the same canonical form.  Every id is minted by one of these
//! records, in minting order, so replay mints the same [`QueryId`]s; a
//! `Define` that re-interns to another id fails the open.
//!
//! Replay applies the decoded operations through the same internal entry
//! points the live service uses, so a rejected operation (unknown
//! principal, duplicate view name) rejects identically on replay and
//! changes nothing — logging before validation is safe.

use std::path::PathBuf;
use std::sync::Arc;

use fdc_cq::intern::QueryId;
use fdc_cq::{wire, Catalog, ConjunctiveQuery};
use fdc_durability::codec::{put_str, put_u32, put_u8, CodecError, Cursor};
use fdc_durability::{Clock, Vfs, WalStats, WalWriter};
use fdc_policy::{PrincipalId, SecurityPolicy};

use crate::health::{DegradedMode, ServiceMode};

/// WAL record tag: principal registration.
const TAG_REGISTER: u8 = 1;
/// WAL record tag: a committed admission.
const TAG_SUBMIT: u8 = 2;
/// WAL record tag: a view grant.
const TAG_GRANT: u8 = 3;
/// WAL record tag: a view revocation.
const TAG_REVOKE: u8 = 4;
/// WAL record tag: an online view registration.
const TAG_ADD_VIEW: u8 = 5;
/// WAL record tag: a wholesale policy replacement.
const TAG_REPLACE_POLICY: u8 = 6;
/// WAL record tag: a check of a boxed query.
const TAG_CHECK: u8 = 7;
/// WAL record tag: an explicitly interned new shape.
const TAG_DEFINE: u8 = 8;

/// One state-changing operation, as recorded in (and decoded from) the
/// write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A principal was registered with this policy.
    RegisterPrincipal {
        /// The registered policy.
        policy: SecurityPolicy,
    },
    /// A query was submitted (committed) on behalf of a principal.
    /// Interned submissions are recorded as their resolved canonical
    /// query.
    Submit {
        /// The submitting principal.
        principal: PrincipalId,
        /// The submitted query.
        query: ConjunctiveQuery,
    },
    /// A security view was granted to a principal.
    GrantView {
        /// The principal gaining the permission.
        principal: PrincipalId,
        /// Name of the granted view.
        view: String,
    },
    /// A security view was revoked from a principal.
    RevokeView {
        /// The principal losing the permission.
        principal: PrincipalId,
        /// Name of the revoked view.
        view: String,
    },
    /// A new security view was registered online.
    AddSecurityView {
        /// Unique name of the new view.
        name: String,
        /// The single-atom view definition.
        query: ConjunctiveQuery,
    },
    /// A principal's policy was replaced wholesale.
    ReplacePolicy {
        /// The principal whose policy changed.
        principal: PrincipalId,
        /// The replacement policy.
        policy: SecurityPolicy,
    },
    /// A boxed query was checked (not committed) on behalf of a principal.
    Check {
        /// The checking principal.
        principal: PrincipalId,
        /// The checked query.
        query: ConjunctiveQuery,
    },
    /// [`DisclosureService::intern`](crate::DisclosureService::intern)
    /// minted `id` for a new shape.
    Define {
        /// The id the caller was handed.
        id: QueryId,
        /// The interned query.
        query: ConjunctiveQuery,
    },
}

/// Encodes a [`WalOp::RegisterPrincipal`] payload.
pub fn encode_register(policy: &SecurityPolicy, out: &mut Vec<u8>) {
    put_u8(out, TAG_REGISTER);
    fdc_policy::wire::encode_policy(policy, out);
}

/// Encodes a [`WalOp::Submit`] payload.
pub fn encode_submit(principal: PrincipalId, query: &ConjunctiveQuery, out: &mut Vec<u8>) {
    put_u8(out, TAG_SUBMIT);
    put_u32(out, principal.0);
    wire::encode_query(query, out);
}

/// Encodes a [`WalOp::GrantView`] payload.
pub fn encode_grant(principal: PrincipalId, view: &str, out: &mut Vec<u8>) {
    put_u8(out, TAG_GRANT);
    put_u32(out, principal.0);
    put_str(out, view);
}

/// Encodes a [`WalOp::RevokeView`] payload.
pub fn encode_revoke(principal: PrincipalId, view: &str, out: &mut Vec<u8>) {
    put_u8(out, TAG_REVOKE);
    put_u32(out, principal.0);
    put_str(out, view);
}

/// Encodes a [`WalOp::AddSecurityView`] payload.
pub fn encode_add_view(name: &str, query: &ConjunctiveQuery, out: &mut Vec<u8>) {
    put_u8(out, TAG_ADD_VIEW);
    put_str(out, name);
    wire::encode_query(query, out);
}

/// Encodes a [`WalOp::ReplacePolicy`] payload.
pub fn encode_replace_policy(principal: PrincipalId, policy: &SecurityPolicy, out: &mut Vec<u8>) {
    put_u8(out, TAG_REPLACE_POLICY);
    put_u32(out, principal.0);
    fdc_policy::wire::encode_policy(policy, out);
}

/// Encodes a [`WalOp::Check`] payload.
pub fn encode_check(principal: PrincipalId, query: &ConjunctiveQuery, out: &mut Vec<u8>) {
    put_u8(out, TAG_CHECK);
    put_u32(out, principal.0);
    wire::encode_query(query, out);
}

/// Encodes a [`WalOp::Define`] payload.
pub fn encode_define(id: QueryId, query: &ConjunctiveQuery, out: &mut Vec<u8>) {
    put_u8(out, TAG_DEFINE);
    put_u32(out, id.0);
    wire::encode_query(query, out);
}

impl WalOp {
    /// Encodes this operation as one WAL record payload — the inverse of
    /// [`decode_wal_op`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::RegisterPrincipal { policy } => encode_register(policy, out),
            WalOp::Submit { principal, query } => encode_submit(*principal, query, out),
            WalOp::GrantView { principal, view } => encode_grant(*principal, view, out),
            WalOp::RevokeView { principal, view } => encode_revoke(*principal, view, out),
            WalOp::AddSecurityView { name, query } => encode_add_view(name, query, out),
            WalOp::ReplacePolicy { principal, policy } => {
                encode_replace_policy(*principal, policy, out)
            }
            WalOp::Check { principal, query } => encode_check(*principal, query, out),
            WalOp::Define { id, query } => encode_define(*id, query, out),
        }
    }
}

/// Decodes one WAL record payload.  `catalog` resolves the relation ids
/// inside query payloads — the catalog is fixed for the life of a
/// service (only the *view* universe evolves), so the live catalog is
/// the right authority for every record.
pub fn decode_wal_op(catalog: &Catalog, payload: &[u8]) -> Result<WalOp, CodecError> {
    let mut cursor = Cursor::new(payload);
    let at = cursor.pos();
    let tag = cursor.u8()?;
    let op = match tag {
        TAG_REGISTER => WalOp::RegisterPrincipal {
            policy: fdc_policy::wire::decode_policy(&mut cursor)?,
        },
        TAG_SUBMIT | TAG_CHECK => {
            let principal = PrincipalId(cursor.u32()?);
            let query = wire::decode_query(&mut cursor)?;
            validate_query(catalog, &query, cursor.pos())?;
            if tag == TAG_SUBMIT {
                WalOp::Submit { principal, query }
            } else {
                WalOp::Check { principal, query }
            }
        }
        TAG_DEFINE => {
            let id = QueryId(cursor.u32()?);
            let query = wire::decode_query(&mut cursor)?;
            validate_query(catalog, &query, cursor.pos())?;
            WalOp::Define { id, query }
        }
        TAG_GRANT => WalOp::GrantView {
            principal: PrincipalId(cursor.u32()?),
            view: cursor.str()?.to_owned(),
        },
        TAG_REVOKE => WalOp::RevokeView {
            principal: PrincipalId(cursor.u32()?),
            view: cursor.str()?.to_owned(),
        },
        TAG_ADD_VIEW => {
            let name = cursor.str()?.to_owned();
            let query = wire::decode_query(&mut cursor)?;
            validate_query(catalog, &query, cursor.pos())?;
            WalOp::AddSecurityView { name, query }
        }
        TAG_REPLACE_POLICY => WalOp::ReplacePolicy {
            principal: PrincipalId(cursor.u32()?),
            policy: fdc_policy::wire::decode_policy(&mut cursor)?,
        },
        other => {
            return Err(CodecError::invalid(
                at,
                format!("unknown WAL operation tag {other}"),
            ))
        }
    };
    cursor.expect_end()?;
    Ok(op)
}

/// Rejects decoded queries whose atoms reference relations outside the
/// catalog: the query codec is catalog-agnostic, but a replayed query
/// with a foreign relation id would panic deep inside the labeler.
pub(crate) fn validate_query(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    offset: usize,
) -> Result<(), CodecError> {
    for atom in query.atoms() {
        if atom.relation.index() >= catalog.len() {
            return Err(CodecError::invalid(
                offset,
                format!(
                    "query references relation id {} outside the {}-relation catalog",
                    atom.relation.0,
                    catalog.len()
                ),
            ));
        }
    }
    Ok(())
}

/// What [`open_durable`](crate::DisclosureService::open_durable) did to
/// bring the service back: which checkpoint seeded the state, how much
/// WAL tail was replayed on top of it, and what the recovery scan left
/// behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint the state was loaded from
    /// (`0` when no checkpoint existed and the state was rebuilt from
    /// the initial registry plus a full replay).
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// The last sequence number in the recovered log (`checkpoint_seq`
    /// when the tail was empty).  The next logged operation carries
    /// `last_seq + 1`.
    pub last_seq: u64,
    /// Bytes past the log's valid prefix that recovery discarded: the
    /// torn tail of the active segment (the crash landed mid-record)
    /// plus any unreachable later segments.  `0` when the log was
    /// cleanly closed.
    pub discarded_bytes: u64,
    /// Residual record frames inside those discarded bytes — a lower
    /// bound on the operations whose records never fully reached disk
    /// (by the write-ahead contract, operations that were never
    /// acknowledged).
    pub discarded_records: u64,
    /// Orphaned checkpoint temporaries (`ckpt-*.tmp`, stranded by a
    /// crash between temp write and rename) swept on open.
    pub temps_swept: u64,
}

/// The service's handle on its durable home: the appending side of the
/// WAL (absent while serving degraded), the directory checkpoints land
/// in, the storage/clock the plane runs on, and the health bookkeeping
/// behind [`DurabilityHealth`](crate::DurabilityHealth).
#[derive(Debug)]
pub(crate) struct DurableState {
    /// The live WAL writer, or `None` while degraded (the dead writer's
    /// counters are folded into `wal_base` when it is dropped).
    pub(crate) writer: Option<WalWriter>,
    pub(crate) dir: PathBuf,
    /// The filesystem the durable plane runs on — [`fdc_durability::StdVfs`]
    /// in production, a fault injector in the robustness suites.
    pub(crate) vfs: Arc<dyn Vfs>,
    /// Paces commit-retry backoff; injectable so fault tests run instantly.
    pub(crate) clock: Arc<dyn Clock>,
    /// WAL counters carried over from writers dropped on degradation.
    pub(crate) wal_base: WalStats,
    pub(crate) mode: ServiceMode,
    pub(crate) mode_transitions: u64,
    pub(crate) checkpoints: u64,
    pub(crate) checkpoint_failures: u64,
    pub(crate) last_checkpoint_seq: u64,
    /// Sequence number of the last *durably committed* record.  Lags
    /// `writer.next_seq() - 1` only transiently inside a failing batch;
    /// while degraded it is the frozen durable horizon checkpoints are
    /// taken at.
    pub(crate) last_seq: u64,
    /// What recovery found when this service was opened.
    pub(crate) report: RecoveryReport,
}

impl DurableState {
    /// Lifetime WAL counters: the folded base plus the live writer's.
    pub(crate) fn wal_stats(&self) -> WalStats {
        let mut total = self.wal_base;
        if let Some(writer) = &self.writer {
            total.absorb(writer.stats());
        }
        total
    }

    /// Drops the (dead) writer, folds its counters into the base, and
    /// enters degraded read-only serving.  Idempotent.
    pub(crate) fn degrade(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.wal_base.absorb(writer.stats());
        }
        if self.mode == ServiceMode::Healthy {
            self.mode = ServiceMode::Degraded(DegradedMode::ReadOnly);
            self.mode_transitions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::SecurityViews;
    use fdc_cq::parser::parse_query;
    use fdc_policy::PolicyPartition;

    fn ops(catalog: &Catalog) -> Vec<WalOp> {
        let registry = SecurityViews::paper_example();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let policy = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        vec![
            WalOp::RegisterPrincipal {
                policy: policy.clone(),
            },
            WalOp::Submit {
                principal: PrincipalId(0),
                query: parse_query(catalog, "Q(x, y) :- Meetings(x, y)").unwrap(),
            },
            WalOp::GrantView {
                principal: PrincipalId(0),
                view: "V2".into(),
            },
            WalOp::RevokeView {
                principal: PrincipalId(3),
                view: "V1".into(),
            },
            WalOp::AddSecurityView {
                name: "V9".into(),
                query: parse_query(catalog, "V9(x) :- Meetings(x, y)").unwrap(),
            },
            WalOp::ReplacePolicy {
                principal: PrincipalId(1),
                policy,
            },
            WalOp::Check {
                principal: PrincipalId(2),
                query: parse_query(catalog, "Q(x) :- Meetings(x, 'Cathy')").unwrap(),
            },
            WalOp::Define {
                id: QueryId(5),
                query: parse_query(catalog, "Q(z) :- Contacts(x, y, z)").unwrap(),
            },
        ]
    }

    #[test]
    fn every_wal_op_round_trips() {
        let catalog = Catalog::paper_example();
        for op in ops(&catalog) {
            let mut payload = Vec::new();
            op.encode_into(&mut payload);
            let back = decode_wal_op(&catalog, &payload).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn truncated_and_corrupt_payloads_are_errors() {
        let catalog = Catalog::paper_example();
        for op in ops(&catalog) {
            let mut payload = Vec::new();
            op.encode_into(&mut payload);
            for cut in 0..payload.len() {
                assert!(
                    decode_wal_op(&catalog, &payload[..cut]).is_err(),
                    "{op:?} truncated to {cut} bytes must not decode"
                );
            }
            // Trailing garbage past a well-formed op is rejected too.
            let mut padded = payload.clone();
            padded.push(0xAB);
            assert!(decode_wal_op(&catalog, &padded).is_err());
        }
        for tag in [0, TAG_DEFINE + 1, 99] {
            let err = decode_wal_op(&catalog, &[tag]).unwrap_err();
            let expected = format!("unknown WAL operation tag {tag}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn foreign_relation_ids_are_rejected() {
        let catalog = Catalog::paper_example();
        let query = parse_query(&catalog, "Q(x, y) :- Meetings(x, y)").unwrap();
        let mut payload = Vec::new();
        encode_submit(PrincipalId(0), &query, &mut payload);
        // The relation id of the single atom sits somewhere in the query
        // encoding; rather than hunt for it, re-encode against a larger
        // catalog and decode against the paper one.
        let mut big = Catalog::new();
        for i in 0..10 {
            big.add_relation(&format!("R{i}"), &["a", "b"]).unwrap();
        }
        let foreign = parse_query(&big, "Q(x, y) :- R7(x, y)").unwrap();
        let mut bad = Vec::new();
        encode_submit(PrincipalId(0), &foreign, &mut bad);
        assert!(decode_wal_op(&catalog, &bad).is_err());
        // The original payload still decodes.
        assert!(decode_wal_op(&catalog, &payload).is_ok());
    }
}

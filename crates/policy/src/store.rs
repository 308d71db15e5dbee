//! The multi-principal policy checker (the system benchmarked in Figure 6).
//!
//! Section 6.2 restricts its exposition to a single principal and notes that
//! the generalization to multiple principals is straightforward; the
//! evaluation (Section 7.2) then runs the policy checker with between 1,000
//! and 1,000,000 distinct principals, each with its own randomly generated
//! policy.  [`PolicyStore`] is that generalization, engineered for the full
//! million-principal axis:
//!
//! * **Compile once, intern everywhere.**  A policy is compiled into one
//!   flat word span ([`crate::compiled`], the only compiled form) and
//!   interned in a [`PolicyArena`]: each distinct policy is stored once,
//!   however many principals share it.  Registration, `replace_policy`,
//!   grants and revokes all work on the compiled form, in a scratch span
//!   the store owns: a grant or revoke is a bit flip on a copy of the
//!   principal's span, and a mutation that lands on a known form hashes
//!   once, probes once and allocates nothing.
//! * **Cache-line-sized principals.**  Per-principal state is a 24-byte
//!   record — a `u32` arena index, a `u64` consistency word and two `u32`
//!   counters — in one dense `Vec`, so a policy decision touches the
//!   principal's record plus a (hot, shared) compiled policy and nothing
//!   else.
//! * **One decide loop.**  Every entry point — `submit`, `check`, their
//!   packed forms, `decide_packed` — hands its label's `(relation, mask)`
//!   atoms to the arena's `surviving_bits` and commits, or does not, what
//!   comes back; the packed forms read the labeler's 64-bit labels
//!   (Section 6.1) as they are, so labeler output flows to a decision
//!   without unpacking.  What the loop must compute is written down,
//!   uncompiled, in [`ReferenceMonitor`](crate::ReferenceMonitor).

use fdc_core::{DisclosureLabel, PackedLabel, SecurityViewId, SecurityViews, ViewMask};
use fdc_cq::{Catalog, RelId};

use crate::compiled::{initial_consistency_word, PolicyArena};
use crate::monitor::Decision;
use crate::policy::SecurityPolicy;

/// Identifier of a principal (an app, in the Facebook setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u32);

impl PrincipalId {
    /// Returns the id as a usize, convenient for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-principal enforcement state: 24 bytes, cache-line friendly.
///
/// Per-principal counters are `u32` (4 billion queries per principal); the
/// store-level totals are `u64`.
#[derive(Debug, Clone, Copy)]
struct PrincipalState {
    /// Index of the principal's policy in the arena.
    policy: u32,
    answered: u32,
    refused: u32,
    /// Bit `i` set ⇔ the queries answered so far are below partition `i`.
    consistent: u64,
}

/// A policy checker for many principals, backed by an interning
/// [`PolicyArena`].
///
/// The arena lives behind an `Arc` so that cloning a store — what a
/// checkpoint's freeze does — pins the compiled-policy universe without
/// copying it.  Mutations go
/// copy-on-write ([`PolicyArena::intern`]): the steady-state churn outcome
/// (a grant or revoke landing on a known compiled form) resolves through
/// the shared pointer and never clones; only a genuinely new compiled form
/// clones the arena, and only while a clone of the store is outstanding.
#[derive(Debug, Clone, Default)]
pub struct PolicyStore {
    arena: std::sync::Arc<PolicyArena>,
    /// Where every mutation builds the span it resolves — outside the
    /// `Arc`, so resolving a known form writes nothing shared.
    scratch: Vec<u64>,
    states: Vec<PrincipalState>,
    answered_total: u64,
    refused_total: u64,
}

impl PolicyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PolicyStore::default()
    }

    /// Registers a principal with its policy and returns its id.
    ///
    /// The policy is compiled and interned: principals with structurally
    /// identical policies (up to partition names) share one arena entry.
    ///
    /// # Panics
    ///
    /// Panics if the policy has more than
    /// [`MAX_PARTITIONS`](crate::MAX_PARTITIONS) partitions — the
    /// consistency bit vector is a single `u64`, exactly as in
    /// [`ReferenceMonitor::new`](crate::ReferenceMonitor::new).
    pub fn register(&mut self, policy: SecurityPolicy) -> PrincipalId {
        let id = PrincipalId(self.states.len() as u32);
        let consistent = initial_consistency_word(policy.len());
        self.states.push(PrincipalState {
            policy: PolicyArena::intern(&mut self.arena, &mut self.scratch, policy),
            answered: 0,
            refused: 0,
            consistent,
        });
        id
    }

    /// Replaces a principal's policy online, preserving its consistency
    /// word and counters.
    ///
    /// The new policy is compiled and re-interned through the shared arena
    /// (structurally known policies reuse their entry; genuinely new ones
    /// are appended), and the principal's record is repointed — an O(policy
    /// size) mutation that never touches other principals or recomputes any
    /// label.
    ///
    /// The consistency word is carried over bit for bit, so the new policy
    /// **must have the same number of partitions** in the same declaration
    /// order: bit `i` keeps meaning "the answered history is below partition
    /// `i`".  Grants widen only *future* admissions (partitions the history
    /// already violated stay inconsistent — the monitor keeps no history to
    /// re-judge) and revokes narrow only future admissions (the already
    /// answered disclosure cannot be taken back).  This is the documented
    /// semantics of online permission churn, mirrored by
    /// [`grant_view`](Self::grant_view) / [`revoke_view`](Self::revoke_view).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store, if the partition count
    /// changes, or if the policy exceeds
    /// [`MAX_PARTITIONS`](crate::MAX_PARTITIONS).
    pub fn replace_policy(&mut self, principal: PrincipalId, policy: SecurityPolicy) {
        let state = &mut self.states[principal.index()];
        assert_eq!(
            policy.len(),
            self.arena.num_partitions(state.policy),
            "replace_policy must preserve the partition count \
             (the consistency word is carried over bit for bit)"
        );
        state.policy = PolicyArena::intern(&mut self.arena, &mut self.scratch, policy);
    }

    /// Grants one more security view to a principal: every partition of its
    /// policy gains the view, so whichever wall side the principal has
    /// committed to can use the new permission.  The consistency word and
    /// counters are preserved (see [`replace_policy`](Self::replace_policy)).
    ///
    /// The grant is made on the compiled form: the principal's span is
    /// copied into the store's scratch and the view's bit set in its
    /// relation's row for every partition — the table grows when the
    /// relation lies past it — and the result is resolved against the
    /// arena.  No boxed policy is cloned: a form the arena has never held
    /// records the grant, and its source (the old one plus
    /// [`permit`](crate::PolicyPartition::permit)) is built when
    /// [`policy`](Self::policy) or a checkpoint first asks for it.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn grant_view(
        &mut self,
        principal: PrincipalId,
        registry: &SecurityViews,
        view: SecurityViewId,
    ) {
        self.edit_view(principal, registry, view, true);
    }

    /// Revokes a security view from a principal: every partition of its
    /// policy loses the view.  Future queries needing it are refused; the
    /// consistency word and counters are preserved (already answered
    /// disclosure cannot be taken back — see
    /// [`replace_policy`](Self::replace_policy)).
    ///
    /// Like [`grant_view`](Self::grant_view), a bit flip on a copy of the
    /// principal's span: the bit is cleared in every partition's word, and
    /// the table shrinks while its top row is empty, so the result is the
    /// span of the same policy registered without the view.  Revoking a
    /// view no partition holds keeps the principal's id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn revoke_view(
        &mut self,
        principal: PrincipalId,
        registry: &SecurityViews,
        view: SecurityViewId,
    ) {
        self.edit_view(principal, registry, view, false);
    }

    /// [`grant_view`](Self::grant_view) (`grant`) or
    /// [`revoke_view`](Self::revoke_view).
    fn edit_view(
        &mut self,
        principal: PrincipalId,
        registry: &SecurityViews,
        view: SecurityViewId,
        grant: bool,
    ) {
        let state = &mut self.states[principal.index()];
        let view = registry.view(view);
        let bit = (view.relation, 1 << view.bit);
        state.policy =
            PolicyArena::edit(&mut self.arena, &mut self.scratch, state.policy, bit, grant);
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if no principals are registered.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The policy of a principal.
    ///
    /// Interning keeps one source policy per distinct compiled form, so this
    /// returns the first-registered representative of the principal's
    /// policy — identical up to partition names.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn policy(&self, principal: PrincipalId) -> &SecurityPolicy {
        self.arena.source(self.states[principal.index()].policy)
    }

    /// The interning arena backing this store.
    pub fn arena(&self) -> &PolicyArena {
        &self.arena
    }

    /// Number of distinct compiled policies across all principals.
    pub fn unique_policies(&self) -> usize {
        self.arena.len()
    }

    /// Bytes of per-principal state (excluding the shared arena) — the
    /// footprint that scales with the principal count.
    pub fn state_bytes(&self) -> usize {
        self.states.len() * std::mem::size_of::<PrincipalState>()
    }

    /// The consistency bit vector of a principal (Example 6.3).
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this store.
    pub fn consistency_bits(&self, principal: PrincipalId) -> u64 {
        self.states[principal.index()].consistent
    }

    /// Judges one label — its atoms as `(relation, ℓ⁺ mask)` pairs —
    /// against the principal's policy and consistency word: the word the
    /// principal would carry after the label is answered, or `None` if it
    /// must be refused.  Every decision this store makes is this call.
    #[inline]
    fn judge(
        &self,
        principal: PrincipalId,
        atoms: impl ExactSizeIterator<Item = (RelId, ViewMask)>,
    ) -> Option<u64> {
        let state = &self.states[principal.index()];
        // ⊥ discloses nothing: it is answerable under every policy, the
        // empty one (whose word is 0) included, and survives as the word
        // it found.
        let bottom = atoms.len() == 0;
        let surviving = self
            .arena
            .surviving_bits(state.policy, state.consistent, atoms);
        (bottom || surviving != 0).then_some(surviving)
    }

    /// Commits a submit's verdict (see [`judge`](Self::judge)).
    #[inline]
    fn commit(&mut self, principal: PrincipalId, verdict: Option<u64>) -> Decision {
        let state = &mut self.states[principal.index()];
        match verdict {
            Some(consistent) => {
                state.consistent = consistent;
                state.answered += 1;
                self.answered_total += 1;
                Decision::Allow
            }
            None => {
                state.refused += 1;
                self.refused_total += 1;
                Decision::Deny
            }
        }
    }

    /// Submits a query label on behalf of a principal, updating that
    /// principal's cumulative state exactly like
    /// [`ReferenceMonitor::submit`](crate::ReferenceMonitor::submit).
    pub fn submit(&mut self, principal: PrincipalId, label: &DisclosureLabel) -> Decision {
        let verdict = self.judge(principal, unpacked(label));
        self.commit(principal, verdict)
    }

    /// [`submit`](Self::submit) on the packed 64-bit label representation
    /// (Section 6.1) — the store side of the packed end-to-end path.
    ///
    /// Packed atom labels carry 32-bit view masks, so the packed entry
    /// points apply to registries with at most 32 views per relation (the
    /// paper's layout).
    pub fn submit_packed(&mut self, principal: PrincipalId, label: &[PackedLabel]) -> Decision {
        let verdict = self.judge(principal, packed(label));
        self.commit(principal, verdict)
    }

    /// Pure check (no state update) for a principal.
    pub fn check(&self, principal: PrincipalId, label: &DisclosureLabel) -> Decision {
        answer(self.judge(principal, unpacked(label)))
    }

    /// [`check`](Self::check) on the packed 64-bit label representation.
    pub fn check_packed(&self, principal: PrincipalId, label: &[PackedLabel]) -> Decision {
        answer(self.judge(principal, packed(label)))
    }

    /// Decides one packed request, committing the state change only when
    /// `commit` is true — [`submit_packed`](Self::submit_packed) and
    /// [`check_packed`](Self::check_packed) behind one entry point, so a
    /// mixed stream of submits and checks keeps a single dispatch loop.
    #[inline]
    pub fn decide_packed(
        &mut self,
        principal: PrincipalId,
        label: &[PackedLabel],
        commit: bool,
    ) -> Decision {
        if commit {
            self.submit_packed(principal, label)
        } else {
            self.check_packed(principal, label)
        }
    }

    /// Serializes the store — the arena's source policies in interning
    /// order, the raw 24-byte principal records, the store totals — into
    /// `out` (a checkpoint's whole store section).
    ///
    /// The arena's compiled spans are *not* written: [`PolicyArena::intern`]
    /// is deterministic over the source policies in order, so decoding
    /// re-interns them and reproduces the identical spans and arena ids.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use fdc_durability::codec::{put_len, put_u32, put_u64};
        put_len(out, self.arena.len());
        for index in 0..self.arena.len() {
            crate::wire::encode_policy(self.arena.source(index as u32), out);
        }
        put_len(out, self.states.len());
        for state in &self.states {
            put_u32(out, state.policy);
            put_u32(out, state.answered);
            put_u32(out, state.refused);
            put_u64(out, state.consistent);
        }
        put_u64(out, self.answered_total);
        put_u64(out, self.refused_total);
    }

    /// Deserializes a store written by [`encode_into`](Self::encode_into).
    ///
    /// This is the checkpoint **bulkload path**: the arena is rebuilt once
    /// by re-interning the (deduplicated) source policies, then the
    /// per-principal records are pushed raw — no per-principal policy
    /// clone, compile or interning-index probe, which is what makes a
    /// 100K–1M-principal cold start near-instant compared to re-running
    /// the registration workload.
    ///
    /// Every policy must fit `catalog` (a policy compiles to a table with
    /// one row per relation id up to the highest it names, so a relation id
    /// from hostile bytes would size an allocation), and every consistency
    /// word must be one construction can produce: no bit at or past its
    /// policy's partition count, and not `0` for a policy that has
    /// partitions.  Like every other defect of the input, one that breaks
    /// either is a [`CodecError`] carrying its offset, never a panic.
    ///
    /// [`CodecError`]: fdc_durability::codec::CodecError
    pub fn decode_from(
        cursor: &mut fdc_durability::codec::Cursor<'_>,
        catalog: &Catalog,
    ) -> std::result::Result<Self, fdc_durability::codec::CodecError> {
        use fdc_durability::codec::CodecError;
        let num_policies = cursor.count(8)?;
        let mut store = PolicyStore::new();
        for expected in 0..num_policies {
            let at = cursor.pos();
            let policy = crate::wire::decode_policy(cursor)?;
            if policy.len() > crate::MAX_PARTITIONS {
                return Err(CodecError::invalid(at, "policy exceeds MAX_PARTITIONS"));
            }
            if policy.relation_bound() > catalog.len() {
                return Err(CodecError::invalid(
                    at,
                    "policy names a relation outside the catalog",
                ));
            }
            let index = PolicyArena::intern(&mut store.arena, &mut store.scratch, policy);
            if index as usize != expected {
                return Err(CodecError::invalid(
                    at,
                    "duplicate source policy in arena encoding",
                ));
            }
        }
        let num_states = cursor.count(20)?;
        store.states.reserve(num_states);
        for _ in 0..num_states {
            let at = cursor.pos();
            let policy = cursor.u32()?;
            let answered = cursor.u32()?;
            let refused = cursor.u32()?;
            let consistent = cursor.u64()?;
            if policy as usize >= store.arena.len() {
                return Err(CodecError::invalid(
                    at,
                    "principal policy index out of range",
                ));
            }
            // Construction starts every word at one bit per partition and a
            // submit only clears bits, never the last one (a label no
            // partition survives is refused and leaves the word as it was).
            let partitions = store.arena.num_partitions(policy);
            if consistent & !initial_consistency_word(partitions) != 0 {
                return Err(CodecError::invalid(
                    at + 12,
                    "consistency word sets a bit past its policy's partitions",
                ));
            }
            if partitions > 0 && consistent == 0 {
                return Err(CodecError::invalid(
                    at + 12,
                    "consistency word is 0 for a policy with partitions",
                ));
            }
            store.states.push(PrincipalState {
                policy,
                answered,
                refused,
                consistent,
            });
        }
        store.answered_total = cursor.u64()?;
        store.refused_total = cursor.u64()?;
        Ok(store)
    }

    /// `(answered, refused)` counters for a principal.
    pub fn stats(&self, principal: PrincipalId) -> (u64, u64) {
        let s = &self.states[principal.index()];
        (u64::from(s.answered), u64::from(s.refused))
    }

    /// Total `(answered, refused)` across all principals.
    ///
    /// O(1): the totals are maintained on every submit rather than
    /// recomputed by walking the principal table.
    pub fn totals(&self) -> (u64, u64) {
        (self.answered_total, self.refused_total)
    }
}

/// The atoms of an unpacked label, as the decide loop takes them.
#[inline]
fn unpacked(label: &DisclosureLabel) -> impl ExactSizeIterator<Item = (RelId, ViewMask)> + '_ {
    label.atoms().iter().map(|atom| (atom.relation, atom.mask))
}

/// The atoms of a packed label, as the decide loop takes them.
#[inline]
fn packed(label: &[PackedLabel]) -> impl ExactSizeIterator<Item = (RelId, ViewMask)> + '_ {
    label
        .iter()
        .map(|atom| (atom.relation(), ViewMask::from(atom.mask())))
}

/// A verdict (see `PolicyStore::judge`) as a decision.
#[inline]
fn answer(verdict: Option<u64>) -> Decision {
    if verdict.is_some() {
        Decision::Allow
    } else {
        Decision::Deny
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PolicyPartition;
    use fdc_core::{BaselineLabeler, QueryLabeler, SecurityViews};
    use fdc_cq::parser::parse_query;

    fn setup() -> (SecurityViews, BaselineLabeler) {
        let registry = SecurityViews::paper_example();
        let labeler = BaselineLabeler::new(registry.clone());
        (registry, labeler)
    }

    fn label(labeler: &BaselineLabeler, text: &str) -> DisclosureLabel {
        let catalog = labeler.security_views().catalog();
        labeler.label_query(&parse_query(catalog, text).unwrap())
    }

    #[test]
    fn principals_are_isolated_from_each_other() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let wall = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);

        let mut store = PolicyStore::new();
        let alice_app = store.register(wall.clone());
        let bob_app = store.register(wall);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        // Identical policies are interned into one arena entry.
        assert_eq!(store.unique_policies(), 1);

        let meetings = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        let contacts = label(&labeler, "Q(x, y, z) :- Contacts(x, y, z)");

        // Alice's app commits to Meetings, Bob's to Contacts.
        assert!(store.submit(alice_app, &meetings).is_allow());
        assert!(store.submit(bob_app, &contacts).is_allow());
        // Each is now locked out of the other side — independently.
        assert!(!store.submit(alice_app, &contacts).is_allow());
        assert!(!store.submit(bob_app, &meetings).is_allow());
        // But still fine on their own side.
        assert!(store.submit(alice_app, &meetings).is_allow());
        assert!(store.submit(bob_app, &contacts).is_allow());

        assert_eq!(store.stats(alice_app), (2, 1));
        assert_eq!(store.stats(bob_app), (2, 1));
        assert_eq!(store.totals(), (4, 2));
        // The consistency words evolved independently.
        assert_eq!(store.consistency_bits(alice_app), 0b01);
        assert_eq!(store.consistency_bits(bob_app), 0b10);
    }

    #[test]
    fn check_does_not_mutate_state() {
        let (registry, labeler) = setup();
        let policy = SecurityPolicy::allow_all(&registry);
        let mut store = PolicyStore::new();
        let p = store.register(policy);
        let meetings = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        assert!(store.check(p, &meetings).is_allow());
        assert!(store.check_packed(p, &meetings.pack()).is_allow());
        assert_eq!(store.stats(p), (0, 0));
        assert!(store.submit(p, &meetings).is_allow());
        assert_eq!(store.stats(p), (1, 0));
        assert!(store.check(p, &DisclosureLabel::bottom()).is_allow());
        assert!(store.check_packed(p, &[]).is_allow());
    }

    #[test]
    fn empty_policy_principals_refuse_everything() {
        let (_, labeler) = setup();
        let mut store = PolicyStore::new();
        let p = store.register(SecurityPolicy::new());
        assert_eq!(store.policy(p).len(), 0);
        let meetings = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        assert!(!store.submit(p, &meetings).is_allow());
        assert!(store.submit(p, &DisclosureLabel::bottom()).is_allow());
        assert_eq!(store.stats(p), (1, 1));
        // The packed entry points draw the same line.
        assert!(!store.check_packed(p, &meetings.pack()).is_allow());
        assert!(!store.submit_packed(p, &meetings.pack()).is_allow());
        assert!(store.check_packed(p, &[]).is_allow());
        assert!(store.submit_packed(p, &[]).is_allow());
        assert_eq!(store.stats(p), (2, 2));
        assert_eq!(store.consistency_bits(p), 0);
    }

    #[test]
    fn many_principals_scale_without_interference() {
        let (registry, labeler) = setup();
        let v2 = registry.id_by_name("V2").unwrap();
        let mut store = PolicyStore::new();
        let times_only =
            SecurityPolicy::stateless(PolicyPartition::from_views("times", &registry, [v2]));
        let ids: Vec<PrincipalId> = (0..1000)
            .map(|_| store.register(times_only.clone()))
            .collect();
        // A thousand principals, one compiled policy, 24 bytes each.
        assert_eq!(store.unique_policies(), 1);
        assert_eq!(store.state_bytes(), 1000 * 24);
        assert_eq!(store.arena().hits(), 999);
        let times = label(&labeler, "Q(x) :- Meetings(x, y)");
        let full = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        for &id in &ids {
            assert!(store.submit(id, &times).is_allow());
            assert!(!store.submit(id, &full).is_allow());
        }
        assert_eq!(store.totals(), (1000, 1000));
    }

    #[test]
    fn packed_submissions_walk_the_same_states_as_unpacked_ones() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let wall = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        let mut unpacked = PolicyStore::new();
        let mut packed = PolicyStore::new();
        let a = unpacked.register(wall.clone());
        let b = packed.register(wall);
        for text in [
            "Q(x, y) :- Contacts(x, y, z)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y) :- Meetings(x, y)",
            "Q(x, z) :- Contacts(x, y, z)",
        ] {
            let l = label(&labeler, text);
            assert_eq!(
                unpacked.submit(a, &l),
                packed.submit_packed(b, &l.pack()),
                "submit disagrees on {text}"
            );
            assert_eq!(unpacked.consistency_bits(a), packed.consistency_bits(b));
        }
        assert_eq!(unpacked.stats(a), packed.stats(b));
        assert_eq!(unpacked.totals(), packed.totals());
    }

    #[test]
    fn grant_and_revoke_reintern_while_preserving_state() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let wall = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        let mut store = PolicyStore::new();
        let p = store.register(wall.clone());
        let bystander = store.register(wall);
        assert_eq!(store.unique_policies(), 1);

        let full = label(&labeler, "Q(x, y) :- Meetings(x, y)");
        let times = label(&labeler, "Q(x) :- Meetings(x, y)");

        // Commit p to the Meetings side of the wall.
        assert!(store.submit(p, &full).is_allow());
        assert_eq!(store.consistency_bits(p), 0b01);

        // Revoke V1: the full Meetings view is no longer permitted, but the
        // consistency word and counters survive the re-intern untouched.
        store.revoke_view(p, &registry, v1);
        assert_eq!(store.consistency_bits(p), 0b01);
        assert_eq!(store.stats(p), (1, 0));
        assert!(!store.submit(p, &full).is_allow(), "revoked view must bite");
        assert!(!store.submit(p, &times).is_allow(), "V2 was never granted");

        // Grant V2: times queries work again, full rows stay revoked.
        store.grant_view(p, &registry, v2);
        assert_eq!(store.consistency_bits(p), 0b01);
        assert!(store.submit(p, &times).is_allow());
        assert!(!store.submit(p, &full).is_allow());
        assert_eq!(store.stats(p), (2, 3));

        // The bystander sharing the original policy is untouched, and the
        // mutated policies were interned as new arena entries.
        assert!(store.submit(bystander, &full).is_allow());
        assert_eq!(store.consistency_bits(bystander), 0b01);
        assert!(store.unique_policies() >= 3);

        // A grant/revoke round trip re-interns back to an existing entry
        // rather than growing the arena.
        let entries = store.unique_policies();
        store.grant_view(p, &registry, v1);
        store.revoke_view(p, &registry, v1);
        assert_eq!(store.unique_policies(), entries + 1); // only the +V1 form is new
    }

    #[test]
    fn replace_policy_rejects_partition_count_changes() {
        let (registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut store = PolicyStore::new();
        let p = store.register(SecurityPolicy::stateless(PolicyPartition::from_views(
            "only",
            &registry,
            [v1],
        )));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.replace_policy(p, SecurityPolicy::new());
        }));
        assert!(
            result.is_err(),
            "changing the partition count must be rejected"
        );
    }

    #[test]
    fn decide_packed_routes_commit_and_check() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut store = PolicyStore::new();
        let p = store.register(SecurityPolicy::stateless(PolicyPartition::from_views(
            "meetings",
            &registry,
            [v1],
        )));
        let packed = label(&labeler, "Q(x, y) :- Meetings(x, y)").pack();
        assert!(store.decide_packed(p, &packed, false).is_allow());
        assert_eq!(store.stats(p), (0, 0), "checks must not commit");
        assert!(store.decide_packed(p, &packed, true).is_allow());
        assert_eq!(store.stats(p), (1, 0));
    }

    #[test]
    fn encode_decode_round_trips_arena_states_and_totals() {
        let (registry, labeler) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let wall = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        let times =
            SecurityPolicy::stateless(PolicyPartition::from_views("times", &registry, [v2]));
        let mut store = PolicyStore::new();
        let a = store.register(wall.clone());
        let b = store.register(times);
        let c = store.register(wall);
        store.submit(a, &label(&labeler, "Q(x, y) :- Meetings(x, y)"));
        store.submit(a, &label(&labeler, "Q(x, y, z) :- Contacts(x, y, z)"));
        store.submit(b, &label(&labeler, "Q(x) :- Meetings(x, y)"));
        store.grant_view(c, &registry, v2);

        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        let back = PolicyStore::decode_from(&mut cursor, registry.catalog()).unwrap();
        cursor.expect_end().unwrap();

        assert_eq!(back.len(), store.len());
        assert_eq!(back.unique_policies(), store.unique_policies());
        assert_eq!(back.totals(), store.totals());
        for p in [a, b, c] {
            assert_eq!(back.consistency_bits(p), store.consistency_bits(p));
            assert_eq!(back.stats(p), store.stats(p));
            assert_eq!(back.policy(p).partitions(), store.policy(p).partitions());
        }
        // The rebuilt store keeps deciding identically.
        let mut live = store.clone();
        let mut recovered = back;
        for text in [
            "Q(x, y) :- Meetings(x, y)",
            "Q(x) :- Meetings(x, y)",
            "Q(x, y, z) :- Contacts(x, y, z)",
        ] {
            let l = label(&labeler, text);
            for p in [a, b, c] {
                assert_eq!(live.submit(p, &l), recovered.submit(p, &l), "{text}");
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let (registry, _) = setup();
        let mut store = PolicyStore::new();
        store.register(SecurityPolicy::allow_all(&registry));
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = fdc_durability::codec::Cursor::new(&bytes[..cut]);
            assert!(
                PolicyStore::decode_from(&mut cursor, registry.catalog()).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn decode_refuses_a_policy_naming_a_relation_outside_the_catalog() {
        // Regression: the compiled table is sized by the highest relation
        // id, so this image used to abort the process on a 32 GiB
        // allocation instead of failing to decode.
        let (registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut store = PolicyStore::new();
        store.register(SecurityPolicy::stateless(PolicyPartition::from_views(
            "p",
            &registry,
            [v1],
        )));
        let mut bytes = Vec::new();
        store.encode_into(&mut bytes);
        // Policy count, partition count, the name "p", the mask count: the
        // first (relation, mask) pair follows.
        let relation_at = 8 + 8 + (8 + 1) + 8;
        let meetings = registry.catalog().resolve("Meetings").unwrap();
        assert_eq!(
            bytes[relation_at..relation_at + 4],
            meetings.0.to_le_bytes()
        );
        let decode = |bytes: &[u8]| {
            let mut cursor = fdc_durability::codec::Cursor::new(bytes);
            PolicyStore::decode_from(&mut cursor, registry.catalog())
        };
        assert!(decode(&bytes).is_ok());
        // One past the catalog is already outside it.
        for hostile in [registry.catalog().len() as u32, 0x7FFF_FFFF, u32::MAX] {
            bytes[relation_at..relation_at + 4].copy_from_slice(&hostile.to_le_bytes());
            // …and is reported at the offset of the policy that names it.
            let err = decode(&bytes).unwrap_err().to_string();
            assert_eq!(
                err, "policy names a relation outside the catalog at byte 8",
                "{hostile:#x}"
            );
        }
    }

    #[test]
    fn known_forms_never_copy_an_arena_a_clone_still_holds() {
        let (registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let wall = SecurityPolicy::chinese_wall([
            PolicyPartition::from_views("meetings", &registry, [v1]),
            PolicyPartition::from_views("contacts", &registry, [v3]),
        ]);
        let mut store = PolicyStore::new();
        let p = store.register(wall.clone());
        store.grant_view(p, &registry, v2);
        store.revoke_view(p, &registry, v2);
        assert_eq!(store.unique_policies(), 2);

        // A checkpoint's freeze: the clone shares the arena.
        let frozen = store.clone();
        let hits = frozen.arena().hits();
        assert!(std::ptr::eq(store.arena(), frozen.arena()));
        // Registering a shared preset and a grant/revoke round trip only
        // land on known forms: same arena, hits counted through it.
        store.register(wall.clone());
        store.grant_view(p, &registry, v2);
        store.revoke_view(p, &registry, v2);
        assert!(std::ptr::eq(store.arena(), frozen.arena()));
        assert_eq!(frozen.arena().hits(), hits + 3);
        assert_eq!(store.unique_policies(), 2);
        // A form never seen copies the arena away from the frozen one.
        store.grant_view(p, &registry, v1);
        assert!(!std::ptr::eq(store.arena(), frozen.arena()));
        assert_eq!((frozen.unique_policies(), frozen.len()), (2, 1));
        assert_eq!(store.unique_policies(), 3);
        // The copy finds every form where the original filed it.
        let q = store.register(wall);
        store.grant_view(q, &registry, v2);
        assert_eq!(store.unique_policies(), 3);
        assert_eq!(store.arena().hits(), frozen.arena().hits() + 2);
    }

    #[test]
    fn register_rejects_policies_with_too_many_partitions() {
        // Regression: the seed's register() skipped the MAX_PARTITIONS
        // validation, so a 65-partition policy overflowed the
        // `u64::MAX >> (64 - n)` shift at registration time with an
        // arithmetic panic in debug and UB-shaped garbage in release.
        let (registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut policy = SecurityPolicy::new();
        for i in 0..=crate::MAX_PARTITIONS {
            policy.push(PolicyPartition::from_views(
                format!("p{i}"),
                &registry,
                [v1],
            ));
        }
        let result = std::panic::catch_unwind(move || {
            let mut store = PolicyStore::new();
            store.register(policy)
        });
        let err = result.expect_err("65-partition policy must be rejected");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(
            message.contains("limited to 64 partitions"),
            "unexpected panic message: {message}"
        );
    }
}

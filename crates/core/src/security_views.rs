//! Registration of single-atom security views (the generating set `Fgen`).
//!
//! Section 5 restricts security views to single-atom conjunctive queries.
//! The paper's evaluation (Section 7.2) models each relation with a handful
//! of such views — 16 for the `User` relation, around 3 for the others — and
//! Section 6.1 represents the views of one relation as bit positions inside
//! a packed 64-bit label.  [`SecurityViews`] is the registry that makes this
//! work: it validates the views, groups them by base relation, and assigns
//! each view a global [`SecurityViewId`] and a per-relation bit position.

use std::collections::HashMap;

use fdc_cq::{Catalog, ConjunctiveQuery, RelId};

use crate::error::{LabelError, Result};

/// Maximum number of security views per relation supported by the in-memory
/// (unpacked) label representation: the 64-bit
/// [`ViewMask`](crate::label::ViewMask).
///
/// The paper's implementation packs 32 view bits and a 32-bit relation id
/// into a single 64-bit integer and notes "there is nothing special about
/// the number 32"; we keep a full 64-bit mask per atom label and therefore
/// support 64 views per relation on the unpacked path (the case study's
/// per-permission registry needs more than 32).  Registration rejects the
/// 65th view — the mask would silently overflow otherwise.
pub const MAX_VIEWS_PER_RELATION: usize = 64;

/// Maximum number of security views per relation supported by the **packed**
/// 64-bit label representation (Section 6.1: 32 view bits + 32-bit relation
/// id) — the production serving path end to end
/// (`CachedLabeler::label_packed` → `PolicyStore::submit_packed`).
///
/// Surfaces that feed the packed path enforce this budget at mutation time
/// (`BitVectorLabeler::add_view`, `CachedLabeler::add_view`, the service's
/// `AddSecurityView`): admitting a 33rd view there would make
/// [`AtomLabel::pack`](crate::label::AtomLabel::pack) silently truncate the
/// mask in release builds and mis-decide every query touching the relation —
/// the same silent-overflow shape as the seed's missing `MAX_PARTITIONS`
/// check, fixed the same way (validate before the representation can
/// overflow).  Registries built for unpacked labeling only (e.g. the case
/// study's) may still hold up to [`MAX_VIEWS_PER_RELATION`] views.
pub const MAX_PACKED_VIEWS_PER_RELATION: usize = 32;

/// Identifier of a registered security view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SecurityViewId(pub u32);

impl SecurityViewId {
    /// Returns the id as a usize, convenient for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A registered security view.
#[derive(Debug, Clone)]
pub struct SecurityView {
    /// Human-readable name (e.g. a Facebook permission such as `user_likes`).
    pub name: String,
    /// The single-atom view definition.
    pub query: ConjunctiveQuery,
    /// The base relation of the view's single atom.
    pub relation: RelId,
    /// Bit position of this view within its relation's label mask.
    pub bit: u32,
}

/// The registry of single-atom security views used by every labeler.
///
/// # Example
///
/// ```
/// use fdc_cq::{Catalog, parser::parse_query};
/// use fdc_core::SecurityViews;
///
/// let catalog = Catalog::paper_example();
/// let mut views = SecurityViews::new(&catalog);
/// views.add("V1", parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap()).unwrap();
/// views.add("V2", parse_query(&catalog, "V2(x) :- Meetings(x, y)").unwrap()).unwrap();
/// views.add("V3", parse_query(&catalog, "V3(x, y, z) :- Contacts(x, y, z)").unwrap()).unwrap();
///
/// assert_eq!(views.len(), 3);
/// assert_eq!(views.by_name("V2").map(|v| v.name.as_str()), Some("V2"));
/// ```
#[derive(Debug, Clone)]
pub struct SecurityViews {
    catalog: Catalog,
    views: Vec<SecurityView>,
    by_name: HashMap<String, SecurityViewId>,
    by_relation: HashMap<RelId, Vec<SecurityViewId>>,
    /// Per-relation version counter of the view universe, indexed by
    /// [`RelId`] and sized to the catalog.  See [`epoch`](Self::epoch).
    epochs: Vec<u64>,
}

impl SecurityViews {
    /// Creates an empty registry over a catalog.
    ///
    /// The catalog is cloned so that the registry (and the labelers built on
    /// it) are self-contained.
    pub fn new(catalog: &Catalog) -> Self {
        SecurityViews {
            catalog: catalog.clone(),
            views: Vec::new(),
            by_name: HashMap::new(),
            by_relation: HashMap::new(),
            epochs: vec![0; catalog.len()],
        }
    }

    /// The catalog the views are defined over.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers a single-atom security view.
    pub fn add(&mut self, name: &str, query: ConjunctiveQuery) -> Result<SecurityViewId> {
        if self.by_name.contains_key(name) {
            return Err(LabelError::DuplicateView(name.to_owned()));
        }
        if !query.is_single_atom() {
            return Err(LabelError::NotSingleAtom {
                view: name.to_owned(),
            });
        }
        query
            .validate(&self.catalog)
            .map_err(|e| LabelError::InvalidQuery(e.to_string()))?;
        let relation = query.atom(0).relation;
        let per_relation = self.by_relation.entry(relation).or_default();
        if per_relation.len() >= MAX_VIEWS_PER_RELATION {
            return Err(LabelError::TooManyViewsForRelation {
                relation: self.catalog.name(relation).to_owned(),
                count: per_relation.len() + 1,
                limit: MAX_VIEWS_PER_RELATION,
            });
        }
        let id = SecurityViewId(self.views.len() as u32);
        let bit = per_relation.len() as u32;
        per_relation.push(id);
        self.views.push(SecurityView {
            name: name.to_owned(),
            query,
            relation,
            bit,
        });
        self.by_name.insert(name.to_owned(), id);
        // The relation's view universe changed: labels computed for atoms
        // over it are now stale (the new view may answer them).
        self.bump_epoch(relation);
        Ok(id)
    }

    /// The epoch (version) of a relation's view universe.
    ///
    /// The epoch starts at 0 and advances every time the set of views
    /// defined over the relation changes ([`add`](Self::add)) or the
    /// relation is explicitly invalidated ([`bump_epoch`](Self::bump_epoch)).
    /// Derived artifacts — cached query labels, per-atom `ℓ⁺` masks — record
    /// the epoch they were computed under and compare it against the current
    /// one to detect staleness, so a mutation to one relation never touches
    /// cached work for the others.
    ///
    /// The comparison runs once per cached part on every label lookup, so
    /// this is an array read, not a hash probe.  A relation outside the
    /// catalog has no view universe to version and answers 0.
    #[inline]
    pub fn epoch(&self, relation: RelId) -> u64 {
        self.epochs.get(relation.index()).copied().unwrap_or(0)
    }

    /// Advances the epoch of a relation's view universe, marking every label
    /// or mask derived for atoms over it as stale.
    ///
    /// Called automatically by [`add`](Self::add); exposed for callers that
    /// invalidate a relation for external reasons (e.g. a changed view
    /// definition).
    ///
    /// # Panics
    ///
    /// Panics if `relation` is not in the catalog: an epoch recorded for it
    /// would be written by [`encode_into`](Self::encode_into) and refused
    /// by [`decode_from`](Self::decode_from) — a checkpoint that can never
    /// be read back.
    pub fn bump_epoch(&mut self, relation: RelId) {
        let epoch = self
            .epochs
            .get_mut(relation.index())
            .unwrap_or_else(|| panic!("bump_epoch: relation {relation} is not in the catalog"));
        *epoch += 1;
    }

    /// Registers several views parsed from a datalog program
    /// (see [`fdc_cq::parser::parse_program`]).
    pub fn add_program(&mut self, program: &str) -> Result<Vec<SecurityViewId>> {
        let parsed = fdc_cq::parser::parse_program(&self.catalog, program)
            .map_err(|e| LabelError::InvalidQuery(e.to_string()))?;
        parsed
            .into_iter()
            .map(|(name, query)| self.add(&name, query))
            .collect()
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Looks up a view by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this registry.
    pub fn view(&self, id: SecurityViewId) -> &SecurityView {
        &self.views[id.index()]
    }

    /// Looks up a view by name.
    pub fn by_name(&self, name: &str) -> Option<&SecurityView> {
        self.by_name.get(name).map(|id| self.view(*id))
    }

    /// Looks up a view id by name.
    pub fn id_by_name(&self, name: &str) -> Option<SecurityViewId> {
        self.by_name.get(name).copied()
    }

    /// The ids of the views defined over a relation, in registration order
    /// (their `bit` fields are 0, 1, 2, … in this order).
    pub fn views_for_relation(&self, relation: RelId) -> &[SecurityViewId] {
        self.by_relation
            .get(&relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The view occupying bit position `bit` of `relation`'s label mask, if
    /// any — the inverse of [`SecurityView::bit`], used to translate
    /// per-relation permitted masks back into view ids.
    pub fn view_by_relation_bit(&self, relation: RelId, bit: u32) -> Option<SecurityViewId> {
        self.views_for_relation(relation).get(bit as usize).copied()
    }

    /// Iterates over `(id, view)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (SecurityViewId, &SecurityView)> {
        self.views
            .iter()
            .enumerate()
            .map(|(i, v)| (SecurityViewId(i as u32), v))
    }

    /// The number of distinct relations that have at least one view.
    pub fn num_relations_covered(&self) -> usize {
        self.by_relation.len()
    }

    /// Serializes the registry — catalog, views in registration order,
    /// explicit per-relation epochs — into `out` (the `fdc-core` slice
    /// of a checkpoint).
    ///
    /// Views are stored by name + definition and *re-registered* on
    /// decode, so ids, bits and the by-relation grouping reproduce by
    /// construction; epochs are stored explicitly because
    /// [`bump_epoch`](Self::bump_epoch) lets them run ahead of the
    /// registration count.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use fdc_durability::codec::{put_len, put_u32, put_u64};
        fdc_cq::wire::encode_catalog(&self.catalog, out);
        put_len(out, self.views.len());
        for view in &self.views {
            fdc_durability::codec::put_str(out, &view.name);
            fdc_cq::wire::encode_query(&view.query, out);
        }
        // The relations that ever moved, in relation order (the bytes the
        // sorted epoch map of earlier versions wrote).
        put_len(out, self.epochs.iter().filter(|epoch| **epoch != 0).count());
        for (relation, epoch) in self.epochs.iter().enumerate() {
            if *epoch != 0 {
                put_u32(out, relation as u32);
                put_u64(out, *epoch);
            }
        }
    }

    /// Deserializes a registry written by
    /// [`encode_into`](Self::encode_into): the catalog is decoded, every
    /// view re-registered in order (reproducing ids and bits), and the
    /// stored epochs restored.  A stored epoch below what re-registration
    /// alone produced is rejected as corrupt — epochs never move
    /// backwards.
    pub fn decode_from(
        cursor: &mut fdc_durability::codec::Cursor<'_>,
    ) -> std::result::Result<Self, fdc_durability::codec::CodecError> {
        use fdc_durability::codec::CodecError;
        let catalog = fdc_cq::wire::decode_catalog(cursor)?;
        let mut views = SecurityViews::new(&catalog);
        let num_views = cursor.count(9)?;
        for _ in 0..num_views {
            let at = cursor.pos();
            let name = cursor.str()?.to_owned();
            let query = fdc_cq::wire::decode_query(cursor)?;
            views
                .add(&name, query)
                .map_err(|err| CodecError::invalid(at, format!("invalid view: {err}")))?;
        }
        let num_epochs = cursor.count(12)?;
        for _ in 0..num_epochs {
            let at = cursor.pos();
            let relation = RelId(cursor.u32()?);
            let epoch = cursor.u64()?;
            // The vector is sized by the decoded catalog, never by this id.
            let Some(current) = views.epochs.get_mut(relation.index()) else {
                return Err(CodecError::invalid(at, "epoch for unknown relation"));
            };
            if epoch < *current {
                return Err(CodecError::invalid(
                    at,
                    "stored epoch below registration count",
                ));
            }
            *current = epoch;
        }
        Ok(views)
    }

    /// Builds the Figure 1 (b) registry: `V1`, `V2`, `V3` over the
    /// Meetings/Contacts catalog.
    pub fn paper_example() -> Self {
        let catalog = Catalog::paper_example();
        let mut views = SecurityViews::new(&catalog);
        views
            .add_program(
                r"
                V1(x, y)    :- Meetings(x, y)
                V2(x)       :- Meetings(x, y)
                V3(x, y, z) :- Contacts(x, y, z)
                ",
            )
            .expect("paper example views are valid");
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cq::parser::parse_query;

    #[test]
    fn registration_assigns_ids_and_bits_per_relation() {
        let catalog = Catalog::paper_example();
        let mut views = SecurityViews::new(&catalog);
        let v1 = views
            .add(
                "V1",
                parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap(),
            )
            .unwrap();
        let v2 = views
            .add(
                "V2",
                parse_query(&catalog, "V2(x) :- Meetings(x, y)").unwrap(),
            )
            .unwrap();
        let v3 = views
            .add(
                "V3",
                parse_query(&catalog, "V3(x, y, z) :- Contacts(x, y, z)").unwrap(),
            )
            .unwrap();

        assert_eq!(views.len(), 3);
        assert!(!views.is_empty());
        assert_eq!(views.view(v1).bit, 0);
        assert_eq!(views.view(v2).bit, 1); // second Meetings view
        assert_eq!(views.view(v3).bit, 0); // first Contacts view
        assert_eq!(views.num_relations_covered(), 2);

        let meetings = catalog.resolve("Meetings").unwrap();
        assert_eq!(views.views_for_relation(meetings), &[v1, v2]);
        let contacts = catalog.resolve("Contacts").unwrap();
        assert_eq!(views.views_for_relation(contacts), &[v3]);
        let ids: Vec<SecurityViewId> = views.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![v1, v2, v3]);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let catalog = Catalog::paper_example();
        let mut views = SecurityViews::new(&catalog);
        views
            .add(
                "V1",
                parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap(),
            )
            .unwrap();
        let err = views
            .add(
                "V1",
                parse_query(&catalog, "V1(x) :- Meetings(x, y)").unwrap(),
            )
            .unwrap_err();
        assert_eq!(err, LabelError::DuplicateView("V1".into()));
    }

    #[test]
    fn multi_atom_views_are_rejected() {
        let catalog = Catalog::paper_example();
        let mut views = SecurityViews::new(&catalog);
        let q = parse_query(&catalog, "V(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap();
        let err = views.add("joined", q).unwrap_err();
        assert_eq!(
            err,
            LabelError::NotSingleAtom {
                view: "joined".into()
            }
        );
    }

    #[test]
    fn lookup_by_name() {
        let views = SecurityViews::paper_example();
        assert_eq!(views.len(), 3);
        assert!(views.by_name("V2").is_some());
        assert!(views.by_name("missing").is_none());
        let id = views.id_by_name("V3").unwrap();
        assert_eq!(views.view(id).name, "V3");
        assert_eq!(views.catalog().len(), 2);
    }

    #[test]
    fn unknown_relation_bubbles_up_as_invalid_query() {
        let catalog = Catalog::paper_example();
        let mut views = SecurityViews::new(&catalog);
        let err = views.add_program("V(x) :- Ghost(x)").unwrap_err();
        assert!(matches!(err, LabelError::InvalidQuery(_)));
    }

    #[test]
    fn epochs_advance_only_for_the_mutated_relation() {
        let catalog = Catalog::paper_example();
        let meetings = catalog.resolve("Meetings").unwrap();
        let contacts = catalog.resolve("Contacts").unwrap();
        let mut views = SecurityViews::new(&catalog);
        assert_eq!(views.epoch(meetings), 0);
        assert_eq!(views.epoch(contacts), 0);
        // A relation outside the catalog has no universe to version.
        assert_eq!(views.epoch(RelId(catalog.len() as u32)), 0);
        assert_eq!(views.epoch(RelId(u32::MAX)), 0);

        views
            .add(
                "V1",
                parse_query(&catalog, "V1(x, y) :- Meetings(x, y)").unwrap(),
            )
            .unwrap();
        assert_eq!(views.epoch(meetings), 1);
        assert_eq!(views.epoch(contacts), 0);

        views
            .add(
                "V3",
                parse_query(&catalog, "V3(x, y, z) :- Contacts(x, y, z)").unwrap(),
            )
            .unwrap();
        assert_eq!(views.epoch(meetings), 1);
        assert_eq!(views.epoch(contacts), 1);

        // Explicit invalidation advances the epoch without changing views.
        views.bump_epoch(meetings);
        assert_eq!(views.epoch(meetings), 2);
        assert_eq!(views.len(), 2);

        // Rejected registrations leave every epoch untouched.
        let q = parse_query(&catalog, "V1(x) :- Meetings(x, y)").unwrap();
        assert!(views.add("V1", q).is_err());
        assert_eq!(views.epoch(meetings), 2);
    }

    #[test]
    fn bits_round_trip_through_view_by_relation_bit() {
        let views = SecurityViews::paper_example();
        for (id, view) in views.iter() {
            assert_eq!(
                views.view_by_relation_bit(view.relation, view.bit),
                Some(id)
            );
        }
        let meetings = views.catalog().resolve("Meetings").unwrap();
        assert_eq!(views.view_by_relation_bit(meetings, 63), None);
    }

    #[test]
    fn the_65th_view_is_rejected_with_full_context() {
        // Regression companion of `per_relation_view_limit_is_enforced`:
        // the error names the relation, the would-be count and the limit,
        // and the rejected view leaves the registry untouched.
        let mut catalog = Catalog::new();
        catalog.add_relation_with_arity("Wide", 2).unwrap();
        let mut views = SecurityViews::new(&catalog);
        for i in 0..MAX_VIEWS_PER_RELATION {
            let q = parse_query(&catalog, "V(x, y) :- Wide(x, y)").unwrap();
            views.add(&format!("v{i}"), q).unwrap();
        }
        let q = parse_query(&catalog, "V(x, y) :- Wide(x, y)").unwrap();
        let err = views.add("overflow", q).unwrap_err();
        assert_eq!(
            err,
            LabelError::TooManyViewsForRelation {
                relation: "Wide".into(),
                count: MAX_VIEWS_PER_RELATION + 1,
                limit: MAX_VIEWS_PER_RELATION,
            }
        );
        assert_eq!(views.len(), MAX_VIEWS_PER_RELATION);
        assert!(views.by_name("overflow").is_none());
    }

    #[test]
    fn encode_decode_round_trips_ids_bits_and_epochs() {
        let mut views = SecurityViews::paper_example();
        let meetings = views.catalog().resolve("Meetings").unwrap();
        // Push an epoch ahead of its registration count so the explicit
        // restore path is exercised.
        views.bump_epoch(meetings);
        views.bump_epoch(meetings);
        let mut bytes = Vec::new();
        views.encode_into(&mut bytes);
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        let back = SecurityViews::decode_from(&mut cursor).unwrap();
        cursor.expect_end().unwrap();
        assert_eq!(back.len(), views.len());
        for (id, view) in views.iter() {
            let restored = back.view(id);
            assert_eq!(restored.name, view.name);
            assert_eq!(restored.relation, view.relation);
            assert_eq!(restored.bit, view.bit);
            assert_eq!(restored.query, view.query);
            assert_eq!(back.id_by_name(&view.name), Some(id));
        }
        for (relation, _) in views.catalog().iter() {
            assert_eq!(back.epoch(relation), views.epoch(relation));
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Views on two relations and one out-of-band bump encode to the bytes
    /// the sorted epoch *map* wrote (length and hash taken from that build
    /// by running this body there): the epoch vector changed how an epoch
    /// is read, not what a checkpoint holds.
    #[test]
    fn the_encoding_of_a_fixed_registry_is_unchanged() {
        let mut views = SecurityViews::paper_example();
        let contacts = views.catalog().resolve("Contacts").unwrap();
        views.bump_epoch(contacts);
        let mut bytes = Vec::new();
        views.encode_into(&mut bytes);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (384, 11_135_036_594_058_683_268)
        );
    }

    #[test]
    #[should_panic(expected = "rel#999 is not in the catalog")]
    fn bumping_a_relation_outside_the_catalog_panics() {
        // Regression: the epoch map accepted any id and `encode_into` wrote
        // it, producing bytes `decode_from` refuses ("epoch for unknown
        // relation") — a checkpoint that could never be read back.
        SecurityViews::paper_example().bump_epoch(RelId(999));
    }

    /// Whatever `encode_into` writes, `decode_from` reads — over seeded
    /// sequences of registrations (accepted and refused) and out-of-band
    /// bumps on a three-relation catalog, one relation never touched.
    #[test]
    fn every_encoded_registry_decodes_to_itself() {
        let mut catalog = Catalog::new();
        for (name, arity) in [("A", 2), ("B", 3), ("Idle", 1), ("C", 1)] {
            catalog.add_relation_with_arity(name, arity).unwrap();
        }
        let definitions = [
            "V(x, y) :- A(x, y)",
            "V(x) :- A(x, x)",
            "V(x) :- A(x, 'k')",
            "V(x, z) :- B(x, y, z)",
            "V() :- B(x, y, 'k')",
            "V(x) :- C(x)",
        ];
        let (mut bumped, mut refused) = (0, 0);
        for seed in 1..=64u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: usize| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
            };
            let mut views = SecurityViews::new(&catalog);
            for step in 0..next(24) {
                if next(3) == 0 {
                    // `Idle` (relation 2) is never bumped or viewed.
                    views.bump_epoch(RelId([0, 1, 3][next(3)]));
                    bumped += 1;
                } else {
                    // A name drawn from a small range: some are duplicates
                    // and refused, leaving the registry as it was.
                    let text = definitions[next(definitions.len())];
                    let name = format!("v{}", next(step + 2));
                    let added = views.add(&name, parse_query(&catalog, text).unwrap());
                    refused += usize::from(added.is_err());
                }
            }
            let mut bytes = Vec::new();
            views.encode_into(&mut bytes);
            let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
            let back = SecurityViews::decode_from(&mut cursor)
                .unwrap_or_else(|err| panic!("seed {seed}: {err:?}"));
            cursor.expect_end().unwrap();
            assert_eq!(back.len(), views.len(), "seed {seed}");
            for (id, view) in views.iter() {
                let restored = back.view(id);
                assert_eq!(
                    (&restored.name, restored.relation, restored.bit),
                    (&view.name, view.relation, view.bit),
                    "seed {seed}"
                );
                assert_eq!(restored.query, view.query, "seed {seed}");
            }
            for (relation, _) in catalog.iter() {
                assert_eq!(back.epoch(relation), views.epoch(relation), "seed {seed}");
            }
            let mut again = Vec::new();
            back.encode_into(&mut again);
            assert_eq!(again, bytes, "seed {seed}");
        }
        assert!(
            bumped > 0 && refused > 0,
            "{bumped} bumps, {refused} refusals"
        );
    }

    #[test]
    fn decode_rejects_truncation_and_backward_epochs() {
        let views = SecurityViews::paper_example();
        let mut bytes = Vec::new();
        views.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = fdc_durability::codec::Cursor::new(&bytes[..cut]);
            assert!(
                SecurityViews::decode_from(&mut cursor).is_err(),
                "cut {cut}"
            );
        }
        // An epoch below the registration count is corrupt: the last 8
        // bytes are the final relation's stored epoch.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&0u64.to_le_bytes());
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        assert!(SecurityViews::decode_from(&mut cursor).is_err());
        // The four bytes before it are that entry's relation id; nothing
        // may be sized by one a hostile image chose.
        bytes[len - 12..len - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = fdc_durability::codec::Cursor::new(&bytes);
        let err = SecurityViews::decode_from(&mut cursor).unwrap_err();
        assert!(format!("{err:?}").contains("epoch for unknown relation"));
    }

    #[test]
    fn per_relation_view_limit_is_enforced() {
        let mut catalog = Catalog::new();
        catalog.add_relation_with_arity("Wide", 2).unwrap();
        let mut views = SecurityViews::new(&catalog);
        for i in 0..MAX_VIEWS_PER_RELATION {
            // Register syntactically distinct but semantically identical
            // views: the registry does not deduplicate by meaning.
            let q = parse_query(&catalog, "V(x, y) :- Wide(x, y)").unwrap();
            views.add(&format!("v{i}"), q).unwrap();
        }
        let q = parse_query(&catalog, "V(x, y) :- Wide(x, y)").unwrap();
        let err = views.add("overflow", q).unwrap_err();
        assert!(matches!(err, LabelError::TooManyViewsForRelation { .. }));
    }

    #[test]
    fn a_decoded_view_outside_the_catalog_is_refused() {
        use fdc_durability::codec::{put_len, put_str, CodecError, Cursor};
        // A registry image over the paper's two relations whose one view
        // reads relation id 2: an error at the view, not a panic.
        let mut wide = Catalog::paper_example();
        wide.add_relation("Ghost", &["a"]).unwrap();
        let mut image = Vec::new();
        fdc_cq::wire::encode_catalog(&Catalog::paper_example(), &mut image);
        put_len(&mut image, 1);
        let at = image.len();
        put_str(&mut image, "V");
        fdc_cq::wire::encode_query(&parse_query(&wide, "V(a) :- Ghost(a)").unwrap(), &mut image);
        put_len(&mut image, 0);
        let err = SecurityViews::decode_from(&mut Cursor::new(&image)).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid { offset, what }
                if *offset == at && what.contains("not defined in the catalog")),
            "{err}"
        );
    }
}

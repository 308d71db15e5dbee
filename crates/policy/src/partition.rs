//! Policy partitions: sets of permitted single-atom security views.
//!
//! Section 6.2 represents a security policy "as a collection of sets of
//! single-atom disclosure labels, say `{W1, W2, …, Wk}`", enforcing the
//! invariant that the queries answered so far stay below *some* `Wi`.  A
//! [`PolicyPartition`] is one such `Wi`: per base relation, a bit mask of the
//! security views the principal is allowed to access.
//!
//! A disclosure label is below a partition exactly when every one of its
//! atom labels is answerable from a permitted view, i.e. when
//! `ℓ⁺(atom) ∩ permitted(relation) ≠ ∅` — a single AND per atom in the
//! packed representation.
//!
//! A partition names few relations, so it keeps its masks as one vector of
//! `(relation, mask)` pairs sorted by relation, without zero masks: a lookup
//! is a binary search, and the vector is already the serialized order.

use fdc_core::{AtomLabel, DisclosureLabel, SecurityViewId, SecurityViews, ViewMask};
use fdc_cq::RelId;

/// One partition `Wi` of a security policy: the set of security views a
/// principal may draw on, organized per base relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyPartition {
    /// Sorted by relation, one pair per relation, no zero mask.
    permitted: Vec<(RelId, ViewMask)>,
    /// Human-readable name, e.g. `"meetings-side"` for a Chinese Wall.
    pub name: String,
}

impl PolicyPartition {
    /// Creates an empty (nothing permitted) partition.
    pub fn new(name: impl Into<String>) -> Self {
        PolicyPartition {
            permitted: Vec::new(),
            name: name.into(),
        }
    }

    /// Builds a partition from a list of permitted security views.
    pub fn from_views<I>(name: impl Into<String>, registry: &SecurityViews, views: I) -> Self
    where
        I: IntoIterator<Item = SecurityViewId>,
    {
        let mut partition = PolicyPartition::new(name);
        for id in views {
            partition.permit(registry, id);
        }
        partition
    }

    /// Builds a partition from view *names* registered in `registry`.
    ///
    /// Unknown names are ignored and reported in the returned list so the
    /// caller can surface configuration mistakes.
    pub fn from_view_names<'a, I>(
        name: impl Into<String>,
        registry: &SecurityViews,
        names: I,
    ) -> (Self, Vec<&'a str>)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut partition = PolicyPartition::new(name);
        let mut unknown = Vec::new();
        for view_name in names {
            match registry.id_by_name(view_name) {
                Some(id) => partition.permit(registry, id),
                None => unknown.push(view_name),
            }
        }
        (partition, unknown)
    }

    /// Permits one more security view.
    pub fn permit(&mut self, registry: &SecurityViews, id: SecurityViewId) {
        let view = registry.view(id);
        self.set(view.relation, 1 << view.bit, true);
    }

    /// Withdraws a previously permitted security view (a no-op if the view
    /// was not permitted).  The online-mutation counterpart of
    /// [`permit`](Self::permit), used by `RevokeView` operations.
    pub fn revoke(&mut self, registry: &SecurityViews, id: SecurityViewId) {
        let view = registry.view(id);
        self.set(view.relation, 1 << view.bit, false);
    }

    /// Sets (`permit`) or clears the view bits `bit` of `relation`.
    pub(crate) fn set(&mut self, relation: RelId, bit: ViewMask, permit: bool) {
        match self.position(relation) {
            Ok(i) if permit => self.permitted[i].1 |= bit,
            Err(i) if permit => self.permitted.insert(i, (relation, bit)),
            Ok(i) => {
                self.permitted[i].1 &= !bit;
                if self.permitted[i].1 == 0 {
                    self.permitted.remove(i);
                }
            }
            Err(_) => {}
        }
    }

    /// Where `relation`'s pair is, or where it would go.
    fn position(&self, relation: RelId) -> Result<usize, usize> {
        self.permitted.binary_search_by_key(&relation, |&(r, _)| r)
    }

    /// The mask of permitted views for a relation (0 if none).
    pub fn permitted_mask(&self, relation: RelId) -> ViewMask {
        self.position(relation).map_or(0, |i| self.permitted[i].1)
    }

    /// Number of permitted views across all relations.
    pub fn num_permitted(&self) -> usize {
        self.permitted
            .iter()
            .map(|(_, m)| m.count_ones() as usize)
            .sum()
    }

    /// True if nothing is permitted.
    pub fn is_empty(&self) -> bool {
        self.permitted.is_empty()
    }

    /// Is a single atom label answerable under this partition?
    pub fn allows_atom(&self, atom: &AtomLabel) -> bool {
        atom.mask & self.permitted_mask(atom.relation) != 0
    }

    /// Is a whole disclosure label below this partition
    /// (`label ⪯ Wi`)?  Every atom must be answerable from a permitted view.
    pub fn allows(&self, label: &DisclosureLabel) -> bool {
        label.atoms().iter().all(|a| self.allows_atom(a))
    }

    /// The partition's raw `(relation, permitted mask)` pairs, sorted by
    /// relation for a deterministic order — the serialization view of
    /// the partition (see `fdc_policy::wire`).
    pub fn masks(&self) -> Vec<(RelId, ViewMask)> {
        self.permitted.clone()
    }

    /// Rebuilds a partition from raw `(relation, permitted mask)` pairs —
    /// the inverse of [`masks`](Self::masks), used when decoding policies
    /// from a checkpoint.  Pairs with a zero mask are dropped (they are
    /// never stored), repeated relations OR together.  The pairs are
    /// collected and sorted once, so any input — hostile decoded bytes
    /// included — costs one sort, never an insertion per pair.
    pub fn from_masks<I>(name: impl Into<String>, masks: I) -> Self
    where
        I: IntoIterator<Item = (RelId, ViewMask)>,
    {
        let mut permitted: Vec<(RelId, ViewMask)> =
            masks.into_iter().filter(|&(_, mask)| mask != 0).collect();
        permitted.sort_unstable_by_key(|&(relation, _)| relation);
        permitted.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 |= later.1;
            }
            same
        });
        PolicyPartition {
            permitted,
            name: name.into(),
        }
    }

    /// The partition's `(relation, permitted mask)` pairs as stored: sorted
    /// by relation, one per relation, no zero mask.
    pub(crate) fn pairs(&self) -> &[(RelId, ViewMask)] {
        &self.permitted
    }

    /// The relations for which this partition permits at least one view,
    /// in ascending order.
    pub fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.permitted.iter().map(|&(relation, _)| relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{BaselineLabeler, QueryLabeler};
    use fdc_cq::{parser::parse_query, Catalog};

    fn setup() -> (Catalog, SecurityViews, BaselineLabeler) {
        let registry = SecurityViews::paper_example();
        let catalog = registry.catalog().clone();
        let labeler = BaselineLabeler::new(registry.clone());
        (catalog, registry, labeler)
    }

    #[test]
    fn partitions_built_from_views_permit_those_views() {
        let (_, registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        let p = PolicyPartition::from_views("both-sides", &registry, [v1, v3]);
        assert_eq!(p.num_permitted(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.relations().count(), 2);
        assert_eq!(p.name, "both-sides");

        let meetings = registry.catalog().resolve("Meetings").unwrap();
        let contacts = registry.catalog().resolve("Contacts").unwrap();
        assert_eq!(p.permitted_mask(meetings), 0b01);
        assert_eq!(p.permitted_mask(contacts), 0b1);
    }

    #[test]
    fn from_view_names_reports_unknown_names() {
        let (_, registry, _) = setup();
        let (p, unknown) =
            PolicyPartition::from_view_names("p", &registry, ["V1", "nonsense", "V2"]);
        assert_eq!(p.num_permitted(), 2);
        assert_eq!(unknown, vec!["nonsense"]);
    }

    #[test]
    fn empty_partitions_allow_nothing_but_bottom() {
        let (catalog, _, labeler) = setup();
        let p = PolicyPartition::new("empty");
        assert!(p.is_empty());
        assert_eq!(p.num_permitted(), 0);
        let label = labeler.label_query(&parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap());
        assert!(!p.allows(&label));
        assert!(p.allows(&DisclosureLabel::bottom()));
    }

    #[test]
    fn label_below_partition_iff_every_atom_is_answerable() {
        let (catalog, registry, labeler) = setup();
        let v2 = registry.id_by_name("V2").unwrap();
        let v3 = registry.id_by_name("V3").unwrap();
        // Permit the meeting-times view and the full Contacts view.
        let p = PolicyPartition::from_views("times+contacts", &registry, [v2, v3]);

        // A times-only query is allowed.
        let times = labeler.label_query(&parse_query(&catalog, "Q(x) :- Meetings(x, y)").unwrap());
        assert!(p.allows(&times));
        // The full Meetings view requires V1, which is not permitted.
        let full =
            labeler.label_query(&parse_query(&catalog, "Q(x, y) :- Meetings(x, y)").unwrap());
        assert!(!p.allows(&full));
        // The join query needs V1 (for the Meetings atom), so it is refused
        // even though its Contacts atom is fine.
        let join = labeler.label_query(
            &parse_query(&catalog, "Q(x) :- Meetings(x, y), Contacts(y, w, 'Intern')").unwrap(),
        );
        assert!(!p.allows(&join));
        // A contacts-only query is allowed.
        let contacts =
            labeler.label_query(&parse_query(&catalog, "Q(x, y, z) :- Contacts(x, y, z)").unwrap());
        assert!(p.allows(&contacts));
    }

    #[test]
    fn top_labels_are_never_allowed() {
        let (_, registry, _) = setup();
        let meetings = registry.catalog().resolve("Meetings").unwrap();
        let all_views: Vec<SecurityViewId> = registry.iter().map(|(id, _)| id).collect();
        let p = PolicyPartition::from_views("everything", &registry, all_views);
        let top = DisclosureLabel::from_atoms(vec![AtomLabel::top(meetings)]);
        assert!(!p.allows(&top));
    }

    #[test]
    fn revoking_undoes_permitting() {
        let (_, registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let v2 = registry.id_by_name("V2").unwrap();
        let mut p = PolicyPartition::from_views("p", &registry, [v1, v2]);
        p.revoke(&registry, v1);
        assert_eq!(p.num_permitted(), 1);
        let meetings = registry.catalog().resolve("Meetings").unwrap();
        assert_eq!(p.permitted_mask(meetings), 0b10);
        // Revoking an unpermitted view is a no-op; revoking the last view of
        // a relation empties the partition completely.
        p.revoke(&registry, v1);
        p.revoke(&registry, v2);
        assert!(p.is_empty());
        assert_eq!(p.relations().count(), 0);
        // A round-tripped partition equals one never granted the view.
        let mut granted = PolicyPartition::from_views("q", &registry, [v2]);
        granted.permit(&registry, v1);
        granted.revoke(&registry, v1);
        assert_eq!(
            granted.permitted_mask(meetings),
            PolicyPartition::from_views("q", &registry, [v2]).permitted_mask(meetings)
        );
    }

    #[test]
    fn partition_from_masks_sorts_and_ors_duplicates() {
        let (_, registry, _) = setup();
        let (r0, r1, r2) = (RelId(0), RelId(1), RelId(2));
        let p = PolicyPartition::from_masks(
            "p",
            [
                (r2, 0b100),
                (r0, 0),
                (r1, 0b1),
                (r2, 0b1),
                (r1, 0b1),
                (r0, 0b10),
            ],
        );
        assert_eq!(p.masks(), vec![(r0, 0b10), (r1, 0b1), (r2, 0b101)]);
        assert_eq!(p.relations().collect::<Vec<_>>(), vec![r0, r1, r2]);
        assert_eq!(p.num_permitted(), 4);
        assert_eq!(p.permitted_mask(r2), 0b101);
        assert_eq!(p.permitted_mask(RelId(7)), 0);
        assert!(PolicyPartition::from_masks("zeros", [(r1, 0), (r0, 0)]).is_empty());
        // Permits in any order build the partition the sorted masks decode to.
        let ids: Vec<SecurityViewId> = registry.iter().map(|(id, _)| id).collect();
        let mut forward = PolicyPartition::new("p");
        let mut backward = PolicyPartition::new("p");
        for &id in &ids {
            forward.permit(&registry, id);
        }
        for &id in ids.iter().rev() {
            backward.permit(&registry, id);
        }
        assert_eq!(forward, backward);
        assert_eq!(PolicyPartition::from_masks("p", forward.masks()), forward);
        let relations: Vec<RelId> = forward.relations().collect();
        assert!(relations.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn permitting_is_idempotent() {
        let (_, registry, _) = setup();
        let v1 = registry.id_by_name("V1").unwrap();
        let mut p = PolicyPartition::new("p");
        p.permit(&registry, v1);
        p.permit(&registry, v1);
        assert_eq!(p.num_permitted(), 1);
    }
}

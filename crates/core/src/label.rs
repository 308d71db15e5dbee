//! Disclosure labels and their compressed representation (Section 6.1).
//!
//! For a single-atom query `V` the labelers compute
//! `ℓ⁺(V) = {Vi ∈ Fgen : {V} ⪯ {Vi}}` — the set of security views that can
//! answer `V`.  Storing `ℓ⁺` instead of the GLB it denotes makes label
//! comparisons cheap:
//!
//! > `ℓ(V) ⪯ ℓ(V′)` if and only if `ℓ⁺(V) ⊇ ℓ⁺(V′)`.
//!
//! Since two views are only comparable when they are defined over the same
//! base relation, `ℓ⁺` is stored per relation as a bit mask: an
//! [`AtomLabel`] pairs a relation id with a mask of the security views of
//! that relation, and packs into a single 64-bit [`PackedLabel`] exactly as
//! in the paper ("the low 32 bits … track which base relation a view
//! corresponds to, and the remaining 32 bits represent the elements of
//! `Fgen` associated with that relation").  A multi-atom query's label
//! ([`DisclosureLabel`]) is an array of atom labels, and labels of an
//! `r`-atom and an `s`-atom query are compared in `O(r·s)`.

use std::fmt;

use fdc_cq::RelId;

use crate::security_views::{SecurityViewId, SecurityViews};

/// A bit mask over the security views of one relation.
///
/// Bit `i` corresponds to the view whose [`bit`](crate::security_views::SecurityView::bit)
/// field is `i`.
pub type ViewMask = u64;

/// The `ℓ⁺` label of a single-atom query: the set of security views (all
/// over the same base relation) that can answer it.
///
/// An empty mask means *no* security view answers the atom — the label is
/// the top element ⊤ of the lattice of disclosure labels ("more than
/// everything in `Fgen`"), which is consistent with the `⊇` comparison rule:
/// every label is `⪯` ⊤, and ⊤ is only `⪯` another ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomLabel {
    /// The base relation of the labeled atom.
    pub relation: RelId,
    /// Mask of the security views (of that relation) that answer the atom.
    pub mask: ViewMask,
}

impl AtomLabel {
    /// Builds an atom label from parts.
    pub fn new(relation: RelId, mask: ViewMask) -> Self {
        AtomLabel { relation, mask }
    }

    /// The ⊤ label for an atom over `relation` (no view answers it).
    pub fn top(relation: RelId) -> Self {
        AtomLabel { relation, mask: 0 }
    }

    /// True if no security view answers the atom.
    pub fn is_top(&self) -> bool {
        self.mask == 0
    }

    /// Number of security views that answer the atom.
    pub fn view_count(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// `self ⪯ other` in the lattice of disclosure labels:
    /// the information revealed by `self`'s atom is no more than that of
    /// `other`'s atom.  Requires the same base relation and `ℓ⁺` superset.
    pub fn leq(&self, other: &AtomLabel) -> bool {
        self.relation == other.relation && (other.mask & !self.mask) == 0
    }

    /// Packs the label into a single 64-bit word (Section 6.1).
    ///
    /// The packed form stores a 32-bit view mask, so it is faithful only
    /// for relations within
    /// [`MAX_PACKED_VIEWS_PER_RELATION`](crate::security_views::MAX_PACKED_VIEWS_PER_RELATION)
    /// (= 32) views.  The online-mutation surfaces that feed the packed
    /// serving path (`add_view`, the service's `AddSecurityView`) enforce
    /// that budget, so packed masks never truncate there; registries built
    /// wider at construction (up to the 64-view unpacked capacity, e.g. the
    /// case study's) must stay on the unpacked representation, and debug
    /// builds assert the constraint here.
    pub fn pack(&self) -> PackedLabel {
        debug_assert!(
            self.mask <= u64::from(u32::MAX),
            "packed labels support at most 32 views per relation (mask {:#x})",
            self.mask
        );
        PackedLabel::new(self.relation, self.mask as u32)
    }

    /// The security-view ids this label denotes, resolved through the
    /// registry.
    pub fn views(&self, registry: &SecurityViews) -> Vec<SecurityViewId> {
        registry
            .views_for_relation(self.relation)
            .iter()
            .copied()
            .filter(|id| self.mask & (1u64 << registry.view(*id).bit) != 0)
            .collect()
    }
}

/// The paper's packed 64-bit label: relation id in the low 32 bits, view
/// mask in the high 32 bits.
///
/// "In this way, a single 64-bit integer can store a disclosure label for a
/// disclosure lattice with up to 2³² distinct relations, each of which is
/// associated with 32 distinct elements from `Fgen`."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedLabel(pub u64);

impl PackedLabel {
    /// Packs a relation id and a 32-bit view mask.
    pub fn new(relation: RelId, mask: u32) -> Self {
        PackedLabel(((mask as u64) << 32) | relation.0 as u64)
    }

    /// The relation id stored in the low 32 bits.
    pub fn relation(self) -> RelId {
        RelId((self.0 & 0xFFFF_FFFF) as u32)
    }

    /// The view mask stored in the high 32 bits.
    pub fn mask(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// `self ⪯ other` (same relation, `ℓ⁺` superset) as a pair of bit-mask
    /// operations on the packed representation.
    pub fn leq(self, other: PackedLabel) -> bool {
        self.relation() == other.relation() && (other.mask() & !self.mask()) == 0
    }

    /// Unpacks into an [`AtomLabel`].
    pub fn unpack(self) -> AtomLabel {
        AtomLabel {
            relation: self.relation(),
            mask: self.mask() as u64,
        }
    }
}

/// The disclosure label of a (possibly multi-atom) query: one
/// [`AtomLabel`] per dissected atom.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisclosureLabel {
    atoms: Vec<AtomLabel>,
}

impl DisclosureLabel {
    /// The label of the empty set of queries: ⊥ (nothing disclosed).
    pub fn bottom() -> Self {
        DisclosureLabel { atoms: Vec::new() }
    }

    /// Builds a label from per-atom labels.
    pub fn from_atoms(atoms: Vec<AtomLabel>) -> Self {
        atoms.into_iter().collect()
    }

    /// Adds one atom label, absorbing redundancy: an atom label that is
    /// already implied by (i.e. `⪯`) an existing one is dropped, and
    /// existing ones implied by the new one are removed.
    pub fn push(&mut self, atom: AtomLabel) {
        if self.atoms.iter().any(|existing| atom.leq(existing)) {
            return;
        }
        self.atoms.retain(|existing| !existing.leq(&atom));
        self.atoms.push(atom);
    }

    /// The per-atom labels.
    pub fn atoms(&self) -> &[AtomLabel] {
        &self.atoms
    }

    /// Number of atom labels.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the label has no atom labels — i.e. it is ⊥.
    ///
    /// Alias of [`is_bottom`](Self::is_bottom), provided for the
    /// conventional `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// True if nothing is disclosed (⊥).
    pub fn is_bottom(&self) -> bool {
        self.atoms.is_empty()
    }

    /// True if some atom is unanswerable by any security view (contains ⊤).
    pub fn contains_top(&self) -> bool {
        self.atoms.iter().any(AtomLabel::is_top)
    }

    /// `self ⪯ other`: every atom of `self` is `⪯` some atom of `other`.
    ///
    /// This is the `O(r·s)` comparison of Section 6.1.
    pub fn leq(&self, other: &DisclosureLabel) -> bool {
        self.atoms
            .iter()
            .all(|a| other.atoms.iter().any(|b| a.leq(b)))
    }

    /// The cumulative label after also disclosing `other` (lattice LUB under
    /// the per-atom representation): the union of the atom labels, with
    /// redundancy absorbed.
    pub fn combine(&self, other: &DisclosureLabel) -> DisclosureLabel {
        let mut out = self.clone();
        for a in &other.atoms {
            out.push(*a);
        }
        out
    }

    /// In-place version of [`combine`](Self::combine).
    pub fn combine_in_place(&mut self, other: &DisclosureLabel) {
        for a in &other.atoms {
            self.push(*a);
        }
    }

    /// Packs every atom label (Section 6.1's array-of-u64 representation).
    pub fn pack(&self) -> Vec<PackedLabel> {
        self.atoms.iter().map(AtomLabel::pack).collect()
    }

    /// [`pack`](Self::pack), appended to a buffer the caller owns — a
    /// request packs all its labels into one arena instead of one vector
    /// per label.
    pub fn pack_into(&self, out: &mut Vec<PackedLabel>) {
        out.extend(self.atoms.iter().map(AtomLabel::pack));
    }

    /// Renders the label as the set of security-view names it requires, one
    /// alternative set per atom (the views of one atom's `ℓ⁺` are
    /// interchangeable).
    pub fn describe(&self, registry: &SecurityViews) -> String {
        if self.atoms.is_empty() {
            return "⊥ (nothing disclosed)".to_owned();
        }
        let mut parts = Vec::new();
        for atom in &self.atoms {
            if atom.is_top() {
                parts.push(format!(
                    "⊤ on {} (no security view answers this atom)",
                    registry.catalog().name(atom.relation)
                ));
                continue;
            }
            let names: Vec<&str> = atom
                .views(registry)
                .into_iter()
                .map(|id| registry.view(id).name.as_str())
                .collect();
            parts.push(format!("one of {{{}}}", names.join(", ")));
        }
        parts.join(" and ")
    }
}

impl FromIterator<AtomLabel> for DisclosureLabel {
    /// [`push`](DisclosureLabel::push)es every atom label in order.
    fn from_iter<I: IntoIterator<Item = AtomLabel>>(atoms: I) -> Self {
        let mut label = DisclosureLabel::bottom();
        for atom in atoms {
            label.push(atom);
        }
        label
    }
}

impl fmt::Display for DisclosureLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{:#x}", a.relation, a.mask)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(i: u32) -> RelId {
        RelId(i)
    }

    #[test]
    fn atom_label_comparisons_follow_the_superset_rule() {
        let narrow = AtomLabel::new(rel(0), 0b0001); // answerable only by view 0
        let wide = AtomLabel::new(rel(0), 0b0111); // answerable by views 0,1,2
                                                   // The widely-answerable atom reveals less information.
        assert!(wide.leq(&narrow));
        assert!(!narrow.leq(&wide));
        // Reflexivity.
        assert!(narrow.leq(&narrow));
        // Different relations are incomparable.
        let other_rel = AtomLabel::new(rel(1), 0b0111);
        assert!(!wide.leq(&other_rel));
        assert!(!other_rel.leq(&wide));
    }

    #[test]
    fn top_labels_behave_like_the_top_element() {
        let top = AtomLabel::top(rel(0));
        let some = AtomLabel::new(rel(0), 0b10);
        assert!(top.is_top());
        assert!(!some.is_top());
        // Everything (over the same relation) is ⪯ ⊤ ...
        assert!(some.leq(&top));
        // ... and ⊤ is only ⪯ ⊤.
        assert!(!top.leq(&some));
        assert!(top.leq(&AtomLabel::top(rel(0))));
        assert_eq!(top.view_count(), 0);
        assert_eq!(some.view_count(), 1);
    }

    #[test]
    fn packing_round_trips() {
        let label = AtomLabel::new(rel(7), 0b1011);
        let packed = label.pack();
        assert_eq!(packed.relation(), rel(7));
        assert_eq!(packed.mask(), 0b1011);
        assert_eq!(packed.unpack(), label);
        // Packed comparison agrees with unpacked comparison.
        let other = AtomLabel::new(rel(7), 0b0011);
        assert_eq!(packed.leq(other.pack()), label.leq(&other));
        assert_eq!(other.pack().leq(packed), other.leq(&label));
    }

    #[test]
    fn packed_label_layout_matches_the_paper() {
        let packed = PackedLabel::new(rel(3), 0b101);
        // Low 32 bits: relation id; high 32 bits: view mask.
        assert_eq!(packed.0 & 0xFFFF_FFFF, 3);
        assert_eq!(packed.0 >> 32, 0b101);
    }

    #[test]
    fn multi_atom_comparison_is_pairwise() {
        let meetings_full = AtomLabel::new(rel(0), 0b01);
        let meetings_any = AtomLabel::new(rel(0), 0b11);
        let contacts = AtomLabel::new(rel(1), 0b1);

        let q_small = DisclosureLabel::from_atoms(vec![meetings_any]);
        let q_join = DisclosureLabel::from_atoms(vec![meetings_full, contacts]);

        // Disclosing the join reveals at least as much as the projection.
        assert!(q_small.leq(&q_join));
        assert!(!q_join.leq(&q_small));
        // ⊥ is below everything.
        assert!(DisclosureLabel::bottom().leq(&q_small));
        assert!(!q_small.leq(&DisclosureLabel::bottom()));
        assert!(DisclosureLabel::bottom().is_bottom());
        assert!(!q_join.is_bottom());
    }

    #[test]
    fn push_absorbs_redundant_atom_labels() {
        let mut label = DisclosureLabel::bottom();
        let weak = AtomLabel::new(rel(0), 0b111);
        let strong = AtomLabel::new(rel(0), 0b001);
        label.push(weak);
        assert_eq!(label.len(), 1);
        // Re-pushing the same label changes nothing.
        label.push(weak);
        assert_eq!(label.len(), 1);
        // Pushing a strictly stronger label replaces the weaker one.
        label.push(strong);
        assert_eq!(label.len(), 1);
        assert_eq!(label.atoms()[0], strong);
        // Pushing a weaker one afterwards is a no-op.
        label.push(weak);
        assert_eq!(label.len(), 1);
        assert_eq!(label.atoms()[0], strong);
    }

    #[test]
    fn combine_is_the_cumulative_lub() {
        let a = DisclosureLabel::from_atoms(vec![AtomLabel::new(rel(0), 0b11)]);
        let b = DisclosureLabel::from_atoms(vec![AtomLabel::new(rel(1), 0b1)]);
        let ab = a.combine(&b);
        assert_eq!(ab.len(), 2);
        assert!(a.leq(&ab));
        assert!(b.leq(&ab));
        // Combining is monotone and idempotent.
        assert_eq!(ab.combine(&a), ab);
        let mut c = a.clone();
        c.combine_in_place(&b);
        assert_eq!(c, ab);
    }

    #[test]
    fn contains_top_detects_unanswerable_atoms() {
        let ok = DisclosureLabel::from_atoms(vec![AtomLabel::new(rel(0), 0b1)]);
        let not_ok =
            DisclosureLabel::from_atoms(vec![AtomLabel::new(rel(0), 0b1), AtomLabel::top(rel(1))]);
        assert!(!ok.contains_top());
        assert!(not_ok.contains_top());
    }

    #[test]
    fn display_and_pack_of_multi_atom_labels() {
        let label = DisclosureLabel::from_atoms(vec![
            AtomLabel::new(rel(0), 0b1),
            AtomLabel::new(rel(1), 0b110),
        ]);
        let packed = label.pack();
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[0].relation(), rel(0));
        assert_eq!(packed[1].mask(), 0b110);
        let text = label.to_string();
        assert!(text.contains("rel#0"));
        assert!(text.contains("0x6"));
    }

    #[test]
    fn describe_names_the_required_views() {
        let registry = SecurityViews::paper_example();
        let catalog = registry.catalog();
        let meetings = catalog.resolve("Meetings").unwrap();
        let contacts = catalog.resolve("Contacts").unwrap();

        // An atom answerable only by V1 plus an atom answerable by V3.
        let label = DisclosureLabel::from_atoms(vec![
            AtomLabel::new(meetings, 0b01),
            AtomLabel::new(contacts, 0b1),
        ]);
        let text = label.describe(&registry);
        assert!(text.contains("V1"));
        assert!(text.contains("V3"));

        assert!(DisclosureLabel::bottom().describe(&registry).contains('⊥'));
        let top = DisclosureLabel::from_atoms(vec![AtomLabel::top(meetings)]);
        assert!(top.describe(&registry).contains('⊤'));
    }
}

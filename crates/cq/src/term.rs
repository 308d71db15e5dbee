//! Terms: variables (distinguished or existential) and constants.
//!
//! The paper (Section 5) represents a conjunctive query as a list of body
//! atoms whose variables carry a *distinguished* / *existential* tag instead
//! of keeping an explicit head.  [`Term`] mirrors that representation: a term
//! is either a tagged variable or a constant.
//!
//! A term comes in two forms:
//!
//! * the owned [`Term`] (16 bytes, a [`Constant`] inside it), which a caller
//!   builds atoms from and which substitutions and unifiers carry between
//!   queries;
//! * the borrowed [`TermRef`], which a
//!   [`ConjunctiveQuery`](crate::ConjunctiveQuery) lends out.  A query
//!   stores each term as one 4-byte word and each distinct constant once,
//!   in a per-query table; a `TermRef` carries the constant's *value*
//!   ([`ConstRef`]), never its place in that table, so it means the same
//!   thing in every query.
//!
//! A `TermRef` compares, orders and hashes exactly as the `Term` with the
//! same value ([`Term::as_term_ref`], [`TermRef::to_term`]).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a variable within a single query.
///
/// Variable ids are local to a [`ConjunctiveQuery`](crate::ConjunctiveQuery):
/// two different queries may both use `VarId(0)` for unrelated variables.
/// Ids are dense (0, 1, 2, …) which lets algorithms index arrays by variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Returns the id as a usize, convenient for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Whether a variable is exposed in the query head (*distinguished*) or only
/// appears in the body (*existential*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarKind {
    /// The variable appears in the head of the query: its bindings are part
    /// of the query answer.
    Distinguished,
    /// The variable appears only in the body: it is existentially quantified
    /// and projected away.
    Existential,
}

impl VarKind {
    /// True for [`VarKind::Distinguished`].
    #[inline]
    pub fn is_distinguished(self) -> bool {
        matches!(self, VarKind::Distinguished)
    }

    /// True for [`VarKind::Existential`].
    #[inline]
    pub fn is_existential(self) -> bool {
        matches!(self, VarKind::Existential)
    }
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarKind::Distinguished => write!(f, "d"),
            VarKind::Existential => write!(f, "e"),
        }
    }
}

/// The text of a string constant.
///
/// Up to [`SmallStr::INLINE`] bytes are stored in place; longer text sits
/// behind one thin pointer to a boxed `str`.  Either way the value is 16
/// bytes, so a [`Constant`] and a [`Term`] are 16 bytes too, and a short
/// constant — every constant of the paper's workload — owns no heap block.
///
/// `Eq`, `Ord`, `Hash`, `Debug` and `Display` are those of the text, exactly
/// as for a `String` holding it; the storage is not observable.
#[derive(Clone, PartialEq, Eq)]
pub struct SmallStr(Repr);

/// Which representation a [`SmallStr`] uses is fixed by its length, and
/// inline bytes past `len` are zero, so the derived `Eq` compares the text.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// `len <= INLINE` bytes of UTF-8, zero-padded.
    Inline {
        len: u8,
        bytes: [u8; SmallStr::INLINE],
    },
    /// Text longer than `INLINE` bytes.
    Heap(Box<Box<str>>),
}

impl SmallStr {
    /// The longest text, in bytes, stored without a heap block.
    pub const INLINE: usize = 14;

    /// Stores `text`, in place if it is at most [`INLINE`](Self::INLINE)
    /// bytes long.
    pub fn new(text: &str) -> Self {
        if text.len() <= Self::INLINE {
            let mut bytes = [0; Self::INLINE];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            SmallStr(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            SmallStr(Repr::Heap(Box::new(text.into())))
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline text is copied from a str"),
            Repr::Heap(text) => text,
        }
    }

    /// The text's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl std::ops::Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Byte order, which is `str`'s order.
impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashes as the same `str` does — its bytes, then `0xff` — straight from
/// the bytes, without `as_str`'s UTF-8 check.
impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for SmallStr {
    fn from(text: &str) -> Self {
        SmallStr::new(text)
    }
}

/// Keeps a long string's buffer instead of copying it.
impl From<String> for SmallStr {
    fn from(text: String) -> Self {
        if text.len() <= Self::INLINE {
            SmallStr::new(&text)
        } else {
            SmallStr(Repr::Heap(Box::new(text.into_boxed_str())))
        }
    }
}

/// A constant value appearing in a query.
///
/// The paper's examples use string constants (`'Cathy'`, `'Intern'`) and
/// integer constants (`9`).  Both are supported; a string's text is a
/// [`SmallStr`], so a constant is 16 bytes and a string of at most
/// [`SmallStr::INLINE`] bytes lives in the constant itself.
///
/// `Display` writes a string in the parser's notation: `'…'`, or `"…"` when
/// the text contains a `'`.  The grammar has no escapes, so a text
/// containing both quote characters has no written form that parses back.
///
/// `Hash` is that of [`as_const_ref`](Self::as_const_ref), so a constant and
/// the [`ConstRef`] of its value hash alike.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Constant {
    /// An integer constant such as `9`.
    Int(i64),
    /// A string constant such as `'Cathy'`.
    Str(SmallStr),
}

impl Constant {
    /// Builds a string constant.
    pub fn str(s: impl Into<SmallStr>) -> Self {
        Constant::Str(s.into())
    }

    /// Builds an integer constant.
    pub fn int(i: i64) -> Self {
        Constant::Int(i)
    }

    /// The constant as the borrowed view a query lends out.
    #[inline]
    pub fn as_const_ref(&self) -> ConstRef<'_> {
        match self {
            Constant::Int(i) => ConstRef::Int(*i),
            Constant::Str(s) => ConstRef::Str(s.as_str()),
        }
    }

    /// The constant's value as bytes, without `as_str`'s UTF-8 check.
    #[inline]
    pub(crate) fn as_const_bytes(&self) -> ConstBytes<'_> {
        match self {
            Constant::Int(i) => ConstBytes::Int(*i),
            Constant::Str(s) => ConstBytes::Str(s.as_bytes()),
        }
    }
}

/// A constant's value with a string's text as its UTF-8 bytes: what the
/// constant tables hash and compare, so a lookup never re-checks the
/// UTF-8 of text that was checked when it was stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConstBytes<'a> {
    /// An integer constant.
    Int(i64),
    /// A string constant's text, known to be UTF-8.
    Str(&'a [u8]),
}

impl ConstBytes<'_> {
    /// An owned copy of the constant.
    pub(crate) fn to_constant(self) -> Constant {
        match self {
            ConstBytes::Int(i) => Constant::Int(i),
            ConstBytes::Str(bytes) => {
                Constant::str(std::str::from_utf8(bytes).expect("a string constant is UTF-8"))
            }
        }
    }
}

impl Hash for Constant {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_const_ref().hash(state);
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_const_ref(), f)
    }
}

/// A constant's value, borrowed: what a query lends out for a constant it
/// stores in its constant table.  Ordered, compared (with another
/// `ConstRef` or with a [`Constant`]), hashed and displayed exactly as the
/// `Constant` with the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConstRef<'a> {
    /// An integer constant such as `9`.
    Int(i64),
    /// A string constant such as `'Cathy'`.
    Str(&'a str),
}

impl<'a> ConstRef<'a> {
    /// The constant's value as bytes.
    #[inline]
    pub(crate) fn as_const_bytes(self) -> ConstBytes<'a> {
        match self {
            ConstRef::Int(i) => ConstBytes::Int(i),
            ConstRef::Str(s) => ConstBytes::Str(s.as_bytes()),
        }
    }

    /// An owned copy of the constant.
    pub fn to_constant(self) -> Constant {
        match self {
            ConstRef::Int(i) => Constant::Int(i),
            ConstRef::Str(s) => Constant::str(s),
        }
    }

    /// The constant as an owned term.
    pub fn to_term(self) -> Term {
        Term::Const(self.to_constant())
    }
}

/// A tag, then the integer or the text's bytes and `0xff` (as `str` hashes
/// them, and as [`SmallStr`] does).
impl Hash for ConstRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ConstRef::Int(i) => {
                state.write_u8(0);
                state.write_i64(*i);
            }
            ConstRef::Str(s) => {
                state.write_u8(1);
                state.write(s.as_bytes());
                state.write_u8(0xff);
            }
        }
    }
}

impl PartialEq<Constant> for ConstRef<'_> {
    fn eq(&self, other: &Constant) -> bool {
        *self == other.as_const_ref()
    }
}

impl PartialEq<ConstRef<'_>> for Constant {
    fn eq(&self, other: &ConstRef<'_>) -> bool {
        self.as_const_ref() == *other
    }
}

impl fmt::Display for ConstRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstRef::Int(i) => write!(f, "{i}"),
            ConstRef::Str(s) if s.contains('\'') => write!(f, "\"{s}\""),
            ConstRef::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Constant {
    fn from(i: i64) -> Self {
        Constant::Int(i)
    }
}

impl From<&str> for Constant {
    fn from(s: &str) -> Self {
        Constant::Str(s.into())
    }
}

impl From<String> for Constant {
    fn from(s: String) -> Self {
        Constant::Str(s.into())
    }
}

/// A term in an atom: either a tagged variable or a constant — 16 bytes
/// either way.  `Hash` is that of [`as_term_ref`](Self::as_term_ref).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// A variable together with its distinguished/existential tag.
    Var(VarId, VarKind),
    /// A constant.
    Const(Constant),
}

impl Term {
    /// Builds a distinguished variable term.
    #[inline]
    pub fn dist(id: u32) -> Self {
        Term::Var(VarId(id), VarKind::Distinguished)
    }

    /// Builds an existential variable term.
    #[inline]
    pub fn exist(id: u32) -> Self {
        Term::Var(VarId(id), VarKind::Existential)
    }

    /// Builds a constant term.
    #[inline]
    pub fn constant(c: impl Into<Constant>) -> Self {
        Term::Const(c.into())
    }

    /// Returns the variable id if the term is a variable.
    #[inline]
    pub fn var_id(&self) -> Option<VarId> {
        match self {
            Term::Var(id, _) => Some(*id),
            Term::Const(_) => None,
        }
    }

    /// Returns the variable kind if the term is a variable.
    #[inline]
    pub fn var_kind(&self) -> Option<VarKind> {
        match self {
            Term::Var(_, kind) => Some(*kind),
            Term::Const(_) => None,
        }
    }

    /// True if the term is a variable (of either kind).
    #[inline]
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(..))
    }

    /// True if the term is a distinguished variable.
    #[inline]
    pub fn is_distinguished(&self) -> bool {
        matches!(self, Term::Var(_, VarKind::Distinguished))
    }

    /// True if the term is an existential variable.
    #[inline]
    pub fn is_existential(&self) -> bool {
        matches!(self, Term::Var(_, VarKind::Existential))
    }

    /// True if the term is a constant.
    #[inline]
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// Returns the constant if the term is one.
    #[inline]
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(..) => None,
        }
    }

    /// The term as the borrowed view a query lends out.
    #[inline]
    pub fn as_term_ref(&self) -> TermRef<'_> {
        match self {
            Term::Var(id, kind) => TermRef::Var(*id, *kind),
            Term::Const(c) => TermRef::Const(c.as_const_ref()),
        }
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_term_ref().hash(state);
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_term_ref(), f)
    }
}

/// A term as a query lends it out: a tagged variable, or a constant's value
/// borrowed from the query's constant table.  Ordered, compared (with
/// another `TermRef` or with a [`Term`]), hashed and displayed exactly as
/// the `Term` with the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermRef<'a> {
    /// A variable together with its distinguished/existential tag.
    Var(VarId, VarKind),
    /// A constant.
    Const(ConstRef<'a>),
}

impl<'a> TermRef<'a> {
    /// An owned copy of the term.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Var(id, kind) => Term::Var(id, kind),
            TermRef::Const(c) => c.to_term(),
        }
    }

    /// Returns the variable id if the term is a variable.
    #[inline]
    pub fn var_id(self) -> Option<VarId> {
        match self {
            TermRef::Var(id, _) => Some(id),
            TermRef::Const(_) => None,
        }
    }

    /// Returns the variable kind if the term is a variable.
    #[inline]
    pub fn var_kind(self) -> Option<VarKind> {
        match self {
            TermRef::Var(_, kind) => Some(kind),
            TermRef::Const(_) => None,
        }
    }

    /// True if the term is a variable (of either kind).
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, TermRef::Var(..))
    }

    /// True if the term is a distinguished variable.
    #[inline]
    pub fn is_distinguished(self) -> bool {
        matches!(self, TermRef::Var(_, VarKind::Distinguished))
    }

    /// True if the term is an existential variable.
    #[inline]
    pub fn is_existential(self) -> bool {
        matches!(self, TermRef::Var(_, VarKind::Existential))
    }

    /// True if the term is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, TermRef::Const(_))
    }

    /// Returns the constant if the term is one.
    #[inline]
    pub fn as_const(self) -> Option<ConstRef<'a>> {
        match self {
            TermRef::Const(c) => Some(c),
            TermRef::Var(..) => None,
        }
    }
}

/// A tag, then the variable's id and kind or the constant's value.
impl Hash for TermRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            TermRef::Var(id, kind) => {
                state.write_u8(0);
                state.write_u32(id.0);
                state.write_u8(u8::from(kind.is_existential()));
            }
            TermRef::Const(c) => {
                state.write_u8(1);
                c.hash(state);
            }
        }
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        *self == other.as_term_ref()
    }
}

impl PartialEq<TermRef<'_>> for Term {
    fn eq(&self, other: &TermRef<'_>) -> bool {
        self.as_term_ref() == *other
    }
}

impl fmt::Display for TermRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermRef::Var(id, kind) => write!(f, "{id}{kind}"),
            TermRef::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A term as a query stores it: one `u32`, laid out as the interner's
/// [`ITerm`](crate::intern::ITerm).  Bit 31 is the const bit.  A variable
/// keeps its kind in bit 30 (set for existential) and its [`VarId`] in bits
/// 0–29; a constant keeps in bits 0–30 its index in the query's constant
/// table, which holds the query's distinct constants in first-occurrence
/// order.  A query's words are only ever read together with that table.
pub(crate) mod word {
    use super::{VarId, VarKind};

    /// Set in a constant's word.
    pub(crate) const CONST_BIT: u32 = 1 << 31;
    /// Set in an existential variable's word.
    pub(crate) const EXISTENTIAL_BIT: u32 = 1 << 30;
    /// The largest variable id a word holds (30 bits).
    pub(crate) const MAX_VAR: u32 = EXISTENTIAL_BIT - 1;
    /// The largest constant index a word holds (31 bits).
    pub(crate) const MAX_CONST: u32 = CONST_BIT - 1;

    /// The kind bit of a variable's word.
    #[inline]
    pub(crate) const fn kind_bit(kind: VarKind) -> u32 {
        match kind {
            VarKind::Distinguished => 0,
            VarKind::Existential => EXISTENTIAL_BIT,
        }
    }

    /// The word of variable `v` of kind `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is wider than 30 bits.
    #[inline]
    pub(crate) fn var(v: VarId, kind: VarKind) -> u32 {
        assert!(v.0 <= MAX_VAR, "variable {v} is wider than 30 bits");
        v.0 | kind_bit(kind)
    }

    /// The word of the constant at `index` of the constant table.
    #[inline]
    pub(crate) fn constant(index: u32) -> u32 {
        debug_assert!(index <= MAX_CONST);
        index | CONST_BIT
    }

    /// What a word holds, to match on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Word {
        /// A variable and its kind.
        Var(VarId, VarKind),
        /// A constant, by its index in the query's constant table.
        Const(u32),
    }

    /// What `word` holds.
    #[inline]
    pub(crate) fn get(word: u32) -> Word {
        if word & CONST_BIT != 0 {
            Word::Const(word & MAX_CONST)
        } else if word & EXISTENTIAL_BIT != 0 {
            Word::Var(VarId(word & MAX_VAR), VarKind::Existential)
        } else {
            Word::Var(VarId(word), VarKind::Distinguished)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_constructors_and_predicates() {
        let d = Term::dist(3);
        assert!(d.is_var());
        assert!(d.is_distinguished());
        assert!(!d.is_existential());
        assert_eq!(d.var_id(), Some(VarId(3)));
        assert_eq!(d.var_kind(), Some(VarKind::Distinguished));
        assert_eq!(d.as_const(), None);

        let e = Term::exist(7);
        assert!(e.is_existential());
        assert!(!e.is_distinguished());

        let c = Term::constant("Cathy");
        assert!(c.is_const());
        assert!(!c.is_var());
        assert_eq!(c.var_id(), None);
        assert_eq!(c.var_kind(), None);
        assert_eq!(c.as_const(), Some(&Constant::Str("Cathy".into())));

        let i = Term::constant(9i64);
        assert_eq!(i.as_const(), Some(&Constant::Int(9)));
    }

    #[test]
    fn constant_conversions() {
        assert_eq!(Constant::from(5i64), Constant::Int(5));
        assert_eq!(Constant::from("a"), Constant::Str("a".into()));
        assert_eq!(Constant::from(String::from("b")), Constant::Str("b".into()));
        assert_eq!(Constant::str("x"), Constant::Str("x".into()));
        assert_eq!(Constant::int(-2), Constant::Int(-2));
    }

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(Term::dist(0).to_string(), "v0d");
        assert_eq!(Term::exist(1).to_string(), "v1e");
        assert_eq!(Term::constant("Intern").to_string(), "'Intern'");
        // Double quotes only where single ones would end the text early.
        assert_eq!(Term::constant("O'Brien").to_string(), r#""O'Brien""#);
        assert_eq!(Term::constant(r#"say "hi""#).to_string(), r#"'say "hi"'"#);
        assert_eq!(Term::constant(9i64).to_string(), "9");
        assert_eq!(VarKind::Distinguished.to_string(), "d");
        assert_eq!(VarKind::Existential.to_string(), "e");
    }

    /// Texts at the lengths around the inline capacity, each with a
    /// neighbour differing in its last byte, multi-byte UTF-8 on both sides
    /// of byte 14, and the quote characters.
    fn model_texts() -> Vec<String> {
        const SOURCE: &str = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        let mut texts = Vec::new();
        for len in [0, 1, 13, 14, 15, 40] {
            texts.push(SOURCE[..len].to_owned());
            if len > 0 {
                texts.push(format!("{}~", &SOURCE[..len - 1]));
            }
        }
        // 13 ASCII bytes and `é` straddle byte 14; 12 and `é` fill it.
        texts.push(format!("{}é", &SOURCE[..13]));
        texts.push(format!("{}é", &SOURCE[..12]));
        texts.push(format!("é{}", &SOURCE[..12]));
        texts.extend(["Cathy", "O'Brien", r#"say "hi""#, "tab\tnewline\n"].map(str::to_owned));
        texts
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn small_str_agrees_with_a_string_model() {
        use std::collections::{BTreeSet, HashSet};

        let texts = model_texts();
        let smalls: Vec<SmallStr> = texts.iter().map(|t| SmallStr::new(t)).collect();
        for (text, small) in texts.iter().zip(&smalls) {
            assert_eq!(small.as_str(), text);
            assert_eq!(small.as_bytes(), text.as_bytes());
            assert_eq!(&SmallStr::from(text.clone()), small);
            assert_eq!(hash_of(small), hash_of(text), "{text:?}");
            assert_eq!(small.to_string(), *text);
            assert_eq!(format!("{small:>45}"), format!("{text:>45}"));
            assert_eq!(format!("{small:?}"), format!("{text:?}"));
            assert_eq!(
                format!("{:?}", Constant::Str(small.clone())),
                format!("Str({text:?})")
            );
        }
        for (a, small_a) in texts.iter().zip(&smalls) {
            for (b, small_b) in texts.iter().zip(&smalls) {
                assert_eq!(small_a == small_b, a == b, "{a:?} vs {b:?}");
                assert_eq!(small_a.cmp(small_b), a.cmp(b), "{a:?} vs {b:?}");
                let (ca, cb) = (Constant::str(a.as_str()), Constant::str(b.as_str()));
                assert_eq!(ca.cmp(&cb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        let hashed: HashSet<&SmallStr> = smalls.iter().collect();
        assert_eq!(hashed.len(), texts.iter().collect::<HashSet<_>>().len());
        assert!(texts.iter().all(|t| hashed.contains(&SmallStr::new(t))));
        let ordered: Vec<&str> = smalls
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(SmallStr::as_str)
            .collect();
        let model: Vec<&str> = texts
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(String::as_str)
            .collect();
        assert_eq!(ordered, model);
        assert_eq!(format!("{:?}", Constant::str("Cathy")), r#"Str("Cathy")"#);
    }

    /// A hasher that records what it is fed.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    fn fed(value: &impl Hash) -> Vec<u8> {
        let mut recorder = Recorder::default();
        value.hash(&mut recorder);
        recorder.0
    }

    #[test]
    fn small_str_hashes_like_the_same_str() {
        for text in model_texts() {
            let small = SmallStr::new(&text);
            assert_eq!(fed(&small), fed(&text.as_str()), "{text:?}");
            let mut bytes = text.clone().into_bytes();
            bytes.push(0xff);
            assert_eq!(fed(&small), bytes, "{text:?}");
            assert_eq!(hash_of(&small), hash_of(&text.as_str()), "{text:?}");
        }
    }

    #[test]
    fn term_refs_compare_order_and_hash_as_their_terms() {
        let mut terms = vec![
            Term::dist(0),
            Term::dist(1),
            Term::exist(0),
            Term::exist(1),
            Term::constant(7i64),
            Term::constant(-7i64),
            Term::constant("7"),
            Term::constant(""),
        ];
        terms.extend(model_texts().iter().map(|t| Term::constant(t.as_str())));
        for a in &terms {
            let view = a.as_term_ref();
            assert_eq!(view.to_term(), *a);
            assert_eq!(view, *a);
            assert_eq!(hash_of(&view), hash_of(a), "{a:?}");
            assert_eq!(fed(&view), fed(a), "{a:?}");
            assert_eq!(view.to_string(), a.to_string());
            assert_eq!(format!("{view:?}"), format!("{a:?}"));
            assert_eq!(view.is_const(), a.is_const());
            assert_eq!(view.is_existential(), a.is_existential());
            assert_eq!(view.is_distinguished(), a.is_distinguished());
            assert_eq!(view.var_id(), a.var_id());
            assert_eq!(view.var_kind(), a.var_kind());
            if let Some(c) = a.as_const() {
                assert_eq!(view.as_const(), Some(c.as_const_ref()));
                assert_eq!(c.as_const_ref().to_constant(), *c);
                assert_eq!(hash_of(&c.as_const_ref()), hash_of(c));
                assert_eq!(c.as_const_ref().to_string(), c.to_string());
            }
            for b in &terms {
                assert_eq!(view == b.as_term_ref(), a == b, "{a:?} vs {b:?}");
                assert_eq!(view.cmp(&b.as_term_ref()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        // The integer 7 and the text "7" are different constants.
        assert_ne!(ConstRef::Int(7), ConstRef::Str("7"));
        assert_ne!(hash_of(&ConstRef::Int(7)), hash_of(&ConstRef::Str("7")));
        // A variable's kind reaches the hasher.
        assert_ne!(hash_of(&Term::dist(0)), hash_of(&Term::exist(0)));
        assert_ne!(
            hash_of(&Term::dist(0).as_term_ref()),
            hash_of(&Term::exist(0).as_term_ref())
        );
    }

    #[test]
    fn a_word_holds_a_variable_or_a_constant_index() {
        use word::Word;
        for (v, kind) in [
            (0, VarKind::Distinguished),
            (0, VarKind::Existential),
            (word::MAX_VAR, VarKind::Distinguished),
            (word::MAX_VAR, VarKind::Existential),
        ] {
            assert_eq!(
                word::get(word::var(VarId(v), kind)),
                Word::Var(VarId(v), kind)
            );
        }
        for index in [0, 1 << 30, word::MAX_CONST] {
            assert_eq!(word::get(word::constant(index)), Word::Const(index));
        }
    }

    #[test]
    #[should_panic(expected = "wider than 30 bits")]
    fn a_word_refuses_a_variable_past_30_bits() {
        word::var(VarId(1 << 30), VarKind::Distinguished);
    }

    #[test]
    fn var_kind_predicates() {
        assert!(VarKind::Distinguished.is_distinguished());
        assert!(!VarKind::Distinguished.is_existential());
        assert!(VarKind::Existential.is_existential());
        assert!(!VarKind::Existential.is_distinguished());
    }

    #[test]
    fn var_id_index() {
        assert_eq!(VarId(42).index(), 42);
    }
}

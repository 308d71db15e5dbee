//! Terms: variables (distinguished or existential) and constants.
//!
//! The paper (Section 5) represents a conjunctive query as a list of body
//! atoms whose variables carry a *distinguished* / *existential* tag instead
//! of keeping an explicit head.  [`Term`] mirrors that representation: a term
//! is either a tagged variable or a constant.

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
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(i) => write!(f, "{i}"),
            Constant::Str(s) if s.contains('\'') => write!(f, "\"{s}\""),
            Constant::Str(s) => write!(f, "'{s}'"),
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
/// either way.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(id, kind) => write!(f, "{id}{kind}"),
            Term::Const(c) => write!(f, "{c}"),
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

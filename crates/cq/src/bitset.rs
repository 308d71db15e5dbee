//! Bit sets over a query's atoms or variables, by index.
//!
//! A query with at most 64 members fits one word, and the first-sight path
//! sees almost only such queries; past 64 the set is a slice of words.
//! Code generic over [`BitSet`] is instantiated for both, so the one-word
//! case pays for no indirection and a large query takes the same code.

/// A set of indices: a single `u64` (indices below 64), or a slice of words
/// (index `i` is bit `i % 64` of word `i / 64`).
pub trait BitSet {
    /// Index `i` is a member.
    fn contains(&self, i: usize) -> bool;
    /// Adds index `i`.
    fn insert(&mut self, i: usize);
    /// Removes index `i`.
    fn remove(&mut self, i: usize);
    /// Removes every member.
    fn clear(&mut self);
    /// The smallest member, if any.
    fn first(&self) -> Option<usize>;
    /// Adds every member of `other`.
    fn union_with(&mut self, other: &Self);
    /// Adds every index that is a member of both `a` and `b`.
    fn union_with_common(&mut self, a: &Self, b: &Self);
}

impl BitSet for u64 {
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self & (1 << i) != 0
    }
    #[inline]
    fn insert(&mut self, i: usize) {
        *self |= 1 << i;
    }
    #[inline]
    fn remove(&mut self, i: usize) {
        *self &= !(1 << i);
    }
    #[inline]
    fn clear(&mut self) {
        *self = 0;
    }
    #[inline]
    fn first(&self) -> Option<usize> {
        (*self != 0).then(|| self.trailing_zeros() as usize)
    }
    #[inline]
    fn union_with(&mut self, other: &Self) {
        *self |= other;
    }
    #[inline]
    fn union_with_common(&mut self, a: &Self, b: &Self) {
        *self |= a & b;
    }
}

impl BitSet for [u64] {
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self[i / 64].contains(i % 64)
    }
    #[inline]
    fn insert(&mut self, i: usize) {
        self[i / 64].insert(i % 64);
    }
    #[inline]
    fn remove(&mut self, i: usize) {
        self[i / 64].remove(i % 64);
    }
    fn clear(&mut self) {
        self.fill(0);
    }
    fn first(&self) -> Option<usize> {
        let w = self.iter().position(|word| *word != 0)?;
        Some(w * 64 + self[w].trailing_zeros() as usize)
    }
    fn union_with(&mut self, other: &Self) {
        for (word, other) in self.iter_mut().zip(other) {
            *word |= other;
        }
    }
    fn union_with_common(&mut self, a: &Self, b: &Self) {
        for ((word, a), b) in self.iter_mut().zip(a).zip(b) {
            *word |= a & b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the same operations on a one-word set and on a two-word slice
    /// whose members sit past the first word.
    #[test]
    fn a_word_and_a_slice_of_words_agree() {
        fn exercise<S: BitSet + ?Sized>(set: &mut S, offset: usize) -> Vec<Option<usize>> {
            let mut firsts = vec![set.first()];
            for i in [5, 3, 63] {
                set.insert(offset + i);
            }
            firsts.push(set.first());
            set.remove(offset + 3);
            firsts.push(set.first());
            assert!(set.contains(offset + 5) && !set.contains(offset + 3));
            set.clear();
            firsts.push(set.first());
            firsts
        }
        let mut word = 0u64;
        let mut words = [0u64; 2];
        let at = |firsts: Vec<Option<usize>>, offset: usize| {
            firsts
                .into_iter()
                .map(|f| f.map(|i| i - offset))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            at(exercise(&mut word, 0), 0),
            at(exercise(&mut words[..], 64), 64)
        );

        let (mut joins, earlier, this) = ([0u64; 2], [0b0110u64, 1], [0b1100u64, 3]);
        joins.union_with_common(&earlier, &this);
        assert_eq!(joins, [0b0100, 1]);
        let mut both = earlier;
        both.union_with(&this);
        assert_eq!(both, [0b1110, 3]);
    }
}

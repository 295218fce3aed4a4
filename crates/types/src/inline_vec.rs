//! A small-vector that keeps the first `N` elements inline, heap-free.
//!
//! The NoC computes a route for every message it sends, and every route
//! of the default fabrics is at most 13 hops — but `Vec` puts even one
//! hop on the heap. [`InlineVec`] stores up to `N` elements in the
//! struct itself and only spills to a `Vec` beyond that, so routing
//! allocates nothing on the common path.
//!
//! Deliberately minimal and `unsafe`-free: elements must be `Copy +
//! Default` (the inline array is filler-initialized). On overflow the
//! whole contents move to the spill `Vec` so the elements always live
//! in one contiguous slice.
//!
//! # Examples
//!
//! ```
//! use gsim_types::InlineVec;
//!
//! let mut v: InlineVec<u32, 4> = InlineVec::new();
//! v.push(1);
//! v.push(2);
//! assert_eq!(v.as_slice(), &[1, 2]);          // inline, no allocation
//! for x in [3, 4, 5] {
//!     v.push(x);                              // the fifth element spills
//! }
//! assert_eq!(v.iter().sum::<u32>(), 15);
//! assert_eq!(v.into_iter().count(), 5);
//! ```

use std::fmt;

/// A contiguous growable list holding up to `N` elements inline.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    /// Number of live elements in `inline` (0 once spilled).
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty list (no heap allocation).
    #[inline]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Appends an element, spilling to the heap only past `N` elements.
    #[inline]
    pub fn push(&mut self, item: T) {
        if !self.spill.is_empty() {
            self.spill.push(item);
        } else if self.len < N {
            self.inline[self.len] = item;
            self.len += 1;
        } else {
            self.spill.reserve(N + 1);
            self.spill.extend_from_slice(&self.inline[..self.len]);
            self.spill.push(item);
            self.len = 0;
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len
        } else {
            self.spill.len()
        }
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    /// The elements as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Iterates over the elements by reference.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N>
where
    T: Copy + Default,
{
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// By-value iteration: inline elements are copied out, spilled elements
/// drain the `Vec`.
pub struct InlineVecIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for InlineVecIter<T, N> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let item = self.vec.as_slice().get(self.next).copied();
        self.next += item.is_some() as usize;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.vec.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Copy + Default, const N: usize> ExactSizeIterator for InlineVecIter<T, N> {}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = InlineVecIter<T, N>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        InlineVecIter { vec: self, next: 0 }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn empty_and_single() {
        let v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.as_slice(), &[]);
        let mut one = InlineVec::<u32, 4>::new();
        one.push(9);
        assert_eq!(one.as_slice(), &[9]);
    }

    #[test]
    fn spill_preserves_order_and_contents() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..20 {
            v.push(i);
        }
        assert_eq!(v.len(), 20);
        assert_eq!(v.as_slice(), (0..20).collect::<Vec<_>>().as_slice());
        assert_eq!(
            v.into_iter().collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_vec_model_under_random_ops() {
        let mut rng = Rng64::seed_from_u64(0x1111);
        for _ in 0..64 {
            let mut v: InlineVec<u64, 3> = InlineVec::new();
            let mut model: Vec<u64> = Vec::new();
            for _ in 0..rng.gen_usize(1, 64) {
                let x = rng.gen_u64(0, 1000);
                v.push(x);
                model.push(x);
                assert_eq!(v.as_slice(), model.as_slice());
                assert_eq!(v.len(), model.len());
            }
            assert_eq!(v.iter().copied().collect::<Vec<_>>(), model);
        }
    }
}

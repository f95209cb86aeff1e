//! A fixed-capacity inline buffer with a heap spill path.
//!
//! [`InlineVec<T, N>`] stores up to `N` elements in an inline array with
//! no heap allocation. If a push exceeds `N`, the contents move to a heap
//! `Vec` (one allocation) and stay there until [`InlineVec::clear`]. The
//! spill vector's capacity is retained across `clear`, so a buffer that is
//! cleared and reused reaches an allocation-free steady state even when the
//! workload occasionally overflows the inline capacity.
//!
//! This is the building block for the simulator's per-access hot path: the
//! secure engine's [`Expansion`](../secure) buffers are sized for the
//! worst-case Table II metadata fan-out and never touch the allocator in
//! steady state. `T: Copy + Default` keeps the implementation trivially
//! safe (no `MaybeUninit`, the crate forbids `unsafe`).

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Grow-on-demand buffer that holds its first `N` elements inline.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Total element count, wherever they live.
    len: usize,
    /// Inline storage; valid for `..len` only while `spilled` is false.
    inline: [T; N],
    /// Heap storage; holds all `len` elements while `spilled` is true.
    /// Capacity is retained across `clear` for allocation-free reuse.
    spill: Vec<T>,
    /// Whether the live elements currently reside in `spill`.
    spilled: bool,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty buffer. Allocation-free.
    pub fn new() -> Self {
        Self { len: 0, inline: [T::default(); N], spill: Vec::new(), spilled: false }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` once the contents have moved to the heap spill vector.
    pub fn has_spilled(&self) -> bool {
        self.spilled
    }

    /// Appends an element, spilling to the heap when the inline array is
    /// full. The spill allocation happens at most once per high-water
    /// mark; after [`Self::clear`] the retained capacity is reused.
    #[inline]
    pub fn push(&mut self, value: T) {
        if !self.spilled && self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            self.push_spilled(value);
        }
    }

    /// The heap side of [`Self::push`]: appends to the spill vector,
    /// first migrating the inline contents there on overflow so storage
    /// stays contiguous (Deref hands out one slice).
    #[cold]
    fn push_spilled(&mut self, value: T) {
        if !self.spilled {
            self.spill.clear();
            self.spill.extend_from_slice(&self.inline);
            self.spilled = true;
        }
        self.spill.push(value);
        self.len += 1;
    }

    /// Appends every element of `values` in order.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Empties the buffer. Spill capacity is retained so later overflows
    /// of the same magnitude do not allocate again.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
        self.spilled = false;
    }

    /// The live elements as one contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spilled {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// The live elements as one contiguous mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spilled {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
            assert!(!v.has_spilled());
        }
        v.push(4);
        assert!(v.has_spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn clear_returns_to_inline_and_keeps_spill_capacity() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        v.extend_from_slice(&[1, 2, 3, 4]);
        assert!(v.has_spilled());
        let cap = v.spill.capacity();
        v.clear();
        assert!(v.is_empty());
        assert!(!v.has_spilled());
        assert_eq!(v.spill.capacity(), cap, "clear must retain spill capacity");
        // Re-spilling to the same high-water mark must not grow capacity.
        v.extend_from_slice(&[5, 6, 7, 8]);
        assert_eq!(v.spill.capacity(), cap);
        assert_eq!(v.as_slice(), &[5, 6, 7, 8]);
    }

    #[test]
    fn deref_and_equality() {
        let a: InlineVec<u32, 8> = [1u32, 2, 3].into_iter().collect();
        let b: InlineVec<u32, 8> = [1u32, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a.iter().sum::<u32>(), 6);
        assert_eq!(a[1], 2);
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut v: InlineVec<u32, 2> = [1u32, 2, 3].into_iter().collect();
        v[0] = 9;
        assert_eq!(v.as_slice(), &[9, 2, 3]);
    }

    #[test]
    fn zero_capacity_spills_immediately() {
        let mut v: InlineVec<u8, 0> = InlineVec::new();
        v.push(7);
        assert!(v.has_spilled());
        assert_eq!(v.as_slice(), &[7]);
    }
}

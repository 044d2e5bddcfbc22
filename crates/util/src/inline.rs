//! A fixed-capacity vector stored inline (replaces `arrayvec` /
//! `smallvec`).
//!
//! The simulator's hot path asks the same small questions millions of
//! times — "which registers does this instruction read?" — and every
//! answer is bounded by the ISA (three sources and a memory base). An
//! [`InlineVec`] holds such an answer by value: building, returning and
//! dropping one never touches the heap. It dereferences to a slice, so
//! callers read it exactly like the `Vec` it stands in for.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` values of `T`, stored inline. `T: Default` supplies the
/// (never observable) padding of the unused tail.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    buf: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds `N` values: the capacity is a
    /// bound the caller's domain guarantees, so overflow is a bug.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.buf[self.len] = value;
        self.len += 1;
    }

    /// Removes and returns the last value, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        Some(self.buf[self.len])
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_like_the_vec_it_replaces() {
        let mut v: InlineVec<u8, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(3);
        v.push(1);
        v.push(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v, vec![3, 1, 3]);
        assert!(v.contains(&1));
        assert_eq!(v.iter().copied().max(), Some(3));
        assert_eq!(v.into_iter().collect::<Vec<_>>(), [3, 1, 3]);
        assert_eq!(format!("{v:?}"), "[3, 1, 3]");
        for x in &mut v {
            *x += 6;
        }
        assert_eq!((&v).into_iter().next(), Some(&9));
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_is_a_bug_not_a_reallocation() {
        let _: InlineVec<u8, 2> = [1, 2, 3].into_iter().collect();
    }
}

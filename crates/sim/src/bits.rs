//! A fixed-size bit set over small indices (warp slots, register banks).
//!
//! The per-cycle path keeps the membership of its incremental structures
//! here — the issue stage's warp classes, the collector's warps with
//! resident slots, the register file's banks with queued writes — so a
//! walk costs one step per member rather than one per warp or bank. Sized
//! once at construction; nothing here allocates afterwards.

/// A set of indices below the size it was built for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

/// The members of `words[k] & mask[k]` over all `k`, ascending; word `k`
/// holds indices `64k..64k+63`.
struct Ones<'a> {
    words: &'a [u64],
    mask: Option<&'a [u64]>,
    /// Index of the word `left` came from, and its members not yet
    /// returned.
    k: usize,
    left: u64,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64], mask: Option<&'a [u64]>) -> Ones<'a> {
        let mut ones = Ones {
            words,
            mask,
            k: 0,
            left: 0,
        };
        ones.left = ones.word(0);
        ones
    }

    fn word(&self, k: usize) -> u64 {
        let w = self.words.get(k).copied().unwrap_or(0);
        self.mask.map_or(w, |m| w & m[k])
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.left == 0 {
            self.k += 1;
            if self.k >= self.words.len() {
                return None;
            }
            self.left = self.word(self.k);
        }
        let bit = self.left.trailing_zeros() as usize;
        self.left &= self.left - 1;
        Some(64 * self.k + bit)
    }
}

impl Bits {
    /// An empty set for indices `0..n`.
    pub(crate) fn new(n: usize) -> Bits {
        Bits {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The set `{i in 0..n : keep(i)}`.
    pub(crate) fn from_fn(n: usize, keep: impl Fn(usize) -> bool) -> Bits {
        let mut bits = Bits::new(n);
        (0..n).filter(|&i| keep(i)).for_each(|i| bits.set(i));
        bits
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether some member is also in `other` (built for the same size).
    pub(crate) fn intersects(&self, other: &Bits) -> bool {
        self.words.iter().zip(&other.words).any(|(w, o)| w & o != 0)
    }

    /// Adds every member of `other` (built for the same size).
    pub(crate) fn union_with(&mut self, other: &Bits) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Becomes a copy of `other` (built for the same size), in place.
    pub(crate) fn copy_from(&mut self, other: &Bits) {
        self.words.copy_from_slice(&other.words);
    }

    /// Number of members.
    pub(crate) fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Ones::new(&self.words, None)
    }

    /// The members that are also in `mask` (built for the same size),
    /// ascending.
    pub(crate) fn iter_in<'a>(&'a self, mask: &'a Bits) -> impl Iterator<Item = usize> + 'a {
        Ones::new(&self.words, Some(&mask.words))
    }

    /// Removes the members that are also in `mask`, handing each to `f`,
    /// ascending.
    pub(crate) fn drain_in(&mut self, mask: &Bits, mut f: impl FnMut(usize)) {
        for (k, (word, m)) in self.words.iter_mut().zip(&mask.words).enumerate() {
            let mut todo = *word & m;
            *word &= !m;
            while todo != 0 {
                f(64 * k + todo.trailing_zeros() as usize);
                todo &= todo - 1;
            }
        }
    }
}

/// At most 64 [`Bits`]-like rows over the same indices, in one
/// allocation, and which of them have a member.
#[derive(Clone, Debug)]
pub(crate) struct BitRows {
    rows: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
    /// Bit `r` is set when row `r` has a member.
    nonempty: u64,
}

impl BitRows {
    /// `rows` empty rows for indices `0..n`.
    pub(crate) fn new(rows: usize, n: usize) -> BitRows {
        assert!(rows <= 64, "{rows} rows do not fit the row mask");
        let stride = n.div_ceil(64);
        BitRows {
            rows,
            stride,
            words: vec![0; rows * stride],
            nonempty: 0,
        }
    }

    pub(crate) fn set(&mut self, row: usize, i: usize) {
        self.words[row * self.stride + i / 64] |= 1 << (i % 64);
        self.nonempty |= 1 << row;
    }

    pub(crate) fn clear_all(&mut self) {
        self.words.fill(0);
        self.nonempty = 0;
    }

    /// Moves row `row`'s members into `into` (built for the same `n`).
    pub(crate) fn drain_row_into(&mut self, row: usize, into: &mut Bits) {
        if self.nonempty >> row & 1 == 0 {
            return;
        }
        self.nonempty &= !(1 << row);
        let words = &mut self.words[row * self.stride..(row + 1) * self.stride];
        for (w, r) in into.words.iter_mut().zip(words) {
            *w |= std::mem::take(r);
        }
    }

    /// How many rows past `row`, counting cyclically, the first row with
    /// a member lies (0 for `row` itself); `None` when every row is
    /// empty.
    pub(crate) fn next_nonempty(&self, row: usize) -> Option<usize> {
        // The rows from `row` on, then (shifted past them) the rows
        // before it; a row counted twice shows first at its true place.
        let mut ahead = self.nonempty >> row;
        if row > 0 {
            ahead |= self.nonempty << (self.rows - row);
        }
        (ahead != 0).then(|| ahead.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_walk_ascending_across_words() {
        let mut b = Bits::new(96);
        for i in [95, 0, 64, 63, 1] {
            b.set(i);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), [0, 1, 63, 64, 95]);
        assert_eq!(b.count(), 5);
        b.clear(63);
        assert!(!b.get(63) && b.get(64));
        let odd = Bits::from_fn(96, |i| i % 2 == 1);
        assert_eq!(b.iter_in(&odd).collect::<Vec<_>>(), [1, 95]);
        let mut taken = Vec::new();
        b.drain_in(&odd, |i| taken.push(i));
        assert_eq!(taken, [1, 95]);
        assert_eq!(b.iter().collect::<Vec<_>>(), [0, 64]);
        b.union_with(&odd);
        assert_eq!(b.count(), 50);
        let mut c = Bits::new(96);
        c.copy_from(&b);
        assert_eq!(c, b);
        c.clear_all();
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn a_drained_row_lands_in_the_set_and_empties() {
        let mut rows = BitRows::new(4, 96);
        rows.set(2, 70);
        rows.set(2, 3);
        rows.set(1, 5);
        let mut b = Bits::new(96);
        rows.drain_row_into(2, &mut b);
        assert_eq!(b.iter().collect::<Vec<_>>(), [3, 70]);
        rows.drain_row_into(2, &mut b);
        rows.drain_row_into(3, &mut b);
        assert_eq!(b.count(), 2, "drained and empty rows add nothing");
        rows.clear_all();
        rows.drain_row_into(1, &mut b);
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn the_next_nonempty_row_is_found_cyclically() {
        for n in [4, 64] {
            let mut rows = BitRows::new(n, 96);
            assert_eq!(rows.next_nonempty(0), None);
            rows.set(2, 70);
            assert_eq!(rows.next_nonempty(0), Some(2));
            assert_eq!(rows.next_nonempty(2), Some(0));
            assert_eq!(rows.next_nonempty(3), Some(n - 1), "wraps to row 2");
            rows.set(n - 1, 1);
            assert_eq!(rows.next_nonempty(3), Some(n - 4));
            assert_eq!(rows.next_nonempty(0), Some(2));
            let mut b = Bits::new(96);
            rows.drain_row_into(2, &mut b);
            assert_eq!(rows.next_nonempty(0), Some(n - 1));
            rows.clear_all();
            assert_eq!(rows.next_nonempty(1), None);
            assert!(!b.is_empty() && Bits::new(96).is_empty());
        }
    }
}

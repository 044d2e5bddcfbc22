//! A dense 256-bit set of architectural registers for dataflow analysis,
//! and [`BarrierGuards`], the per-barrier register sets the control-bits
//! passes track.

use bow_isa::ctrl::NUM_BARRIERS;
use bow_isa::Reg;
use std::fmt;

/// A set of registers backed by four machine words.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet {
    words: [u64; 4],
}

impl RegSet {
    /// The empty set.
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Inserts a register; returns true if it was newly added.
    pub fn insert(&mut self, r: Reg) -> bool {
        let (w, b) = Self::index(r);
        let had = self.words[w] & b != 0;
        self.words[w] |= b;
        !had
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        let (w, b) = Self::index(r);
        self.words[w] &= !b;
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        let (w, b) = Self::index(r);
        self.words[w] & b != 0
    }

    /// The universe: every architectural register (the ⊤ element of
    /// must-analyses, which refine downwards by intersection).
    pub fn full() -> RegSet {
        RegSet {
            words: [u64::MAX; 4],
        }
    }

    /// Unions `other` into `self`; returns true if anything changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for i in 0..4 {
            let new = self.words[i] | other.words[i];
            changed |= new != self.words[i];
            self.words[i] = new;
        }
        changed
    }

    /// Intersects `other` into `self`; returns true if anything changed.
    pub fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for i in 0..4 {
            let new = self.words[i] & other.words[i];
            changed |= new != self.words[i];
            self.words[i] = new;
        }
        changed
    }

    /// Removes every member of `other` from `self`.
    pub fn subtract(&mut self, other: &RegSet) {
        for i in 0..4 {
            self.words[i] &= !other.words[i];
        }
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the members in index order (never RZ, which only
    /// [`RegSet::full`] holds), visiting set bits only.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = if w == 3 { word & !(1 << 63) } else { word };
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros();
                bits &= bits.checked_sub(1)?;
                Some(Reg::r((w * 64) as u8 + b as u8))
            })
        })
    }

    fn index(r: Reg) -> (usize, u64) {
        let i = usize::from(r.index());
        (i / 64, 1u64 << (i % 64))
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Which registers each dependence barrier guards: a pending variable-
/// latency write, or a pending memory read of a source operand. A
/// register sits under at most one barrier at a time, and a wait releases
/// whole barriers, so one [`RegSet`] per barrier answers both questions
/// without visiting every register.
///
/// Barrier indices must be below [`NUM_BARRIERS`] (what
/// [`bow_isa::CtrlBits::validate`] accepts).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BarrierGuards {
    on: [RegSet; NUM_BARRIERS as usize],
}

impl BarrierGuards {
    /// No register guarded.
    pub fn new() -> BarrierGuards {
        BarrierGuards::default()
    }

    /// The barrier guarding `r`, if any.
    pub fn of(&self, r: Reg) -> Option<u8> {
        (0..NUM_BARRIERS).find(|&b| self.on[usize::from(b)].contains(r))
    }

    /// Puts `r` under barrier `bar`, or under none: either way it leaves
    /// the barrier it was under.
    pub fn set(&mut self, r: Reg, bar: Option<u8>) {
        for set in &mut self.on {
            set.remove(r);
        }
        if let Some(b) = bar {
            self.on[usize::from(b)].insert(r);
        }
    }

    /// Releases every register under a barrier in `mask` (bit *i* =
    /// barrier *i*); registers under other barriers stay guarded.
    pub fn release(&mut self, mask: u8) {
        for (b, set) in self.on.iter_mut().enumerate() {
            if mask & (1 << b) != 0 {
                *set = RegSet::new();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = RegSet::new();
        assert!(s.insert(Reg::r(5)));
        assert!(!s.insert(Reg::r(5)), "already present");
        assert!(s.contains(Reg::r(5)));
        assert!(s.insert(Reg::r(200)));
        assert_eq!(s.len(), 2);
        s.remove(Reg::r(5));
        assert!(!s.contains(Reg::r(5)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_reports_change() {
        let a: RegSet = [Reg::r(1)].into_iter().collect();
        let mut b: RegSet = [Reg::r(2)].into_iter().collect();
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a), "idempotent");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn intersect_and_subtract() {
        let mut a: RegSet = [Reg::r(1), Reg::r(2), Reg::r(200)].into_iter().collect();
        let b: RegSet = [Reg::r(2), Reg::r(200)].into_iter().collect();
        assert!(a.intersect_with(&b));
        assert!(!a.intersect_with(&b), "idempotent");
        assert_eq!(a, b);
        a.subtract(&[Reg::r(200)].into_iter().collect());
        assert_eq!(a, [Reg::r(2)].into_iter().collect());
    }

    #[test]
    fn full_contains_everything() {
        let f = RegSet::full();
        assert!(f.contains(Reg::r(0)));
        assert!(f.contains(Reg::r(Reg::MAX_INDEX)));
        let mut g = f;
        assert!(
            !g.union_with(&[Reg::r(3)].into_iter().collect()),
            "already ⊤"
        );
    }

    #[test]
    fn iter_is_ordered() {
        let s: RegSet = [Reg::r(9), Reg::r(1), Reg::r(130)].into_iter().collect();
        let v: Vec<u8> = s.iter().map(Reg::index).collect();
        assert_eq!(v, vec![1, 9, 130]);
    }

    #[test]
    fn debug_shows_members() {
        let s: RegSet = [Reg::r(3)].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{Reg(r3)}");
    }

    #[test]
    fn set_moves_a_register_off_its_old_barrier() {
        let mut g = BarrierGuards::new();
        g.set(Reg::r(4), Some(0));
        assert_eq!(g.of(Reg::r(4)), Some(0));
        g.set(Reg::r(4), Some(3));
        assert_eq!(g.of(Reg::r(4)), Some(3));
        // Releasing the old barrier no longer touches it.
        g.release(1 << 0);
        assert_eq!(g.of(Reg::r(4)), Some(3));
        g.set(Reg::r(4), None);
        assert_eq!(g.of(Reg::r(4)), None);
        assert_eq!(g, BarrierGuards::new());
    }

    #[test]
    fn release_clears_only_the_masked_barriers() {
        let mut g = BarrierGuards::new();
        g.set(Reg::r(1), Some(0));
        g.set(Reg::r(200), Some(0));
        g.set(Reg::r(2), Some(2));
        g.set(Reg::r(3), Some(5));
        g.release((1 << 0) | (1 << 5));
        assert_eq!(g.of(Reg::r(1)), None, "one wait releases every register");
        assert_eq!(g.of(Reg::r(200)), None);
        assert_eq!(g.of(Reg::r(3)), None);
        assert_eq!(g.of(Reg::r(2)), Some(2), "barrier 2 was not waited on");
        g.release(0);
        assert_eq!(g.of(Reg::r(2)), Some(2));
    }
}

//! Architectural register and predicate-register newtypes.

use std::fmt;

/// An architectural 32-bit general-purpose register, `R0`..`R254`.
///
/// Index 255 is the hardwired zero register [`Reg::RZ`]: it reads as zero and
/// writes to it are discarded, mirroring SASS's `RZ`. The register file model
/// never allocates storage for it and the bypass window never tracks it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register.
    pub const RZ: Reg = Reg(255);

    /// Highest index usable as a real (allocatable) register.
    pub const MAX_INDEX: u8 = 254;

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 255, which is reserved for [`Reg::RZ`]; construct
    /// that one through the constant so the intent is visible at the call
    /// site.
    pub fn r(index: u8) -> Reg {
        assert!(
            index <= Self::MAX_INDEX,
            "register index 255 is reserved for RZ"
        );
        Reg(index)
    }

    /// Creates a register from its index, returning `None` for the reserved
    /// RZ encoding.
    pub fn try_new(index: u8) -> Option<Reg> {
        (index <= Self::MAX_INDEX).then_some(Reg(index))
    }

    /// The register's index within the architectural register space.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired zero register.
    pub fn is_zero(self) -> bool {
        self == Self::RZ
    }
}

/// The null register: [`Reg::RZ`] reads as zero and discards writes.
impl Default for Reg {
    fn default() -> Reg {
        Reg::RZ
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "rz")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({self})")
    }
}

/// A 1-bit predicate register, `P0`..`P6`.
///
/// Index 7 is the hardwired true predicate [`Pred::PT`] (SASS `PT`): it reads
/// as `true` and writes to it are discarded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pred(u8);

impl Pred {
    /// The hardwired always-true predicate.
    pub const PT: Pred = Pred(7);

    /// Highest index usable as a real predicate register.
    pub const MAX_INDEX: u8 = 6;

    /// Creates a predicate register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 7 or larger; 7 is reserved for [`Pred::PT`].
    pub fn p(index: u8) -> Pred {
        assert!(
            index <= Self::MAX_INDEX,
            "predicate index 7 is reserved for PT"
        );
        Pred(index)
    }

    /// Creates a predicate register, returning `None` for the PT encoding.
    pub fn try_new(index: u8) -> Option<Pred> {
        (index <= Self::MAX_INDEX).then_some(Pred(index))
    }

    /// The predicate's index.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired true predicate.
    pub fn is_true_reg(self) -> bool {
        self == Self::PT
    }
}

/// The null predicate: [`Pred::PT`] reads as true and discards writes.
impl Default for Pred {
    fn default() -> Pred {
        Pred::PT
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true_reg() {
            write!(f, "pt")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pred({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip_and_display() {
        let r = Reg::r(13);
        assert_eq!(r.index(), 13);
        assert_eq!(r.to_string(), "r13");
        assert!(!r.is_zero());
        assert_eq!(Reg::RZ.to_string(), "rz");
        assert!(Reg::RZ.is_zero());
    }

    #[test]
    fn reg_try_new_rejects_rz_encoding() {
        assert_eq!(Reg::try_new(255), None);
        assert_eq!(Reg::try_new(254), Some(Reg::r(254)));
    }

    #[test]
    #[should_panic(expected = "reserved for RZ")]
    fn reg_new_panics_on_reserved_index() {
        let _ = Reg::r(255);
    }

    #[test]
    fn pred_roundtrip_and_display() {
        let p = Pred::p(3);
        assert_eq!(p.index(), 3);
        assert_eq!(p.to_string(), "p3");
        assert_eq!(Pred::PT.to_string(), "pt");
        assert!(Pred::PT.is_true_reg());
    }

    #[test]
    fn pred_try_new_rejects_pt_encoding() {
        assert_eq!(Pred::try_new(7), None);
        assert!(Pred::try_new(6).is_some());
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(Reg::r(2) < Reg::r(10));
        assert!(Reg::r(200) < Reg::RZ);
        assert!(Pred::p(0) < Pred::PT);
    }
}

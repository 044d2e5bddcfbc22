//! Name tables for configuration axes.
//!
//! Every axis whose values are spelled on a command line, on the wire or
//! in a label (`pascal|modern`, `stack|barrier`, `test|paper`, …) declares
//! its values once, next to the enum: an `ALL` array, a `name()` and a
//! `parse()` built on [`parse_name`]. Flag parsing, wire validation and
//! result canonicalization all read that one table, so a new value shows
//! up everywhere at once and an unknown one is rejected with the list of
//! valid spellings.

use std::fmt;

/// A name that is not in its axis's table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownName {
    /// What kind of name was looked up (e.g. `"core model"`).
    pub what: &'static str,
    /// The name that failed to resolve.
    pub value: String,
    /// Every name the table does hold, in table order (empty when the
    /// lookup has no fixed table to list).
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} `{}`", self.what, self.value)?;
        if !self.valid.is_empty() {
            write!(f, " (valid: {})", self.valid.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownName {}

/// Resolves `s` against an axis's table: the value of `all` whose `name`
/// is `s`, or an [`UnknownName`] listing every valid name.
///
/// # Errors
///
/// Returns [`UnknownName`] when no value of `all` is named `s`.
pub fn parse_name<T: Copy>(
    what: &'static str,
    all: &[T],
    name: impl Fn(&T) -> &'static str,
    s: &str,
) -> Result<T, UnknownName> {
    all.iter()
        .copied()
        .find(|v| name(v) == s)
        .ok_or_else(|| UnknownName {
            what,
            value: s.to_string(),
            valid: all.iter().map(name).collect(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_name_resolves_and_lists_the_table_on_a_miss() {
        let name = |v: &u8| if *v == 1 { "one" } else { "two" };
        assert_eq!(parse_name("digit", &[1u8, 2], name, "two"), Ok(2));
        let e = parse_name("digit", &[1u8, 2], name, "three").unwrap_err();
        assert_eq!(e.to_string(), "unknown digit `three` (valid: one, two)");
    }
}

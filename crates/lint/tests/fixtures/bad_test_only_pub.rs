//! Linted as a one-file workspace: nothing outside this file calls in.

/// Only the test module at the bottom names this.
pub fn checked_only_by_tests() -> u32 {
    7
}

/// `DocOnly` appears in this doc comment and in a string below, and
/// both re-exports rename it; none of that is a use.
pub struct DocOnly;

pub use self::DocOnly as Renamed;
pub use self::{
    DocOnly as AlsoRenamed,
};

fn describe() -> &'static str {
    "DocOnly"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven() {
        assert_eq!(checked_only_by_tests(), 7);
        let _ = DocOnly;
    }
}

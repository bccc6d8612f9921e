//! Linted as a one-file workspace: every `pub` item has a non-test
//! caller, and restricted items are out of scope.

/// Called from `total` below.
pub fn part() -> u32 {
    LIMIT
}

/// Read by `part`.
pub const LIMIT: u32 = 3;

/// Named by `total`'s signature.
pub struct Total(pub u32);

pub(crate) fn internal_only_tests_call() -> u32 {
    1
}

fn total() -> Total {
    Total(part() * 2)
}

/// The oracle a property test compares the real path against.
// lint:allow-line(test-only-pub): the oracle of tests/fixture_properties.rs
pub fn oracle() -> u32 {
    7
}

//! Fixture crate root: its manifest does not opt into the workspace
//! lint table, and it has a panic-hygiene violation for good measure.

/// States no invariant when the value is missing.
pub fn careless(v: Option<u32>) -> u32 {
    v.expect("x")
}

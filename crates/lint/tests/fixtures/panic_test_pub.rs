//! Fixture: test-only items behind a visibility.
//! Exercised by `tests/fixtures_fire.rs`; never compiled.

/// A test helper with a visibility is still test code.
#[cfg(test)]
pub fn test_helper(v: Option<u32>) -> u32 {
    v.expect("x")
}

/// A test module with a restricted visibility is still test code.
#[cfg(test)]
pub(crate) mod support {
    pub fn weak(v: Option<u32>) -> u32 {
        v.expect("x")
    }
}

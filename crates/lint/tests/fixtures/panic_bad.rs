//! Fixture: panic-hygiene violations.
//! Exercised by `tests/fixtures_fire.rs`; never compiled.

/// A weak `expect` message.
pub fn weak_expect(w: Option<u32>) -> u32 {
    w.expect("short")
}

/// `unreachable!` without an invariant message.
pub fn no_msg(x: u32) -> u32 {
    match x {
        0 => 1,
        _ => unreachable!(),
    }
}

/// These are all fine and must NOT fire.
pub fn all_fine(v: Option<u32>) -> u32 {
    let a = v.expect("caller checked the option is populated");
    match a {
        0 => unreachable!("zero is rejected at construction time"),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    /// Test code is exempt from the lint.
    #[test]
    fn weak_expect_in_tests_is_fine() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.expect("x"), 1);
    }
}

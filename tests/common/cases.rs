//! Case counts for the property suites. Suites that need only this
//! include the file by path, so they do not compile the shared stimulus.

use proptest::test_runner::ProptestConfig;

/// `PROPTEST_CASES` when set, else `fallback` cases.
pub fn cases(fallback: u32) -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(fallback)
    }
}

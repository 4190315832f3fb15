//! Integration: the busy-traffic benchmark builds with the release
//! profile the repository ships.
//!
//! `busybench/` is a workspace of its own, so it cannot inherit the
//! root's `[profile.release]` and keeps a copy. Its numbers describe the
//! shipped program only while the two tables agree, so a profile change
//! has to touch both manifests together.

/// The `[profile.release]` table of a manifest and any of its
/// `[profile.release.*]` subtables, as headers and `key = value` lines
/// with comments, blank lines and spacing around `=` removed.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut inside = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]" || line.starts_with("[profile.release.");
        }
        if inside && !line.is_empty() {
            let normal: Vec<&str> = line.splitn(2, '=').map(str::trim).collect();
            lines.push(normal.join(" = "));
        }
    }
    lines
}

#[test]
fn busybench_release_profile_equals_the_workspace_root() {
    let root = release_profile(include_str!("../Cargo.toml"));
    let bench = release_profile(include_str!("../busybench/Cargo.toml"));
    assert!(
        root.first().is_some_and(|h| h == "[profile.release]"),
        "the workspace root has a [profile.release] table: {root:?}"
    );
    assert_eq!(
        bench, root,
        "busybench/Cargo.toml mirrors the root's [profile.release]"
    );
}

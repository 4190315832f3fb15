//! Workspace discovery and source loading.
//!
//! Members are found via `cargo metadata` (the tool only extracts
//! `manifest_path`s and reads each package name straight from its
//! manifest, so the offline workspace needs no JSON crate). When
//! `cargo` itself is unavailable — e.g. the linter's own unit tests
//! running against fixture directories — a glob fallback expands the
//! `members` list of the root `Cargo.toml` by hand.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::parse::{parse_source, SourceFile};

/// One workspace member with its parsed sources.
#[derive(Debug)]
pub struct CrateSrc {
    /// Package name from `[package] name`.
    pub name: String,
    /// Directory containing the crate's `Cargo.toml`.
    pub dir: PathBuf,
    /// The crate root (`src/lib.rs`, falling back to `src/main.rs`).
    pub root_file: Option<PathBuf>,
    /// Every `.rs` under `src/` and `examples/`, parsed.
    pub sources: Vec<SourceFile>,
}

/// All loaded workspace members.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Members in discovery order (root package first when present).
    pub crates: Vec<CrateSrc>,
}

impl Workspace {
    /// Loads every member of the workspace rooted at `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let manifests = discover_manifests(root)?;
        let mut crates = Vec::new();
        for manifest in manifests {
            let dir = manifest
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .to_path_buf();
            let Some(name) = package_name(&manifest)? else {
                continue; // virtual manifest (workspace-only)
            };
            crates.push(load_crate(name, dir)?);
        }
        Ok(Workspace { crates })
    }

    /// Builds a single-crate pseudo-workspace from explicit files —
    /// used by the fixture tests to lint known-bad snippets without a
    /// `Cargo.toml` around them.
    pub fn from_files(name: &str, dir: &Path, files: &[PathBuf]) -> io::Result<Workspace> {
        let mut sources = Vec::new();
        for f in files {
            let text = fs::read_to_string(f)?;
            sources.push(parse_source(f.clone(), &text));
        }
        let root_file = files.first().cloned();
        Ok(Workspace {
            crates: vec![CrateSrc {
                name: name.to_string(),
                dir: dir.to_path_buf(),
                root_file,
                sources,
            }],
        })
    }
}

/// Loads and parses one crate's sources.
fn load_crate(name: String, dir: PathBuf) -> io::Result<CrateSrc> {
    let mut files = Vec::new();
    for sub in ["src", "examples"] {
        let base = dir.join(sub);
        if base.is_dir() {
            collect_rs(&base, &mut files)?;
        }
    }
    files.sort();
    let root_file = [dir.join("src/lib.rs"), dir.join("src/main.rs")]
        .into_iter()
        .find(|p| p.is_file());
    let mut sources = Vec::new();
    for f in &files {
        let text = fs::read_to_string(f)?;
        let mut parsed = parse_source(f.clone(), &text);
        if is_test_path(f.strip_prefix(&dir).unwrap_or(f)) {
            parsed.mark_all_test();
        }
        sources.push(parsed);
    }
    Ok(CrateSrc {
        name,
        dir,
        root_file,
        sources,
    })
}

/// Test-only sources the parser cannot classify on its own: files named
/// `tests.rs` (gated by `#[cfg(test)] mod tests;` in their parent) and
/// anything under a `tests/` directory. `path` must be relative to the
/// crate dir, so a crate that happens to *live* under some `tests/`
/// directory is not blanket-exempted.
fn is_test_path(path: &Path) -> bool {
    path.file_stem().is_some_and(|s| s == "tests")
        || path.components().any(|c| c.as_os_str() == "tests")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Manifest paths of all workspace members, preferring `cargo metadata`.
fn discover_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    if let Some(paths) = cargo_metadata_manifests(root) {
        return Ok(paths);
    }
    glob_manifests(root)
}

/// Runs `cargo metadata --no-deps` and extracts `manifest_path` values.
/// Returns `None` when cargo is unavailable or fails, so callers fall
/// back to the glob walk.
fn cargo_metadata_manifests(root: &Path) -> Option<Vec<PathBuf>> {
    let out = Command::new("cargo")
        .args(["metadata", "--no-deps", "--format-version", "1"])
        .current_dir(root)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let mut paths = Vec::new();
    let needle = "\"manifest_path\":\"";
    let mut rest = text.as_str();
    while let Some(at) = rest.find(needle) {
        rest = &rest[at + needle.len()..];
        let end = rest.find('"')?;
        paths.push(PathBuf::from(&rest[..end]));
        rest = &rest[end..];
    }
    paths.sort();
    paths.dedup();
    Some(paths)
}

/// Expands the root manifest's `members` globs one directory level deep
/// (`crates/*` style), plus the root package itself.
fn glob_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let root_manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&root_manifest)?;
    let mut out = vec![root_manifest.clone()];
    for pattern in member_globs(&text) {
        if let Some(prefix) = pattern.strip_suffix("/*") {
            let base = root.join(prefix);
            if base.is_dir() {
                for entry in fs::read_dir(&base)? {
                    let m = entry?.path().join("Cargo.toml");
                    if m.is_file() {
                        out.push(m);
                    }
                }
            }
        } else {
            let m = root.join(&pattern).join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Pulls the quoted entries of `members = [...]` out of a manifest.
fn member_globs(manifest: &str) -> Vec<String> {
    let Some(at) = manifest.find("members") else {
        return Vec::new();
    };
    let rest = &manifest[at..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest.find(']') else {
        return Vec::new();
    };
    rest[open + 1..close]
        .split(',')
        .filter_map(|s| {
            let s = s.trim().trim_matches('"');
            (!s.is_empty()).then(|| s.to_string())
        })
        .collect()
}

/// The `[package] name` of a manifest, or `None` for virtual manifests.
fn package_name(manifest: &Path) -> io::Result<Option<String>> {
    let text = fs::read_to_string(manifest)?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    return Ok(Some(value.trim().trim_matches('"').to_string()));
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_extracts_patterns() {
        let globs = member_globs("[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n");
        assert_eq!(globs, ["crates/*", "vendor/*"]);
    }

    #[test]
    fn loads_this_workspace() {
        // The linter's own crate lives two levels below the root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crate dir has a workspace root two levels up");
        let ws = Workspace::load(root).expect("workspace must load");
        assert!(
            ws.crates.iter().any(|c| c.name == "tmu-lint"),
            "workspace discovery must find the linter itself"
        );
        assert!(ws.crates.iter().any(|c| c.name == "tmu"));
    }
}

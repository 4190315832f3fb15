//! Proves each lint fires on its known-bad fixture and stays quiet on
//! the adjacent known-good code, then drives the CLI end to end: the
//! real tree must lint clean and the `bad_ws` fixture workspace must
//! fail with readable (and machine-readable) diagnostics.

use std::path::{Path, PathBuf};
use std::process::Command;

use tmu_lint::workspace::Workspace;
use tmu_lint::{run_lints, Config, Lint};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Loads fixture files as a single pseudo-crate named `name`.
fn ws_of(name: &str, files: &[&str]) -> Workspace {
    let dir = fixture("");
    let paths: Vec<PathBuf> = files.iter().map(|f| fixture(f)).collect();
    Workspace::from_files(name, &dir, &paths).expect("fixture files are readable")
}

fn lints_of(ws: &Workspace, cfg: &Config) -> Vec<(Lint, u32)> {
    let root = fixture("");
    run_lints(ws, cfg, &root)
        .diags
        .iter()
        .map(|d| (d.lint, d.line))
        .collect()
}

#[test]
fn panic_hygiene_fires_on_fixture() {
    let ws = ws_of("fx", &["panic_bad.rs"]);
    let found = lints_of(&ws, &Config::default());
    let fired: Vec<_> = found
        .iter()
        .filter(|(l, _)| *l == Lint::PanicHygiene)
        .collect();
    assert_eq!(
        fired.len(),
        2,
        "the weak expect and the bare unreachable! must each fire: {found:?}"
    );
}

#[test]
fn panic_hygiene_skips_test_items_behind_a_visibility() {
    let ws = ws_of("fx", &["panic_test_pub.rs"]);
    let found = lints_of(&ws, &Config::default());
    assert!(
        found.iter().all(|(l, _)| *l != Lint::PanicHygiene),
        "`#[cfg(test)] pub fn` and `#[cfg(test)] pub(crate) mod` are test code: {found:?}"
    );
}

#[test]
fn telemetry_fires_on_fixture() {
    // Two crates: the event-declaring crate and a user crate, so the
    // coverage scan sees a realistic shape.
    let mut ws = ws_of("tmu-telemetry", &["telemetry_events.rs"]);
    ws.crates
        .extend(ws_of("fx-core", &["telemetry_user.rs"]).crates);
    let found = lints_of(&ws, &Config::default());
    let fired: Vec<_> = found
        .iter()
        .filter(|(l, _)| *l == Lint::Telemetry)
        .collect();
    assert_eq!(
        fired,
        [&(Lint::Telemetry, 9)],
        "only the orphan variant must fire (the recorded one must not): {found:?}"
    );
}

#[test]
fn front_eviction_fires_on_fixture() {
    let ws = ws_of("fx", &["front_eviction_bad.rs"]);
    let found = lints_of(&ws, &Config::default());
    let fired: Vec<u32> = found
        .iter()
        .filter(|(l, _)| *l == Lint::FrontEviction)
        .map(|(_, line)| *line)
        .collect();
    assert_eq!(
        fired,
        [16, 23, 29],
        "`remove(0)`, `insert(0, ..)` and the unexempted deque removal \
         must fire (other indices, other methods and test code must not): {found:?}"
    );
}

#[test]
fn front_eviction_honours_reasoned_allowances() {
    let cfg = Config::parse(
        "[[front_eviction.allow]]\n\
         path = \"front_eviction_bad.rs\"\n\
         receiver = \"queue\"\n\
         reason = \"fixture: queue is a VecDeque, remove(0) is O(1)\"\n\
         [[front_eviction.allow]]\n\
         path = \"front_eviction_bad.rs\"\n\
         receiver = \"gone\"\n\
         reason = \"fixture: the receiver was renamed away\"\n",
    )
    .expect("inline front-eviction config parses");
    let ws = ws_of("fx", &["front_eviction_bad.rs"]);
    let mut diags = run_lints(&ws, &cfg, &fixture("")).diags;
    diags.retain(|d| d.lint == Lint::FrontEviction);
    let at: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // The deque removal is exempted; the dead entry is reported at its
    // own `lint.toml` line.
    assert_eq!(
        at,
        [
            ("front_eviction_bad.rs", 16),
            ("front_eviction_bad.rs", 23),
            ("lint.toml", 5)
        ],
        "{diags:?}"
    );
    assert!(
        Config::parse("[[front_eviction.allow]]\npath = \"a.rs\"\nreceiver = \"q\"\n").is_err(),
        "an allowance without a reason must be rejected"
    );
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the repo root")
        .to_path_buf()
}

#[test]
fn cli_passes_on_real_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_tmu-lint"))
        .arg("--root")
        .arg(repo_root())
        .output()
        .expect("tmu-lint binary runs");
    assert!(
        out.status.success(),
        "the repository must lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_fails_on_bad_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_tmu-lint"))
        .arg("--root")
        .arg(fixture("bad_ws"))
        .output()
        .expect("tmu-lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings must exit 1:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Cargo.toml:1: [workspace-lints]"),
        "human rendering: {stdout}"
    );
    assert!(
        stdout.contains("[panic-hygiene]"),
        "human rendering: {stdout}"
    );
}

#[test]
fn cli_json_mode_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_tmu-lint"))
        .arg("--json")
        .arg("--root")
        .arg(fixture("bad_ws"))
        .output()
        .expect("tmu-lint binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.trim_start().starts_with('{'),
        "json output: {stdout}"
    );
    assert!(stdout.contains("\"lint\":\"workspace-lints\""), "{stdout}");
    assert!(stdout.contains("\"lint\":\"panic-hygiene\""), "{stdout}");
    assert!(stdout.contains("\"count\":"), "{stdout}");
}

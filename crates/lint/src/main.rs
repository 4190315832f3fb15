//! `tmu-lint` CLI — see the library docs for the lint catalogue.
//!
//! ```text
//! tmu-lint [--json] [--root DIR] [--config FILE]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use tmu_lint::{config::Config, diag, run_lints, Workspace};

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--help" | "-h" => {
                println!("usage: tmu-lint [--json] [--root DIR] [--config FILE]");
                println!("lints: panic-hygiene, workspace-lints, telemetry, front-eviction");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("tmu-lint: no workspace root found (looked for lint.toml / Cargo.toml upward); pass --root");
            return ExitCode::from(2);
        }
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let cfg = if config_path.is_file() {
        let text = match std::fs::read_to_string(&config_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tmu-lint: cannot read {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        };
        match Config::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("tmu-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Config::default()
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "tmu-lint: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let outcome = run_lints(&ws, &cfg, &root);
    if json {
        println!("{}", diag::render_json(&outcome.diags, outcome.suppressed));
    } else {
        for d in &outcome.diags {
            println!("{}", d.render());
        }
        eprintln!(
            "tmu-lint: {} finding(s), {} suppressed by lint.toml, {} crate(s) scanned",
            outcome.diags.len(),
            outcome.suppressed,
            ws.crates.len()
        );
    }
    if outcome.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks upward from the current directory to the first directory
/// holding a `lint.toml` or a workspace `Cargo.toml`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tmu-lint: {msg}");
    eprintln!("usage: tmu-lint [--json] [--root DIR] [--config FILE]");
    ExitCode::from(2)
}

//! `lint.toml` — checked-in linter configuration.
//!
//! The build environment is offline, so instead of a TOML dependency
//! this module reads the narrow subset the config actually uses:
//! `[table]` / `[[array-of-table]]` headers and `key = value` lines
//! where a value is a string, integer, boolean, or a flat array of
//! strings. Unknown keys are rejected rather than ignored — a typo in a
//! suppression must never silently widen it.

use std::fmt;

/// Configuration for the `panic-hygiene` lint.
#[derive(Debug, Clone)]
pub struct PanicCfg {
    /// Minimum length for an `expect` message to count as
    /// invariant-stating.
    pub min_expect_len: usize,
}

/// Configuration for the `telemetry` lint.
#[derive(Debug, Clone)]
pub struct TelemetryCfg {
    /// Name of the trace-event enum.
    pub event_enum: String,
    /// Crate (by package name) declaring the enum; its own sources are
    /// exempt from the call-site checks.
    pub event_crate: String,
}

/// One `front-eviction` exemption: a receiver, in files under a
/// path prefix, whose `remove(0)`/`insert(0, ..)` is O(1) (a
/// `VecDeque`).
#[derive(Debug, Clone)]
pub struct ReceiverAllow {
    /// Path prefix, relative to the workspace root, `/`-separated.
    pub path: String,
    /// Identifier before the `.remove(0)` / `.insert(0, ..)` call.
    pub receiver: String,
    /// Mandatory human justification.
    pub reason: String,
    /// 1-based line of the entry's `[[front_eviction.allow]]` header.
    pub line: u32,
}

/// Configuration for the `front-eviction` lint.
#[derive(Debug, Clone, Default)]
pub struct FrontEvictionCfg {
    /// Exempted receivers.
    pub allow: Vec<ReceiverAllow>,
}

/// Path-scoped suppression of whole lints.
#[derive(Debug, Clone)]
pub struct PathAllow {
    /// Path prefix, relative to the workspace root, `/`-separated.
    pub path: String,
    /// Lint names suppressed under the prefix (`*` for all).
    pub lints: Vec<String>,
    /// Mandatory human justification.
    pub reason: String,
}

/// The full linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// `panic-hygiene` settings.
    pub panic: PanicCfg,
    /// `telemetry` settings.
    pub telemetry: TelemetryCfg,
    /// `front-eviction` settings.
    pub front_eviction: FrontEvictionCfg,
    /// Path-scoped suppressions.
    pub allows: Vec<PathAllow>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            panic: PanicCfg { min_expect_len: 12 },
            telemetry: TelemetryCfg {
                event_enum: "TraceEvent".to_string(),
                event_crate: "tmu-telemetry".to_string(),
            },
            front_eviction: FrontEvictionCfg::default(),
            allows: Vec::new(),
        }
    }
}

/// A config-parse failure with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Current `[section]` while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Panic,
    Telemetry,
    FrontEvictionAllow,
    Allow,
}

impl Config {
    /// Parses the `lint.toml` text. Every `[[front_eviction.allow]]`
    /// and `[[allow]]` entry must carry a non-empty `reason` —
    /// suppressions without justification are configuration errors, not
    /// warnings.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = Section::None;
        let err = |line: usize, message: String| ConfigError { line, message };

        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                section = match header.trim() {
                    "front_eviction.allow" => {
                        cfg.front_eviction.allow.push(ReceiverAllow {
                            path: String::new(),
                            receiver: String::new(),
                            reason: String::new(),
                            line: n as u32,
                        });
                        Section::FrontEvictionAllow
                    }
                    "allow" => {
                        cfg.allows.push(PathAllow {
                            path: String::new(),
                            lints: Vec::new(),
                            reason: String::new(),
                        });
                        Section::Allow
                    }
                    other => return Err(err(n, format!("unknown table array [[{other}]]"))),
                };
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = match header.trim() {
                    "panic_hygiene" => Section::Panic,
                    "telemetry" => Section::Telemetry,
                    other => return Err(err(n, format!("unknown table [{other}]"))),
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(n, format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            let value = Value::parse(value.trim()).map_err(|m| err(n, m))?;
            match (section, key) {
                (Section::Panic, "min_expect_len") => {
                    cfg.panic.min_expect_len = value.integer(n)?;
                }
                (Section::Telemetry, "event_enum") => {
                    cfg.telemetry.event_enum = value.string(n)?;
                }
                (Section::Telemetry, "event_crate") => {
                    cfg.telemetry.event_crate = value.string(n)?;
                }
                (Section::FrontEvictionAllow, "path") => {
                    last(&mut cfg.front_eviction.allow, n)?.path = value.string(n)?;
                }
                (Section::FrontEvictionAllow, "receiver") => {
                    last(&mut cfg.front_eviction.allow, n)?.receiver = value.string(n)?;
                }
                (Section::FrontEvictionAllow, "reason") => {
                    last(&mut cfg.front_eviction.allow, n)?.reason = value.string(n)?;
                }
                (Section::Allow, "path") => last(&mut cfg.allows, n)?.path = value.string(n)?,
                (Section::Allow, "lints") => last(&mut cfg.allows, n)?.lints = value.strings(n)?,
                (Section::Allow, "reason") => last(&mut cfg.allows, n)?.reason = value.string(n)?,
                _ => return Err(err(n, format!("unknown key `{key}` in this section"))),
            }
        }

        for a in &cfg.allows {
            if a.reason.trim().is_empty() {
                return Err(err(
                    0,
                    format!("[[allow]] for path `{}` has no reason", a.path),
                ));
            }
            if a.path.is_empty() {
                return Err(err(0, "[[allow]] entry has no path".to_string()));
            }
        }
        for a in &cfg.front_eviction.allow {
            if a.reason.trim().is_empty() {
                return Err(err(
                    a.line as usize,
                    format!(
                        "[[front_eviction.allow]] for receiver `{}` has no reason",
                        a.receiver
                    ),
                ));
            }
            if a.path.is_empty() || a.receiver.is_empty() {
                return Err(err(
                    a.line as usize,
                    "[[front_eviction.allow]] needs both `path` and `receiver`".to_string(),
                ));
            }
        }
        Ok(cfg)
    }
}

fn last<T>(v: &mut [T], line: usize) -> Result<&mut T, ConfigError> {
    v.last_mut().ok_or(ConfigError {
        line,
        message: "key outside of a [[...]] entry".to_string(),
    })
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// A parsed TOML value (subset).
#[derive(Debug)]
enum Value {
    Str(String),
    Int(usize),
    List(Vec<String>),
}

impl Value {
    fn parse(text: &str) -> Result<Value, String> {
        if let Some(rest) = text.strip_prefix('"') {
            let Some(inner) = rest.strip_suffix('"') else {
                return Err(format!("unterminated string: {text}"));
            };
            return Ok(Value::Str(inner.replace("\\\"", "\"")));
        }
        if let Some(rest) = text.strip_prefix('[') {
            let Some(inner) = rest.strip_suffix(']') else {
                return Err(format!("unterminated array: {text}"));
            };
            let mut items = Vec::new();
            for part in split_top_level(inner) {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                match Value::parse(part)? {
                    Value::Str(s) => items.push(s),
                    _ => return Err("arrays may only contain strings".to_string()),
                }
            }
            return Ok(Value::List(items));
        }
        if let Ok(i) = text.parse::<usize>() {
            return Ok(Value::Int(i));
        }
        Err(format!("unsupported value: {text}"))
    }

    fn string(self, line: usize) -> Result<String, ConfigError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(ConfigError {
                line,
                message: "expected a string".to_string(),
            }),
        }
    }

    fn strings(self, line: usize) -> Result<Vec<String>, ConfigError> {
        match self {
            Value::List(v) => Ok(v),
            _ => Err(ConfigError {
                line,
                message: "expected an array of strings".to_string(),
            }),
        }
    }

    fn integer(self, line: usize) -> Result<usize, ConfigError> {
        match self {
            Value::Int(i) => Ok(i),
            _ => Err(ConfigError {
                line,
                message: "expected an integer".to_string(),
            }),
        }
    }
}

/// Splits on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[panic_hygiene]
min_expect_len = 16

[[allow]]
path = "vendor/"
lints = ["*"]
reason = "vendored stand-ins keep upstream style"
"#,
        )
        .expect("config must parse");
        assert_eq!(cfg.panic.min_expect_len, 16);
        assert_eq!(cfg.allows[0].lints, ["*"]);
    }

    #[test]
    fn suppression_without_reason_is_an_error() {
        let e = Config::parse("[[allow]]\npath = \"vendor/\"\nlints = [\"*\"]\n")
            .expect_err("missing reason must be rejected");
        assert!(e.message.contains("no reason"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        assert!(Config::parse("[panic_hygiene]\ntypo = 1\n").is_err());
        // Sections of retired lints are rejected, not ignored.
        assert!(Config::parse("[[parity.pair]]\nleft = \"A\"\nright = \"B\"\n").is_err());
        assert!(Config::parse("[two_phase]\nmarker = \"Committed state\"\n").is_err());
        assert!(Config::parse(
            "[[two_phase.allow]]\ntype = \"Lane\"\nmethods = [\"abort\"]\nreason = \"r\"\n"
        )
        .is_err());
        assert!(Config::parse("[crate_header]\nrequire = []\n").is_err());
    }
}

//! `lint.toml` — checked-in linter configuration.
//!
//! The build environment is offline, so instead of a TOML dependency
//! this module reads the narrow subset the config actually uses:
//! `[table]` / `[[array-of-table]]` headers and `key = value` lines
//! where a value is a string, integer, boolean, or a flat array of
//! strings. Unknown keys are rejected rather than ignored — a typo in a
//! suppression must never silently widen it.

use std::fmt;

/// Per-type extension of the allowed committed-state mutator methods.
#[derive(Debug, Clone)]
pub struct TypeAllow {
    /// Type whose committed fields the methods may assign.
    pub type_name: String,
    /// Additional method names allowed for this type.
    pub methods: Vec<String>,
    /// Mandatory human justification.
    pub reason: String,
    /// 1-based line of the entry's `[[two_phase.allow]]` header.
    pub line: u32,
}

/// Configuration for the two-phase discipline lint (L1).
#[derive(Debug, Clone)]
pub struct TwoPhaseCfg {
    /// Doc-text marker tagging a committed-state field.
    pub marker: String,
    /// Field-name prefix convention that also tags a field (`q_*`).
    pub field_prefix: String,
    /// Globally allowed mutator method names.
    pub methods: Vec<String>,
    /// Per-type method allowances.
    pub allow: Vec<TypeAllow>,
}

/// Configuration for the panic-hygiene lint (L2).
#[derive(Debug, Clone)]
pub struct PanicCfg {
    /// Minimum length for an `expect` message to count as
    /// invariant-stating.
    pub min_expect_len: usize,
}

/// Configuration for the telemetry-discipline lint (L4).
#[derive(Debug, Clone)]
pub struct TelemetryCfg {
    /// Name of the trace-event enum.
    pub event_enum: String,
    /// Crate (by package name) declaring the enum; its own sources are
    /// exempt from the call-site checks.
    pub event_crate: String,
}

/// One direction-parity pair (L5): both types must expose identical
/// inherent method sets.
#[derive(Debug, Clone)]
pub struct PairCfg {
    /// First type name.
    pub left: String,
    /// Second type name.
    pub right: String,
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
    /// L1 settings.
    pub two_phase: TwoPhaseCfg,
    /// L2 settings.
    pub panic: PanicCfg,
    /// L3: required crate-root inner attributes (whitespace-free
    /// spelling, e.g. `forbid(unsafe_code)`).
    pub header_require: Vec<String>,
    /// L4 settings.
    pub telemetry: TelemetryCfg,
    /// L5 pairs.
    pub parity: Vec<PairCfg>,
    /// Path-scoped suppressions.
    pub allows: Vec<PathAllow>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            two_phase: TwoPhaseCfg {
                marker: "Committed state".to_string(),
                field_prefix: "q_".to_string(),
                methods: vec![
                    "commit".to_string(),
                    "tick".to_string(),
                    "reset".to_string(),
                ],
                allow: Vec::new(),
            },
            panic: PanicCfg { min_expect_len: 12 },
            header_require: vec![
                "forbid(unsafe_code)".to_string(),
                "warn(missing_docs)".to_string(),
            ],
            telemetry: TelemetryCfg {
                event_enum: "TraceEvent".to_string(),
                event_crate: "tmu-telemetry".to_string(),
            },
            parity: Vec::new(),
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
    TwoPhase,
    TwoPhaseAllow,
    Panic,
    CrateHeader,
    Telemetry,
    ParityPair,
    Allow,
}

impl Config {
    /// Parses the `lint.toml` text. Every `[[two_phase.allow]]`,
    /// `[[parity.pair]]` and `[[allow]]` entry must carry a non-empty
    /// `reason` where required — suppressions without justification are
    /// configuration errors, not warnings.
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
                    "two_phase.allow" => {
                        cfg.two_phase.allow.push(TypeAllow {
                            type_name: String::new(),
                            methods: Vec::new(),
                            reason: String::new(),
                            line: n as u32,
                        });
                        Section::TwoPhaseAllow
                    }
                    "parity.pair" => {
                        cfg.parity.push(PairCfg {
                            left: String::new(),
                            right: String::new(),
                        });
                        Section::ParityPair
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
                    "two_phase" => Section::TwoPhase,
                    "panic_hygiene" => Section::Panic,
                    "crate_header" => Section::CrateHeader,
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
                (Section::TwoPhase, "marker") => cfg.two_phase.marker = value.string(n)?,
                (Section::TwoPhase, "field_prefix") => {
                    cfg.two_phase.field_prefix = value.string(n)?;
                }
                (Section::TwoPhase, "methods") => cfg.two_phase.methods = value.strings(n)?,
                (Section::TwoPhaseAllow, "type") => {
                    last(&mut cfg.two_phase.allow, n)?.type_name = value.string(n)?;
                }
                (Section::TwoPhaseAllow, "methods") => {
                    last(&mut cfg.two_phase.allow, n)?.methods = value.strings(n)?;
                }
                (Section::TwoPhaseAllow, "reason") => {
                    last(&mut cfg.two_phase.allow, n)?.reason = value.string(n)?;
                }
                (Section::Panic, "min_expect_len") => {
                    cfg.panic.min_expect_len = value.integer(n)?;
                }
                (Section::CrateHeader, "require") => cfg.header_require = value.strings(n)?,
                (Section::Telemetry, "event_enum") => {
                    cfg.telemetry.event_enum = value.string(n)?;
                }
                (Section::Telemetry, "event_crate") => {
                    cfg.telemetry.event_crate = value.string(n)?;
                }
                (Section::ParityPair, "left") => {
                    last(&mut cfg.parity, n)?.left = value.string(n)?;
                }
                (Section::ParityPair, "right") => {
                    last(&mut cfg.parity, n)?.right = value.string(n)?;
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
        for a in &cfg.two_phase.allow {
            if a.reason.trim().is_empty() {
                return Err(err(
                    0,
                    format!(
                        "[[two_phase.allow]] for type `{}` has no reason",
                        a.type_name
                    ),
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
[two_phase]
marker = "Committed state"
methods = ["commit", "tick", "reset"]

[[two_phase.allow]]
type = "Clock"
methods = ["advance", "advance_to"]
reason = "commit-edge entry points"

[panic_hygiene]
min_expect_len = 16

[[parity.pair]]
left = "WriteGuard"
right = "ReadGuard"

[[allow]]
path = "vendor/"
lints = ["*"]
reason = "vendored stand-ins keep upstream style"
"#,
        )
        .expect("config must parse");
        assert_eq!(cfg.two_phase.allow.len(), 1);
        assert_eq!(cfg.two_phase.allow[0].methods, ["advance", "advance_to"]);
        assert_eq!(cfg.panic.min_expect_len, 16);
        assert_eq!(cfg.parity[0].right, "ReadGuard");
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
        assert!(Config::parse("[two_phase]\ntypo = \"x\"\n").is_err());
    }
}

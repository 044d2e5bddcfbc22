//! Typed errors at the `bow` / consumer boundary.
//!
//! Everything user input can get wrong — malformed text, out-of-range
//! configuration, unreadable files, failed verification — surfaces as a
//! [`BowError`] variant instead of a bare `String` or a panic, and each
//! variant maps to a stable process exit code so scripts and the
//! `bow-server` HTTP layer can tell the failure classes apart.

use bow_util::UnknownName;
use std::fmt;

/// An invalid configuration request, produced by
/// [`ConfigBuilder::try_build`](crate::experiment::ConfigBuilder::try_build)
/// and by name lookups (benchmarks, collectors, models).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A numeric knob is outside its supported range.
    Range {
        /// Knob name (e.g. `"window"`).
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// A name failed to resolve (benchmark, collector, model, scale); the
    /// payload lists the valid names of the axis's table.
    Unknown(UnknownName),
    /// The configuration's compile plan cannot be applied to the kernel: a
    /// compiler pass the configuration asks for refused it (barrier
    /// lowering of an unstructured or too deeply nested kernel, the hint
    /// verifier rejecting the annotation).
    Compile {
        /// The kernel the pass refused.
        kernel: String,
        /// The refusing pass.
        pass: &'static str,
        /// Why it refused.
        message: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Range {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} {value} out of range ({min}..={max})"),
            ConfigError::Unknown(name) => name.fmt(f),
            ConfigError::Compile {
                kernel,
                pass,
                message,
            } => write!(f, "{pass} rejected `{kernel}`: {message}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The error type of every user-facing `bow` entry point.
///
/// The variants are failure *classes*, each with a distinct exit code
/// (see [`BowError::exit_code`]): `bow-cli` exits with it, and the HTTP
/// server maps it onto a 4xx status.
#[derive(Clone, PartialEq, Debug)]
pub enum BowError {
    /// Malformed input text: command lines, assembly, JSON documents.
    Parse(String),
    /// A structurally valid but unsatisfiable configuration.
    Config(ConfigError),
    /// A filesystem or network operation failed.
    Io {
        /// The path (or address) the operation touched.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The work ran but failed its check: reference verification, the
    /// differential fuzzer, the lint/mutation gates.
    Verify(String),
}

impl BowError {
    /// A parse error with the given message.
    pub fn parse(message: impl Into<String>) -> BowError {
        BowError::Parse(message.into())
    }

    /// An I/O error for `path`.
    pub fn io(path: impl Into<String>, message: impl fmt::Display) -> BowError {
        BowError::Io {
            path: path.into(),
            message: message.to_string(),
        }
    }

    /// A verification failure with the given report.
    pub fn verify(message: impl Into<String>) -> BowError {
        BowError::Verify(message.into())
    }

    /// The process exit code for this failure class: parse 2, config 3,
    /// io 4, verify 5. (0 is success; a panic exits 101.)
    pub fn exit_code(&self) -> i32 {
        match self {
            BowError::Parse(_) => 2,
            BowError::Config(_) => 3,
            BowError::Io { .. } => 4,
            BowError::Verify(_) => 5,
        }
    }

    /// A short stable class name (`"parse"`, `"config"`, `"io"`,
    /// `"verify"`) — the `error.kind` field of the HTTP API.
    pub fn kind(&self) -> &'static str {
        match self {
            BowError::Parse(_) => "parse",
            BowError::Config(_) => "config",
            BowError::Io { .. } => "io",
            BowError::Verify(_) => "verify",
        }
    }
}

impl fmt::Display for BowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BowError::Parse(m) => f.write_str(m),
            BowError::Config(e) => e.fmt(f),
            BowError::Io { path, message } => write!(f, "{path}: {message}"),
            BowError::Verify(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for BowError {}

impl From<ConfigError> for BowError {
    fn from(e: ConfigError) -> BowError {
        BowError::Config(e)
    }
}

impl From<UnknownName> for ConfigError {
    fn from(e: UnknownName) -> ConfigError {
        ConfigError::Unknown(e)
    }
}

impl From<UnknownName> for BowError {
    fn from(e: UnknownName) -> BowError {
        BowError::Config(e.into())
    }
}

impl From<bow_util::json::ParseError> for BowError {
    fn from(e: bow_util::json::ParseError) -> BowError {
        BowError::Parse(e.to_string())
    }
}

impl From<bow_util::json::DecodeError> for BowError {
    fn from(e: bow_util::json::DecodeError) -> BowError {
        BowError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_and_kinds_are_stable() {
        let errs = [
            BowError::parse("x"),
            BowError::from(bow_workloads::Scale::parse("huge").unwrap_err()),
            BowError::io("a/b", "denied"),
            BowError::verify("mismatch"),
        ];
        let codes: Vec<i32> = errs.iter().map(BowError::exit_code).collect();
        assert_eq!(codes, [2, 3, 4, 5]);
        let kinds: Vec<&str> = errs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["parse", "config", "io", "verify"]);
    }

    #[test]
    fn display_is_informative() {
        let e = BowError::Config(ConfigError::Range {
            field: "window",
            value: 99,
            min: 1,
            max: 64,
        });
        assert_eq!(e.to_string(), "window 99 out of range (1..=64)");
        assert_eq!(
            BowError::io("k.s", "no such file").to_string(),
            "k.s: no such file"
        );
        // Unknown names list the axis's table.
        let e = BowError::from(bow_workloads::Scale::parse("huge").unwrap_err());
        assert_eq!(e.to_string(), "unknown scale `huge` (valid: test, paper)");
    }
}

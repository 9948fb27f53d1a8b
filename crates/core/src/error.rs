//! Error and violation types.

use crate::id::ProcessId;
use std::error::Error;
use std::fmt;

/// A configuration was rejected before a run started (e.g. an adversary
/// exceeding the fault bound `f`, or zero processes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given explanation.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    /// The explanation alone, without [`Display`](fmt::Display)'s
    /// `invalid configuration: ` prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// A problem predicate `Σ` found a history that does not satisfy it.
///
/// Carried by [`crate::problem::Problem::check`]; the fields pinpoint where
/// and why, which the experiment harness prints when a theorem-shaped claim
/// fails.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which requirement was violated (e.g. `"agreement"`, `"rate"`).
    pub rule: String,
    /// 0-based round index *within the checked slice* where it was seen.
    pub at_round: Option<usize>,
    /// Processes implicated.
    pub processes: Vec<ProcessId>,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    /// Creates a violation of `rule` with a free-form detail message.
    pub fn new(rule: impl Into<String>, detail: impl Into<String>) -> Self {
        Violation {
            rule: rule.into(),
            at_round: None,
            processes: Vec::new(),
            detail: detail.into(),
        }
    }

    /// Attaches the slice-relative round index.
    #[must_use]
    pub fn at_round(mut self, i: usize) -> Self {
        self.at_round = Some(i);
        self
    }

    /// Attaches implicated processes.
    #[must_use]
    pub fn with_processes(mut self, ps: impl IntoIterator<Item = ProcessId>) -> Self {
        self.processes.extend(ps);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violation of {}", self.rule)?;
        if let Some(r) = self.at_round {
            write!(f, " at slice round {r}")?;
        }
        if !self.processes.is_empty() {
            write!(f, " involving ")?;
            for (i, p) in self.processes.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

impl Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_display() {
        let e = ConfigError::new("f exceeds n");
        assert_eq!(e.to_string(), "invalid configuration: f exceeds n");
    }

    #[test]
    fn violation_builder_and_display() {
        let v = Violation::new("agreement", "counters differ")
            .at_round(3)
            .with_processes([ProcessId(0), ProcessId(2)]);
        let s = v.to_string();
        assert!(s.contains("agreement"));
        assert!(s.contains("slice round 3"));
        assert!(s.contains("p0,p2"));
        assert!(s.contains("counters differ"));
    }

    #[test]
    fn violation_minimal_display() {
        let v = Violation::new("rate", "skipped");
        assert_eq!(v.to_string(), "violation of rate: skipped");
    }

    #[test]
    fn errors_are_std_error() {
        fn takes_err<E: std::error::Error>(_: &E) {}
        takes_err(&ConfigError::new("x"));
        takes_err(&Violation::new("r", "d"));
    }
}

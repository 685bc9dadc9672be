//! Structural invariants, reported rather than asserted.
//!
//! The model checker (`scfs-check`) runs scenarios under adversarial
//! schedules and needs to *observe* invariant violations — a `debug_assert`
//! would abort the exploration at the first counterexample instead of
//! letting the explorer record, shrink and serialize it. So the structures
//! that carry cross-schedule invariants (the cache tiers' byte accounting)
//! expose a `check_invariants` method that appends any violations to a
//! list, and the checker treats a non-empty list as a failed schedule.
//! Ordinary tests can still assert the list is empty, which is the
//! `debug_assert` these callbacks replace.

use std::fmt;

/// One violated invariant: which one, and what the structure looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Stable invariant name (e.g. `"cache.used-bytes-accounting"`).
    pub name: &'static str,
    /// Human-readable description of the violating state.
    pub detail: String,
}

impl InvariantViolation {
    /// Builds a violation record.
    pub fn new(name: &'static str, detail: impl Into<String>) -> Self {
        InvariantViolation {
            name,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.detail)
    }
}

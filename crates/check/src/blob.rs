//! The replayable schedule blob: the corpus format under `tests/schedules/`.
//!
//! A schedule blob is a small, diff-friendly text file that pins one
//! scenario run completely: scenario, seed, mutant flag, the non-default
//! decisions (sparse, `index=option`), what the run is expected to do
//! (`violation` or `pass`) and the expected trace hash. `scfs-check replay`
//! re-executes the blob and fails if any of the expectations drift — a
//! shrunk race witness stays a regression test forever, and a `pass` blob
//! pins an interesting-but-correct interleaving.
//!
//! ```text
//! scfs-check schedule v1
//! scenario: abd-quorum
//! seed: 7
//! mutant: read-quorum-skew
//! expect: violation
//! trace: 0x1f2e3d4c5b6a7988
//! decide: 4=2  # delivery@/reg options=3
//! decide: 9=1
//! ```
//!
//! Everything after `#` on a line is a comment; the serializer uses it to
//! annotate each decision with the choice point it lands on.

use crate::controller::ChoiceRecord;
use crate::scenario::{RunOutcome, ScenarioKind};

/// What a replay of the blob must observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The run must violate at least one invariant.
    Violation,
    /// The run must satisfy every invariant.
    Pass,
}

impl Expect {
    fn name(self) -> &'static str {
        match self {
            Expect::Violation => "violation",
            Expect::Pass => "pass",
        }
    }
}

/// One pinned schedule: everything needed to re-execute a run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Scenario to run.
    pub scenario: ScenarioKind,
    /// Scenario seed.
    pub seed: u64,
    /// Whether the seeded mutant is enabled.
    pub mutant: bool,
    /// Dense decision vector (trailing defaults trimmed).
    pub decisions: Vec<usize>,
    /// Whether the run must violate or pass.
    pub expect: Expect,
    /// Expected observable trace hash.
    pub trace_hash: u64,
}

const MAGIC: &str = "scfs-check schedule v1";

impl Schedule {
    /// Builds a schedule from a run's outcome, pinning its trace hash.
    pub fn from_run(
        scenario: ScenarioKind,
        seed: u64,
        mutant: bool,
        mut decisions: Vec<usize>,
        outcome: &RunOutcome,
    ) -> Self {
        // The blob stores non-default decisions sparsely, so trailing
        // defaults would not survive a round-trip: canonicalize them away.
        while decisions.last() == Some(&0) {
            decisions.pop();
        }
        Schedule {
            scenario,
            seed,
            mutant,
            decisions,
            expect: if outcome.violations.is_empty() {
                Expect::Pass
            } else {
                Expect::Violation
            },
            trace_hash: outcome.trace_hash,
        }
    }

    /// Serializes the schedule; `records` (from the pinned run) annotates
    /// each decision with the choice point it lands on.
    pub fn serialize(&self, records: &[ChoiceRecord]) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        writeln!(out, "{MAGIC}").ok();
        writeln!(out, "scenario: {}", self.scenario.name()).ok();
        writeln!(out, "seed: {}", self.seed).ok();
        writeln!(
            out,
            "mutant: {}",
            if self.mutant {
                "read-quorum-skew"
            } else {
                "none"
            }
        )
        .ok();
        writeln!(out, "expect: {}", self.expect.name()).ok();
        writeln!(out, "trace: {:#018x}", self.trace_hash).ok();
        for (i, &d) in self.decisions.iter().enumerate() {
            if d == 0 {
                continue;
            }
            match records.get(i) {
                Some(r) => {
                    writeln!(
                        out,
                        "decide: {i}={d}  # {}@{} options={}",
                        r.kind, r.site, r.options
                    )
                    .ok();
                }
                None => {
                    writeln!(out, "decide: {i}={d}").ok();
                }
            }
        }
        out
    }

    /// Parses a schedule blob.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(MAGIC) {
            return Err(format!("not a schedule blob (expected `{MAGIC}` header)"));
        }
        let mut scenario = None;
        let mut seed = None;
        let mut mutant = None;
        let mut expect = None;
        let mut trace_hash = None;
        let mut sparse: Vec<(usize, usize)> = Vec::new();
        for raw in lines {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (field, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line: {raw}"))?;
            let value = value.trim();
            match field.trim() {
                "scenario" => {
                    scenario = Some(
                        ScenarioKind::parse(value)
                            .ok_or_else(|| format!("unknown scenario: {value}"))?,
                    )
                }
                "seed" => seed = Some(value.parse().map_err(|_| format!("bad seed: {value}"))?),
                "mutant" => {
                    mutant = Some(match value {
                        "none" => false,
                        "read-quorum-skew" => true,
                        other => return Err(format!("unknown mutant: {other}")),
                    })
                }
                "expect" => {
                    expect = Some(match value {
                        "violation" => Expect::Violation,
                        "pass" => Expect::Pass,
                        other => return Err(format!("unknown expectation: {other}")),
                    })
                }
                "trace" => {
                    let hex = value
                        .strip_prefix("0x")
                        .ok_or_else(|| format!("trace must be 0x-hex: {value}"))?;
                    trace_hash = Some(
                        u64::from_str_radix(hex, 16).map_err(|_| format!("bad trace: {value}"))?,
                    )
                }
                "decide" => {
                    let (i, d) = value
                        .split_once('=')
                        .ok_or_else(|| format!("bad decide: {value}"))?;
                    sparse.push((
                        i.trim().parse().map_err(|_| format!("bad index: {i}"))?,
                        d.trim().parse().map_err(|_| format!("bad option: {d}"))?,
                    ));
                }
                other => return Err(format!("unknown field: {other}")),
            }
        }
        let mut decisions = Vec::new();
        for (i, d) in sparse {
            if i >= decisions.len() {
                decisions.resize(i + 1, 0);
            }
            decisions[i] = d;
        }
        Ok(Schedule {
            scenario: scenario.ok_or("missing scenario")?,
            seed: seed.ok_or("missing seed")?,
            mutant: mutant.ok_or("missing mutant")?,
            decisions,
            expect: expect.ok_or("missing expect")?,
            trace_hash: trace_hash.ok_or("missing trace")?,
        })
    }

    /// Re-executes the schedule and checks every pinned expectation.
    /// Returns the run's violation list on success (empty for `pass`).
    pub fn replay(&self) -> Result<RunOutcome, String> {
        let outcome = self.scenario.run(self.seed, self.mutant, &self.decisions);
        if outcome.trace_hash != self.trace_hash {
            return Err(format!(
                "trace diverged: pinned {:#018x}, replay produced {:#018x}",
                self.trace_hash, outcome.trace_hash
            ));
        }
        match (self.expect, outcome.violations.is_empty()) {
            (Expect::Violation, true) => {
                Err("expected a violation but the run was clean".to_string())
            }
            (Expect::Pass, false) => Err(format!(
                "expected a clean run but got: {:?}",
                outcome.violations
            )),
            _ => Ok(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_parse_round_trip() {
        let sched = Schedule {
            scenario: ScenarioKind::AbdQuorum,
            seed: 7,
            mutant: true,
            decisions: vec![0, 0, 2, 0, 1],
            expect: Expect::Violation,
            trace_hash: 0x1f2e_3d4c_5b6a_7988,
        };
        let text = sched.serialize(&[]);
        assert_eq!(Schedule::parse(&text).unwrap(), sched);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("not a blob").is_err());
        let missing = "scfs-check schedule v1\nscenario: abd-quorum\n";
        assert!(Schedule::parse(missing).is_err());
        let bad_field = "scfs-check schedule v1\nwat: 1\n";
        assert!(Schedule::parse(bad_field).is_err());
    }

    #[test]
    fn comments_and_annotations_are_ignored() {
        let text = "scfs-check schedule v1\n# a comment\nscenario: chunkstore-gc\nseed: 3\nmutant: none\nexpect: pass\ntrace: 0x0000000000000001\ndecide: 1=1  # lane@file-a options=2\n";
        let sched = Schedule::parse(text).unwrap();
        assert_eq!(sched.scenario, ScenarioKind::ChunkstoreGc);
        assert_eq!(sched.decisions, vec![0, 1]);
    }
}

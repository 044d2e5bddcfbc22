//! One verdict for every check.
//!
//! BOW is only correct if the operand window serves exactly the values
//! the register file would have served, and five checks test that from
//! different sides (see [`Check`]). Each reports a disagreement as a
//! [`Finding`] — which check, on which kernel, under which design, and
//! what it saw — into one [`Verdict`]. Every driver (`fuzz`, `lint`,
//! `lint --mutate`, `run`, `compare`, `sweep`, `corpus sweep`,
//! `corpus sanitize` and the server's run and sweep requests) prints it
//! with one text rendering, serializes it with one JSON shape and exits
//! on one rule: [`BowError::Verify`] (exit 5) if and only if there is a
//! finding.
//!
//! The population verbs (`fuzz`, `corpus sanitize`, `lint --mutate`)
//! name the checks a launch runs with [`Check`] too: one judged launch,
//! shared by all three, runs the lint, oracle, reference and sanitizer
//! checks it is asked for. Campaign statistics — mutant counts, static
//! precision, per-code tallies — stay data on each verb's report; only
//! the pass/fail judgement lives here.

use std::fmt;

use crate::error::BowError;
use crate::experiment::RunRecord;
use bow_sim::LaunchResult;
use bow_util::json::Json;

/// The checks that judge the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// A static gate refused the kernel: the lint suite, or the hint
    /// residency verifier a judged launch runs before it launches.
    Lint,
    /// The architectural oracle disagreed with the pipeline (lockstep,
    /// instruction count or final memory) or could not finish.
    Oracle,
    /// An independent host reference — a workload's reference, the fuzz
    /// host model — disagreed with the memory the launch left.
    Reference,
    /// The race sanitizer's dynamic findings: one no static lint code
    /// vouches for, a planted hazard it missed, or any finding of a
    /// `run --sanitize`.
    Sanitizer,
    /// The mutation audit of the hint verifier: a mutant that loses a
    /// value but is not flagged or not sanitizer-confirmed, an unmutated
    /// annotation that is not clean, or a campaign below its floors.
    Mutation,
}

impl Check {
    /// The stable name, the `check` field of a finding's JSON.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Check::Lint => "lint",
            Check::Oracle => "oracle",
            Check::Reference => "reference",
            Check::Sanitizer => "sanitizer",
            Check::Mutation => "mutation",
        }
    }

    /// Which check a failed reference verdict of `result` belongs to:
    /// the oracle when its report holds a mismatch, the host reference
    /// otherwise. Read from the typed report, never from the message.
    pub(crate) fn of_failed(result: &LaunchResult) -> Check {
        match &result.oracle {
            Some(o) if o.mismatch.is_some() => Check::Oracle,
            _ => Check::Reference,
        }
    }
}

/// One disagreement one check found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The check that found it.
    pub check: Check,
    /// The kernel (benchmark, corpus entry, fuzz case) it was found on.
    pub kernel: String,
    /// The design (configuration label) the kernel ran or was judged under.
    pub design: String,
    /// What the check saw.
    pub detail: String,
}

impl Finding {
    /// A finding of `check` on `kernel` under `design`.
    pub fn new(
        check: Check,
        kernel: impl Into<String>,
        design: impl Into<String>,
        detail: impl Into<String>,
    ) -> Finding {
        Finding {
            check,
            kernel: kernel.into(),
            design: design.into(),
            detail: detail.into(),
        }
    }

    /// A run record's failed reference check, if it failed.
    pub(crate) fn of_record(rec: &RunRecord) -> Option<Finding> {
        let detail = rec.outcome.checked.as_ref().err()?;
        let check = Check::of_failed(&rec.outcome.result);
        Some(Finding::new(check, &rec.benchmark, &rec.label, detail))
    }

    /// The finding as a JSON object: `check`, `kernel`, `design`, `detail`.
    fn to_json(&self) -> Json {
        Json::obj([
            ("check", Json::from(self.check.name())),
            ("kernel", Json::from(self.kernel.as_str())),
            ("design", Json::from(self.design.as_str())),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}

/// One line: `<kernel> under <design>: <detail>`.
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under {}: {}", self.kernel, self.design, self.detail)
    }
}

/// Every finding of one command.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The findings, in the order the checks reported them.
    pub findings: Vec<Finding>,
}

impl Verdict {
    /// The failed reference checks among `records`.
    pub fn of_records<'a>(records: impl IntoIterator<Item = &'a RunRecord>) -> Verdict {
        records.into_iter().filter_map(Finding::of_record).collect()
    }

    /// True when no check found anything.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings as a JSON array of `{check, kernel, design, detail}`
    /// objects.
    pub fn to_json(&self) -> Json {
        Json::arr(self.findings.iter().map(Finding::to_json))
    }

    /// The exit rule: `Ok(report)` when clean, otherwise
    /// [`BowError::Verify`] (exit 5) carrying `report` followed by one
    /// line per finding.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Verify`] if and only if there is a finding.
    pub fn into_result(self, report: String) -> Result<String, BowError> {
        if self.is_clean() {
            Ok(report)
        } else {
            Err(BowError::verify(format!("{report}{self}")))
        }
    }
}

impl FromIterator<Finding> for Verdict {
    fn from_iter<I: IntoIterator<Item = Finding>>(iter: I) -> Verdict {
        Verdict {
            findings: iter.into_iter().collect(),
        }
    }
}

/// One [`Finding`] line each, newline-separated.
impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_sim::{OracleMismatch, OracleReport, SimStats};
    use bow_workloads::RunOutcome;

    fn record(checked: Result<(), String>, mismatch: Option<OracleMismatch>) -> RunRecord {
        let result = LaunchResult {
            cycles: 0,
            stats: SimStats::default(),
            per_sm: Vec::new(),
            windows: Vec::new(),
            completed: true,
            sanitizer: None,
            oracle: Some(OracleReport {
                completed: true,
                checked: 0,
                mismatch,
            }),
        };
        RunRecord {
            label: "baseline".into(),
            benchmark: "vectoradd".into(),
            outcome: RunOutcome { result, checked },
            compiler: None,
        }
    }

    #[test]
    fn a_clean_verdict_passes_the_report_through() {
        assert_eq!(
            Verdict::default().into_result("all good\n".into()),
            Ok("all good\n".into())
        );
    }

    #[test]
    fn one_finding_is_a_verify_error_that_exits_5() {
        let verdict: Verdict = [Finding::new(Check::Lint, "k", "bow-wr iw3", "B010")]
            .into_iter()
            .collect();
        let e = verdict.into_result("linted 1 kernel\n".into()).unwrap_err();
        assert_eq!(e.kind(), "verify");
        assert_eq!(e.exit_code(), 5);
        assert_eq!(e.to_string(), "linted 1 kernel\nk under bow-wr iw3: B010");
    }

    #[test]
    fn each_finding_renders_as_one_line() {
        let verdict: Verdict = [
            Finding::new(Check::Oracle, "racy", "baseline", "oracle check failed: x"),
            Finding::new(Check::Reference, "nw", "rfc", "out[3]: got 1, want 2"),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            verdict.to_string(),
            "racy under baseline: oracle check failed: x\nnw under rfc: out[3]: got 1, want 2"
        );
        // With no report the error message is exactly the lines.
        let e = verdict.into_result(String::new()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "racy under baseline: oracle check failed: x\nnw under rfc: out[3]: got 1, want 2"
        );
    }

    #[test]
    fn the_json_shape_is_an_array_of_four_field_objects() {
        let verdict: Verdict = [Finding::new(
            Check::Sanitizer,
            "adv",
            "bow-wr iw3+modern",
            "d",
        )]
        .into_iter()
        .collect();
        assert_eq!(
            verdict.to_json().to_string_compact(),
            r#"[{"check":"sanitizer","kernel":"adv","design":"bow-wr iw3+modern","detail":"d"}]"#
        );
        assert_eq!(Verdict::default().to_json().to_string_compact(), "[]");
    }

    #[test]
    fn a_record_is_an_oracle_finding_only_when_its_report_has_a_mismatch() {
        let oracle = record(
            Err("oracle check failed: final memory".into()),
            Some(OracleMismatch::FinalMemory),
        );
        let found = Finding::of_record(&oracle).expect("a failed record is a finding");
        assert_eq!(found.check, Check::Oracle);
        assert_eq!(
            found.to_string(),
            "vectoradd under baseline: oracle check failed: final memory"
        );

        let reference = record(Err("c[7]: got 1, want 2".into()), None);
        let found = Finding::of_record(&reference).expect("a failed record is a finding");
        assert_eq!(found.check, Check::Reference);
        assert_eq!(found.detail, "c[7]: got 1, want 2");

        assert_eq!(Finding::of_record(&record(Ok(()), None)), None);
        let verdict = Verdict::of_records([&oracle, &reference, &record(Ok(()), None)]);
        let checks: Vec<Check> = verdict.findings.iter().map(|f| f.check).collect();
        assert_eq!(checks, [Check::Oracle, Check::Reference]);
    }
}

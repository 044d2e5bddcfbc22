//! The cross-validation campaign: does the static race suite cover
//! *every* hazard the dynamic sanitizer observes?
//!
//! [`run_campaign`] judges the stratified corpus
//! ([`crate::corpus::generate`]) plus the adversarial stratum, each kernel
//! as authored (no hint pass, no control-bit emitter), twice: by its
//! static `B001..B016` lint report ([`bow_compiler::lint_kernel`]) and by
//! one sanitized launch on each SM core model, the campaign module's
//! judged launch. A dynamic finding whose kind maps to no raised code
//! ([`unvouched`], the rule the fuzzer applies too) is a static-analysis
//! false negative and a [`Finding`] of the run's [`Verdict`]; so is a
//! planted hazard the sanitizer misses
//! ([`adversarial::Adversarial::expect_dynamic`]). The reverse direction
//! is measured, not enforced: the race codes (`B015` definite race, `B003`
//! residual candidate, `B016` never-initialized shared read) are
//! deliberately conservative, so the fraction of raised flags the
//! sanitizer confirms is reported as *precision*.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::campaign::{map_programs, Program};
use crate::corpus::{self, adversarial, Manifest, ManifestEntry};
use crate::experiment::{Config, ConfigBuilder};
use crate::verdict::{Check, Finding, Verdict};
use bow_compiler::{lint_kernel, LintOptions, LintReport};
use bow_sim::{CoreModelKind, SanitizerReport};
use bow_util::json::Json;

/// The static codes that can vouch for a dynamic finding kind — the
/// machine half of the dynamic⊆static contract.
pub fn static_codes_for(kind: &str) -> &'static [&'static str] {
    match kind {
        "race" => &["B015", "B003"],
        "uninit-shared" => &["B016"],
        "uninit-reg" => &["B001"],
        "divergent-bar" => &["B002"],
        "broken-sync" => &["B011"],
        "hint-violation" => &["B010"],
        _ => &[],
    }
}

/// The dynamic⊆static contract, shared by the fuzzer and the campaign:
/// every dynamic finding needs a static voucher, a code in `report` that
/// [`static_codes_for`] names for its kind. Yields one
/// [`Check::Sanitizer`] finding per dynamic finding without one.
pub fn unvouched<'a>(
    dynamic: &'a SanitizerReport,
    report: &'a LintReport,
    kernel: &'a str,
    design: &'a str,
) -> impl Iterator<Item = Finding> + 'a {
    let raised = |code: &&str| report.diagnostics.iter().any(|d| d.code == *code);
    dynamic
        .findings
        .iter()
        .filter(move |f| !static_codes_for(f.kind()).iter().any(raised))
        .map(move |f| {
            let detail = format!("sanitizer: dynamic finding without static flag — {f}");
            Finding::new(Check::Sanitizer, kernel, design, detail)
        })
}

/// The race codes whose precision the campaign measures.
const RACE_CODES: [&str; 3] = ["B003", "B015", "B016"];

/// Options for one campaign session.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Corpus master seed ([`corpus::generate`]).
    pub seed: u64,
    /// Generated corpus kernels (the adversarial stratum always rides
    /// along in full).
    pub count: usize,
    /// Worker threads (`0` = all cores).
    pub jobs: usize,
}

impl CampaignOptions {
    /// The full campaign over the default thousand-kernel corpus.
    pub fn full() -> CampaignOptions {
        CampaignOptions {
            seed: corpus::DEFAULT_SEED,
            count: corpus::DEFAULT_COUNT,
            jobs: 0,
        }
    }

    /// The CI smoke configuration: a 64-kernel fixed-seed corpus.
    pub fn smoke() -> CampaignOptions {
        CampaignOptions {
            count: 64,
            ..CampaignOptions::full()
        }
    }
}

/// The outcome of a campaign session (or, folded into it, of one kernel).
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Kernels judged (generated retained + adversarial).
    pub kernels: u64,
    /// Sanitized launches (kernels × core models).
    pub launches: u64,
    /// Total deduplicated dynamic findings across all launches.
    pub dynamic_findings: u64,
    /// Launches that hit the cycle watchdog (reported, not fatal: their
    /// findings are recorded before the stall).
    pub timeouts: u64,
    /// Dynamic findings without a static flag and adversarial
    /// expectations the sanitizer missed.
    pub verdict: Verdict,
    /// `(kernel, race code)` pairs the static suite raised.
    pub static_flags: u64,
    /// …of which the sanitizer dynamically confirmed.
    pub static_confirmed: u64,
    /// Per-code `(raised, confirmed)` breakdown, in `RACE_CODES` order.
    pub by_code: Vec<(String, u64, u64)>,
    /// Wall-clock time of the session.
    pub wall: Duration,
}

impl CampaignReport {
    /// Fraction of static race flags the sanitizer confirmed (1.0 when
    /// nothing was flagged — an empty claim is vacuously precise).
    pub fn precision(&self) -> f64 {
        if self.static_flags == 0 {
            1.0
        } else {
            self.static_confirmed as f64 / self.static_flags as f64
        }
    }

    /// The session's statistics in one line.
    pub fn summary(&self) -> String {
        format!(
            "sanitizer campaign: {} kernels × 2 cores ({} launches), {} dynamic \
             findings; static precision {}/{} ({:.0}%); {} watchdog stalls; {:.1}s\n",
            self.kernels,
            self.launches,
            self.dynamic_findings,
            self.static_confirmed,
            self.static_flags,
            self.precision() * 100.0,
            self.timeouts,
            self.wall.as_secs_f64()
        )
    }

    /// The report as a JSON object (the CI artifact format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("passed", Json::Bool(self.verdict.is_clean())),
            ("kernels", Json::Num(self.kernels as f64)),
            ("launches", Json::Num(self.launches as f64)),
            ("dynamic_findings", Json::Num(self.dynamic_findings as f64)),
            ("timeouts", Json::Num(self.timeouts as f64)),
            ("findings", self.verdict.to_json()),
            ("static_flags", Json::Num(self.static_flags as f64)),
            ("static_confirmed", Json::Num(self.static_confirmed as f64)),
            ("precision", Json::Num(self.precision())),
            (
                "by_code",
                Json::Arr(
                    self.by_code
                        .iter()
                        .map(|(code, raised, confirmed)| {
                            Json::obj([
                                ("code", Json::Str(code.clone())),
                                ("raised", Json::Num(*raised as f64)),
                                ("confirmed", Json::Num(*confirmed as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
        ])
    }
}

/// Judges one corpus kernel on every core: the static half once, as
/// authored, then one sanitized launch per design.
fn judge_entry(entry: &ManifestEntry, program: &Program, designs: &[Config]) -> CampaignReport {
    let mut out = CampaignReport::default();
    let expect_dynamic = adversarial::all()
        .into_iter()
        .find(|a| a.name == entry.name)
        .map(|a| a.expect_dynamic)
        .unwrap_or(&[]);

    // The static half judges the kernel exactly as launched: as authored
    // (no hint pass, no control bits), at the corpus hint window, hints
    // checked.
    let kernel = program.kernel();
    let opts = LintOptions {
        window: corpus::WINDOW,
        ..Default::default()
    };
    let report = lint_kernel(&kernel, &opts);

    let mut confirmed_kinds: BTreeSet<String> = BTreeSet::new();
    for design in designs {
        let judged = program.judge(&kernel, design, &[Check::Sanitizer]);
        out.timeouts += u64::from(!judged.completed);
        let dynamic = judged
            .sanitizer
            .expect("the sanitizer check attaches the probe");
        out.dynamic_findings += dynamic.findings.len() as u64;
        out.verdict.findings.extend(judged.findings);
        let kinds: BTreeSet<&str> = dynamic.findings.iter().map(|f| f.kind()).collect();
        for &kind in expect_dynamic.iter().filter(|k| !kinds.contains(*k)) {
            let detail = format!("sanitizer: no dynamic {kind} finding for the planted hazard");
            let design = design.label.as_str();
            let finding = Finding::new(Check::Sanitizer, &entry.name, design, detail);
            out.verdict.findings.push(finding);
        }
        confirmed_kinds.extend(kinds.into_iter().map(str::to_string));
    }

    // Precision bookkeeping: a raised race code is confirmed when any
    // observed kind maps to it (on either core — the launch schedules
    // differ, and one witness is enough).
    out.by_code = RACE_CODES
        .map(|code| {
            let raised = report.diagnostics.iter().any(|d| d.code == code);
            let confirms = |k: &String| static_codes_for(k).contains(&code);
            let confirmed = raised && confirmed_kinds.iter().any(confirms);
            (code.to_string(), u64::from(raised), u64::from(confirmed))
        })
        .into();
    out
}

/// Runs a campaign session over a pre-built manifest. Deterministic for
/// a given manifest at any worker count.
pub fn run_campaign_on(manifest: &Manifest, opts: &CampaignOptions) -> CampaignReport {
    let start = Instant::now();
    let entries: Vec<&ManifestEntry> = manifest
        .entries
        .iter()
        .filter(|e| e.retained || e.stratum == adversarial::STRATUM)
        .collect();
    let on = |core| {
        ConfigBuilder::bow_wr(corpus::WINDOW)
            .core_model(core)
            .build()
    };
    let designs: Vec<Config> = CoreModelKind::ALL.map(on).into();
    // An entry of an unknown stratum or adversarial name (a manifest from
    // another corpus version) has no program: nothing to validate.
    let outcomes = map_programs(
        entries.len(),
        opts.jobs,
        |i| corpus::program(entries[i]),
        |i, program| judge_entry(entries[i], program, &designs),
    );

    let total = entries.len() as u64;
    let mut report = CampaignReport {
        kernels: total,
        launches: total * designs.len() as u64,
        by_code: RACE_CODES.iter().map(|c| (c.to_string(), 0, 0)).collect(),
        ..CampaignReport::default()
    };
    for o in outcomes.into_iter().flatten() {
        report.dynamic_findings += o.dynamic_findings;
        report.timeouts += o.timeouts;
        report.verdict.findings.extend(o.verdict.findings);
        for (row, (_, raised, confirmed)) in report.by_code.iter_mut().zip(o.by_code) {
            row.1 += raised;
            row.2 += confirmed;
        }
    }
    report.static_flags = report.by_code.iter().map(|row| row.1).sum();
    report.static_confirmed = report.by_code.iter().map(|row| row.2).sum();
    report.wall = start.elapsed();
    report
}

/// Generates the corpus for `opts` and runs the campaign over it.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    let manifest = corpus::generate(opts.seed, opts.count);
    run_campaign_on(&manifest, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dynamic_kind_maps_to_documented_codes() {
        for kind in [
            "race",
            "uninit-shared",
            "uninit-reg",
            "divergent-bar",
            "broken-sync",
            "hint-violation",
        ] {
            let codes = static_codes_for(kind);
            assert!(!codes.is_empty(), "{kind} has no static voucher");
            for c in codes {
                assert!(
                    bow_compiler::LINT_DOCS.iter().any(|d| d.code == *c),
                    "{c} missing from LINT_DOCS"
                );
            }
        }
        assert!(static_codes_for("no-such-kind").is_empty());
    }

    #[test]
    fn an_unvouched_dynamic_finding_is_one_sanitizer_finding() {
        use bow_compiler::{Diagnostic, Severity};
        use bow_sim::SanitizerFinding;
        let dynamic = SanitizerReport {
            findings: vec![SanitizerFinding::UninitShared {
                cta: 0,
                addr: 0x40,
                pc: 7,
                uid: 1,
            }],
        };
        let mut report = LintReport {
            kernel: "k".into(),
            diagnostics: vec![Diagnostic::new("B015", Severity::Warning, "a race")],
            pressure: Vec::new(),
        };
        let found: Vec<Finding> = unvouched(&dynamic, &report, "k", "bow-wr iw3").collect();
        assert_eq!(found.len(), 1, "B015 does not vouch for uninit-shared");
        assert_eq!(found[0].check, Check::Sanitizer);
        assert_eq!(
            (found[0].kernel.as_str(), found[0].design.as_str()),
            ("k", "bow-wr iw3")
        );
        assert!(
            found[0]
                .detail
                .starts_with("sanitizer: dynamic finding without static flag — uninit-shared"),
            "{}",
            found[0].detail
        );
        // Its voucher, B016, clears it.
        report.diagnostics.push(Diagnostic::new(
            "B016",
            Severity::Warning,
            "never initialized",
        ));
        assert_eq!(unvouched(&dynamic, &report, "k", "bow-wr iw3").count(), 0);
    }

    #[test]
    fn a_campaign_tallies_the_same_at_any_worker_count() {
        // Every kernel is judged on both cores once: a dropped kernel,
        // core or check moves a pinned tally.
        let campaign = |jobs| {
            run_campaign(&CampaignOptions {
                count: 12,
                jobs,
                ..CampaignOptions::smoke()
            })
        };
        let (one, two) = (campaign(1), campaign(2));
        let without_wall = |report: &CampaignReport| {
            let mut json = report.to_json();
            if let Json::Obj(fields) = &mut json {
                fields.retain(|(k, _)| k != "wall_seconds");
            }
            json.to_string_compact()
        };
        assert_eq!(without_wall(&one), without_wall(&two));
        let tallies = [
            one.kernels,
            one.launches,
            one.dynamic_findings,
            one.static_flags,
            one.static_confirmed,
        ];
        assert_eq!(tallies, [20, 40, 46, 9, 7], "{}", one.summary());
    }

    #[test]
    fn smoke_campaign_covers_every_dynamic_finding() {
        let report = run_campaign(&CampaignOptions {
            count: 12,
            jobs: 2,
            ..CampaignOptions::smoke()
        });
        assert!(report.verdict.is_clean(), "{}", report.verdict);
        // The adversarial stratum guarantees a non-trivial session: every
        // planted hazard is dynamically confirmed and statically vouched.
        assert!(report.dynamic_findings > 0, "{}", report.summary());
        assert!(report.static_flags > 0, "{}", report.summary());
        let json = report.to_json().to_string_compact();
        assert!(json.contains("\"passed\":true"), "{json}");
        assert!(json.contains("\"findings\":[]"), "{json}");
    }
}

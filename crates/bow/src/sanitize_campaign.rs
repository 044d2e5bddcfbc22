//! The cross-validation campaign: does the static race suite cover
//! *every* hazard the dynamic sanitizer observes?
//!
//! [`run_campaign`] materializes the stratified corpus
//! ([`crate::corpus::generate`]) plus the full adversarial stratum, and
//! judges every kernel twice:
//!
//! * **Static** — the as-authored `B001..B016` lint report
//!   ([`bow_compiler::lint_kernel`]), including the barrier-interval
//!   race pass (`B015` definite race, `B003` residual candidate, `B016`
//!   never-initialized shared read).
//! * **Dynamic** — a sanitized launch ([`GpuConfig::sanitize`]) on
//!   **both** SM core models, folding the instrumented event stream into
//!   a [`SanitizerReport`].
//!
//! The campaign's contract is the static suite's conservativeness
//! theorem, mirrored from the hint sanitizer ([`crate::mutate`]): every
//! dynamic finding must carry a static flag — a sanitizer finding whose
//! kind maps to no raised code is a static-analysis false negative and a
//! [`Finding`] of the run's [`Verdict`] ([`unvouched`], the rule the
//! fuzzer applies too). The reverse direction is measured, not enforced: the
//! static race codes are deliberately conservative (one input, one
//! schedule per launch), so the fraction of raised `B003`/`B015`/`B016`
//! flags the sanitizer confirms is reported as *precision*.
//!
//! The adversarial stratum is additionally held to its machine-readable
//! expectation table ([`adversarial::Adversarial::expect_dynamic`]):
//! every planted hazard must be dynamically confirmed with the kinds the
//! table names, on both cores, or the miss is a finding too.
//!
//! [`GpuConfig::sanitize`]: bow_sim::GpuConfig

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::corpus::{self, adversarial, kernel_for, Manifest, ManifestEntry};
use crate::experiment::ConfigBuilder;
use crate::fuzz::{launch_case, FUZZ_MAX_CYCLES};
use crate::suite::{effective_jobs, map_parallel};
use crate::verdict::{Check, Finding, Verdict};
use bow_compiler::{lint_kernel, LintOptions, LintReport};
use bow_sim::{CoreModelKind, Gpu, SanitizerReport};
use bow_util::json::Json;

/// Watchdog for adversarial launches: two of the planted hazards stall
/// the barrier by construction, and the kernels are a dozen instructions
/// long — a fraction of the fuzz budget bounds the hang without risking
/// a false timeout.
const ADV_MAX_CYCLES: u64 = 200_000;

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

/// The outcome of a campaign session.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Kernels judged (generated retained + adversarial).
    pub kernels: u64,
    /// Sanitized launches (kernels × core models).
    pub launches: u64,
    /// Total deduplicated dynamic findings across all launches.
    pub dynamic_findings: u64,
    /// Launches that hit the cycle watchdog (the two planted barrier
    /// stalls land here; reported, not fatal — their findings are
    /// recorded before the stall).
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

/// Per-kernel tallies folded into the session report.
#[derive(Clone, Debug, Default)]
struct CaseOutcome {
    dynamic_findings: u64,
    timeouts: u64,
    findings: Vec<Finding>,
    /// Race codes raised statically, paired with dynamic confirmation.
    race_flags: Vec<(String, bool)>,
}

fn run_one_case(entry: &ManifestEntry) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let Some(kernel) = kernel_for(entry) else {
        // Unknown stratum/name: a manifest from another corpus version.
        // Nothing to validate, nothing to mask.
        return out;
    };
    let adversarial = entry.stratum == adversarial::STRATUM;
    let expect_dynamic = adversarial::all()
        .into_iter()
        .find(|a| a.name == entry.name)
        .map(|a| a.expect_dynamic)
        .unwrap_or(&[]);

    // The static half judges the kernel exactly as launched: as authored,
    // at the corpus hint window, hints checked.
    let opts = LintOptions {
        window: corpus::WINDOW,
        ..Default::default()
    };
    let report = lint_kernel(&kernel, &opts);

    let input = if adversarial {
        Vec::new()
    } else {
        corpus::input_for(entry)
    };
    let max_cycles = if adversarial {
        ADV_MAX_CYCLES
    } else {
        FUZZ_MAX_CYCLES
    };
    let mut confirmed_kinds: BTreeSet<String> = BTreeSet::new();
    for core in CoreModelKind::ALL {
        let config = ConfigBuilder::bow_wr(corpus::WINDOW)
            .sanitize(true)
            .core_model(core)
            .build();
        let mut cfg = config.gpu;
        cfg.max_cycles = max_cycles;
        let result = launch_case(&mut Gpu::new(cfg), &kernel, &input);
        out.timeouts += u64::from(!result.completed);
        let dynamic = result.sanitizer.expect("sanitize flag attaches the probe");
        out.dynamic_findings += dynamic.findings.len() as u64;
        let design = config.label.as_str();
        out.findings
            .extend(unvouched(&dynamic, &report, &entry.name, design));
        let kinds: BTreeSet<&str> = dynamic.findings.iter().map(|f| f.kind()).collect();
        for &kind in expect_dynamic.iter().filter(|k| !kinds.contains(*k)) {
            let detail = format!("sanitizer: no dynamic {kind} finding for the planted hazard");
            out.findings
                .push(Finding::new(Check::Sanitizer, &entry.name, design, detail));
        }
        confirmed_kinds.extend(kinds.into_iter().map(str::to_string));
    }

    // Precision bookkeeping: a raised race code is confirmed when any
    // observed kind maps to it (on either core — the launch schedules
    // differ, and one witness is enough).
    for code in RACE_CODES {
        if report.diagnostics.iter().any(|d| d.code == code) {
            let confirmed = confirmed_kinds
                .iter()
                .any(|k| static_codes_for(k).contains(&code));
            out.race_flags.push((code.to_string(), confirmed));
        }
    }
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
    let total = entries.len();
    let workers = effective_jobs(opts.jobs).min(total.max(1));
    let run_case = |i: usize| run_one_case(entries[i]);
    let results = map_parallel(total, workers, &run_case, |_, _: &CaseOutcome| {});

    let mut report = CampaignReport {
        kernels: total as u64,
        launches: (total as u64) * 2,
        dynamic_findings: 0,
        timeouts: 0,
        verdict: Verdict::default(),
        static_flags: 0,
        static_confirmed: 0,
        by_code: RACE_CODES.iter().map(|c| (c.to_string(), 0, 0)).collect(),
        wall: Duration::default(),
    };
    for o in results {
        report.dynamic_findings += o.dynamic_findings;
        report.timeouts += o.timeouts;
        report.verdict.findings.extend(o.findings);
        for (code, confirmed) in o.race_flags {
            report.static_flags += 1;
            report.static_confirmed += u64::from(confirmed);
            if let Some(row) = report.by_code.iter_mut().find(|(c, _, _)| *c == code) {
                row.1 += 1;
                row.2 += u64::from(confirmed);
            }
        }
    }
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

//! Hand-written SIMT-hazard kernels: the adversarial corpus stratum.
//!
//! Each kernel here is the GPU analogue of a *verifier gap*: a program a
//! CPU-style checker — linear scan, every read textually preceded by a
//! write, no model of divergence, barrier phases or write-back hints —
//! would wave through, but that the SIMT-aware `B001..B014` suite must
//! flag. The stratum exists to pin the lint suite's classification as a
//! regression surface: if a future refactor stops catching one of these,
//! the corpus tier fails before any distribution number shifts.
//!
//! Unlike generated strata, these kernels are linted **as authored**
//! ([`super::lint_as_authored`]): the hint pass is not re-run over them,
//! because one of them ships a deliberately unsound `.wb.boc` hint that
//! re-annotation would silently repair.
//!
//! Each row also carries the dynamic sanitizer finding kinds a sanitized
//! launch must report, so the cross-validation campaign can confirm every
//! planted hazard from the execution side as well as the static side.
//!
//! They are a lint population, not a performance population — the sweep
//! machinery never launches them (two would deadlock the barrier model
//! by construction).

use bow_isa::{CmpOp, Kernel, KernelBuilder, Operand, Pred, Reg, Special, WritebackHint};

/// The manifest stratum name.
pub const STRATUM: &str = "adversarial";

/// Result base the kernels store to (same region the fuzz corpus uses).
const OUT: u32 = 0x10_0000;

/// One adversarial case: a builder plus the machine-readable expectation
/// row — the static lint codes the verifier must raise on the as-authored
/// kernel and the finding kinds a sanitized launch must report. The
/// negative tests in this module and the cross-validation campaign
/// (`crate::sanitize_campaign`) consume the same rows, so the two halves
/// of the race-checking arsenal cannot drift apart silently.
#[derive(Clone, Copy)]
pub struct Adversarial {
    /// Kernel / manifest entry name.
    pub name: &'static str,
    /// The hazard, and why a CPU-style check misses it.
    pub description: &'static str,
    /// Every static code the as-authored lint report must contain. The
    /// corpus gate rejects the kernel with the first of these whose
    /// documented severity is deny-level and that is not a race code
    /// (B003/B015/B016 are the campaign's subject matter, not rejects).
    pub expect_static: &'static [&'static str],
    /// Sanitizer finding kinds ([`SanitizerFinding::kind`] tags) a
    /// sanitized launch must report — the dynamic confirmation of the
    /// static row.
    ///
    /// [`SanitizerFinding::kind`]: bow_sim::SanitizerFinding::kind
    pub expect_dynamic: &'static [&'static str],
    /// Builds the kernel.
    pub build: fn() -> Kernel,
}

fn r(i: u8) -> Reg {
    Reg::r(i)
}

fn p(i: u8) -> Pred {
    Pred::p(i)
}

/// `B001`: `r2` is written only on the taken arm of a diamond but read
/// after the join. A linear scan sees the write textually before the
/// read and accepts; must-init over the CFG does not.
fn b001_uninit_read() -> Kernel {
    KernelBuilder::new("adv_b001_uninit_read")
        .s2r(r(0), Special::TidX)
        .and(r(1), r(0).into(), Operand::Imm(1))
        .isetp(CmpOp::Ne, p(0), r(1).into(), Operand::Imm(0))
        .ssy("join")
        .bra_if(p(0), false, "then")
        .bra("join")
        .label("then")
        .mov_imm(r(2), 7)
        .label("join")
        .sync()
        .iadd(r(3), r(2).into(), r(0).into())
        .mov_imm(r(4), OUT)
        .stg(r(4), 0, r(3).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B002`: a block-wide barrier on one arm of an open SSY region. Only
/// the odd threads arrive — a guaranteed deadlock a divergence-blind
/// checker cannot see.
fn b002_divergent_barrier() -> Kernel {
    KernelBuilder::new("adv_b002_divergent_barrier")
        .s2r(r(0), Special::TidX)
        .and(r(1), r(0).into(), Operand::Imm(1))
        .isetp(CmpOp::Ne, p(0), r(1).into(), Operand::Imm(0))
        .ssy("join")
        .bra_if(p(0), false, "then")
        .bra("join")
        .label("then")
        .bar()
        .label("join")
        .sync()
        .mov_imm(r(2), OUT)
        .stg(r(2), 0, r(0).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B002`: the same deadlock without any branch — a predicated `bar`
/// executes for half the warp only. Structurally a straight line, so
/// every CFG-shape check passes.
fn b002_predicated_barrier() -> Kernel {
    KernelBuilder::new("adv_b002_predicated_barrier")
        .s2r(r(0), Special::TidX)
        .and(r(1), r(0).into(), Operand::Imm(1))
        .isetp(CmpOp::Ne, p(0), r(1).into(), Operand::Imm(0))
        .guard(p(0), false)
        .bar()
        .mov_imm(r(2), OUT)
        .stg(r(2), 0, r(0).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B003`: thread `t` stores to its shared slot, then loads partner
/// `t^1`'s slot with no barrier in between — the classic missing-fence
/// exchange. Single-threaded replay (what a CPU checker models) returns
/// the right answer every time.
fn b003_shared_race() -> Kernel {
    KernelBuilder::new("adv_b003_shared_race")
        .shared_bytes(1024)
        .s2r(r(0), Special::TidX)
        .shl(r(1), r(0).into(), Operand::Imm(2))
        .sts(r(1), 0, r(0).into())
        .xor(r(2), r(0).into(), Operand::Imm(1))
        .shl(r(2), r(2).into(), Operand::Imm(2))
        .lds(r(3), r(2), 0)
        .bar()
        .mov_imm(r(4), OUT)
        .iadd(r(4), r(4).into(), r(1).into())
        .stg(r(4), 0, r(3).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B010`: a `.wb.boc` hint on a value read four slots later — beyond
/// the window-3 residency guarantee, so the register-file copy the hint
/// suppressed is the one the read needs. Hints are metadata a CPU-style
/// checker does not even parse.
fn b010_unsound_hint() -> Kernel {
    KernelBuilder::new("adv_b010_unsound_hint")
        .mov_imm(r(0), 5)
        .hint(WritebackHint::BocOnly)
        .nop()
        .nop()
        .nop()
        .nop()
        .mov_imm(r(1), OUT)
        .stg(r(1), 0, r(0).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B011`: a `SYNC` with no enclosing `SSY` — popping an empty
/// reconvergence stack. No data-flow fact is wrong, only the divergence
/// structure, which is exactly what CPU-style checks do not track.
fn b011_broken_sync() -> Kernel {
    KernelBuilder::new("adv_b011_broken_sync")
        .s2r(r(0), Special::TidX)
        .sync()
        .mov_imm(r(1), OUT)
        .stg(r(1), 0, r(0).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B015`: every thread stores its own tid to shared word 0 and reads it
/// straight back — the addresses provably coincide and the values
/// provably differ, so the race is definite, not a candidate. A
/// single-threaded replay (store, then load, same address) returns the
/// "right" answer every time.
fn b015_definite_race() -> Kernel {
    KernelBuilder::new("adv_b015_definite_race")
        .shared_bytes(64)
        .s2r(r(0), Special::TidX)
        .mov_imm(r(1), 0)
        .sts(r(1), 0, r(0).into())
        .lds(r(2), r(1), 0)
        .shl(r(3), r(0).into(), Operand::Imm(2))
        .mov_imm(r(4), OUT)
        .iadd(r(4), r(4).into(), r(3).into())
        .stg(r(4), 0, r(2).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// `B016`: a per-thread shared load with no store anywhere in the kernel
/// — every lane observes spawn-state zeros. A CPU-style scan does not
/// model shared memory at all, and every *register* read is preceded by
/// a write, so it accepts.
fn b016_uninit_shared() -> Kernel {
    KernelBuilder::new("adv_b016_uninit_shared")
        .shared_bytes(256)
        .s2r(r(0), Special::TidX)
        .shl(r(1), r(0).into(), Operand::Imm(2))
        .lds(r(2), r(1), 0)
        .mov_imm(r(3), OUT)
        .iadd(r(3), r(3).into(), r(1).into())
        .stg(r(3), 0, r(2).into())
        .exit()
        .build()
        .expect("adversarial kernel builds")
}

/// A predicate write-after-read the Pascal scoreboard once let through
/// (the shape of fuzz case 2152, session seed `0xb0ff00d`). `sel r15,
/// r11, r13, p2` reads `p2` when it dispatches from its collector, and
/// the next instruction, `fsetp.gt p2, r13, r14`, overwrites `p2`; with
/// a load outstanding the `sel` waits in its collector long enough for
/// the `fsetp` to issue and complete first. The scoreboard must hold a
/// predicate read from issue to dispatch, as it holds a register read.
///
/// Not a lint row — the kernel is lint-clean — and not in [`all`]: the
/// adversarial stratum is part of every corpus manifest, and this kernel
/// is judged by the simulator's oracle, not by the static gate.
pub fn predicate_war() -> Kernel {
    let mut b = KernelBuilder::new("adv_predicate_war")
        .s2r(r(0), Special::TidX)
        .s2r(r(1), Special::CtaidX)
        .s2r(r(2), Special::NtidX)
        .imad(r(0), r(1).into(), r(2).into(), r(0).into())
        .shl(r(3), r(0).into(), Operand::Imm(2))
        .iadd(r(3), r(3).into(), Operand::Imm(bow_isa::fuzz::INPUT_BASE))
        .ldg(r(7), r(3), 0);
    for (d, k) in (8u8..16).zip((3u32..).step_by(2)) {
        b = b
            .imad(
                r(d),
                r(0).into(),
                Operand::Imm(k),
                Operand::Imm(0x9e37_79b9 ^ k),
            )
            .xor(r(d), r(d).into(), r(7).into());
    }
    b = b
        .sel(r(15), r(11).into(), r(13).into(), p(2))
        .fsetp(CmpOp::Gt, p(2), r(13).into(), r(14).into())
        .shl(r(1), r(0).into(), Operand::Imm(5))
        .iadd(r(1), r(1).into(), Operand::Imm(bow_isa::fuzz::OUT_BASE));
    for (i, d) in (8u8..16).enumerate() {
        b = b.stg(r(1), 4 * i as i32, r(d).into());
    }
    b.exit().build().expect("adversarial kernel builds")
}

/// The full adversarial stratum, in manifest order.
pub fn all() -> Vec<Adversarial> {
    vec![
        Adversarial {
            name: "adv_b001_uninit_read",
            description: "maybe-uninitialized read after a divergent join",
            expect_static: &["B001"],
            expect_dynamic: &["uninit-reg"],
            build: b001_uninit_read,
        },
        Adversarial {
            name: "adv_b002_divergent_barrier",
            description: "block barrier on one arm of an open SSY region",
            expect_static: &["B002"],
            expect_dynamic: &["divergent-bar"],
            build: b002_divergent_barrier,
        },
        Adversarial {
            name: "adv_b002_predicated_barrier",
            description: "predicated block barrier in straight-line code",
            expect_static: &["B002"],
            expect_dynamic: &["divergent-bar"],
            build: b002_predicated_barrier,
        },
        Adversarial {
            name: "adv_b003_shared_race",
            description: "shared store → partner load with no separating barrier",
            expect_static: &["B003"],
            expect_dynamic: &["race"],
            build: b003_shared_race,
        },
        Adversarial {
            name: "adv_b010_unsound_hint",
            description: ".wb.boc hint on a value read beyond the window",
            expect_static: &["B010"],
            expect_dynamic: &["hint-violation"],
            build: b010_unsound_hint,
        },
        Adversarial {
            name: "adv_b011_broken_sync",
            description: "SYNC with no enclosing SSY",
            expect_static: &["B011"],
            expect_dynamic: &["broken-sync"],
            build: b011_broken_sync,
        },
        Adversarial {
            name: "adv_b015_definite_race",
            description: "shared store/load on one provably-coinciding word",
            expect_static: &["B015"],
            expect_dynamic: &["race"],
            build: b015_definite_race,
        },
        Adversarial {
            name: "adv_b016_uninit_shared",
            description: "shared load with no store anywhere in the kernel",
            expect_static: &["B016"],
            expect_dynamic: &["uninit-shared"],
            build: b016_uninit_shared,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::lint_as_authored;
    use bow_compiler::{lint_kernel, CtrlLatencies, LintOptions, Severity, LINT_DOCS};

    #[test]
    fn a_predicate_war_is_held_until_the_reader_dispatches() {
        use crate::campaign::launch_case;
        use crate::experiment::CompilePlan;
        use crate::fuzz::fuzz_configs_for;
        use bow_sim::{CoreModelKind, DivergenceModel, Gpu, OracleCheck};
        let input: Vec<u32> = (0..128u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995)
            .collect();
        for config in fuzz_configs_for(CoreModelKind::Pascal, DivergenceModel::Stack) {
            let (kernel, _) = CompilePlan::of(&config)
                .apply(predicate_war())
                .expect("the plan accepts the kernel");
            let mut gpu_cfg = config.gpu.clone();
            gpu_cfg.oracle_check = OracleCheck::Lockstep;
            let result = launch_case(&mut Gpu::new(gpu_cfg), &kernel, &input);
            assert!(result.completed, "{}", config.label);
            assert_eq!(result.oracle_verdict(), Ok(()), "{}", config.label);
        }
    }

    /// The CPU-style check the stratum is designed to slip past: linear
    /// scan, a read is fine if *any* earlier instruction wrote the
    /// register, no divergence / barrier-phase / hint model at all.
    fn naive_linear_check(k: &Kernel) -> bool {
        let mut written = [false; 256];
        for inst in &k.insts {
            for s in inst.unique_src_regs() {
                if !written[s.index() as usize] {
                    return false;
                }
            }
            if let Some(d) = inst.dst_reg() {
                written[d.index() as usize] = true;
            }
        }
        true
    }

    #[test]
    fn every_hazard_slips_past_the_naive_cpu_check() {
        for adv in all() {
            let k = (adv.build)();
            assert!(
                naive_linear_check(&k),
                "{}: must look clean to a linear CPU-style scan",
                adv.name
            );
        }
    }

    fn as_authored_opts() -> LintOptions {
        LintOptions {
            window: 3,
            check_hints: true,
            latencies: CtrlLatencies::default(),
        }
    }

    /// The documented severity of a code, from the `--explain` doc table.
    fn doc_severity(code: &str) -> Severity {
        let doc = LINT_DOCS
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{code} missing from LINT_DOCS"));
        match doc.severity {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "info" => Severity::Info,
            other => panic!("unknown documented severity {other:?}"),
        }
    }

    #[test]
    fn the_simt_suite_classifies_every_hazard() {
        for adv in all() {
            let k = (adv.build)();
            let report = lint_kernel(&k, &as_authored_opts());
            for code in adv.expect_static {
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .any(|d| d.code == *code && d.severity == doc_severity(code)),
                    "{}: expected {code} at its documented severity, got:\n{:?}",
                    adv.name,
                    report.diagnostics
                );
            }
        }
    }

    #[test]
    fn the_corpus_gate_rejects_exactly_the_non_race_deny_hazards() {
        // The gate's verdict is derivable from the expectation table: the
        // first expected code that is deny-severity and not a race code.
        // Race rows (B003/B015/B016) stay retained — they are the
        // sanitizer campaign's subject matter.
        for adv in all() {
            let k = (adv.build)();
            let want = adv.expect_static.iter().copied().find(|c| {
                doc_severity(c) != Severity::Info && *c != "B003" && *c != "B015" && *c != "B016"
            });
            assert_eq!(
                lint_as_authored(&k),
                want,
                "{}: gate verdict disagrees with the expectation table",
                adv.name
            );
        }
    }

    #[test]
    fn reannotation_would_hide_the_unsound_hint() {
        // Negative path: the gate for generated kernels (annotate, then
        // lint) must NOT be used for this stratum — re-running the hint
        // pass repairs the planted B010 and the hazard vanishes.
        let k = b010_unsound_hint();
        assert_eq!(lint_as_authored(&k), Some("B010"));
        assert_eq!(crate::corpus::lint_gate(&k), None);
    }

    #[test]
    fn diagnostics_land_on_the_hazard_instruction() {
        let k = b002_predicated_barrier();
        let report = lint_kernel(
            &k,
            &LintOptions {
                window: 3,
                check_hints: true,
                latencies: CtrlLatencies::default(),
            },
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "B002")
            .expect("B002 raised");
        assert_eq!(
            d.pc,
            Some(3),
            "the guarded bar (pc 3) is the flagged instruction"
        );
    }
}

//! Oracle-vs-harness cross-check: every Table III workload must agree
//! with the architectural oracle.
//!
//! With [`OracleCheck::Memory`], each launch runs twice — once through
//! the cycle-level pipeline, once through the timing-free warp-serial
//! oracle — and its `oracle` report names any final global-memory
//! mismatch. The benchmark's own `checked` host reference then closes the
//! triangle: pipeline == oracle == host model, for all fifteen kernels.
//!
//! Memory mode (not full lockstep) is the right strictness here: some
//! workloads race benignly across warps — level-synchronous `bfs` marks
//! a node from several edges with the same level — so intermediate
//! register values legitimately depend on warp interleaving while final
//! memory does not. Race-free kernels get the per-instruction lockstep
//! check as well.

use bow::prelude::*;
use bow::sim::OracleCheck;

fn crosscheck(mode: OracleCheck, kind: CollectorKind, hints: bool, skip: &[&str]) {
    for bench in suite(Scale::Test) {
        if skip.contains(&bench.name()) {
            continue;
        }
        let mut cfg = GpuConfig::scaled(kind);
        cfg.oracle_check = mode;
        let kernel = if hints {
            annotate(&bench.kernel(), kind.window().unwrap_or(3)).0
        } else {
            bench.kernel()
        };
        let mut gpu = Gpu::new(cfg);
        let outcome = bench.run_with(&mut gpu, &kernel);
        assert!(outcome.result.completed, "{}: watchdog fired", bench.name());
        let oracle = outcome.result.oracle.as_ref().expect("oracle_check on");
        assert!(oracle.completed, "{}: oracle watchdog fired", bench.name());
        if let Some(m) = &oracle.mismatch {
            panic!("{}: pipeline disagrees with the oracle: {m}", bench.name());
        }
        assert_eq!(
            oracle.checked > 0,
            mode == OracleCheck::Lockstep,
            "{}: {} instructions lockstep-checked",
            bench.name(),
            oracle.checked
        );
        if let Err(e) = outcome.checked {
            panic!("{}: host reference disagrees: {e}", bench.name());
        }
    }
}

#[test]
fn all_workloads_match_the_oracle_on_baseline() {
    crosscheck(OracleCheck::Memory, CollectorKind::Baseline, false, &[]);
}

#[test]
fn all_workloads_match_the_oracle_under_bow_wr_with_hints() {
    crosscheck(OracleCheck::Memory, CollectorKind::bow_wr(3), true, &[]);
}

/// Race-free workloads additionally pass per-instruction lockstep —
/// everything except `bfs`, whose benign cross-warp race (several edges
/// marking one node with the same level) makes intermediate register
/// values schedule-dependent.
#[test]
fn race_free_workloads_pass_lockstep() {
    crosscheck(
        OracleCheck::Lockstep,
        CollectorKind::bow_wr(3),
        true,
        &["bfs"],
    );
}

/// The same strictness without hints, on the baseline collector.
#[test]
fn race_free_workloads_pass_lockstep_on_baseline() {
    crosscheck(
        OracleCheck::Lockstep,
        CollectorKind::Baseline,
        false,
        &["bfs"],
    );
}

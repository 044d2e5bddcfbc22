//! Safety of the compiler's `BocOnly` classification: a value the compiler
//! tags as transient must never be needed from the register file. We check
//! this dynamically by replaying every benchmark's per-warp instruction
//! stream through an exact window model and asserting that each read of a
//! transient value hits the window. One table test pins every encoding of
//! the window rule — timing model, static verifier, race sanitizer,
//! `ArchWindow` and the Fig. 3 analyzer — to the same eviction distance.

use bow::compiler::{classify_kernel, HintClass};
use bow::prelude::*;
use std::collections::HashMap;

/// Exact per-warp window replay over a *static* kernel path: walk each
/// basic block linearly (the in-block guarantee is what the compiler
/// relies on; across blocks it is conservative by construction).
fn check_kernel_hints(kernel: &Kernel, window: u64) {
    let classes: HashMap<usize, HintClass> =
        classify_kernel(kernel, window as u32).into_iter().collect();

    // Replay every straight-line block: entries (reg -> (last_touch,
    // transient_source_pc)).
    let cfg = bow::compiler::Cfg::build(kernel);
    for block in cfg.blocks() {
        let mut present: HashMap<u8, (u64, Option<usize>)> = HashMap::new();
        for (seq0, pc) in block.range().enumerate() {
            let seq = seq0 as u64;
            let inst = &kernel.insts[pc];
            // Slide.
            present.retain(|_, (touch, _)| seq.saturating_sub(*touch) < window);
            for r in inst.unique_src_regs() {
                match present.get_mut(&r.index()) {
                    Some((touch, _)) => *touch = seq,
                    None => {
                        // Window miss: this read goes to the RF. It must not
                        // be a read of a still-live transient value, i.e. no
                        // transient write to r can be the last reaching def
                        // inside this block.
                        let last_def = block
                            .range()
                            .take(seq0)
                            .rfind(|&p| kernel.insts[p].dst_reg() == Some(r));
                        if let Some(def_pc) = last_def {
                            assert_ne!(
                                classes.get(&def_pc),
                                Some(&HintClass::Transient),
                                "kernel `{}`: transient value r{} from #{def_pc} read from RF at #{pc}",
                                kernel.name,
                                r.index()
                            );
                        }
                        present.insert(r.index(), (seq, None));
                    }
                }
            }
            if let Some(d) = inst.dst_reg() {
                let transient = classes.get(&pc) == Some(&HintClass::Transient);
                present.insert(d.index(), (seq, transient.then_some(pc)));
            }
        }
        // Values still present at block end: transient ones must be dead in
        // every successor (the compiler only tags BocOnly when not
        // live-out), which classify_kernel already guarantees via liveness;
        // assert it independently.
        let lv = bow::compiler::Liveness::compute(kernel, &cfg);
        let bi = cfg.block_of(block.start);
        for (reg, (_, src)) in &present {
            if src.is_some() {
                let r = Reg::r(*reg);
                assert!(
                    !lv.live_out(bi).contains(r),
                    "kernel `{}`: transient r{} live out of block {bi}",
                    kernel.name,
                    reg
                );
            }
        }
    }
}

#[test]
fn transient_hints_are_safe_for_all_benchmarks_and_windows() {
    for bench in suite(Scale::Test) {
        let kernel = bench.kernel();
        for w in [2u64, 3, 4, 7] {
            check_kernel_hints(&kernel, w);
        }
    }
}

#[test]
fn annotated_kernels_run_correctly_at_every_window() {
    for bench in suite(Scale::Test) {
        for w in [2u32, 4] {
            let cfg = Config {
                label: format!("bow-wr iw{w}"),
                gpu: GpuConfig::scaled(CollectorKind::bow_wr(w)),
                hints: true,
                reorder: false,
                verify: true,
            };
            let rec = bow::experiment::run(bench.as_ref(), cfg);
            if let Err(e) = &rec.outcome.checked {
                panic!("{} iw{w}: {e}", bench.name());
            }
        }
    }
}

#[test]
fn all_workload_kernels_have_sound_divergence_structure() {
    for bench in suite(Scale::Test) {
        let rep = bow::compiler::check_structure(&bench.kernel());
        assert!(
            rep.is_ok(),
            "{}: {:?}",
            bench.name(),
            rep.errors().collect::<Vec<_>>()
        );
    }
}

#[test]
fn forced_evictions_are_rare_with_half_size_buffers() {
    // §IV-C: only ~3% of cycles need more than half the entries, so forced
    // evictions must stay rare relative to writes.
    let mut forced = 0u64;
    let mut writes = 0u64;
    for bench in suite(Scale::Test) {
        let rec = bow::experiment::run(
            bench.as_ref(),
            ConfigBuilder::bow_wr(3).half_size(true).build(),
        );
        rec.assert_checked();
        forced += rec.outcome.result.stats.forced_evictions;
        writes += rec.outcome.result.stats.writes_total;
    }
    assert!(
        (forced as f64) < 0.10 * writes as f64,
        "forced evictions {forced} vs writes {writes}"
    );
}

#[test]
fn every_window_encoding_evicts_at_the_same_distance() {
    // BOW's one rule: a buffered value is resident iff `seq − last_touch <
    // window`. A `.wb.boc` def, `gap` nops, one read: at distance >= window
    // the value is gone, and every encoding must say so at exactly the
    // same distance.
    use bow::sim::{collector::window::WarpWindow, regfile::RegFile};
    use bow::sim::{ArchWindow, BypassAnalyzer, NullProbe};
    let (r, boc) = (Reg::r, WritebackHint::BocOnly);
    for window in [1u32, 3, 7] {
        for gap in 0..=window + 1 {
            let distance = u64::from(gap) + 1;
            let b = KernelBuilder::new("boundary").mov_imm(r(0), 7).hint(boc);
            let b = (0..gap).fold(b, |b, _| b.nop());
            let k = b.iadd(r(1), r(0).into(), Operand::Imm(0)).exit().build();
            let k = k.unwrap();

            // The timing model's window.
            let (mut rf, mut st, p) = (RegFile::new(32), SimStats::default(), &mut NullProbe);
            let mut ww = WarpWindow::new(window.into(), 12);
            ww.upsert_dirty(r(0), 0, boc, 0, &mut rf, &mut st, p);
            ww.slide(distance, 0, &mut rf, &mut st, p);
            let model = ww.live_entries() == 0;

            // The static verifier.
            let verifier = !bow::compiler::verify_hints(&k, window as usize).is_sound();

            // The race sanitizer on a live bow-wr launch.
            let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(window));
            cfg.sanitize = true;
            let res = Gpu::new(cfg).launch(&k, KernelDims::linear(1, 32), &[]);
            let report = res.sanitizer.expect("sanitize attaches the probe");
            let sanitizer = report.findings.iter().any(|f| f.kind() == "hint-violation");

            // The architectural window.
            let mut aw = ArchWindow::new(window);
            aw.write(0, 0, u32::MAX, boc, 0);
            let arch = aw.read(0, distance, u32::MAX).stale.is_some();

            // The Fig. 3 analyzer.
            let mut an = BypassAnalyzer::new(&[window]);
            k.insts.iter().for_each(|inst| an.record(0, inst));
            let analyzer = an.reports()[0].bypassed_reads == 0;

            assert_eq!(
                [model, verifier, sanitizer, arch, analyzer],
                [distance >= u64::from(window); 5],
                "window {window}, read at distance {distance}: \
                 [model, verifier, sanitizer, ArchWindow, analyzer]"
            );
        }
    }
}

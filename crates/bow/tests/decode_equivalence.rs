//! The per-launch decode table says what the instruction says.
//!
//! `bow_sim::decode::InstMeta` is what the simulator's hot path reads in
//! place of the `Instruction` accessors. This test holds the two together
//! over every instruction the repository actually launches: the 15
//! workloads as each core's compile plan prepares them (reordered, hinted,
//! barrier-lowered, control bits emitted), and the first 200 kernels of
//! the default corpus (guards, predicate sources, `ldc`, RZ operands,
//! duplicate sources, adversarial hazards).

use bow::corpus;
use bow::experiment::{CompilePlan, ConfigBuilder};
use bow::isa::{Kernel, Opcode, Pred, Reg};
use bow::sim::config::{CoreModelKind, DivergenceModel};
use bow::sim::decode::{set_get, DecodedKernel};
use bow::workloads::{suite, Scale};

fn assert_decodes(kernel: &Kernel) {
    let decoded = DecodedKernel::new(kernel);
    assert_eq!(decoded.meta.len(), kernel.insts.len(), "{}", kernel.name);
    for (pc, (inst, m)) in kernel.insts.iter().zip(&decoded.meta).enumerate() {
        let at = format!("{} pc {pc}: {inst}", kernel.name);
        assert_eq!(m.src_regs, inst.src_regs(), "{at}");
        // Order included: it is the window touch order.
        assert_eq!(m.unique_src_regs, inst.unique_src_regs(), "{at}");
        assert_eq!(m.dst_reg, inst.dst_reg(), "{at}");
        assert_eq!(m.dst_pred, inst.dst.pred(), "{at}");
        for r in (0..=Reg::MAX_INDEX).map(Reg::r) {
            assert_eq!(
                set_get(&m.src_mask, r),
                inst.src_regs().contains(&r),
                "{at}: src_mask {r}"
            );
            assert_eq!(
                set_get(&m.dst_mask, r),
                inst.dst_reg() == Some(r),
                "{at}: dst_mask {r}"
            );
        }
        assert!(!set_get(&m.src_mask, Reg::RZ), "{at}: RZ is never read");
        for p in (0..=Pred::MAX_INDEX).map(Pred::p) {
            assert_eq!(
                m.src_preds >> p.index() & 1 == 1,
                inst.src_preds().contains(&p),
                "{at}: src_preds {p}"
            );
            assert_eq!(
                m.dst_pred_mask >> p.index() & 1 == 1,
                inst.dst.pred() == Some(p),
                "{at}: dst_pred_mask {p}"
            );
        }
        assert_eq!(m.src_preds >> 7, 0, "{at}: PT is never awaited");
        assert_eq!(m.fu, inst.op.fu_class(), "{at}");
        assert_eq!(m.is_control, inst.op.is_control(), "{at}");
        assert_eq!(m.is_memory, inst.op.is_memory(), "{at}");
        assert_eq!(
            m.needs_drain,
            matches!(inst.op, Opcode::Exit | Opcode::Bar),
            "{at}"
        );
    }
}

#[test]
fn every_prepared_workload_instruction_decodes_to_its_accessors() {
    let mut seen = 0;
    for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
        for divergence in [DivergenceModel::Stack, DivergenceModel::Barrier] {
            let config = ConfigBuilder::bow_wr(3)
                .reorder(true)
                .core_model(core)
                .divergence(divergence)
                .build();
            let plan = CompilePlan::of(&config);
            for bench in suite(Scale::Test) {
                let (kernel, _) = plan.apply(bench.kernel()).expect("workloads compile");
                assert_decodes(&kernel);
                seen += kernel.insts.len();
            }
        }
    }
    assert!(seen > 1000, "only {seen} instructions checked");
}

#[test]
fn the_first_200_corpus_kernels_decode_to_their_accessors() {
    let manifest = corpus::generate(corpus::DEFAULT_SEED, 200);
    let mut kernels = 0;
    for entry in &manifest.entries {
        let kernel = corpus::kernel_for(entry).expect("entry of this corpus version");
        assert_decodes(&kernel);
        kernels += 1;
    }
    assert!(kernels >= 200, "only {kernels} corpus kernels checked");
}

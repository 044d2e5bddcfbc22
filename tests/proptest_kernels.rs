//! Property-based testing: random kernels must produce identical final
//! memory under every collector model, and the compiler pass must never
//! change results.
//!
//! Kernels are drawn from the structured fuzzer generator
//! ([`bow::isa::fuzz::FuzzKernel`]) — the same distribution `bow fuzz`
//! explores, covering global/shared memory, predication, nested diamonds,
//! bounded loops and barriers. Generation is a seeded in-tree xorshift
//! stream ([`bow_util::XorShift`]; the workspace builds offline and
//! carries no proptest), so every run checks the same 100 cases per
//! property and a failure reproduces from the printed case number alone.

use bow::isa::fuzz::{FuzzKernel, INPUT_BASE, PARAMS};
use bow::mem::GlobalMemory;
use bow::prelude::*;
use bow_util::XorShift;

const CASES: u64 = 100;

/// Statement budget per generated program — small enough that 100 cases
/// per property stay inside the suite's wall-time budget, large enough
/// for loops, diamonds and exchanges to appear together.
const SIZE: usize = 8;

/// Runs `check` on [`CASES`] seeded random kernels, reporting the failing
/// case's seed and statement tree on panic.
fn for_each_case(seed: u64, check: impl Fn(&FuzzKernel, &Kernel, &[u32]) -> Result<(), String>) {
    for case in 0..CASES {
        let mut rng = XorShift::new(seed ^ (case.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let program = FuzzKernel::generate_sized(&mut rng, SIZE);
        let input = FuzzKernel::gen_input(&mut rng);
        let kernel = program.build("proptest");
        if let Err(msg) = check(&program, &kernel, &input) {
            panic!("case {case} (seed {seed:#x}): {msg}\nprogram: {program:?}");
        }
    }
}

fn final_memory(kernel: &Kernel, input: &[u32], kind: CollectorKind) -> GlobalMemory {
    let mut gpu = Gpu::new(GpuConfig::scaled(kind));
    gpu.global_mut()
        .write_slice_u32(u64::from(INPUT_BASE), input);
    let res = gpu.launch(kernel, FuzzKernel::dims(), &PARAMS);
    assert!(res.completed, "watchdog fired");
    gpu.global().clone()
}

#[test]
fn all_collectors_agree_on_final_memory() {
    for_each_case(b0w_seed(1), |_, kernel, input| {
        let baseline = final_memory(kernel, input, CollectorKind::Baseline);
        for kind in [
            CollectorKind::bow(2),
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::BowWr {
                window: 3,
                half_size: true,
            },
            CollectorKind::rfc6(),
        ] {
            if final_memory(kernel, input, kind) != baseline {
                return Err(format!("diverged under {kind:?}"));
            }
        }
        Ok(())
    });
}

#[test]
fn compiler_annotation_never_changes_results() {
    for_each_case(b0w_seed(2), |_, kernel, input| {
        let plain = final_memory(kernel, input, CollectorKind::bow_wr(3));
        let (annotated, _) = annotate(kernel, 3);
        let hinted = final_memory(&annotated, input, CollectorKind::bow_wr(3));
        if plain != hinted {
            return Err("annotation changed final memory".to_string());
        }
        Ok(())
    });
}

#[test]
fn bow_never_reads_more_than_baseline() {
    for_each_case(b0w_seed(3), |_, kernel, input| {
        let run = |kind: CollectorKind| {
            let mut gpu = Gpu::new(GpuConfig::scaled(kind));
            gpu.global_mut()
                .write_slice_u32(u64::from(INPUT_BASE), input);
            gpu.launch(kernel, FuzzKernel::dims(), &PARAMS).stats
        };
        let base = run(CollectorKind::Baseline);
        let bow = run(CollectorKind::bow(3));
        if bow.rf.reads > base.rf.reads {
            return Err(format!(
                "bow read more banks than baseline: {} > {}",
                bow.rf.reads, base.rf.reads
            ));
        }
        if bow.rf.reads + bow.bypassed_reads != base.rf.reads {
            return Err(format!(
                "bypass accounting broken: {} served + {} bypassed != baseline {}",
                bow.rf.reads, bow.bypassed_reads, base.rf.reads
            ));
        }
        Ok(())
    });
}

/// The host model agrees with the device for every generated program —
/// the same exec-semantics check `bow fuzz` applies, over a fresh stream.
#[test]
fn host_model_matches_device_memory() {
    for_each_case(b0w_seed(4), |program, kernel, input| {
        let mut gpu = Gpu::new(GpuConfig::scaled(CollectorKind::bow_wr(3)));
        gpu.global_mut()
            .write_slice_u32(u64::from(INPUT_BASE), input);
        let res = gpu.launch(kernel, FuzzKernel::dims(), &PARAMS);
        assert!(res.completed, "watchdog fired");
        for (addr, want) in program.expected(input) {
            let got = gpu.global().read_u32(addr);
            if got != want {
                return Err(format!("mem[{addr:#x}] = {got:#x}, expected {want:#x}"));
            }
        }
        Ok(())
    });
}

/// Distinct fixed seeds per property, so adding a property never shifts
/// the cases another property sees.
fn b0w_seed(property: u64) -> u64 {
    0xb01_d0e5_0000_0000 | property
}

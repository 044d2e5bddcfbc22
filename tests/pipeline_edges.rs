//! Edge cases of the pipeline model: partial warps, 2-D launches, LRR
//! scheduling, the full Table II SM count and oversized grids queueing on
//! block slots — each on both cores, which share the one pipeline and
//! differ only in its interlock and partition count.

use bow::prelude::*;

const CORES: [CoreModelKind; 2] = [CoreModelKind::Pascal, CoreModelKind::Modern];

/// The scaled (2-SM) machine with `kind` collectors on `core`.
fn scaled(kind: CollectorKind, core: CoreModelKind) -> GpuConfig {
    GpuConfig {
        core_model: core,
        ..GpuConfig::scaled(kind)
    }
}

/// d[i] = 3*i for a launch whose block is not a multiple of the warp size.
fn iota3() -> Kernel {
    let r = Reg::r;
    KernelBuilder::new("iota3")
        .s2r(r(0), Special::TidX)
        .s2r(r(1), Special::CtaidX)
        .s2r(r(2), Special::NtidX)
        .imad(r(0), r(1).into(), r(2).into(), r(0).into())
        .imul(r(3), r(0).into(), Operand::Imm(3))
        .shl(r(4), r(0).into(), Operand::Imm(2))
        .ldc(r(5), 0)
        .iadd(r(5), r(5).into(), r(4).into())
        .stg(r(5), 0, r(3).into())
        .exit()
        .build()
        .expect("builds")
}

#[test]
fn partial_warps_run_correctly() {
    // 48-thread blocks: warp 1 has only 16 valid lanes.
    for core in CORES {
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            let mut gpu = Gpu::new(scaled(kind, core));
            let dims = KernelDims {
                grid: (3, 1),
                block: (48, 1),
            };
            let res = gpu.launch(&iota3(), dims, &[0x1000]);
            assert!(res.completed);
            for i in 0..(3 * 48) as u64 {
                assert_eq!(
                    gpu.global().read_u32(0x1000 + 4 * i),
                    3 * i as u32,
                    "thread {i} under {kind:?} on {core:?}"
                );
            }
        }
    }
}

#[test]
fn two_dimensional_blocks_expose_tid_y() {
    // tid.y = flat / ntid.x; store tid.y into d[flat thread id].
    let r = Reg::r;
    let k = KernelBuilder::new("tidy")
        .s2r(r(0), Special::TidX)
        .s2r(r(1), Special::TidY)
        .s2r(r(2), Special::NtidX)
        .imad(r(0), r(1).into(), r(2).into(), r(0).into()) // flat in block
        .shl(r(3), r(0).into(), Operand::Imm(2))
        .ldc(r(4), 0)
        .iadd(r(4), r(4).into(), r(3).into())
        .stg(r(4), 0, r(1).into())
        .exit()
        .build()
        .expect("builds");
    for core in CORES {
        let mut gpu = Gpu::new(scaled(CollectorKind::bow_wr(3), core));
        let dims = KernelDims {
            grid: (1, 1),
            block: (16, 8),
        };
        gpu.launch(&k, dims, &[0x2000]);
        for y in 0..8u64 {
            for x in 0..16u64 {
                let flat = y * 16 + x;
                assert_eq!(
                    gpu.global().read_u32(0x2000 + 4 * flat),
                    y as u32,
                    "({x}, {y}) on {core:?}"
                );
            }
        }
    }
}

#[test]
fn lrr_scheduler_completes_the_suite_correctly() {
    for core in CORES {
        for bench in suite(Scale::Test) {
            let mut cfg = ConfigBuilder::bow_wr(3).core_model(core).build();
            cfg.gpu.sched = bow::sim::SchedPolicy::Lrr;
            cfg.label = format!("bow-wr lrr {}", core.name());
            let rec = bow::experiment::run(bench.as_ref(), cfg);
            if let Err(e) = &rec.outcome.checked {
                panic!("{} under LRR on {core:?}: {e}", bench.name());
            }
        }
    }
}

#[test]
fn full_titan_x_sm_count_matches_scaled_results() {
    let k = iota3();
    let run = |core: CoreModelKind, num_sms: u32| -> u64 {
        let mut cfg = scaled(CollectorKind::bow_wr(3), core);
        cfg.num_sms = num_sms;
        let mut gpu = Gpu::new(cfg);
        let res = gpu.launch(&k, KernelDims::linear(8, 128), &[0x3000]);
        assert!(res.completed);
        for i in 0..(8 * 128) as u64 {
            assert_eq!(gpu.global().read_u32(0x3000 + 4 * i), 3 * i as u32);
        }
        res.stats.warp_instructions
    };
    // Same total work regardless of SM count; more SMs only spread it.
    for core in CORES {
        assert_eq!(run(core, 2), run(core, 56), "{core:?}");
    }
}

#[test]
fn oversized_grids_queue_on_block_slots() {
    // 64 blocks of 8 warps each = 512 warps >> 2 SMs x 32 warp slots:
    // the block scheduler must drip-feed without deadlock.
    for core in CORES {
        let mut gpu = Gpu::new(scaled(CollectorKind::bow_wr(3), core));
        let res = gpu.launch(&iota3(), KernelDims::linear(64, 256), &[0x8_0000]);
        assert!(res.completed, "{core:?}");
        let n = 64u64 * 256;
        for i in [0, n / 2, n - 1] {
            assert_eq!(
                gpu.global().read_u32(0x8_0000 + 4 * i),
                (3 * i) as u32,
                "thread {i} on {core:?}"
            );
        }
    }
}

#[test]
fn uneven_sub_core_partitions_fall_back_and_still_compute() {
    // The modern core splits collectors, crossbar lanes and RF banks over
    // its sub-cores. Sizes that do not divide evenly round down (never
    // below one collector / one lane per sub-core) or, for the banks,
    // fall back to the flat SM-wide mapping; results must not care.
    //
    // (num_ocus, xbar_width, rf_banks): one size at a time off the
    // evenly dividing defaults (32, 8, 32).
    for sizes in [(6, 8, 32), (3, 8, 32), (32, 3, 32), (32, 8, 30)] {
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            let mut cfg = scaled(kind, CoreModelKind::Modern);
            (cfg.num_ocus, cfg.xbar_width, cfg.rf_banks) = sizes;
            let n = cfg.schedulers_per_sm;
            assert!(
                [cfg.num_ocus, cfg.xbar_width, cfg.rf_banks]
                    .iter()
                    .any(|size| size % n != 0),
                "{sizes:?} must not divide over {n} sub-cores"
            );
            let mut gpu = Gpu::new(cfg);
            let res = gpu.launch(&iota3(), KernelDims::linear(4, 96), &[0x9000]);
            assert!(res.completed, "{sizes:?} under {kind:?}");
            for i in 0..(4 * 96) as u64 {
                assert_eq!(
                    gpu.global().read_u32(0x9000 + 4 * i),
                    3 * i as u32,
                    "thread {i}: {sizes:?} under {kind:?}"
                );
            }
        }
    }
}

#[test]
fn pipeline_trace_orders_stages_per_instruction() {
    use bow::sim::Stage;
    use std::collections::HashMap;
    type StageCycles = (Option<u64>, Option<u64>, Option<u64>);
    for core in CORES {
        let mut cfg = scaled(CollectorKind::bow_wr(3), core);
        cfg.trace_pipeline = true;
        let mut gpu = Gpu::new(cfg);
        gpu.launch(&iota3(), KernelDims::linear(1, 32), &[0x5000]);
        let trace = gpu.take_trace();
        assert!(!trace.is_empty());
        // Every data instruction shows Issue -> Dispatch -> Writeback in
        // non-decreasing cycle order.
        let mut seen: HashMap<(usize, u64), StageCycles> = HashMap::new();
        for e in trace.events() {
            let entry = seen.entry((e.warp, e.seq)).or_default();
            match e.stage {
                Stage::Issue => entry.0 = Some(e.cycle),
                Stage::Dispatch => entry.1 = Some(e.cycle),
                Stage::Writeback => entry.2 = Some(e.cycle),
                Stage::Control => {}
            }
        }
        let mut complete = 0;
        for ((w, s), (i, d, wb)) in &seen {
            if let (Some(i), Some(d), Some(wb)) = (i, d, wb) {
                assert!(
                    i <= d && d < wb,
                    "warp {w} seq {s} on {core:?}: {i} {d} {wb}"
                );
                complete += 1;
            }
        }
        assert!(complete > 5, "expected several fully traced instructions");
    }
}

#[test]
fn guarded_stores_only_touch_active_lanes() {
    // Odd threads store, even threads do not; untouched slots stay zero.
    let r = Reg::r;
    let k = KernelBuilder::new("odds")
        .s2r(r(0), Special::TidX)
        .and(r(1), r(0).into(), Operand::Imm(1))
        .isetp(CmpOp::Ne, Pred::p(0), r(1).into(), Operand::Imm(0))
        .shl(r(2), r(0).into(), Operand::Imm(2))
        .ldc(r(3), 0)
        .iadd(r(3), r(3).into(), r(2).into())
        .guard(Pred::p(0), false)
        .stg(r(3), 0, r(0).into())
        .exit()
        .build()
        .expect("builds");
    for core in CORES {
        let mut gpu = Gpu::new(scaled(CollectorKind::bow_wr(3), core));
        gpu.launch(&k, KernelDims::linear(1, 32), &[0x4000]);
        for i in 0..32u64 {
            let want = if i % 2 == 1 { i as u32 } else { 0 };
            assert_eq!(
                gpu.global().read_u32(0x4000 + 4 * i),
                want,
                "lane {i} on {core:?}"
            );
        }
    }
}

//! The device level: block dispatch across SMs and kernel launches.
//!
//! A launch has one body, [`Gpu::launch_with_probe`], which fans events
//! out to the caller's probe and every subscriber the config enables: a
//! [`PipeTrace`] (`trace_pipeline`), the Fig. 3 [`BypassAnalyzer`]
//! (`analyze_windows`), the race [`Sanitizer`] (`sanitize`) and the
//! oracle's [`LockstepChecker`] (`oracle_check`). With none enabled and a
//! [`NullProbe`], the launch runs a separate monomorphization of the SM
//! pipeline with every trace point compiled out; with the checker the only
//! subscriber and a [`NullProbe`], the checker itself is the pipeline's
//! probe, and the snapshots only other subscribers read are compiled out
//! ([`Probe::TRACES`]).

use crate::config::{GpuConfig, OracleCheck};
use crate::decode::DecodedKernel;
use crate::oracle::{run_oracle_once, LockstepChecker, OracleReport};
use crate::pipetrace::PipeTrace;
use crate::probe::{NullProbe, PipeEvent, Probe};
use crate::sanitize::{Sanitizer, SanitizerReport};
use crate::sm::Sm;
use crate::stats::SimStats;
use crate::trace::{BypassAnalyzer, WindowReport};
use bow_isa::{Kernel, KernelDims};
use bow_mem::GlobalMemory;

/// The outcome of one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchResult {
    /// Device cycles from launch to the last SM going idle.
    pub cycles: u64,
    /// Aggregated statistics across all SMs.
    pub stats: SimStats,
    /// Per-SM statistics, indexed by SM id (memory counters folded in).
    pub per_sm: Vec<SimStats>,
    /// Fig. 3 window reports (empty unless the config enables the analyzer).
    pub windows: Vec<WindowReport>,
    /// False if the `max_cycles` watchdog fired before completion.
    pub completed: bool,
    /// Race-sanitizer report (`Some` only when the config set
    /// [`GpuConfig::sanitize`]).
    pub sanitizer: Option<SanitizerReport>,
    /// What the oracle check found (`Some` only when the config set
    /// [`GpuConfig::oracle_check`]). A disagreement is reported here,
    /// never by panicking.
    pub oracle: Option<OracleReport>,
}

impl LaunchResult {
    /// Device-level instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// The oracle report's [`verdict`](OracleReport::verdict); `Ok` when
    /// no check ran.
    pub fn oracle_verdict(&self) -> Result<(), String> {
        self.oracle.as_ref().map_or(Ok(()), OracleReport::verdict)
    }
}

/// The instrumented launch probe: fans events out to every subscriber the
/// config enables and to the caller's probe.
struct LaunchProbe<'a, 'k, P> {
    trace: Option<&'a mut PipeTrace>,
    analyzer: &'a mut BypassAnalyzer,
    sanitizer: Option<&'a mut Sanitizer<'k>>,
    checker: Option<&'a mut LockstepChecker<'k>>,
    caller: &'a mut P,
}

impl<P: Probe> Probe for LaunchProbe<'_, '_, P> {
    #[inline]
    fn on_event(&mut self, ev: &PipeEvent<'_>) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.on_event(ev);
        }
        self.analyzer.on_event(ev);
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.on_event(ev);
        }
        if let Some(c) = self.checker.as_deref_mut() {
            c.on_event(ev);
        }
        if P::ACTIVE {
            self.caller.on_event(ev);
        }
    }
}

/// A whole simulated GPU: SMs plus device (global) memory.
///
/// Host code allocates buffers directly in [`Gpu::global_mut`], launches
/// kernels with [`Gpu::launch`] and reads results back from
/// [`Gpu::global`] — the usual device-memory programming model.
pub struct Gpu {
    config: GpuConfig,
    global: GlobalMemory,
    sms: Vec<Sm>,
    /// Device-wide pipeline trace (fed only when `trace_pipeline` is set).
    trace: PipeTrace,
}

impl Gpu {
    /// Creates a GPU per `config`.
    pub fn new(config: GpuConfig) -> Gpu {
        let sms = (0..config.num_sms as usize)
            .map(|i| Sm::new(i, &config))
            .collect();
        Gpu {
            config,
            global: GlobalMemory::new(),
            sms,
            trace: PipeTrace::new(),
        }
    }

    /// The configuration this GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Device memory (read side).
    pub fn global(&self) -> &GlobalMemory {
        &self.global
    }

    /// Device memory (host setup side).
    pub fn global_mut(&mut self) -> &mut GlobalMemory {
        &mut self.global
    }

    /// Drains the device-wide pipeline trace, ordered by
    /// `(cycle, sm, warp, seq)` (empty unless the config set
    /// `trace_pipeline`). Call after [`launch`](Self::launch).
    pub fn take_trace(&mut self) -> PipeTrace {
        let mut t = std::mem::take(&mut self.trace);
        t.sort();
        t
    }

    /// Launches `kernel` over `dims` with the given parameter words and
    /// runs the device to completion:
    /// [`launch_with_probe`](Self::launch_with_probe) with no probe of the
    /// caller's own.
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails validation or a block needs more warps
    /// than an SM can ever host. An oracle mismatch is no panic but
    /// [`LaunchResult::oracle`].
    pub fn launch(&mut self, kernel: &Kernel, dims: KernelDims, params: &[u32]) -> LaunchResult {
        self.launch_with_probe(kernel, dims, params, &mut NullProbe)
    }

    /// Launches `kernel` with `probe` subscribed to the whole device's
    /// event stream, beside the always-on statistics and every subscriber
    /// the config enables. Under an [`OracleCheck`] the oracle first runs
    /// over a snapshot of device memory (inside
    /// [`oracle::share_runs`](crate::oracle::share_runs), the run of an
    /// identical previous launch on this thread is reused), and
    /// [`LaunchResult::oracle`] reports the first disagreement.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`launch`](Self::launch).
    pub fn launch_with_probe<P: Probe>(
        &mut self,
        kernel: &Kernel,
        dims: KernelDims,
        params: &[u32],
        probe: &mut P,
    ) -> LaunchResult {
        let (config, global, sms) = (&self.config, &mut self.global, &mut self.sms);
        kernel
            .validate()
            .expect("kernel must validate before launch");
        let warps_per_block = dims.warps_per_block();
        assert!(
            warps_per_block <= config.max_warps_per_sm,
            "block needs {warps_per_block} warps, SM hosts {}",
            config.max_warps_per_sm
        );

        let lockstep = config.oracle_check == OracleCheck::Lockstep;
        let oracle = (config.oracle_check != OracleCheck::Off)
            .then(|| run_oracle_once(kernel, dims, params, global, lockstep));
        let mut checker = oracle
            .as_ref()
            .filter(|_| lockstep)
            .map(|run| LockstepChecker::new(&run.log));
        let mut analyzer = BypassAnalyzer::new(&config.analyze_windows);
        let mut sanitizer = config.sanitize.then(|| {
            Sanitizer::new(
                kernel,
                u64::from(warps_per_block),
                config.collector.window(),
            )
        });
        for sm in sms.iter_mut() {
            sm.reset_for_launch(params);
        }

        let max_cycles = config.max_cycles;
        let others = config.trace_pipeline || analyzer.is_enabled() || sanitizer.is_some();
        let (cycles, completed) =
            if let (false, false, Some(checker)) = (P::ACTIVE, others, checker.as_mut()) {
                run_device(sms, global, kernel, dims, max_cycles, checker)
            } else if others || checker.is_some() {
                let fanout = &mut LaunchProbe {
                    trace: config.trace_pipeline.then_some(&mut self.trace),
                    analyzer: &mut analyzer,
                    sanitizer: sanitizer.as_mut(),
                    checker: checker.as_mut(),
                    caller: probe,
                };
                run_device(sms, global, kernel, dims, max_cycles, fanout)
            } else {
                run_device(sms, global, kernel, dims, max_cycles, probe)
            };

        let per_sm: Vec<SimStats> = sms.iter().map(Sm::stats).collect();
        let mut stats = SimStats::default();
        for s in &per_sm {
            stats.merge(s);
        }
        stats.cycles = cycles;
        LaunchResult {
            cycles,
            stats,
            per_sm,
            windows: analyzer.reports().to_vec(),
            completed,
            sanitizer: sanitizer.map(Sanitizer::finish),
            oracle: oracle
                .as_ref()
                .map(|run| OracleReport::judge(run, checker, completed, global)),
        }
    }
}

/// The device loop, one for every device size. Each device cycle:
/// dispatch queued blocks (row-major launch order) first-fit over the SMs
/// in index order, stop if the grid has drained and every SM is idle,
/// stop if the `max_cycles` watchdog is due, then tick the busy SMs in
/// index order. Returns `(device cycles, completed)`.
///
/// When every busy SM is quiet for the next cycles (`Sm::quiet_cycles`),
/// nothing can happen on the device until the first of them wakes — no
/// SM frees room for a block either — so the clock jumps there at once,
/// never past the watchdog's cycle. Every SM settles its skipped cycles
/// when the loop ends, so its statistics are exact on a stopped launch
/// too.
///
/// A global store writes `global` when it executes, so an SM sees another
/// SM's store at its first load after that store in `(cycle, SM index)`
/// order: in the same cycle if the storer's index is lower, in the next
/// one otherwise.
///
/// `active` holds the indices of the busy SMs in ascending order, so a
/// launch that keeps 4 of 56 SMs busy pays for 4 per cycle. Generic over
/// the probe so the uninstrumented launch monomorphizes to a loop with no
/// trace plumbing at all.
fn run_device<P: Probe>(
    sms: &mut [Sm],
    global: &mut GlobalMemory,
    kernel: &Kernel,
    dims: KernelDims,
    max_cycles: u64,
    probe: &mut P,
) -> (u64, bool) {
    // Decode once per launch: every SM shares the table.
    let kernel = &DecodedKernel::new(kernel);
    let total = u64::from(dims.total_blocks());
    let warps_per_block = dims.warps_per_block();
    let mut next_block = 0u64;
    let mut cycles = 0u64;
    let watchdog = if max_cycles == 0 {
        u64::MAX
    } else {
        max_cycles
    };
    let mut active: Vec<usize> = Vec::with_capacity(sms.len());

    let completed = loop {
        while next_block < total {
            let Some(i) = sms.iter().position(|sm| sm.can_host_block(warps_per_block)) else {
                break;
            };
            let bx = (next_block % u64::from(dims.grid.0)) as u32;
            let by = (next_block / u64::from(dims.grid.0)) as u32;
            sms[i].assign_block(kernel, (bx, by), dims, next_block);
            if let Err(at) = active.binary_search(&i) {
                active.insert(at, i);
            }
            next_block += 1;
        }

        if next_block >= total && active.is_empty() {
            break true;
        }
        if cycles >= watchdog {
            break false;
        }
        let quiet = active.iter().map(|&i| sms[i].quiet_cycles()).min();
        let jump = quiet.unwrap_or(0).min(watchdog - cycles - 1);
        if jump > 0 {
            for &i in &active {
                sms[i].skip(jump);
            }
            cycles += jump;
        }
        cycles += 1;
        for &i in &active {
            sms[i].tick(kernel, global, probe);
        }
        active.retain(|&i| sms[i].busy());
    };
    for sm in sms.iter_mut() {
        sm.settle(probe);
    }
    (cycles, completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::config::CoreModelKind;
    use crate::oracle::OracleMismatch;
    use bow_isa::{CmpOp, KernelBuilder, Opcode, Operand, Pred, Reg, Special};

    fn saxpy_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("saxpy")
            .s2r(r(0), Special::TidX)
            .s2r(r(1), Special::CtaidX)
            .s2r(r(2), Special::NtidX)
            .imad(r(0), r(1).into(), r(2).into(), r(0).into())
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .ldc(r(4), 0)
            .iadd(r(4), r(4).into(), r(3).into())
            .ldg(r(5), r(4), 0)
            .ldc(r(6), 4)
            .iadd(r(6), r(6).into(), r(3).into())
            .ldg(r(7), r(6), 0)
            .ldc(r(8), 8)
            .ffma(r(5), r(5).into(), r(8).into(), r(7).into())
            .stg(r(6), 0, r(5).into())
            .exit()
            .build()
            .unwrap()
    }

    fn run_saxpy(kind: CollectorKind, n: u32) -> (Vec<f32>, LaunchResult) {
        run_saxpy_on(GpuConfig::scaled(kind), n)
    }

    fn run_saxpy_on(config: GpuConfig, n: u32) -> (Vec<f32>, LaunchResult) {
        let mut gpu = Gpu::new(config);
        let (xa, ya) = (0x1_0000u64, 0x2_0000u64);
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        gpu.global_mut().write_slice_f32(xa, &x);
        gpu.global_mut().write_slice_f32(ya, &y);
        let dims = KernelDims::linear(n / 64, 64);
        let res = gpu.launch(
            &saxpy_kernel(),
            dims,
            &[xa as u32, ya as u32, 3.0f32.to_bits()],
        );
        (gpu.global().read_vec_f32(ya, n as usize), res)
    }

    #[test]
    fn saxpy_matches_reference_on_all_collectors() {
        let n = 256;
        let expect: Vec<f32> = (0..n).map(|i| 3.0 * i as f32 + (2 * i) as f32).collect();
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(2),
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::BowWr {
                window: 3,
                half_size: true,
            },
            CollectorKind::rfc6(),
        ] {
            let (got, res) = run_saxpy(kind, n as u32);
            assert!(res.completed);
            assert_eq!(got, expect, "wrong result under {kind:?}");
        }
    }

    #[test]
    fn an_sm_with_more_than_64_warp_slots_runs_to_the_reference_result() {
        // 48 resident two-warp blocks per SM: warp slots 64..96 are live,
        // which per-warp state sized for 64 slots would index past.
        let n = 8192;
        let expect: Vec<f32> = (0..n).map(|i| 3.0 * i as f32 + (2 * i) as f32).collect();
        for kind in [CollectorKind::bow_wr(3), CollectorKind::Baseline] {
            let mut config = GpuConfig::scaled(kind);
            config.max_warps_per_sm = 96;
            config.max_blocks_per_sm = 48;
            let (got, res) = run_saxpy_on(config, n as u32);
            assert!(res.completed);
            assert_eq!(got, expect, "wrong result under {kind:?}");
        }
    }

    #[test]
    fn bow_improves_ipc_over_baseline() {
        let (_, base) = run_saxpy(CollectorKind::Baseline, 2048);
        let (_, bow) = run_saxpy(CollectorKind::bow(3), 2048);
        assert!(
            bow.ipc() > base.ipc(),
            "BOW {} should beat baseline {}",
            bow.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn bow_wr_cuts_rf_traffic() {
        let (_, base) = run_saxpy(CollectorKind::Baseline, 1024);
        let (_, wr) = run_saxpy(CollectorKind::bow_wr(3), 1024);
        let base_total = base.stats.rf.reads + base.stats.rf.writes;
        let wr_total = wr.stats.rf.reads + wr.stats.rf.writes;
        assert!(
            (wr_total as f64) < 0.8 * base_total as f64,
            "RF traffic {wr_total} vs baseline {base_total}"
        );
    }

    #[test]
    fn analyzer_reports_window_sweep() {
        let mut gpu =
            Gpu::new(GpuConfig::scaled(CollectorKind::Baseline).with_analyzer(&[2, 3, 7]));
        let out = 0x3_0000u64;
        gpu.global_mut().write_slice_f32(0x1_0000, &[0.0; 64]);
        gpu.global_mut().write_slice_f32(0x2_0000, &[0.0; 64]);
        let res = gpu.launch(
            &saxpy_kernel(),
            KernelDims::linear(1, 64),
            &[0x1_0000, 0x2_0000, 0],
        );
        let _ = out;
        assert_eq!(res.windows.len(), 3);
        assert!(res.windows[0].total_reads > 0);
        assert!(res.windows[2].read_rate() >= res.windows[0].read_rate());
    }

    #[test]
    fn multi_sm_distributes_blocks() {
        let mut cfg = GpuConfig::scaled(CollectorKind::Baseline);
        cfg.num_sms = 4;
        let mut gpu = Gpu::new(cfg);
        gpu.global_mut().write_slice_f32(0x1_0000, &vec![1.0; 1024]);
        gpu.global_mut().write_slice_f32(0x2_0000, &vec![1.0; 1024]);
        let res = gpu.launch(
            &saxpy_kernel(),
            KernelDims::linear(16, 64),
            &[0x1_0000, 0x2_0000, 1.0f32.to_bits()],
        );
        assert!(res.completed);
        // 16 blocks x 2 warps x 15 instructions.
        assert_eq!(res.stats.warp_instructions, 16 * 2 * 15);
    }

    #[test]
    fn per_sm_stats_sum_to_device_totals() {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.num_sms = 4;
        let mut gpu = Gpu::new(cfg);
        gpu.global_mut().write_slice_f32(0x1_0000, &vec![1.0; 1024]);
        gpu.global_mut().write_slice_f32(0x2_0000, &vec![1.0; 1024]);
        let res = gpu.launch(
            &saxpy_kernel(),
            KernelDims::linear(16, 64),
            &[0x1_0000, 0x2_0000, 1.0f32.to_bits()],
        );
        assert_eq!(res.per_sm.len(), 4);
        assert!(
            res.per_sm.iter().any(|s| s.warp_instructions > 0),
            "some SM must have executed the grid"
        );
        let sums: (u64, u64, u64) = res.per_sm.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.warp_instructions,
                acc.1 + s.rf.reads,
                acc.2 + s.bypassed_writes,
            )
        });
        assert_eq!(sums.0, res.stats.warp_instructions);
        assert_eq!(sums.1, res.stats.rf.reads);
        assert_eq!(sums.2, res.stats.bypassed_writes);
    }

    #[test]
    fn oracle_check_launch_passes_on_all_collectors() {
        let n = 256u32;
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::rfc6(),
        ] {
            let mut cfg = GpuConfig::scaled(kind);
            cfg.oracle_check = OracleCheck::Lockstep;
            let mut gpu = Gpu::new(cfg);
            let (xa, ya) = (0x1_0000u64, 0x2_0000u64);
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
            gpu.global_mut().write_slice_f32(xa, &x);
            gpu.global_mut().write_slice_f32(ya, &y);
            let res = gpu.launch(
                &saxpy_kernel(),
                KernelDims::linear(n / 64, 64),
                &[xa as u32, ya as u32, 3.0f32.to_bits()],
            );
            assert!(res.completed, "under {kind:?}");
            let oracle = res.oracle.expect("oracle_check attaches the oracle");
            assert!(oracle.completed, "under {kind:?}");
            assert!(
                oracle.mismatch.is_none(),
                "under {kind:?}: {:?}",
                oracle.mismatch
            );
            // 8 warps x 14 data instructions, every one checked.
            assert_eq!(oracle.checked, 8 * 14, "under {kind:?}");
        }
    }

    /// Two one-warp blocks store `ctaid + 1` to the word at param 0: a
    /// value-divergent race the warp-serial oracle settles as "block 1
    /// stores last". Block 0 spins before its store, so on the pipeline
    /// block 0 stores last; then every block waits out a longer spin and
    /// reads the word back.
    fn racy_kernel() -> Kernel {
        let r = Reg::r;
        let spin = |b: KernelBuilder, label: &str, iterations: u32| {
            b.mov_imm(r(2), 0)
                .label(label)
                .iadd(r(2), r(2).into(), Operand::Imm(1))
                .isetp(CmpOp::Lt, Pred::p(1), r(2).into(), Operand::Imm(iterations))
                .bra_if(Pred::p(1), false, label)
        };
        let b = KernelBuilder::new("racy")
            .s2r(r(0), Special::CtaidX)
            .ldc(r(1), 0)
            .isetp(CmpOp::Ne, Pred::p(0), r(0).into(), Operand::Imm(0))
            .bra_if(Pred::p(0), false, "store");
        let b = spin(b, "spin", 100)
            .label("store")
            .iadd(r(3), r(0).into(), Operand::Imm(1))
            .stg(r(1), 0, r(3).into());
        spin(b, "wait", 400)
            .ldg(r(4), r(1), 0)
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn a_value_divergent_race_is_an_oracle_mismatch_not_a_panic() {
        let kernel = racy_kernel();
        let launch = |mode| {
            let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
            cfg.oracle_check = mode;
            let mut gpu = Gpu::new(cfg);
            let res = gpu.launch(&kernel, KernelDims::linear(2, 32), &[FLAG as u32]);
            assert!(res.completed);
            assert_eq!(gpu.global().read_u32(FLAG), 1, "block 0 stores last");
            res
        };
        let memory = launch(OracleCheck::Memory);
        let report = memory
            .oracle
            .as_ref()
            .expect("oracle_check attaches the oracle");
        assert!(
            matches!(report.mismatch, Some(OracleMismatch::FinalMemory)),
            "{report:?}"
        );
        let verdict = memory.oracle_verdict().unwrap_err();
        assert!(verdict.ends_with(": final global memory diverges from the architectural oracle"));

        // Lockstep pins it earlier: block 1's read-back sees block 0's
        // late store, where the oracle's block 1 sees its own.
        let lockstep = launch(OracleCheck::Lockstep).oracle.unwrap();
        let Some(OracleMismatch::Lockstep(d)) = &lockstep.mismatch else {
            panic!("{lockstep:?}");
        };
        let ldg = kernel.insts.iter().position(|i| i.op == Opcode::Ldg);
        assert_eq!(
            (d.uid, Some(d.pc), d.kind, d.expected, d.actual),
            (1, ldg, "reg", 2, 1)
        );
    }

    #[test]
    fn the_oracle_check_and_the_sanitizer_share_one_launch() {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.oracle_check = OracleCheck::Lockstep;
        cfg.sanitize = true;
        let mut gpu = Gpu::new(cfg);
        gpu.global_mut().write_slice_f32(0x1_0000, &[1.0; 64]);
        gpu.global_mut().write_slice_f32(0x2_0000, &[2.0; 64]);
        let res = gpu.launch(
            &saxpy_kernel(),
            KernelDims::linear(1, 64),
            &[0x1_0000, 0x2_0000, 3.0f32.to_bits()],
        );
        assert!(res
            .sanitizer
            .expect("sanitize attaches the sanitizer")
            .is_clean());
        let oracle = res.oracle.expect("oracle_check attaches the oracle");
        assert!(oracle.mismatch.is_none(), "{oracle:?}");
        assert_eq!(oracle.checked, 2 * 14);
    }

    #[test]
    fn a_launch_reset_restores_what_a_new_sm_builds() {
        // `reset_for_launch` empties the register file and the collector
        // partitions in place; after a launch has filled them, the reset
        // must leave exactly the state `Sm::new` builds, on every
        // collector and both cores.
        for kind in FOUR_COLLECTORS {
            for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
                let config = on_core(kind, core);
                let mut gpu = Gpu::new(config.clone());
                let words: Vec<u32> = (0..512).collect();
                gpu.global_mut().write_slice_u32(0x1_0000, &words);
                let res = gpu.launch(
                    &saxpy_kernel(),
                    KernelDims::linear(4, 64),
                    &[0x1_0000, 0x2_0000],
                );
                assert!(res.completed, "{kind:?} {core:?}");
                let built = Sm::new(0, &config).launch_state();
                // First fit puts every block on SM 0, which the launch
                // leaves with state to clear.
                let ran = gpu.sms[0].launch_state();
                assert_ne!(ran, built, "{kind:?} {core:?}: the launch left no state");
                for sm in &mut gpu.sms {
                    sm.reset_for_launch(&[]);
                    assert_eq!(sm.launch_state(), built, "{kind:?} {core:?}");
                }
            }
        }
    }

    #[test]
    fn a_checker_only_launch_judges_like_the_fan_out() {
        // Under `NullProbe` the lockstep checker is the pipeline's own
        // probe; a listening caller puts it behind the fan-out. Both must
        // check the same instructions, report the same verdict and leave
        // the same statistics and memory, on a clean kernel and a racy one.
        let saxpy = (
            saxpy_kernel(),
            KernelDims::linear(4, 64),
            [0x1_0000, 0x2_0000],
        );
        let racy = (racy_kernel(), KernelDims::linear(2, 32), [FLAG as u32, 0]);
        for (kernel, dims, params) in [saxpy, racy] {
            for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
                let launch = |listen: bool| {
                    let mut cfg = on_core(CollectorKind::bow_wr(3), core);
                    cfg.oracle_check = OracleCheck::Lockstep;
                    let mut gpu = Gpu::new(cfg);
                    let words: Vec<u32> = (0..512).collect();
                    gpu.global_mut().write_slice_u32(0x1_0000, &words);
                    let res = if listen {
                        gpu.launch_with_probe(&kernel, dims, &params, &mut Recorder::default())
                    } else {
                        gpu.launch(&kernel, dims, &params)
                    };
                    (format!("{:?}", res.oracle), res.stats, gpu.global)
                };
                let (checked, listened) = (launch(false), launch(true));
                assert_eq!(checked.0, listened.0, "{} {core:?}", kernel.name);
                assert_eq!(checked.1, listened.1, "{} {core:?}", kernel.name);
                assert!(checked.2 == listened.2, "{} {core:?}", kernel.name);
            }
        }
    }

    #[test]
    fn watchdog_fires_on_infinite_loops() {
        let r = Reg::r;
        let spin = KernelBuilder::new("spin")
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .bra("top")
            .exit()
            .build()
            .unwrap();
        let mut cfg = GpuConfig::scaled(CollectorKind::Baseline);
        cfg.num_sms = 4;
        cfg.max_cycles = 5_000;
        let mut gpu = Gpu::new(cfg);
        let res = gpu.launch(&spin, KernelDims::linear(4, 32), &[]);
        assert_eq!((res.cycles, res.completed), (5_000, false));
    }

    /// A probe that hands every event to a closure.
    struct FnProbe<F>(F);

    impl<F: FnMut(&PipeEvent<'_>)> Probe for FnProbe<F> {
        fn on_event(&mut self, ev: &PipeEvent<'_>) {
            (self.0)(ev);
        }
    }

    const FLAG: u64 = 0x1_0000;

    /// Dependent adds before the flag store: 113 put the store in the same
    /// device cycle (592) as one of the poller's loads.
    const ADDS: usize = 113;

    /// Block `param[1]` stores 1 to `FLAG` after `ADDS` dependent adds and
    /// exits; the other block polls `FLAG` until it reads non-zero.
    fn flag_kernel() -> Kernel {
        let r = Reg::r;
        let mut b = KernelBuilder::new("flag")
            .s2r(r(0), Special::CtaidX)
            .ldc(r(1), 0)
            .ldc(r(4), 4)
            .isetp(CmpOp::Eq, Pred::p(0), r(0).into(), r(4).into())
            .bra_if(Pred::p(0), false, "store")
            .label("poll")
            .ldg(r(2), r(1), 0)
            .isetp(CmpOp::Eq, Pred::p(1), r(2).into(), Operand::Imm(0))
            .bra_if(Pred::p(1), false, "poll")
            .exit()
            .label("store")
            .mov_imm(r(3), 0);
        for _ in 0..ADDS {
            b = b.iadd(r(3), r(3).into(), Operand::Imm(1));
        }
        b.mov_imm(r(3), 1)
            .stg(r(1), 0, r(3).into())
            .exit()
            .build()
            .unwrap()
    }

    /// Runs the flag kernel with one block per SM, so block `storer` runs
    /// on SM `storer`. Returns the store's device cycle and every poll as
    /// `(cycle, value read)`.
    fn flag_launch(storer: u32) -> (u64, Vec<(u64, u32)>) {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.max_blocks_per_sm = 1;
        let mut gpu = Gpu::new(cfg);
        let mut stored_at = None;
        let mut dispatched = 0;
        let mut polls: Vec<(u64, u32)> = Vec::new();
        let mut probe = FnProbe(|ev: &PipeEvent<'_>| match *ev {
            PipeEvent::Dispatch {
                cycle, sm, inst, ..
            } => {
                dispatched = cycle;
                if inst.op == Opcode::Stg {
                    assert_eq!(sm, storer as usize, "block {storer} runs on SM {storer}");
                    stored_at = Some(cycle);
                }
            }
            PipeEvent::ExecResult {
                dst_reg: Some(reg),
                values,
                ..
            } if reg == Reg::r(2) => polls.push((dispatched, values[0])),
            _ => {}
        });
        let res = gpu.launch_with_probe(
            &flag_kernel(),
            KernelDims::linear(2, 32),
            &[FLAG as u32, storer],
            &mut probe,
        );
        assert!(res.completed);
        assert_eq!(gpu.global().read_u32(FLAG), 1);
        // Both SMs tick from device cycle 1, so SM cycles are device cycles.
        (stored_at.expect("the storer stored"), polls)
    }

    #[test]
    fn another_sms_store_is_seen_by_its_first_load_after_the_store() {
        for storer in [0, 1] {
            let (stored_at, polls) = flag_launch(storer);
            // The poller is the other SM: it ticks after the storer within
            // a cycle when the storer is SM 0, before it when SM 1.
            let seen = |cycle: u64| cycle > stored_at || (cycle == stored_at && storer == 0);
            for &(cycle, value) in &polls {
                assert_eq!(
                    value,
                    u32::from(seen(cycle)),
                    "storer SM {storer}: poll at {cycle}, store at {stored_at}"
                );
            }
            assert!(
                polls.iter().any(|&(c, _)| c == stored_at),
                "storer SM {storer}: a poll in the store's cycle ({stored_at}) \
                 must exist to show the tick order: {polls:?}"
            );
            assert!(
                polls.iter().any(|&(c, _)| c < stored_at),
                "storer SM {storer}: a poll before the store must exist: {polls:?}"
            );
        }
    }

    /// What a probe saw of a saxpy launch that oversubscribes a 2-SM,
    /// two-blocks-per-SM device.
    struct Oversubscribed {
        /// `(cycle, sm)` of every pipeline milestone, in arrival order.
        milestones: Vec<(u64, usize)>,
        /// `(block, sm, cycle)` of each block's first issued instruction.
        starts: Vec<(u64, u64, u64)>,
    }

    fn oversubscribed_launch() -> Oversubscribed {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.max_blocks_per_sm = 2;
        let mut gpu = Gpu::new(cfg);
        gpu.global_mut().write_slice_f32(0x1_0000, &vec![1.0; 1024]);
        gpu.global_mut().write_slice_f32(0x2_0000, &vec![2.0; 1024]);
        let mut milestones = Vec::new();
        let mut starts = Vec::new();
        let mut starting = None;
        let mut probe = FnProbe(|ev: &PipeEvent<'_>| match *ev {
            // Warp 0 of a block (two warps each) issuing its first
            // instruction; the `Issue` that follows says when.
            PipeEvent::Issued { uid, pc: 0, .. } if uid % 2 == 0 => {
                starting = Some(((uid & crate::oracle::UID_LOW48) / 2, uid >> 48));
            }
            PipeEvent::Issue { cycle, sm, .. } => {
                milestones.push((cycle, sm));
                if let Some((block, on_sm)) = starting.take() {
                    starts.push((block, on_sm, cycle));
                }
            }
            PipeEvent::Control { cycle, sm, .. }
            | PipeEvent::Dispatch { cycle, sm, .. }
            | PipeEvent::Writeback { cycle, sm, .. } => milestones.push((cycle, sm)),
            _ => {}
        });
        let res = gpu.launch_with_probe(
            &saxpy_kernel(),
            KernelDims::linear(10, 64),
            &[0x1_0000, 0x2_0000, 3.0f32.to_bits()],
            &mut probe,
        );
        assert!(res.completed);
        Oversubscribed { milestones, starts }
    }

    #[test]
    fn blocks_dispatch_first_fit_in_sm_index_order() {
        let mut starts = oversubscribed_launch().starts;
        starts.sort_unstable();
        // Four blocks fill the device at once, SM 0 first; each later one
        // takes the slot that frees first, the lower SM on a tie.
        assert_eq!(
            starts,
            [
                (0, 0, 1),
                (1, 0, 1),
                (2, 1, 1),
                (3, 1, 1),
                (4, 0, 598),
                (5, 1, 598),
                (6, 0, 602),
                (7, 1, 602),
                (8, 0, 1194),
                (9, 1, 1194)
            ]
        );
    }

    // Skipping quiet cycles is exact (docs/ARCHITECTURE.md, hot-path rule
    // 6): each launch below runs twice, once skipping and once ticking
    // every cycle of every busy SM, and everything observable must agree.

    /// Every event but `Stalls`, in arrival order, and how many `Stalls`
    /// events arrived.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
        stall_events: u64,
    }

    impl Probe for Recorder {
        fn on_event(&mut self, ev: &PipeEvent<'_>) {
            match ev {
                PipeEvent::Stalls { .. } => self.stall_events += 1,
                _ => self.events.push(format!("{ev:?}")),
            }
        }
    }

    /// One launch of `kernel`, skipping quiet cycles or not.
    fn launch_recorded(
        config: &GpuConfig,
        kernel: &Kernel,
        dims: KernelDims,
        skip: bool,
    ) -> (LaunchResult, Recorder, GlobalMemory) {
        let mut gpu = Gpu::new(config.clone());
        for sm in &mut gpu.sms {
            sm.tick_every_cycle = !skip;
        }
        let words: Vec<u32> = (0..4096).collect();
        gpu.global_mut().write_slice_u32(0x1_0000, &words);
        let mut recorder = Recorder::default();
        let res = gpu.launch_with_probe(kernel, dims, &[0x1_0000, 0x8_0000], &mut recorder);
        (res, recorder, gpu.global)
    }

    /// Runs `kernel` both ways and asserts they agree: the launch's cycles
    /// and completion, every SM's statistics (stall counts included), the
    /// final memory, every subscriber's report and every event but
    /// `Stalls`. Returns the share of `Stalls` events skipping saved,
    /// which is about the share of cycles it skipped.
    fn assert_skipping_is_exact(config: &GpuConfig, kernel: &Kernel, dims: KernelDims) -> f64 {
        let (skipped, seen, memory) = launch_recorded(config, kernel, dims, true);
        let (ticked, reference, reference_memory) = launch_recorded(config, kernel, dims, false);
        let at = format!(
            "{} on {:?} / {:?}",
            kernel.name, config.collector, config.core_model
        );
        assert_eq!(
            (skipped.cycles, skipped.completed),
            (ticked.cycles, ticked.completed),
            "{at}"
        );
        assert_eq!(skipped.per_sm, ticked.per_sm, "{at}");
        assert_eq!(skipped.stats, ticked.stats, "{at}");
        assert!(memory == reference_memory, "{at}: final memory");
        assert_eq!(skipped.windows, ticked.windows, "{at}");
        assert_eq!(skipped.sanitizer, ticked.sanitizer, "{at}");
        let oracle = |r: &LaunchResult| format!("{:?}", r.oracle);
        assert_eq!(oracle(&skipped), oracle(&ticked), "{at}");
        assert_eq!(seen.events.len(), reference.events.len(), "{at}");
        for (i, (got, want)) in seen.events.iter().zip(&reference.events).enumerate() {
            assert_eq!(got, want, "{at}: event {i}");
        }
        assert!(ticked.stats.stall_scoreboard > 0, "{at}: nothing waited");
        1.0 - seen.stall_events as f64 / reference.stall_events as f64
    }

    /// A loop whose trips read a shared word at smem latency and a fresh
    /// global line (a DRAM miss), then sum both; a block runs
    /// `2 + ctaid % 3` trips, so blocks finish at different times.
    fn load_loop_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("load_loop")
            .shared_bytes(512)
            .s2r(r(0), Special::TidX)
            .s2r(r(1), Special::CtaidX)
            .ldc(r(2), 0)
            .ldc(r(3), 4)
            .shl(r(4), r(0).into(), Operand::Imm(2))
            .imad(r(5), r(1).into(), Operand::Imm(256), r(4).into())
            .iadd(r(2), r(2).into(), r(5).into())
            .iadd(r(3), r(3).into(), r(5).into())
            .and(r(6), r(1).into(), Operand::Imm(3))
            .iadd(r(6), r(6).into(), Operand::Imm(2))
            .mov_imm(r(7), 0)
            .mov_imm(r(8), 0)
            .label("top")
            .sts(r(4), 0, r(7).into())
            .lds(r(9), r(4), 0)
            .imad(r(10), r(7).into(), Operand::Imm(4096), r(2).into())
            .ldg(r(11), r(10), 0)
            .iadd(r(8), r(8).into(), r(9).into())
            .iadd(r(8), r(8).into(), r(11).into())
            .iadd(r(7), r(7).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(0), r(7).into(), r(6).into())
            .bra_if(Pred::p(0), false, "top")
            .stg(r(3), 0, r(8).into())
            .exit()
            .build()
            .unwrap()
    }

    /// `kernel` with every instruction holding its warp for `stall`
    /// cycles under the control-bit interlock.
    fn paced(kernel: Kernel, stall: u8) -> Kernel {
        let bits = bow_isa::ctrl::CtrlBits {
            stall,
            ..Default::default()
        };
        Kernel {
            ctrl: vec![bits; kernel.insts.len()],
            ..kernel
        }
    }

    const FOUR_COLLECTORS: [CollectorKind; 4] = [
        CollectorKind::Baseline,
        CollectorKind::Bow {
            window: 3,
            half_size: false,
        },
        CollectorKind::BowWr {
            window: 3,
            half_size: false,
        },
        CollectorKind::Rfc { entries: 6 },
    ];

    fn on_core(kind: CollectorKind, core_model: CoreModelKind) -> GpuConfig {
        GpuConfig {
            core_model,
            ..GpuConfig::scaled(kind)
        }
    }

    #[test]
    fn skipping_quiet_cycles_is_exact_on_load_heavy_kernels() {
        let dims = KernelDims::linear(4, 64);
        for kind in FOUR_COLLECTORS {
            for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
                // One bank: writes queue behind each other and every read
                // contends with them.
                let one_bank = GpuConfig {
                    rf_banks: 1,
                    ..on_core(kind, core)
                };
                for (config, kernel) in [
                    (on_core(kind, core), saxpy_kernel()),
                    (on_core(kind, core), load_loop_kernel()),
                    (one_bank, load_loop_kernel()),
                ] {
                    let saved = assert_skipping_is_exact(&config, &kernel, dims);
                    assert!(saved > 0.5, "{} {kind:?} {core:?}: {saved}", kernel.name);
                }
            }
            // Stall counts the interlock alone releases, long enough for
            // the pipeline to drain while a warp waits one out.
            let config = on_core(kind, CoreModelKind::Modern);
            for stall in [3, 13, 40] {
                let kernel = paced(load_loop_kernel(), stall);
                let saved = assert_skipping_is_exact(&config, &kernel, dims);
                assert!(stall < 13 || saved > 0.2, "stall {stall} {kind:?}: {saved}");
            }
        }
    }

    #[test]
    fn skipping_quiet_cycles_is_exact_under_every_subscriber() {
        for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
            let mut config = on_core(CollectorKind::bow_wr(3), core).with_analyzer(&[2, 3, 7]);
            config.oracle_check = OracleCheck::Lockstep;
            config.sanitize = true;
            config.trace_pipeline = true;
            assert_skipping_is_exact(&config, &load_loop_kernel(), KernelDims::linear(4, 64));
        }
    }

    #[test]
    fn skipping_quiet_cycles_is_exact_when_blocks_arrive_while_other_sms_sleep() {
        // One block per SM at a time and blocks of unequal length: each
        // later block lands on the SM that just retired one while the
        // other waits on DRAM; on the 56-SM chip most SMs stay idle.
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
                let mut config = on_core(kind, core);
                config.max_blocks_per_sm = 1;
                assert_skipping_is_exact(&config, &load_loop_kernel(), KernelDims::linear(9, 32));
                let chip = GpuConfig {
                    core_model: core,
                    ..GpuConfig::titan_x_pascal(kind)
                };
                assert_skipping_is_exact(&chip, &load_loop_kernel(), KernelDims::linear(5, 64));
            }
        }
    }

    /// Polls a fresh global line forever: every SM spends nearly all its
    /// cycles waiting on DRAM.
    fn poll_forever_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("poll_forever")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .shl(r(2), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(2).into())
            .mov_imm(r(3), 0)
            .label("top")
            .ldg(r(4), r(1), 0)
            .iadd(r(3), r(3).into(), r(4).into())
            .iadd(r(1), r(1).into(), Operand::Imm(4096))
            .bra("top")
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn skipping_quiet_cycles_is_exact_when_the_watchdog_stops_a_sleeping_device() {
        let kernel = poll_forever_kernel();
        for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
            let mut config = on_core(CollectorKind::bow_wr(3), core);
            config.max_cycles = 20_000;
            config.max_blocks_per_sm = 1;
            // A stop in the middle of the longest span in which no SM
            // issues, dispatches or writes back.
            let (_, recorder, _) =
                launch_recorded(&config, &kernel, KernelDims::linear(2, 32), true);
            let mut cycles: Vec<u64> = recorder
                .events
                .iter()
                .filter_map(|e| {
                    let at = e.find("cycle: ")? + "cycle: ".len();
                    e[at..].split([',', ' ']).next()?.parse().ok()
                })
                .collect();
            cycles.sort_unstable();
            let (gap, from) = cycles
                .windows(2)
                .map(|w| (w[1] - w[0], w[0]))
                .max()
                .expect("events");
            assert!(gap > 100, "{core:?}: no long quiet span to stop in");
            config.max_cycles = from + gap / 2;
            assert_skipping_is_exact(&config, &kernel, KernelDims::linear(2, 32));
            let (stopped, _, _) =
                launch_recorded(&config, &kernel, KernelDims::linear(2, 32), true);
            assert!(!stopped.completed && stopped.cycles == config.max_cycles);
            assert!(stopped.per_sm.iter().all(|s| s.cycles == config.max_cycles));
        }
    }

    #[test]
    fn probe_stream_is_cycle_major() {
        let milestones = oversubscribed_launch().milestones;
        assert!(milestones.iter().any(|&(_, sm)| sm == 1), "both SMs ran");
        assert!(
            milestones.is_sorted(),
            "events arrive cycle by cycle, SMs in index order within one"
        );
    }
}

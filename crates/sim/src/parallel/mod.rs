//! The deterministic windowed multi-SM execution engine.
//!
//! One simulation used to be strictly single-threaded: the serial device
//! loop ticks every SM in index order, cycle by cycle. This module shards
//! the per-SM stage pipelines across a worker pool instead. Each worker
//! advances its SMs through a bounded *cycle window* completely
//! independently, then all SMs synchronize at the interconnect/L2
//! boundary ([`bow_mem::interconnect`]), where buffered global-memory
//! writes commit in the canonical `(cycle, sm_id, seq)` order and
//! per-shard probe buffers replay in SM-index order.
//!
//! # Windowed semantics
//!
//! During a window an SM observes the device-memory snapshot taken at
//! the last window boundary plus its own writes (read-your-writes via
//! the [`SmWindowBuf`] overlay); other SMs' writes become visible at the
//! next boundary. This is the engine's *semantics*, not an execution
//! detail: the single-thread engine runs the identical window protocol
//! inline, so results are byte-identical for every `sim_threads` value —
//! the thread count only chooses how the same deterministic schedule is
//! executed. Workloads free of cross-SM races within one launch (all of
//! ours except `bfs`, whose races are value-convergent) additionally
//! match the serial reference loop bit-for-bit.
//!
//! # Block dispatch
//!
//! The serial loop assigns queued blocks at the start of every device
//! cycle, scanning SMs in index order. The windowed engine reproduces
//! that schedule exactly with a halt-and-resume protocol: while blocks
//! remain undispatched, a worker halts an SM at the first cycle at which
//! it could host a block (its *dispatch point*) and reports its free
//! capacity. The coordinator takes the earliest dispatch point across
//! all halted SMs, hands out blocks there in SM-index order against the
//! reported capacities — the same greedy fill the serial loop performs —
//! and resumes exactly the SMs it considered. Because capacity evolution
//! is purely SM-local, the resulting assignment sequence is a pure
//! function of simulation state, independent of sharding and thread
//! count.
//!
//! # Determinism argument
//!
//! Every cross-SM interaction flows through one of three deterministic
//! merge points: the `(cycle, sm_id, seq)` write commit, the SM-indexed
//! probe replay, and the coordinator's dispatch protocol. Everything
//! else is SM-local state advanced by SM-local code. Hence `SimStats`,
//! per-SM stats, device cycles, final memory and the full probe stream
//! are invariant under `sim_threads`.

pub(crate) mod events;

use crate::decode::DecodedKernel;
use crate::probe::Probe;
use crate::sm::Sm;
use bow_isa::{Kernel, KernelDims};
use bow_mem::{commit_windows, GlobalMemory, SmWindowBuf, WindowedGlobal, WriteRec};
use events::Recorder;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, RwLock};

pub use events::EventBuf;

/// Engine knobs resolved by the launch path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EngineParams {
    /// Warps each block occupies (from the launch dims).
    pub warps_per_block: u32,
    /// Watchdog (0 = unlimited), as in the serial loop.
    pub max_cycles: u64,
    /// Cycle-window length between interconnect synchronizations (≥ 1).
    pub window: u64,
    /// Worker threads to shard SMs across (≥ 1; capped at the SM count).
    pub threads: usize,
}

/// Where one SM halted when its worker handed control back.
#[derive(Clone, Copy, Debug)]
enum SmStatus {
    /// Halted at dispatch point `at` (device cycle) with free capacity:
    /// the coordinator may hand it blocks there.
    Stopped {
        at: u64,
        free_blocks: u32,
        free_warps: u32,
    },
    /// Ran to the window boundary while busy.
    AtEnd,
    /// Went idle with no blocks left; `last_busy` is the device cycle of
    /// its final tick.
    Done { last_busy: u64 },
}

/// One SM plus its window-private state, owned by a worker (or by the
/// inline engine).
struct SmLane<'a, R> {
    id: usize,
    sm: &'a mut Sm,
    buf: SmWindowBuf,
    rec: R,
    /// Device cycle of this SM's last executed tick. Unlike the SM's own
    /// `cycle` counter (which counts busy ticks only), this tracks the
    /// global timeline and stamps the write journal.
    dev_cycle: u64,
}

/// Advances one SM until it halts: at a dispatch point, at the window
/// boundary `until`, or permanently (idle with the grid drained). The
/// halt conditions are checked in the same order the serial loop
/// interleaves dispatch, the done-check and ticking.
fn advance<R: Recorder>(
    lane: &mut SmLane<'_, R>,
    base: &GlobalMemory,
    kernel: &DecodedKernel<'_>,
    warps_per_block: u32,
    until: u64,
    blocks_remain: bool,
) -> SmStatus {
    loop {
        if !lane.sm.busy() {
            if !blocks_remain {
                return SmStatus::Done {
                    last_busy: lane.dev_cycle,
                };
            }
            // An idle SM always has capacity (launch asserts a block fits
            // an empty SM), so with blocks pending it halts for dispatch.
            let (free_blocks, free_warps) = lane.sm.free_capacity();
            return SmStatus::Stopped {
                at: lane.dev_cycle,
                free_blocks,
                free_warps,
            };
        }
        if blocks_remain && lane.sm.can_host_block(warps_per_block) {
            let (free_blocks, free_warps) = lane.sm.free_capacity();
            return SmStatus::Stopped {
                at: lane.dev_cycle,
                free_blocks,
                free_warps,
            };
        }
        if lane.dev_cycle >= until {
            return SmStatus::AtEnd;
        }
        lane.dev_cycle += 1;
        lane.buf.cycle = lane.dev_cycle;
        let mut view = WindowedGlobal {
            base,
            buf: &mut lane.buf,
        };
        lane.sm.tick(kernel, &mut view, &mut lane.rec);
    }
}

/// Installs `block_index` on an SM (row-major coordinates, exactly as the
/// serial loop computes them).
fn apply_assign(sm: &mut Sm, kernel: &Kernel, dims: KernelDims, block_index: u64) {
    let bx = (block_index % u64::from(dims.grid.0)) as u32;
    let by = (block_index / u64::from(dims.grid.0)) as u32;
    sm.assign_block(kernel, (bx, by), dims, block_index);
}

/// The execution backend the coordinator drives: either the inline
/// single-thread host or the worker-pool host. Both expose the same two
/// operations, so the coordination logic exists exactly once.
trait LaneHost<R: Recorder> {
    /// Delivers pending block assignments (`assigns` is drained), then
    /// advances every SM whose status slot is `None`, filling the slots.
    fn advance_pending(
        &mut self,
        statuses: &mut [Option<SmStatus>],
        until: u64,
        blocks_remain: bool,
        assigns: &mut Vec<(usize, Vec<u64>)>,
    );

    /// Window barrier: drains every SM's write journal, commits the
    /// journals to the base image in canonical order, and returns each
    /// SM's probe recorder for replay.
    fn commit_window(&mut self) -> Vec<(usize, R)>;
}

/// The coordinator: windows, dispatch synchronization, commit/replay
/// barriers and the device done/watchdog checks. Host-agnostic.
fn run_engine<R: Recorder, P: Probe, H: LaneHost<R>>(
    host: &mut H,
    num_sms: usize,
    kernel: &DecodedKernel<'_>,
    dims: KernelDims,
    ep: &EngineParams,
    probe: &mut P,
) -> (u64, bool) {
    let total = u64::from(dims.total_blocks());
    let mut next_block = 0u64;
    let watchdog = if ep.max_cycles == 0 {
        u64::MAX
    } else {
        ep.max_cycles
    };
    let window = ep.window.max(1);
    let mut statuses: Vec<Option<SmStatus>> = vec![None; num_sms];
    let mut t0 = 0u64;
    loop {
        let until = t0.saturating_add(window).min(watchdog);
        let mut assigns: Vec<(usize, Vec<u64>)> = Vec::new();
        // Dispatch sub-rounds: run until every SM reached the window
        // boundary (or finished), synchronizing at each dispatch point.
        loop {
            host.advance_pending(&mut statuses, until, next_block < total, &mut assigns);
            let t_sync = statuses
                .iter()
                .filter_map(|s| match s {
                    Some(SmStatus::Stopped { at, .. }) => Some(*at),
                    _ => None,
                })
                .min();
            let Some(t_sync) = t_sync else { break };
            if t_sync >= watchdog {
                // The serial loop would also assign blocks here, but the
                // watchdog fires before they ever tick — unobservable.
                break;
            }
            // Greedy serial-order fill: scan SMs halted at exactly
            // `t_sync` in index order, first fit hosts the next block.
            let mut caps: Vec<(usize, u32, u32)> = Vec::new();
            for (sm, st) in statuses.iter().enumerate() {
                if let Some(SmStatus::Stopped {
                    at,
                    free_blocks,
                    free_warps,
                }) = st
                {
                    if *at == t_sync {
                        caps.push((sm, *free_blocks, *free_warps));
                    }
                }
            }
            while next_block < total {
                let Some(c) = caps
                    .iter_mut()
                    .find(|c| c.1 > 0 && c.2 >= ep.warps_per_block)
                else {
                    break;
                };
                match assigns.iter_mut().find(|(sm, _)| *sm == c.0) {
                    Some((_, list)) => list.push(next_block),
                    None => assigns.push((c.0, vec![next_block])),
                }
                c.1 -= 1;
                c.2 -= ep.warps_per_block;
                next_block += 1;
            }
            if next_block >= total {
                // Grid drained: release every halted SM to run out.
                for st in statuses.iter_mut() {
                    if matches!(st, Some(SmStatus::Stopped { .. })) {
                        *st = None;
                    }
                }
            } else {
                // Resume exactly the SMs considered at this sync point
                // (their capacity is now full, so they will not re-halt
                // at the same cycle).
                for (sm, _, _) in caps {
                    statuses[sm] = None;
                }
            }
        }
        // Window barrier: commit memory, then replay probe buffers in
        // SM-index order into the launch probe.
        let mut recorders = host.commit_window();
        recorders.sort_by_key(|(sm, _)| *sm);
        for (_, mut rec) in recorders {
            rec.replay(kernel, probe);
        }
        // Device done-check before the watchdog check, as in the serial
        // loop.
        if next_block >= total
            && statuses
                .iter()
                .all(|s| matches!(s, Some(SmStatus::Done { .. })))
        {
            let cycles = statuses
                .iter()
                .filter_map(|s| match s {
                    Some(SmStatus::Done { last_busy }) => Some(*last_busy),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            return (cycles, true);
        }
        if until >= watchdog {
            return (watchdog, false);
        }
        t0 = until;
        for st in statuses.iter_mut() {
            if matches!(st, Some(SmStatus::AtEnd)) {
                *st = None;
            }
        }
    }
}

/// The single-thread host: all lanes advance inline on the caller's
/// thread, in SM-index order. Same protocol, no synchronization cost.
struct InlineHost<'a, R> {
    lanes: Vec<SmLane<'a, R>>,
    base: &'a mut GlobalMemory,
    kernel: &'a DecodedKernel<'a>,
    dims: KernelDims,
    warps_per_block: u32,
}

impl<R: Recorder> LaneHost<R> for InlineHost<'_, R> {
    fn advance_pending(
        &mut self,
        statuses: &mut [Option<SmStatus>],
        until: u64,
        blocks_remain: bool,
        assigns: &mut Vec<(usize, Vec<u64>)>,
    ) {
        for (sm, blocks) in assigns.drain(..) {
            for b in blocks {
                apply_assign(self.lanes[sm].sm, self.kernel, self.dims, b);
            }
        }
        for (sm, st) in statuses.iter_mut().enumerate() {
            if st.is_none() {
                *st = Some(advance(
                    &mut self.lanes[sm],
                    self.base,
                    self.kernel,
                    self.warps_per_block,
                    until,
                    blocks_remain,
                ));
            }
        }
    }

    fn commit_window(&mut self) -> Vec<(usize, R)> {
        let mut journals: Vec<(usize, Vec<WriteRec>)> = self
            .lanes
            .iter_mut()
            .map(|l| (l.id, l.buf.drain()))
            .collect();
        commit_windows(self.base, &mut journals);
        self.lanes
            .iter_mut()
            .map(|l| (l.id, std::mem::take(&mut l.rec)))
            .collect()
    }
}

/// Coordinator → worker commands.
enum Cmd {
    /// Apply the listed block assignments, then advance the listed lanes
    /// (by worker-local index) under the given round parameters.
    Round {
        until: u64,
        blocks_remain: bool,
        items: Vec<(usize, Vec<u64>)>,
    },
    /// Drain journals and recorders of all lanes.
    Harvest,
    /// Launch finished.
    Exit,
}

/// Worker → coordinator replies.
enum Rep<R> {
    Status(Vec<(usize, SmStatus)>),
    Windows(Vec<(usize, Vec<WriteRec>, R)>),
}

/// The worker body: owns a shard of lanes for the whole launch, reads
/// the shared base image under the interconnect read-lock while
/// advancing, and ships journals/recorders to the coordinator at
/// barriers.
fn worker_loop<R: Recorder>(
    lanes: &mut [SmLane<'_, R>],
    kernel: &DecodedKernel<'_>,
    dims: KernelDims,
    warps_per_block: u32,
    base: &RwLock<GlobalMemory>,
    rx: &Receiver<Cmd>,
    tx: &Sender<Rep<R>>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Round {
                until,
                blocks_remain,
                items,
            } => {
                let guard = base.read().expect("interconnect lock poisoned");
                let mut out = Vec::with_capacity(items.len());
                for (local, blocks) in items {
                    let lane = &mut lanes[local];
                    for b in blocks {
                        apply_assign(lane.sm, kernel, dims, b);
                    }
                    let st = advance(lane, &guard, kernel, warps_per_block, until, blocks_remain);
                    out.push((lane.id, st));
                }
                drop(guard);
                if tx.send(Rep::Status(out)).is_err() {
                    return;
                }
            }
            Cmd::Harvest => {
                let out = lanes
                    .iter_mut()
                    .map(|l| (l.id, l.buf.drain(), std::mem::take(&mut l.rec)))
                    .collect();
                if tx.send(Rep::Windows(out)).is_err() {
                    return;
                }
            }
            Cmd::Exit => return,
        }
    }
}

/// The worker-pool host: lanes are dealt round-robin across persistent
/// scoped workers; the coordinator talks to them over channels and owns
/// the write side of the interconnect lock.
struct ThreadedHost<'a, R> {
    cmd: Vec<Sender<Cmd>>,
    rep: Receiver<Rep<R>>,
    /// `sm id → (worker, worker-local lane index)`.
    owner: Vec<(usize, usize)>,
    base: &'a RwLock<GlobalMemory>,
}

impl<R: Recorder> LaneHost<R> for ThreadedHost<'_, R> {
    fn advance_pending(
        &mut self,
        statuses: &mut [Option<SmStatus>],
        until: u64,
        blocks_remain: bool,
        assigns: &mut Vec<(usize, Vec<u64>)>,
    ) {
        let mut items: Vec<Vec<(usize, Vec<u64>)>> = vec![Vec::new(); self.cmd.len()];
        let mut pending_assigns: Vec<Vec<u64>> = vec![Vec::new(); statuses.len()];
        for (sm, blocks) in assigns.drain(..) {
            pending_assigns[sm] = blocks;
        }
        for (sm, st) in statuses.iter().enumerate() {
            if st.is_none() {
                let (w, local) = self.owner[sm];
                items[w].push((local, std::mem::take(&mut pending_assigns[sm])));
            }
        }
        let mut contacted = 0;
        for (w, batch) in items.into_iter().enumerate() {
            if !batch.is_empty() {
                self.cmd[w]
                    .send(Cmd::Round {
                        until,
                        blocks_remain,
                        items: batch,
                    })
                    .expect("worker exited early");
                contacted += 1;
            }
        }
        for _ in 0..contacted {
            match self.rep.recv().expect("worker exited early") {
                Rep::Status(batch) => {
                    for (sm, st) in batch {
                        statuses[sm] = Some(st);
                    }
                }
                Rep::Windows(_) => unreachable!("harvest reply outside a barrier"),
            }
        }
    }

    fn commit_window(&mut self) -> Vec<(usize, R)> {
        for tx in &self.cmd {
            tx.send(Cmd::Harvest).expect("worker exited early");
        }
        let mut journals: Vec<(usize, Vec<WriteRec>)> = Vec::new();
        let mut recorders = Vec::new();
        for _ in 0..self.cmd.len() {
            match self.rep.recv().expect("worker exited early") {
                Rep::Windows(batch) => {
                    for (sm, journal, rec) in batch {
                        journals.push((sm, journal));
                        recorders.push((sm, rec));
                    }
                }
                Rep::Status(_) => unreachable!("status reply at a barrier"),
            }
        }
        let mut base = self.base.write().expect("interconnect lock poisoned");
        commit_windows(&mut base, &mut journals);
        recorders
    }
}

fn run_inline<R: Recorder, P: Probe>(
    sms: &mut [Sm],
    global: &mut GlobalMemory,
    kernel: &DecodedKernel<'_>,
    dims: KernelDims,
    ep: &EngineParams,
    probe: &mut P,
) -> (u64, bool) {
    let num_sms = sms.len();
    let lanes = sms
        .iter_mut()
        .enumerate()
        .map(|(id, sm)| SmLane {
            id,
            sm,
            buf: SmWindowBuf::new(),
            rec: R::default(),
            dev_cycle: 0,
        })
        .collect();
    let mut host = InlineHost {
        lanes,
        base: global,
        kernel,
        dims,
        warps_per_block: ep.warps_per_block,
    };
    run_engine::<R, P, _>(&mut host, num_sms, kernel, dims, ep, probe)
}

fn run_threaded<R: Recorder, P: Probe>(
    sms: &mut [Sm],
    global: &mut GlobalMemory,
    kernel: &DecodedKernel<'_>,
    dims: KernelDims,
    ep: &EngineParams,
    probe: &mut P,
) -> (u64, bool) {
    let num_sms = sms.len();
    let workers = ep.threads.min(num_sms).max(1);
    let base = RwLock::new(std::mem::take(global));
    let mut owner = vec![(0usize, 0usize); num_sms];
    let mut shards: Vec<Vec<SmLane<'_, R>>> = (0..workers).map(|_| Vec::new()).collect();
    for (id, sm) in sms.iter_mut().enumerate() {
        let w = id % workers;
        owner[id] = (w, shards[w].len());
        shards[w].push(SmLane {
            id,
            sm,
            buf: SmWindowBuf::new(),
            rec: R::default(),
            dev_cycle: 0,
        });
    }
    let result = std::thread::scope(|s| {
        let mut cmd = Vec::with_capacity(workers);
        let (rep_tx, rep_rx) = mpsc::channel::<Rep<R>>();
        for shard in shards.iter_mut() {
            let (tx, rx) = mpsc::channel::<Cmd>();
            cmd.push(tx);
            let rep_tx = rep_tx.clone();
            let base = &base;
            let wpb = ep.warps_per_block;
            s.spawn(move || worker_loop(shard, kernel, dims, wpb, base, &rx, &rep_tx));
        }
        let mut host = ThreadedHost {
            cmd,
            rep: rep_rx,
            owner,
            base: &base,
        };
        let out = run_engine::<R, P, _>(&mut host, num_sms, kernel, dims, ep, probe);
        for tx in &host.cmd {
            let _ = tx.send(Cmd::Exit);
        }
        out
    });
    *global = base.into_inner().expect("interconnect lock poisoned");
    result
}

/// Runs a launch under the windowed engine. `R` selects the per-SM probe
/// recorder ([`EventBuf`] when the caller's probe is active,
/// [`NullProbe`](crate::probe::NullProbe) otherwise — the latter
/// monomorphizes all recording out). Returns `(device cycles,
/// completed)` exactly like the serial loop.
pub(crate) fn run_windowed<R: Recorder, P: Probe>(
    sms: &mut [Sm],
    global: &mut GlobalMemory,
    kernel: &DecodedKernel<'_>,
    dims: KernelDims,
    ep: &EngineParams,
    probe: &mut P,
) -> (u64, bool) {
    if ep.threads.min(sms.len()) <= 1 {
        run_inline::<R, P>(sms, global, kernel, dims, ep, probe)
    } else {
        run_threaded::<R, P>(sms, global, kernel, dims, ep, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::config::GpuConfig;
    use crate::probe::{NullProbe, PipeEvent};
    use bow_isa::{KernelBuilder, Operand, Reg, Special};

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

    fn fresh_device(num_sms: u32) -> (Vec<Sm>, GlobalMemory) {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.num_sms = num_sms;
        let sms = (0..num_sms as usize).map(|i| Sm::new(i, &cfg)).collect();
        let mut global = GlobalMemory::new();
        global.write_slice_f32(0x1_0000, &vec![1.0; 2048]);
        global.write_slice_f32(0x2_0000, &vec![2.0; 2048]);
        (sms, global)
    }

    const PARAMS: [u32; 3] = [0x1_0000, 0x2_0000, 0x4040_0000 /* 3.0f32 */];

    /// A transliteration of the device serial loop (`gpu::run_blocks`),
    /// kept here as the independent reference the windowed engine must
    /// reproduce bit-for-bit on race-free kernels.
    fn run_serial_reference(
        sms: &mut [Sm],
        global: &mut GlobalMemory,
        kernel: &DecodedKernel<'_>,
        dims: KernelDims,
        warps_per_block: u32,
        max_cycles: u64,
    ) -> (u64, bool) {
        let total = u64::from(dims.total_blocks());
        let mut next_block = 0u64;
        let mut cycles = 0u64;
        let watchdog = if max_cycles == 0 {
            u64::MAX
        } else {
            max_cycles
        };
        loop {
            while next_block < total {
                let Some(sm) = sms.iter_mut().find(|sm| sm.can_host_block(warps_per_block)) else {
                    break;
                };
                apply_assign(sm, kernel, dims, next_block);
                next_block += 1;
            }
            if next_block >= total && sms.iter().all(|sm| !sm.busy()) {
                return (cycles, true);
            }
            if cycles >= watchdog {
                return (cycles, false);
            }
            cycles += 1;
            for sm in sms.iter_mut() {
                if sm.busy() {
                    sm.tick(kernel, global, &mut NullProbe);
                }
            }
        }
    }

    fn state_digest(sms: &[Sm], global: &GlobalMemory, cycles: u64, completed: bool) -> String {
        let per_sm: Vec<String> = sms.iter().map(|s| format!("{:?}", s.stats())).collect();
        format!(
            "cycles={cycles} completed={completed} mem={:#x} per_sm={per_sm:?}",
            global.fingerprint()
        )
    }

    fn run_windowed_digest(threads: usize, window: u64) -> String {
        let kernel = saxpy_kernel();
        let dims = KernelDims::linear(16, 64);
        let (mut sms, mut global) = fresh_device(4);
        for sm in &mut sms {
            sm.reset_for_launch(&PARAMS);
        }
        let ep = EngineParams {
            warps_per_block: dims.warps_per_block(),
            max_cycles: 0,
            window,
            threads,
        };
        let (cycles, completed) = run_windowed::<NullProbe, _>(
            &mut sms,
            &mut global,
            &DecodedKernel::new(&kernel),
            dims,
            &ep,
            &mut NullProbe,
        );
        assert!(completed);
        state_digest(&sms, &global, cycles, completed)
    }

    #[test]
    fn windowed_engine_matches_serial_reference_bit_for_bit() {
        let kernel = saxpy_kernel();
        let dims = KernelDims::linear(16, 64);
        let (mut sms, mut global) = fresh_device(4);
        for sm in &mut sms {
            sm.reset_for_launch(&PARAMS);
        }
        let (cycles, completed) = run_serial_reference(
            &mut sms,
            &mut global,
            &DecodedKernel::new(&kernel),
            dims,
            dims.warps_per_block(),
            0,
        );
        assert!(completed);
        let serial = state_digest(&sms, &global, cycles, completed);
        assert_eq!(run_windowed_digest(1, 256), serial);
    }

    #[test]
    fn results_invariant_under_thread_count() {
        let one = run_windowed_digest(1, 256);
        assert_eq!(run_windowed_digest(2, 256), one);
        assert_eq!(run_windowed_digest(8, 256), one);
        // More workers than SMs must also work (capped to the SM count).
        assert_eq!(run_windowed_digest(64, 256), one);
    }

    #[test]
    fn race_free_results_invariant_under_window_length() {
        let w256 = run_windowed_digest(1, 256);
        assert_eq!(run_windowed_digest(2, 1), w256);
        assert_eq!(run_windowed_digest(4, 7), w256);
        assert_eq!(run_windowed_digest(2, 100_000), w256);
    }

    /// A probe that renders every event to its debug form, so two runs
    /// can compare full event streams.
    #[derive(Default)]
    struct StreamProbe(Vec<String>);

    impl Probe for StreamProbe {
        fn on_event(&mut self, ev: &PipeEvent<'_>) {
            self.0.push(format!("{ev:?}"));
        }
    }

    fn run_event_stream(threads: usize) -> Vec<String> {
        let kernel = saxpy_kernel();
        let dims = KernelDims::linear(8, 64);
        let (mut sms, mut global) = fresh_device(4);
        for sm in &mut sms {
            sm.reset_for_launch(&PARAMS);
        }
        let ep = EngineParams {
            warps_per_block: dims.warps_per_block(),
            max_cycles: 0,
            window: 64,
            threads,
        };
        let mut probe = StreamProbe::default();
        let (_, completed) = run_windowed::<EventBuf, _>(
            &mut sms,
            &mut global,
            &DecodedKernel::new(&kernel),
            dims,
            &ep,
            &mut probe,
        );
        assert!(completed);
        assert!(!probe.0.is_empty());
        probe.0
    }

    #[test]
    fn probe_event_stream_invariant_under_thread_count() {
        let one = run_event_stream(1);
        assert_eq!(run_event_stream(3), one);
        assert_eq!(run_event_stream(8), one);
    }

    #[test]
    fn watchdog_fires_under_windowed_engine() {
        let r = Reg::r;
        let spin = KernelBuilder::new("spin")
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .bra("top")
            .exit()
            .build()
            .unwrap();
        for threads in [1, 3] {
            let (mut sms, mut global) = fresh_device(4);
            for sm in &mut sms {
                sm.reset_for_launch(&[]);
            }
            let dims = KernelDims::linear(4, 32);
            let ep = EngineParams {
                warps_per_block: dims.warps_per_block(),
                max_cycles: 5_000,
                window: 256,
                threads,
            };
            let (cycles, completed) = run_windowed::<NullProbe, _>(
                &mut sms,
                &mut global,
                &DecodedKernel::new(&spin),
                dims,
                &ep,
                &mut NullProbe,
            );
            assert!(!completed);
            assert_eq!(cycles, 5_000);
        }
    }
}

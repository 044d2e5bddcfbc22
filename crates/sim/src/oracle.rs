//! The architectural oracle: a timing-free, warp-serial interpreter.
//!
//! [`run_oracle`] executes a kernel with the *same* instruction semantics
//! as the pipeline (`crate::exec`) but none of the pipeline itself — no
//! scoreboards, collectors, register banks, schedulers or latencies. Warps
//! run one at a time to their next barrier (or exit), blocks run
//! sequentially, and every instruction completes before the next issues.
//! The result is the golden architectural reference: final global memory,
//! final per-warp register state, and (optionally) a [`WriteLog`] of every
//! destination value each dynamic data instruction produced.
//!
//! [`LockstepChecker`] closes the loop: attached to a pipelined launch as
//! a [`Probe`], it compares every [`PipeEvent::ExecResult`] against the
//! oracle's `WriteLog` and records the **first** diverging instruction
//! (smallest per-warp sequence number), so a timing bug that corrupts
//! architectural state is pinned to the exact instruction — not just
//! detected in the final-memory comparison. A launch under
//! [`GpuConfig::oracle_check`](crate::GpuConfig) folds the checker, the
//! data-instruction counts and a word-for-word comparison of the two final
//! memories into an [`OracleReport`].
//!
//! The pipeline tags warps with
//! `uid = low48(block_index * warps_per_block + warp_in_block) | sm_id << 48`.
//! Which SM hosts a block is a timing artifact, so lockstep keys mask the
//! SM bits away and match on `(uid & LOW48, seq)` — both sides assign
//! `seq` to every issued instruction (control included) in per-warp
//! program order, which makes the key schedule-independent. Both halves
//! of the key are dense — `uid & LOW48` counts warps of the launch from 0
//! and `seq` counts a warp's instructions from 0 — so the log is a table
//! indexed by them, not a map.
//!
//! Inside [`share_runs`], a checked launch takes its run from
//! `run_oracle_once`, a one-entry, per-thread memo: the designs of one
//! program on one input (a sweep runs them back to back in one scope)
//! share one interpretation. The memo's key holds by value everything the
//! oracle reads, compared exactly, and the entry lives no longer than the
//! scope.

use crate::exec::{self, BlockInfo, ExecCtx};
use crate::probe::{PipeEvent, Probe};
use crate::warp::Warp;
use bow_isa::{Instruction, Kernel, KernelDims, Pred, Reg, WARP_SIZE};
use bow_mem::{GlobalMemory, SharedMemory};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Mask selecting the schedule-independent low bits of a warp uid.
pub const UID_LOW48: u64 = (1 << 48) - 1;

/// The destination values one dynamic data instruction produced.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteRecord {
    /// Program counter of the instruction.
    pub pc: usize,
    /// Active-lane mask it executed under.
    pub mask: u32,
    /// Destination register, if any.
    pub dst_reg: Option<Reg>,
    /// Destination predicate, if any.
    pub dst_pred: Option<Pred>,
    /// Per-lane destination register values (all 32 lanes; meaningful
    /// under `mask`). All zero when `dst_reg` is `None`.
    pub values: [u32; WARP_SIZE],
    /// Per-lane destination predicate bits (meaningful under `mask`).
    pub pred_bits: u32,
}

/// Every data instruction's result, keyed by `(uid & UID_LOW48, seq)`.
///
/// One row per warp of the launch, at index `uid & UID_LOW48`; entry
/// `seq` of a row is that warp's instruction `seq`: its record, or `None`
/// for a control instruction, which takes a sequence number but writes
/// no destination the checker compares.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WriteLog {
    rows: Vec<Vec<Option<WriteRecord>>>,
    /// The `Some` entries across all rows.
    records: usize,
}

impl WriteLog {
    /// An empty log with a row for each of `warps` warps.
    fn with_warps(warps: usize) -> WriteLog {
        WriteLog {
            rows: vec![Vec::new(); warps],
            records: 0,
        }
    }

    /// Appends warp `uid`'s instruction `seq`, the next one of its row.
    fn push(&mut self, uid: u64, seq: u64, record: Option<WriteRecord>) {
        let row = &mut self.rows[uid as usize];
        debug_assert_eq!(row.len() as u64, seq, "warp {uid} logs out of order");
        self.records += usize::from(record.is_some());
        row.push(record);
    }

    /// The record of warp `uid`'s instruction `seq`; `None` if the oracle
    /// ran no such warp or instruction, or that instruction was control.
    pub fn get(&self, uid: u64, seq: u64) -> Option<&WriteRecord> {
        let row = self.rows.get(usize::try_from(uid).ok()?)?;
        row.get(usize::try_from(seq).ok()?)?.as_ref()
    }

    /// Data instructions logged.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether no data instruction was logged.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Rows in the log: every warp of a recorded launch, none otherwise.
    pub fn warps(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Warp `uid`'s records as `(seq, record)`, ascending in `seq`.
    pub fn row(&self, uid: u64) -> impl Iterator<Item = (u64, &WriteRecord)> {
        let row = usize::try_from(uid).ok().and_then(|uid| self.rows.get(uid));
        row.into_iter()
            .flatten()
            .enumerate()
            .filter_map(|(seq, entry)| Some((seq as u64, entry.as_ref()?)))
    }

    /// Every record as `(uid, seq, record)`, by `uid`, then `seq`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &WriteRecord)> {
        (0..self.warps()).flat_map(|uid| self.row(uid).map(move |(seq, rec)| (uid, seq, rec)))
    }
}

/// The outcome of an oracle run.
#[derive(Debug, PartialEq)]
pub struct OracleRun {
    /// Final global memory.
    pub global: GlobalMemory,
    /// Final state of every warp, in `(block_index, warp_in_block)` order.
    pub warps: Vec<Warp>,
    /// Per-instruction write log (empty unless recording was requested).
    pub log: WriteLog,
    /// False if the step watchdog fired (runaway loop) or a warp walked
    /// off the end of the kernel without exiting.
    pub completed: bool,
}

/// Default per-launch dynamic instruction budget for the oracle watchdog.
pub const DEFAULT_MAX_STEPS: u64 = 200_000_000;

/// Runs `kernel` to completion on the warp-serial oracle.
///
/// `global` is consumed as the launch-time memory image (clone the
/// device memory to keep the original). When `record` is set, the
/// returned [`WriteLog`] holds the destination values of every dynamic
/// data instruction for lockstep checking; leave it off for plain
/// final-memory comparisons to save memory.
pub fn run_oracle(
    kernel: &Kernel,
    dims: KernelDims,
    params: &[u32],
    global: GlobalMemory,
    record: bool,
) -> OracleRun {
    run_oracle_bounded(kernel, dims, params, global, record, DEFAULT_MAX_STEPS)
}

/// [`run_oracle`] with an explicit dynamic-instruction watchdog budget.
pub fn run_oracle_bounded(
    kernel: &Kernel,
    dims: KernelDims,
    params: &[u32],
    mut global: GlobalMemory,
    record: bool,
    max_steps: u64,
) -> OracleRun {
    kernel.validate().expect("oracle launch must validate");
    let warps_per_block = dims.warps_per_block();
    let threads = dims.threads_per_block();
    let mut log = if record {
        WriteLog::with_warps(dims.total_blocks() as usize * warps_per_block as usize)
    } else {
        WriteLog::default()
    };
    let mut all_warps = Vec::new();
    let mut steps = 0u64;
    let mut completed = true;
    let mut addrs = Vec::new();

    'blocks: for block_index in 0..u64::from(dims.total_blocks()) {
        let bx = (block_index % u64::from(dims.grid.0)) as u32;
        let by = (block_index / u64::from(dims.grid.0)) as u32;
        let info = BlockInfo {
            ctaid: (bx, by),
            ntid: dims.block,
            nctaid: dims.grid,
        };
        let mut shared = SharedMemory::new(kernel.shared_bytes);
        let mut warps: Vec<Warp> = (0..warps_per_block)
            .map(|w| {
                let lanes = (threads - w * WARP_SIZE as u32).min(WARP_SIZE as u32);
                let mut warp = Warp::new(w as usize, 0, w, lanes, kernel.num_regs);
                warp.barrier_mode = kernel.uses_convergence_barriers();
                warp
            })
            .collect();
        let base_uid = block_index * u64::from(warps_per_block);

        loop {
            let mut progressed = false;
            for warp in warps.iter_mut() {
                let uid = (base_uid + u64::from(warp.warp_in_block)) & UID_LOW48;
                // Run this warp until it exits or parks at a barrier.
                while !warp.done && !warp.at_barrier {
                    if warp.pc >= kernel.insts.len() {
                        // Walked off the end without an exit: the pipeline
                        // would hang until its watchdog; flag and stop.
                        completed = false;
                        break 'blocks;
                    }
                    if steps >= max_steps {
                        completed = false;
                        break 'blocks;
                    }
                    steps += 1;
                    progressed = true;
                    let inst = &kernel.insts[warp.pc];
                    let pc = warp.pc;
                    let seq = warp.seq;
                    warp.seq += 1;
                    if inst.op.is_control() {
                        let _ = exec::execute_control(warp, inst);
                        if record {
                            log.push(uid, seq, None);
                        }
                    } else {
                        let mask = warp.guard_mask(inst.guard);
                        warp.pc += 1;
                        let mut ectx = ExecCtx {
                            global: &mut global,
                            shared: &mut shared,
                            params,
                            block: info,
                            addrs: &mut addrs,
                        };
                        exec::execute_data(warp, inst, mask, &mut ectx);
                        if record {
                            let dst_reg = inst.dst_reg();
                            let dst_pred = inst.dst.pred();
                            let values = dst_reg.map_or([0; WARP_SIZE], |r| warp.lanes_of(r));
                            let pred_bits = dst_pred.map_or(0, |p| warp.pred_bits(p));
                            let record = WriteRecord {
                                pc,
                                mask,
                                dst_reg,
                                dst_pred,
                                values,
                                pred_bits,
                            };
                            log.push(uid, seq, Some(record));
                        }
                    }
                }
            }
            if warps.iter().all(|w| w.done) {
                break;
            }
            if warps.iter().all(|w| w.done || w.at_barrier) {
                // Barrier release: everyone arrived (or exited).
                for w in warps.iter_mut() {
                    w.at_barrier = false;
                }
                continue;
            }
            if !progressed {
                // No warp can move and not everyone is at the barrier —
                // a deadlock the pipeline would also hang on.
                completed = false;
                break 'blocks;
            }
        }
        all_warps.extend(warps);
    }

    OracleRun {
        global,
        warps: all_warps,
        log,
        completed,
    }
}

/// Everything [`run_oracle`] reads, held by value: a run of an input that
/// [`matches`](Self::matches) it is the run this key's input produced.
struct RunKey {
    insts: Vec<Instruction>,
    num_regs: u16,
    shared_bytes: u32,
    param_words: u16,
    dims: KernelDims,
    params: Vec<u32>,
    global: GlobalMemory,
    record: bool,
}

impl RunKey {
    fn new(
        kernel: &Kernel,
        dims: KernelDims,
        params: &[u32],
        global: &GlobalMemory,
        record: bool,
    ) -> RunKey {
        RunKey {
            insts: kernel.insts.clone(),
            num_regs: kernel.num_regs,
            shared_bytes: kernel.shared_bytes,
            param_words: kernel.param_words,
            dims,
            params: params.to_vec(),
            global: global.clone(),
            record,
        }
    }

    /// Whether a run over these inputs reads exactly what this key's did.
    /// The name and the control bits are left out: neither reaches the
    /// oracle but through `Kernel::validate`, which the launch has already
    /// passed. Destructured in full, so a new field of `Kernel` does not
    /// compile here until it is classified.
    fn matches(
        &self,
        kernel: &Kernel,
        dims: KernelDims,
        params: &[u32],
        global: &GlobalMemory,
        record: bool,
    ) -> bool {
        let Kernel {
            name: _,
            insts,
            num_regs,
            shared_bytes,
            param_words,
            ctrl: _,
        } = kernel;
        self.record == record
            && self.dims == dims
            && (self.num_regs, self.shared_bytes, self.param_words)
                == (*num_regs, *shared_bytes, *param_words)
            && self.params == params
            && self.insts.len() == insts.len()
            && self
                .insts
                .iter()
                .zip(insts)
                .all(|(a, b)| executes_alike(a, b))
            && self.global == *global
    }
}

/// Whether two instructions have the same semantics: every field but the
/// write-back hint, which only routes a result through the collectors.
/// Destructured in full, like [`RunKey::matches`].
fn executes_alike(a: &Instruction, b: &Instruction) -> bool {
    let Instruction {
        op,
        guard,
        dst,
        srcs,
        mem,
        target,
        hint: _,
    } = a;
    (*op, *guard, *dst, *mem, *target) == (b.op, b.guard, b.dst, b.mem, b.target) && *srcs == b.srcs
}

thread_local! {
    /// How many [`share_runs`] scopes are open on this thread.
    static SCOPES: Cell<u32> = const { Cell::new(0) };
    /// Inside a scope, the last run [`run_oracle_once`] computed on this
    /// thread, with its key.
    static LAST_RUN: RefCell<Option<(RunKey, Rc<OracleRun>)>> = const { RefCell::new(None) };
}

/// Runs `f` with oracle runs shared on this thread: in `f`, a checked
/// launch whose inputs match the previous checked launch's takes that
/// launch's oracle run instead of interpreting the kernel again. The
/// shared run is dropped when the outermost scope returns or unwinds;
/// outside every scope each checked launch runs the oracle afresh.
pub fn share_runs<T>(f: impl FnOnce() -> T) -> T {
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            let open = SCOPES.get() - 1;
            SCOPES.set(open);
            if open == 0 {
                LAST_RUN.take();
            }
        }
    }
    SCOPES.set(SCOPES.get() + 1);
    let _scope = Scope;
    f()
}

/// [`run_oracle`] over a copy of `global`; inside [`share_runs`], through
/// a one-entry memo per thread: a call whose inputs match the previous
/// call's returns that call's run. Debug builds recompute every hit and
/// assert it is the same run.
pub(crate) fn run_oracle_once(
    kernel: &Kernel,
    dims: KernelDims,
    params: &[u32],
    global: &GlobalMemory,
    record: bool,
) -> Rc<OracleRun> {
    if SCOPES.get() == 0 {
        return Rc::new(run_oracle(kernel, dims, params, global.clone(), record));
    }
    LAST_RUN.with(|last| {
        let mut last = last.borrow_mut();
        if let Some((key, run)) = last.as_ref() {
            if key.matches(kernel, dims, params, global, record) {
                if cfg!(debug_assertions) {
                    let fresh = run_oracle(kernel, dims, params, global.clone(), record);
                    debug_assert!(**run == fresh, "the memo's run differs from a fresh one");
                }
                return Rc::clone(run);
            }
        }
        // Drop the old run first, so a miss never holds two.
        *last = None;
        let run = Rc::new(run_oracle(kernel, dims, params, global.clone(), record));
        let key = RunKey::new(kernel, dims, params, global, record);
        *last = Some((key, Rc::clone(&run)));
        run
    })
}

/// One pipeline-vs-oracle mismatch, pinned to a dynamic instruction.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Schedule-independent warp uid (`uid & UID_LOW48`).
    pub uid: u64,
    /// Per-warp dynamic sequence number of the diverging instruction.
    pub seq: u64,
    /// Program counter of the diverging instruction (pipeline side).
    pub pc: usize,
    /// First mismatching lane.
    pub lane: usize,
    /// What the oracle produced (register value or predicate bit).
    pub expected: u32,
    /// What the pipeline produced.
    pub actual: u32,
    /// Human-readable mismatch class: `"reg"`, `"pred"`, `"mask"`, or
    /// `"missing"` (the oracle never executed this instruction).
    pub kind: &'static str,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lockstep divergence at warp uid={} seq={} pc={}: {} mismatch \
             (lane {}, oracle={:#x}, pipeline={:#x})",
            self.uid, self.seq, self.pc, self.kind, self.lane, self.expected, self.actual
        )
    }
}

/// A probe that checks every executed instruction's destination values
/// against an oracle [`WriteLog`] and keeps the earliest divergence.
///
/// "Earliest" means smallest per-warp `seq` (ties broken by uid): the
/// first architecturally wrong instruction of the most-progressed warp is
/// where debugging starts, regardless of dispatch interleaving.
pub struct LockstepChecker<'a> {
    log: &'a WriteLog,
    /// The earliest divergence seen, if any.
    pub divergence: Option<Divergence>,
    /// Dynamic instructions checked.
    pub checked: u64,
}

/// How a pipelined launch disagreed with the oracle.
#[derive(Clone, Debug)]
pub enum OracleMismatch {
    /// The earliest instruction whose destination values differ.
    Lockstep(Divergence),
    /// Both sides completed, with different data-instruction counts.
    InstructionCount {
        /// Data instructions the pipeline executed.
        pipeline: u64,
        /// Data instructions the oracle executed.
        oracle: u64,
    },
    /// Both sides completed, and some word of global memory differs.
    FinalMemory,
}

impl std::fmt::Display for OracleMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleMismatch::Lockstep(d) => write!(f, "{d}"),
            OracleMismatch::InstructionCount { pipeline, oracle } => write!(
                f,
                "pipeline executed {pipeline} data instructions, oracle executed {oracle}"
            ),
            OracleMismatch::FinalMemory => {
                f.write_str("final global memory diverges from the architectural oracle")
            }
        }
    }
}

/// What a launch under [`GpuConfig::oracle_check`](crate::GpuConfig) found.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// False if the oracle's step watchdog fired or a warp walked off the
    /// kernel: the final-state comparisons were then skipped.
    pub completed: bool,
    /// Dynamic instructions lockstep-checked (0 under `Memory`).
    pub checked: u64,
    /// The first disagreement: a lockstep divergence before an
    /// instruction-count mismatch before a final-memory mismatch.
    pub mismatch: Option<OracleMismatch>,
}

impl OracleReport {
    /// The report as a reference-check verdict: `Err` names the mismatch.
    pub fn verdict(&self) -> Result<(), String> {
        match &self.mismatch {
            Some(m) => Err(format!("oracle check failed: {m}")),
            None => Ok(()),
        }
    }

    /// Judges a finished launch against its oracle `run`: `checker` (under
    /// lockstep) saw its results, `global` is the memory it left.
    pub(crate) fn judge(
        run: &OracleRun,
        checker: Option<LockstepChecker<'_>>,
        pipeline_completed: bool,
        global: &GlobalMemory,
    ) -> OracleReport {
        // Without a checker both counts are 0: `Memory` records no log.
        let both = pipeline_completed && run.completed;
        let checked = checker.as_ref().map_or(0, |c| c.checked);
        let oracle = run.log.len() as u64;
        let mismatch = match checker.and_then(|c| c.divergence) {
            Some(d) => Some(OracleMismatch::Lockstep(d)),
            None if both && checked != oracle => Some(OracleMismatch::InstructionCount {
                pipeline: checked,
                oracle,
            }),
            None if both && *global != run.global => Some(OracleMismatch::FinalMemory),
            None => None,
        };
        OracleReport {
            completed: run.completed,
            checked,
            mismatch,
        }
    }
}

impl<'a> LockstepChecker<'a> {
    /// Creates a checker over an oracle write log.
    pub fn new(log: &'a WriteLog) -> LockstepChecker<'a> {
        LockstepChecker {
            log,
            divergence: None,
            checked: 0,
        }
    }

    fn keep(&mut self, d: Divergence) {
        let better = self
            .divergence
            .as_ref()
            .is_none_or(|cur| (d.seq, d.uid) < (cur.seq, cur.uid));
        if better {
            self.divergence = Some(d);
        }
    }
}

impl Probe for LockstepChecker<'_> {
    /// The checker reads `ExecResult` alone.
    const TRACES: bool = false;

    /// Inlined into every emission site, where the match on the variant
    /// folds away: only an `ExecResult` site calls the check.
    #[inline]
    fn on_event(&mut self, ev: &PipeEvent<'_>) {
        if let PipeEvent::ExecResult { .. } = ev {
            self.check(ev);
        }
    }
}

impl LockstepChecker<'_> {
    /// Checks one `ExecResult` against the log.
    fn check(&mut self, ev: &PipeEvent<'_>) {
        let PipeEvent::ExecResult {
            uid,
            pc,
            seq,
            dst_reg,
            dst_pred,
            mask,
            pred_bits,
            values,
        } = *ev
        else {
            return;
        };
        let uid = uid & UID_LOW48;
        self.checked += 1;
        // `(lane, oracle, pipeline, kind)` of the first mismatch.
        let mismatch = match self.log.get(uid, seq) {
            None => Some((0, 0, 0, "missing")),
            Some(rec) if rec.mask != mask || rec.pc != pc => Some((0, rec.mask, mask, "mask")),
            Some(rec) => {
                // The lanes under `mask` whose register value differs, as
                // a mask of its own (a whole-warp compare).
                let differs = match (dst_reg, <&[u32; WARP_SIZE]>::try_from(values)) {
                    (None, _) => 0,
                    (Some(_), Ok(got)) => differing_lanes(&rec.values, |lane| got[lane]),
                    (Some(_), Err(_)) => {
                        differing_lanes(&rec.values, |lane| values.get(lane).copied().unwrap_or(0))
                    }
                } & mask;
                let reg = (differs != 0).then(|| {
                    let lane = differs.trailing_zeros() as usize;
                    let got = values.get(lane).copied().unwrap_or(0);
                    (lane, rec.values[lane], got, "reg")
                });
                let pred_diff = (rec.pred_bits ^ pred_bits) & mask;
                reg.or_else(|| {
                    let lane = pred_diff.trailing_zeros() as usize;
                    (dst_pred.is_some() && pred_diff != 0).then(|| {
                        let bit = |bits: u32| (bits >> lane) & 1;
                        (lane, bit(rec.pred_bits), bit(pred_bits), "pred")
                    })
                })
            }
        };
        if let Some((lane, expected, actual, kind)) = mismatch {
            self.keep(Divergence {
                uid,
                seq,
                pc,
                lane,
                expected,
                actual,
                kind,
            });
        }
    }
}

/// The lanes whose `got` value differs from `expected`, one bit each.
#[inline]
fn differing_lanes(expected: &[u32; WARP_SIZE], got: impl Fn(usize) -> u32) -> u32 {
    (0..WARP_SIZE).fold(0, |bits, lane| {
        bits | u32::from(expected[lane] != got(lane)) << lane
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Opcode, Operand, Special};

    fn tid_square_kernel() -> Kernel {
        // out[gtid] = gtid * gtid, via global stores.
        let r = Reg::r;
        KernelBuilder::new("sq")
            .s2r(r(0), Special::TidX)
            .s2r(r(1), Special::CtaidX)
            .s2r(r(2), Special::NtidX)
            .imad(r(0), r(1).into(), r(2).into(), r(0).into())
            .imul(r(4), r(0).into(), r(0).into())
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(3), r(3).into(), Operand::Imm(0x1000))
            .stg(r(3), 0, r(4).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn oracle_computes_final_memory() {
        let k = tid_square_kernel();
        let run = run_oracle(
            &k,
            KernelDims::linear(2, 64),
            &[],
            GlobalMemory::new(),
            false,
        );
        assert!(run.completed);
        assert!(run.log.is_empty());
        for i in 0..128u64 {
            assert_eq!(
                run.global.read_u32(0x1000 + i * 4),
                (i * i) as u32,
                "out[{i}]"
            );
        }
        assert_eq!(run.warps.len(), 4);
        assert!(run.warps.iter().all(|w| w.done));
    }

    #[test]
    fn oracle_records_write_log_per_instruction() {
        let k = tid_square_kernel();
        let run = run_oracle(
            &k,
            KernelDims::linear(1, 32),
            &[],
            GlobalMemory::new(),
            true,
        );
        assert!(run.completed);
        // 8 data instructions for the single warp (seq 0..8; exit is 8).
        assert_eq!(run.log.len(), 8);
        let imul = run.log.get(0, 4).expect("imul record");
        assert_eq!(imul.pc, 4);
        assert_eq!(imul.values[5], 25, "lane 5 squares its tid");
    }

    /// Thread t writes t to shared[t], barriers, reads shared[t^1] and
    /// stores it to `0x2000 + 4t`. The barrier is instruction 3 and the
    /// exit instruction 10; the other nine are data instructions.
    fn exchange_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("xchg")
            .shared_bytes(256)
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .bar()
            .xor(r(2), r(0).into(), Operand::Imm(1))
            .shl(r(2), r(2).into(), Operand::Imm(2))
            .lds(r(4), r(2), 0)
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(3), r(3).into(), Operand::Imm(0x2000))
            .stg(r(3), 0, r(4).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn oracle_handles_barrier_communication() {
        let run = run_oracle(
            &exchange_kernel(),
            KernelDims::linear(1, 64),
            &[],
            GlobalMemory::new(),
            false,
        );
        assert!(run.completed);
        for t in 0..64u64 {
            assert_eq!(run.global.read_u32(0x2000 + t * 4), (t ^ 1) as u32);
        }
    }

    #[test]
    fn oracle_flags_runaway_kernels() {
        let r = Reg::r;
        let spin = KernelBuilder::new("spin")
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .bra("top")
            .exit()
            .build()
            .unwrap();
        // A tight infinite loop must trip the watchdog, not hang.
        let run = run_oracle_bounded(
            &spin,
            KernelDims::linear(1, 32),
            &[],
            GlobalMemory::new(),
            false,
            10_000,
        );
        assert!(!run.completed);
    }

    #[test]
    fn lockstep_checker_flags_a_corrupted_record() {
        let k = tid_square_kernel();
        let run = run_oracle(
            &k,
            KernelDims::linear(1, 32),
            &[],
            GlobalMemory::new(),
            true,
        );
        // Replay the oracle's own log through the checker: clean.
        let mut clean = LockstepChecker::new(&run.log);
        for (uid, seq, rec) in run.log.iter() {
            clean.on_event(&PipeEvent::ExecResult {
                uid,
                pc: rec.pc,
                seq,
                dst_reg: rec.dst_reg,
                dst_pred: rec.dst_pred,
                mask: rec.mask,
                pred_bits: rec.pred_bits,
                values: &rec.values,
            });
        }
        assert!(clean.divergence.is_none());
        assert_eq!(clean.checked, run.log.len() as u64);

        // Corrupt one lane of one record: flagged, with lane pinpointed.
        let mut bad = LockstepChecker::new(&run.log);
        for (uid, seq, rec) in run.log.iter() {
            let mut values = rec.values;
            if seq == 4 && rec.dst_reg.is_some() {
                values[7] ^= 0xdead;
            }
            bad.on_event(&PipeEvent::ExecResult {
                uid,
                pc: rec.pc,
                seq,
                dst_reg: rec.dst_reg,
                dst_pred: rec.dst_pred,
                mask: rec.mask,
                pred_bits: rec.pred_bits,
                values: &values,
            });
        }
        let d = bad.divergence.expect("corruption detected");
        assert_eq!(d.seq, 4);
        assert_eq!(d.lane, 7);
        assert_eq!(d.kind, "reg");
    }

    /// The write log of [`exchange_kernel`] over two blocks of two warps.
    fn exchange_log() -> WriteLog {
        let run = run_oracle(
            &exchange_kernel(),
            KernelDims::linear(2, 64),
            &[],
            GlobalMemory::new(),
            true,
        );
        assert!(run.completed);
        run.log
    }

    /// The checker's verdict on one `ExecResult` with this key.
    fn check_one(log: &WriteLog, uid: u64, seq: u64, rec: &WriteRecord) -> Option<Divergence> {
        let mut checker = LockstepChecker::new(log);
        checker.on_event(&PipeEvent::ExecResult {
            uid,
            pc: rec.pc,
            seq,
            dst_reg: rec.dst_reg,
            dst_pred: rec.dst_pred,
            mask: rec.mask,
            pred_bits: rec.pred_bits,
            values: &rec.values,
        });
        assert_eq!(checker.checked, 1);
        checker.divergence
    }

    #[test]
    fn write_log_hits_a_data_instruction_of_any_sm() {
        let log = exchange_log();
        // Warp 3 is block 1's second warp: lane 5 is thread 37.
        let xor = log.get(3, 4).expect("the xor of warp 3");
        assert_eq!((xor.pc, xor.mask), (4, u32::MAX));
        assert_eq!(xor.dst_reg, Some(Reg::r(2)));
        assert_eq!(xor.values[5], 37 ^ 1);
        // Which SM ran the warp is masked away.
        assert!(check_one(&log, 3, 4, xor).is_none());
        assert!(check_one(&log, 3 | 5 << 48, 4, xor).is_none());
    }

    #[test]
    fn write_log_misses_an_unknown_warp() {
        let log = exchange_log();
        let xor = log.get(3, 4).expect("the xor of warp 3").clone();
        assert!(log.get(4, 4).is_none());
        assert!(log.get(UID_LOW48, 4).is_none());
        let d = check_one(&log, 4, 4, &xor).expect("no warp 4");
        assert_eq!((d.uid, d.seq, d.kind), (4, 4, "missing"));
    }

    #[test]
    fn write_log_misses_past_the_row_and_on_control() {
        let log = exchange_log();
        let xor = log.get(0, 4).expect("the xor of warp 0").clone();
        // The barrier, the exit, and one past the exit.
        for seq in [3, 10, 11, u64::MAX] {
            assert!(log.get(0, seq).is_none(), "seq {seq}");
            let d = check_one(&log, 0, seq, &xor).expect("no record");
            assert_eq!(d.kind, "missing", "seq {seq}");
        }
    }

    #[test]
    fn write_log_counts_data_instructions_only() {
        let log = exchange_log();
        assert_eq!(log.warps(), 4);
        assert_eq!(log.len(), 4 * 9, "the barrier and the exit are no records");
        assert!(!log.is_empty());
        let unrecorded = run_oracle(
            &exchange_kernel(),
            KernelDims::linear(2, 64),
            &[],
            GlobalMemory::new(),
            false,
        );
        assert!(unrecorded.log.is_empty());
        assert_eq!((unrecorded.log.warps(), unrecorded.log.len()), (0, 0));
    }

    /// Lanes below 16 skip an add behind a guarded branch; every lane
    /// loads the word at `param0 + 4 * tid`, adds and stores it back.
    fn memo_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("memo")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .mov_imm(r(2), 0)
            .isetp(
                bow_isa::CmpOp::Lt,
                Pred::p(0),
                r(0).into(),
                Operand::Imm(16),
            )
            .bra_if(Pred::p(0), false, "skip")
            .iadd(r(2), r(0).into(), Operand::Imm(5))
            .label("skip")
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(3).into())
            .ldg(r(4), r(1), 0)
            .iadd(r(4), r(4).into(), r(2).into())
            .stg(r(1), 0, r(4).into())
            .exit()
            .build()
            .unwrap()
    }

    /// A launch's inputs, as [`run_oracle_once`] takes them.
    #[derive(Clone)]
    struct Launch {
        kernel: Kernel,
        dims: KernelDims,
        params: Vec<u32>,
        global: GlobalMemory,
        record: bool,
    }

    impl Launch {
        fn base() -> Launch {
            let mut global = GlobalMemory::new();
            global.write_slice_u32(0x1000, &(0..64).collect::<Vec<u32>>());
            Launch {
                kernel: memo_kernel(),
                dims: KernelDims::linear(1, 64),
                params: vec![0x1000],
                global,
                record: true,
            }
        }

        fn run(&self) -> Rc<OracleRun> {
            let (k, p) = (&self.kernel, &self.params);
            run_oracle_once(k, self.dims, p, &self.global, self.record)
        }

        fn fresh(&self) -> OracleRun {
            let (k, p) = (&self.kernel, &self.params);
            run_oracle(k, self.dims, p, self.global.clone(), self.record)
        }
    }

    #[test]
    fn launches_differing_in_hints_control_bits_or_name_share_one_run() {
        share_runs(hints_control_bits_and_name_share_one_run);
    }

    fn hints_control_bits_and_name_share_one_run() {
        let base = Launch::base();
        let first = base.run();
        let mut other = base.clone();
        other.kernel.name = "renamed".into();
        for inst in &mut other.kernel.insts {
            inst.hint = bow_isa::WritebackHint::BocOnly;
        }
        let stall = bow_isa::ctrl::CtrlBits {
            stall: 7,
            ..Default::default()
        };
        other.kernel.ctrl = vec![stall; other.kernel.insts.len()];
        assert!(Rc::ptr_eq(&first, &other.run()), "a second run was made");
        assert!(Rc::ptr_eq(&first, &base.run()));
        assert!(*first == base.fresh());
    }

    #[test]
    fn any_input_the_oracle_reads_recomputes() {
        share_runs(every_read_input_recomputes);
    }

    fn every_read_input_recomputes() {
        let base = Launch::base();
        let bra = base.kernel.insts.iter().position(|i| i.op == Opcode::Bra);
        let bra = bra.expect("a branch");
        assert_eq!(
            base.kernel.insts[bra + 1].op,
            Opcode::IAdd,
            "the add it skips"
        );
        type Change = fn(&mut Launch, usize);
        let changes: [(&str, Change); 10] = [
            ("operand", |l, pc| {
                l.kernel.insts[pc + 1].srcs[1] = Operand::Imm(6)
            }),
            ("guard", |l, pc| {
                let guard = l.kernel.insts[pc].guard.as_mut().expect("guarded");
                guard.negated = true;
            }),
            ("target", |l, pc| l.kernel.insts[pc].target = Some(pc + 1)),
            ("param word", |l, _| l.params[0] = 0x1100),
            ("input word", |l, _| l.global.write_u32(0x1008, 99)),
            ("dims", |l, _| l.dims = KernelDims::linear(2, 32)),
            ("shared bytes", |l, _| l.kernel.shared_bytes = 256),
            ("register count", |l, _| l.kernel.num_regs += 1),
            ("parameter count", |l, _| l.kernel.param_words += 1),
            ("recording", |l, _| l.record = false),
        ];
        for (what, change) in changes {
            let mut other = base.clone();
            change(&mut other, bra);
            let first = base.run();
            let second = other.run();
            assert!(!Rc::ptr_eq(&first, &second), "{what}: the run was reused");
            assert!(*second == other.fresh(), "{what}");
            // The memo now holds the changed launch: the base recomputes.
            assert!(!Rc::ptr_eq(&first, &base.run()), "{what}");
        }
    }

    #[test]
    fn runs_are_shared_only_inside_a_scope() {
        let base = Launch::base();
        let held = || LAST_RUN.with(|last| last.borrow().is_some());
        assert!(!Rc::ptr_eq(&base.run(), &base.run()), "outside a scope");
        assert!(!held());
        let first = share_runs(|| {
            let first = base.run();
            // A nested scope shares the outer one's run and keeps it.
            share_runs(|| assert!(Rc::ptr_eq(&first, &base.run())));
            assert!(Rc::ptr_eq(&first, &base.run()), "the inner scope kept it");
            first
        });
        assert!(!held(), "the run outlived its scope");
        assert_eq!(Rc::strong_count(&first), 1);
        let unwound = std::panic::catch_unwind(|| {
            share_runs(|| {
                base.run();
                panic!("a failing cell");
            })
        });
        assert!(unwound.is_err());
        assert!(!held(), "the run outlived an unwound scope");
        assert_eq!(SCOPES.get(), 0);
    }

    #[test]
    fn write_log_iterates_by_warp_then_sequence_number() {
        let log = exchange_log();
        let keys: Vec<(u64, u64)> = log.iter().map(|(uid, seq, _)| (uid, seq)).collect();
        let data = |uid| (0..10).filter(|&seq| seq != 3).map(move |seq| (uid, seq));
        let want: Vec<(u64, u64)> = (0..4).flat_map(data).collect();
        assert_eq!(keys, want);
        for (uid, seq, rec) in log.iter() {
            assert_eq!(rec.pc as u64, seq, "straight-line: seq is the pc");
            assert_eq!(log.get(uid, seq), Some(rec));
        }
        let row: Vec<u64> = log.row(2).map(|(seq, _)| seq).collect();
        assert_eq!(row, [0, 1, 2, 4, 5, 6, 7, 8, 9]);
        assert_eq!(log.row(4).count(), 0);
    }
}

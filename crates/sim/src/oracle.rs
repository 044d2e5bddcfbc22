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
//! detected in the final-memory diff. A launch under
//! [`GpuConfig::oracle_check`](crate::GpuConfig) folds the checker and the
//! final-state comparisons into an [`OracleReport`].
//!
//! The pipeline tags warps with
//! `uid = low48(block_index * warps_per_block + warp_in_block) | sm_id << 48`.
//! Which SM hosts a block is a timing artifact, so lockstep keys mask the
//! SM bits away and match on `(uid & LOW48, seq)` — both sides assign
//! `seq` to every issued instruction (control included) in per-warp
//! program order, which makes the key schedule-independent.

use crate::exec::{self, BlockInfo, ExecCtx};
use crate::probe::{PipeEvent, Probe};
use crate::warp::Warp;
use bow_isa::{Kernel, KernelDims, Pred, Reg, WARP_SIZE};
use bow_mem::{GlobalMemory, SharedMemory};
use std::collections::HashMap;

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
    /// under `mask`). Empty when `dst_reg` is `None`.
    pub values: Vec<u32>,
    /// Per-lane destination predicate bits (meaningful under `mask`).
    pub pred_bits: u32,
}

/// Every data instruction's result, keyed by `(uid & UID_LOW48, seq)`.
pub type WriteLog = HashMap<(u64, u64), WriteRecord>;

/// The outcome of an oracle run.
#[derive(Debug)]
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
    let mut log = WriteLog::new();
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
                            let values = dst_reg.map_or(Vec::new(), |r| warp.lanes_of(r).to_vec());
                            let pred_bits = dst_pred.map_or(0, |p| warp.pred_bits(p));
                            log.insert(
                                (uid, seq),
                                WriteRecord {
                                    pc,
                                    mask,
                                    dst_reg,
                                    dst_pred,
                                    values,
                                    pred_bits,
                                },
                            );
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
    /// Both sides completed with different global-memory fingerprints.
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
            None if both && global.fingerprint() != run.global.fingerprint() => {
                Some(OracleMismatch::FinalMemory)
            }
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
    fn on_event(&mut self, ev: &PipeEvent<'_>) {
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
        let mismatch = match self.log.get(&(uid, seq)) {
            None => Some((0, 0, 0, "missing")),
            Some(rec) if rec.mask != mask || rec.pc != pc => Some((0, rec.mask, mask, "mask")),
            Some(rec) => {
                let mut lanes =
                    (0..WARP_SIZE).filter(|&l| dst_reg.is_some() && mask & (1 << l) != 0);
                let reg = lanes.find_map(|lane| {
                    let exp = rec.values.get(lane).copied().unwrap_or(0);
                    let got = values.get(lane).copied().unwrap_or(0);
                    (exp != got).then_some((lane, exp, got, "reg"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Special};

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
        let imul = run.log.get(&(0, 4)).expect("imul record");
        assert_eq!(imul.pc, 4);
        assert_eq!(imul.values[5], 25, "lane 5 squares its tid");
    }

    #[test]
    fn oracle_handles_barrier_communication() {
        // Thread t writes t to shared[t], barriers, reads shared[t^1].
        let r = Reg::r;
        let k = KernelBuilder::new("xchg")
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
            .unwrap();
        let run = run_oracle(
            &k,
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
        for (&(uid, seq), rec) in &run.log {
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
        for (&(uid, seq), rec) in &run.log {
            let mut values = rec.values.clone();
            if seq == 4 && !values.is_empty() {
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
}

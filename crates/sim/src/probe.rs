//! The unified probe bus: one typed event stream for all instrumentation.
//!
//! Every pipeline stage and collector model reports what it does by
//! emitting a [`PipeEvent`] through [`emit`]. Statistics accumulation
//! ([`SimStats`]), pipeline tracing ([`PipeTrace`]) and the Fig. 3 bypass
//! analyzer ([`BypassAnalyzer`]) are all *subscribers* of that one stream
//! — none of them is wired into the hot loop directly.
//!
//! Two properties make this free:
//!
//! * [`SimStats`] is the always-on first subscriber. [`emit`] applies the
//!   event to it unconditionally; since every counter event is a distinct
//!   enum variant constructed at the emission site, the compiler folds the
//!   construct-then-match pair back into the direct counter increment it
//!   replaced.
//! * External subscribers are gated at *compile time* by
//!   [`Probe::ACTIVE`]. [`Sm::tick`] is generic over the probe, so the
//!   launch path monomorphizes twice: the [`NullProbe`] instantiation
//!   contains no instrumentation code at all (no detail closures, no
//!   string formatting — the costs the pre-stage-graph pipeline paid even
//!   with tracing off), while the instrumented instantiation forwards to
//!   the composed subscribers chosen once per launch.
//!
//! [`SimStats`]: crate::stats::SimStats
//! [`PipeTrace`]: crate::pipetrace::PipeTrace
//! [`BypassAnalyzer`]: crate::trace::BypassAnalyzer
//! [`Sm::tick`]: crate::sm::Sm::tick

use crate::stats::{SimStats, WriteDest};
use bow_isa::{Instruction, Pred, Reg};

/// Why an issue attempt was rejected this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// No collector slot (OCU / window position) was free.
    NoCollector,
    /// The scoreboard blocked on a data hazard.
    Scoreboard,
}

/// One typed pipeline event.
///
/// Variants fall into two families:
///
/// * **Pipeline milestones** (`Issued`, `Issue`, `Control`, `Dispatch`,
///   `Writeback`, `RetiredCompletion`, `WarpExit`) carry full context —
///   cycle, SM, warp, pc, sequence number and a borrow of the
///   instruction — so subscribers like the trace formatter can render
///   them without the stage precomputing anything.
/// * **Counter micro-events** (the field-less / payload-only variants)
///   map one-to-one onto a [`SimStats`] counter increment; they exist so
///   the collector family reports BOW / BOW-WR / RFC activity through
///   the same stream the stages use.
///
/// [`SimStats`]: crate::stats::SimStats
#[derive(Clone, Copy, Debug)]
pub enum PipeEvent<'a> {
    /// An instruction left the scheduler (control or data). Emitted once
    /// per dynamic instruction, in per-warp program order — the stream
    /// the bypass analyzer and trace recorders consume.
    Issued {
        /// Warp id unique across blocks and SMs.
        uid: u64,
        /// Program counter at issue.
        pc: usize,
        /// Active lanes under the current divergence mask.
        active: u32,
        /// The issued instruction.
        inst: &'a Instruction,
    },
    /// A data instruction entered the operand-collection stage.
    Issue {
        /// SM cycle.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Program counter.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// The instruction.
        inst: &'a Instruction,
    },
    /// A control instruction resolved at issue.
    Control {
        /// SM cycle.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Program counter.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// The instruction.
        inst: &'a Instruction,
    },
    /// All operands ready; the instruction left for a functional unit.
    Dispatch {
        /// SM cycle.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Program counter.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// Cycles spent in the operand-collection stage.
        oc_cycles: u64,
        /// Whether this is a memory instruction.
        is_mem: bool,
        /// The instruction.
        inst: &'a Instruction,
    },
    /// A result wrote back (scoreboard released).
    Writeback {
        /// SM cycle.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Program counter.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
    },
    /// Issue→writeback span of a completed instruction (counted even when
    /// the owning warp already retired, matching the timing model).
    ExecSpan {
        /// Whether the instruction was a memory access.
        is_mem: bool,
        /// Cycles from issue to completion.
        span: u64,
    },
    /// A completion arrived for a warp slot that already retired — a
    /// model bug that used to vanish behind a `debug_assert`; now counted.
    RetiredCompletion {
        /// SM cycle.
        cycle: u64,
        /// Warp slot the completion addressed.
        warp: usize,
        /// Program counter of the completed instruction.
        pc: usize,
    },
    /// A warp finished executing (analyzer flush point).
    WarpExit {
        /// Warp id unique across blocks and SMs.
        uid: u64,
    },
    /// The architectural result of one executed data instruction: the
    /// destination values as written, emitted at the execute point. This
    /// is the stream the lockstep oracle checker
    /// ([`LockstepChecker`](crate::oracle::LockstepChecker)) consumes to
    /// pinpoint the first instruction where pipeline and oracle diverge.
    /// Only emitted into `ACTIVE` probes; it is a statistics no-op.
    ExecResult {
        /// Warp id unique across blocks and SMs.
        uid: u64,
        /// Program counter of the executed instruction.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// Destination register, if the instruction writes one.
        dst_reg: Option<Reg>,
        /// Destination predicate, if the instruction writes one.
        dst_pred: Option<Pred>,
        /// Active-lane mask the instruction executed under.
        mask: u32,
        /// Per-lane destination predicate bits (valid under `mask`).
        pred_bits: u32,
        /// Per-lane destination register values (all 32 lanes; compare
        /// only lanes under `mask`). Empty when `dst_reg` is `None`.
        values: &'a [u32],
    },
    /// A control instruction executed, with the divergence context the
    /// race sanitizer ([`Sanitizer`](crate::sanitize::Sanitizer)) needs to
    /// track barrier epochs and divergent-barrier deadlocks. Emitted right
    /// after `execute_control`, only into `ACTIVE` probes; it is a
    /// statistics no-op.
    CtrlTrace {
        /// Warp id unique across blocks and SMs.
        uid: u64,
        /// Program counter of the control instruction.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// Lanes that actually executed it (guard-filtered active mask).
        arrive: u32,
        /// Lanes still live in the warp (valid and not exited).
        live: u32,
        /// Reconvergence-stack depth after execution.
        depth: u32,
        /// A `sync` executed with an empty reconvergence stack.
        sync_underflow: bool,
        /// The control instruction.
        inst: &'a Instruction,
    },
    /// The architectural memory access of one executed data instruction:
    /// the per-lane addresses (and, for stores, the values as written).
    /// This is the stream the race sanitizer keeps shadow memory state
    /// from. Only emitted into `ACTIVE` probes; it is a statistics no-op.
    MemTrace {
        /// Warp id unique across blocks and SMs.
        uid: u64,
        /// Program counter of the memory instruction.
        pc: usize,
        /// Per-warp dynamic sequence number.
        seq: u64,
        /// Whether the access writes memory.
        is_store: bool,
        /// Whether it targets shared (true) or global (false) memory.
        shared: bool,
        /// Active-lane mask the access executed under.
        mask: u32,
        /// One address per set bit of `mask`, in ascending lane order.
        addrs: &'a [u64],
        /// For stores: one written value per set bit of `mask`, aligned
        /// with `addrs`. Empty for loads.
        values: &'a [u32],
    },
    /// Issue scans found warps held for `kind`: `count` rejected issue
    /// attempts, one per held warp per scan. A ticked cycle emits one per
    /// kind per scan; a span of skipped quiet cycles, each of whose one
    /// scan per scheduler finds the same warps held, emits one per kind
    /// per scheduler for the whole span (`held × span`). Never emitted
    /// with `count` 0.
    Stalls {
        /// Why the warps were held.
        kind: StallKind,
        /// Held warps in the scan.
        count: u64,
    },
    /// An instruction with this many unique register sources entered the
    /// collection stage (Fig. 8 histogram).
    SrcRegs(usize),
    /// A source read was served by the bypass network instead of the RF.
    BypassedRead,
    /// A source read hit the register-file cache (RFC baseline).
    RfcRead,
    /// A writeback into the register-file cache (RFC baseline).
    RfcWrite,
    /// The pipeline produced a register writeback (before routing).
    WriteProduced,
    /// A writeback (or eviction) reached the register-file banks.
    RfWriteRouted,
    /// A writeback never reached the banks (eliminated write).
    BypassedWrite,
    /// A value landed in a bypassing operand collector's buffer.
    BocWrite,
    /// Fig. 7 classification of a BOW-WR writeback.
    WriteDestClass(WriteDest),
    /// A dirty entry was evicted early because the buffer was full.
    ForcedEviction,
    /// Fig. 9 occupancy sample: `live` buffered values in a busy BOC with
    /// `cap` histogram buckets.
    OccupancySample {
        /// Buffered values in the window.
        live: usize,
        /// Histogram saturation bucket.
        cap: usize,
    },
}

/// A subscriber on the probe bus.
///
/// Implementations receive every event a monomorphized pipeline emits.
/// Set `ACTIVE = false` (as [`NullProbe`] does) to tell [`emit`] — at
/// compile time — that `on_event` is a no-op, removing all subscriber
/// code from that pipeline instantiation.
pub trait Probe {
    /// Whether this subscriber consumes events at all.
    const ACTIVE: bool = true;

    /// Handles one pipeline event.
    fn on_event(&mut self, ev: &PipeEvent<'_>);
}

/// The zero-cost disabled probe: `ACTIVE = false`, so [`emit`] compiles
/// down to the bare [`SimStats`] counter update.
///
/// [`SimStats`]: crate::stats::SimStats
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn on_event(&mut self, _ev: &PipeEvent<'_>) {}
}

/// Emits one event: statistics always accumulate; the external probe is
/// forwarded to only when its `ACTIVE` constant says it consumes events.
#[inline(always)]
pub fn emit<P: Probe>(stats: &mut SimStats, probe: &mut P, ev: PipeEvent<'_>) {
    stats.apply(&ev);
    if P::ACTIVE {
        probe.on_event(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe that records which variants it saw.
    #[derive(Default)]
    struct Recorder {
        names: Vec<&'static str>,
    }

    impl Probe for Recorder {
        fn on_event(&mut self, ev: &PipeEvent<'_>) {
            self.names.push(match ev {
                PipeEvent::BypassedRead => "read",
                PipeEvent::BypassedWrite => "write",
                _ => "other",
            });
        }
    }

    #[test]
    fn emit_always_applies_stats() {
        let mut st = SimStats::default();
        let mut p = NullProbe;
        emit(&mut st, &mut p, PipeEvent::BypassedRead);
        emit(
            &mut st,
            &mut p,
            PipeEvent::Stalls {
                kind: StallKind::Scoreboard,
                count: 3,
            },
        );
        assert_eq!(st.bypassed_reads, 1);
        assert_eq!(st.stall_scoreboard, 3);
        assert_eq!(st.stall_no_collector, 0);
    }

    #[test]
    fn emit_forwards_to_active_probes() {
        let mut st = SimStats::default();
        let mut rec = Recorder::default();
        emit(&mut st, &mut rec, PipeEvent::BypassedRead);
        emit(&mut st, &mut rec, PipeEvent::BypassedWrite);
        assert_eq!(rec.names, ["read", "write"]);
        assert_eq!(st.bypassed_reads, 1);
        assert_eq!(st.bypassed_writes, 1);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_probe_is_inactive() {
        assert!(!NullProbe::ACTIVE);
        assert!(Recorder::ACTIVE, "default is active");
    }
}

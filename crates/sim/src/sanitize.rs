//! The dynamic race sanitizer: a [`Probe`] that shadows every shared- and
//! global-memory word with last-accessor provenance plus a per-warp
//! barrier-epoch counter, and reports intra-CTA data races, reads of
//! never-initialized shared memory, divergent barriers and related
//! dynamic hazards.
//!
//! The sanitizer rides the same probe seam as
//! [`LockstepChecker`](crate::oracle::LockstepChecker): subscribe it to a
//! launch (or set [`GpuConfig::sanitize`](crate::GpuConfig) and read
//! [`LaunchResult::sanitizer`](crate::LaunchResult)) and it folds the
//! instrumented event stream — [`PipeEvent::MemTrace`],
//! [`PipeEvent::CtrlTrace`] and [`PipeEvent::ExecResult`] — into a
//! deduplicated, canonically ordered [`SanitizerReport`]. With the flag
//! off the whole subscriber monomorphizes out through [`NullProbe`]
//! exactly like every other probe, so golden fingerprints are unchanged.
//!
//! ## Detection rules
//!
//! *Barrier epochs.* Each warp's epoch is the number of `bar` instructions
//! it has executed. Two accesses can only race when they fall in the same
//! epoch of the same CTA — a barrier between them orders them.
//!
//! *Races.* Two same-epoch accesses to the same word conflict when at
//! least one is a store and the accessors are unordered: different warps,
//! different **lanes** of one warp across different instructions
//! (warp-synchronous programming is not assumed safe — on hardware with
//! independent thread scheduling an unfenced cross-lane exchange is a real
//! race), or different lanes of one instruction. Only a same-lane pair is
//! program-ordered. Write-write pairs storing the **same** value are not
//! reported: value-convergent races (e.g. level-synchronous BFS marking a
//! node from several edges) are architecturally benign under any
//! interleaving. Cross-CTA global conflicts are out of scope — blocks are
//! not ordered by barriers at all, and the repository's kernels partition
//! global memory per CTA.
//!
//! *Uninitialized reads.* A shared-memory load from a word no store in the
//! CTA has written observes spawn-state zeros; a data source register read
//! by a **lane** that never wrote it likewise (register shadows are
//! per-lane, so a guarded write on one divergent arm does not launder the
//! other arm's lanes).
//!
//! *Control hazards.* A `bar` whose arriving lane mask differs from the
//! warp's live lanes is a divergent barrier (a real GPU deadlocks); a
//! `sync` with an empty reconvergence stack underflows it.
//!
//! *Hint violations.* Each warp's register accesses replay through an
//! [`ArchWindow`] of the collector's window size, under the kernel's
//! write-back hints: a `.wb.boc` value is resident while `seq −
//! last_touch < window`, reads re-touch it, and once it evicts dirty it
//! is gone. A read whose active lanes observe a snapshot older than their
//! newest write is a stale read — the dynamic mirror of the static B010
//! lint. Lanes are judged individually, so a read under a mask disjoint
//! from the dropped definition's (the complementary arm of a diverged
//! branch) observes the older architectural value it is entitled to and
//! is exempt — the same mask-disjointness refinement the static verifier
//! applies. An instruction whose guard holds on no lane is replayed too:
//! it still takes its window slot, so its reads re-touch and its write
//! replaces the buffered snapshot, exactly as in the collector. Such a
//! write revives no value the window already dropped: the lanes it
//! leaves alone keep the copy the window or the register file still
//! held.
//!
//! [`NullProbe`]: crate::probe::NullProbe

use crate::oracle::UID_LOW48;
use crate::probe::{PipeEvent, Probe};
use crate::trace::ArchWindow;
use bow_isa::{Kernel, Opcode, WARP_SIZE};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// One dynamic finding. Variant order is severity order: races first,
/// then uninitialized data, then control hazards, then advisory hint
/// violations — [`SanitizerReport::findings`] sorts by it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SanitizerFinding {
    /// Two same-epoch accesses to one word, distinct accessors, ≥1 store.
    Race {
        /// Shared (true) or global (false) memory.
        shared: bool,
        /// CTA (block index) both accessors belong to.
        cta: u64,
        /// The racing word address.
        addr: u64,
        /// First access in canonical order: `(pc, uid)`-smaller side.
        first_pc: usize,
        /// Whether the first access is a store.
        first_write: bool,
        /// Second access.
        second_pc: usize,
        /// Whether the second access is a store.
        second_write: bool,
        /// Barrier epoch the conflict fell in.
        epoch: u32,
        /// Schedule-independent warp uid of the first access.
        first_uid: u64,
        /// Warp uid of the second access.
        second_uid: u64,
    },
    /// A shared-memory load from a word no store in the CTA ever wrote.
    UninitShared {
        /// CTA of the reader.
        cta: u64,
        /// The never-written word.
        addr: u64,
        /// Program counter of the load.
        pc: usize,
        /// Warp uid of the reader.
        uid: u64,
    },
    /// A data source register read before any instruction wrote it.
    UninitReg {
        /// Register index.
        reg: u8,
        /// Program counter of the reader.
        pc: usize,
        /// Warp uid of the reader.
        uid: u64,
    },
    /// A `bar` arrived at by fewer lanes than the warp has live.
    DivergentBarrier {
        /// CTA of the warp.
        cta: u64,
        /// Program counter of the barrier.
        pc: usize,
        /// Lane mask that arrived.
        arrive: u32,
        /// Live (valid and not exited) lane mask.
        live: u32,
        /// Warp uid.
        uid: u64,
    },
    /// A `sync` executed with an empty reconvergence stack.
    BrokenSync {
        /// Program counter of the sync.
        pc: usize,
        /// Warp uid.
        uid: u64,
    },
    /// A read of a `.wb.boc` value the operand window had already dropped.
    HintViolation {
        /// Register carrying the transient value.
        reg: u8,
        /// Program counter of the lost definition.
        def_pc: usize,
        /// Program counter of the stale read.
        use_pc: usize,
        /// Dynamic instruction distance between them.
        distance: u64,
        /// Warp uid.
        uid: u64,
    },
}

impl SanitizerFinding {
    /// Short stable kind tag (used by campaign JSON and static mapping).
    pub fn kind(&self) -> &'static str {
        match self {
            SanitizerFinding::Race { .. } => "race",
            SanitizerFinding::UninitShared { .. } => "uninit-shared",
            SanitizerFinding::UninitReg { .. } => "uninit-reg",
            SanitizerFinding::DivergentBarrier { .. } => "divergent-bar",
            SanitizerFinding::BrokenSync { .. } => "broken-sync",
            SanitizerFinding::HintViolation { .. } => "hint-violation",
        }
    }

    /// The dedup identity: the finding with warp/epoch/distance detail
    /// zeroed, so one report survives per distinct program location.
    fn dedup_key(&self) -> SanitizerFinding {
        let mut k = self.clone();
        match &mut k {
            SanitizerFinding::Race {
                addr,
                epoch,
                first_uid,
                second_uid,
                ..
            } => {
                *addr = 0;
                *epoch = 0;
                *first_uid = 0;
                *second_uid = 0;
            }
            SanitizerFinding::UninitShared { addr, uid, .. } => {
                *addr = 0;
                *uid = 0;
            }
            SanitizerFinding::UninitReg { uid, .. } | SanitizerFinding::BrokenSync { uid, .. } => {
                *uid = 0
            }
            SanitizerFinding::DivergentBarrier {
                arrive, live, uid, ..
            } => {
                *arrive = 0;
                *live = 0;
                *uid = 0;
            }
            SanitizerFinding::HintViolation { distance, uid, .. } => {
                *distance = 0;
                *uid = 0;
            }
        }
        k
    }
}

impl fmt::Display for SanitizerFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rw(w: bool) -> &'static str {
            if w {
                "store"
            } else {
                "load"
            }
        }
        match *self {
            SanitizerFinding::Race {
                shared,
                cta,
                addr,
                first_pc,
                first_write,
                second_pc,
                second_write,
                epoch,
                first_uid,
                second_uid,
            } => write!(
                f,
                "race: {} word {addr:#x} cta {cta} epoch {epoch}: \
                 {}@pc{first_pc} (warp {first_uid}) vs {}@pc{second_pc} (warp {second_uid})",
                if shared { "shared" } else { "global" },
                rw(first_write),
                rw(second_write),
            ),
            SanitizerFinding::UninitShared { cta, addr, pc, uid } => write!(
                f,
                "uninit-shared: read of never-written shared word {addr:#x} \
                 cta {cta} at pc{pc} (warp {uid})"
            ),
            SanitizerFinding::UninitReg { reg, pc, uid } => write!(
                f,
                "uninit-reg: r{reg} read before any write at pc{pc} (warp {uid})"
            ),
            SanitizerFinding::DivergentBarrier {
                cta,
                pc,
                arrive,
                live,
                uid,
            } => write!(
                f,
                "divergent-bar: bar at pc{pc} reached by lanes {arrive:#010x} \
                 of live {live:#010x} (warp {uid}, cta {cta})"
            ),
            SanitizerFinding::BrokenSync { pc, uid } => write!(
                f,
                "broken-sync: sync with empty reconvergence stack at pc{pc} (warp {uid})"
            ),
            SanitizerFinding::HintViolation {
                reg,
                def_pc,
                use_pc,
                distance,
                uid,
            } => write!(
                f,
                "hint-violation: .wb.boc r{reg} defined at pc{def_pc} consumed \
                 at pc{use_pc} after {distance} instructions (warp {uid})"
            ),
        }
    }
}

/// The outcome of a sanitized launch: deduplicated findings in canonical
/// order (severity, then location — independent of dispatch interleaving).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// All findings, canonically ordered.
    pub findings: Vec<SanitizerFinding>,
}

impl SanitizerReport {
    /// True when the launch produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// A stable multi-line rendering, one finding per line (golden-file
    /// friendly: byte-identical across thread counts and repeat runs).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for fd in &self.findings {
            s.push_str(&fd.to_string());
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One recorded access in the per-word shadow state.
#[derive(Clone, Copy)]
struct Access {
    uid: u64,
    lane: u32,
    cta: u64,
    pc: usize,
    seq: u64,
    epoch: u32,
    value: u32,
}

/// Shadow state of one aligned 32-bit word.
#[derive(Clone, Copy, Default)]
struct WordShadow {
    last_write: Option<Access>,
    last_read: Option<Access>,
    written: bool,
}

/// The sanitizer probe. Create with [`Sanitizer::new`], subscribe via
/// [`Gpu::launch_with_probe`](crate::Gpu::launch_with_probe) (or let
/// [`GpuConfig::sanitize`](crate::GpuConfig) attach it), then call
/// [`Sanitizer::finish`] for the report.
pub struct Sanitizer<'k> {
    kernel: &'k Kernel,
    warps_per_block: u64,
    /// Collector window span for `.wb.boc` hint checking; `None` when the
    /// collector model has no nominal window.
    window: Option<u32>,
    /// Executed-`bar` count per warp (uid & low48).
    epochs: HashMap<u64, u32>,
    /// Shared-memory shadow, keyed `(cta, word)`.
    shared: HashMap<(u64, u64), WordShadow>,
    /// Global-memory shadow, keyed by word (conflicts compare CTAs).
    global: HashMap<u64, WordShadow>,
    /// Per-lane register-initialization bitsets (256 registers × 32
    /// lanes per warp): a write only initializes the lanes that were
    /// active, so a divergent-arm def does not cover the join's full mask.
    reg_init: HashMap<u64, Box<[[u64; 4]; WARP_SIZE]>>,
    /// Per-warp `(seq, pc, mask)` of executed data instructions (hint
    /// checking only), replayed at warp exit: results arrive in dispatch
    /// order, but the window slides in program order.
    hint_streams: HashMap<u64, Vec<(u64, usize, u32)>>,
    /// Deduplicated findings, best (smallest) representative per key.
    findings: HashMap<SanitizerFinding, SanitizerFinding>,
}

impl<'k> Sanitizer<'k> {
    /// Creates a sanitizer for one launch of `kernel`.
    ///
    /// `warps_per_block` maps warp uids to CTAs; `window` enables
    /// `.wb.boc` hint checking against the collector's nominal window.
    pub fn new(kernel: &'k Kernel, warps_per_block: u64, window: Option<u32>) -> Sanitizer<'k> {
        Sanitizer {
            kernel,
            warps_per_block: warps_per_block.max(1),
            window,
            epochs: HashMap::new(),
            shared: HashMap::new(),
            global: HashMap::new(),
            reg_init: HashMap::new(),
            hint_streams: HashMap::new(),
            findings: HashMap::new(),
        }
    }

    /// Consumes the sanitizer and returns the canonical report.
    pub fn finish(mut self) -> SanitizerReport {
        // Warps still running when the launch stopped (a watchdog stall)
        // are judged on what they executed.
        for uid in self.hint_streams.keys().copied().collect::<Vec<_>>() {
            self.replay_hints(uid);
        }
        let mut findings: Vec<SanitizerFinding> = self.findings.into_values().collect();
        findings.sort();
        SanitizerReport { findings }
    }

    fn report(&mut self, finding: SanitizerFinding) {
        let key = finding.dedup_key();
        match self.findings.entry(key) {
            Entry::Occupied(mut e) => {
                // Keep the smallest representative so the survivor does
                // not depend on detection order.
                if finding < *e.get() {
                    e.insert(finding);
                }
            }
            Entry::Vacant(e) => {
                e.insert(finding);
            }
        }
    }

    /// Whether two same-word accesses are unordered: different warps, two
    /// lanes of one instruction, or different lanes of one warp across
    /// different instructions (a warp-synchronous exchange — racy under
    /// independent thread scheduling unless a barrier separates it, and
    /// the epoch check has already ruled that out). Only a same-lane pair
    /// is program-ordered.
    fn unordered(a: &Access, b: &Access) -> bool {
        a.uid != b.uid || a.seq == b.seq || a.lane != b.lane
    }

    fn race(
        shared: bool,
        a: &Access,
        a_write: bool,
        b: &Access,
        b_write: bool,
    ) -> SanitizerFinding {
        // Canonical pair order: the (pc, uid)-smaller access first.
        let (first, fw, second, sw) = if (a.pc, a.uid) <= (b.pc, b.uid) {
            (a, a_write, b, b_write)
        } else {
            (b, b_write, a, a_write)
        };
        SanitizerFinding::Race {
            shared,
            cta: first.cta,
            addr: 0, // patched by caller
            first_pc: first.pc,
            first_write: fw,
            second_pc: second.pc,
            second_write: sw,
            epoch: first.epoch.min(second.epoch),
            first_uid: first.uid,
            second_uid: second.uid,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_mem(
        &mut self,
        uid: u64,
        pc: usize,
        seq: u64,
        is_store: bool,
        shared: bool,
        mask: u32,
        addrs: &[u64],
        values: &[u32],
    ) {
        let uidl = uid & UID_LOW48;
        let cta = uidl / self.warps_per_block;
        let epoch = self.epochs.get(&uidl).copied().unwrap_or(0);
        let mut slot = 0usize;
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let addr = addrs.get(slot).copied().unwrap_or(0) & !3;
            let value = if is_store {
                values.get(slot).copied().unwrap_or(0)
            } else {
                0
            };
            slot += 1;
            let acc = Access {
                uid: uidl,
                lane: lane as u32,
                cta,
                pc,
                seq,
                epoch,
                value,
            };
            let shadow = if shared {
                self.shared.entry((cta, addr)).or_default()
            } else {
                self.global.entry(addr).or_default()
            };
            let mut hits: Vec<SanitizerFinding> = Vec::new();
            if is_store {
                if let Some(w) = shadow.last_write {
                    // Write-write: benign when both stores carry the same
                    // value (value-convergent races commute).
                    if w.cta == cta
                        && w.epoch == epoch
                        && Self::unordered(&w, &acc)
                        && w.value != value
                    {
                        hits.push(Self::race(shared, &w, true, &acc, true));
                    }
                }
                if let Some(r) = shadow.last_read {
                    if r.cta == cta && r.epoch == epoch && Self::unordered(&r, &acc) {
                        hits.push(Self::race(shared, &r, false, &acc, true));
                    }
                }
                shadow.last_write = Some(acc);
                shadow.written = true;
            } else {
                let uninit = shared && !shadow.written;
                if let Some(w) = shadow.last_write {
                    if w.cta == cta && w.epoch == epoch && Self::unordered(&w, &acc) {
                        hits.push(Self::race(shared, &w, true, &acc, false));
                    }
                }
                shadow.last_read = Some(acc);
                if uninit {
                    hits.push(SanitizerFinding::UninitShared {
                        cta,
                        addr,
                        pc,
                        uid: uidl,
                    });
                }
            }
            for mut h in hits {
                if let SanitizerFinding::Race { addr: a, .. } = &mut h {
                    *a = addr;
                }
                self.report(h);
            }
        }
    }

    fn on_exec(&mut self, uid: u64, pc: usize, seq: u64, mask: u32) {
        let uidl = uid & UID_LOW48;
        let Some(inst) = self.kernel.insts.get(pc) else {
            return;
        };
        let init = self
            .reg_init
            .entry(uidl)
            .or_insert_with(|| Box::new([[0u64; 4]; WARP_SIZE]));
        let is_set = |lanes: &[[u64; 4]; WARP_SIZE], lane: usize, i: u8| {
            lanes[lane][(i >> 6) as usize] >> (i & 63) & 1 != 0
        };
        let mut uninit: Vec<u8> = Vec::new();
        for r in inst.src_regs() {
            let i = r.index();
            let any_lane_uninit =
                (0..WARP_SIZE).any(|lane| mask & (1 << lane) != 0 && !is_set(init, lane, i));
            if any_lane_uninit {
                uninit.push(i);
            }
        }
        if let Some(d) = inst.dst_reg() {
            let i = d.index();
            for lane in 0..WARP_SIZE {
                if mask & (1 << lane) != 0 {
                    init[lane][(i >> 6) as usize] |= 1u64 << (i & 63);
                }
            }
        }
        for reg in uninit {
            self.report(SanitizerFinding::UninitReg { reg, pc, uid: uidl });
        }
        if self.window.is_some() {
            self.hint_streams
                .entry(uidl)
                .or_default()
                .push((seq, pc, mask));
        }
    }

    /// Replays warp `uidl`'s executed stream, in program order, through an
    /// [`ArchWindow`] of the collector's window size: every stale read is
    /// a hint violation.
    fn replay_hints(&mut self, uidl: u64) {
        let (Some(window), Some(mut stream)) = (self.window, self.hint_streams.remove(&uidl))
        else {
            return;
        };
        stream.sort_unstable();
        ArchWindow::replay(window, self.kernel, &stream, |reg, pc, seq, def| {
            self.report(SanitizerFinding::HintViolation {
                reg,
                def_pc: def.pc,
                use_pc: pc,
                distance: seq - def.seq,
                uid: uidl,
            })
        });
    }

    fn on_ctrl(
        &mut self,
        uid: u64,
        pc: usize,
        arrive: u32,
        live: u32,
        sync_underflow: bool,
        op: Opcode,
    ) {
        let uidl = uid & UID_LOW48;
        if sync_underflow {
            self.report(SanitizerFinding::BrokenSync { pc, uid: uidl });
        }
        if op == Opcode::Bar {
            if arrive != live {
                let cta = uidl / self.warps_per_block;
                self.report(SanitizerFinding::DivergentBarrier {
                    cta,
                    pc,
                    arrive,
                    live,
                    uid: uidl,
                });
            }
            *self.epochs.entry(uidl).or_insert(0) += 1;
        }
    }
}

impl Probe for Sanitizer<'_> {
    fn on_event(&mut self, ev: &PipeEvent<'_>) {
        match *ev {
            PipeEvent::MemTrace {
                uid,
                pc,
                seq,
                is_store,
                shared,
                mask,
                addrs,
                values,
            } => self.on_mem(uid, pc, seq, is_store, shared, mask, addrs, values),
            PipeEvent::ExecResult {
                uid, pc, seq, mask, ..
            } => self.on_exec(uid, pc, seq, mask),
            PipeEvent::CtrlTrace {
                uid,
                pc,
                arrive,
                live,
                sync_underflow,
                inst,
                ..
            } => self.on_ctrl(uid, pc, arrive, live, sync_underflow, inst.op),
            PipeEvent::WarpExit { uid } => self.replay_hints(uid & UID_LOW48),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::config::GpuConfig;
    use crate::gpu::Gpu;
    use bow_isa::{KernelBuilder, KernelDims, Operand, Reg, Special};

    fn sanitize_cfg() -> GpuConfig {
        let mut cfg = GpuConfig::scaled(CollectorKind::Baseline);
        cfg.sanitize = true;
        cfg
    }

    fn run(kernel: &bow_isa::Kernel, dims: KernelDims) -> SanitizerReport {
        let mut gpu = Gpu::new(sanitize_cfg());
        let res = gpu.launch(kernel, dims, &[]);
        assert!(res.completed);
        res.sanitizer.expect("sanitize flag attaches the probe")
    }

    /// All warps of a block store tid to shared[0], then read it back —
    /// same-epoch conflicting accesses with differing values.
    fn racy_kernel(with_bar: bool) -> bow_isa::Kernel {
        let r = Reg::r;
        let mut b = KernelBuilder::new("racy")
            .shared_bytes(64)
            .s2r(r(0), Special::TidX)
            .mov_imm(r(1), 0)
            .sts(r(1), 0, r(0).into());
        if with_bar {
            b = b.bar();
        }
        b.lds(r(2), r(1), 0)
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(3), r(3).into(), Operand::Imm(0x1000))
            .stg(r(3), 0, r(2).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn flags_shared_race_without_barrier() {
        let rep = run(&racy_kernel(false), KernelDims::linear(1, 64));
        assert!(!rep.is_clean());
        assert!(
            rep.findings
                .iter()
                .any(|f| matches!(f, SanitizerFinding::Race { shared: true, .. })),
            "expected a shared race, got:\n{}",
            rep.render()
        );
    }

    #[test]
    fn barrier_separates_epochs_but_keeps_the_store_race() {
        // The racing stores (different values, same word, same epoch) are
        // still a race; the bar only orders the store/load pair.
        let rep = run(&racy_kernel(true), KernelDims::linear(1, 64));
        let has_store_load_race = rep.findings.iter().any(|f| {
            matches!(
                f,
                SanitizerFinding::Race {
                    first_write: w1,
                    second_write: w2,
                    ..
                } if !(w1 & w2)
            )
        });
        assert!(
            !has_store_load_race,
            "bar must order the store/load pair:\n{}",
            rep.render()
        );
        assert!(
            rep.findings.iter().any(|f| matches!(
                f,
                SanitizerFinding::Race {
                    first_write: true,
                    second_write: true,
                    ..
                }
            )),
            "the conflicting stores remain a write-write race:\n{}",
            rep.render()
        );
    }

    #[test]
    fn clean_exchange_kernel_reports_nothing() {
        // sts; bar; lds of a per-thread slot: disjoint words, ordered.
        let r = Reg::r;
        let k = KernelBuilder::new("xchg")
            .shared_bytes(256)
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .bar()
            .lds(r(2), r(1), 0)
            .iadd(r(3), r(1).into(), Operand::Imm(0x2000))
            .stg(r(3), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        let rep = run(&k, KernelDims::linear(1, 64));
        assert!(rep.is_clean(), "unexpected findings:\n{}", rep.render());
    }

    #[test]
    fn value_convergent_global_stores_are_benign() {
        // Every thread stores the same constant to one word: a race under
        // happens-before, but architecturally value-convergent.
        let r = Reg::r;
        let k = KernelBuilder::new("conv")
            .mov_imm(r(0), 0x1000)
            .mov_imm(r(1), 7)
            .stg(r(0), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = run(&k, KernelDims::linear(1, 64));
        assert!(rep.is_clean(), "unexpected findings:\n{}", rep.render());
    }

    #[test]
    fn flags_uninit_shared_read() {
        let r = Reg::r;
        let k = KernelBuilder::new("uninit")
            .shared_bytes(64)
            .mov_imm(r(0), 0)
            .lds(r(1), r(0), 0)
            .mov_imm(r(2), 0x1000)
            .stg(r(2), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = run(&k, KernelDims::linear(1, 32));
        assert!(
            rep.findings
                .iter()
                .any(|f| matches!(f, SanitizerFinding::UninitShared { addr: 0, .. })),
            "expected uninit-shared, got:\n{}",
            rep.render()
        );
    }

    #[test]
    fn flags_divergent_barrier() {
        use bow_isa::{CmpOp, Pred};
        // Half the warp branches around the bar; the arriving mask is the
        // fall-through half only.
        let r = Reg::r;
        let k = KernelBuilder::new("divbar")
            .s2r(r(0), Special::TidX)
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(16))
            .ssy("join")
            .bra_if(Pred::p(0), true, "skip")
            .bar()
            .label("skip")
            .sync()
            .label("join")
            .exit()
            .build()
            .unwrap();
        let rep = run(&k, KernelDims::linear(1, 32));
        assert!(
            rep.findings
                .iter()
                .any(|f| matches!(f, SanitizerFinding::DivergentBarrier { .. })),
            "expected divergent-bar, got:\n{}",
            rep.render()
        );
    }

    #[test]
    fn hint_replay_follows_program_order_not_dispatch_order() {
        // r0 (.wb.boc) defined at seq 0, read at 1 and 3 under window 3:
        // in program order the read at 1 re-touches the entry, so the read
        // at 3 is in-window. Results arriving in dispatch order (3 before
        // 1) must not make it look evicted; a read past the window must.
        let r = Reg::r;
        let k = KernelBuilder::new("ooo")
            .mov_imm(r(0), 7)
            .hint(bow_isa::WritebackHint::BocOnly)
            .iadd(r(1), r(0).into(), Operand::Imm(0))
            .nop()
            .iadd(r(2), r(0).into(), Operand::Imm(0))
            .exit()
            .build()
            .unwrap();
        let replay = |order: &[u64]| {
            let mut san = Sanitizer::new(&k, 1, Some(3));
            for &seq in order {
                let pc = seq as usize;
                san.on_event(&PipeEvent::ExecResult {
                    uid: 0,
                    pc,
                    seq,
                    dst_reg: k.insts[pc].dst_reg(),
                    dst_pred: None,
                    mask: u32::MAX,
                    pred_bits: 0,
                    values: &[],
                });
            }
            san.on_event(&PipeEvent::WarpExit { uid: 0 });
            san.finish().render()
        };
        assert_eq!(replay(&[0, 1, 2, 3]), "");
        assert_eq!(replay(&[0, 3, 2, 1]), "", "dispatch order leaked");
        assert_eq!(
            replay(&[0, 2, 3]),
            "hint-violation: .wb.boc r0 defined at pc0 consumed at pc3 \
             after 3 instructions (warp 0)\n",
            "a read at distance == window is stale"
        );
    }

    #[test]
    fn flags_uninit_reg_read() {
        let r = Reg::r;
        let k = KernelBuilder::new("uninitreg")
            .mov_imm(r(0), 0x1000)
            .stg(r(0), 0, r(5).into())
            .exit()
            .build()
            .unwrap();
        let rep = run(&k, KernelDims::linear(1, 32));
        assert!(
            rep.findings
                .iter()
                .any(|f| matches!(f, SanitizerFinding::UninitReg { reg: 5, .. })),
            "expected uninit-reg r5, got:\n{}",
            rep.render()
        );
    }
}

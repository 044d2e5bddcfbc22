//! The issue stage: per-scheduler warp selection, interlock and
//! collector admission checks, control resolution and barrier release.

use super::interlock::Interlock;
use super::{SmCtx, Stages};
use crate::decode::DecodedKernel;
use crate::exec::{self, ControlOutcome};
use crate::probe::{emit, PipeEvent, Probe, StallKind};

impl Stages {
    pub(super) fn issue<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
    ) {
        il.begin_cycle();
        let mut ready = std::mem::take(&mut self.ready_buf);
        for s in 0..self.schedulers.len() {
            for _ in 0..ctx.config.issue_per_scheduler {
                ready.clear();
                self.ready_warps_of(il, ctx, s, kernel, probe, &mut ready);
                let age = &ctx.warp_age;
                let pick = self.schedulers[s].pick(&ready, |w| age[w]);
                let Some(w) = pick else { break };
                self.issue_one(il, ctx, w, kernel, probe);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }

    fn ready_warps_of<I: Interlock, P: Probe>(
        &self,
        il: &I,
        ctx: &mut SmCtx,
        sched: usize,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
        ready: &mut Vec<usize>,
    ) {
        let nsched = self.schedulers.len();
        for w in (sched..ctx.warps.len()).step_by(nsched) {
            let Some(warp) = ctx.warps[w].as_ref() else {
                continue;
            };
            if warp.done || warp.at_barrier {
                continue;
            }
            if warp.pc >= kernel.insts.len() {
                continue;
            }
            let meta = &kernel.meta[warp.pc];
            let mut stall = |kind| emit(&mut ctx.stats, probe, PipeEvent::Stall(kind));
            if I::BLOCKS_BEFORE_ADMISSION && il.blocks(w, warp, kernel) {
                stall(StallKind::Scoreboard);
                continue;
            }
            let oc = &self.parts[w % self.parts.len()].oc;
            if meta.is_control {
                // Control executes at issue, ahead of dispatch. Where
                // dispatch order is what keeps execution correct, it must
                // wait until every older instruction of this warp has left
                // the collector (their architectural writes land at
                // dispatch): a guarded branch reading its predicate early
                // would be a correctness bug.
                if !I::EXACT && oc.min_seq_of(w).is_some() {
                    continue;
                }
                // Barriers and exits additionally wait for the warp's
                // pipeline to drain so block release and flushes see a
                // quiet machine.
                if meta.needs_drain && warp.inflight > 0 {
                    continue;
                }
            } else if !oc.can_accept(w) {
                stall(StallKind::NoCollector);
                continue;
            }
            // Branch guards, like any source, must not be pending.
            if !I::BLOCKS_BEFORE_ADMISSION && il.blocks(w, warp, kernel) {
                stall(StallKind::Scoreboard);
                continue;
            }
            ready.push(w);
        }
    }

    fn issue_one<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        w: usize,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
    ) {
        let warp = ctx.warps[w].as_ref().expect("ready warp is live");
        let (pc, seq, cycle) = (warp.pc, warp.seq, ctx.cycle);
        let (inst, meta) = (&kernel.insts[pc], &kernel.meta[pc]);
        let uid = ctx.uid_of(warp);
        emit(
            &mut ctx.stats,
            probe,
            PipeEvent::Issued {
                uid,
                pc,
                active: warp.active.count_ones(),
                inst,
            },
        );
        let warp = ctx.warps[w].as_mut().expect("live");
        warp.seq += 1;
        let oc = self.oc_of(w);

        if meta.is_control {
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Control {
                    cycle,
                    sm: ctx.id,
                    warp: w,
                    pc,
                    seq,
                    inst,
                },
            );
            oc.note_control(w, seq, &mut ctx.rf, &mut ctx.stats, probe);
            il.on_issue(w, pc, kernel);
            let (arrive, live, sync_underflow) = if P::ACTIVE {
                (
                    warp.guard_mask(inst.guard),
                    warp.valid & !warp.exited,
                    exec::sync_underflows(warp, inst),
                )
            } else {
                (0, 0, false)
            };
            let outcome = exec::execute_control(warp, inst);
            if P::ACTIVE {
                let depth = (warp.stack.len() + warp.splits.len()) as u32;
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::CtrlTrace {
                        uid,
                        pc,
                        seq,
                        arrive,
                        live,
                        depth,
                        sync_underflow,
                        inst,
                    },
                );
            }
            match outcome {
                ControlOutcome::Exit => {
                    if warp.done {
                        emit(&mut ctx.stats, probe, PipeEvent::WarpExit { uid });
                        if warp.inflight == 0 {
                            ctx.finalize_warp(oc, w, probe);
                        }
                    }
                }
                ControlOutcome::Barrier => ctx.maybe_release_barrier(w),
                ControlOutcome::Plain => {}
            }
        } else {
            let mask = warp.guard_mask(inst.guard);
            warp.pc += 1;
            warp.inflight += 1;
            let rf_fetches = oc.insert_uniform(
                w,
                pc,
                meta,
                mask,
                seq,
                cycle,
                &mut ctx.rf,
                &mut ctx.stats,
                probe,
                |r| il.is_uniform(w, r),
            );
            // With the architectural shadow on, a bank fetch returns what
            // the banks hold — not the always-fresh functional value. An
            // exact interlock's RAW/WAR blocking guarantees no write to
            // these registers is in flight, so overwriting them here is
            // exactly the value the grant would deliver.
            if I::EXACT && ctx.rf.shadow_enabled() {
                for reg in rf_fetches {
                    if let Some(lanes) = ctx.rf.shadow_read(w, reg) {
                        for (lane, v) in lanes.iter().enumerate() {
                            warp.write_reg(lane, reg, *v);
                        }
                    }
                }
            }
            il.on_issue(w, pc, kernel);
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Issue {
                    cycle,
                    sm: ctx.id,
                    warp: w,
                    pc,
                    seq,
                    inst,
                },
            );
        }
    }
}

//! Cycle-accurate pipeline event tracing.
//!
//! When [`GpuConfig::trace_pipeline`] is set, every SM records an event per
//! pipeline action — issue, dispatch (with operand-collection residency),
//! writeback, control resolution — so a kernel's journey through the
//! machine can be inspected instruction by instruction. The CLI's `trace`
//! subcommand renders the log as a timeline; tests use it to assert
//! pipeline properties that the aggregate counters can't see.
//!
//! [`GpuConfig::trace_pipeline`]: crate::GpuConfig

use std::fmt;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Instruction issued into the collection stage (or executed inline
    /// for control ops).
    Issue,
    /// All operands ready; dispatched to a functional unit.
    Dispatch,
    /// Result written back (scoreboard released).
    Writeback,
    /// Control instruction resolved at issue.
    Control,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Issue => "ISSUE",
            Stage::Dispatch => "DISP",
            Stage::Writeback => "WB",
            Stage::Control => "CTRL",
        })
    }
}

/// One pipeline event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// SM cycle.
    pub cycle: u64,
    /// SM index.
    pub sm: usize,
    /// Warp slot.
    pub warp: usize,
    /// Program counter of the instruction.
    pub pc: usize,
    /// Per-warp dynamic sequence number.
    pub seq: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Stage-specific detail (e.g. OC residency cycles at dispatch).
    pub detail: u64,
    /// Disassembled instruction text.
    pub text: String,
}

/// An SM's (or device's) event log.
#[derive(Clone, Debug, Default)]
pub struct PipeTrace {
    events: Vec<Event>,
}

impl PipeTrace {
    /// Creates an empty trace.
    pub fn new() -> PipeTrace {
        PipeTrace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All events, in emission order (monotone in cycle per SM).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Stably orders events by `(cycle, sm, warp, seq)`.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.cycle, e.sm, e.warp, e.seq));
    }

    /// Events of one warp, in order.
    pub fn warp(&self, sm: usize, warp: usize) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(move |e| e.sm == sm && e.warp == warp)
    }

    /// Renders a human-readable timeline, at most `limit` lines.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:>7}  {:>3} {:>3}  {:<5} {:>4}  instruction",
            "cycle", "sm", "wrp", "stage", "oc"
        )
        .unwrap();
        for e in self.events.iter().take(limit) {
            let detail = if e.stage == Stage::Dispatch {
                format!("{:>4}", e.detail)
            } else {
                "    ".into()
            };
            writeln!(
                out,
                "{:>7}  {:>3} {:>3}  {:<5} {}  #{} {}",
                e.cycle,
                e.sm,
                e.warp,
                e.stage.to_string(),
                detail,
                e.pc,
                e.text
            )
            .unwrap();
        }
        if self.events.len() > limit {
            writeln!(out, "... {} more events", self.events.len() - limit).unwrap();
        }
        out
    }
}

impl crate::probe::Probe for PipeTrace {
    #[inline]
    fn on_event(&mut self, ev: &crate::probe::PipeEvent<'_>) {
        use crate::probe::PipeEvent;
        match *ev {
            PipeEvent::Issue {
                cycle,
                sm,
                warp,
                pc,
                seq,
                inst,
            } => self.push(Event {
                cycle,
                sm,
                warp,
                pc,
                seq,
                stage: Stage::Issue,
                detail: 0,
                text: inst.to_string(),
            }),
            PipeEvent::Control {
                cycle,
                sm,
                warp,
                pc,
                seq,
                inst,
            } => self.push(Event {
                cycle,
                sm,
                warp,
                pc,
                seq,
                stage: Stage::Control,
                detail: 0,
                text: inst.to_string(),
            }),
            PipeEvent::Dispatch {
                cycle,
                sm,
                warp,
                pc,
                seq,
                oc_cycles,
                inst,
                ..
            } => self.push(Event {
                cycle,
                sm,
                warp,
                pc,
                seq,
                stage: Stage::Dispatch,
                detail: oc_cycles,
                text: inst.to_string(),
            }),
            PipeEvent::Writeback {
                cycle,
                sm,
                warp,
                pc,
                seq,
            } => self.push(Event {
                cycle,
                sm,
                warp,
                pc,
                seq,
                stage: Stage::Writeback,
                detail: 0,
                text: String::new(),
            }),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, stage: Stage) -> Event {
        Event {
            cycle,
            sm: 0,
            warp: 1,
            pc: 2,
            seq: 3,
            stage,
            detail: 4,
            text: "iadd r1, r0, 1".into(),
        }
    }

    #[test]
    fn push_and_filter_by_warp() {
        let mut t = PipeTrace::new();
        t.push(ev(1, Stage::Issue));
        t.push(ev(5, Stage::Dispatch));
        assert_eq!(t.len(), 2);
        assert_eq!(t.warp(0, 1).count(), 2);
        assert_eq!(t.warp(0, 2).count(), 0);
    }

    #[test]
    fn render_is_bounded_and_informative() {
        let mut t = PipeTrace::new();
        for c in 0..10 {
            t.push(ev(c, Stage::Issue));
        }
        let s = t.render(3);
        assert!(s.contains("ISSUE"));
        assert!(s.contains("7 more events"));
        assert!(s.contains("iadd r1, r0, 1"));
    }
}

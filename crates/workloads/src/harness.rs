//! Shared helpers for running benchmarks and merging multi-launch results.

use bow_sim::{LaunchResult, OracleReport, SimStats};

/// The outcome of a full benchmark run (possibly several launches).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Merged timing/energy result across all launches.
    pub result: LaunchResult,
    /// Host-reference verification (Ok when the device memory matches).
    pub checked: Result<(), String>,
}

/// Merges sequential launches of a benchmark: cycles add up, counters sum,
/// window reports sum per window size, and an oracle report keeps the
/// first launch's mismatch.
///
/// Launches may legitimately differ in SM count — a sweep can mix the
/// scaled 2-SM tier with the full 56-SM chip. Per-SM vectors are
/// therefore merged index-wise up to the longest launch: SM `i`'s totals
/// accumulate every launch that had an SM `i`, and the merged vector is
/// as long as the widest device seen.
///
/// # Panics
///
/// Panics on an empty input — a benchmark always launches at least once —
/// and when launches disagree on window-report length. The analyzer
/// windows come from the shared configuration, not the device width, so
/// that mismatch means per-window counters would be silently dropped from
/// the merged totals; that is a harness bug, not a tolerable state.
pub fn merge_results(mut results: Vec<LaunchResult>) -> LaunchResult {
    assert!(
        !results.is_empty(),
        "merge_results needs at least one launch"
    );
    let mut total = results.remove(0);
    for r in results {
        let cycles = total.cycles + r.cycles;
        let mut stats = SimStats::default();
        stats.merge(&total.stats);
        stats.merge(&r.stats);
        stats.cycles = cycles;
        total.cycles = cycles;
        total.stats = stats;
        total.completed &= r.completed;
        if total.per_sm.len() < r.per_sm.len() {
            total.per_sm.resize(r.per_sm.len(), SimStats::default());
        }
        for (a, b) in total.per_sm.iter_mut().zip(r.per_sm.iter()) {
            a.merge(b);
        }
        total.sanitizer = match (total.sanitizer.take(), r.sanitizer) {
            (Some(mut a), Some(b)) => {
                a.findings.extend(b.findings);
                a.findings.sort();
                a.findings.dedup();
                Some(a)
            }
            (a, b) => a.or(b),
        };
        total.oracle = match (total.oracle.take(), r.oracle) {
            (Some(a), Some(b)) => Some(OracleReport {
                completed: a.completed && b.completed,
                checked: a.checked + b.checked,
                mismatch: a.mismatch.or(b.mismatch),
            }),
            (a, b) => a.or(b),
        };
        assert_eq!(
            total.windows.len(),
            r.windows.len(),
            "merge_results: launches produced different window-report lengths"
        );
        for (a, b) in total.windows.iter_mut().zip(r.windows.iter()) {
            a.total_reads += b.total_reads;
            a.bypassed_reads += b.bypassed_reads;
            a.total_writes += b.total_writes;
            a.bypassed_writes += b.bypassed_writes;
        }
    }
    total
}

/// Compares two float slices exactly (the references replicate the device
/// operation order bit-for-bit), reporting the first mismatch.
pub fn check_f32(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} != {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!("{what}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Compares two u32 slices, reporting the first mismatch.
pub fn check_u32(got: &[u32], want: &[u32], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} != {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if g != w {
            return Err(format!("{what}[{i}]: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// A tiny deterministic PRNG (SplitMix64) for input generation — seeds are
/// fixed per benchmark so every run and every collector model sees
/// identical data.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }

    /// Uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound.max(1))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_sim::WindowReport;

    fn launch(sms: usize, windows: usize) -> LaunchResult {
        let stats = SimStats {
            warp_instructions: 10,
            ..SimStats::default()
        };
        LaunchResult {
            cycles: 100,
            stats: stats.clone(),
            per_sm: vec![stats; sms],
            windows: (0..windows)
                .map(|w| WindowReport {
                    window: w as u32 + 1,
                    total_reads: 8,
                    bypassed_reads: 4,
                    total_writes: 6,
                    bypassed_writes: 2,
                })
                .collect(),
            completed: true,
            sanitizer: None,
            oracle: None,
        }
    }

    #[test]
    fn merge_results_sums_per_sm_and_windows() {
        let merged = merge_results(vec![launch(2, 3), launch(2, 3)]);
        assert_eq!(merged.cycles, 200);
        assert_eq!(merged.stats.warp_instructions, 20);
        assert_eq!(merged.per_sm.len(), 2);
        for sm in &merged.per_sm {
            assert_eq!(sm.warp_instructions, 20);
        }
        assert_eq!(merged.windows.len(), 3);
        for w in &merged.windows {
            assert_eq!(w.total_reads, 16);
            assert_eq!(w.bypassed_writes, 4);
        }
    }

    #[test]
    fn merge_results_pads_heterogeneous_sm_counts() {
        let merged = merge_results(vec![launch(2, 0), launch(3, 0)]);
        assert_eq!(merged.per_sm.len(), 3);
        assert_eq!(merged.per_sm[0].warp_instructions, 20);
        assert_eq!(merged.per_sm[1].warp_instructions, 20);
        // Only the 3-SM launch contributed to the padded third slot.
        assert_eq!(merged.per_sm[2].warp_instructions, 10);
        assert_eq!(merged.stats.warp_instructions, 20);

        // Order-independent: widest-first merges to the same shape.
        let rev = merge_results(vec![launch(3, 0), launch(2, 0)]);
        assert_eq!(rev.per_sm.len(), 3);
        assert_eq!(rev.per_sm[2].warp_instructions, 10);
    }

    #[test]
    fn merge_results_keeps_the_first_oracle_mismatch_and_sums_the_counts() {
        use bow_sim::OracleMismatch;
        let checked = |checked, mismatch| {
            let mut l = launch(1, 0);
            l.oracle = Some(OracleReport {
                completed: true,
                checked,
                mismatch,
            });
            l
        };
        let merged = merge_results(vec![
            checked(5, None),
            checked(7, Some(OracleMismatch::FinalMemory)),
            launch(1, 0),
            checked(
                11,
                Some(OracleMismatch::InstructionCount {
                    pipeline: 1,
                    oracle: 2,
                }),
            ),
        ]);
        let oracle = merged.oracle.expect("the checked launches report");
        assert_eq!(oracle.checked, 23);
        assert!(matches!(oracle.mismatch, Some(OracleMismatch::FinalMemory)));
        assert!(merge_results(vec![launch(1, 0), launch(1, 0)])
            .oracle
            .is_none());
    }

    #[test]
    #[should_panic(expected = "different window-report lengths")]
    fn merge_results_rejects_mismatched_window_reports() {
        merge_results(vec![launch(2, 3), launch(2, 2)]);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix::new(43);
        assert_ne!(SplitMix::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_f32_in_unit_interval() {
        let mut g = SplitMix::new(7);
        for _ in 0..1000 {
            let x = g.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn check_helpers_report_index() {
        let err = check_u32(&[1, 2, 3], &[1, 9, 3], "v").unwrap_err();
        assert!(err.contains("v[1]"), "{err}");
        assert!(check_f32(&[1.0], &[1.0], "f").is_ok());
        assert!(
            check_f32(&[f32::NAN], &[f32::NAN], "f").is_ok(),
            "bitwise NaN equality"
        );
    }
}

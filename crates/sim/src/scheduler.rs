//! Warp schedulers: greedy-then-oldest (GTO) and loose round-robin (LRR).

use crate::config::SchedPolicy;

/// One of the SM's warp schedulers (Table II: four per SM, each owning the
/// warps with `warp_id % 4 == scheduler_id`).
#[derive(Clone, Debug)]
pub struct WarpScheduler {
    policy: SchedPolicy,
    /// GTO: the warp currently held greedily.
    greedy: Option<usize>,
    /// LRR: last position served, for rotation.
    rr_last: usize,
}

impl WarpScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: SchedPolicy) -> WarpScheduler {
        WarpScheduler {
            policy,
            greedy: None,
            rr_last: 0,
        }
    }

    /// Picks the next warp to issue from `ready` (warp ids in ascending
    /// order, as the issue scan builds them). `age` gives each warp's
    /// assignment age — smaller is older.
    ///
    /// Returns `None` when no warp is ready.
    pub fn pick(&mut self, ready: &[usize], age: impl Fn(usize) -> u64) -> Option<usize> {
        if ready.is_empty() {
            self.idle();
            return None;
        }
        let choice = match self.policy {
            SchedPolicy::Gto => match self.greedy {
                Some(g) if ready.contains(&g) => g,
                _ => *ready.iter().min_by_key(|&&w| age(w)).expect("nonempty"),
            },
            SchedPolicy::Lrr => {
                debug_assert!(ready.is_sorted(), "ready warps in ascending order");
                *ready
                    .iter()
                    .find(|&&w| w > self.rr_last)
                    .unwrap_or(&ready[0])
            }
        };
        match self.policy {
            SchedPolicy::Gto => self.greedy = Some(choice),
            SchedPolicy::Lrr => self.rr_last = choice,
        }
        Some(choice)
    }

    /// A scan found no warp ready: what [`pick`](Self::pick) does with an
    /// empty list. GTO drops its greedy hold; LRR keeps its place.
    pub fn idle(&mut self) {
        if self.policy == SchedPolicy::Gto {
            self.greedy = None;
        }
    }

    /// Tells the scheduler its greedy warp stalled, releasing the hold.
    pub fn stalled(&mut self, warp: usize) {
        if self.greedy == Some(warp) {
            self.greedy = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gto_sticks_to_the_same_warp() {
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        let age = |w: usize| w as u64;
        assert_eq!(s.pick(&[2, 0, 4], age), Some(0), "oldest first");
        assert_eq!(s.pick(&[2, 0, 4], age), Some(0), "greedy repeat");
        assert_eq!(s.pick(&[2, 4], age), Some(2), "falls back to oldest ready");
        assert_eq!(
            s.pick(&[2, 0, 4], age),
            Some(2),
            "greedy follows the switch"
        );
    }

    #[test]
    fn gto_respects_age_not_id() {
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        // Warp 4 is older than warp 0.
        let age = |w: usize| if w == 4 { 0 } else { 10 };
        assert_eq!(s.pick(&[0, 4], age), Some(4));
    }

    #[test]
    fn gto_stall_releases_greedy_hold() {
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        let age = |w: usize| w as u64;
        assert_eq!(s.pick(&[0, 2], age), Some(0));
        s.stalled(0);
        assert_eq!(s.pick(&[0, 2], age), Some(0), "0 is still oldest");
    }

    #[test]
    fn lrr_rotates() {
        let mut s = WarpScheduler::new(SchedPolicy::Lrr);
        let age = |_: usize| 0;
        assert_eq!(
            s.pick(&[0, 2, 4], age),
            Some(2),
            "first id above rr_last = 0"
        );
        assert_eq!(s.pick(&[0, 2, 4], age), Some(4));
        assert_eq!(s.pick(&[0, 2, 4], age), Some(0), "wraps around");
    }

    #[test]
    fn empty_ready_returns_none() {
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        assert_eq!(s.pick(&[], |_| 0), None);
    }

    #[test]
    fn gto_selection_is_greedy_then_oldest_through_a_full_sequence() {
        // The documented order: hold the current warp while it stays
        // ready; on loss, fall back to the oldest ready warp (by age,
        // ties broken by the min scan hitting the smallest age value),
        // then hold *that* one.
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        let age = |w: usize| [30u64, 20, 10, 40][w];
        assert_eq!(s.pick(&[0, 1, 2, 3], age), Some(2), "oldest (age 10)");
        assert_eq!(s.pick(&[3, 2, 1], age), Some(2), "held while ready");
        assert_eq!(s.pick(&[0, 1, 3], age), Some(1), "next oldest (age 20)");
        assert_eq!(s.pick(&[1, 3], age), Some(1), "new hold sticks");
        assert_eq!(s.pick(&[3], age), Some(3), "last warp standing");
    }

    #[test]
    fn gto_starvation_is_bounded_by_greedy_release() {
        // GTO's starvation bound: a warp is only ever held while it makes
        // progress, and when the hold breaks the *oldest* waiter is
        // served next. Model warps that each need 3 issues to finish:
        // every warp must complete within warps x 3 total picks, and the
        // completion order must follow age order.
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        let age = |w: usize| [40u64, 10, 30, 20][w];
        let mut remaining = [3u32; 4];
        let mut finished = Vec::new();
        for _ in 0..12 {
            let ready: Vec<usize> = (0..4).filter(|&w| remaining[w] > 0).collect();
            if ready.is_empty() {
                break;
            }
            let picked = s.pick(&ready, age).expect("unfinished warps are ready");
            remaining[picked] -= 1;
            if remaining[picked] == 0 {
                finished.push(picked);
            }
        }
        assert_eq!(
            finished,
            vec![1, 3, 2, 0],
            "warps must finish in age order, none starved past 12 picks"
        );
    }

    #[test]
    fn all_warps_stalled_clears_the_hold_and_recovers_by_age() {
        // When every warp stalls (empty ready set), pick returns None and
        // drops the greedy hold — so the next cycle re-selects by age
        // instead of resuming a stale favourite.
        let mut s = WarpScheduler::new(SchedPolicy::Gto);
        let age = |w: usize| [5u64, 1, 9][w];
        assert_eq!(s.pick(&[0, 2], age), Some(0), "oldest of the ready pair");
        assert_eq!(s.pick(&[0, 2], age), Some(0), "held");
        assert_eq!(s.pick(&[], age), None, "all warps stalled");
        assert_eq!(
            s.pick(&[0, 1, 2], age),
            Some(1),
            "hold cleared: the overall-oldest warp wins, not the old hold"
        );
    }

    #[test]
    fn lrr_starvation_is_bounded_by_rotation() {
        // Round-robin serves every persistently ready warp within one
        // full rotation, whatever their ages.
        let mut s = WarpScheduler::new(SchedPolicy::Lrr);
        let age = |_: usize| 0;
        let ready = [1usize, 3, 5, 7];
        let mut seen = [false; 8];
        for _ in 0..ready.len() {
            seen[s.pick(&ready, age).unwrap()] = true;
        }
        for w in ready {
            assert!(seen[w], "warp {w} starved within one rotation");
        }
    }
}

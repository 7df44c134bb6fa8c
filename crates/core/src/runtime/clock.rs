//! The stale-synchronous-parallel (SSP) clock.
//!
//! Under SSP [Ho et al., 2013 — cited as \[12\] by the paper], a worker at
//! iteration `t` may proceed only if the slowest worker has reached at least
//! `t − staleness`; BSP is the special case `staleness = 0` with a hard
//! barrier. This clock tracks every worker's iteration, blocks over-eager
//! workers on a condition variable, and records the largest spread actually
//! observed so tests can assert the bound held.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared per-run SSP clock.
pub struct SspClock {
    clocks: Mutex<Vec<u64>>,
    cv: Condvar,
    max_spread: AtomicU64,
}

impl SspClock {
    /// Creates a clock for `workers` workers, all at iteration 0.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "clock needs at least one worker");
        Self {
            clocks: Mutex::new(vec![0; workers]),
            cv: Condvar::new(),
            max_spread: AtomicU64::new(0),
        }
    }

    /// Marks `worker` as having *completed* iteration `iter` (clock value
    /// `iter + 1`) and wakes any waiters.
    pub fn advance(&self, worker: usize, iter: u64) {
        let mut clocks = self.clocks.lock();
        clocks[worker] = iter + 1;
        let max = *clocks.iter().max().expect("non-empty");
        let min = *clocks.iter().min().expect("non-empty");
        drop(clocks);
        self.max_spread.fetch_max(max - min, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Blocks until `worker` is allowed to *start* iteration `iter` under the
    /// given staleness bound, i.e. until `iter <= min_clock + staleness`.
    pub fn wait_until_allowed(&self, _worker: usize, iter: u64, staleness: u64) {
        let mut clocks = self.clocks.lock();
        loop {
            let min = *clocks.iter().min().expect("non-empty");
            if iter <= min + staleness {
                return;
            }
            self.cv.wait(&mut clocks);
        }
    }

    /// Largest `max - min` clock spread observed so far.
    pub fn max_spread_observed(&self) -> u64 {
        self.max_spread.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn staleness_zero_enforces_lockstep() {
        let clock = Arc::new(SspClock::new(2));
        // Worker 0 completed iteration 0; worker 1 has not.
        clock.advance(0, 0);
        // Worker 0 may start iteration 1 only when min clock >= 1 - 0 = 1.
        let c = Arc::clone(&clock);
        let waiter = std::thread::spawn(move || {
            c.wait_until_allowed(0, 1, 0);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "worker 0 must block at staleness 0");
        clock.advance(1, 0);
        waiter.join().unwrap();
    }

    #[test]
    fn staleness_allows_bounded_lead() {
        let clock = SspClock::new(2);
        // No one has finished anything; with staleness 2 a worker may start
        // iterations 0, 1 and 2 but not 3.
        clock.wait_until_allowed(0, 0, 2);
        clock.wait_until_allowed(0, 2, 2);
        clock.advance(0, 0);
        clock.advance(0, 1);
        clock.advance(0, 2);
        assert_eq!(clock.max_spread_observed(), 3);
    }

    #[test]
    fn spread_tracks_maximum() {
        let clock = SspClock::new(3);
        clock.advance(0, 0);
        clock.advance(0, 1);
        assert_eq!(clock.max_spread_observed(), 2);
        clock.advance(1, 0);
        clock.advance(2, 0);
        clock.advance(2, 1);
        assert_eq!(clock.max_spread_observed(), 2, "max is sticky");
    }

    #[test]
    fn concurrent_workers_respect_bound() {
        let clock = Arc::new(SspClock::new(4));
        let staleness = 1u64;
        let mut handles = Vec::new();
        for w in 0..4usize {
            let c = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                for iter in 0..50u64 {
                    c.wait_until_allowed(w, iter, staleness);
                    if w == 0 {
                        // Worker 0 is artificially slow.
                        std::thread::yield_now();
                    }
                    c.advance(w, iter);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            clock.max_spread_observed() <= staleness + 1,
            "spread {} exceeded bound",
            clock.max_spread_observed()
        );
    }
}

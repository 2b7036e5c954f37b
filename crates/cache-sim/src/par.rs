//! A small, dependency-free scoped thread pool with a deterministic ordered
//! `par_map` — the execution substrate of the parallel replay engine.
//!
//! The build environment is offline, so instead of `rayon` this module
//! provides exactly the surface the workspace needs (in the same spirit as
//! the vendored `rand`/`proptest` stubs): fan a slice of
//! independent work items across scoped worker threads and return the results
//! **in input order**, bit-identical to a serial loop. Work distribution uses
//! an atomic cursor (work stealing at item granularity), which only affects
//! *which thread* computes an item — never the result or its position — so
//! callers such as [`crate::driver::compare_policies`] can guarantee that the
//! parallel path is indistinguishable from the serial one except in
//! wall-clock time.
//!
//! Thread-count selection: [`default_jobs`] is
//! [`std::thread::available_parallelism`]. A pool of one job never spawns a
//! thread at all: [`ThreadPool::par_map`] degenerates to the plain serial
//! loop, so `--jobs 1` runs carry zero threading overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The default number of worker threads:
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_jobs() -> usize {
    thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A scoped thread pool of a fixed number of jobs.
///
/// The pool is a *policy*, not a set of live threads: each
/// [`ThreadPool::par_map`] call spawns its scoped workers and joins them
/// before returning (work items here are whole simulations, so per-call
/// spawn cost is noise). Cloning or sharing is therefore trivial, and a pool
/// can be used from any thread.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    jobs: usize,
}

impl ThreadPool {
    /// A pool running at most `jobs` work items concurrently (clamped to at
    /// least 1).
    pub fn new(jobs: usize) -> Self {
        ThreadPool { jobs: jobs.max(1) }
    }

    /// The configured number of jobs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on up to [`ThreadPool::jobs`] worker threads and
    /// returns the results **in input order**.
    ///
    /// `f` receives the item's index and a reference to the item. Results are
    /// deterministic and identical to `items.iter().enumerate().map(..)`
    /// provided `f` itself is a pure function of its arguments; the scheduling
    /// of items onto threads is the only nondeterministic part and is never
    /// observable in the return value. With one job (or at most one item) no
    /// thread is spawned and the serial loop runs inline.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the panicking worker is joined first).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.jobs <= 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let workers = self.jobs.min(items.len());
        let cursor = AtomicUsize::new(0);
        // Each worker collects (index, result) pairs; the results are
        // scattered back into input order after the scope joins.
        let mut collected: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            local.push((index, f(index, &items[index])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("par_map worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (index, result) in collected.drain(..).flatten() {
            debug_assert!(slots[index].is_none(), "item {index} computed twice");
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item is computed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let pool = ThreadPool::new(jobs);
            let got = pool.par_map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool.par_map(&empty, |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn jobs_are_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::new(0).jobs(), 1);
        assert_eq!(ThreadPool::new(5).jobs(), 5);
    }

    #[test]
    fn parallel_results_match_serial_results_exactly() {
        // A mildly stateful computation (per-item pseudo-random walk) to make
        // ordering bugs visible.
        let items: Vec<u64> = (0..64).map(|i| i * 2_654_435_761).collect();
        let work = |_: usize, &seed: &u64| -> u64 {
            let mut state = seed | 1;
            for _ in 0..1_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
            }
            state
        };
        let serial = ThreadPool::new(1).par_map(&items, work);
        let parallel = ThreadPool::new(4).par_map(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked")]
    fn worker_panics_propagate() {
        let pool = ThreadPool::new(2);
        let items: Vec<u32> = (0..8).collect();
        pool.par_map(&items, |_, &x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}

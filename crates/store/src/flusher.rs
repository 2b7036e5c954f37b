//! [`Flusher`]: a background thread that writes dirty frames back on a
//! fixed period — now spanning *all* of a server's per-shard stores — with
//! a bounded, timeout-surfacing stop.
//!
//! The store itself never spawns threads — deterministic callers (the
//! benchmarks) use the inline flush threshold instead, and the server cache
//! attaches one `Flusher` over its shard stores when
//! [`crate::StoreConfig::flush_interval`] is set. Dropping the flusher
//! stops the thread and joins it; it does **not** flush on the way out, so
//! dropping a store+flusher pair without a checkpoint still models a crash.
//!
//! Because a wedged disk can leave a flush pass blocked in the kernel
//! forever, [`Flusher::stop_timeout`] bounds the join: if the thread does
//! not acknowledge the stop in time, the handle is detached and
//! [`StoreError::ShutdownTimeout`] is returned instead of hanging the
//! caller. [`Flusher::start_with`] accepts an arbitrary work closure so
//! tests can fault-inject exactly that wedge.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cache_sim::sync::recover_lock;

use crate::error::{StoreError, StoreResult};
use crate::store::{PageStore, FLUSH_BATCH};

/// Shared stop/done signalling between the handle and the thread.
#[derive(Debug, Default)]
struct Signal {
    state: Mutex<SignalState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct SignalState {
    stop: bool,
    done: bool,
}

/// Handle to a background flush thread over one or more shared
/// [`PageStore`]s.
#[derive(Debug)]
pub struct Flusher {
    signal: Arc<Signal>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Spawns a thread that flushes a batch of dirty frames from each of
    /// `stores` every `interval` until the handle is dropped. I/O errors in
    /// the background stop the thread (the next foreground flush or
    /// checkpoint will surface the underlying problem).
    pub fn start(stores: Vec<Arc<PageStore>>, interval: Duration) -> Flusher {
        Self::start_with(
            move || {
                let mut flushed = 0usize;
                for store in &stores {
                    flushed += store.flush_some(FLUSH_BATCH)?;
                }
                Ok(flushed)
            },
            interval,
        )
    }

    /// Spawns a thread that runs `work` every `interval` until stopped or
    /// until `work` fails. The closure is the whole flush pass — tests use
    /// this to fault-inject a wedged disk (a closure that never returns)
    /// and assert that [`Flusher::stop_timeout`] stays bounded.
    pub fn start_with(
        mut work: impl FnMut() -> StoreResult<usize> + Send + 'static,
        interval: Duration,
    ) -> Flusher {
        let signal = Arc::new(Signal::default());
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::spawn(move || {
            loop {
                // Interruptible sleep: a stop request wakes it immediately.
                let mut state = recover_lock(&thread_signal.state);
                let deadline = Instant::now() + interval;
                while !state.stop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, _) = thread_signal
                        .changed
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    state = next;
                }
                let stopping = state.stop;
                drop(state);
                if stopping || work().is_err() {
                    break;
                }
            }
            let mut state = recover_lock(&thread_signal.state);
            state.done = true;
            thread_signal.changed.notify_all();
        });
        Flusher {
            signal,
            handle: Some(handle),
        }
    }

    /// Stops the thread and joins it without a bound (also done on drop).
    pub fn stop(&mut self) {
        {
            let mut state = recover_lock(&self.signal.state);
            state.stop = true;
            self.signal.changed.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops the thread, waiting at most `timeout` for it to acknowledge.
    /// A thread wedged inside a flush pass (e.g. a disk that never
    /// completes a write) cannot be killed, so on timeout the handle is
    /// **detached** — the thread is left to finish whenever the kernel lets
    /// it — and [`StoreError::ShutdownTimeout`] reports the bounded wait to
    /// the caller.
    pub fn stop_timeout(&mut self, timeout: Duration) -> StoreResult<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + timeout;
        let mut state = recover_lock(&self.signal.state);
        state.stop = true;
        self.signal.changed.notify_all();
        while !state.done {
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                // Deliberately leak the handle: joining would block forever.
                drop(handle);
                return Err(StoreError::ShutdownTimeout { waited: timeout });
            }
            let (next, _) = self
                .signal
                .changed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
        drop(state);
        let _ = handle.join();
        Ok(())
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use cache_sim::PageId;

    #[test]
    fn background_flusher_drains_dirty_frames() {
        let dir = std::env::temp_dir().join(format!("clic-flusher-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            Arc::new(PageStore::open(StoreConfig::new(&dir, 16).with_page_size(32)).unwrap());
        for p in 0..8u64 {
            store.stage(PageId(p), &[p as u8; 32]).unwrap();
        }
        assert_eq!(store.dirty_len(), 8);
        let mut flusher = Flusher::start(vec![Arc::clone(&store)], Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while store.dirty_len() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        flusher.stop();
        assert_eq!(
            store.dirty_len(),
            0,
            "flusher should drain all dirty frames"
        );
        assert_eq!(store.io_stats().pages_flushed, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_flusher_covers_every_shard_store() {
        let base = std::env::temp_dir().join(format!("clic-flusher-multi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let stores: Vec<Arc<PageStore>> = (0..3)
            .map(|i| {
                Arc::new(
                    PageStore::open(
                        StoreConfig::new(base.join(format!("shard-{i}")), 8).with_page_size(32),
                    )
                    .unwrap(),
                )
            })
            .collect();
        for (i, store) in stores.iter().enumerate() {
            store.stage(PageId(i as u64), &[i as u8; 32]).unwrap();
        }
        let mut flusher = Flusher::start(stores.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stores.iter().any(|s| s.dirty_len() > 0) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        flusher.stop();
        for store in &stores {
            assert_eq!(store.dirty_len(), 0);
            assert_eq!(store.io_stats().pages_flushed, 1);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn stop_timeout_surfaces_a_wedged_disk() {
        // Fault injection: a "flush pass" that wedges forever, like a write
        // stuck in the kernel on a dying disk. The pass announces itself
        // first: a stop that wins the race to the worker's first lock would
        // end the thread before it ever wedged.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let mut flusher = Flusher::start_with(
            move || {
                let _ = entered_tx.send(());
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            },
            Duration::ZERO,
        );
        entered_rx.recv().expect("the worker enters its flush pass");
        let started = std::time::Instant::now();
        let err = flusher
            .stop_timeout(Duration::from_millis(50))
            .expect_err("a wedged pass must time out");
        assert!(matches!(err, StoreError::ShutdownTimeout { .. }));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop must stay bounded"
        );
        // Drop after detach must not hang either.
    }

    #[test]
    fn stop_timeout_is_clean_when_the_thread_is_healthy() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let mut flusher = Flusher::start_with(
            move || {
                let _ = entered_tx.send(());
                Ok(0)
            },
            Duration::from_millis(1),
        );
        entered_rx.recv().expect("the worker runs a flush pass");
        flusher
            .stop_timeout(Duration::from_secs(10))
            .expect("healthy thread acknowledges the stop");
        // A second stop is a no-op.
        flusher.stop_timeout(Duration::from_secs(10)).unwrap();
    }
}

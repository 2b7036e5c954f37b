//! The one clock every timestamp flows through.
//!
//! All of the observability primitives ([`crate::Recorder`] spans,
//! histogram recordings made by callers, trace-event timestamps) read time
//! from a [`Clock`] rather than calling [`Instant::now`] directly. That
//! indirection buys determinism: tests inject [`Clock::mock`] and drive it
//! with [`Clock::advance`], so a trace dump compares byte-for-byte across
//! runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock, either real (wall `Instant`s relative to a
/// base taken at construction) or mock (an atomic counter advanced
/// explicitly by tests).
///
/// Cloning is cheap and clones share the same time base: two clones of a
/// mock clock see each other's [`Clock::advance`] calls, and two clones of
/// a monotonic clock report nanoseconds since the same origin.
#[derive(Clone, Debug)]
pub struct Clock {
    kind: ClockKind,
}

#[derive(Clone, Debug)]
enum ClockKind {
    Monotonic { base: Instant },
    Mock { now: Arc<AtomicU64> },
}

impl Clock {
    /// A real clock: nanoseconds since this call, via [`Instant`].
    pub fn monotonic() -> Clock {
        Clock {
            kind: ClockKind::Monotonic {
                base: Instant::now(),
            },
        }
    }

    /// A mock clock starting at zero. Time stands still until
    /// [`Clock::advance`] is called — perfect for deterministic trace
    /// output in tests.
    pub fn mock() -> Clock {
        Clock {
            kind: ClockKind::Mock {
                now: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// Nanoseconds since the clock's origin.
    pub fn now_nanos(&self) -> u64 {
        match &self.kind {
            ClockKind::Monotonic { base } => base.elapsed().as_nanos() as u64,
            ClockKind::Mock { now } => now.load(Ordering::Relaxed),
        }
    }

    /// Advances a mock clock by `nanos` and returns `true`; a no-op
    /// returning `false` on a monotonic clock (real time cannot be pushed).
    pub fn advance(&self, nanos: u64) -> bool {
        match &self.kind {
            ClockKind::Monotonic { .. } => false,
            ClockKind::Mock { now } => {
                now.fetch_add(nanos, Ordering::Relaxed);
                true
            }
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::monotonic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_is_shared_across_clones_and_deterministic() {
        let clock = Clock::mock();
        let clone = clock.clone();
        assert_eq!(clock.now_nanos(), 0);
        assert!(clock.advance(250));
        assert_eq!(clone.now_nanos(), 250, "clones share the time base");
        assert!(clone.advance(50));
        assert_eq!(clock.now_nanos(), 300);
    }

    #[test]
    fn monotonic_clock_moves_forward_and_ignores_advance() {
        let clock = Clock::monotonic();
        let a = clock.now_nanos();
        assert!(!clock.advance(1_000_000), "real time cannot be pushed");
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}

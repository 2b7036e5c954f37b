//! [`FaultInjector`]: deterministic, seeded fault injection for the
//! storage and network I/O paths.
//!
//! Production storage fails in ways unit tests rarely exercise: `fsync`
//! returns `EIO`, a write tears halfway through a sector, a read hands
//! back flipped bits, a peer resets the connection mid-frame. This module
//! lets the test harness *schedule* those failures deterministically, so
//! the chaos gate (`smoke chaos`) and the crash-recovery proptests can
//! assert exact recovery behavior and reproduce any failing schedule from
//! its seed alone.
//!
//! # Design
//!
//! Like the observability [`clic_obs::Recorder`], the injector is a
//! cheap cloneable handle around `Option<Arc<_>>`: [`FaultInjector::disabled`]
//! (the default everywhere) costs one `Option` check per I/O and allocates
//! nothing. An enabled injector carries, per [`FaultPoint`]:
//!
//! * a monotonically increasing **operation counter** (every pass through
//!   the point bumps it, faulted or not), and
//! * a firing rule: fire at explicit operation indices
//!   ([`FaultInjector::fault_at`]) and/or at a probability
//!   ([`FaultInjector::with_rate`]) decided by hashing
//!   `(seed, point, index)` — **never** by wall-clock time or a shared
//!   RNG stream, so the k-th operation at a point faults identically on
//!   every run with the same seed, regardless of thread interleaving or a
//!   mock clock.
//!
//! What an injected fault *does* is fixed per point (see [`FaultPoint`]):
//! sync points fail, write points fail or tear (a prefix of the buffer is
//! written, then the call errors — exactly what a crash mid-`pwrite`
//! leaves behind), read points fail or corrupt the returned bytes (which
//! the CRC layer then reports as a torn frame), and the network points
//! drop accepts, reset connections, or shorten socket writes.
//!
//! Injected I/O errors carry the [`INJECTED_FAULT`] marker in their
//! message so tests can tell a scheduled failure from a real one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use clic_obs::Counter;

/// Marker substring present in every injected `io::Error`'s message.
pub const INJECTED_FAULT: &str = "injected fault";

/// Where in the I/O stack a fault can fire. Each point has a fixed fault
/// repertoire, chosen to match what the real failure at that point looks
/// like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The disk manager's positioned page read: fails outright or
    /// corrupts one byte of the returned buffer (surfacing as a CRC
    /// "torn frame" error).
    DiskRead,
    /// The disk manager's positioned page write (or free): fails
    /// outright or tears (writes a prefix, then errors).
    DiskWrite,
    /// The `fsync` of the data file at a checkpoint: fails.
    DataSync,
    /// The WAL's record write: fails or tears. A torn append does
    /// not advance the log's append position, so the garbage tail is
    /// overwritten by the next append and discarded by replay — the same
    /// outcome as a crash mid-append.
    WalAppend,
    /// The store's one log `fsync` ([`crate::PageStore::sync_wal`]), run
    /// after a synced level's append, by a server's log writer, and by a
    /// checkpoint: fails. The synced prefix does not advance, the write
    /// waiting on the sync is refused instead of acknowledged, and the log
    /// fails closed: every later write is refused until the store is
    /// reopened.
    WalSync,
    /// The event loop's `accept`: the freshly accepted connection is
    /// dropped before the handshake, as if the peer vanished.
    NetAccept,
    /// Reading from an established connection: the connection is reset
    /// (closed immediately, in-flight requests abandoned).
    NetRecv,
    /// Writing to an established connection: the write is shortened to a
    /// prefix, exercising the partial-write path.
    NetSend,
}

/// All points, in tag order (indexable by [`FaultPoint::tag`]).
pub const FAULT_POINTS: [FaultPoint; 8] = [
    FaultPoint::DiskRead,
    FaultPoint::DiskWrite,
    FaultPoint::DataSync,
    FaultPoint::WalAppend,
    FaultPoint::WalSync,
    FaultPoint::NetAccept,
    FaultPoint::NetRecv,
    FaultPoint::NetSend,
];

impl FaultPoint {
    /// Dense index of this point (into [`FAULT_POINTS`]-shaped arrays).
    pub fn tag(self) -> usize {
        match self {
            FaultPoint::DiskRead => 0,
            FaultPoint::DiskWrite => 1,
            FaultPoint::DataSync => 2,
            FaultPoint::WalAppend => 3,
            FaultPoint::WalSync => 4,
            FaultPoint::NetAccept => 5,
            FaultPoint::NetRecv => 6,
            FaultPoint::NetSend => 7,
        }
    }

    /// Short stable name for reports and error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultPoint::DiskRead => "disk-read",
            FaultPoint::DiskWrite => "disk-write",
            FaultPoint::DataSync => "data-sync",
            FaultPoint::WalAppend => "wal-append",
            FaultPoint::WalSync => "wal-sync",
            FaultPoint::NetAccept => "net-accept",
            FaultPoint::NetRecv => "net-recv",
            FaultPoint::NetSend => "net-send",
        }
    }
}

/// What the injector decided for one operation at one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// No fault: perform the operation normally.
    None,
    /// Fail the operation without side effects (`EIO`-style).
    Fail,
    /// Tear the write: persist only the first `n` bytes, then fail. The
    /// prefix length is hash-derived in `[1, len)` so different seeds
    /// tear at different offsets.
    Torn(usize),
    /// Corrupt the read: flip one byte of the filled buffer at this
    /// offset, then report success (the CRC layer catches it).
    Corrupt(usize),
}

const N_POINTS: usize = FAULT_POINTS.len();

#[derive(Debug, Default)]
struct PointState {
    /// Probability threshold: fire when `hash(seed, point, index)` falls
    /// below this (0 = never, `u64::MAX` = always).
    threshold: u64,
    /// Explicit operation indices that always fire, sorted.
    explicit: Vec<u64>,
    /// Operations seen at this point (faulted or not).
    ops: AtomicU64,
    /// Faults injected at this point.
    injected: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    points: [PointState; N_POINTS],
    /// Optional metrics counter bumped once per injected fault
    /// (`store.injected_faults` when attached by the store).
    counter: OnceLock<Counter>,
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A seeded schedule of injectable I/O faults. See the [module docs]
/// (self) for the design; `disabled()` is the zero-cost default.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl FaultInjector {
    /// The no-op injector: every decision is [`InjectedFault::None`] at
    /// the cost of one `Option` check.
    pub fn disabled() -> FaultInjector {
        FaultInjector { inner: None }
    }

    /// An enabled injector with the given seed and no faults scheduled
    /// yet; add firing rules with [`with_rate`](Self::with_rate) and
    /// [`fault_at`](Self::fault_at).
    pub fn seeded(seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                seed,
                points: Default::default(),
                counter: OnceLock::new(),
            })),
        }
    }

    /// Whether any faults can fire.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn edit(&mut self, point: FaultPoint, f: impl FnOnce(&mut PointState)) {
        // Builder methods run before the injector is cloned anywhere, so
        // the Arc is unshared; on a disabled or already-shared injector
        // the edit is a no-op (schedules are fixed at construction).
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            f(&mut inner.points[point.tag()]);
        }
    }

    /// Fires a fault at `point` with the given probability per operation
    /// (clamped to `[0, 1]`), decided by hashing `(seed, point, index)`.
    /// Builder-style; must be called before the injector is shared.
    #[must_use]
    pub fn with_rate(mut self, point: FaultPoint, probability: f64) -> FaultInjector {
        let p = probability.clamp(0.0, 1.0);
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * u64::MAX as f64) as u64
        };
        self.edit(point, |state| state.threshold = threshold);
        self
    }

    /// Fires a fault at `point` on exactly its `index`-th operation
    /// (0-based). Builder-style; must be called before the injector is
    /// shared.
    #[must_use]
    pub fn fault_at(mut self, point: FaultPoint, index: u64) -> FaultInjector {
        self.edit(point, |state| {
            if let Err(at) = state.explicit.binary_search(&index) {
                state.explicit.insert(at, index);
            }
        });
        self
    }

    /// Attaches a metrics counter bumped once per injected fault. The
    /// store attaches `store.injected_faults` at open; only the first
    /// attach wins.
    pub fn attach_counter(&self, counter: Counter) {
        if let Some(inner) = &self.inner {
            let _ = inner.counter.set(counter);
        }
    }

    /// Decides the fate of the next operation at `point`. `len` is the
    /// buffer length the operation moves (used to derive torn-write
    /// prefixes and corruption offsets); pass 0 for syncs and accepts.
    pub fn decide(&self, point: FaultPoint, len: usize) -> InjectedFault {
        let Some(inner) = &self.inner else {
            return InjectedFault::None;
        };
        let state = &inner.points[point.tag()];
        let index = state.ops.fetch_add(1, Ordering::Relaxed);
        let draw = mix(inner
            .seed
            .wrapping_add((point.tag() as u64).wrapping_mul(0xa076_1d64_78bd_642f))
            .wrapping_add(index.wrapping_mul(0xe703_7ed1_a0b4_28db)));
        let fires = state.explicit.binary_search(&index).is_ok()
            || (state.threshold > 0 && draw < state.threshold);
        if !fires {
            return InjectedFault::None;
        }
        state.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = inner.counter.get() {
            counter.inc();
        }
        // A second independent draw picks the flavor and the offset.
        let flavor = mix(draw);
        match point {
            FaultPoint::DataSync | FaultPoint::WalSync => InjectedFault::Fail,
            FaultPoint::NetAccept | FaultPoint::NetRecv => InjectedFault::Fail,
            FaultPoint::DiskWrite | FaultPoint::WalAppend | FaultPoint::NetSend => {
                if len > 1 && flavor & 1 == 0 {
                    InjectedFault::Torn(1 + (flavor >> 1) as usize % (len - 1))
                } else {
                    InjectedFault::Fail
                }
            }
            FaultPoint::DiskRead => {
                if len > 0 && flavor & 1 == 0 {
                    InjectedFault::Corrupt((flavor >> 1) as usize % len)
                } else {
                    InjectedFault::Fail
                }
            }
        }
    }

    /// Faults injected at `point` so far.
    pub fn injected_at(&self, point: FaultPoint) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.points[point.tag()].injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Operations observed at `point` so far (faulted or not).
    pub fn ops_at(&self, point: FaultPoint) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.points[point.tag()].ops.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Per-point `(point, ops, injected)` counts — the full observable
    /// fault history, used by the chaos gate's determinism assertion.
    pub fn counts(&self) -> Vec<(FaultPoint, u64, u64)> {
        FAULT_POINTS
            .iter()
            .map(|&point| (point, self.ops_at(point), self.injected_at(point)))
            .collect()
    }

    /// The `io::Error` an injected [`InjectedFault::Fail`] or the tail of
    /// an [`InjectedFault::Torn`] write surfaces, carrying the
    /// [`INJECTED_FAULT`] marker.
    pub fn error(point: FaultPoint) -> std::io::Error {
        std::io::Error::other(format!("{INJECTED_FAULT}: {}", point.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_and_counts_nothing() {
        let fi = FaultInjector::disabled();
        for _ in 0..100 {
            assert_eq!(fi.decide(FaultPoint::WalSync, 0), InjectedFault::None);
        }
        assert_eq!(fi.ops_at(FaultPoint::WalSync), 0);
        assert!(!fi.is_enabled());
    }

    #[test]
    fn explicit_indices_fire_exactly_once_each() {
        let fi = FaultInjector::seeded(1)
            .fault_at(FaultPoint::WalSync, 2)
            .fault_at(FaultPoint::WalSync, 5);
        let fired: Vec<bool> = (0..8)
            .map(|_| fi.decide(FaultPoint::WalSync, 0) != InjectedFault::None)
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false]
        );
        assert_eq!(fi.injected_at(FaultPoint::WalSync), 2);
        assert_eq!(fi.ops_at(FaultPoint::WalSync), 8);
    }

    #[test]
    fn same_seed_reproduces_the_same_schedule() {
        let run = |seed: u64| -> Vec<InjectedFault> {
            let fi = FaultInjector::seeded(seed)
                .with_rate(FaultPoint::DiskWrite, 0.3)
                .with_rate(FaultPoint::DiskRead, 0.3);
            (0..200)
                .map(|i| {
                    if i % 2 == 0 {
                        fi.decide(FaultPoint::DiskWrite, 64)
                    } else {
                        fi.decide(FaultPoint::DiskRead, 64)
                    }
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
    }

    #[test]
    fn rates_fire_in_plausible_proportion() {
        let fi = FaultInjector::seeded(42).with_rate(FaultPoint::WalAppend, 0.25);
        for _ in 0..4000 {
            fi.decide(FaultPoint::WalAppend, 128);
        }
        let injected = fi.injected_at(FaultPoint::WalAppend);
        assert!(
            (700..1300).contains(&injected),
            "25% of 4000 should be ~1000, got {injected}"
        );
    }

    #[test]
    fn torn_and_corrupt_offsets_stay_in_bounds() {
        let fi = FaultInjector::seeded(3)
            .with_rate(FaultPoint::WalAppend, 1.0)
            .with_rate(FaultPoint::DiskRead, 1.0);
        for _ in 0..100 {
            match fi.decide(FaultPoint::WalAppend, 32) {
                InjectedFault::Torn(n) => assert!((1..32).contains(&n)),
                InjectedFault::Fail => {}
                other => panic!("write points never {other:?}"),
            }
            match fi.decide(FaultPoint::DiskRead, 32) {
                InjectedFault::Corrupt(at) => assert!(at < 32),
                InjectedFault::Fail => {}
                other => panic!("read points never {other:?}"),
            }
        }
    }

    #[test]
    fn sync_points_only_fail() {
        let fi = FaultInjector::seeded(5)
            .with_rate(FaultPoint::WalSync, 1.0)
            .with_rate(FaultPoint::DataSync, 1.0);
        for _ in 0..20 {
            assert_eq!(fi.decide(FaultPoint::WalSync, 0), InjectedFault::Fail);
            assert_eq!(fi.decide(FaultPoint::DataSync, 0), InjectedFault::Fail);
        }
    }

    #[test]
    fn injected_errors_carry_the_marker() {
        let err = FaultInjector::error(FaultPoint::WalSync);
        assert!(err.to_string().contains(INJECTED_FAULT));
        assert!(err.to_string().contains("wal-sync"));
    }
}

//! Per-thread event-trace ring buffers with a central collector.
//!
//! A [`TraceCollector`] hands each recording thread its own fixed-capacity
//! ring buffer the first time that thread records — registration is a
//! thread-local lookup plus, once per thread, a push onto the collector's
//! buffer list. After that, recording an event locks only the thread's own
//! ring (uncontended except while a drain is in progress), so tracing in
//! the WAL or a shard worker never serializes against other threads.
//!
//! Capacity is fixed: when a ring is full the **oldest** event is
//! overwritten and a dropped-event counter is bumped, so a long run keeps
//! the most recent window of activity instead of growing without bound.
//!
//! [`TraceCollector::drain`] empties every ring into one [`TraceDump`],
//! globally ordered by start timestamp, which renders as a JSON array
//! ([`TraceDump::to_json`]). Timestamps come
//! from the collector's [`Clock`], so a mock clock makes dumps
//! deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::clock::Clock;
use crate::json::JsonValue;

/// What a trace span measured. One variant per instrumented section of the
/// stack, WAL fsync to shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One WAL record append (detail: record bytes).
    WalAppend,
    /// A WAL append that also synced the log file (detail: appends covered
    /// by the sync).
    WalFsync,
    /// A group-commit sync amortizing several appends (detail: batch size).
    GroupCommit,
    /// One flush pass, inline or at a checkpoint (detail: pages written
    /// back).
    FlushPass,
    /// One shard worker batch, dequeue to reply (detail: requests in the
    /// batch).
    ShardBatch,
    /// One cross-shard priority merge (detail: shards merged).
    PriorityMerge,
    /// One wire frame decoded from or encoded onto a network connection by
    /// the event-driven front-end (detail: frame bytes). With this kind a
    /// trace spans client → wire → shard batch → WAL fsync.
    NetFrame,
}

impl SpanKind {
    /// Stable snake_case label used in JSON.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::WalAppend => "wal_append",
            SpanKind::WalFsync => "wal_fsync",
            SpanKind::GroupCommit => "group_commit",
            SpanKind::FlushPass => "flush_pass",
            SpanKind::ShardBatch => "shard_batch",
            SpanKind::PriorityMerge => "priority_merge",
            SpanKind::NetFrame => "net_frame",
        }
    }
}

/// One completed span: what, which thread, when, how long, and a
/// kind-specific detail value (batch size, bytes, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Collector-assigned id of the recording thread (dense, first-record
    /// order — not the OS thread id).
    pub thread: u64,
    /// Span start, nanoseconds on the collector's clock.
    pub start_ns: u64,
    /// Span end, nanoseconds on the collector's clock.
    pub end_ns: u64,
    /// Kind-specific payload (see [`SpanKind`] docs).
    pub detail: u64,
}

impl TraceEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// One thread's ring buffer. Held by the thread (via TLS) and by the
/// collector, so events survive the thread's exit until drained.
#[derive(Debug)]
struct TraceBuffer {
    thread: u64,
    ring: Mutex<Ring>,
}

thread_local! {
    /// This thread's buffers, one per collector it has recorded into,
    /// keyed by collector id. Weak, so a dropped collector's entries can
    /// be pruned instead of pinning rings for the thread's lifetime.
    static LOCAL_BUFFERS: RefCell<Vec<(u64, Weak<TraceBuffer>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(0);

/// The central trace sink: owns the clock, hands out per-thread rings, and
/// drains them into ordered dumps.
#[derive(Debug)]
pub struct TraceCollector {
    id: u64,
    capacity: usize,
    clock: Clock,
    next_thread: AtomicU64,
    buffers: Mutex<Vec<Arc<TraceBuffer>>>,
}

impl TraceCollector {
    /// A collector whose rings hold `capacity` events per thread (clamped
    /// to at least 1), timestamping with `clock`.
    pub fn new(clock: Clock, capacity: usize) -> TraceCollector {
        TraceCollector {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            clock,
            next_thread: AtomicU64::new(0),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// The collector's clock (shared with anything else timestamping
    /// against the same timeline).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Events each per-thread ring can hold before overwriting the oldest.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn thread_buffer(&self) -> Arc<TraceBuffer> {
        LOCAL_BUFFERS.with(|local| {
            let mut local = local.borrow_mut();
            if let Some(buffer) = local
                .iter()
                .find(|(id, _)| *id == self.id)
                .and_then(|(_, weak)| weak.upgrade())
            {
                return buffer;
            }
            // First record from this thread (or the collector was dropped
            // and its id reused — ids are unique, so just re-register).
            // Registration is the slow path; prune dead entries here.
            local.retain(|(_, weak)| weak.strong_count() > 0);
            let buffer = Arc::new(TraceBuffer {
                thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring {
                    events: VecDeque::with_capacity(self.capacity),
                    dropped: 0,
                }),
            });
            self.buffers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&buffer));
            local.push((self.id, Arc::downgrade(&buffer)));
            buffer
        })
    }

    /// Records a completed span on the calling thread's ring, overwriting
    /// the oldest event (and counting the drop) if the ring is full.
    pub fn record(&self, kind: SpanKind, start_ns: u64, end_ns: u64, detail: u64) {
        let buffer = self.thread_buffer();
        let mut ring = buffer.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent {
            kind,
            thread: buffer.thread,
            start_ns,
            end_ns,
            detail,
        });
    }

    /// Empties every thread's ring into one dump ordered by
    /// `(start_ns, thread)`, including rings of threads that have exited.
    pub fn drain(&self) -> TraceDump {
        let buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for buffer in buffers.iter() {
            let mut ring = buffer.ring.lock().unwrap_or_else(PoisonError::into_inner);
            events.extend(ring.events.drain(..));
            dropped += ring.dropped;
            ring.dropped = 0;
        }
        events.sort_by_key(|e| (e.start_ns, e.thread, e.end_ns));
        TraceDump { events, dropped }
    }
}

/// Everything drained from a [`TraceCollector`]: globally ordered events
/// plus how many older events the rings overwrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Drained events, ordered by `(start_ns, thread)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites since the previous drain.
    pub dropped: u64,
}

impl TraceDump {
    /// Renders the dump as a JSON object:
    /// `{"dropped":…,"events":[{"kind":…,"thread":…,"start_ns":…,"dur_ns":…,"detail":…},…]}`.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|event| {
            JsonValue::object([
                ("kind", JsonValue::str(event.kind.label())),
                ("thread", JsonValue::int(event.thread)),
                ("start_ns", JsonValue::int(event.start_ns)),
                ("dur_ns", JsonValue::int(event.duration_ns())),
                ("detail", JsonValue::int(event.detail)),
            ])
        });
        JsonValue::object([
            ("dropped", JsonValue::int(self.dropped)),
            ("events", JsonValue::Array(events.collect())),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_order_across_threads_and_survive_thread_exit() {
        let clock = Clock::mock();
        let collector = Arc::new(TraceCollector::new(clock.clone(), 64));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let collector = Arc::clone(&collector);
                let clock = clock.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        let start = clock.now_nanos();
                        clock.advance(10);
                        collector.record(SpanKind::ShardBatch, start, clock.now_nanos(), 32);
                    }
                });
            }
        });
        let dump = collector.drain();
        assert_eq!(dump.events.len(), 15);
        assert_eq!(dump.dropped, 0);
        assert!(dump
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        // A second drain is empty: drains consume.
        assert!(collector.drain().events.is_empty());
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let clock = Clock::mock();
        let collector = TraceCollector::new(clock.clone(), 4);
        for i in 0..10u64 {
            collector.record(SpanKind::WalAppend, i, i + 1, i);
        }
        let dump = collector.drain();
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.dropped, 6);
        let starts: Vec<u64> = dump.events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, [6, 7, 8, 9], "the newest window is kept");
    }

    #[test]
    fn mock_clock_makes_dumps_deterministic() {
        let render = || {
            let clock = Clock::mock();
            let collector = TraceCollector::new(clock.clone(), 16);
            clock.advance(100);
            collector.record(SpanKind::WalFsync, 0, clock.now_nanos(), 8);
            clock.advance(50);
            collector.record(SpanKind::FlushPass, 100, clock.now_nanos(), 3);
            let dump = collector.drain();
            dump.to_json()
        };
        let (json_a, json_b) = (render(), render());
        assert_eq!(json_a, json_b);
        crate::json::validate(&json_a).expect("trace dump must be valid JSON");
        assert!(json_a.contains("wal_fsync"));
        assert!(json_a.contains("flush_pass"));
    }

    #[test]
    fn distinct_collectors_do_not_share_rings() {
        let a = TraceCollector::new(Clock::mock(), 8);
        let b = TraceCollector::new(Clock::mock(), 8);
        a.record(SpanKind::PriorityMerge, 0, 1, 2);
        assert_eq!(a.drain().events.len(), 1);
        assert!(b.drain().events.is_empty());
    }
}

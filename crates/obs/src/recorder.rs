//! The zero-when-disabled front door: [`Recorder`].
//!
//! Every instrumented component takes a `Recorder` by value (it is a cheap
//! `Clone` — one `Option<Arc>`). [`Recorder::disabled`] carries no
//! allocation at all: every operation on it is a branch on a `None` that
//! the optimizer folds away, so un-instrumented fast paths (the benchmark's
//! `policy_tpcc` workload drives the policy with no recorder anywhere near
//! it) pay nothing. An enabled recorder bundles the three primitives
//! around one shared [`Clock`]:
//!
//! * a [`MetricsRegistry`] for counters/gauges/histograms,
//! * a [`TraceCollector`] for per-thread span rings.
//!
//! Spans are RAII: [`Recorder::span`] stamps the start time, and the
//! returned [`Span`] records the event when finished (or dropped). On a
//! disabled recorder the span holds nothing and does nothing.

use std::sync::Arc;

use crate::clock::Clock;
use crate::hist::LatencyHistogram;
use crate::registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use crate::trace::{SpanKind, TraceCollector, TraceDump};

/// Default per-thread trace-ring capacity (events) for
/// [`Recorder::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

#[derive(Debug)]
struct RecorderInner {
    clock: Clock,
    registry: MetricsRegistry,
    tracer: TraceCollector,
}

/// A handle to the observability stack, or — the default — an inert stub.
///
/// Disabled is the zero state: `Recorder::default()` ==
/// [`Recorder::disabled`], all methods are no-ops returning `None`/empty,
/// and cloning copies one `None`.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// The inert recorder: records nothing, costs nothing.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder on the real ([`Clock::monotonic`]) clock with
    /// [`DEFAULT_TRACE_CAPACITY`] trace events per thread.
    pub fn enabled() -> Recorder {
        Recorder::with_clock(Clock::monotonic())
    }

    /// An enabled recorder on `clock` (inject [`Clock::mock`] for
    /// deterministic trace output) with the default trace capacity.
    pub fn with_clock(clock: Clock) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                clock: clock.clone(),
                registry: MetricsRegistry::new(),
                tracer: TraceCollector::new(clock, DEFAULT_TRACE_CAPACITY),
            })),
        }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder's clock, if enabled.
    pub fn clock(&self) -> Option<&Clock> {
        self.inner.as_deref().map(|inner| &inner.clock)
    }

    /// The metrics registry, if enabled. Use this to cache handles at
    /// construction time rather than looking metrics up per operation.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|inner| &inner.registry)
    }

    /// Gets or creates a counter, if enabled. Cache the handle.
    pub fn counter(&self, name: &str) -> Option<Counter> {
        self.registry().map(|registry| registry.counter(name))
    }

    /// Gets or creates a gauge, if enabled. Cache the handle.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.registry().map(|registry| registry.gauge(name))
    }

    /// Gets or creates a histogram, if enabled. Cache the handle.
    pub fn histogram(&self, name: &str) -> Option<Arc<LatencyHistogram>> {
        self.registry().map(|registry| registry.histogram(name))
    }

    /// Opens a span of `kind`: stamps the start time now, records the
    /// event when the returned [`Span`] is finished or dropped. On a
    /// disabled recorder this is a no-op returning an inert span.
    #[inline]
    pub fn span(&self, kind: SpanKind) -> Span<'_> {
        match self.inner.as_deref() {
            Some(inner) => Span {
                state: Some(SpanState {
                    inner,
                    kind,
                    start_ns: inner.clock.now_nanos(),
                    detail: 0,
                }),
            },
            None => Span { state: None },
        }
    }

    /// Records a completed span with explicit timestamps (for sections
    /// measured out-of-band, like an interval carved out of another span).
    pub fn event(&self, kind: SpanKind, start_ns: u64, end_ns: u64, detail: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.tracer.record(kind, start_ns, end_ns, detail);
        }
    }

    /// Snapshots every metric; empty when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.inner.as_deref() {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Drains the trace rings; empty when disabled.
    pub fn drain_trace(&self) -> TraceDump {
        match self.inner.as_deref() {
            Some(inner) => inner.tracer.drain(),
            None => TraceDump::default(),
        }
    }
}

#[derive(Debug)]
struct SpanState<'a> {
    inner: &'a RecorderInner,
    kind: SpanKind,
    start_ns: u64,
    detail: u64,
}

impl SpanState<'_> {
    /// Records the event, ending now, and returns its duration.
    fn record(self) -> u64 {
        let end_ns = self.inner.clock.now_nanos();
        self.inner
            .tracer
            .record(self.kind, self.start_ns, end_ns, self.detail);
        end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-flight trace span. Records its event — with the clock's current
/// time as the end — when [`Span::finish`]ed or dropped. Inert (a `None`)
/// when opened on a disabled recorder.
#[derive(Debug)]
pub struct Span<'a> {
    state: Option<SpanState<'a>>,
}

impl Span<'_> {
    /// Sets the kind-specific detail value reported with the event.
    pub fn set_detail(&mut self, detail: u64) {
        if let Some(state) = self.state.as_mut() {
            state.detail = detail;
        }
    }

    /// Ends the span now with `detail`, records the event, and returns the
    /// span's duration in nanoseconds (`None` on a disabled recorder), so a
    /// caller that also wants the interval in a histogram needs no second
    /// clock read.
    pub fn finish(mut self, detail: u64) -> Option<u64> {
        self.set_detail(detail);
        self.state.take().map(SpanState::record)
    }

    /// Ends the span without recording anything (e.g. the guarded section
    /// turned out to be the uninteresting case).
    pub fn cancel(mut self) {
        self.state = None;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.record();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        assert!(recorder.counter("x").is_none());
        assert!(recorder.histogram("x").is_none());
        assert!(recorder.span(SpanKind::WalAppend).finish(0).is_none());
        assert_eq!(recorder.snapshot(), MetricsSnapshot::default());
        assert!(recorder.drain_trace().events.is_empty());
    }

    #[test]
    fn spans_record_on_finish_and_cancel_suppresses() {
        let clock = Clock::mock();
        let recorder = Recorder::with_clock(clock.clone());
        let span = recorder.span(SpanKind::FlushPass);
        clock.advance(500);
        assert_eq!(span.finish(12), Some(500));
        let cancelled = recorder.span(SpanKind::FlushPass);
        cancelled.cancel();
        let dump = recorder.drain_trace();
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.events[0].start_ns, 0);
        assert_eq!(dump.events[0].duration_ns(), 500);
        assert_eq!(dump.events[0].detail, 12);
    }

    #[test]
    fn clones_share_the_same_stack() {
        let recorder = Recorder::enabled();
        let clone = recorder.clone();
        recorder.counter("shared").unwrap().add(2);
        clone.counter("shared").unwrap().inc();
        assert_eq!(recorder.snapshot().counter("shared"), 3);
    }
}

//! A registry of named atomic counters, gauges, and histograms with
//! deterministic, mergeable snapshots.
//!
//! Handles ([`Counter`], [`Gauge`], shared [`LatencyHistogram`]s) are
//! looked up **once** by name — which takes the registry's internal mutex —
//! and then used lock-free forever: a counter bump is one relaxed
//! `fetch_add`, a gauge update two. Hot paths must cache their handles at
//! construction time; only registration and [`MetricsRegistry::snapshot`]
//! ever touch the lock.
//!
//! Snapshots key every metric by its registered name in a `BTreeMap`, so
//! iteration order — and therefore JSON output — is deterministic, and
//! snapshots from different registries (per-shard stores, the server
//! front-end) merge by name: counters add, gauges add values and take the
//! max peak, histograms add bucket-wise.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::json::JsonValue;

/// A monotonically increasing named counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    peak: AtomicI64,
}

/// A named signed gauge (e.g. a queue depth) that also tracks its
/// high-water mark. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Adds `delta` (may be negative); increases update the peak.
    pub fn add(&self, delta: i64) {
        let now = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            self.0.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Highest value ever reached by an increment.
    pub fn peak(&self) -> i64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

/// Point-in-time value and high-water mark of a [`Gauge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The gauge's value at snapshot time.
    pub value: i64,
    /// The highest value any increment reached.
    pub peak: i64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<LatencyHistogram>>,
}

/// The registry: get-or-create metrics by name, snapshot them all at once.
///
/// Thread-safe; typically owned by a [`crate::Recorder`] or embedded in a
/// long-lived component (the page store keeps one for its always-on I/O
/// counters).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // Registration and snapshots only touch map structure; a panicked
        // holder cannot corrupt it in a way recovery would observe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets or creates the counter named `name`. Cache the handle — this
    /// takes the registry lock.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.lock();
        Counter(Arc::clone(
            inner.counters.entry(name.to_string()).or_default(),
        ))
    }

    /// Gets or creates the gauge named `name`. Cache the handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.lock();
        Gauge(Arc::clone(
            inner.gauges.entry(name.to_string()).or_default(),
        ))
    }

    /// Gets or creates the histogram named `name`. Cache the handle.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.lock();
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Snapshots every registered metric, keyed by name in deterministic
    /// (sorted) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, cell)| {
                    (
                        name.clone(),
                        GaugeSnapshot {
                            value: cell.value.load(Ordering::Relaxed),
                            peak: cell.peak.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, hist)| (name.clone(), hist.snapshot()))
                .collect(),
        }
    }
}

/// A named, mergeable snapshot of a [`MetricsRegistry`] (or of several,
/// merged). Plain data: clone it, compare it, ship it through an in-process
/// protocol message.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values and peaks by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's snapshot, or zeros if absent.
    pub fn gauge(&self, name: &str) -> GaugeSnapshot {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// A histogram's snapshot, or an empty one if absent.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Merges another snapshot by name: counters add, gauge values add and
    /// peaks take the max, histograms add bucket-wise (exact).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, &gauge) in &other.gauges {
            let entry = self.gauges.entry(name.clone()).or_default();
            entry.value += gauge.value;
            entry.peak = entry.peak.max(gauge.peak);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{…},"gauges":{name:{"value":…,"peak":…}},"histograms":{name:{…}}}`
    /// with keys in sorted (deterministic) order.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| (name.as_str(), JsonValue::int(value)));
        let gauges = self.gauges.iter().map(|(name, gauge)| {
            let gauge = JsonValue::object([
                ("value", JsonValue::int(gauge.value)),
                ("peak", JsonValue::int(gauge.peak)),
            ]);
            (name.as_str(), gauge)
        });
        let histograms = self
            .histograms
            .iter()
            .map(|(name, hist)| (name.as_str(), JsonValue::from(hist)));
        JsonValue::object([
            ("counters", JsonValue::object(counters)),
            ("gauges", JsonValue::object(gauges)),
            ("histograms", JsonValue::object(histograms)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_snapshots_are_sorted() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("b.second");
        let b = registry.counter("a.first");
        let again = registry.counter("b.second");
        a.add(3);
        again.inc();
        b.inc();
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(snap.counter("b.second"), 4);
        assert_eq!(snap.counter("a.first"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_track_peaks() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("queue.depth");
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 3);
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge("queue.depth"),
            GaugeSnapshot { value: 1, peak: 3 }
        );
    }

    #[test]
    fn snapshots_merge_by_name() {
        let left = MetricsRegistry::new();
        let right = MetricsRegistry::new();
        left.counter("shared").add(10);
        right.counter("shared").add(5);
        right.counter("only_right").add(2);
        left.gauge("depth").add(4);
        right.gauge("depth").add(1);
        left.histogram("lat").record(100);
        right.histogram("lat").record(200);

        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged.counter("shared"), 15);
        assert_eq!(merged.counter("only_right"), 2);
        assert_eq!(merged.gauge("depth").value, 5);
        assert_eq!(merged.gauge("depth").peak, 4);
        assert_eq!(merged.histogram("lat").count(), 2);
        assert_eq!(merged.histogram("lat").max(), 200);
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let registry = MetricsRegistry::new();
        registry.counter("requests").add(7);
        registry.gauge("depth").add(2);
        registry.histogram("lat").record(42);
        let a = registry.snapshot().to_json();
        let b = registry.snapshot().to_json();
        assert_eq!(a, b);
        crate::json::validate(&a).expect("snapshot JSON must parse");
        assert!(a.contains("\"requests\":7"));
    }
}

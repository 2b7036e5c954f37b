//! Configuration for the CLIC policy.

use std::fmt;

/// How CLIC tracks per-hint-set statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackingMode {
    /// Maintain a hint-table entry for every distinct hint set observed
    /// (Section 3.1 of the paper). Space grows with the number of hint sets.
    Full,
    /// Track only the (approximately) `k` most frequent hint sets using the
    /// adapted Space-Saving algorithm (Section 5). Hint sets that are not
    /// currently tracked are treated as having priority zero.
    TopK(usize),
}

impl fmt::Display for TrackingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackingMode::Full => write!(f, "full"),
            TrackingMode::TopK(k) => write!(f, "top-{k}"),
        }
    }
}

/// Suggests a priority-window size `W` for a trace of `trace_len` requests.
///
/// The paper uses `W = 10⁶` on traces of 3–640 M requests, i.e. between a few
/// and a few hundred priority re-evaluations per run. Scaled-down traces need
/// the *number of evaluations* preserved, not the absolute window: CLIC's
/// statistics are censored by the bounded outqueue (re-references longer than
/// its reach go unobserved while a page is uncached), and the resulting
/// priority misestimates are only corrected a window or two after the
/// affected pages become resident. With too few windows per run that
/// correction loop cannot converge — on multi-client traces it visibly
/// starves the best client. Targeting ~80 evaluations (floor 1 000, cap at
/// the paper's 10⁶) keeps the loop fast enough to converge at smoke scale
/// while staying inside the paper's evaluations-per-run range.
pub fn suggested_window(trace_len: u64) -> u64 {
    (trace_len / 80).clamp(1_000, 1_000_000)
}

/// Fraction of the nominal capacity charged for CLIC's per-page metadata
/// when [`ClicConfig::charge_metadata`] is set (the paper estimates roughly
/// 1 %).
const METADATA_OVERHEAD: f64 = 0.01;

/// Tunable parameters of the CLIC policy.
///
/// The defaults reproduce the configuration used throughout the paper's
/// evaluation: window size `W = 10⁶` requests, smoothing factor `r = 1`,
/// an outqueue of 5 entries per cache page, full hint tracking, and the 1 %
/// cache-size reduction that charges CLIC for its tracking metadata.
///
/// # Example
///
/// ```
/// use clic_core::{ClicConfig, TrackingMode};
///
/// let config = ClicConfig::default()
///     .with_window(100_000)
///     .with_smoothing(0.5)
///     .with_outqueue_factor(5.0)
///     .with_tracking(TrackingMode::TopK(20));
/// assert_eq!(config.window, 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClicConfig {
    /// Window size `W`: number of requests between priority re-evaluations.
    pub window: u64,
    /// Smoothing factor `r` in `Pr_i = r·P̂r_i + (1−r)·Pr_{i−1}`; must be in
    /// `(0, 1]`. `r = 1` (the paper's setting) uses only the latest window.
    pub smoothing: f64,
    /// Outqueue size expressed as a multiple of the cache capacity
    /// (`Noutq = factor × capacity`). The paper uses 5.
    pub outqueue_factor: f64,
    /// How hint-set statistics are tracked.
    pub tracking: TrackingMode,
    /// If `true`, CLIC's usable cache capacity is reduced by 1 % to pay for
    /// the sequence number and hint-set id it records per tracked page,
    /// matching the paper's space accounting.
    pub charge_metadata: bool,
}

impl Default for ClicConfig {
    fn default() -> Self {
        ClicConfig {
            window: 1_000_000,
            smoothing: 1.0,
            outqueue_factor: 5.0,
            tracking: TrackingMode::Full,
            charge_metadata: true,
        }
    }
}

impl ClicConfig {
    /// Creates the paper's default configuration.
    pub fn new() -> Self {
        ClicConfig::default()
    }

    /// Sets the window size `W` (requests between priority re-evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window > 0, "window size must be positive");
        self.window = window;
        self
    }

    /// Sets the smoothing factor `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in `(0, 1]`.
    pub fn with_smoothing(mut self, r: f64) -> Self {
        assert!(
            r > 0.0 && r <= 1.0,
            "smoothing factor must be in (0, 1], got {r}"
        );
        self.smoothing = r;
        self
    }

    /// Sets the outqueue size as a multiple of the cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn with_outqueue_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "outqueue factor must be a non-negative finite number, got {factor}"
        );
        self.outqueue_factor = factor;
        self
    }

    /// Sets the hint-statistics tracking mode.
    ///
    /// # Panics
    ///
    /// Panics if a [`TrackingMode::TopK`] with `k = 0` is supplied.
    pub fn with_tracking(mut self, tracking: TrackingMode) -> Self {
        if let TrackingMode::TopK(k) = tracking {
            assert!(k > 0, "top-k tracking requires k > 0");
        }
        self.tracking = tracking;
        self
    }

    /// Enables or disables charging CLIC for its per-page metadata by
    /// shrinking the usable cache.
    pub fn with_metadata_charging(mut self, charge: bool) -> Self {
        self.charge_metadata = charge;
        self
    }

    /// The usable cache capacity after the optional metadata charge.
    pub fn effective_capacity(&self, nominal_capacity: usize) -> usize {
        if self.charge_metadata {
            let charge = (nominal_capacity as f64 * METADATA_OVERHEAD).ceil() as usize;
            nominal_capacity.saturating_sub(charge).max(1)
        } else {
            nominal_capacity
        }
    }

    /// The outqueue size (in entries) for a cache of `capacity` pages.
    pub fn outqueue_entries(&self, capacity: usize) -> usize {
        (capacity as f64 * self.outqueue_factor).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ClicConfig::default();
        assert_eq!(c.window, 1_000_000);
        assert_eq!(c.smoothing, 1.0);
        assert_eq!(c.outqueue_factor, 5.0);
        assert_eq!(c.tracking, TrackingMode::Full);
        assert!(c.charge_metadata);
    }

    #[test]
    fn effective_capacity_charges_one_percent() {
        let c = ClicConfig::default();
        assert_eq!(c.effective_capacity(1000), 990);
        assert_eq!(c.effective_capacity(10), 9);
        // Never drops to zero.
        assert_eq!(c.effective_capacity(1), 1);
        let free = ClicConfig::default().with_metadata_charging(false);
        assert_eq!(free.effective_capacity(1000), 1000);
    }

    #[test]
    fn outqueue_entries_scale_with_capacity() {
        let c = ClicConfig::default();
        assert_eq!(c.outqueue_entries(1000), 5000);
        let c = c.with_outqueue_factor(0.0);
        assert_eq!(c.outqueue_entries(1000), 0);
    }

    #[test]
    fn builder_setters_apply() {
        let c = ClicConfig::new()
            .with_window(5)
            .with_smoothing(0.25)
            .with_tracking(TrackingMode::TopK(3));
        assert_eq!(c.window, 5);
        assert_eq!(c.smoothing, 0.25);
        assert_eq!(c.tracking, TrackingMode::TopK(3));
        assert_eq!(format!("{}", c.tracking), "top-3");
        assert_eq!(format!("{}", TrackingMode::Full), "full");
    }

    #[test]
    #[should_panic(expected = "smoothing")]
    fn invalid_smoothing_rejected() {
        let _ = ClicConfig::default().with_smoothing(0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = ClicConfig::default().with_window(0);
    }

    #[test]
    #[should_panic(expected = "top-k")]
    fn zero_topk_rejected() {
        let _ = ClicConfig::default().with_tracking(TrackingMode::TopK(0));
    }
}

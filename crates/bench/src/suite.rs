//! What one `run_all` invocation shares across its experiments: the parsed
//! command line and every generated trace.
//!
//! The paper records its eight traces once and replays them under every
//! policy, cache size, `k` and noise level; [`Suite::trace`] does the same
//! for the `trace-gen` presets. Generation dominates the suite (`DB2_C540`
//! alone takes minutes at default scale), so a trace is built by the first
//! experiment that asks for it and borrowed by every later one.

use std::sync::OnceLock;
use std::time::Instant;

use cache_sim::{ClientId, Trace};
use trace_gen::{interleave, TracePreset};

use crate::ExperimentContext;

/// Identifies one generated trace: preset, page-id offset, generator seed.
pub type TraceKey = (TracePreset, u64, u64);

/// One memoized trace and the link to the next. The list only ever grows at
/// its tail, through `OnceLock`s, so a `&Trace` handed out stays valid for
/// as long as the [`Suite`] does.
struct TraceSlot {
    key: TraceKey,
    /// The trace and the seconds its generation took.
    built: OnceLock<(Trace, f64)>,
    next: OnceLock<Box<TraceSlot>>,
}

/// The state shared by every experiment of one run.
pub struct Suite {
    /// Scale, output directory and job count.
    pub ctx: ExperimentContext,
    traces: OnceLock<Box<TraceSlot>>,
}

impl Suite {
    /// A suite with no trace built yet.
    pub fn new(ctx: ExperimentContext) -> Self {
        Suite {
            ctx,
            traces: OnceLock::new(),
        }
    }

    /// The trace `preset.build_with_offset(scale, page_offset, seed)`,
    /// generated on the first call for a key and shared afterwards.
    /// Concurrent callers of one key wait for a single build; callers of
    /// different keys build side by side.
    pub fn trace(&self, preset: TracePreset, page_offset: u64, seed: u64) -> &Trace {
        let key = (preset, page_offset, seed);
        let mut link = &self.traces;
        let slot = loop {
            let slot = link.get_or_init(|| {
                Box::new(TraceSlot {
                    key,
                    built: OnceLock::new(),
                    next: OnceLock::new(),
                })
            });
            if slot.key == key {
                break slot;
            }
            link = &slot.next;
        };
        let (trace, _) = slot.built.get_or_init(|| {
            let started = Instant::now();
            let trace = preset.build_with_offset(self.ctx.scale, page_offset, seed);
            let build_s = started.elapsed().as_secs_f64();
            println!(
                "built {} (+{page_offset}, seed {seed}): {} requests in {build_s:.1} s",
                preset.name(),
                trace.len()
            );
            (trace, build_s)
        });
        trace
    }

    /// The preset's plain trace: `TracePreset::build` is
    /// `build_with_offset(scale, 0, 42)`, so this is also client 0 of the
    /// Figure 11 mix.
    pub fn preset(&self, preset: TracePreset) -> &Trace {
        self.trace(preset, 0, 42)
    }

    /// The Figure 11 workload: the three DB2 TPC-C clients over disjoint
    /// page ranges (as three independent DB2 instances would be), interleaved
    /// round-robin. Returns the combined trace and each client's id in it.
    pub fn tpcc_mix(&self) -> (Trace, Vec<ClientId>) {
        let traces: Vec<&Trace> = self.ctx.pool().par_map(&TracePreset::TPCC, |i, &preset| {
            self.trace(preset, i as u64 * 100_000_000, 42 + i as u64)
        });
        let (combined, clients) = interleave(&traces);
        println!("interleaved: {} requests", combined.len());
        (combined, clients)
    }

    /// Every trace built so far with its generation time in seconds, in
    /// first-request order.
    pub fn built_traces(&self) -> Vec<(TraceKey, f64)> {
        let mut built = Vec::new();
        let mut link = &self.traces;
        while let Some(slot) = link.get() {
            if let Some((_, build_s)) = slot.built.get() {
                built.push((slot.key, *build_s));
            }
            link = &slot.next;
        }
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::PresetScale;

    fn smoke_suite() -> Suite {
        Suite::new(ExperimentContext {
            scale: PresetScale::Smoke,
            ..ExperimentContext::default()
        })
    }

    #[test]
    fn a_trace_is_built_once_per_key() {
        let suite = smoke_suite();
        let first = suite.trace(TracePreset::MyH65, 0, 42);
        let again = suite.preset(TracePreset::MyH65);
        assert!(std::ptr::eq(first, again), "one key, one allocation");
        let built = suite.built_traces();
        assert_eq!(built.len(), 1, "the second call must not build");
        assert_eq!(built[0].0, (TracePreset::MyH65, 0, 42));
        assert_eq!(
            first.requests,
            TracePreset::MyH65.build(PresetScale::Smoke).requests,
            "the memoized trace is the preset's plain build"
        );
    }

    #[test]
    fn different_offsets_and_seeds_of_one_preset_do_not_alias() {
        let suite = smoke_suite();
        let plain = suite.trace(TracePreset::MyH65, 0, 42);
        let shifted = suite.trace(TracePreset::MyH65, 100_000_000, 42);
        let reseeded = suite.trace(TracePreset::MyH65, 0, 43);
        assert!(!std::ptr::eq(plain, shifted) && !std::ptr::eq(plain, reseeded));
        assert!(shifted.requests.iter().all(|r| r.page.0 >= 100_000_000));
        assert!(plain.requests.iter().all(|r| r.page.0 < 100_000_000));
        assert_ne!(plain.requests, reseeded.requests);
        let keys: Vec<TraceKey> = suite.built_traces().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                (TracePreset::MyH65, 0, 42),
                (TracePreset::MyH65, 100_000_000, 42),
                (TracePreset::MyH65, 0, 43),
            ]
        );
        // Asking again for the first key walks past the other two.
        assert!(std::ptr::eq(plain, suite.preset(TracePreset::MyH65)));
    }

    #[test]
    fn concurrent_requests_for_one_key_share_a_build() {
        let suite = smoke_suite();
        let pool = cache_sim::ThreadPool::new(4);
        let addresses = pool.par_map(&[(); 8], |_, _| {
            suite.preset(TracePreset::MyH98) as *const Trace as usize
        });
        assert!(addresses.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(suite.built_traces().len(), 1);
    }
}

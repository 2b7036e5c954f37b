//! Pins a 64-bit digest of everything `Clic` decides under top-k hint
//! tracking, on three traces and for k ∈ {1, 10, 100}.
//!
//! The digest covers every request's `AccessOutcome` (hit, evictions,
//! bypass) and, at the end, the priority table sorted by hint set. The
//! three traces are the benchmark's `policy_tpcc` stream (`DB2_C60`,
//! offset 0, seed 1), the smoke `DB2_C300` preset, and the smoke `DB2_C540`
//! preset with Figure 10's T = 3 noise hint types, whose thousands of hint
//! sets keep the Space-Saving summary recycling counters. A speed change to
//! the summary or the trackers must leave every constant untouched.

use cache_sim::{CachePolicy, Trace, REPLAY_CHUNK};
use clic_core::{suggested_window, Clic, ClicConfig, TrackingMode};
use trace_gen::{inject_noise, NoiseConfig, PresetScale, TracePreset};

/// FNV-1a, 64-bit: written out so that the digest cannot drift with the
/// standard library's `DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The cache size of the benchmark and of the smoke-scale figure tests.
const CACHE_PAGES: usize = 1_800;

const KS: [usize; 3] = [1, 10, 100];

/// Replays `trace` through a top-`k` `Clic` in `simulate`'s chunks and
/// digests every outcome, then the final priorities.
fn digest(trace: &Trace, k: usize) -> u64 {
    let config = ClicConfig::default()
        .with_window(suggested_window(trace.len() as u64))
        .with_tracking(TrackingMode::TopK(k));
    let mut clic = Clic::new(CACHE_PAGES, config);
    let mut h = Fnv1a::new();
    let mut outcomes = Vec::with_capacity(REPLAY_CHUNK);
    let mut seq = 0u64;
    for chunk in trace.requests.chunks(REPLAY_CHUNK) {
        outcomes.clear();
        clic.access_batch(chunk, seq, &mut outcomes);
        seq += chunk.len() as u64;
        for outcome in &outcomes {
            h.write(&[u8::from(outcome.hit), u8::from(outcome.bypassed)]);
            h.write(&outcome.evicted.to_le_bytes());
        }
    }
    let mut priorities = clic.export_priorities();
    priorities.sort_by_key(|(hint, _)| hint.0);
    h.write(&(priorities.len() as u64).to_le_bytes());
    for (hint, priority) in priorities {
        h.write(&hint.0.to_le_bytes());
        h.write(&priority.to_bits().to_le_bytes());
    }
    h.0
}

fn digests(trace: &Trace) -> [(usize, u64); 3] {
    KS.map(|k| (k, digest(trace, k)))
}

#[test]
fn benchmark_policy_tpcc_stream_is_unchanged() {
    let trace = TracePreset::Db2C60.build_with_offset(PresetScale::Smoke, 0, 1);
    let expected = [
        (1, 0xc632_772b_90de_0c12),
        (10, 0xea97_4cb7_8c8e_d44b),
        (100, 0xc1c2_f8f5_cd09_8926),
    ];
    assert_eq!(digests(&trace), expected);
}

#[test]
fn smoke_db2_c300_is_unchanged() {
    let trace = TracePreset::Db2C300.build(PresetScale::Smoke);
    let expected = [
        (1, 0xccf4_fda4_3e56_1e9d),
        (10, 0x2fce_6b1d_f4b9_10c6),
        (100, 0xebaa_fa0a_8614_1d8c),
    ];
    assert_eq!(digests(&trace), expected);
}

#[test]
fn smoke_db2_c540_with_three_noise_types_is_unchanged() {
    let base = TracePreset::Db2C540.build(PresetScale::Smoke);
    let trace = inject_noise(&base, NoiseConfig::new(3));
    let expected = [
        (1, 0x66b3_44d0_26cb_c687),
        (10, 0x3c40_d765_07ab_35cf),
        (100, 0xadff_914d_37fe_567c),
    ];
    assert_eq!(digests(&trace), expected);
}

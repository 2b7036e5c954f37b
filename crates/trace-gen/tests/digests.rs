//! Pins a 64-bit digest of every smoke-scale preset trace and of the three
//! trace shapes the benchmark generates.
//!
//! Generation is deterministic, so any change to `trace-gen` that alters
//! one request — its client, page, kind, hint set, write hint or prefetch
//! flag — or the description of one hint set changes a digest here. A speed
//! change to the generator must leave every constant untouched.

use cache_sim::{AccessKind, HintSetId, Trace, WriteHint};
use trace_gen::{PresetScale, TracePreset};

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

fn digest(trace: &Trace) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&(trace.requests.len() as u64).to_le_bytes());
    for req in &trace.requests {
        h.write(&req.client.0.to_le_bytes());
        h.write(&req.page.0.to_le_bytes());
        let kind = match req.kind {
            AccessKind::Read => 0u8,
            AccessKind::Write => 1,
        };
        let write_hint = match req.write_hint {
            None => 0u8,
            Some(WriteHint::Replacement) => 1,
            Some(WriteHint::Recovery) => 2,
            Some(WriteHint::Synchronous) => 3,
        };
        h.write(&[kind, write_hint, u8::from(req.prefetch)]);
        h.write(&req.hint.0.to_le_bytes());
    }
    let sets = trace.catalog.hint_set_count();
    h.write(&(sets as u64).to_le_bytes());
    for id in 0..sets {
        h.write(trace.catalog.describe(HintSetId(id as u32)).as_bytes());
        h.write(&[0]);
    }
    h.0
}

#[test]
fn smoke_presets_are_unchanged() {
    let expected: [(TracePreset, u64); 8] = [
        (TracePreset::Db2C60, 0xa006_9230_8358_fcf6),
        (TracePreset::Db2C300, 0x2c31_a511_9c62_3847),
        (TracePreset::Db2C540, 0x237d_d0c5_e034_7896),
        (TracePreset::Db2H80, 0xeac2_76f8_7639_89b6),
        (TracePreset::Db2H400, 0x6d3c_f153_adbb_2483),
        (TracePreset::Db2H720, 0x2cb5_f146_a95b_a87c),
        (TracePreset::MyH65, 0xca8f_2689_5aba_b56f),
        (TracePreset::MyH98, 0x91ff_559d_27e1_0c46),
    ];
    let got: Vec<(TracePreset, u64)> = expected
        .iter()
        .map(|&(preset, _)| (preset, digest(&preset.build(PresetScale::Smoke))))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn benchmark_shapes_are_unchanged() {
    // The benchmark builds preset i at offset i * 10^8 from seed + i; these
    // are its traces for seed 1.
    let expected: [(TracePreset, u64, u64, u64); 3] = [
        (TracePreset::Db2C60, 0, 1, 0x172f_b1ef_606c_431c),
        (TracePreset::Db2C300, 100_000_000, 2, 0x91be_0cbb_edba_968d),
        (TracePreset::Db2H80, 0, 1, 0xa53c_fb03_0ce8_4887),
    ];
    let got: Vec<(TracePreset, u64, u64, u64)> = expected
        .iter()
        .map(|&(preset, offset, seed, _)| {
            let trace = preset.build_with_offset(PresetScale::Smoke, offset, seed);
            (preset, offset, seed, digest(&trace))
        })
        .collect();
    assert_eq!(got, expected);
}

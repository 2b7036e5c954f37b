//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), used to detect torn disk
//! frames and torn write-ahead-log records.
//!
//! Hand-rolled because the workspace is dependency-free by construction.
//! Two kernels compute the same function:
//!
//! * **carry-less multiply** (x86_64 with PCLMULQDQ and SSE4.1, detected at
//!   run time): every whole 16-byte block of an input of at least 128
//!   bytes, four 128-bit accumulators folded 64 bytes per step, then a
//!   Barrett reduction to 32 bits (the private `clmul` module);
//! * **slicing-by-8**: eight tables built at compile time, eight input
//!   bytes folded per step, a byte-wise tail for the last `len % 8` bytes.
//!   It takes everything else: other architectures, CPUs without the
//!   features, inputs under 128 bytes and the carry-less kernel's tail.
//!
//! Both agree with the one-table byte-wise walk every file was first
//! written with (kept below as the `#[cfg(test)]` reference), so disk
//! slots and WAL records written under any of them verify under the
//! others. Measured on the 2-core x86_64 reference box, fastest of seven
//! 20 000-operation loops over 4 KiB pages, slicing-by-8 → carry-less:
//!
//! | | slicing-by-8 | carry-less |
//! |---|---|---|
//! | checksum of one page | 3.5 µs | 0.27 µs |
//! | `DiskManager::read_page` | 4.7 µs | 1.45 µs |
//! | `DiskManager::write_page` | 4.9–5.2 µs | 1.6–1.8 µs |
//!
//! The checksum was most of every disk-tier read and write; now the
//! positioned read or write is.

/// The reflected CRC-32 polynomial (IEEE 802.3 / zlib / PNG).
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// checksum state after byte `b` followed by `k` zero bytes, which is what
/// lets eight bytes be folded with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < 8 {
            crc = (crc >> 8) ^ tables[0][(crc & 0xff) as usize];
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Slicing-by-8: folds `data` into the register `crc` eight bytes per step,
/// then byte by byte for the last `len % 8` bytes.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in its
/// bit-reflected form: four 128-bit accumulators fold 64 bytes per step,
/// fold into one, which is reduced to 64 bits and then, by a Barrett
/// reduction, to the 32-bit register. Whole 16-byte blocks only; the
/// shorter tail goes through [`update_sliced`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shorter inputs go to slicing-by-8 whole. [`update`] needs 64 bytes
    /// to load its four accumulators; 128 also leaves one folding step.
    pub(super) const MIN_LEN: usize = 128;

    // The fold constants, bit-reflected and shifted left by one: x^(512±32)
    // mod P folds 64 bytes ahead, x^(128±32) mod P one block, x^64 mod P
    // takes 96 bits to 64; MU = floor(x^64 / P) and P itself drive the
    // Barrett reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let bits = u128::from_le_bytes(*block);
        _mm_set_epi64x((bits >> 64) as i64, bits as i64)
    }

    /// `acc` carried 128 bits ahead (by the distance `keys` encodes), plus
    /// the block `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Folds `data` (at least [`MIN_LEN`] bytes) into the register `crc`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, rest) = blocks.as_chunks::<4>();
        let mut acc = quads[0].map(|block| load(&block));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &quads[1..] {
            for (lane, block) in acc.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = acc[0];
        for &lane in &acc[1..] {
            x = fold(x, lane, k3k4);
        }
        for block in rest {
            x = fold(x, load(block), k3k4);
        }
        // 128 -> 96 -> 64 bits, then Barrett: the register is bits 32..64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_sliced(crc, tail)
    }
}

/// Streaming CRC-32 state: feed byte slices with [`Crc32::update`], read the
/// checksum with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to a checksum over zero bytes so far).
    pub(crate) fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the checksum.
    pub(crate) fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `clmul::update` is compiled for exactly the two CPU
            // features just detected, and it is safe Rust otherwise.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = update_sliced(self.state, data);
    }

    /// The checksum over everything fed so far.
    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The kernel every store and WAL on disk was written with: one table,
    /// one byte per step. `update` must agree with it on every input, which
    /// is what makes files written by either version verify under the other.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        !crc
    }

    /// Deterministic filler with no period that divides 8.
    fn filler(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(0x9e37_79b9).to_le_bytes()[3] ^ i as u8)
            .collect()
    }

    #[test]
    fn matches_known_vectors() {
        // The standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The slicing-by-8 kernel called directly, so the fallback path is
    /// covered on a CPU where `update` dispatches to carry-less multiply.
    fn sliced_crc32(data: &[u8]) -> u32 {
        !update_sliced(!0, data)
    }

    #[test]
    fn every_short_length_and_misalignment_matches_the_reference() {
        // 16 bytes of slack so that every start offset 0..16 inside the
        // allocation (hence every alignment of the first byte against a
        // 16-byte block) is exercised at every length up to 1 KiB, which
        // straddles the 8-byte step, the 16-byte block and the 128-byte
        // dispatch threshold, and at the sizes checksummed on disk: a page,
        // a disk slot's page id + page, a WAL record's kind + page id +
        // page.
        let data = filler(4105 + 16);
        for offset in 0..16 {
            for len in (0..=1024).chain([4096, 4104, 4105]) {
                let slice = &data[offset..offset + len];
                let expected = reference_crc32(slice);
                assert_eq!(crc32(slice), expected, "offset {offset}, length {len}");
                assert_eq!(
                    sliced_crc32(slice),
                    expected,
                    "sliced: offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        // 300 bytes: splits on either side of the 128-byte dispatch
        // threshold, with every tail length below 16.
        let data = filler(300);
        let expected = reference_crc32(&data);
        for cut in 0..=data.len() {
            let mut streaming = Crc32::new();
            streaming.update(&data[..cut]);
            streaming.update(&data[cut..]);
            assert_eq!(streaming.finish(), expected, "split at {cut}");
            let sliced = update_sliced(update_sliced(!0, &data[..cut]), &data[cut..]);
            assert_eq!(!sliced, expected, "sliced: split at {cut}");
        }
    }

    /// A disk slot and a WAL record checksummed by the reference kernel,
    /// written byte for byte in the documented formats, verify through the
    /// store's own readers.
    #[test]
    fn files_checksummed_by_the_reference_verify() {
        use crate::disk::DiskManager;
        use crate::wal::{Wal, WalOp, WalRecord};
        use crate::{Durability, FaultInjector};
        use cache_sim::PageId;

        let page = PageId(0x0123_4567_89ab);
        let bytes = filler(4096);
        let dir = std::env::temp_dir();
        let tag = std::process::id();

        // Disk: file header, then slot 0 = [page id | crc | flags | page].
        let disk_path = dir.join(format!("clic-crc-compat-{tag}.pages"));
        let mut file = Vec::new();
        file.extend_from_slice(b"CLICPGS1");
        file.extend_from_slice(&4096u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        let mut covered = page.0.to_le_bytes().to_vec();
        covered.extend_from_slice(&bytes);
        file.extend_from_slice(&page.0.to_le_bytes());
        file.extend_from_slice(&reference_crc32(&covered).to_le_bytes());
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&bytes);
        std::fs::write(&disk_path, &file).unwrap();
        let disk = DiskManager::open_with(&disk_path, 4096, FaultInjector::disabled()).unwrap();
        let mut buf = vec![0u8; 4096];
        assert!(disk.read_page(page, &mut buf).unwrap());
        assert_eq!(buf, bytes);
        drop(disk);
        let _ = std::fs::remove_file(&disk_path);

        // WAL: one record = [len | crc | kind 1 | page id | page].
        let wal_path = dir.join(format!("clic-crc-compat-{tag}.wal"));
        let mut payload = vec![1u8];
        payload.extend_from_slice(&page.0.to_le_bytes());
        payload.extend_from_slice(&bytes);
        let mut log = Vec::new();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&reference_crc32(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        std::fs::write(&wal_path, &log).unwrap();
        let (_, records) =
            Wal::open_with(&wal_path, Durability::Buffered, FaultInjector::disabled()).unwrap();
        assert_eq!(
            records,
            vec![WalRecord {
                page,
                op: WalOp::Write(bytes),
            }]
        );
        let _ = std::fs::remove_file(&wal_path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random contents at random lengths up to three 4 KiB pages — the
        /// sizes disk slots and WAL records actually have — cut at a random
        /// point, against the byte-wise reference.
        #[test]
        fn random_buffers_match_the_reference(
            data in vec(any::<u8>(), 0..3 * 4096 + 1),
            offset in 0usize..8,
            cut in 0usize..3 * 4096 + 1,
        ) {
            let slice = &data[offset.min(data.len())..];
            let cut = cut.min(slice.len());
            let expected = reference_crc32(slice);
            prop_assert_eq!(crc32(slice), expected);
            let mut streaming = Crc32::new();
            streaming.update(&slice[..cut]);
            streaming.update(&slice[cut..]);
            prop_assert_eq!(streaming.finish(), expected);
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let mut data = vec![0u8; 4096];
        data[17] = 0x55;
        let clean = crc32(&data);
        for flip in [0usize, 17, 4095] {
            data[flip] ^= 0x01;
            assert_ne!(crc32(&data), clean, "flip at {flip} must be detected");
            data[flip] ^= 0x01;
        }
        assert_eq!(crc32(&data), clean);
    }
}

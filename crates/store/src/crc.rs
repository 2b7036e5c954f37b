//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), used to detect torn disk
//! frames and torn write-ahead-log records.
//!
//! Hand-rolled because the workspace is dependency-free by construction.
//! The kernel is slicing-by-8: eight tables built at compile time, eight
//! input bytes folded per step, a byte-wise tail for the last `len % 8`
//! bytes. It computes the same function as the one-table byte-wise walk it
//! replaced (kept below as the `#[cfg(test)]` reference), so disk slots and
//! WAL records written by either verify under the other. Measured on the
//! 2-core reference box over a 4 KiB page (fastest of seven 20 000-page
//! loops): 2.7 ns/B byte-wise, 11 µs per page — most of a disk read
//! (14.4 µs) and of a buffered WAL append (18 µs) — against 0.68 ns/B
//! sliced, 2.8 µs per page.

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

/// Streaming CRC-32 state: feed byte slices with [`Crc32::update`], read the
/// checksum with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to a checksum over zero bytes so far).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// The checksum over everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
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

    #[test]
    fn every_short_length_and_misalignment_matches_the_reference() {
        // 8 bytes of slack so that every start offset 0..8 inside the
        // allocation (hence every alignment of the slice's first byte) is
        // exercised at every length that straddles the 8-byte step.
        let data = filler(64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    reference_crc32(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = filler(100);
        let expected = reference_crc32(&data);
        for cut in 0..=data.len() {
            let mut streaming = Crc32::new();
            streaming.update(&data[..cut]);
            streaming.update(&data[cut..]);
            assert_eq!(streaming.finish(), expected, "split at {cut}");
        }
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

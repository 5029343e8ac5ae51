//! CRC-32 (IEEE 802.3 polynomial, reflected — the zlib/PNG variant): the
//! one checksum behind journal records, HBT1 trace frames, sweep
//! checkpoints and engine state digests.
//!
//! [`Crc32`] is slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step instead of one, so long inputs
//! cost about a quarter of the classic bytewise loop. The values are the
//! bytewise loop's, byte for byte; the tests pin them against a bitwise
//! reference at every length and alignment.
//!
//! ```
//! use hetfeas_model::crc::{crc32, Crc32};
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! let mut c = Crc32::new();
//! c.update(b"1234");
//! c.update(b"56789");
//! assert_eq!(c.finish(), 0xCBF4_3926);
//! ```

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Incremental CRC-32: feed bytes with [`Crc32::update`] in any chunking,
/// read the checksum with [`Crc32::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over zero bytes so far.
    pub const fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of every byte fed so far (does not reset).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Bit-at-a-time CRC-32, straight from the polynomial definition.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn matches_the_bitwise_reference_at_every_length_and_offset() {
        let mut rng = Rng::new(0xc4c3);
        let buf: Vec<u8> = (0..128).map(|_| rng.next_u64() as u8).collect();
        for start in 0..=64 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), bitwise(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn chunked_updates_equal_one_shot() {
        let mut rng = Rng::new(17);
        let bytes: Vec<u8> = (0..1000).map(|_| rng.next_u64() as u8).collect();
        let whole = crc32(&bytes);
        for chunk in [1usize, 3, 7, 8, 9, 64, 999] {
            let mut c = Crc32::new();
            for part in bytes.chunks(chunk) {
                c.update(part);
            }
            assert_eq!(c.finish(), whole, "chunk {chunk}");
        }
        // Uneven splits at every cut point.
        for cut in 0..=bytes.len() {
            let mut c = Crc32::new();
            c.update(&bytes[..cut]);
            c.update(&bytes[cut..]);
            assert_eq!(c.finish(), whole, "cut {cut}");
        }
    }
}

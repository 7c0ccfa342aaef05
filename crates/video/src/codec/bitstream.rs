//! Bit-level I/O with Exp-Golomb codes — the entropy-coding layer.

/// Writes bits MSB-first into a growable buffer.
///
/// Bits collect in a 64-bit accumulator and reach the buffer a 32-bit word
/// at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// The low `nbits` bits are pending output; higher bits are stale.
    acc: u64,
    /// Always below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer that reuses `buf`'s allocation.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            buf,
            ..BitWriter::default()
        }
    }

    /// Writes a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u32, 1);
    }

    /// Writes the low `n` bits of `v`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn put_bits(&mut self, v: u32, n: u8) {
        assert!(n <= 32, "at most 32 bits at a time");
        self.acc = (self.acc << n) | (v as u64 & ((1u64 << n) - 1));
        self.nbits += n as u32;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Writes an unsigned Exp-Golomb code.
    ///
    /// # Panics
    ///
    /// Panics if `v == u32::MAX`: the longest code [`BitReader::get_ue`]
    /// accepts (31 leading zeros) ends at `u32::MAX - 1`.
    pub fn put_ue(&mut self, v: u32) {
        let x = v.checked_add(1).expect("Exp-Golomb value out of range");
        let len = 32 - x.leading_zeros() as u8; // bit length of x
        self.put_bits(0, len - 1);
        self.put_bits(x, len);
    }

    /// Writes a signed Exp-Golomb code (0, 1, −1, 2, −2, … mapping).
    ///
    /// # Panics
    ///
    /// Panics if `v == i32::MIN`, whose code would need 32 leading zeros.
    pub fn put_se(&mut self, v: i32) {
        assert!(v > i32::MIN, "Exp-Golomb value out of range");
        let m = v.unsigned_abs();
        self.put_ue(if v > 0 { m * 2 - 1 } else { m * 2 });
    }

    /// Flushes any partial byte (zero-padded) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let word = (self.acc << (32 - self.nbits)) as u32;
        let bytes = self.nbits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&word.to_be_bytes()[..bytes]);
        self.buf
    }

    /// Bits written so far (excluding final padding).
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Reads one bit, or `None` at end of stream.
    pub fn get_bit(&mut self) -> Option<bool> {
        let byte = self.data.get(self.pos / 8)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits MSB-first.
    pub fn get_bits(&mut self, n: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u32;
        }
        Some(v)
    }

    /// Reads an unsigned Exp-Golomb code.
    pub fn get_ue(&mut self) -> Option<u32> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 31 {
                return None; // corrupt stream
            }
        }
        let rest = self.get_bits(zeros)?;
        Some((1u32 << zeros) + rest - 1)
    }

    /// Reads a signed Exp-Golomb code.
    pub fn get_se(&mut self) -> Option<i32> {
        let u = self.get_ue()?;
        Some(if u % 2 == 1 {
            u.div_ceil(2) as i32
        } else {
            -((u / 2) as i32)
        })
    }

    /// Current bit offset.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Bits not yet read.
    pub fn bits_left(&self) -> usize {
        self.data.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The scalar reference writer: one bit at a time into a byte.
    #[derive(Default)]
    struct BitAtATime {
        buf: Vec<u8>,
        cur: u8,
        nbits: u8,
    }

    impl BitAtATime {
        fn put_bit(&mut self, bit: bool) {
            self.cur = (self.cur << 1) | bit as u8;
            self.nbits += 1;
            if self.nbits == 8 {
                self.buf.push(self.cur);
                (self.cur, self.nbits) = (0, 0);
            }
        }

        fn put_bits(&mut self, v: u32, n: u8) {
            for i in (0..n).rev() {
                self.put_bit((v >> i) & 1 == 1);
            }
        }

        fn put_ue(&mut self, v: u32) {
            let x = v + 1;
            let len = 32 - x.leading_zeros() as u8;
            for _ in 0..len - 1 {
                self.put_bit(false);
            }
            self.put_bits(x, len);
        }

        fn put_se(&mut self, v: i32) {
            self.put_ue(if v > 0 {
                (v as u32) * 2 - 1
            } else {
                (-(v as i64) as u32) * 2
            });
        }

        fn bit_len(&self) -> usize {
            self.buf.len() * 8 + self.nbits as usize
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.buf.push(self.cur << (8 - self.nbits));
            }
            self.buf
        }
    }

    proptest! {
        /// Random mixes of every put, with values up to the edge of each
        /// code's domain and unmasked high bits in `put_bits`: the same
        /// bytes and bit length as the bit-at-a-time writer, and the reader
        /// gets every value back.
        #[test]
        fn word_writer_matches_the_bit_at_a_time_writer(seed in any::<u64>(), ops in 0usize..200) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // A recycled buffer must not leak its old contents.
            let (mut fast, mut slow) = (BitWriter::reusing(vec![0xAB; 9]), BitAtATime::default());
            let mut written = Vec::new();
            for _ in 0..ops {
                let magnitude = rng.gen_range(0..=31);
                let v = rng.gen_range(0..=u32::MAX - 1) >> magnitude;
                let n = rng.gen_range(0..=32u8);
                let op = rng.gen_range(0..4);
                match op {
                    0 => (fast.put_bit(v & 1 == 1), slow.put_bit(v & 1 == 1)),
                    1 => (fast.put_bits(v, n), slow.put_bits(v, n)),
                    2 => (fast.put_ue(v), slow.put_ue(v)),
                    _ => (fast.put_se((v as i32).max(-i32::MAX)), slow.put_se((v as i32).max(-i32::MAX))),
                };
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
                written.push((op, v, n));
            }
            let bytes = fast.finish();
            prop_assert_eq!(&bytes, &slow.finish());
            let mut r = BitReader::new(&bytes);
            for (op, v, n) in written {
                match op {
                    0 => prop_assert_eq!(r.get_bit(), Some(v & 1 == 1)),
                    1 => prop_assert_eq!(r.get_bits(n), Some((v as u64 & ((1u64 << n) - 1)) as u32)),
                    2 => prop_assert_eq!(r.get_ue(), Some(v)),
                    _ => prop_assert_eq!(r.get_se(), Some((v as i32).max(-i32::MAX))),
                }
            }
            prop_assert!(r.bits_left() < 8);
        }
    }

    #[test]
    fn exp_golomb_domain_edges_roundtrip() {
        let mut w = BitWriter::new();
        w.put_ue(u32::MAX - 1);
        w.put_se(i32::MAX);
        w.put_se(-i32::MAX);
        assert_eq!(w.bit_len(), 3 * 63);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_ue(), Some(u32::MAX - 1));
        assert_eq!(r.get_se(), Some(i32::MAX));
        assert_eq!(r.get_se(), Some(-i32::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ue_rejects_the_value_past_its_domain() {
        BitWriter::new().put_ue(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn se_rejects_the_value_past_its_domain() {
        BitWriter::new().put_se(i32::MIN);
    }

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xFF, 8);
        w.put_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4), Some(0b1011));
        assert_eq!(r.get_bits(8), Some(0xFF));
        assert_eq!(r.get_bit(), Some(true));
    }

    #[test]
    fn ue_roundtrip_exhaustive_small() {
        let mut w = BitWriter::new();
        for v in 0..2000u32 {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 0..2000u32 {
            assert_eq!(r.get_ue(), Some(v));
        }
    }

    #[test]
    fn se_roundtrip() {
        let vals = [0i32, 1, -1, 2, -2, 100, -100, 32767, -32768];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.put_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.get_se(), Some(v));
        }
    }

    #[test]
    fn ue_known_encodings() {
        // 0 → "1", 1 → "010", 2 → "011", 3 → "00100".
        let mut w = BitWriter::new();
        w.put_ue(0);
        w.put_ue(1);
        w.put_ue(2);
        w.put_ue(3);
        assert_eq!(w.bit_len(), 1 + 3 + 3 + 5);
        let bytes = w.finish();
        #[allow(clippy::unusual_byte_groupings)] // grouped per Exp-Golomb code
        let expected = 0b1_010_011_0;
        assert_eq!(bytes[0], expected, "first byte");
    }

    #[test]
    fn reader_handles_truncation() {
        let mut r = BitReader::new(&[0b0000_0000]);
        assert_eq!(r.get_ue(), None); // all zeros: prefix never terminates
    }
}

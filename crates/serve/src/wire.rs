//! Byte-level encoding for the `.taxo` artifact: little-endian primitive
//! writers/readers and the CRC-32 (IEEE 802.3) checksum.
//!
//! Everything here is length-checked: a [`Reader`] never panics on a
//! short buffer, it returns a [`CheckpointError::Corrupt`] naming the
//! field being decoded and the byte offset where the payload ran dry.

use crate::checkpoint::CheckpointError;

/// CRC-32 slicing-by-8 tables (reflected polynomial 0xEDB88320), built
/// at compile time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero
/// bytes, so eight table lookups advance the CRC by eight bytes.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// CRC-32 (IEEE) of `data` — the checksum gzip, PNG, and zip use.
/// Slicing-by-8: eight bytes per step through eight tables, the tail
/// bytewise; the value is the bytewise loop's, bit for bit.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advances the CRC register `c` (pre- and post-inversion left to the
/// caller) over `data`, so a checksum can be taken in pieces.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Bytes a checksum-only [`Writer`] buffers before folding them into
/// its CRC.
const DIGEST_CHUNK: usize = 64 * 1024;

/// Appends little-endian primitives to a growable byte buffer — or, made
/// by [`Writer::digest`], only checksums them: the buffer is folded into
/// a running CRC-32 whenever it fills, so the bytes are never held whole.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
    /// CRC register and count of the bytes already folded out of `buf`;
    /// `None` keeps every byte.
    digest: Option<(u32, u64)>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that keeps no bytes, only their CRC-32 and length
    /// ([`Writer::finish_digest`]).
    pub fn digest() -> Self {
        Self {
            buf: Vec::with_capacity(DIGEST_CHUNK),
            digest: Some((0xFFFF_FFFF, 0)),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.digest.is_none(), "a digest writer keeps no bytes");
        self.buf
    }

    /// `(length, CRC-32)` of everything written to a [`Writer::digest`]
    /// writer: what [`crc32`] of the [`Writer::into_bytes`] of the same
    /// writes would give.
    pub fn finish_digest(self) -> (u64, u32) {
        let (c, folded) = self.digest.expect("a digest writer");
        let len = folded + self.buf.len() as u64;
        (len, crc32_update(c, &self.buf) ^ 0xFFFF_FFFF)
    }

    /// Folds a full buffer into the running CRC (digest writers only).
    fn spill(&mut self) {
        if self.buf.len() < DIGEST_CHUNK {
            return;
        }
        if let Some((c, folded)) = &mut self.digest {
            *c = crc32_update(*c, &self.buf);
            *folded += self.buf.len() as u64;
            self.buf.clear();
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
        self.spill();
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.spill();
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self.spill();
    }

    /// Length-prefixed `f64` slice (bit-exact round trip).
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }
}

/// Cursor over a payload buffer; every read is bounds-checked and failure
/// messages carry the field name and offset.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the whole payload was consumed.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} unexpected trailing bytes after the last section",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Corrupt(format!(
                "payload ends while reading {what}: need {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn get_bool(&mut self, what: &str) -> Result<bool, CheckpointError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::Corrupt(format!(
                "{what}: invalid boolean byte {v}"
            ))),
        }
    }

    pub fn get_u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn get_usize(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| {
            CheckpointError::Corrupt(format!("{what}: value {v} overflows this platform's usize"))
        })
    }

    /// A length prefix that announces at least `elem_size` bytes per
    /// element: rejected immediately when it exceeds the remaining
    /// payload, so a corrupted length cannot trigger a huge allocation.
    pub fn get_len(&mut self, elem_size: usize, what: &str) -> Result<usize, CheckpointError> {
        let n = self.get_usize(what)?;
        if n.checked_mul(elem_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(CheckpointError::Corrupt(format!(
                "{what}: declared length {n} exceeds the remaining {} payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub fn get_str(&mut self, what: &str) -> Result<String, CheckpointError> {
        let n = self.get_len(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CheckpointError::Corrupt(format!("{what}: invalid UTF-8: {e}")))
    }

    pub fn get_f64s(&mut self, what: &str) -> Result<Vec<f64>, CheckpointError> {
        let n = self.get_len(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64(what)?);
        }
        Ok(out)
    }

    pub fn get_u32s(&mut self, what: &str) -> Result<Vec<u32>, CheckpointError> {
        let n = self.get_len(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32(what)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop: the reference the sliced CRC must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical test vector from the CRC-32 specification.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        // SplitMix64 bytes: deterministic, no RNG dependency.
        let mut x = 0x1234_5678_9abc_def0u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        // Every length 0..=64 at every alignment within an 8-byte word,
        // so each chunk/tail split is hit.
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &bytes[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
        // One 1 MiB buffer, also from an unaligned start.
        let big = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(big), crc32_bytewise(big));
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_str("héllo");
        w.put_f64s(&[1.5, f64::MIN_POSITIVE, -0.0]);
        w.put_u32s(&[3, 1, 4]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert!(r.get_bool("b").unwrap());
        assert_eq!(r.get_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64("e").unwrap(), -0.125);
        assert_eq!(r.get_str("f").unwrap(), "héllo");
        let fs = r.get_f64s("g").unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[2].to_bits(), (-0.0f64).to_bits(), "bit-exact");
        assert_eq!(r.get_u32s("h").unwrap(), vec![3, 1, 4]);
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn a_digest_writer_gives_the_crc_and_length_of_the_bytes() {
        // Enough writes to spill several chunks, with odd-sized pieces so
        // the spills fall mid-value.
        let write = |w: &mut Writer| {
            for i in 0..40_000u32 {
                w.put_u8(i as u8);
                w.put_u32(i);
                w.put_f64(i as f64 * 0.37);
                if i % 1000 == 0 {
                    w.put_str(&"é".repeat(i as usize / 100));
                    w.put_u32s(&[i, i + 1]);
                    w.put_f64s(&[-0.0, f64::MAX]);
                }
            }
        };
        let mut kept = Writer::new();
        write(&mut kept);
        let bytes = kept.into_bytes();
        assert!(bytes.len() > 4 * DIGEST_CHUNK);
        let mut digest = Writer::digest();
        write(&mut digest);
        assert_eq!(digest.finish_digest(), (bytes.len() as u64, crc32(&bytes)));
        assert_eq!(Writer::digest().finish_digest(), (0, crc32(b"")));
    }

    #[test]
    fn reader_reports_field_and_offset_on_underrun() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.get_u32("user count").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("user count"), "{msg}");
        assert!(msg.contains("offset 0"), "{msg}");
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64s("embeddings").is_err());
    }

    #[test]
    fn bad_boolean_byte_is_corrupt() {
        let mut r = Reader::new(&[2]);
        assert!(r
            .get_bool("flag")
            .unwrap_err()
            .to_string()
            .contains("boolean"));
    }
}

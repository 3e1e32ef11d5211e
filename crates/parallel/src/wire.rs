//! Compact little-endian wire encoding.
//!
//! Messages on the substrate are owned byte payloads (`Vec<u8>`): a
//! writer's buffer is the payload it sends, and a reader owns the
//! payload it walks with a cursor, so neither end copies the bytes.
//! This module provides a small, allocation-conscious encoding layer used
//! by the solver, the visualisation algorithms and the steering protocol:
//! fixed-width little-endian scalars, length-prefixed sequences, and a
//! [`Wire`] trait for composite types.
//!
//! The format is deliberately simple (no schema evolution) because both
//! ends of every channel are compiled from the same source — the same
//! situation as MPI messages inside one binary.

use crate::error::{CommError, CommResult};

/// Serialisation sink with typed put helpers.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A new empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer pre-sized for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` (little-endian bit pattern).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (little-endian bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_f64_seq(v.iter().copied());
    }

    /// Append `values` in the encoding of [`Self::put_f64_slice`]
    /// without staging them in a slice first (gathers such as the halo
    /// pack).
    pub fn put_f64_seq(&mut self, values: impl ExactSizeIterator<Item = f64>) {
        self.put_usize(values.len());
        for x in values {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed raw byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append an encodable value.
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Finish, yielding the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserialisation cursor over a received payload.
#[derive(Debug)]
pub struct WireReader {
    buf: Vec<u8>,
    /// Bytes consumed so far.
    pos: usize,
}

macro_rules! need {
    ($self:ident, $n:expr, $what:expr) => {
        if $self.remaining() < $n {
            return Err(CommError::Decode {
                reason: format!(
                    "truncated payload: need {} bytes for {}, have {}",
                    $n,
                    $what,
                    $self.remaining()
                ),
            });
        }
    };
}

impl WireReader {
    /// Wrap a payload for reading.
    pub fn new(buf: Vec<u8>) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume the next `n` bytes; callers check `remaining` first.
    fn take(&mut self, n: usize) -> &[u8] {
        let raw = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        raw
    }

    /// Consume the next `N` bytes as an array; callers check first.
    fn take_le<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("N bytes")
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> CommResult<u8> {
        need!(self, 1, "u8");
        Ok(self.take(1)[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> CommResult<u32> {
        need!(self, 4, "u32");
        Ok(u32::from_le_bytes(self.take_le()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> CommResult<u64> {
        need!(self, 8, "u64");
        Ok(u64::from_le_bytes(self.take_le()))
    }

    /// Read an `f32`.
    pub fn get_f32(&mut self) -> CommResult<f32> {
        need!(self, 4, "f32");
        Ok(f32::from_le_bytes(self.take_le()))
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> CommResult<f64> {
        need!(self, 8, "f64");
        Ok(f64::from_le_bytes(self.take_le()))
    }

    /// Read a `usize` (encoded as `u64`); errors if it overflows `usize`.
    pub fn get_usize(&mut self) -> CommResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CommError::Decode {
            reason: format!("length {v} overflows usize"),
        })
    }

    /// Read a `bool`.
    pub fn get_bool(&mut self) -> CommResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CommResult<String> {
        let n = self.get_checked_len(1, "string")?;
        String::from_utf8(self.take(n).to_vec()).map_err(|e| CommError::Decode {
            reason: format!("invalid utf-8: {e}"),
        })
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> CommResult<Vec<f64>> {
        let n = self.get_checked_len(8, "f64 slice")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_le_bytes(self.take_le()));
        }
        Ok(out)
    }

    /// Read a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> CommResult<Vec<f32>> {
        let n = self.get_checked_len(4, "f32 slice")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_le_bytes(self.take_le()));
        }
        Ok(out)
    }

    /// Read a length-prefixed `f32` slice into `out` (cleared first),
    /// reusing its allocation — the bulk path for pixel payloads, which
    /// are decoded once per compositing round per frame.
    pub fn get_f32_slice(&mut self, out: &mut Vec<f32>) -> CommResult<()> {
        let n = self.get_checked_len(4, "f32 slice")?;
        out.clear();
        out.reserve(n);
        for ch in self.take(n * 4).chunks_exact(4) {
            out.push(f32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]));
        }
        Ok(())
    }

    /// Read a length-prefixed `f64` slice straight into `out` — the bulk
    /// path for halo payloads, which are decoded once per peer per LB
    /// step into a fixed slot range. The encoded length must equal
    /// `out.len()`; it is checked before anything is written, so a
    /// malformed payload leaves `out` untouched.
    pub fn get_f64_into(&mut self, out: &mut [f64]) -> CommResult<()> {
        let n = self.get_checked_len(8, "f64 slice")?;
        if n != out.len() {
            return Err(CommError::Decode {
                reason: format!("f64 slice of {n} elems where {} were expected", out.len()),
            });
        }
        for (v, ch) in out.iter_mut().zip(self.take(n * 8).chunks_exact(8)) {
            *v = f64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
        }
        Ok(())
    }

    /// Read a length-prefixed raw byte vector.
    pub fn get_bytes(&mut self) -> CommResult<Vec<u8>> {
        let n = self.get_checked_len(1, "byte slice")?;
        Ok(self.take(n).to_vec())
    }

    /// Read a decodable value.
    pub fn get<T: Wire>(&mut self) -> CommResult<T> {
        T::decode(self)
    }

    /// Error unless the payload has been fully consumed. Useful as a
    /// trailing check in protocol decoders.
    pub fn expect_end(&self) -> CommResult<()> {
        if self.remaining() > 0 {
            Err(CommError::Decode {
                reason: format!("{} trailing bytes after decode", self.remaining()),
            })
        } else {
            Ok(())
        }
    }

    /// Read a count of `elem`-byte items and check that `count * elem`
    /// bytes remain. This is the one rule for every count read off the
    /// wire: it is checked against the bytes that remain *before* any
    /// `with_capacity`, so a corrupt or hostile count is a `Decode`
    /// error, never a huge allocation. `elem` is the least number of
    /// bytes one item can take.
    pub fn get_checked_len(&mut self, elem: usize, what: &str) -> CommResult<usize> {
        let n = self.get_usize()?;
        let need = n.checked_mul(elem).ok_or_else(|| CommError::Decode {
            reason: format!("length overflow decoding {what}"),
        })?;
        if self.remaining() < need {
            return Err(CommError::Decode {
                reason: format!(
                    "truncated payload: {what} of {n} elems needs {need} bytes, have {}",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }
}

/// Types with a fixed, self-describing wire encoding.
pub trait Wire: Sized {
    /// Append `self` to the writer.
    fn encode(&self, w: &mut WireWriter);
    /// Parse one value from the reader.
    fn decode(r: &mut WireReader) -> CommResult<Self>;

    /// Encode as a standalone payload.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decode from a standalone payload, requiring full consumption.
    fn from_bytes(b: Vec<u8>) -> CommResult<Self> {
        let mut r = WireReader::new(b);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_u64()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_u32()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_f64()
    }
}

impl Wire for f32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f32(*self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_f32()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_bool()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        // Each element needs at least one byte.
        let n = r.get_checked_len(1, "vec")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, U: Wire> Wire for (T, U) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        Ok((T::decode(r)?, U::decode(r)?))
    }
}

impl Wire for [f64; 3] {
    fn encode(&self, w: &mut WireWriter) {
        for &x in self {
            w.put_f64(x);
        }
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        Ok([r.get_f64()?, r.get_f64()?, r.get_f64()?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f32(1.5);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("aneurysm");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "aneurysm");
        r.expect_end().unwrap();
    }

    #[test]
    fn slices_round_trip() {
        let mut w = WireWriter::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        w.put_bytes(b"xyz");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(&r.get_bytes().unwrap()[..], b"xyz");
        r.expect_end().unwrap();
    }

    #[test]
    fn f32_slice_bulk_round_trip() {
        let mut w = WireWriter::new();
        w.put_f32_slice(&[1.5, -0.25, f32::INFINITY]);
        w.put_f32_slice(&[]);
        let mut r = WireReader::new(w.finish());
        let mut out = vec![9.0f32; 8]; // pre-filled: must be cleared
        r.get_f32_slice(&mut out).unwrap();
        assert_eq!(out, vec![1.5, -0.25, f32::INFINITY]);
        r.get_f32_slice(&mut out).unwrap();
        assert!(out.is_empty());
        r.expect_end().unwrap();

        let mut w = WireWriter::new();
        w.put_u64(4); // claims 4 f32s, provides none
        let mut r = WireReader::new(w.finish());
        assert!(r.get_f32_slice(&mut out).is_err());
    }

    #[test]
    fn f64_read_into_checks_the_count_before_writing() {
        let mut w = WireWriter::new();
        w.put_f64_slice(&[1.5, -0.25, f64::INFINITY]);
        let payload = w.finish();
        let mut out = [9.0f64; 3];
        let mut r = WireReader::new(payload.clone());
        r.get_f64_into(&mut out).unwrap();
        assert_eq!(out, [1.5, -0.25, f64::INFINITY]);
        r.expect_end().unwrap();

        // Wrong count, either way: an error, and nothing written.
        for len in [2, 4] {
            let mut out = vec![9.0f64; len];
            let err = WireReader::new(payload.clone()).get_f64_into(&mut out);
            assert!(matches!(err, Err(CommError::Decode { .. })));
            assert!(out.iter().all(|&v| v == 9.0));
        }

        let mut w = WireWriter::new();
        w.put_u64(3); // claims 3 f64s, provides none
        assert!(WireReader::new(w.finish()).get_f64_into(&mut out).is_err());
        assert_eq!(out, [1.5, -0.25, f64::INFINITY]);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.put_u64(5);
        let mut r = WireReader::new(w.finish());
        // Claims 5 f64s but has none.
        assert!(r.get_f64_vec().is_err());
    }

    #[test]
    fn corrupt_huge_length_fails_cleanly() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_f64_vec().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u8(0);
        let b = w.finish();
        assert!(matches!(u64::from_bytes(b), Err(CommError::Decode { .. })));
    }

    #[test]
    fn composite_wire_round_trip() {
        let v: Vec<(u32, String)> = vec![(1, "a".into()), (2, "bb".into())];
        let b = v.to_bytes();
        let back = Vec::<(u32, String)>::from_bytes(b).unwrap();
        assert_eq!(back, v);
    }
}

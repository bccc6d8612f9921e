//! # skyferry-bufs
//!
//! A minimal, dependency-free byte-buffer library exposing the subset of
//! the `bytes` crate API the workspace uses (`Bytes`, `BytesMut`, `Buf`,
//! `BufMut`). The workspace aliases this crate as `bytes`, so codec code
//! is written against the familiar interface and could be switched to the
//! upstream crate without source changes.
//!
//! Semantics match upstream where it matters for the codecs:
//!
//! * `Bytes` is an immutable view with a read cursor: `Buf::get_*`
//!   consume from the front; `Deref<Target = [u8]>` exposes the
//!   *remaining* bytes.
//! * `BytesMut` is an append-only builder; `Deref<Target = [u8]>`
//!   exposes what has been written.
//!
//! The one intentional divergence: cloning `Bytes` copies the buffer
//! instead of sharing a refcount. Frames in the simulator are small and
//! short-lived, so the copy is irrelevant — and nothing here is ever
//! shared across threads mid-parse.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;

/// Read-side trait: sequential little-endian accessors over a cursor.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Read the next `dst.len()` bytes into `dst`, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write-side trait: sequential little-endian appenders.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Byte slices are readable buffers, as in upstream `bytes`: reads
/// consume from the front by shrinking the slice. Lets codecs decode
/// borrowed payloads without copying them into a [`Bytes`] first.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy_to_slice overruns buffer");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// An immutable byte buffer with a front read cursor.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Remaining (unread) length.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.as_slice()[..dst.len()]);
        self.pos += dst.len();
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes {
            data: s.to_vec(),
            pos: 0,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// An append-only byte builder.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_f32_le(1.5);
        w.put_f64_le(-0.1);
        w.put_slice(&[1, 2, 3]);
        let mut r = Bytes::from(&w[..]);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le().to_bits(), (-0.1f64).to_bits());
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(tail, [1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn deref_sees_only_remaining() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        let _ = b.get_u8();
        assert_eq!(&b[..], &[2, 3, 4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn equality_ignores_consumed_prefix() {
        let mut a = Bytes::from(vec![9, 1, 2]);
        let _ = a.get_u8();
        assert_eq!(a, Bytes::from(vec![1, 2]));
    }
}

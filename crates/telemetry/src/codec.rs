//! The byte rules every binary format in the stack shares: little-endian
//! fixed-width fields, one bounds-checked read cursor with a guard that a
//! declared count fits the bytes left, and 64-bit FNV-1a.
//!
//! The calibration snapshot, the class tokens, the ε-ledger and the wire
//! frames use it. It knows none of their layouts: each keeps its magic,
//! version, length-prefix width and error enum, and maps a [`CodecError`]
//! into that enum with one `From` impl.
//!
//! ```
//! use pufferfish_telemetry::codec::{put_u32, Cursor};
//!
//! let mut bytes = Vec::new();
//! put_u32(&mut bytes, 7);
//! let mut cursor = Cursor::new(&bytes);
//! assert_eq!(cursor.u32(), Ok(7));
//! assert!(cursor.u8().is_err());
//! ```

use std::hash::Hasher;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, one byte per multiply: the snapshot's body
/// checksum and the ledger's query signature. It catches truncation and
/// bit-rot, not an adversary.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::default();
    hasher.write(bytes);
    hasher.finish()
}

/// FNV-1a folded over little-endian 64-bit words, then byte by byte over
/// the last `len % 8` bytes: the ledger's per-record checksum, cheap enough
/// for the warm admission path that appends records.
#[must_use]
pub fn fnv1a_words(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut hash = FNV_OFFSET_BASIS;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Byte-wise FNV-1a as a [`Hasher`] whose integer writes are little-endian
/// and 64-bit for `usize`/`isize`, so a digest depends only on the values
/// fed to it, not on the host or the toolchain. Class tokens are persisted
/// in calibration snapshots, which makes that a format requirement.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a {
            state: FNV_OFFSET_BASIS,
        }
    }
}

// std's `write_u8` and `write_i8`..`write_i128` forward to the writes
// below; `isize`, like `usize`, is written as 64 bits.
impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.state
    }
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state = (self.state ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// Appends `value` little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value`'s IEEE 754 bits little-endian, NaN payloads included.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Why the [`Cursor`] refused a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A field runs past the end of the bytes.
    PastEnd {
        /// Bytes the field needs.
        needed: usize,
        /// Bytes that remain.
        available: usize,
    },
    /// A declared count of items cannot fit in the bytes that remain.
    CountTooLarge {
        /// The declared count.
        count: u64,
        /// Bytes that remain.
        available: usize,
    },
    /// Text of the declared length is not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CodecError::PastEnd { needed, available } => {
                write!(f, "a field needs {needed} bytes, {available} remain")
            }
            CodecError::CountTooLarge { count, available } => {
                write!(f, "{count} items cannot fit in the {available} bytes left")
            }
            CodecError::NotUtf8 => f.write_str("text is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked little-endian read cursor over a byte slice. No read
/// panics or allocates beyond the bytes given, and a read past the end
/// leaves the cursor where it was.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// Bytes not read yet.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads the next `len` bytes as they are.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than `len` bytes remain.
    #[inline]
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let Some((field, rest)) = self.rest.split_at_checked(len) else {
            return Err(CodecError::PastEnd {
                needed: len,
                available: self.rest.len(),
            });
        };
        self.rest = rest;
        Ok(field)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when no byte remains.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[byte]| byte)
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than 2 bytes remain.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its little-endian IEEE 754 bits.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than 8 bytes remain.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Checks that `count` items of at least `item_bytes` bytes each fit in
    /// the bytes that remain, before anything is allocated for them, and
    /// returns the count.
    ///
    /// # Errors
    /// [`CodecError::CountTooLarge`] when they cannot fit.
    #[inline]
    pub fn count(&self, count: u64, item_bytes: usize) -> Result<usize, CodecError> {
        let available = self.rest.len();
        usize::try_from(count)
            .ok()
            .filter(|&n| {
                n.checked_mul(item_bytes)
                    .is_some_and(|len| len <= available)
            })
            .ok_or(CodecError::CountTooLarge { count, available })
    }

    /// Reads `len` bytes of UTF-8 text.
    ///
    /// # Errors
    /// [`CodecError::PastEnd`] when fewer than `len` bytes remain,
    /// [`CodecError::NotUtf8`] when they are not UTF-8.
    pub fn text(&mut self, len: usize) -> Result<String, CodecError> {
        let text = self.bytes(len)?;
        std::str::from_utf8(text)
            .map(str::to_owned)
            .map_err(|_| CodecError::NotUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn fnv1a_of_nothing_is_the_offset_basis() {
        assert_eq!(fnv1a(&[]), FNV_OFFSET_BASIS);
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET_BASIS);
        // Under 8 bytes the word fold is the byte-wise hash.
        assert_eq!(fnv1a_words(b"pufferf"), fnv1a(b"pufferf"));
        assert_ne!(fnv1a_words(b"pufferfish"), fnv1a(b"pufferfish"));
    }

    #[test]
    fn hasher_integer_writes_are_little_endian() {
        let digest = |value: &dyn Fn(&mut Fnv1a)| {
            let mut hasher = Fnv1a::default();
            value(&mut hasher);
            hasher.finish()
        };
        let bytes = 0x0506_0708u64.to_le_bytes();
        assert_eq!(digest(&|h| 0x0506_0708u64.hash(h)), fnv1a(&bytes));
        // A usize hashes as a u64 on every pointer width.
        assert_eq!(digest(&|h| 0x0506_0708usize.hash(h)), fnv1a(&bytes));
        assert_eq!(
            digest(&|h| (-2i32).hash(h)),
            fnv1a(&[0xfe, 0xff, 0xff, 0xff])
        );
    }

    #[test]
    fn reads_return_what_the_writers_wrote() {
        let mut bytes = Vec::new();
        bytes.push(7);
        put_u16(&mut bytes, 0xbeef);
        put_u32(&mut bytes, 0xdead_beef);
        put_u64(&mut bytes, u64::MAX - 1);
        put_f64(&mut bytes, -0.0);
        bytes.extend_from_slice("ε".as_bytes());
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(cursor.u8(), Ok(7));
        assert_eq!(cursor.u16(), Ok(0xbeef));
        assert_eq!(cursor.u32(), Ok(0xdead_beef));
        assert_eq!(cursor.u64(), Ok(u64::MAX - 1));
        assert_eq!(cursor.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(cursor.text(2).as_deref(), Ok("ε"));
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn refusals_are_typed() {
        let bytes = [0xff, 0xfe, 0, 0, 0];
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(
            cursor.u64(),
            Err(CodecError::PastEnd {
                needed: 8,
                available: 5
            })
        );
        // A refused read leaves the cursor where it was.
        assert_eq!(cursor.remaining(), 5);
        assert_eq!(cursor.count(5, 1), Ok(5));
        assert_eq!(cursor.count(0, usize::MAX), Ok(0));
        assert_eq!(
            cursor.count(3, 2),
            Err(CodecError::CountTooLarge {
                count: 3,
                available: 5
            })
        );
        assert!(cursor.count(u64::MAX, 2).is_err());
        assert_eq!(
            cursor.text(6),
            Err(CodecError::PastEnd {
                needed: 6,
                available: 5
            })
        );
        assert_eq!(cursor.text(2), Err(CodecError::NotUtf8));
    }
}

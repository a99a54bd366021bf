//! The record-file framing shared by the persistent verdict-cache tier
//! ([`crate::persist`]) and corpus traces (`delin_corpus::trace`).
//!
//! # Format
//!
//! ```text
//! magic    8 bytes                             names the file kind
//! version  u32 LE                              format revision
//! stamp    fixed bytes (possibly none)         must match verbatim
//! record*  u32 len · u64 checksum · payload    until end of file
//! ```
//!
//! The checksum is the FxHash of the payload. A payload is a sequence of
//! little-endian integers and `u32`-length-prefixed byte strings, written
//! with [`Payload`] and read back with [`Cursor`]; what the fields mean is
//! the business of the format that owns the file.
//!
//! Both formats are untrusted input. [`RecordReader`] streams records and
//! stops at the first one that fails: short, checksum mismatch, or a
//! payload its decoder refuses ([`RecordError`] names its index). It reads
//! a payload only as far as the file holds it, so a length prefix never
//! allocates more than the file's own size. [`write_file`] writes to a
//! sibling temporary file and renames it over the target, so a reader
//! never sees a half-written file.

use std::fmt;
use std::fs::File;
use std::hash::Hasher as _;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// What a record file's header holds.
#[derive(Debug)]
pub struct Header<'a> {
    /// The file magic.
    pub magic: &'a [u8; 8],
    /// The format revision.
    pub version: u32,
    /// Bytes after the version that a reader must find verbatim (the
    /// verdict cache writes its fingerprint-schema probe here; traces
    /// write none).
    pub stamp: &'a [u8],
}

/// Why a record file was not trusted. Every record-level error names the
/// zero-based index of the record at which trust ended; everything before
/// it decoded cleanly.
#[derive(Debug)]
pub enum RecordError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file's format revision is not the expected one.
    BadVersion {
        /// Revision found in the header (0 when the file ends first).
        found: u32,
    },
    /// The header's stamp does not match (for the verdict cache: the file
    /// was written by a build with another fingerprint schema).
    BadStamp,
    /// The file ends mid-record: the length prefix promises more bytes
    /// than remain.
    Truncated {
        /// Index of the incomplete record.
        record: usize,
    },
    /// A record's payload does not match its checksum.
    Corrupt {
        /// Index of the mismatching record.
        record: usize,
    },
    /// A record's framing and checksum were valid but its payload does not
    /// decode (an encoder bug or a crafted file).
    Malformed {
        /// Index of the undecodable record.
        record: usize,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "i/o error: {e}"),
            RecordError::BadMagic => write!(f, "bad magic (not a file of this kind)"),
            RecordError::BadVersion { found } => write!(f, "unsupported format version {found}"),
            RecordError::BadStamp => write!(f, "header stamp does not match this build"),
            RecordError::Truncated { record } => write!(f, "truncated at record {record}"),
            RecordError::Corrupt { record } => write!(f, "checksum mismatch at record {record}"),
            RecordError::Malformed { record } => {
                write!(f, "record {record} is framed correctly but does not decode")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> RecordError {
        RecordError::Io(e)
    }
}

/// The record checksum: the FxHash of the payload.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = fxhash::FxHasher::default();
    h.write(payload);
    h.finish()
}

// ----------------------------------------------------------------- writing

/// One record's payload under construction.
#[derive(Debug, Default)]
pub struct Payload(Vec<u8>);

impl Payload {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128`, little-endian.
    pub fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a byte string after its `u32` length.
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }

    /// The bytes appended so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Writes a header and then framed records onto `W`.
#[derive(Debug)]
pub struct RecordWriter<W: Write> {
    out: W,
    payload: Payload,
    written: usize,
}

impl<W: Write> RecordWriter<W> {
    /// Starts a record file on `out` by writing `header`.
    pub fn new(mut out: W, header: &Header<'_>) -> io::Result<RecordWriter<W>> {
        out.write_all(header.magic)?;
        out.write_all(&header.version.to_le_bytes())?;
        out.write_all(header.stamp)?;
        Ok(RecordWriter { out, payload: Payload::default(), written: 0 })
    }

    /// Appends one record whose payload `encode` writes.
    pub fn record(&mut self, encode: impl FnOnce(&mut Payload)) -> io::Result<()> {
        self.payload.0.clear();
        encode(&mut self.payload);
        let payload = self.payload.as_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record exceeds 4 GiB"))?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&checksum(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the output and the number of records written.
    pub fn finish(mut self) -> io::Result<(W, usize)> {
        self.out.flush()?;
        Ok((self.out, self.written))
    }
}

/// Writes a record file to `path` atomically: `write` fills a sibling
/// temporary file (`path` with extension `tmp`), which is then renamed
/// over `path`. Returns the number of records written.
///
/// # Errors
///
/// Propagates the errors of creating, writing and renaming the file, and
/// any error `write` returns.
pub fn write_file(
    path: &Path,
    header: &Header<'_>,
    write: impl FnOnce(&mut RecordWriter<BufWriter<File>>) -> io::Result<()>,
) -> io::Result<usize> {
    let tmp = path.with_extension("tmp");
    let mut writer = RecordWriter::new(BufWriter::new(File::create(&tmp)?), header)?;
    write(&mut writer)?;
    let (_, written) = writer.finish()?;
    std::fs::rename(&tmp, path)?;
    Ok(written)
}

// ----------------------------------------------------------------- reading

/// A bounds-checked reader over one record's payload. Every read returns
/// `None` once the payload runs out, so a decoder written with `?` never
/// panics on a short or crafted payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Whether every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_le_bytes)
    }

    /// The next little-endian `i128`.
    pub fn i128(&mut self) -> Option<i128> {
        self.array().map(i128::from_le_bytes)
    }

    /// The next `u32`-length-prefixed byte string.
    pub fn blob(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// The next `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.blob()?).ok()
    }
}

/// Streams the records of a record file, checking each frame before its
/// payload reaches a decoder.
#[derive(Debug)]
pub struct RecordReader<R: Read> {
    input: R,
    /// Bytes the input still holds.
    left: u64,
    /// Index of the next record.
    record: usize,
    /// The bytes last read, reused from record to record.
    buf: Vec<u8>,
}

impl RecordReader<BufReader<File>> {
    /// Opens `path` and checks its header.
    pub fn open(path: &Path, header: &Header<'_>) -> Result<Self, RecordError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        RecordReader::new(BufReader::new(file), len, header)
    }
}

impl<R: Read> RecordReader<R> {
    /// Checks `header` at the start of `input`, which holds `len` bytes,
    /// and positions the reader at the first record.
    pub fn new(input: R, len: u64, header: &Header<'_>) -> Result<Self, RecordError> {
        let mut reader = RecordReader { input, left: len, record: 0, buf: Vec::new() };
        if reader.take(8)? != Some(&header.magic[..]) {
            return Err(RecordError::BadMagic);
        }
        let found = reader.take(4)?.and_then(|b| Cursor::new(b).u32()).unwrap_or(0);
        if found != header.version {
            return Err(RecordError::BadVersion { found });
        }
        if reader.take(header.stamp.len())? != Some(header.stamp) {
            return Err(RecordError::BadStamp);
        }
        Ok(reader)
    }

    /// The next `n` bytes of the input, or `None` when it holds fewer. The
    /// buffer grows only after `n` was checked against what is left.
    fn take(&mut self, n: usize) -> Result<Option<&[u8]>, RecordError> {
        if n as u64 > self.left {
            return Ok(None);
        }
        self.buf.clear();
        self.buf.resize(n, 0);
        match self.input.read_exact(&mut self.buf) {
            Ok(()) => self.left -= n as u64,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.left = 0;
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        }
        Ok(Some(&self.buf))
    }

    /// Reads the next record and decodes its payload with `decode`, which
    /// must consume all of it. `Ok(None)` at a clean end of file.
    pub fn next_with<T>(
        &mut self,
        decode: impl FnOnce(&mut Cursor<'_>) -> Option<T>,
    ) -> Result<Option<T>, RecordError> {
        if self.left == 0 {
            return Ok(None);
        }
        let record = self.record;
        let (len, sum) = match self.take(12)? {
            Some(frame) => {
                let mut frame = Cursor::new(frame);
                (frame.u32(), frame.u64())
            }
            None => (None, None),
        };
        let (Some(len), Some(sum)) = (len, sum) else {
            return Err(RecordError::Truncated { record });
        };
        let Some(payload) = self.take(len as usize)? else {
            return Err(RecordError::Truncated { record });
        };
        if checksum(payload) != sum {
            return Err(RecordError::Corrupt { record });
        }
        let mut cursor = Cursor::new(payload);
        match decode(&mut cursor) {
            Some(value) if cursor.at_end() => {
                self.record += 1;
                Ok(Some(value))
            }
            _ => Err(RecordError::Malformed { record }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: Header<'static> = Header { magic: b"RECTEST\x01", version: 7, stamp: b"st" };

    fn file(records: &[&[u8]]) -> Vec<u8> {
        let mut w = RecordWriter::new(Vec::new(), &HEADER).unwrap();
        for r in records {
            w.record(|p| p.blob(r)).unwrap();
        }
        let (bytes, written) = w.finish().unwrap();
        assert_eq!(written, records.len());
        bytes
    }

    /// Every blob of `bytes`, or the error that stopped the reader.
    fn read(bytes: &[u8]) -> Result<Vec<Vec<u8>>, RecordError> {
        let mut r = RecordReader::new(bytes, bytes.len() as u64, &HEADER)?;
        let mut out = Vec::new();
        while let Some(blob) = r.next_with(|c| c.blob().map(<[u8]>::to_vec))? {
            out.push(blob);
        }
        Ok(out)
    }

    #[test]
    fn records_round_trip_in_order() {
        let records: [&[u8]; 3] = [b"one", b"", b"three"];
        let back = read(&file(&records)).unwrap();
        assert_eq!(back, records.map(<[u8]>::to_vec));
        assert!(read(&file(&[])).unwrap().is_empty());
    }

    #[test]
    fn the_frame_layout_is_fixed() {
        let bytes = file(&[b"ab"]);
        let mut expected = b"RECTEST\x01".to_vec();
        expected.extend_from_slice(&7u32.to_le_bytes());
        expected.extend_from_slice(b"st");
        let payload = [2, 0, 0, 0, b'a', b'b'];
        expected.extend_from_slice(&6u32.to_le_bytes());
        expected.extend_from_slice(&checksum(&payload).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(bytes, expected);
    }

    #[test]
    fn header_damage_is_named() {
        let good = file(&[b"x"]);
        let mut magic = good.clone();
        magic[0] ^= 0xff;
        assert!(matches!(read(&magic), Err(RecordError::BadMagic)));
        let mut version = good.clone();
        version[8] = 99;
        assert!(matches!(read(&version), Err(RecordError::BadVersion { found: 99 })));
        let mut stamp = good.clone();
        stamp[12] ^= 1;
        assert!(matches!(read(&stamp), Err(RecordError::BadStamp)));
        assert!(matches!(read(&good[..5]), Err(RecordError::BadMagic)));
        assert!(matches!(read(&good[..10]), Err(RecordError::BadVersion { found: 0 })));
        assert!(matches!(read(&good[..13]), Err(RecordError::BadStamp)));
    }

    #[test]
    fn the_first_bad_record_is_named() {
        let bytes = file(&[b"first", b"second", b"third"]);
        let second = 14 + 12 + 9;
        let third = second + 12 + 10;
        // Cut inside the third record's frame, then inside its payload.
        for cut in [third + 5, bytes.len() - 1] {
            assert!(matches!(read(&bytes[..cut]), Err(RecordError::Truncated { record: 2 })));
        }
        let mut flipped = bytes.clone();
        flipped[second + 12 + 6] ^= 0x40;
        assert!(matches!(read(&flipped), Err(RecordError::Corrupt { record: 1 })));
        // A payload with a byte left over after decoding is malformed.
        let mut w = RecordWriter::new(Vec::new(), &HEADER).unwrap();
        w.record(|p| p.blob(b"ok")).unwrap();
        w.record(|p| {
            p.blob(b"ok");
            p.u8(0);
        })
        .unwrap();
        let (trailing, _) = w.finish().unwrap();
        assert!(matches!(read(&trailing), Err(RecordError::Malformed { record: 1 })));
    }

    #[test]
    fn a_length_prefix_past_the_end_is_truncation_without_a_buffer() {
        let mut bytes = file(&[]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let mut r = RecordReader::new(&bytes[..], bytes.len() as u64, &HEADER).unwrap();
        assert!(matches!(r.next_with(|_| Some(())), Err(RecordError::Truncated { record: 0 })));
        assert!(r.buf.capacity() < 64, "the payload buffer grew to {}", r.buf.capacity());
    }

    #[test]
    fn a_short_input_behind_a_long_length_is_truncation() {
        // The input holds fewer bytes than the caller claimed.
        let bytes = file(&[b"payload"]);
        let mut r = RecordReader::new(&bytes[..], bytes.len() as u64 + 100, &HEADER).unwrap();
        assert!(r.next_with(|c| c.blob().map(<[u8]>::to_vec)).unwrap().is_some());
        assert!(matches!(r.next_with(|_| Some(())), Err(RecordError::Truncated { record: 1 })));
    }

    #[test]
    fn the_cursor_stops_at_the_end() {
        let mut p = Payload::default();
        p.u8(1);
        p.u32(2);
        p.u64(3);
        p.u128(4);
        p.i128(-5);
        p.blob("é".as_bytes());
        p.blob(&[0xff]);
        let mut c = Cursor::new(p.as_bytes());
        assert_eq!(
            (c.u8(), c.u32(), c.u64(), c.u128(), c.i128(), c.str()),
            (Some(1), Some(2), Some(3), Some(4), Some(-5), Some("é"))
        );
        assert_eq!(c.str(), None, "invalid UTF-8");
        assert!(c.at_end());
        assert_eq!((c.u8(), c.u32(), c.bytes(usize::MAX)), (None, None, None));
        let mut long = Cursor::new(&[0xff, 0xff, 0xff, 0xff, 0]);
        assert_eq!(long.blob(), None, "a length past the end");
    }
}

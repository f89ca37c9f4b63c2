//! Length- and CRC32-framed records — the on-disk substrate of the
//! durability layer (`reweb_persist`).
//!
//! A *frame* is `[len: u32 LE][crc32(payload): u32 LE][payload bytes]`.
//! Frames are written append-only; a reader scans a byte buffer from the
//! front and stops at the first frame that is incomplete or fails its
//! checksum. Everything before that point is trusted, everything from it
//! on is a **torn tail** — the expected residue of a crash mid-write —
//! and is reported (not discarded silently) so the writer can truncate
//! the file back to the valid prefix before appending again.
//!
//! The payloads themselves are opaque bytes here; the durability layer
//! puts the textual [`crate::Term`] syntax inside them, so log records
//! survive process boundaries (interned [`crate::Sym`]s serialize as
//! strings and re-intern on load).

/// Maximum payload size a frame may claim (64 MiB). A length prefix
/// larger than this is treated as corruption rather than an instruction
/// to allocate arbitrary memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Size of the frame header: 4 length bytes + 4 CRC bytes.
pub const FRAME_HEADER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), bit-reflected,
/// table-driven. Self-contained because the build environment has no
/// registry access for a checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Encode one frame (header + payload) into a fresh byte vector.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, payload);
    out
}

/// Append one encoded frame (header + payload) to `out`. The caller
/// keeps payloads within [`MAX_FRAME_LEN`]: a frame the reader would
/// classify as corrupt must never be written.
pub fn encode_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Read one frame from a blocking stream and return its payload. A
/// header announcing more than `max_len` (or [`MAX_FRAME_LEN`]) bytes is
/// refused before any payload byte is read or buffered.
pub fn read_frame(r: &mut impl std::io::Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match fill(r, &mut header)? {
        0 => return Err(FrameError::Eof),
        FRAME_HEADER_LEN => {}
        _ => return Err(FrameError::Truncated),
    }
    let (len, crc) = parse_header(&header);
    if len > MAX_FRAME_LEN || len as usize > max_len {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    if fill(r, &mut payload)? < payload.len() {
        return Err(FrameError::Truncated);
    }
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt);
    }
    Ok(payload)
}

/// Split a frame header into its `(len, crc)` fields.
fn parse_header(header: &[u8]) -> (u32, u32) {
    let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
    (word(0), word(4))
}

/// Why [`read_frame`] returned no payload.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The stream ended inside a frame (its header or its payload).
    Truncated,
    /// The header announced a payload of this many bytes, more than the
    /// reader's bound. Nothing after the header was read.
    Oversized(u32),
    /// The payload does not match its checksum.
    Corrupt,
    /// The underlying reader failed (a read timeout included).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => f.write_str("end of stream"),
            FrameError::Truncated => f.write_str("truncated frame"),
            FrameError::Oversized(len) => write!(f, "oversized frame: {len} bytes"),
            FrameError::Corrupt => f.write_str("frame CRC mismatch"),
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> std::io::Error {
        let kind = match e {
            FrameError::Io(io) => return io,
            FrameError::Eof | FrameError::Truncated => std::io::ErrorKind::UnexpectedEof,
            FrameError::Oversized(_) | FrameError::Corrupt => std::io::ErrorKind::InvalidData,
        };
        std::io::Error::new(kind, e)
    }
}

/// Fill as much of `buf` as the stream yields; returns the bytes read,
/// short only when the stream ended.
fn fill(r: &mut impl std::io::Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Why a frame scan stopped where it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailState {
    /// The buffer ends exactly on a frame boundary — nothing torn.
    Clean,
    /// The final frame's header is incomplete (fewer than 8 bytes left —
    /// this includes a CRC-less or truncated length prefix).
    TruncatedHeader,
    /// The final frame's header is complete but the payload is shorter
    /// than the length prefix claims.
    TruncatedPayload,
    /// A complete frame whose payload fails its checksum (or whose
    /// length prefix exceeds [`MAX_FRAME_LEN`]).
    CorruptPayload,
}

/// Result of scanning a byte buffer for frames.
#[derive(Clone, Debug)]
pub struct FrameScan {
    /// `(offset, payload)` of every valid frame, in order; the offset is
    /// the frame's own start (its header byte), so `offset` values are
    /// stable record identifiers for log positions.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Bytes of the valid prefix; everything at and after this offset is
    /// the torn tail (equal to the buffer length when `tail` is clean).
    pub valid_len: u64,
    /// What terminated the scan.
    pub tail: TailState,
}

/// Scan a buffer front-to-back, returning every frame of the longest
/// valid prefix and classifying the tail. A torn or corrupt final record
/// is *expected* after a crash and is never an error here — callers
/// truncate to `valid_len` and carry on.
pub fn scan_frames(buf: &[u8]) -> FrameScan {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let tail = loop {
        if pos == buf.len() {
            break TailState::Clean;
        }
        if buf.len() - pos < FRAME_HEADER_LEN {
            break TailState::TruncatedHeader;
        }
        let (len, crc) = parse_header(&buf[pos..pos + FRAME_HEADER_LEN]);
        if len > MAX_FRAME_LEN {
            break TailState::CorruptPayload;
        }
        let len = len as usize;
        let start = pos + FRAME_HEADER_LEN;
        if buf.len() - start < len {
            break TailState::TruncatedPayload;
        }
        let payload = &buf[start..start + len];
        if crc32(payload) != crc {
            break TailState::CorruptPayload;
        }
        frames.push((pos as u64, payload.to_vec()));
        pos = start + len;
    };
    FrameScan {
        frames,
        valid_len: pos as u64,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        buf.extend(encode_frame(b"alpha"));
        buf.extend(encode_frame(b""));
        buf.extend(encode_frame("β-payload".as_bytes()));
        let scan = scan_frames(&buf);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.valid_len, buf.len() as u64);
        let payloads: Vec<&[u8]> = scan.frames.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(
            payloads,
            vec![b"alpha".as_slice(), b"", "β-payload".as_bytes()]
        );
        assert_eq!(scan.frames[0].0, 0);
        assert_eq!(scan.frames[1].0, (FRAME_HEADER_LEN + 5) as u64);
    }

    #[test]
    fn every_truncation_point_keeps_the_valid_prefix() {
        let mut buf = Vec::new();
        buf.extend(encode_frame(b"first"));
        let keep = buf.len();
        buf.extend(encode_frame(b"second-record"));
        // Cutting anywhere inside the second frame must preserve exactly
        // the first frame and classify the tail as torn.
        for cut in keep..buf.len() {
            let scan = scan_frames(&buf[..cut]);
            assert_eq!(scan.frames.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, keep as u64, "cut at {cut}");
            if cut == keep {
                continue; // boundary handled by the loop start (Clean)
            }
            assert_ne!(scan.tail, TailState::Clean, "cut at {cut}");
        }
        assert_eq!(scan_frames(&buf[..keep]).tail, TailState::Clean);
    }

    #[test]
    fn truncated_length_prefix_is_torn_not_fatal() {
        let mut buf = Vec::new();
        buf.extend(encode_frame(b"ok"));
        let keep = buf.len();
        buf.extend_from_slice(&[0x07, 0x00]); // 2 of 4 length bytes
        let scan = scan_frames(&buf);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, keep as u64);
        assert_eq!(scan.tail, TailState::TruncatedHeader);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = Vec::new();
        buf.extend(encode_frame(b"ok"));
        let keep = buf.len();
        buf.extend(encode_frame(b"will-be-flipped"));
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let scan = scan_frames(&buf);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_len, keep as u64);
        assert_eq!(scan.tail, TailState::CorruptPayload);
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 12]);
        let scan = scan_frames(&buf);
        assert!(scan.frames.is_empty());
        assert_eq!(scan.tail, TailState::CorruptPayload);
    }

    /// `read_frame` over an in-memory stream; also returns how many
    /// bytes it left unread.
    fn read(bytes: &[u8], max_len: usize) -> (Result<Vec<u8>, FrameError>, usize) {
        let mut r = bytes;
        let got = read_frame(&mut r, max_len);
        (got, r.len())
    }

    fn io_kind(e: FrameError) -> std::io::ErrorKind {
        std::io::Error::from(e).kind()
    }

    #[test]
    fn read_frame_eof_only_on_a_frame_boundary() {
        let mut buf = encode_frame(b"one");
        buf.extend(encode_frame(b"two"));
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"one");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"two");
        let eof = read_frame(&mut r, 64).unwrap_err();
        assert!(matches!(eof, FrameError::Eof), "{eof:?}");
        assert_eq!(io_kind(eof), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_frame_truncated_anywhere_inside_a_frame() {
        let frame = encode_frame(b"payload");
        for cut in 1..frame.len() {
            let (got, _) = read(&frame[..cut], 64);
            assert!(matches!(got, Err(FrameError::Truncated)), "cut at {cut}");
        }
        let (got, _) = read(&frame[..3], 64);
        assert_eq!(io_kind(got.unwrap_err()), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_frame_oversized_reads_nothing_past_the_header() {
        let frame = encode_frame(&[7u8; 100]);
        let (got, left) = read(&frame, 99);
        assert!(matches!(got, Err(FrameError::Oversized(100))), "{got:?}");
        assert_eq!(left, 100, "the payload stays unread");
        assert_eq!(read(&frame, 100).0.unwrap().len(), 100);
        // Past MAX_FRAME_LEN whatever the caller's bound.
        let mut header = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0u8; 4]);
        let err = read(&header, usize::MAX).0.unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME_LEN + 1));
        assert_eq!(io_kind(err), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_frame_corrupt_on_a_crc_mismatch() {
        let mut frame = encode_frame(b"will-be-flipped");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let (got, left) = read(&frame, 64);
        let err = got.unwrap_err();
        assert!(matches!(err, FrameError::Corrupt), "{err:?}");
        assert_eq!(left, 0);
        assert_eq!(io_kind(err), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_frame_io_errors_pass_through_and_interrupts_retry() {
        /// Yields one `Interrupted`, then the frame, then a timeout.
        struct Flaky {
            frame: Vec<u8>,
            calls: usize,
        }
        impl std::io::Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls == 1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                if self.frame.is_empty() {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                let n = buf.len().min(self.frame.len());
                buf[..n].copy_from_slice(&self.frame[..n]);
                self.frame.drain(..n);
                Ok(n)
            }
        }
        let mut r = Flaky {
            frame: encode_frame(b"x"),
            calls: 0,
        };
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"x");
        let err = read_frame(&mut r, 64).unwrap_err();
        assert!(matches!(&err, FrameError::Io(_)), "{err:?}");
        assert_eq!(io_kind(err), std::io::ErrorKind::TimedOut);
    }
}

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

/// Read one frame from a blocking stream and return its payload. An
/// oversized length prefix or a CRC mismatch is `InvalidData`.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(bad(format!("oversized frame: {len} bytes")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(bad("frame CRC mismatch".into()));
    }
    Ok(payload)
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
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len as u32 > MAX_FRAME_LEN {
            break TailState::CorruptPayload;
        }
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
}

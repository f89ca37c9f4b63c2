//! The one durable append path. Every journal — the WAL, the delivery
//! outbox, the dead-letter log, the receiver's delivery ledger and
//! websim's loss journal — is a [`FrameLog`] of CRC frames
//! ([`reweb_term::frame`]) under its own record codec.
//!
//! * **Heal on open.** [`FrameLog::open`] truncates a torn or CRC-broken
//!   tail (the residue of a crash mid-write) back to the valid prefix.
//! * **Roll back a failed append.** Garbage left by a partial write
//!   would sit in front of every later append and hide it from the next
//!   scan, so the file is truncated back to its last good length; if
//!   that fails too, the log is poisoned and refuses further appends.
//! * **Sync when asked.** [`FrameLog::sync`] is the only fsync of a live
//!   log; callers decide when durability is due.
//! * **Rewrite atomically.** [`write_frames_atomically`]: temp file,
//!   fsync, rename, directory fsync — a crash leaves the old file or the
//!   new one.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use reweb_term::frame::{encode_frame_into, scan_frames, MAX_FRAME_LEN};

/// Result of opening (and torn-tail-healing) a frame log.
pub struct FrameLogOpen {
    /// The append handle, positioned at the end of the valid prefix.
    pub log: FrameLog,
    /// `(offset, payload)` of every valid frame, in file order.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Bytes discarded from a torn or corrupt tail.
    pub torn_bytes: u64,
}

/// Append handle over one CRC-framed log file.
pub struct FrameLog {
    file: File,
    len: u64,
    path: PathBuf,
    /// Reused encode buffer: header and payload leave in one write.
    buf: Vec<u8>,
    /// Set when a failed append could not be rolled back.
    poisoned: bool,
}

/// The whole file at `path`, or nothing when it does not exist.
fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// `(offset, payload)` of every frame in the valid prefix of `path`
/// (none when the file is absent). Read-only: a torn tail is skipped,
/// not healed.
pub fn read_frames(path: &Path) -> io::Result<Vec<(u64, Vec<u8>)>> {
    Ok(scan_frames(&read_file(path)?).frames)
}

/// Frame `payload` onto `buf`. A payload over [`MAX_FRAME_LEN`] is
/// refused before any byte is written: a frame the reader would
/// classify as corrupt must never reach the disk.
fn encode_checked(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})",
                payload.len()
            ),
        ));
    }
    encode_frame_into(buf, payload);
    Ok(())
}

/// Replace the file at `path` with exactly `payloads`, framed: write
/// `<path>.tmp`, fsync it, rename it over `path`, then fsync the
/// directory (best-effort) so the rename itself is durable.
pub fn write_frames_atomically<P: AsRef<[u8]>>(
    path: &Path,
    payloads: impl IntoIterator<Item = P>,
) -> io::Result<()> {
    let mut bytes = Vec::new();
    for p in payloads {
        encode_checked(&mut bytes, p.as_ref())?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_data()?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all(); // best-effort on platforms that allow it
        }
    }
    Ok(())
}

impl FrameLog {
    /// Open (creating if absent) the log at `path`, scan its frames, and
    /// truncate any torn tail.
    pub fn open(path: &Path) -> io::Result<FrameLogOpen> {
        let bytes = read_file(path)?;
        let scan = scan_frames(&bytes);
        let torn_bytes = bytes.len() as u64 - scan.valid_len;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn_bytes > 0 {
            file.set_len(scan.valid_len)?;
        }
        Ok(FrameLogOpen {
            log: FrameLog {
                file,
                len: scan.valid_len,
                path: path.to_path_buf(),
                buf: Vec::new(),
                poisoned: false,
            },
            frames: scan.frames,
            torn_bytes,
        })
    }

    /// Append one frame; returns its offset. Oversized payloads are
    /// refused before any byte is written; a failed write is rolled
    /// back (see the module docs).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(format!(
                "log {} is poisoned: a failed append could not be rolled back; \
                 refusing to append after the damage",
                self.path.display()
            )));
        }
        self.buf.clear();
        encode_checked(&mut self.buf, payload)?;
        if let Err(e) = self.file.write_all(&self.buf) {
            if self.file.set_len(self.len).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        let offset = self.len;
        self.len += self.buf.len() as u64;
        Ok(offset)
    }

    /// Flush the log to stable storage (fsync).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Replace the whole log with exactly `payloads`
    /// ([`write_frames_atomically`]) and reopen the append handle.
    pub fn replace<P: AsRef<[u8]>>(
        &mut self,
        payloads: impl IntoIterator<Item = P>,
    ) -> io::Result<()> {
        write_frames_atomically(&self.path, payloads)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = self.file.metadata()?.len();
        self.poisoned = false;
        Ok(())
    }

    /// Bytes of valid log (also the offset the next frame will get).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reweb-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads(open: &FrameLogOpen) -> Vec<Vec<u8>> {
        open.frames.iter().map(|(_, p)| p.clone()).collect()
    }

    #[test]
    fn every_tail_cut_heals_and_the_next_append_survives() {
        let dir = scratch("cut");
        let path = dir.join("f.log");
        let records: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-record".to_vec()];
        let mut log = FrameLog::open(&path).unwrap().log;
        let mut last = 0;
        for r in &records {
            last = log.append(r).unwrap();
        }
        log.sync().unwrap();
        let full = log.len();
        drop(log);
        let pristine = std::fs::read(&path).unwrap();
        for cut in last..full {
            std::fs::write(&path, &pristine[..cut as usize]).unwrap();
            let open = FrameLog::open(&path).unwrap();
            assert_eq!(open.torn_bytes, cut - last, "cut at {cut}");
            assert_eq!(payloads(&open), records[..2], "cut at {cut}");
            let mut log = open.log;
            assert_eq!(log.append(b"fresh").unwrap(), last, "cut at {cut}");
            drop(log);
            let open = FrameLog::open(&path).unwrap();
            assert_eq!(open.torn_bytes, 0, "cut at {cut}");
            let mut want = records[..2].to_vec();
            want.push(b"fresh".to_vec());
            assert_eq!(payloads(&open), want, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_is_refused_before_writing() {
        let dir = scratch("huge");
        let path = dir.join("f.log");
        let mut log = FrameLog::open(&path).unwrap().log;
        log.append(b"before").unwrap();
        let len = log.len();
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = log.append(&huge).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(log.len(), len);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len,
            "nothing written"
        );
        log.append(b"after").unwrap();
        drop(log);
        let open = FrameLog::open(&path).unwrap();
        assert_eq!(open.torn_bytes, 0);
        assert_eq!(payloads(&open), vec![b"before".to_vec(), b"after".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_leaves_exactly_the_given_frames_and_no_temp_file() {
        let dir = scratch("replace");
        let path = dir.join("f.log");
        let mut log = FrameLog::open(&path).unwrap().log;
        for r in [b"one".as_slice(), b"two", b"three"] {
            log.append(r).unwrap();
        }
        log.replace([b"two".as_slice(), b"four"]).unwrap();
        let off = log.append(b"five").unwrap();
        assert_eq!(off, std::fs::metadata(&path).unwrap().len() - 12);
        drop(log);
        let open = FrameLog::open(&path).unwrap();
        let want: Vec<Vec<u8>> = vec![b"two".to_vec(), b"four".to_vec(), b"five".to_vec()];
        assert_eq!(payloads(&open), want);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("f.log")]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

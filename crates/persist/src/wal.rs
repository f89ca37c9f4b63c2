//! Write-ahead-log records and their on-disk codec.
//!
//! Every input a durable engine accepts is one [`Record`], serialized as
//! the *textual term syntax* (`reweb_term::parse_term` / `Display`) and
//! framed with a length prefix and CRC32 ([`reweb_term::frame`]). Using
//! the term language as the wire format keeps logs portable across
//! processes — interned [`reweb_term::Sym`]s serialize as strings and
//! re-intern on load — and keeps them debuggable: `strings wal.log` is a
//! readable event history.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use reweb_core::{InMessage, MessageMeta};
use reweb_term::frame::{scan_frames, write_frame, TailState};
use reweb_term::{parse_term, Term, Timestamp};

use crate::{PersistError, Result};

/// Magic first record of every WAL, naming the format and the engine
/// shape the log was written for.
pub const WAL_SCHEMA: &str = "reweb-wal/v1";

/// One logged input — everything that can change durable engine state.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// File header: schema + engine descriptor (shape validation).
    Head {
        /// Always [`WAL_SCHEMA`] for logs this build writes.
        schema: String,
        /// [`reweb_core::Engine::descriptor`] of the writing engine.
        engine: String,
    },
    /// A rule program installed through the durable API (or reprinted
    /// from a [`reweb_core::RuleSet`]).
    Install(String),
    /// One ingestion batch (a single `receive` is a batch of one). The
    /// batch boundary itself is semantic for the sharded engine (its
    /// epilogue clock sweep runs per batch), so it is preserved.
    Batch(Vec<InMessage>),
    /// An explicit clock advance.
    Advance(Timestamp),
    /// A direct resource write ([`crate::DurableEngine::put_resource`]).
    Put {
        /// Target resource URI.
        uri: String,
        /// Document stored there.
        doc: Term,
    },
}

pub(crate) fn field_text(t: &Term, name: &str) -> Result<String> {
    t.children()
        .iter()
        .find(|c| c.label() == Some(name))
        .map(|c| c.text_content())
        .ok_or_else(|| PersistError::Corrupt(format!("record field `{name}` missing in {t}")))
}

pub(crate) fn field_u64(t: &Term, name: &str) -> Result<u64> {
    let s = field_text(t, name)?;
    s.parse()
        .map_err(|_| PersistError::Corrupt(format!("record field `{name}` is not a number: {s}")))
}

pub(crate) fn field_child<'a>(t: &'a Term, name: &str) -> Result<&'a Term> {
    let wrapper = t
        .children()
        .iter()
        .find(|c| c.label() == Some(name))
        .ok_or_else(|| PersistError::Corrupt(format!("record field `{name}` missing in {t}")))?;
    wrapper
        .children()
        .first()
        .ok_or_else(|| PersistError::Corrupt(format!("record field `{name}` is empty in {t}")))
}

/// Serialize one in-message (payload + transport meta + arrival time).
pub fn msg_to_term(m: &InMessage) -> Term {
    let mut b = Term::build("m")
        .unordered()
        .field("at", m.at.millis().to_string())
        .field("from", &m.meta.from);
    if let Some(c) = &m.meta.credentials {
        b = b.child(
            Term::build("cred")
                .unordered()
                .field("principal", &c.principal)
                .field("secret", &c.secret)
                .finish(),
        );
    }
    b.child(Term::ordered("payload", vec![m.payload.clone()]))
        .finish()
}

/// Parse one in-message back out of its term form.
pub fn msg_from_term(t: &Term) -> Result<InMessage> {
    if t.label() != Some("m") {
        return Err(PersistError::Corrupt(format!("expected m{{…}}, got {t}")));
    }
    let at = Timestamp(field_u64(t, "at")?);
    let mut meta = MessageMeta::from_uri(field_text(t, "from")?);
    if let Some(cred) = t.children().iter().find(|c| c.label() == Some("cred")) {
        meta = meta.with_credentials(field_text(cred, "principal")?, field_text(cred, "secret")?);
    }
    let payload = field_child(t, "payload")?.clone();
    Ok(InMessage::new(payload, meta, at))
}

impl Record {
    /// Serialize as the textual term syntax (one line, frame payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let term = match self {
            Record::Head { schema, engine } => Term::build("w_head")
                .unordered()
                .field("schema", schema)
                .field("engine", engine)
                .finish(),
            Record::Install(src) => Term::ordered("w_install", vec![Term::text(src.clone())]),
            Record::Batch(msgs) => Term::build("w_batch")
                .children(msgs.iter().map(msg_to_term))
                .finish(),
            Record::Advance(t) => Term::build("w_adv")
                .unordered()
                .field("at", t.millis().to_string())
                .finish(),
            Record::Put { uri, doc } => Term::build("w_put")
                .unordered()
                .field("uri", uri)
                .child(Term::ordered("doc", vec![doc.clone()]))
                .finish(),
        };
        term.to_string().into_bytes()
    }

    /// Parse a frame payload back into a record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Record> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Corrupt("record is not UTF-8".into()))?;
        let t = parse_term(text)?;
        match t.label() {
            Some("w_head") => Ok(Record::Head {
                schema: field_text(&t, "schema")?,
                engine: field_text(&t, "engine")?,
            }),
            Some("w_install") => {
                let src = t
                    .children()
                    .first()
                    .map(Term::text_content)
                    .ok_or_else(|| PersistError::Corrupt("w_install without source".into()))?;
                Ok(Record::Install(src))
            }
            Some("w_batch") => Ok(Record::Batch(
                t.children()
                    .iter()
                    .map(msg_from_term)
                    .collect::<Result<Vec<_>>>()?,
            )),
            Some("w_adv") => Ok(Record::Advance(Timestamp(field_u64(&t, "at")?))),
            Some("w_put") => Ok(Record::Put {
                uri: field_text(&t, "uri")?,
                doc: field_child(&t, "doc")?.clone(),
            }),
            other => Err(PersistError::Corrupt(format!(
                "unknown WAL record label {other:?}"
            ))),
        }
    }
}

/// Result of opening (and torn-tail-healing) a WAL file.
pub struct WalOpen {
    /// The append handle, positioned at the end of the valid prefix.
    pub wal: Wal,
    /// `(offset, record)` for every valid record, header included.
    pub records: Vec<(u64, Record)>,
    /// Bytes discarded from a torn or corrupt tail.
    pub torn_bytes: u64,
    /// How the scan of the existing file ended.
    pub tail: TailState,
}

/// Append handle over the log file.
pub struct Wal {
    file: File,
    len: u64,
    path: PathBuf,
    /// Set when a failed append could not be rolled back (see
    /// [`Wal::append`]); every later append is refused.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path`: scan existing
    /// frames, parse the records of the valid prefix, and truncate any
    /// torn tail so appends continue from a clean boundary. A torn tail
    /// is never an error — it is the expected residue of a crash
    /// mid-write; a record that *parses* wrong (valid frame, bad
    /// content) is corruption and fails.
    pub fn open(path: &Path) -> Result<WalOpen> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let scan = scan_frames(&bytes);
        let torn_bytes = bytes.len() as u64 - scan.valid_len;
        let mut records = Vec::with_capacity(scan.frames.len());
        for (off, payload) in &scan.frames {
            records.push((*off, Record::from_bytes(payload)?));
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn_bytes > 0 {
            file.set_len(scan.valid_len)?;
        }
        Ok(WalOpen {
            wal: Wal {
                file,
                len: scan.valid_len,
                path: path.to_path_buf(),
                poisoned: false,
            },
            records,
            torn_bytes,
            tail: scan.tail,
        })
    }

    /// Append one record; returns its offset (stable record id).
    ///
    /// A failed append (partial write — `ENOSPC`, oversized record) must
    /// not leave garbage at the tail: the file is in append mode, so a
    /// *later* successful append would land after the garbage, and on
    /// the next open the frame scan would stop at the garbage and
    /// silently discard every acknowledged record behind it. The file is
    /// therefore truncated back to the last good boundary before the
    /// error is surfaced; if even the truncation fails, further appends
    /// are refused outright.
    pub fn append(&mut self, rec: &Record) -> Result<u64> {
        if self.poisoned {
            return Err(PersistError::Corrupt(format!(
                "write-ahead log {} is poisoned: a failed append could not be \
                 rolled back; refusing to append after the damage",
                self.path.display()
            )));
        }
        let offset = self.len;
        let payload = rec.to_bytes();
        if let Err(e) = write_frame(&mut self.file, &payload) {
            if self.file.set_len(self.len).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.len += (reweb_term::frame::FRAME_HEADER_LEN + payload.len()) as u64;
        Ok(offset)
    }

    /// Flush the log to stable storage (fsync).
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Bytes of valid log (also the offset the next record will get).
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
    use reweb_term::parse_term;

    fn msg(src: &str, at: u64, cred: bool) -> InMessage {
        let mut meta = MessageMeta::from_uri("http://peer");
        if cred {
            meta = meta.with_credentials("franz", "pw\"with\nescapes\\");
        }
        InMessage::new(parse_term(src).unwrap(), meta, Timestamp(at))
    }

    #[test]
    fn records_round_trip_through_text() {
        let records = vec![
            Record::Head {
                schema: WAL_SCHEMA.into(),
                engine: "single".into(),
            },
            Record::Install("RULE r ON ping DO NOOP END\n  -- \"quoted\"".into()),
            Record::Batch(vec![
                msg("order{id[\"o1\"], total[\"50\"]}", 1_000, false),
                msg("payment{order[\"o1\"]}", 2_000, true),
            ]),
            Record::Batch(vec![]),
            Record::Advance(Timestamp(123_456)),
            Record::Put {
                uri: "http://data/items".into(),
                doc: parse_term("items[item{v[\"0\"]}]").unwrap(),
            },
        ];
        for r in &records {
            let back = Record::from_bytes(&r.to_bytes()).unwrap();
            assert_eq!(r, &back, "round-trip failed for {r:?}");
        }
    }

    #[test]
    fn wal_reopens_with_records_and_heals_torn_tail() {
        let dir = std::env::temp_dir().join(format!("reweb-waltest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let mut w = Wal::open(&path).unwrap().wal;
        let r1 = Record::Install("RULE r ON ping DO NOOP END".into());
        let r2 = Record::Advance(Timestamp(5));
        let o1 = w.append(&r1).unwrap();
        let o2 = w.append(&r2).unwrap();
        w.sync().unwrap();
        assert_eq!(o1, 0);
        assert!(o2 > 0);
        let full_len = w.len();
        drop(w);

        // Clean reopen: both records come back at their offsets.
        let open = Wal::open(&path).unwrap();
        assert_eq!(open.records.len(), 2);
        assert_eq!(open.records[0], (o1, r1.clone()));
        assert_eq!(open.records[1], (o2, r2));
        assert_eq!(open.torn_bytes, 0);
        drop(open);

        // Torn tail: cut into the middle of the second record.
        let cut = o2 + 3;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let open = Wal::open(&path).unwrap();
        assert_eq!(open.records.len(), 1, "second record discarded");
        assert_eq!(open.torn_bytes, 3);
        assert_eq!(open.wal.len(), o2, "file truncated back to boundary");
        assert!(std::fs::metadata(&path).unwrap().len() == o2);
        let _ = std::fs::remove_file(&path);
        let _ = full_len;
    }
}

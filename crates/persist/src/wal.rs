//! Write-ahead-log records and their on-disk codec.
//!
//! Every input a durable engine accepts is one [`Record`], serialized as
//! the *textual term syntax* (`reweb_term::parse_term` / `Display`) and
//! framed with a length prefix and CRC32 ([`reweb_term::frame`]). Using
//! the term language as the wire format keeps logs portable across
//! processes — interned [`reweb_term::Sym`]s serialize as strings and
//! re-intern on load — and keeps them debuggable: `strings wal.log` is a
//! readable event history.
//!
//! Records are read with the one-pass decoder, without the wire's nesting
//! cap ([`reweb_term::decode_uncapped`]: a node reads back whatever its
//! rules derived and it wrote), and written
//! straight into one buffer with [`reweb_term::write_elem`], the
//! printer's own element writer: no `Term` is built to write a record,
//! and the bytes are the ones `Display` would print for it.

use std::borrow::Cow;
use std::fmt;
use std::path::Path;

use reweb_core::{InMessage, MessageMeta};
use reweb_term::{decode_uncapped, write_elem, ElemWriter, Term, Timestamp};

use crate::log::FrameLog;
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
        /// Shape descriptor of the writing engine: always `single`
        /// (frozen; recovery refuses any other).
        engine: String,
    },
    /// A rule program installed through the durable API (or reprinted
    /// from a [`reweb_core::RuleSet`]).
    Install(String),
    /// One ingestion batch (a single `receive` is a batch of one): one
    /// record and one fsync, whose outputs are tagged with the index of
    /// the message that produced them.
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

/// Parse one frame payload as a term (every journal's record codec
/// starts here).
pub fn term_from_bytes(bytes: &[u8]) -> Result<Term> {
    decode_uncapped(bytes).map_err(|e| match std::str::from_utf8(bytes) {
        Err(_) => PersistError::Corrupt("record is not UTF-8".into()),
        Ok(_) => PersistError::Term(e),
    })
}

/// `t`'s child labelled `name`, if any.
pub fn field<'a>(t: &'a Term, name: &str) -> Option<&'a Term> {
    t.field(name)
}

fn missing(t: &Term, name: &str) -> PersistError {
    PersistError::Corrupt(format!("record field `{name}` missing in {t}"))
}

/// The text of `t`'s child labelled `name`, borrowed from the record.
fn field_str<'a>(t: &'a Term, name: &str) -> Result<Cow<'a, str>> {
    field(t, name)
        .map(Term::text_str)
        .ok_or_else(|| missing(t, name))
}

/// The text of `t`'s child labelled `name`.
pub fn field_text(t: &Term, name: &str) -> Result<String> {
    field_str(t, name).map(Cow::into_owned)
}

/// [`field_text`] parsed as a number.
pub fn field_u64(t: &Term, name: &str) -> Result<u64> {
    let s = field_str(t, name)?;
    s.parse()
        .map_err(|_| PersistError::Corrupt(format!("record field `{name}` is not a number: {s}")))
}

/// The body of a wrapper term: its first child.
pub fn first_child(t: &Term) -> Result<&Term> {
    t.children()
        .first()
        .ok_or_else(|| PersistError::Corrupt(format!("empty record {t}")))
}

/// The single child inside `t`'s child labelled `name`.
pub fn field_child<'a>(t: &'a Term, name: &str) -> Result<&'a Term> {
    first_child(field(t, name).ok_or_else(|| missing(t, name))?)
}

/// Write one in-message (payload + transport meta + arrival time) as the
/// next item of `w`: `m{at["…"], from["…"], cred{…}, payload[…]}`.
pub fn write_msg<W: fmt::Write>(w: &mut ElemWriter<'_, W>, m: &InMessage) -> fmt::Result {
    w.elem("m", false, |w| {
        w.field_u64("at", m.at.millis())?;
        w.field("from", &m.meta.from)?;
        if let Some(c) = &m.meta.credentials {
            w.elem("cred", false, |w| {
                w.field("principal", &c.principal)?;
                w.field("secret", &c.secret)
            })?;
        }
        w.elem("payload", true, |w| w.term(&m.payload))
    })
}

/// Parse one in-message back out of its term form.
pub fn msg_from_term(t: &Term) -> Result<InMessage> {
    if t.label() != Some("m") {
        return Err(PersistError::Corrupt(format!("expected m{{…}}, got {t}")));
    }
    let at = Timestamp(field_u64(t, "at")?);
    let mut meta = MessageMeta::from_uri(field_text(t, "from")?);
    if let Some(cred) = field(t, "cred") {
        meta = meta.with_credentials(field_text(cred, "principal")?, field_text(cred, "secret")?);
    }
    let payload = field_child(t, "payload")?.clone();
    Ok(InMessage::new(payload, meta, at))
}

impl Record {
    /// Serialize as the textual term syntax (one line, frame payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(self.size_hint());
        self.write(&mut out).expect("a String sink never fails");
        out.into_bytes()
    }

    /// A first guess at the encoded length, so a batch is written into
    /// one allocation in the common case (the buffer still grows if the
    /// guess is short).
    fn size_hint(&self) -> usize {
        match self {
            Record::Batch(msgs) => 16 + msgs.iter().map(|m| 96 + m.meta.from.len()).sum::<usize>(),
            Record::Install(src) => 32 + src.len(),
            _ => 128,
        }
    }

    fn write(&self, out: &mut String) -> fmt::Result {
        match self {
            Record::Head { schema, engine } => write_elem(out, "w_head", false, |w| {
                w.field("schema", schema)?;
                w.field("engine", engine)
            }),
            Record::Install(src) => write_elem(out, "w_install", true, |w| w.text(src)),
            Record::Batch(msgs) => write_elem(out, "w_batch", true, |w| {
                msgs.iter().try_for_each(|m| write_msg(w, m))
            }),
            Record::Advance(t) => {
                write_elem(out, "w_adv", false, |w| w.field_u64("at", t.millis()))
            }
            Record::Put { uri, doc } => write_elem(out, "w_put", false, |w| {
                w.field("uri", uri)?;
                w.elem("doc", true, |w| w.term(doc))
            }),
        }
    }

    /// Parse a frame payload back into a record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Record> {
        let t = term_from_bytes(bytes)?;
        match t.label() {
            Some("w_head") => Ok(Record::Head {
                schema: field_text(&t, "schema")?,
                engine: field_text(&t, "engine")?,
            }),
            Some("w_install") => Ok(Record::Install(first_child(&t)?.text_content())),
            Some("w_batch") => {
                let mut msgs = Vec::with_capacity(t.children().len());
                for m in t.children() {
                    msgs.push(msg_from_term(m)?);
                }
                Ok(Record::Batch(msgs))
            }
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
}

/// Append handle over the log file: a [`FrameLog`] of [`Record`]s.
pub struct Wal {
    log: FrameLog,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, heal any torn tail
    /// ([`FrameLog::open`]), and parse the records of the valid prefix.
    /// A torn tail is never an error; a record that *parses* wrong
    /// (valid frame, bad content) is corruption and fails.
    pub fn open(path: &Path) -> Result<WalOpen> {
        let open = FrameLog::open(path)?;
        let records = open
            .frames
            .iter()
            .map(|(off, payload)| Ok((*off, Record::from_bytes(payload)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(WalOpen {
            wal: Wal { log: open.log },
            records,
            torn_bytes: open.torn_bytes,
        })
    }

    /// Append one record; returns its offset (stable record id). A
    /// failed append is rolled back ([`FrameLog::append`]).
    pub fn append(&mut self, rec: &Record) -> Result<u64> {
        Ok(self.log.append(&rec.to_bytes())?)
    }

    /// Flush the log to stable storage (fsync).
    pub fn sync(&mut self) -> Result<()> {
        Ok(self.log.sync()?)
    }

    /// Bytes of valid log (also the offset the next record will get).
    pub fn len(&self) -> u64 {
        self.log.len()
    }

    /// True when the log holds no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_term::parse_term;
    use std::fs::OpenOptions;

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

    /// The record as a built term, the way `Display` sees it.
    fn record_term(r: &Record) -> Term {
        let msg = |m: &InMessage| {
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
        };
        match r {
            Record::Head { schema, engine } => Term::build("w_head")
                .unordered()
                .field("schema", schema)
                .field("engine", engine)
                .finish(),
            Record::Install(src) => Term::ordered("w_install", vec![Term::text(src.clone())]),
            Record::Batch(msgs) => Term::build("w_batch")
                .children(msgs.iter().map(msg))
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
        }
    }

    #[test]
    fn the_record_writer_prints_what_display_prints() {
        let records = vec![
            Record::Head {
                schema: WAL_SCHEMA.into(),
                engine: "sharded:4:Threads".into(),
            },
            Record::Install("RULE r ON ping DO NOOP END\n\t\"q\" \\".into()),
            Record::Batch(vec![
                msg("order{@k=\"v\", id[\"o1\"], total[\"50\"]}", 1_000, false),
                msg("payment{order[\"o\\\"1\"], e{}, b}", 2_000, true),
                msg("\"bare text\"", 3_000, false),
            ]),
            Record::Batch(vec![]),
            Record::Advance(Timestamp(123_456)),
            Record::Put {
                uri: "http://data/\"items\"".into(),
                doc: parse_term("items[item{v[\"0\"]}]").unwrap(),
            },
        ];
        for r in &records {
            assert_eq!(
                String::from_utf8(r.to_bytes()).unwrap(),
                record_term(r).to_string()
            );
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

//! The delivery outbox: a durable journal of outbound reactions that
//! have been produced but not yet acknowledged by their destination.
//!
//! The delivery agent (`reweb_net::delivery`) is the write side of the
//! at-least-once story; this journal is what survives a crash of the
//! *sending* node. Every reaction handed to the agent is appended as an
//! `o_enq` record *before* the first dial attempt; every destination
//! acknowledgment (or dead-letter settlement) is appended as an `o_ack`
//! / `o_dead` record after the fact. Recovery replays the journal and
//! returns the unsettled remainder — exactly the deliveries whose fate
//! the crash interrupted — so the restarted agent re-queues them. A
//! re-queued delivery may already have reached its destination (the
//! crash can land between the peer's ack being sent and our `o_ack`
//! being durable); that is the "at-least-once" in at-least-once, and the
//! receiver deduplicates by the delivery key, which embeds the stable
//! outbox sequence number.
//!
//! On disk it is a [`FrameLog`] of textual-term records, like the WAL: a
//! torn final record is healed by truncation on open, never an error.
//! [`Outbox::compact`] rewrites it as the header plus the unsettled
//! remainder; the header then also carries the next sequence number
//! (`o_head{schema[…], next[…]}`), so compaction never lets a sequence
//! number — and with it a delivery key — be handed out twice.

use std::collections::BTreeMap;
use std::path::Path;

use reweb_term::{write_elem, Term, Timestamp};

use crate::log::FrameLog;
use crate::wal::{field, field_child, field_text, field_u64, term_from_bytes};
use crate::{PersistError, Result, SyncPolicy};

/// Magic first record of every outbox journal.
pub const OUTBOX_SCHEMA: &str = "reweb-outbox/v1";

/// One unsettled outbound reaction recovered from (or tracked by) the
/// journal.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingDelivery {
    /// Stable, monotone sequence number — assigned at enqueue, embedded
    /// in the wire-level delivery key, never reused.
    pub seq: u64,
    /// Destination URI from the reaction's `to[...]`.
    pub to: String,
    /// Event time of the originating reaction.
    pub at: Timestamp,
    /// The reaction term itself.
    pub payload: Term,
}

/// How a delivery left the pending set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// The destination acknowledged ingestion.
    Acked,
    /// The retry budget ran out; the reaction went to the dead-letter
    /// log instead (still recoverable — just no longer *pending*).
    DeadLettered,
}

enum OutboxRecord {
    /// `next` is written only by [`Outbox::compact`]: the first sequence
    /// number not yet handed out, which the settled records it drops no
    /// longer show.
    Head {
        schema: String,
        next: Option<u64>,
    },
    Enq(PendingDelivery),
    Settle {
        seq: u64,
        how: Settle,
    },
}

impl OutboxRecord {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            OutboxRecord::Head { schema, next } => write_elem(&mut out, "o_head", false, |w| {
                w.field("schema", schema)?;
                match next {
                    Some(n) => w.field_u64("next", *n),
                    None => Ok(()),
                }
            }),
            OutboxRecord::Enq(p) => write_elem(&mut out, "o_enq", false, |w| {
                w.field_u64("seq", p.seq)?;
                w.field("to", &p.to)?;
                w.field_u64("at", p.at.millis())?;
                w.elem("payload", true, |w| w.term(&p.payload))
            }),
            OutboxRecord::Settle { seq, how } => {
                let label = match how {
                    Settle::Acked => "o_ack",
                    Settle::DeadLettered => "o_dead",
                };
                write_elem(&mut out, label, false, |w| w.field_u64("seq", *seq))
            }
        }
        .expect("a String sink never fails");
        out.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<OutboxRecord> {
        let t = term_from_bytes(bytes)?;
        match t.label() {
            Some("o_head") => Ok(OutboxRecord::Head {
                schema: field_text(&t, "schema")?,
                next: match field(&t, "next") {
                    Some(_) => Some(field_u64(&t, "next")?),
                    None => None,
                },
            }),
            Some("o_enq") => Ok(OutboxRecord::Enq(PendingDelivery {
                seq: field_u64(&t, "seq")?,
                to: field_text(&t, "to")?,
                at: Timestamp(field_u64(&t, "at")?),
                payload: field_child(&t, "payload")?.clone(),
            })),
            Some("o_ack") => Ok(OutboxRecord::Settle {
                seq: field_u64(&t, "seq")?,
                how: Settle::Acked,
            }),
            Some("o_dead") => Ok(OutboxRecord::Settle {
                seq: field_u64(&t, "seq")?,
                how: Settle::DeadLettered,
            }),
            other => Err(PersistError::Corrupt(format!(
                "unknown outbox record label {other:?}"
            ))),
        }
    }
}

/// Result of opening (and torn-tail-healing) an outbox journal.
pub struct OutboxOpen {
    /// The append handle.
    pub outbox: Outbox,
    /// Every enqueued-but-unsettled delivery, in sequence order.
    pub pending: Vec<PendingDelivery>,
    /// Bytes discarded from a torn or corrupt tail.
    pub torn_bytes: u64,
}

/// Append handle over the outbox journal. All writes go through the
/// configured [`SyncPolicy`]; with [`SyncPolicy::Always`] an enqueue is
/// durable before the agent's first dial attempt, which is what makes
/// the pending set exact across sender crashes.
pub struct Outbox {
    log: FrameLog,
    sync: SyncPolicy,
    next_seq: u64,
    /// Unsettled sequence numbers with their payloads — kept in memory
    /// for inspection ([`Outbox::pending_count`]) and compaction.
    live: BTreeMap<u64, PendingDelivery>,
    /// Settlements journaled so far (ack + dead), for accounting.
    settled: u64,
}

impl Outbox {
    /// Open (creating if absent) the journal at `path`: heal the torn
    /// tail, replay the records, and return the unsettled remainder.
    pub fn open(path: &Path, sync: SyncPolicy) -> Result<OutboxOpen> {
        let open = FrameLog::open(path)?;
        let mut live = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut settled = 0u64;
        for (i, (_, payload)) in open.frames.iter().enumerate() {
            match OutboxRecord::from_bytes(payload)? {
                OutboxRecord::Head { schema, next } => {
                    if i != 0 {
                        return Err(PersistError::Corrupt("outbox header not first".into()));
                    }
                    if schema != OUTBOX_SCHEMA {
                        return Err(PersistError::Corrupt(format!(
                            "outbox schema `{schema}` is not `{OUTBOX_SCHEMA}`"
                        )));
                    }
                    next_seq = next.unwrap_or(0);
                }
                OutboxRecord::Enq(p) => {
                    next_seq = next_seq.max(p.seq + 1);
                    live.insert(p.seq, p);
                }
                OutboxRecord::Settle { seq, .. } => {
                    live.remove(&seq);
                    settled += 1;
                }
            }
        }
        let mut outbox = Outbox {
            log: open.log,
            sync,
            next_seq,
            live,
            settled,
        };
        if outbox.log.is_empty() {
            outbox.append(&OutboxRecord::Head {
                schema: OUTBOX_SCHEMA.into(),
                next: None,
            })?;
        }
        let pending = outbox.live.values().cloned().collect();
        Ok(OutboxOpen {
            outbox,
            pending,
            torn_bytes: open.torn_bytes,
        })
    }

    fn append(&mut self, rec: &OutboxRecord) -> Result<()> {
        self.log.append(&rec.to_bytes())?;
        if self.sync == SyncPolicy::Always {
            self.log.sync()?;
        }
        Ok(())
    }

    /// Journal one outbound reaction; returns its sequence number. The
    /// record is durable (per policy) when this returns — only then may
    /// the agent start dialing.
    pub fn enqueue(&mut self, to: &str, at: Timestamp, payload: &Term) -> Result<u64> {
        let seq = self.next_seq;
        let p = PendingDelivery {
            seq,
            to: to.to_string(),
            at,
            payload: payload.clone(),
        };
        self.append(&OutboxRecord::Enq(p.clone()))?;
        self.next_seq += 1;
        self.live.insert(seq, p);
        Ok(seq)
    }

    /// Re-journal a previously settled delivery under its *original*
    /// sequence number — the redeliver path for dead letters. Keeping
    /// the seq (and with it the wire-level delivery key) is what lets
    /// the receiver recognize a redelivered reaction it already
    /// ingested once via a lost ack.
    pub fn requeue(&mut self, p: &PendingDelivery) -> Result<()> {
        if self.live.contains_key(&p.seq) {
            return Ok(());
        }
        self.append(&OutboxRecord::Enq(p.clone()))?;
        self.next_seq = self.next_seq.max(p.seq + 1);
        self.live.insert(p.seq, p.clone());
        Ok(())
    }

    /// Journal a settlement: the delivery was acknowledged by the
    /// destination, or moved to the dead-letter log. Unknown or
    /// already-settled sequence numbers are a no-op (the agent may
    /// settle the same seq twice across a redeliver race).
    pub fn settle(&mut self, seq: u64, how: Settle) -> Result<()> {
        if self.live.remove(&seq).is_none() {
            return Ok(());
        }
        self.settled += 1;
        self.append(&OutboxRecord::Settle { seq, how })
    }

    /// Deliveries enqueued but not yet settled.
    pub fn pending_count(&self) -> usize {
        self.live.len()
    }

    /// Settlement records journaled so far (acked + dead-lettered).
    #[cfg(test)]
    fn settled_count(&self) -> u64 {
        self.settled
    }

    /// Rewrite the journal with only the header and the unsettled
    /// remainder (write-to-temp then rename, so a crash mid-compaction
    /// leaves either the old or the new journal, never a mix). The header
    /// records the next sequence number, so a reopened outbox continues
    /// where this one stopped even when every delivery was settled. A
    /// journal without settlement records is left as it is.
    pub fn compact(&mut self) -> Result<()> {
        if self.settled == 0 {
            return Ok(());
        }
        let head = OutboxRecord::Head {
            schema: OUTBOX_SCHEMA.into(),
            next: Some(self.next_seq),
        };
        let live = self.live.values().map(|p| OutboxRecord::Enq(p.clone()));
        self.log
            .replace(std::iter::once(head).chain(live).map(|r| r.to_bytes()))?;
        self.settled = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    /// An outbox the term-building writer wrote before the record
    /// writer (`tests/fixtures/parent-outbox.log`): head, three
    /// enqueues, an ack and a dead-letter settlement.
    #[test]
    fn parent_outbox_reads_and_re_encodes_byte_identically() {
        const LOG: &[u8] = include_bytes!("../tests/fixtures/parent-outbox.log");
        let scan = reweb_term::scan_frames(LOG);
        assert!(matches!(scan.tail, reweb_term::TailState::Clean));
        assert_eq!(scan.frames.len(), 6);
        for (_, payload) in &scan.frames {
            let rec = OutboxRecord::from_bytes(payload).expect("record decodes");
            assert_eq!(&rec.to_bytes(), payload);
        }
        let path = scratch("parent-fixture");
        std::fs::write(&path, LOG).unwrap();
        let open = Outbox::open(&path, SyncPolicy::Os).unwrap();
        assert_eq!(
            open.pending,
            vec![PendingDelivery {
                seq: 2,
                to: "http://peer-a".into(),
                at: Timestamp(2000),
                payload: reweb_term::parse_term("pong{id[\"3\"]}").unwrap(),
            }]
        );
        assert_eq!(open.outbox.settled_count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reweb-outbox-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("outbox.log");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn pending_survives_reopen_and_settlement_is_final() {
        let path = scratch("reopen");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        let s0 = ob
            .enqueue("http://b/", Timestamp(10), &Term::elem("x"))
            .unwrap();
        let s1 = ob
            .enqueue("http://c/", Timestamp(20), &Term::elem("y"))
            .unwrap();
        let s2 = ob
            .enqueue("http://b/", Timestamp(30), &Term::elem("z"))
            .unwrap();
        assert_eq!((s0, s1, s2), (0, 1, 2));
        ob.settle(s1, Settle::Acked).unwrap();
        ob.settle(s0, Settle::DeadLettered).unwrap();
        ob.settle(s0, Settle::DeadLettered).unwrap(); // duplicate: no-op
        assert_eq!(ob.pending_count(), 1);
        drop(ob);

        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert_eq!(open.torn_bytes, 0);
        assert_eq!(open.pending.len(), 1);
        assert_eq!(open.pending[0].seq, s2);
        assert_eq!(open.pending[0].to, "http://b/");
        assert_eq!(open.pending[0].payload, Term::elem("z"));
        // Sequence numbers are never reused after recovery.
        let mut ob = open.outbox;
        let s3 = ob
            .enqueue("http://b/", Timestamp(40), &Term::elem("w"))
            .unwrap();
        assert_eq!(s3, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_heals_and_compaction_preserves_pending() {
        let path = scratch("torn");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        for i in 0..4 {
            ob.enqueue("http://b/", Timestamp(i), &Term::elem("e"))
                .unwrap();
        }
        ob.settle(0, Settle::Acked).unwrap();
        ob.settle(1, Settle::Acked).unwrap();
        drop(ob);

        // Tear mid-record: the last settle survives, garbage heals.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert!(open.torn_bytes > 0);
        // The torn record was `o_ack{seq["1"]}` minus 3 bytes, so seq 1
        // is pending again — re-delivering an already-acked reaction is
        // exactly the at-least-once contract.
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);

        let mut ob = open.outbox;
        ob.compact().unwrap();
        drop(ob);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        let seqs: Vec<u64> = open.pending.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "compaction kept the pending set");
        assert!(open.outbox.next_seq == 4, "compaction kept seq monotone");
        let _ = std::fs::remove_file(&path);
    }

    /// Once every delivery is settled, compaction leaves only the header;
    /// the reopened outbox must still hand out the next sequence number,
    /// not reuse one the receiver's ledger already holds.
    #[test]
    fn compacted_outbox_keeps_seq_monotone_when_all_settled() {
        let path = scratch("all-settled");
        let mut ob = Outbox::open(&path, SyncPolicy::Always).unwrap().outbox;
        for i in 0..4 {
            let seq = ob
                .enqueue("http://b/", Timestamp(i), &Term::elem("e"))
                .unwrap();
            ob.settle(seq, Settle::Acked).unwrap();
        }
        ob.compact().unwrap();
        drop(ob);
        let open = Outbox::open(&path, SyncPolicy::Always).unwrap();
        assert!(open.pending.is_empty());
        assert_eq!(
            reweb_term::scan_frames(&std::fs::read(&path).unwrap())
                .frames
                .len(),
            1
        );
        let mut ob = open.outbox;
        let seq = ob
            .enqueue("http://b/", Timestamp(9), &Term::elem("f"))
            .unwrap();
        assert_eq!(seq, 4, "a compacted outbox must not reuse sequence numbers");
        let _ = std::fs::remove_file(&path);
    }
}

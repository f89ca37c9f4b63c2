//! Snapshot files: durable engine state at a log offset.
//!
//! A snapshot makes recovery *bounded*: instead of replaying the whole
//! write-ahead log from genesis, recovery loads the snapshot and replays
//! only a log suffix. The file carries, as CRC-framed textual terms:
//!
//! * `s_meta` — schema, engine descriptor, the snapshot's **log offset**
//!   `S` (state below is exact as of `S`) and **warm offset** `H` (the
//!   retention-horizon record recovery starts replaying from — see the
//!   crate docs for why `H < S` rebuilds composite-event state exactly);
//! * `s_mark` — the engine's [`reweb_core::ReplayMark`] as of `H`;
//! * `s_prog` / `s_dyn` — the install journal up to `H`: every rule
//!   program installed statically (reprinted rule text) or dynamically
//!   (the original `install_rules` message, replayed through the same
//!   admission path);
//! * `s_res` — every resource-store document as of `S`, with its
//!   version counter;
//! * `s_metrics` / `s_alog` — engine metrics and action log as of `S`
//!   (restored so observability survives a crash);
//! * `s_end` — terminator; a snapshot file without it (crash mid-write)
//!   is ignored in favor of genesis replay.
//!
//! The format still carries the shard layout sharded engines once wrote:
//! `s_meta` declares `shards["1"]`, its `warm_clock` repeats the mark's
//! clock, and the per-engine records name `shard["0"]`. Only that layout
//! is read; a snapshot declaring any other shard count is refused as
//! [`PersistError::Corrupt`].

use std::collections::BTreeMap;
use std::path::Path;

use reweb_core::{EngineMetrics, InMessage, ReplayMark};
use reweb_term::{write_elem, Term, Timestamp};

use crate::log::{read_frames, write_frames_atomically};
use crate::wal::{
    field, field_child, field_text, field_u64, first_child, msg_from_term, term_from_bytes,
    write_msg,
};
use crate::{PersistError, Result};

/// Schema tag of snapshot files this build reads and writes.
pub const SNAP_SCHEMA: &str = "reweb-snap/v1";

/// One entry of the install journal: how a rule program entered the
/// engine, in order. Replaying the journal reproduces the rule base.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEntry {
    /// `install_program` text (original source, or a reprinted rule set).
    Static(String),
    /// An `install_rules` message as received.
    Dynamic(InMessage),
}

/// Engine state captured as of the snapshot's log offset.
#[derive(Clone, Debug, Default)]
pub struct ShardState {
    /// `(uri, version, doc)` of every stored resource.
    pub resources: Vec<(String, u64, Term)>,
    /// Engine metrics (counters, per-rule fires, error log).
    pub metrics: EngineMetrics,
    /// Terms written by `LOG` actions.
    pub action_log: Vec<Term>,
}

/// A decoded snapshot.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Engine descriptor the snapshot was taken from (shape validation).
    pub engine: String,
    /// Log offset `S`: stores/metrics/logs below are exact as of `S`.
    pub log_offset: u64,
    /// Warm offset `H ≤ S`: recovery replays `[H, S)` in warmup mode to
    /// rebuild composite-event partial state, then `[S, …)` fully.
    pub warm_offset: u64,
    /// The engine's replay mark (clock included) as of `H`, restored
    /// before warm replay.
    pub warm_mark: ReplayMark,
    /// Install journal entries from before `H` (later installs are
    /// replayed from the log itself).
    pub journal: Vec<JournalEntry>,
    /// Engine state as of `S`.
    pub state: ShardState,
}

fn metrics_to_term(m: &EngineMetrics) -> Term {
    Term::build("s_metrics")
        .unordered()
        .field("shard", "0")
        .field("received", m.events_received.to_string())
        .field("denied", m.events_denied.to_string())
        .field("derived", m.events_derived.to_string())
        .field("alpha", m.alpha_tests_run.to_string())
        .field("considered", m.rules_considered.to_string())
        .field("unmatched", m.events_unmatched.to_string())
        .field("fired", m.rules_fired.to_string())
        .field("cond", m.condition_evals.to_string())
        .field("afail", m.actions_failed.to_string())
        .field("sent", m.messages_sent.to_string())
        .field("installed", m.rules_installed.to_string())
        .field("joins", m.join_attempts.to_string())
        .field("probes", m.index_probes.to_string())
        .child(
            Term::build("fires")
                .children(m.fires_by_rule.iter().map(|(r, n)| {
                    Term::build("f")
                        .unordered()
                        .field("r", r)
                        .field("n", n.to_string())
                        .finish()
                }))
                .finish(),
        )
        .child(
            Term::build("errors")
                .children(m.errors.iter().map(|e| Term::text(e.clone())))
                .finish(),
        )
        .finish()
}

fn metrics_from_term(t: &Term) -> Result<EngineMetrics> {
    let mut m = EngineMetrics {
        events_received: field_u64(t, "received")?,
        events_denied: field_u64(t, "denied")?,
        events_derived: field_u64(t, "derived")?,
        events_unmatched: field_u64(t, "unmatched")?,
        rules_fired: field_u64(t, "fired")?,
        condition_evals: field_u64(t, "cond")?,
        actions_failed: field_u64(t, "afail")?,
        messages_sent: field_u64(t, "sent")?,
        rules_installed: field_u64(t, "installed")?,
        alpha_tests_run: field_u64(t, "alpha")?,
        rules_considered: field_u64(t, "considered")?,
        // Added in PR 7; absent from older snapshots, which read as 0.
        join_attempts: field_u64(t, "joins").unwrap_or(0),
        index_probes: field_u64(t, "probes").unwrap_or(0),
        fires_by_rule: BTreeMap::new(),
        errors: Vec::new(),
    };
    if let Some(fires) = field(t, "fires") {
        for f in fires.children() {
            m.fires_by_rule
                .insert(field_text(f, "r")?, field_u64(f, "n")?);
        }
    }
    if let Some(errors) = field(t, "errors") {
        m.errors = errors.children().iter().map(Term::text_content).collect();
    }
    Ok(m)
}

fn push(frames: &mut Vec<Vec<u8>>, t: Term) {
    frames.push(t.to_string().into_bytes());
}

impl Snapshot {
    /// Serialize as a sequence of framed term records (see module docs).
    pub fn to_frames(&self) -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        push(
            &mut frames,
            Term::build("s_meta")
                .unordered()
                .field("schema", SNAP_SCHEMA)
                .field("engine", &self.engine)
                .field("log_offset", self.log_offset.to_string())
                .field("warm_offset", self.warm_offset.to_string())
                .field("warm_clock", self.warm_mark.clock.millis().to_string())
                .field("shards", "1")
                .finish(),
        );
        push(
            &mut frames,
            Term::build("s_mark")
                .unordered()
                .field("shard", "0")
                .field("clock", self.warm_mark.clock.millis().to_string())
                .field("eseq", self.warm_mark.event_seq.to_string())
                .field("dseq", self.warm_mark.derived_seq.to_string())
                .finish(),
        );
        for entry in &self.journal {
            match entry {
                JournalEntry::Static(src) => push(
                    &mut frames,
                    Term::ordered("s_prog", vec![Term::text(src.clone())]),
                ),
                // Written by the WAL's own message writer.
                JournalEntry::Dynamic(m) => {
                    let mut out = String::new();
                    write_elem(&mut out, "s_dyn", true, |w| write_msg(w, m))
                        .expect("a String sink never fails");
                    frames.push(out.into_bytes());
                }
            }
        }
        for (uri, version, doc) in &self.state.resources {
            push(
                &mut frames,
                Term::build("s_res")
                    .unordered()
                    .field("shard", "0")
                    .field("uri", uri)
                    .field("version", version.to_string())
                    .child(Term::ordered("doc", vec![doc.clone()]))
                    .finish(),
            );
        }
        push(&mut frames, metrics_to_term(&self.state.metrics));
        push(
            &mut frames,
            Term::build("s_alog")
                .unordered()
                .field("shard", "0")
                .child(
                    Term::build("entries")
                        .children(self.state.action_log.iter().cloned())
                        .finish(),
                )
                .finish(),
        );
        push(&mut frames, Term::build("s_end").unordered().finish());
        frames
    }

    /// Decode a snapshot from the valid frames of its file. Returns
    /// `Ok(None)` for a file that is incomplete (torn tail or missing
    /// `s_end`) — the residue of a crash mid-snapshot, which recovery
    /// handles by falling back to full log replay. A *complete* file
    /// with invalid contents is corruption and fails.
    pub fn from_frames(frames: &[(u64, Vec<u8>)]) -> Result<Option<Snapshot>> {
        let terms = frames
            .iter()
            .map(|(_, payload)| term_from_bytes(payload))
            .collect::<Result<Vec<_>>>()?;
        match terms.last() {
            Some(t) if t.label() == Some("s_end") => {}
            _ => return Ok(None), // incomplete write — not an error
        }
        let meta = terms
            .first()
            .filter(|t| t.label() == Some("s_meta"))
            .ok_or_else(|| PersistError::Corrupt("snapshot does not start with s_meta".into()))?;
        let schema = field_text(meta, "schema")?;
        if schema != SNAP_SCHEMA {
            return Err(PersistError::Corrupt(format!(
                "snapshot schema `{schema}` is not `{SNAP_SCHEMA}`"
            )));
        }
        let n_shards = field_u64(meta, "shards")?;
        if n_shards != 1 {
            return Err(PersistError::Corrupt(format!(
                "snapshot declares {n_shards} shards; only single-engine snapshots \
                 (one shard) are readable"
            )));
        }
        let mut snap = Snapshot {
            engine: field_text(meta, "engine")?,
            log_offset: field_u64(meta, "log_offset")?,
            warm_offset: field_u64(meta, "warm_offset")?,
            warm_mark: ReplayMark::default(),
            journal: Vec::new(),
            state: ShardState::default(),
        };
        let shard = |t: &Term| -> Result<()> {
            match field_u64(t, "shard")? {
                0 => Ok(()),
                i => Err(PersistError::Corrupt(format!(
                    "snapshot names shard {i} but declares 1 shard"
                ))),
            }
        };
        for t in &terms[1..terms.len() - 1] {
            match t.label() {
                Some("s_mark") => {
                    shard(t)?;
                    snap.warm_mark = ReplayMark {
                        clock: Timestamp(field_u64(t, "clock")?),
                        event_seq: field_u64(t, "eseq")?,
                        derived_seq: field_u64(t, "dseq")?,
                    };
                }
                Some("s_prog") => snap
                    .journal
                    .push(JournalEntry::Static(first_child(t)?.text_content())),
                Some("s_dyn") => snap
                    .journal
                    .push(JournalEntry::Dynamic(msg_from_term(first_child(t)?)?)),
                Some("s_res") => {
                    shard(t)?;
                    snap.state.resources.push((
                        field_text(t, "uri")?,
                        field_u64(t, "version")?,
                        field_child(t, "doc")?.clone(),
                    ));
                }
                Some("s_metrics") => {
                    shard(t)?;
                    snap.state.metrics = metrics_from_term(t)?;
                }
                Some("s_alog") => {
                    shard(t)?;
                    if let Some(entries) = field(t, "entries") {
                        snap.state.action_log = entries.children().to_vec();
                    }
                }
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown snapshot record label {other:?}"
                    )))
                }
            }
        }
        Ok(Some(snap))
    }

    /// Write atomically ([`write_frames_atomically`]): a crash leaves
    /// the old snapshot or the new one, never a mix.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        Ok(write_frames_atomically(path, self.to_frames())?)
    }

    /// Read a snapshot file; `Ok(None)` when absent or incomplete.
    pub fn read_from(path: &Path) -> Result<Option<Snapshot>> {
        Snapshot::from_frames(&read_frames(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reweb_core::MessageMeta;
    use reweb_term::frame::{encode_frame, scan_frames};
    use reweb_term::parse_term;

    fn sample() -> Snapshot {
        let mut metrics = EngineMetrics {
            events_received: 7,
            rules_fired: 3,
            join_attempts: 11,
            index_probes: 5,
            ..EngineMetrics::default()
        };
        metrics.fires_by_rule.insert("r1".into(), 3);
        metrics.errors.push("rule r9: action failed: boom".into());
        Snapshot {
            engine: "single".into(),
            log_offset: 420,
            warm_offset: 120,
            warm_mark: ReplayMark {
                clock: Timestamp(8_000),
                event_seq: 11,
                derived_seq: 2,
            },
            journal: vec![
                JournalEntry::Static("RULE r1 ON ping DO NOOP END".into()),
                JournalEntry::Dynamic(InMessage::new(
                    parse_term("install_rules[ruleset{name[\"x\"]}]").unwrap(),
                    MessageMeta::from_uri("http://peer"),
                    Timestamp(50),
                )),
            ],
            state: ShardState {
                resources: vec![(
                    "http://data/items".into(),
                    4,
                    parse_term("items[item{v[\"0\"]}]").unwrap(),
                )],
                metrics,
                action_log: vec![parse_term("logged{x[\"1\"]}").unwrap()],
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let bytes: Vec<u8> = snap
            .to_frames()
            .iter()
            .flat_map(|f| encode_frame(f))
            .collect();
        let back = Snapshot::from_frames(&scan_frames(&bytes).frames)
            .unwrap()
            .expect("complete");
        assert_eq!(back.engine, snap.engine);
        assert_eq!(back.log_offset, snap.log_offset);
        assert_eq!(back.warm_offset, snap.warm_offset);
        assert_eq!(back.warm_mark, snap.warm_mark);
        assert_eq!(back.journal, snap.journal);
        assert_eq!(back.state.resources, snap.state.resources);
        assert_eq!(
            back.state.metrics.fires_by_rule,
            snap.state.metrics.fires_by_rule
        );
        assert_eq!(back.state.metrics.errors, snap.state.metrics.errors);
        assert_eq!(back.state.metrics.join_attempts, 11);
        assert_eq!(back.state.metrics.index_probes, 5);
        assert_eq!(back.state.action_log, snap.state.action_log);
    }

    #[test]
    fn incomplete_snapshot_is_none_not_error() {
        let snap = sample();
        let bytes: Vec<u8> = snap
            .to_frames()
            .iter()
            .flat_map(|f| encode_frame(f))
            .collect();
        // Chop off the s_end terminator (and a bit more).
        let cut = bytes.len() - 9;
        let frames = scan_frames(&bytes[..cut]).frames;
        assert!(Snapshot::from_frames(&frames).unwrap().is_none());
        assert!(Snapshot::from_frames(&[]).unwrap().is_none());
    }
}

//! Logs written before the one-pass decoder and the record writer: the
//! WAL in `fixtures/parent-wal.log` was written by the term-building
//! `Record::to_bytes` and `parse_term`'s lexer era. It must read into the
//! same records and re-encode to the same bytes, frame for frame — the
//! codec changed, the format did not. (The outbox fixture beside it is
//! checked by `outbox::tests`, which can see the record type.)
//!
//! `fixtures/parent-snapshot.bin` and its log `parent-snapshot-wal.log`
//! were written by a durable single engine while sharded engines could
//! still be made durable: the snapshot must decode, re-encode frame for
//! frame, and recover to the state of an uninterrupted run.

use reweb_core::{parse_program, ruleset_to_term, InMessage, MessageMeta, ReactiveEngine};
use reweb_persist::snapshot::JournalEntry;
use reweb_persist::wal::{Wal, WAL_SCHEMA};
use reweb_persist::{DurableEngine, DurableOptions, Record, Snapshot, SyncPolicy};
use reweb_term::frame::encode_frame;
use reweb_term::{parse_term, scan_frames, TailState, Term, Timestamp};

const WAL: &[u8] = include_bytes!("fixtures/parent-wal.log");

fn t(s: &str) -> Term {
    parse_term(s).unwrap()
}

/// The records the fixture was written from.
fn expected() -> Vec<Record> {
    vec![
        Record::Head {
            schema: WAL_SCHEMA.into(),
            engine: "single".into(),
        },
        Record::Install(
            "RULE echo ON ping{{id[[var I]]}}\nDO SEND pong{id[var I]} TO \"http://peer\" END"
                .into(),
        ),
        Record::Batch(vec![
            InMessage::new(
                t(
                    r#"order{@route="r1", id["o1"], total["50.5"], note["line\nbreak \"quoted\" back\\slash"]}"#,
                ),
                MessageMeta::from_uri("http://client"),
                Timestamp(1000),
            ),
            InMessage::new(
                t(r#"payment[order["o1"], amount["50.5"], empty{}, bare]"#),
                MessageMeta::from_uri("http://bank")
                    .with_credentials("franz", "pw\"with\nescapes\\"),
                Timestamp(2000),
            ),
            InMessage::new(
                t("\"just text é €\""),
                MessageMeta::from_uri("local"),
                Timestamp(2000),
            ),
        ]),
        Record::Batch(vec![]),
        Record::Advance(Timestamp(5000)),
        Record::Put {
            uri: "http://data/items".into(),
            doc: t(r#"items[item{@sku="s1", v["0"]}, item{@sku="s2", v["1"]}]"#),
        },
        Record::Batch(vec![InMessage::new(
            t(r#"ping{id["7"]}"#),
            MessageMeta::from_uri("http://client"),
            Timestamp(6000),
        )]),
    ]
}

#[test]
fn parent_wal_reads_into_the_same_records_and_re_encodes_byte_identically() {
    let scan = scan_frames(WAL);
    assert!(matches!(scan.tail, TailState::Clean));
    let records: Vec<Record> = scan
        .frames
        .iter()
        .map(|(_, payload)| Record::from_bytes(payload).expect("record decodes"))
        .collect();
    assert_eq!(records, expected());
    for ((_, payload), rec) in scan.frames.iter().zip(&records) {
        assert_eq!(&rec.to_bytes(), payload, "{rec:?}");
    }
    let rewritten: Vec<u8> = records
        .iter()
        .flat_map(|r| encode_frame(&r.to_bytes()))
        .collect();
    assert_eq!(rewritten, WAL);
}

#[test]
fn parent_wal_reopens_through_wal_open() {
    let dir = std::env::temp_dir().join(format!("reweb-parent-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    std::fs::write(&path, WAL).unwrap();
    let open = Wal::open(&path).unwrap();
    assert_eq!(open.torn_bytes, 0);
    let records: Vec<Record> = open.records.into_iter().map(|(_, r)| r).collect();
    assert_eq!(records, expected());
    let _ = std::fs::remove_dir_all(&dir);
}

const SNAPSHOT: &[u8] = include_bytes!("fixtures/parent-snapshot.bin");
const SNAPSHOT_WAL: &[u8] = include_bytes!("fixtures/parent-snapshot-wal.log");

/// Rules of the snapshot fixture: an action log and a store write per
/// order, and a windowed join whose partial state straddles the snapshot.
const SNAP_PROGRAM: &str = r#"
RULE audit ON order{{id[[var O]]}} DO SEQ
    LOG audited{id[var O]};
    UPDATE INSERT entry{order[var O]} INTO ledger[[]] IN "http://data/ledger";
END END
RULE paid ON and(order{{id[[var O]]}}, payment{{order[[var O]]}}) within 1m
    DO SEND paid{order[var O]} TO "http://ship" END
"#;

/// The dynamically installed rule set.
const CARRIED: &str =
    r#"RULE refund ON refund{{order[[var O]]}} DO SEND refunded{order[var O]} TO "http://bank" END"#;

enum Step {
    Install(&'static str),
    Put(&'static str, Term),
    Batch(Vec<InMessage>),
    Advance(Timestamp),
    Snapshot,
}

fn msg(src: &str, at: u64) -> InMessage {
    InMessage::new(
        parse_term(src).unwrap(),
        MessageMeta::from_uri("http://peer"),
        Timestamp(at),
    )
}

/// The inputs the snapshot fixture was written from, in order.
fn snapshot_fixture_steps() -> Vec<Step> {
    let install = InMessage::new(
        Term::ordered(
            "install_rules",
            vec![ruleset_to_term(&parse_program(CARRIED).unwrap())],
        ),
        MessageMeta::from_uri("http://peer"),
        Timestamp(3_000),
    );
    vec![
        Step::Install(SNAP_PROGRAM),
        Step::Put("http://data/ledger", parse_term("ledger[]").unwrap()),
        Step::Put(
            "http://data/items",
            parse_term(r#"items[item{@sku="s1", v["0"]}]"#).unwrap(),
        ),
        Step::Batch(vec![
            msg(r#"order{id["o1"]}"#, 1_000),
            msg(r#"order{id["o2"]}"#, 2_000),
        ]),
        Step::Batch(vec![
            install,
            msg(r#"payment{order["o1"]}"#, 4_000),
            msg(r#"refund{order["o1"]}"#, 5_000),
        ]),
        Step::Advance(Timestamp(200_000)),
        Step::Batch(vec![msg(r#"order{id["o3"]}"#, 210_000)]),
        Step::Snapshot,
        Step::Batch(vec![msg(r#"order{id["o4"]}"#, 220_000)]),
    ]
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reweb-parent-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn node() -> ReactiveEngine {
    ReactiveEngine::new("http://node")
}

/// What recovery must reproduce: rules, store with versions, metrics,
/// action log and sequence state.
fn state(e: &ReactiveEngine) -> String {
    let store: Vec<String> = e
        .qe
        .store
        .uris()
        .map(|u| {
            format!(
                "{u} v{} {}",
                e.qe.store.version(u).unwrap(),
                e.qe.store.get(u).unwrap()
            )
        })
        .collect();
    format!(
        "{}\n{store:?}\n{:?}\n{:?}\n{:?}\n{}",
        e.program_source(),
        e.metrics,
        e.action_log,
        e.replay_mark(),
        e.state_size()
    )
}

#[test]
fn parent_snapshot_decodes_and_re_encodes_frame_for_frame() {
    let scan = scan_frames(SNAPSHOT);
    assert!(matches!(scan.tail, TailState::Clean));
    let snap = Snapshot::from_frames(&scan.frames)
        .expect("snapshot decodes")
        .expect("snapshot is complete");
    assert_eq!(snap.engine, "single");
    assert!(snap.warm_offset < snap.log_offset);
    assert_eq!(snap.warm_mark.clock, Timestamp(5_000));
    assert!(matches!(snap.journal[0], JournalEntry::Static(_)));
    assert!(matches!(snap.journal[1], JournalEntry::Dynamic(_)));
    assert_eq!(snap.state.resources.len(), 2);
    assert_eq!(snap.state.metrics.rules_fired, 5);
    assert_eq!(snap.state.action_log.len(), 3);
    let frames = snap.to_frames();
    assert_eq!(frames.len(), scan.frames.len());
    for (new, (_, old)) in frames.iter().zip(&scan.frames) {
        assert_eq!(new, old, "{}", String::from_utf8_lossy(old));
    }
}

#[test]
fn parent_snapshot_recovers_to_the_uninterrupted_state() {
    let opts = DurableOptions {
        sync: SyncPolicy::Os,
        snapshot_every: None,
    };
    // The uninterrupted run: the same inputs, never reopened.
    let ref_dir = scratch_dir("snap-ref");
    let mut reference = DurableEngine::open(&ref_dir, opts, node).unwrap();
    for s in snapshot_fixture_steps() {
        match s {
            Step::Install(src) => reference.install_program(src).unwrap(),
            Step::Put(uri, doc) => reference.put_resource(uri, doc).unwrap(),
            Step::Batch(msgs) => {
                reference.receive_batch(&msgs).unwrap();
            }
            Step::Advance(t) => {
                reference.advance_time(t).unwrap();
            }
            Step::Snapshot => {}
        }
    }
    let dir = scratch_dir("snap");
    std::fs::write(dir.join("wal.log"), SNAPSHOT_WAL).unwrap();
    std::fs::write(dir.join("snapshot.bin"), SNAPSHOT).unwrap();
    let mut recovered = DurableEngine::open(&dir, opts, node).unwrap();
    assert!(recovered.recovery().used_snapshot);
    assert_eq!(recovered.recovery().warm_records, 2);
    assert_eq!(recovered.recovery().replayed_records, 1);
    assert_eq!(state(recovered.engine()), state(reference.engine()));
    // The join state warmup rebuilt completes exactly as it would have.
    let pay = vec![
        msg(r#"payment{order["o3"]}"#, 230_000),
        msg(r#"payment{order["o4"]}"#, 231_000),
    ];
    let want = reference.receive_batch(&pay).unwrap();
    assert_eq!(want.len(), 2);
    assert_eq!(recovered.receive_batch(&pay).unwrap(), want);
    assert_eq!(state(recovered.engine()), state(reference.engine()));
    drop((reference, recovered));
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

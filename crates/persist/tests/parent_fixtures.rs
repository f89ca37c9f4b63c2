//! Logs written before the one-pass decoder and the record writer: the
//! WAL in `fixtures/parent-wal.log` was written by the term-building
//! `Record::to_bytes` and `parse_term`'s lexer era. It must read into the
//! same records and re-encode to the same bytes, frame for frame — the
//! codec changed, the format did not. (The outbox fixture beside it is
//! checked by `outbox::tests`, which can see the record type.)

use reweb_core::{InMessage, MessageMeta};
use reweb_persist::wal::{Wal, WAL_SCHEMA};
use reweb_persist::Record;
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

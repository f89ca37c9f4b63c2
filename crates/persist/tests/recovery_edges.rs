//! Torn-tail and snapshot edge cases of durable recovery: the inputs a
//! crash (or an operator with `truncate`) can actually leave on disk.

use std::fs::OpenOptions;
use std::path::PathBuf;

use reweb_core::{InMessage, MessageMeta, ReactiveEngine};
use reweb_persist::{DurableEngine, DurableOptions, PersistError, SyncPolicy};
use reweb_term::{parse_term, Timestamp};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reweb-edge-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Os,
        snapshot_every: None,
    }
}

fn build() -> ReactiveEngine {
    ReactiveEngine::new("http://node")
}

const PROGRAM: &str = r#"RULE r ON ping{{n[[var N]]}} DO SEND pong{n[var N]} TO "http://sink" END"#;

fn feed(d: &mut DurableEngine<ReactiveEngine>, n: u64, from: u64) -> usize {
    let meta = MessageMeta::from_uri("http://peer");
    let mut outs = 0;
    for k in from..from + n {
        outs += d
            .receive(
                parse_term(&format!("ping{{n[\"{k}\"]}}")).unwrap(),
                &meta,
                Timestamp(1_000 * (k + 1)),
            )
            .unwrap()
            .len();
    }
    outs
}

/// A brand-new directory (and an empty log file) recover to a blank,
/// usable engine.
#[test]
fn empty_log_recovers_to_blank_engine() {
    let dir = fresh_dir("empty");
    {
        let d = DurableEngine::open(&dir, opts(), build).unwrap();
        assert!(!d.recovery().recovered);
        assert_eq!(d.engine().rule_count(), 0);
    }
    // Re-open with only the header record present: recovered, nothing
    // replayed.
    let d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d.recovery().recovered);
    assert_eq!(d.recovery().replayed_records, 0);
    assert_eq!(d.recovery().torn_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot at the exact end of the log: recovery restores state with
/// zero full-replay suffix and the engine continues correctly.
#[test]
fn snapshot_with_no_suffix() {
    let dir = fresh_dir("nosuffix");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        assert_eq!(feed(&mut d, 5, 0), 5);
        d.snapshot_now().unwrap();
    }
    let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d.recovery().used_snapshot);
    assert_eq!(
        d.recovery().replayed_records,
        0,
        "snapshot covers the whole log; no full-replay suffix"
    );
    assert_eq!(d.engine().rule_count(), 1);
    assert_eq!(d.engine().metrics.rules_fired, 5, "metrics restored");
    assert_eq!(feed(&mut d, 1, 5), 1, "engine is live after recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// A length prefix that is itself truncated (fewer than the 8 header
/// bytes, so its CRC cannot even be read) is a torn tail: discarded,
/// healed, not a panic.
#[test]
fn truncated_length_prefix_is_discarded() {
    let dir = fresh_dir("shortlen");
    let valid_len;
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 3, 0);
        valid_len = d.wal_len();
    }
    // Append 3 bytes: a length prefix cut off mid-write.
    let wal = dir.join("wal.log");
    {
        use std::io::Write;
        let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0x40, 0x00, 0x00]).unwrap();
    }
    let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert_eq!(d.recovery().torn_bytes, 3);
    assert_eq!(d.wal_len(), valid_len, "file truncated back to boundary");
    assert_eq!(d.engine().metrics.rules_fired, 3);
    assert_eq!(feed(&mut d, 1, 3), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid length prefix whose payload is cut short is equally a
/// torn tail.
#[test]
fn truncated_payload_is_discarded() {
    let dir = fresh_dir("shortpay");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 4, 0);
    }
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    // Chop the last 5 bytes: final record's payload is now shorter than
    // its (intact, CRC-carrying) header claims.
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
    let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d.recovery().torn_bytes > 0);
    assert_eq!(
        d.engine().metrics.rules_fired,
        3,
        "last receive discarded with its record"
    );
    assert_eq!(feed(&mut d, 1, 4), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupted (bit-flipped) record mid-file ends the trusted prefix at
/// the corruption point: everything before it recovers.
#[test]
fn corrupt_record_ends_the_trusted_prefix() {
    let dir = fresh_dir("bitflip");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 4, 0);
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();
    let d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d.recovery().torn_bytes > 0);
    assert_eq!(d.engine().metrics.rules_fired, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot pointing past the end of the log means the log lost
/// records *after* the snapshot was taken. Recovery must refuse loudly —
/// replaying would silently drop those events.
#[test]
fn snapshot_newer_than_log_is_an_error() {
    let dir = fresh_dir("snapahead");
    let before_last;
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 4, 0);
        before_last = d.wal_len();
        feed(&mut d, 2, 4);
        d.snapshot_now().unwrap(); // snapshot references the full log
    }
    // "Lose" the tail the snapshot depends on (e.g. a restored-from-
    // backup log file): cut cleanly at an earlier record boundary.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..before_last as usize]).unwrap();
    let err = DurableEngine::open(&dir, opts(), build).expect_err("must refuse");
    match &err {
        PersistError::Corrupt(msg) => {
            assert!(msg.contains("newer than the log"), "got: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The degenerate variant: a snapshot exists but the log is gone
/// entirely. Also a loud error, not a fresh start.
#[test]
fn snapshot_with_missing_log_is_an_error() {
    let dir = fresh_dir("snaplogless");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 2, 0);
        d.snapshot_now().unwrap();
    }
    std::fs::remove_file(dir.join("wal.log")).unwrap();
    let err = DurableEngine::open(&dir, opts(), build).expect_err("must refuse");
    assert!(matches!(err, PersistError::Corrupt(_)), "got {err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A half-written snapshot (no terminator — crash mid-snapshot) is
/// ignored in favor of full log replay, and the next snapshot repairs
/// it.
#[test]
fn incomplete_snapshot_falls_back_to_genesis_replay() {
    let dir = fresh_dir("snaptorn");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
        feed(&mut d, 3, 0);
        d.snapshot_now().unwrap();
    }
    let snap = dir.join("snapshot.bin");
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() - 6]).unwrap();
    let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(!d.recovery().used_snapshot, "torn snapshot ignored");
    assert_eq!(d.recovery().replayed_records, 4, "full genesis replay");
    assert_eq!(d.engine().metrics.rules_fired, 3);
    d.snapshot_now().unwrap();
    let d2 = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d2.recovery().used_snapshot, "fresh snapshot readable again");
    std::fs::remove_dir_all(&dir).ok();
}

/// Logs written by a differently shaped engine are refused, not
/// misread: a write-ahead log whose header names a sharded engine, and a
/// complete snapshot that declares two shards.
#[test]
fn engine_shape_mismatch_is_refused() {
    use reweb_persist::log::write_frames_atomically;
    use reweb_persist::wal::{Wal, WAL_SCHEMA};
    use reweb_persist::Record;

    let dir = fresh_dir("shape");
    {
        let mut wal = Wal::open(&dir.join("wal.log")).unwrap().wal;
        wal.append(&Record::Head {
            schema: WAL_SCHEMA.into(),
            engine: "sharded:2:Serial".into(),
        })
        .unwrap();
        wal.append(&Record::Install(PROGRAM.into())).unwrap();
        wal.sync().unwrap();
    }
    let err = DurableEngine::open(&dir, opts(), build).expect_err("sharded log");
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");

    let dir = fresh_dir("shape-snapshot");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(PROGRAM).unwrap();
    }
    let log_end = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let meta = format!(
        r#"s_meta{{schema["reweb-snap/v1"], engine["single"], log_offset["{log_end}"], warm_offset["{log_end}"], warm_clock["0"], shards["2"]}}"#
    );
    write_frames_atomically(
        &dir.join("snapshot.bin"),
        [meta.into_bytes(), b"s_end{}".to_vec()],
    )
    .unwrap();
    let err = DurableEngine::open(&dir, opts(), build).expect_err("two-shard snapshot");
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("2 shards"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One fsync per batch, never per message: under `SyncPolicy::Always`
/// each `receive_batch` call is one log record and one fsync, whatever
/// its length. The installed program is the only other record written
/// after observability is switched on.
#[test]
fn one_fsync_per_batch_never_per_message() {
    const BATCHES: u64 = 8;
    const BATCH: u64 = 64;
    let dir = fresh_dir("fsync-per-batch");
    let always = DurableOptions {
        sync: SyncPolicy::Always,
        snapshot_every: None,
    };
    let mut d = DurableEngine::open(&dir, always, build).unwrap();
    d.obs().enable();
    d.install_program(PROGRAM).unwrap();
    let meta = MessageMeta::from_uri("http://peer");
    for b in 0..BATCHES {
        let batch: Vec<InMessage> = (b * BATCH..(b + 1) * BATCH)
            .map(|k| {
                let p = parse_term(&format!("ping{{n[\"{k}\"]}}")).unwrap();
                InMessage::new(p, meta.clone(), Timestamp(1_000 * (k + 1)))
            })
            .collect();
        d.receive_batch(&batch).unwrap();
    }
    assert_eq!(d.engine().metrics.rules_fired, BATCHES * BATCH);
    // The install record costs exactly one fsync of its own.
    assert_eq!(d.obs().fsync.snapshot().count(), BATCHES + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `put_resource` is logged and replayed, and versions survive exactly.
#[test]
fn put_resource_round_trips_with_versions() {
    let dir = fresh_dir("puts");
    {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.put_resource("http://data/doc", parse_term("doc[v[\"1\"]]").unwrap())
            .unwrap();
        d.put_resource("http://data/doc", parse_term("doc[v[\"2\"]]").unwrap())
            .unwrap();
        d.snapshot_now().unwrap();
        d.put_resource("http://data/doc", parse_term("doc[v[\"3\"]]").unwrap())
            .unwrap();
    }
    let d = DurableEngine::open(&dir, opts(), build).unwrap();
    let e = d.engine();
    assert_eq!(
        e.qe.store.get("http://data/doc").unwrap().to_string(),
        "doc[v[\"3\"]]"
    );
    assert_eq!(e.qe.store.version("http://data/doc"), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

/// `label[…[ "x" ]…]`, `n` brackets deep.
fn nested(n: usize) -> reweb_term::Term {
    (0..n).fold(reweb_term::Term::text("x"), |t, _| {
        reweb_term::Term::ordered("a", vec![t])
    })
}

/// What a node derives may nest deeper than the wire's cap, and it all
/// reopens. A rule wraps the deepest payload the wire admits (126 levels
/// under `event{payload[…]}`) two levels further into an action-log
/// entry, a stored document and a reaction. Wrapped again in their
/// records (`s_alog{entries[…]}`, `s_res{doc[…]}`, `o_enq{payload[…]}`),
/// each sits past `MAX_NESTING`, yet the node reopens from its snapshot
/// and from its log alone, and the outbox reopens with the reaction
/// pending.
#[test]
fn derived_terms_past_the_wire_cap_reopen_from_snapshot_log_and_outbox() {
    use reweb_persist::outbox::Outbox;
    use reweb_term::MAX_NESTING;
    const WRAP: &str = r#"RULE wrap ON deep[[var P]] DO SEQ
        LOG a[b[var P]];
        UPDATE INSERT a[b[var P]] INTO store[[]] IN "http://data/deep";
        SEND a[b[var P]] TO "http://sink";
    END END"#;
    let dir = fresh_dir("derived-deep");
    let outbox_path = dir.join("outbox.log");
    let payload = reweb_term::Term::ordered("deep", vec![nested(MAX_NESTING - 3)]);
    assert_eq!(payload.nesting(), MAX_NESTING - 2);
    let store = parse_term("store[]").unwrap();
    let (logged, stored, sent) = {
        let mut d = DurableEngine::open(&dir, opts(), build).unwrap();
        d.install_program(WRAP).unwrap();
        d.put_resource("http://data/deep", store).unwrap();
        let outs = d
            .receive(
                payload,
                &MessageMeta::from_uri("http://peer"),
                Timestamp(1_000),
            )
            .unwrap();
        assert_eq!(outs.len(), 1);
        let mut outbox = Outbox::open(&outbox_path, SyncPolicy::Os).unwrap().outbox;
        outbox
            .enqueue(&outs[0].to, Timestamp(1_000), &outs[0].payload)
            .unwrap();
        d.snapshot_now().unwrap();
        let e = d.engine();
        let stored = e.qe.store.get("http://data/deep").unwrap().clone();
        (e.action_log.clone(), stored, outs[0].payload.clone())
    };
    assert_eq!(logged.len(), 1);
    assert_eq!(logged[0].nesting(), MAX_NESTING - 1);
    assert_eq!(stored.nesting(), MAX_NESTING);
    assert_eq!(sent.nesting(), MAX_NESTING - 1);

    let d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(d.recovery().used_snapshot);
    assert_eq!(d.engine().action_log, logged);
    assert_eq!(d.engine().qe.store.get("http://data/deep"), Ok(&stored));
    drop(d);

    std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
    let d = DurableEngine::open(&dir, opts(), build).unwrap();
    assert!(!d.recovery().used_snapshot);
    assert_eq!(d.engine().action_log, logged);
    assert_eq!(d.engine().qe.store.get("http://data/deep"), Ok(&stored));

    let reopened = Outbox::open(&outbox_path, SyncPolicy::Os).unwrap();
    assert_eq!(reopened.pending.len(), 1);
    assert_eq!(reopened.pending[0].payload, sent);
    std::fs::remove_dir_all(&dir).ok();
}

//! The crash matrix: killing a durable engine at *any* point and
//! recovering yields output byte-identical to the uninterrupted run —
//! the durability analogue of the sharded-equivalence discipline in
//! `crates/core/tests/sharded_equivalence.rs`.
//!
//! For a random rule set (atomic, windowed joins, sequences, absence
//! deadlines, wildcards, DETECT cascades, store-reading conditions) and
//! a random event stream, the test runs an uninterrupted durable engine
//! and records every output. Then, for every record boundary of the
//! resulting log (and for random byte offsets *inside* the tail record —
//! a torn write), it:
//!
//! 1. copies the killed node's directory (log prefix + whatever snapshot
//!    was on disk at that moment),
//! 2. recovers a fresh engine from it,
//! 3. feeds the not-yet-durable remainder of the stream, and
//! 4. requires `outputs(prefix) ++ outputs(rest after recovery)` to equal
//!    the uninterrupted run's outputs exactly — order and bytes.
//!
//! Runs cover the single engine, with snapshots forced at an aggressive
//! cadence so warm-replay recovery is exercised, not just genesis
//! replay.

use proptest::prelude::*;

use reweb_core::{InMessage, MessageMeta, ReactiveEngine};
use reweb_persist::{DurableEngine, DurableOptions, SyncPolicy};
use reweb_term::{parse_term, Term, Timestamp};

const LABELS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

/// Rule-program fragments, mirroring the sharded-equivalence generator:
/// every temporal operator the incremental engine supports, with windows
/// so the replay horizon stays bounded and snapshots actually cut the
/// log. Fragments only SEND (the documented store-sharing caveat).
fn fragment(i: usize, kind: u8, a: usize, b: usize) -> String {
    let la = LABELS[a % LABELS.len()];
    let lb = LABELS[b % LABELS.len()];
    match kind % 9 {
        0 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} DO SEND saw{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        1 => format!(
            r#"RULE r{i} ON and({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 2m
               DO SEND pair{i}{{a[var X], b[var Y]}} TO "http://sink/{i}" END"#
        ),
        2 => format!(
            r#"RULE r{i} ON seq({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var Y]]}}}}) within 90s
               DO SEND seq{i}{{a[var X]}} TO "http://sink/{i}" END"#
        ),
        3 => format!(
            r#"RULE r{i} ON absence({la}{{{{v[[var X]]}}}}, {lb}{{{{v[[var X]]}}}}, 30s)
               DO SEND missing{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        4 => format!(
            r#"RULE r{i} ON *{{{{v[[var X]]}}}} DO SEND any{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        5 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}} where var X >= 5
               DO SEND big{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        6 => format!(
            r#"RULE r{i} ON {la}{{{{v[[var X]]}}}}
               IF in "http://data/items" item{{{{v[[var X]]}}}}
               THEN SEND hit{i}{{v[var X]}} TO "http://sink/{i}"
               ELSE SEND miss{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        7 => format!(
            r#"DETECT d{i}{{v[var X]}} ON {la}{{{{v[[var X]]}}}} where var X >= 3 END
               RULE r{i} ON d{i}{{{{v[[var X]]}}}} DO SEND derived{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
        _ => format!(
            r#"RULE r{i} ON and({la}{{{{v[[var X]]}}}}, *{{{{tag[[var Y]]}}}}) within 2m
               DO SEND wild{i}{{v[var X]}} TO "http://sink/{i}" END"#
        ),
    }
}

fn event_payload(label_idx: usize, v: u64) -> Term {
    let label = if label_idx < LABELS.len() {
        LABELS[label_idx]
    } else {
        "noise"
    };
    parse_term(&format!("{label}{{v[\"{v}\"]}}")).unwrap()
}

fn seed_store() -> Term {
    parse_term(
        "items[item{v[\"0\"]}, item{v[\"1\"]}, item{v[\"2\"]}, item{v[\"3\"]}, item{v[\"4\"]}]",
    )
    .unwrap()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("reweb-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn render(out: &[reweb_core::OutMessage]) -> Vec<String> {
    out.iter()
        .map(|o| format!("{}<-{}", o.to, o.payload))
        .collect()
}

/// One durable step per stream element; steps 0 is the program install.
/// Chunked: every third boundary groups two messages into one batch so
/// batch records (and their epilogue semantics) are part of the matrix.
fn steps(program: &str, msgs: &[InMessage]) -> Vec<Step> {
    let mut steps = vec![Step::Install(program.to_string())];
    let mut i = 0;
    while i < msgs.len() {
        if i % 3 == 0 && i + 1 < msgs.len() {
            steps.push(Step::Batch(vec![msgs[i].clone(), msgs[i + 1].clone()]));
            i += 2;
        } else {
            steps.push(Step::Batch(vec![msgs[i].clone()]));
            i += 1;
        }
    }
    if let Some(last) = msgs.last() {
        // A final quiet-period advance so pending absence deadlines fire.
        steps.push(Step::Advance(Timestamp(last.at.millis() + 120_000)));
    }
    steps
}

#[derive(Clone, Debug)]
enum Step {
    Install(String),
    Batch(Vec<InMessage>),
    Advance(Timestamp),
}

fn run_step(d: &mut DurableEngine, s: &Step) -> Vec<String> {
    match s {
        Step::Install(src) => {
            d.install_program(src).expect("install");
            Vec::new()
        }
        Step::Batch(msgs) => render(&d.receive_batch(msgs).expect("batch")),
        Step::Advance(t) => render(&d.advance_time(*t).expect("advance")),
    }
}

/// Drive the full matrix for one engine builder; panics on divergence.
fn crash_matrix(
    tag: &str,
    steps: &[Step],
    opts: DurableOptions,
    build: impl Fn() -> ReactiveEngine + Copy,
    tail_cuts: &[u64],
) {
    // Uninterrupted reference run.
    let ref_dir = fresh_dir(&format!("{tag}-ref"));
    let mut reference = DurableEngine::open(&ref_dir, opts, build).expect("open ref");
    let mut ref_outputs: Vec<Vec<String>> = Vec::new();
    let mut dirs_after: Vec<std::path::PathBuf> = Vec::new();
    for (k, s) in steps.iter().enumerate() {
        ref_outputs.push(run_step(&mut reference, s));
        // Preserve the on-disk state exactly as it stands after step k —
        // the "power failed here" images the matrix recovers from.
        let img = fresh_dir(&format!("{tag}-img{k}"));
        copy_dir(&ref_dir, &img);
        dirs_after.push(img);
    }
    let flat_ref: Vec<String> = ref_outputs.iter().flatten().cloned().collect();
    drop(reference);

    // Kill at every record boundary: recover from the image after step k
    // and re-drive steps k+1… . The image itself stays pristine — the
    // revived node lives in a scratch copy, since recovery appends.
    for k in 0..steps.len() {
        let node = fresh_dir(&format!("{tag}-node{k}"));
        copy_dir(&dirs_after[k], &node);
        let mut revived = DurableEngine::open(&node, opts, build)
            .unwrap_or_else(|e| panic!("recovery after step {k} failed ({tag}): {e}"));
        assert!(revived.recovery().recovered);
        let mut outputs: Vec<String> = ref_outputs[..=k].iter().flatten().cloned().collect();
        for s in &steps[k + 1..] {
            outputs.extend(run_step(&mut revived, s));
        }
        assert_eq!(
            outputs, flat_ref,
            "outputs diverged after recovery at step {k} ({tag})"
        );
        drop(revived);
        std::fs::remove_dir_all(&node).ok();
    }

    // Torn-tail kills: truncate the final image at byte offsets inside
    // its tail record; the last step's record is discarded, so recovery
    // must land exactly on the state after the previous step. One caveat:
    // under `SyncPolicy::Os` (which these tests use for speed) a snapshot
    // written after the torn record can survive while the record's bytes
    // do not — a genuine data-loss scenario, which recovery must *refuse*
    // rather than silently drop events. With `SyncPolicy::Always` the
    // record is fsynced before any snapshot can reference it, so that
    // refusal can only signal real log loss.
    let last = dirs_after.last().unwrap();
    let full = std::fs::read(last.join("wal.log")).unwrap();
    let prev_len = std::fs::metadata(dirs_after[steps.len() - 2].join("wal.log"))
        .unwrap()
        .len();
    let tail_len = full.len() as u64 - prev_len;
    for &cut in tail_cuts {
        let cut = prev_len + 1 + cut % (tail_len - 1).max(1);
        let torn = fresh_dir(&format!("{tag}-torn{cut}"));
        copy_dir(last, &torn);
        std::fs::write(torn.join("wal.log"), &full[..cut as usize]).unwrap();
        let mut revived = match DurableEngine::open(&torn, opts, build) {
            Ok(r) => r,
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("newer than the log"),
                    "torn recovery at byte {cut} failed with an unexpected error ({tag}): {msg}"
                );
                std::fs::remove_dir_all(&torn).ok();
                continue; // detected data loss: correct refusal, not silence
            }
        };
        assert_eq!(revived.recovery().torn_bytes, cut - prev_len);
        let k = steps.len() - 2; // state must equal "after step k"
        let mut outputs: Vec<String> = ref_outputs[..=k].iter().flatten().cloned().collect();
        for s in &steps[k + 1..] {
            outputs.extend(run_step(&mut revived, s));
        }
        assert_eq!(
            outputs, flat_ref,
            "outputs diverged after torn-tail recovery at byte {cut} ({tag})"
        );
        std::fs::remove_dir_all(&torn).ok();
    }

    std::fs::remove_dir_all(&ref_dir).ok();
    for d in dirs_after {
        std::fs::remove_dir_all(&d).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Single-engine crash matrix, snapshots every 3 records.
    #[test]
    fn single_engine_crash_matrix(
        rules in proptest::collection::vec((0..9u8, 0..6usize, 0..6usize), 1..5),
        stream in proptest::collection::vec((0..7usize, 0..10u64, 1..20_000u64), 4..18),
        cuts in proptest::collection::vec(0..10_000u64, 2..4),
    ) {
        let program: String = rules
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b))| fragment(i, kind, a, b))
            .collect::<Vec<_>>()
            .join("\n");
        let meta = MessageMeta::from_uri("http://peer");
        let mut at = 0u64;
        let msgs: Vec<InMessage> = stream
            .iter()
            .map(|&(l, v, dt)| {
                at += dt;
                InMessage::new(event_payload(l, v), meta.clone(), Timestamp(at))
            })
            .collect();
        let steps = steps(&program, &msgs);
        let opts = DurableOptions {
            sync: SyncPolicy::Os, // crash-consistency is framing, not fsync
            snapshot_every: Some(3),
        };
        let build = || {
            let mut e = ReactiveEngine::new("http://node");
            e.qe.store.put("http://data/items", seed_store());
            e
        };
        crash_matrix("single", &steps, opts, build, &cuts);
    }
}

/// Deterministic regression for the beta network (PR 7): composite
/// `and`/`seq` rules with windows — including `seq`-under-`and` — whose
/// partial-join state straddles every kill point. Recovery must rebuild
/// the join *indexes* from the replayed stream (they are derived data,
/// never serialized), so any divergence between index contents and stored
/// answers shows up as missing or duplicated firings here. The matrix
/// runs in both join modes (cross-mode output equality is pinned
/// separately by `reweb_events`' `join_equivalence` wall).
#[test]
fn composite_join_crash_matrix() {
    use reweb_core::JoinMode;

    let program = r#"
        RULE tri ON and(alpha{{v[[var X]]}}, beta{{v[[var X]], w[[var Y]]}}, gamma{{w[[var Y]]}})
             within 2m
          DO SEND tri{x[var X], y[var Y]} TO "http://sink/tri" END
        RULE chain ON seq(alpha{{v[[var X]]}}, beta{{v[[var X]]}}, gamma{{w[[var Y]]}}) within 90s
          DO SEND chain{x[var X]} TO "http://sink/chain" END
        RULE nest ON and(seq(alpha{{v[[var X]]}}, beta{{v[[var X]]}}) within 60s,
                         gamma{{v[[var Z]]}}) within 2m
          DO SEND nest{x[var X], z[var Z]} TO "http://sink/nest" END
    "#;
    let meta = MessageMeta::from_uri("http://peer");
    let mut msgs = Vec::new();
    for k in 0..18u64 {
        let label = ["alpha", "beta", "gamma"][(k % 3) as usize];
        let payload = parse_term(&format!(
            "{label}{{v[\"{}\"], w[\"{}\"]}}",
            k % 4,
            (k + 1) % 3
        ))
        .unwrap();
        msgs.push(InMessage::new(
            payload,
            meta.clone(),
            Timestamp(1_000 + k * 7_000),
        ));
    }
    let steps = steps(program, &msgs);
    let opts = DurableOptions {
        sync: SyncPolicy::Os,
        snapshot_every: Some(4),
    };
    for mode in [JoinMode::Indexed, JoinMode::Scan] {
        let build = move || {
            let mut e = ReactiveEngine::new("http://node");
            e.set_join_mode(mode);
            e
        };
        crash_matrix(
            &format!("composite-{mode:?}"),
            &steps,
            opts,
            build,
            &[3, 977],
        );
    }
}

//! The JSON codec under the campaign journal, artifacts and traces.
//!
//! * Strings of any content round-trip exactly, and the writer's bytes
//!   match a per-character reference escaper, so goldens, baselines and
//!   journal chunks stay byte-identical.
//! * `\u` escapes keep their established decoding: lone surrogates become
//!   U+FFFD, truncated or non-hex payloads are errors.
//! * Parsing is linear in the line's length: a line holding one 4 MiB
//!   string parses within the normal test run (a reader that rescans the
//!   rest of the line per character takes minutes on it).
//! * No prefix or single-byte mutation of a journal line panics the
//!   reader, and a corrupted journal chunk is reported as uncommitted or
//!   as `InvalidData` — `WaferRunner::resume` over it returns a report or
//!   an error, never a panic.
//! * Crafted counts near `u64::MAX` in a journal's ledgers saturate in the
//!   replay fold instead of overflowing, so resume again returns a report
//!   or `InvalidData`.

use cichar::ate::{AteConfig, MeasuredParam, MeasurementLedger, TesterFaultModel};
use cichar::core::db;
use cichar::core::dsv::SearchStrategy;
use cichar::core::journal::{
    CampaignJournal, ChunkCommit, JournalMeta, JournalRecord, TouchdownRecord,
};
use cichar::core::wafer::{WaferConfig, WaferReport, WaferRunner};
use cichar::dut::{Die, Lot};
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::search::RetryPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Characters that stress escaping and UTF-8 run boundaries.
const PALETTE: &[char] = &[
    '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', ' ', 'a', 'é',
    '✓', '\u{2028}', '\u{FFFD}', '😀',
];

/// The writer's escaping rules, one character at a time: `"`, `\`, `\n`,
/// `\t` and `\r` get short escapes, other controls below 0x20 get
/// `\u00XX`, everything else is copied.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn build_string(picks: &[(bool, usize, u32)]) -> String {
    picks
        .iter()
        .map(|&(from_palette, index, code)| {
            if from_palette {
                PALETTE[index % PALETTE.len()]
            } else {
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_round_trip_byte_identically(
        picks in proptest::collection::vec((any::<bool>(), 0usize..64, 0u32..=0x10_FFFF), 0..48),
    ) {
        let s = build_string(&picks);
        let json = serde_json::to_string(&s).expect("strings serialize");
        prop_assert_eq!(&json, &reference_escape(&s));
        prop_assert_eq!(serde_json::from_str::<String>(&json).expect("own output parses"), s);

        // Keys take the same path as values, and pretty output re-parses.
        let map: BTreeMap<String, String> = [(s.clone(), s.clone())].into_iter().collect();
        let json = serde_json::to_string(&map).expect("maps serialize");
        prop_assert_eq!(json, format!("{{{}:{}}}", reference_escape(&s), reference_escape(&s)));
        let pretty = serde_json::to_string_pretty(&map).expect("maps serialize");
        prop_assert_eq!(serde_json::from_str::<BTreeMap<String, String>>(&pretty).expect("parses"), map);
    }

    #[test]
    fn numbers_are_written_in_their_display_forms(bits: u64, int: i64, uint: u64) {
        let f = f64::from_bits(bits);
        let expected = if f.is_finite() { format!("{f:?}") } else { "null".to_string() };
        prop_assert_eq!(serde_json::to_string(&f).expect("floats serialize"), expected);
        prop_assert_eq!(serde_json::to_string(&int).expect("ints serialize"), int.to_string());
        prop_assert_eq!(serde_json::to_string(&uint).expect("ints serialize"), uint.to_string());
    }
}

#[test]
fn every_short_escape_and_control_character_round_trips() {
    for code in 0u32..0x80 {
        let c = char::from_u32(code).expect("ASCII is valid");
        let s = format!("é{c}✓{c}{c}");
        let json = serde_json::to_string(&s).expect("serializes");
        assert_eq!(json, reference_escape(&s), "U+{code:04X}");
        assert_eq!(
            serde_json::from_str::<String>(&json).expect("parses"),
            s,
            "U+{code:04X}"
        );
    }
    // The reader also accepts the escapes the writer never emits.
    let decoded: String = serde_json::from_str(r#""\/\b\f\u00e9\u00C9\u2713""#).expect("parses");
    assert_eq!(decoded, "/\u{8}\u{c}éÉ✓");
}

#[test]
fn unicode_escapes_keep_their_decoding() {
    let parse = serde_json::from_str::<String>;
    // Lone surrogates, and both halves of a pair, decode to U+FFFD.
    assert_eq!(parse(r#""\ud800""#).expect("parses"), "\u{FFFD}");
    assert_eq!(parse(r#""a\uDFFFb""#).expect("parses"), "a\u{FFFD}b");
    assert_eq!(
        parse(r#""\ud83d\ude00""#).expect("parses"),
        "\u{FFFD}\u{FFFD}"
    );
    // Truncated or non-hex payloads, and unknown escapes, are errors.
    for bad in [
        r#""\u"#,
        r#""\u12"#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\uzzzz""#,
        "\"\\u00é\"",
        "\"\\u0✓\"",
        r#""\x41""#,
        r#""\"#,
    ] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn a_four_mebibyte_string_line_parses() {
    let unit = "trip point ✓ \"DSV\"\tok\\ ";
    let big = unit.repeat((4 << 20) / unit.len() + 1);
    assert!(big.len() >= 4 << 20);
    let line = serde_json::to_string(&vec![big.clone()]).expect("serializes");
    let back: Vec<String> = serde_json::from_str(&line).expect("parses");
    assert_eq!(back, [big]);
}

// ----- the journal: a real campaign's chunk files --------------------------

const PARAM: MeasuredParam = MeasuredParam::DataValidTime;
const STRATEGY: SearchStrategy = SearchStrategy::SearchUntilTrip;

struct Campaign {
    dies: Vec<Die>,
    tests: Vec<Test>,
    ate: AteConfig,
}

impl Campaign {
    /// Four dies on two sites, one touchdown per chunk: two chunks, with
    /// faults, retries, votes and the site breaker all in the ledgers.
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        Campaign {
            dies: Lot::default().sample_dies(&mut rng, 4),
            tests: random::random_suite(&mut rng, &ConditionSpace::default(), 2),
            ate: AteConfig {
                faults: TesterFaultModel::transient(0.05, 0.03),
                seed: 0x10_DEC,
                ..AteConfig::default()
            },
        }
    }

    fn runner(&self, journal_dir: Option<PathBuf>) -> WaferRunner {
        WaferRunner::new(PARAM)
            .with_config(WaferConfig {
                sites: 2,
                chunk_touchdowns: 1,
                journal_dir,
                site_fault_threshold: Some(0.5),
                ..WaferConfig::default()
            })
            .with_recovery(RetryPolicy::new(4, 50.0).with_vote(2, 3))
    }

    fn run(&self) -> (WaferReport, MeasurementLedger) {
        self.runner(None)
            .run(
                &self.ate,
                &self.dies,
                &self.tests,
                STRATEGY,
                ExecPolicy::serial(),
            )
            .expect("unjournaled campaigns do no I/O")
    }

    /// A journal directory holding the crashed campaign's first `chunks`
    /// chunks.
    fn crashed_journal(&self, name: &str, chunks: usize) -> (PathBuf, CampaignJournal) {
        let dir = std::env::temp_dir().join(format!("cichar_json_codec_{name}"));
        let _ = fs::remove_dir_all(&dir);
        let committed = self
            .runner(Some(dir.clone()))
            .run_prefix(
                &self.ate,
                &self.dies,
                &self.tests,
                STRATEGY,
                ExecPolicy::serial(),
                chunks,
            )
            .expect("journal dir writable");
        assert_eq!(committed, chunks as u64);
        let meta: JournalMeta =
            db::load_artifact(dir.join("journal_meta.json")).expect("meta written");
        let journal = CampaignJournal::open(&dir, &meta).expect("own meta");
        (dir, journal)
    }

    fn resume(&self, dir: &Path) -> io::Result<(WaferReport, MeasurementLedger)> {
        self.runner(Some(dir.to_path_buf()))
            .resume(
                &self.ate,
                &self.dies,
                &self.tests,
                STRATEGY,
                ExecPolicy::serial(),
            )
            .map(|(report, ledger, _)| (report, ledger))
    }
}

#[test]
fn no_prefix_or_byte_mutation_of_a_journal_line_panics() {
    let campaign = Campaign::new();
    let (dir, journal) = campaign.crashed_journal("mutation", 1);
    let chunk = fs::read_to_string(journal.chunk_path(0)).expect("chunk 0 committed");
    let line = chunk.lines().next().expect("a touchdown line");
    let record: JournalRecord = serde_json::from_str(line).expect("pristine line parses");
    assert!(matches!(record, JournalRecord::Touchdown(_)));

    // A strict prefix of one JSON object is never a whole value.
    for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
        assert!(
            serde_json::from_str::<Value>(&line[..end]).is_err(),
            "prefix {end}"
        );
        assert!(
            serde_json::from_str::<JournalRecord>(&line[..end]).is_err(),
            "prefix {end}"
        );
    }

    // Every byte value at every position: mutations that leave valid UTF-8
    // reach the parser and must return, whatever they return.
    let mut parsed = 0usize;
    let mut bytes = line.as_bytes().to_vec();
    for pos in 0..bytes.len() {
        let original = bytes[pos];
        for b in (0..=255u8).filter(|&b| b != original) {
            bytes[pos] = b;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = serde_json::from_str::<JournalRecord>(text);
                parsed += 1;
            }
        }
        bytes[pos] = original;
    }
    assert!(
        parsed >= line.len() * 100,
        "{parsed} mutations reached the parser"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `load_chunk` on a corrupted chunk: `Ok(None)` (uncommitted), `Ok(Some)`
/// or `InvalidData`, and never anything else.
fn load_outcome(journal: &CampaignJournal) -> Option<bool> {
    match journal.load_chunk(0) {
        Ok(loaded) => Some(loaded.is_some()),
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            None
        }
    }
}

#[test]
fn a_truncated_journal_chunk_is_uncommitted_and_resumes_exactly() {
    let campaign = Campaign::new();
    let uninterrupted = campaign.run();
    let (dir, journal) = campaign.crashed_journal("truncated", 1);
    let path = journal.chunk_path(0);
    let pristine = fs::read(&path).expect("chunk 0 committed");
    assert_eq!(load_outcome(&journal), Some(true));

    for end in 0..pristine.len() {
        fs::write(&path, &pristine[..end]).expect("rewrite chunk");
        assert_eq!(load_outcome(&journal), Some(false), "cut at byte {end}");
        // Resume re-measures (and re-commits) a torn chunk; sample the
        // cut points so the battery stays quick.
        if end % 509 == 0 || pristine[end - 1] == b'\n' {
            let resumed = campaign.resume(&dir).expect("a torn chunk re-runs");
            assert_eq!(resumed, uninterrupted, "cut at byte {end}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_journal_chunk_is_an_error_or_a_replay_never_a_panic() {
    let campaign = Campaign::new();
    let uninterrupted = campaign.run();
    let (dir, journal) = campaign.crashed_journal("corrupted", 1);
    let path = journal.chunk_path(0);
    let pristine = fs::read(&path).expect("chunk 0 committed");

    // One invalid UTF-8 byte mid-file is corruption, not a tear.
    let mut bytes = pristine.clone();
    bytes[pristine.len() / 2] = 0xFF;
    fs::write(&path, &bytes).expect("rewrite chunk");
    assert_eq!(load_outcome(&journal), None);
    let err = campaign
        .resume(&dir)
        .expect_err("invalid UTF-8 refuses to resume");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    let mut rng = StdRng::seed_from_u64(0xF11F5);
    let mut outcomes = [0usize; 3];
    for _ in 0..120 {
        let mut bytes = pristine.clone();
        let pos = rng.gen_range(0..bytes.len());
        bytes[pos] ^= rng.gen_range(1..=255u8);
        fs::write(&path, &bytes).expect("rewrite chunk");
        let loaded = load_outcome(&journal);
        let resumed = campaign.resume(&dir);
        match loaded {
            // Uncommitted: resume re-measures the chunk from scratch.
            Some(false) => {
                outcomes[0] += 1;
                assert_eq!(
                    resumed.expect("re-runs"),
                    uninterrupted,
                    "flip at byte {pos}"
                );
            }
            // Parsed and counted: replay either passes the commit marker's
            // integrity check or refuses the chunk.
            Some(true) => {
                outcomes[1] += 1;
                if let Err(e) = resumed {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                }
            }
            None => {
                outcomes[2] += 1;
                let e = resumed.expect_err("corruption refuses to resume");
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            }
        }
        // Resume may have re-committed the chunk; start each flip pristine.
        fs::write(&path, &pristine).expect("restore chunk");
    }
    assert!(
        outcomes[2] > 0,
        "no flip reached the parser's error path: {outcomes:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_replayed_touchdown_with_more_ledgers_than_sites_is_refused() {
    // Structurally valid records whose counts match the commit marker, but
    // whose touchdown claims a third site on a two-site campaign.
    let campaign = Campaign::new();
    let (dir, journal) = campaign.crashed_journal("extra_site", 1);
    let (mut touchdowns, commit) = journal.load_chunk(0).expect("readable").expect("committed");
    let extra = touchdowns[0].ledgers[0];
    touchdowns[0].ledgers.push(extra);
    let records: Vec<JournalRecord> = touchdowns
        .into_iter()
        .map(JournalRecord::Touchdown)
        .chain([JournalRecord::Commit(commit)])
        .collect();
    journal.commit_chunk(0, &records).expect("rewrite chunk");
    assert_eq!(load_outcome(&journal), Some(true));
    let err = campaign
        .resume(&dir)
        .expect_err("a third site cannot replay");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("site ledgers"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// `ledger` with the named counts replaced (the fields are private, so the
/// edit goes through the serialized form a journal holds).
fn with_counts(ledger: &MeasurementLedger, names: &[&str], count: u64) -> MeasurementLedger {
    let Value::Map(mut fields) = ledger.to_value() else {
        panic!("a ledger serializes as a map");
    };
    for (key, value) in &mut fields {
        if names.contains(&key.as_str()) {
            *value = Value::U64(count);
        }
    }
    MeasurementLedger::from_value(&Value::Map(fields)).expect("still a ledger")
}

#[test]
fn replayed_counts_near_u64_max_are_an_error_or_a_report_never_a_panic() {
    // Every committed touchdown claims `u64::MAX - 1` contact faults, and
    // each of its two site ledgers as many measurements, faults,
    // quarantines and timeouts, so every total the fold keeps runs past
    // `u64::MAX`. The fold must saturate, not overflow, before the
    // integrity check runs.
    let campaign = Campaign::new();
    let (dir, journal) = campaign.crashed_journal("huge_counts", 2);
    let mut chunks: Vec<(Vec<TouchdownRecord>, ChunkCommit)> = (0..2)
        .map(|c| journal.load_chunk(c).expect("readable").expect("committed"))
        .collect();
    for td in chunks.iter_mut().flat_map(|(touchdowns, _)| touchdowns) {
        assert_eq!(td.ledgers.len(), 2, "a two-site touchdown");
        td.contact_faults = u64::MAX - 1;
        for ledger in &mut td.ledgers {
            let counts = ["measurements", "dropouts", "flips", "quarantined", "timeouts"];
            *ledger = with_counts(ledger, &counts, u64::MAX - 1);
        }
    }
    let rewrite = |chunks: &[(Vec<TouchdownRecord>, ChunkCommit)]| {
        for (index, (touchdowns, commit)) in chunks.iter().enumerate() {
            let records: Vec<JournalRecord> = touchdowns
                .iter()
                .cloned()
                .map(JournalRecord::Touchdown)
                .chain([JournalRecord::Commit(commit.clone())])
                .collect();
            journal.commit_chunk(index, &records).expect("rewrite chunk");
        }
    };

    // The commit markers as written disagree with the crafted fold.
    rewrite(&chunks);
    let err = campaign
        .resume(&dir)
        .expect_err("the integrity check refuses the chunk");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    // Markers forged to match the saturated fold pass the check; the
    // replay then lands on saturated totals, or is refused.
    for (touchdowns, commit) in &mut chunks {
        let mut forged = MeasurementLedger::new();
        for ledger in touchdowns.iter().flat_map(|td| &td.ledgers) {
            forged.merge(ledger);
        }
        assert_eq!(forged.measurements(), u64::MAX);
        commit.ledger = forged;
    }
    rewrite(&chunks);
    match campaign.resume(&dir) {
        Ok((report, ledger)) => {
            assert_eq!(report.contact_faults, u64::MAX);
            assert_eq!(report.timeouts, u64::MAX);
            assert_eq!(report.per_site_quarantined, [u64::MAX; 2]);
            assert_eq!(ledger.measurements(), u64::MAX);
        }
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

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
//! * Typed decoding (`from_str::<T>`, which fills fields in place) and the
//!   value-tree reference (`T::from_value(&from_str::<Value>(s)?)`) agree
//!   on Ok/Err and, with floats compared by their bits, on the value: on
//!   every prefix and single-byte mutation of a journal line, of
//!   `journal_meta.json` and of a real run manifest, and on hand-made
//!   texts with repeated, unknown and missing keys and two-key enums.
//! * Typed writing (`to_string(&x)`) prints the bytes of
//!   `to_string(&x.to_value())` for random journal records, trace records
//!   and heartbeats.
//! * Nesting deeper than 128 arrays and objects is an error, not a stack
//!   overflow, and a journal chunk holding such a line is `InvalidData`
//!   whose message names the file and the line.

use cichar::ate::{AteConfig, MeasuredParam, MeasurementLedger, TesterFaultModel};
use cichar::core::db;
use cichar::core::dsv::{QuarantineReason, SearchStrategy, TripStatus};
use cichar::core::journal::{
    CampaignJournal, ChunkCommit, JournalMeta, JournalRecord, TouchdownRecord,
};
use cichar::core::stream::TripAggregate;
use cichar::core::wafer::{WaferConfig, WaferEntry, WaferReport, WaferRunner};
use cichar::dut::{Die, Lot};
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, ConditionSpace, Test};
use cichar::search::RetryPolicy;
use cichar::trace::{
    FaultKind, HealthSection, HeartbeatSnapshot, MetricsSnapshot, NullSink, Progress,
    RecoverySection, RunManifest, TraceEvent, TraceRecord, TraceVerdict, Tracer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// `Value` trees compared with floats by their bits.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Decodes `text` as a `T` straight from the text and through the
/// value-tree reference, and asserts that the two agree on Ok/Err and on
/// the value. Returns whether it decoded.
fn decodes_alike<T: Deserialize + Serialize>(text: &str) -> bool {
    let typed = serde_json::from_str::<T>(text);
    let reference = serde_json::from_str::<Value>(text).and_then(|v| T::from_value(&v));
    match (typed, reference) {
        (Ok(typed), Ok(reference)) => {
            assert!(
                same_bits(&typed.to_value(), &reference.to_value()),
                "the two paths decode {text:?} to different values"
            );
            true
        }
        (Err(_), Err(_)) => false,
        (typed, reference) => panic!(
            "typed decoding {} and the reference {} on {text:?}",
            if typed.is_ok() { "accepts" } else { "rejects" },
            if reference.is_ok() {
                "accepts"
            } else {
                "rejects"
            },
        ),
    }
}

/// [`decodes_alike`] over every prefix of `text` and every single-byte
/// mutation that leaves valid UTF-8. Returns how many mutations reached
/// the parser.
fn every_prefix_and_mutation_decodes_alike<T: Deserialize + Serialize>(text: &str) -> usize {
    assert!(decodes_alike::<T>(text), "the pristine text decodes");
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        decodes_alike::<T>(&text[..end]);
    }
    let mut parsed = 0usize;
    let mut bytes = text.as_bytes().to_vec();
    for pos in 0..bytes.len() {
        let original = bytes[pos];
        for b in (0..=255u8).filter(|&b| b != original) {
            bytes[pos] = b;
            if let Ok(mutant) = std::str::from_utf8(&bytes) {
                decodes_alike::<T>(mutant);
                parsed += 1;
            }
        }
        bytes[pos] = original;
    }
    parsed
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
    }

    // Every byte value at every position: mutations that leave valid UTF-8
    // reach the parser, which must return, and typed decoding must agree
    // with the value-tree reference.
    let parsed = every_prefix_and_mutation_decodes_alike::<JournalRecord>(line);
    assert!(
        parsed >= line.len() * 100,
        "{parsed} mutations reached the parser"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A manifest as `repro_wafer` assembles one: captured from a timed
/// tracer over a real resume, with the host, recovery and health
/// sections filled in.
fn resumed_manifest(campaign: &Campaign) -> RunManifest {
    let (dir, _) = campaign.crashed_journal("manifest", 1);
    let tracer = Tracer::timed(Arc::new(NullSink));
    let (_, _, stats) = campaign
        .runner(Some(dir.clone()))
        .resume_traced(
            &campaign.ate,
            &campaign.dies,
            &campaign.tests,
            STRATEGY,
            ExecPolicy::serial(),
            &tracer,
        )
        .expect("resumes");
    let mut manifest = RunManifest::new("wafer", 0xC0DEC, 1)
        .with_config("sites", 2)
        .with_config("fault_rate", 0.05)
        .capture(&tracer)
        .with_host();
    manifest.allocs_per_trip = Some(1.25);
    manifest.recovery = Some(RecoverySection {
        resumed: true,
        chunks_replayed: stats.chunks_replayed,
        chunks_total: stats.chunks_total,
        touchdowns_replayed: stats.touchdowns_replayed,
        entries_replayed: stats.entries_replayed,
        quarantined_sites: vec![1],
        ..RecoverySection::default()
    });
    manifest.health = Some(HealthSection {
        heartbeats: 3,
        active_alarms: vec!["fault_rate_spike".to_string()],
        ..HealthSection::default()
    });
    let _ = fs::remove_dir_all(&dir);
    manifest
}

#[test]
fn journal_meta_and_a_run_manifest_decode_alike_on_every_prefix_and_mutation() {
    let campaign = Campaign::new();
    let (dir, _) = campaign.crashed_journal("meta_sweep", 1);
    let meta = fs::read_to_string(dir.join("journal_meta.json")).expect("meta written");
    let parsed = every_prefix_and_mutation_decodes_alike::<JournalMeta>(&meta);
    assert!(parsed >= meta.len() * 100, "{parsed} meta mutations");
    let _ = fs::remove_dir_all(&dir);

    let manifest = resumed_manifest(&campaign);
    assert!(manifest.timings.is_some() && manifest.recovery.is_some());
    let text = serde_json::to_string(&manifest).expect("serializes");
    let parsed = every_prefix_and_mutation_decodes_alike::<RunManifest>(&text);
    assert!(parsed >= text.len() * 100, "{parsed} manifest mutations");
    // The artifact as saved (pretty) decodes alike too.
    let pretty = serde_json::to_string_pretty(&manifest).expect("serializes");
    assert!(decodes_alike::<RunManifest>(&pretty));
}

/// Splices `"deep":<nest>,` into a real commit marker's line, right after
/// `{"Commit":{`, so the nest sits in a key the record does not have.
fn commit_line_with(nest: &str) -> String {
    let commit = JournalRecord::Commit(ChunkCommit {
        chunk: 0,
        touchdowns: 0,
        entries: 0,
        aggregate: TripAggregate::new(0.0, 1.0, 4),
        ledger: MeasurementLedger::new(),
    });
    let line = serde_json::to_string(&commit).expect("serializes");
    let head = r#"{"Commit":{"#;
    assert!(line.starts_with(head));
    format!("{head}\"deep\":{nest},{}", &line[head.len()..])
}

#[test]
fn nesting_deeper_than_128_is_an_error_not_a_stack_overflow() {
    const LIMIT: usize = serde::json::MAX_DEPTH;
    assert_eq!(LIMIT, 128);
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let objects = |n: usize| format!("{}null{}", r#"{"a":"#.repeat(n), "}".repeat(n));

    // A million open arrays or objects: both paths refuse, neither
    // overflows the stack.
    for line in ["[".repeat(1_000_000), r#"{"a":"#.repeat(1_000_000)] {
        assert!(serde_json::from_str::<Value>(&line).is_err());
        assert!(serde_json::from_str::<JournalRecord>(&line).is_err());
        assert!(serde_json::from_str::<JournalRecord>(&commit_line_with(&line)).is_err());
    }

    // The limit counts from the root, through keys the record skips: the
    // commit marker holds two levels, so 126 more fit and 127 do not.
    for nest in [arrays, objects] {
        assert!(serde_json::from_str::<Value>(&nest(LIMIT)).is_ok());
        assert!(serde_json::from_str::<Value>(&nest(LIMIT + 1)).is_err());
        assert!(decodes_alike::<JournalRecord>(&commit_line_with(&nest(
            LIMIT - 2
        ))));
        assert!(!decodes_alike::<JournalRecord>(&commit_line_with(&nest(
            LIMIT - 1
        ))));
    }
}

#[test]
fn a_chunk_holding_a_too_deep_line_is_invalid_data_naming_file_and_line() {
    let campaign = Campaign::new();
    let (dir, journal) = campaign.crashed_journal("deep_chunk", 1);
    let path = journal.chunk_path(0);
    let pristine = fs::read_to_string(&path).expect("chunk 0 committed");
    let marker = pristine.lines().last().expect("a commit marker");
    for nest in ["[".repeat(1_000_000), r#"{"a":"#.repeat(1_000_000)] {
        // The deep line, a commit marker with the nest under a key it does
        // not have, is the second of three after a blank line; the real
        // commit marker still closes the file.
        let deep = commit_line_with(&nest);
        fs::write(&path, format!("\n{deep}\n{marker}\n")).expect("rewrite chunk");
        let err = journal
            .load_chunk(0)
            .expect_err("a too-deep line is corruption");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let at = format!("{}:2: ", path.display());
        assert!(err.to_string().starts_with(&at), "{err}");
        assert!(err.to_string().contains("nesting"), "{err}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_errors_name_the_file_and_the_line() {
    let dir = std::env::temp_dir().join("cichar_json_codec_jsonl_errors");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("entries.jsonl");
    let entry = WaferEntry {
        die: 1,
        test: 2,
        trip_point: Some(3.5),
        status: TripStatus::Clean,
    };
    db::save_jsonl(&[entry, entry], &path).expect("writes");
    let good = fs::read_to_string(&path).expect("written");
    let mut lines: Vec<&str> = good.lines().collect();
    lines.insert(1, "");
    lines.insert(
        3,
        r#"{"die":1,"test":2,"trip_point":null,"status":"Cleam"}"#,
    );
    fs::write(&path, lines.join("\n") + "\n").expect("rewrite");
    let err = db::load_jsonl::<WaferEntry>(&path).expect_err("line 4 is corrupt");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let message = err.to_string();
    assert!(
        message.starts_with(&format!("{}:4: serde error: ", path.display())),
        "{message}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn repeated_unknown_and_missing_keys_decode_alike() {
    let entry = |status: &str, tail: &str| {
        format!(r#"{{"die":1,"test":2,"trip_point":2.5,"status":{status}{tail}}}"#)
    };
    let clean = r#""Clean""#;
    // (text, whether it decodes)
    let cases: Vec<(String, bool)> = vec![
        (entry(clean, ""), true),
        // The first occurrence of a key wins; a repeat is syntax-checked,
        // then skipped, whatever its shape.
        (entry(clean, r#","die":9"#), true),
        (entry(clean, r#","die":"nine""#), true),
        (entry(clean, r#","die":[1,{"x":null}]"#), true),
        (entry(clean, r#","die":[1,"#), false),
        (entry(clean, r#","status":"Recovered""#), true),
        (
            r#"{"die":"one","test":2,"trip_point":null,"status":"Clean","die":1}"#.into(),
            false,
        ),
        // Unknown keys are syntax-checked, then skipped.
        (
            entry(clean, r#","extra":{"a":[true,false,null,-1,2.5e3,"é"]}"#),
            true,
        ),
        (entry(clean, r#","extra":{"a":tru}"#), false),
        (entry(clean, r#","extra":"\q""#), false),
        (entry(clean, r#","extra":-"#), false),
        // A missing field reads as null: fine for an `Option`, not a `u32`.
        (r#"{"die":1,"test":2,"status":"Clean"}"#.into(), true),
        (
            r#"{"test":2,"trip_point":1.0,"status":"Clean"}"#.into(),
            false,
        ),
        // Keys and tags decode their escapes before they are matched.
        (
            r#"{"d\u0069e":1,"test":2,"trip_point":null,"st\/atus":0,"status":"Cl\u0065an"}"#
                .into(),
            true,
        ),
        (
            r#"{"d\u0069e":1,"test":2,"trip_point":null,"status":"Cl\u0065an","di\u0065":"x"}"#
                .into(),
            true,
        ),
        // An externally tagged enum needs exactly one key.
        (
            entry(r#"{"Recovered":{"retries":3,"rebracketed":true}}"#, ""),
            true,
        ),
        (
            entry(
                r#"{"Recovered":{"retries":3,"rebracketed":true},"Clean":null}"#,
                "",
            ),
            false,
        ),
        (
            entry(
                r#"{"Recovered":{"retries":3,"rebracketed":true},"Recovered":{"retries":3,"rebracketed":true}}"#,
                "",
            ),
            false,
        ),
        (entry(r#"{}"#, ""), false),
        (entry(r#"{"Clean":null}"#, ""), false),
        (entry(r#""Recovered""#, ""), false),
        (entry(r#"{"Quarantined":{"reason":"TimedOut"}}"#, ""), true),
        (
            entry(r#"{"Quarantined":{"reason":"TimedOut","reason":7}}"#, ""),
            true,
        ),
        (
            entry(r#"{"Quarantined":{"reason":{"TimedOut":null}}}"#, ""),
            false,
        ),
        // Trailing characters are an error; whitespace is not.
        (
            entry(clean, "")
                + " 
	",
            true,
        ),
        (entry(clean, "") + " x", false),
        (entry(clean, "") + "{}", false),
        // Numbers keep their classification: a float is not a `u32`.
        (
            r#"{"die":1.0,"test":2,"trip_point":null,"status":"Clean"}"#.into(),
            false,
        ),
        (
            r#"{"die":1,"test":2,"trip_point":-0.0,"status":"Clean"}"#.into(),
            true,
        ),
        (
            r#"{"die":1,"test":2,"trip_point":1e999,"status":"Clean"}"#.into(),
            true,
        ),
        (
            r#"{"die":1,"test":2,"trip_point":-7,"status":"Clean"}"#.into(),
            true,
        ),
        (
            r#"{"die":4294967296,"test":2,"trip_point":null,"status":"Clean"}"#.into(),
            false,
        ),
    ];
    for (text, decodes) in &cases {
        assert_eq!(decodes_alike::<WaferEntry>(text), *decodes, "{text}");
    }
    let first: WaferEntry = serde_json::from_str(&entry(clean, r#","die":9"#)).expect("decodes");
    assert_eq!(first.die, 1, "the first occurrence wins");
    let signed: WaferEntry =
        serde_json::from_str(r#"{"die":1,"test":2,"trip_point":-0.0,"status":"Clean"}"#)
            .expect("decodes");
    assert_eq!(
        signed.trip_point.map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );

    // A `#[serde(default)]` field may be missing; any other may not.
    let ledger = serde_json::to_string(&MeasurementLedger::new()).expect("serializes");
    let without = |key: &str| {
        let Value::Map(fields) = serde_json::from_str::<Value>(&ledger).expect("parses") else {
            panic!("a ledger is a map");
        };
        let kept: Vec<(String, Value)> = fields.into_iter().filter(|(k, _)| k != key).collect();
        serde_json::to_string(&Value::Map(kept)).expect("serializes")
    };
    assert!(decodes_alike::<MeasurementLedger>(&without("stalls")));
    assert!(!decodes_alike::<MeasurementLedger>(&without(
        "measurements"
    )));
    // Maps keyed by strings keep the last value of a repeated key.
    let map: BTreeMap<String, u64> =
        serde_json::from_str(r#"{"a":1,"b":2,"a":3}"#).expect("decodes");
    assert_eq!(map["a"], 3);
    assert!(decodes_alike::<BTreeMap<String, u64>>(
        r#"{"a":1,"b":2,"a":3}"#
    ));
}

// ----- typed writing against the value-tree printer ------------------------

/// Floats a journal or a trace must print as the value-tree printer does.
const SPECIAL_FLOATS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    5e-324,
    -2.2250738585072e-308,
    f64::MAX,
    1.0 / 3.0,
    26.61090850830078,
];

fn random_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => SPECIAL_FLOATS[rng.gen_range(0..SPECIAL_FLOATS.len())],
        1 => f64::from_bits(rng.gen::<u64>()),
        _ => rng.gen_range(-100.0..100.0),
    }
}

fn random_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..3) {
        0 => [0, 1, u64::MAX - 1, u64::MAX][rng.gen_range(0..4usize)],
        1 => rng.gen(),
        _ => rng.gen_range(0..1000),
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12);
    let picks: Vec<(bool, usize, u32)> = (0..len)
        .map(|_| {
            (
                rng.gen(),
                rng.gen_range(0..64),
                rng.gen_range(0..=0x10_FFFF),
            )
        })
        .collect();
    build_string(&picks)
}

/// `value` with every number replaced by a random one of its kind.
fn randomize_numbers(value: &Value, rng: &mut StdRng) -> Value {
    match value {
        Value::U64(_) => Value::U64(random_u64(rng)),
        Value::F64(_) => Value::F64(random_f64(rng)),
        Value::Seq(items) => Value::Seq(items.iter().map(|v| randomize_numbers(v, rng)).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), randomize_numbers(v, rng)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A `T` whose numbers are all random, built through its value form (the
/// fields may be private).
fn random_numbers<T: Serialize + Deserialize>(template: &T, rng: &mut StdRng) -> T {
    T::from_value(&randomize_numbers(&template.to_value(), rng)).expect("same shape")
}

/// Every `TripStatus`: clean, recovered both ways, and each quarantine
/// reason.
fn every_status(rng: &mut StdRng) -> Vec<TripStatus> {
    let mut statuses = vec![
        TripStatus::Clean,
        TripStatus::Recovered {
            retries: random_u64(rng),
            rebracketed: true,
        },
        TripStatus::Recovered {
            retries: u64::MAX,
            rebracketed: false,
        },
    ];
    for reason in [
        QuarantineReason::Dropout,
        QuarantineReason::Unconverged,
        QuarantineReason::InconsistentTrace,
        QuarantineReason::TimedOut,
        QuarantineReason::SiteBreaker,
    ] {
        statuses.push(TripStatus::Quarantined { reason });
    }
    statuses
}

/// A touchdown holding every status with every special trip point, then
/// random entries, plus a commit marker with random counts.
fn random_journal_records(rng: &mut StdRng) -> [JournalRecord; 2] {
    let mut entries = Vec::new();
    for status in every_status(rng) {
        for trip_point in SPECIAL_FLOATS.iter().copied().map(Some).chain([None]) {
            entries.push(WaferEntry {
                die: rng.gen(),
                test: rng.gen(),
                trip_point,
                status,
            });
        }
    }
    let statuses = every_status(rng);
    for _ in 0..rng.gen_range(0..8) {
        entries.push(WaferEntry {
            die: rng.gen(),
            test: rng.gen(),
            trip_point: rng.gen::<bool>().then(|| random_f64(rng)),
            status: statuses[rng.gen_range(0..statuses.len())],
        });
    }
    let ledgers = (0..rng.gen_range(0..4))
        .map(|_| random_numbers(&MeasurementLedger::new(), rng))
        .collect();
    let mut aggregate = TripAggregate::new(0.0, 50.0, 8);
    for entry in &entries {
        aggregate.observe(entry.trip_point.filter(|t| t.is_finite()), &entry.status);
    }
    let touchdown = JournalRecord::Touchdown(TouchdownRecord {
        touchdown: random_u64(rng),
        contact_faults: random_u64(rng),
        entries,
        ledgers,
    });
    let commit = JournalRecord::Commit(ChunkCommit {
        chunk: random_u64(rng),
        touchdowns: random_u64(rng),
        entries: u64::MAX,
        aggregate: random_numbers(&aggregate, rng),
        ledger: random_numbers(&MeasurementLedger::new(), rng),
    });
    [touchdown, commit]
}

fn random_verdict(rng: &mut StdRng) -> TraceVerdict {
    [
        TraceVerdict::Pass,
        TraceVerdict::Fail,
        TraceVerdict::Invalid,
    ][rng.gen_range(0..3usize)]
}

/// One record per `TraceEvent` variant, with random fields.
fn random_trace_records(rng: &mut StdRng) -> Vec<TraceRecord> {
    let option_f64 = |rng: &mut StdRng| rng.gen::<bool>().then(|| random_f64(rng));
    let events = vec![
        TraceEvent::CampaignPhaseChanged {
            phase: random_string(rng),
        },
        TraceEvent::ProbeIssued {
            value: random_f64(rng),
            speculative: rng.gen(),
        },
        TraceEvent::ProbeResolved {
            value: random_f64(rng),
            verdict: random_verdict(rng),
            cached: rng.gen(),
        },
        TraceEvent::SearchStarted {
            strategy: random_string(rng).into(),
            order: random_string(rng).into(),
            window: [random_f64(rng), random_f64(rng)],
            reference: option_f64(rng),
            sf: option_f64(rng),
        },
        TraceEvent::StepTaken {
            iteration: random_u64(rng),
            step_factor: random_f64(rng),
            value: random_f64(rng),
            clamped: rng.gen(),
            verdict: random_verdict(rng),
        },
        TraceEvent::Bracketed {
            pass_value: random_f64(rng),
            fail_value: random_f64(rng),
        },
        TraceEvent::SearchFinished {
            strategy: random_string(rng).into(),
            trip_point: option_f64(rng),
            converged: rng.gen(),
            probes: random_u64(rng),
        },
        TraceEvent::RetryScheduled {
            attempt: random_u64(rng),
            backoff_us: random_f64(rng),
        },
        TraceEvent::VoteResolved {
            passes: random_u64(rng),
            fails: random_u64(rng),
            invalids: random_u64(rng),
            verdict: random_verdict(rng),
        },
        TraceEvent::FaultInjected {
            kind: [
                FaultKind::Dropout,
                FaultKind::Flip,
                FaultKind::Stuck,
                FaultKind::Abort,
                FaultKind::Stall,
            ][rng.gen_range(0..5usize)],
        },
        TraceEvent::Quarantined {
            reason: random_string(rng).into(),
        },
        TraceEvent::WatchdogFired {
            site: random_u64(rng),
            touchdown: random_u64(rng),
            budget_ms: random_u64(rng),
            skipped_tests: random_u64(rng),
        },
        TraceEvent::SiteBreakerTripped {
            site: random_u64(rng),
            chunk: random_u64(rng),
            fault_rate: random_f64(rng),
        },
        TraceEvent::GaGenerationEvaluated {
            generation: random_u64(rng),
            best_so_far: random_f64(rng),
            generation_best: random_f64(rng),
            mean: random_f64(rng),
        },
        TraceEvent::AlarmRaised {
            alarm: random_string(rng),
            heartbeat: random_u64(rng),
            detail: random_string(rng),
        },
        TraceEvent::AlarmCleared {
            alarm: random_string(rng),
            heartbeat: random_u64(rng),
        },
        TraceEvent::CommitteeEpochFinished {
            epoch: random_u64(rng),
            members: random_u64(rng),
            train_error: random_f64(rng),
        },
    ];
    events
        .into_iter()
        .map(|event| TraceRecord {
            seq: random_u64(rng),
            test: rng.gen::<bool>().then(|| random_u64(rng)),
            ts_us: random_u64(rng),
            event,
        })
        .collect()
}

fn random_heartbeat(rng: &mut StdRng) -> HeartbeatSnapshot {
    let strings = |rng: &mut StdRng| {
        (0..rng.gen_range(0..3))
            .map(|_| random_string(rng))
            .collect()
    };
    HeartbeatSnapshot {
        seq: random_u64(rng),
        campaign: random_string(rng),
        progress: Progress {
            phase: random_string(rng),
            sim_time_us: random_u64(rng),
            units_done: random_u64(rng),
            units_total: random_u64(rng),
            touchdowns_done: random_u64(rng),
            chunks_done: random_u64(rng),
            breaker_open_sites: (0..rng.gen_range(0..3)).map(|_| random_u64(rng)).collect(),
        },
        metrics: random_numbers(&MetricsSnapshot::default(), rng),
        quarantine_rate: random_f64(rng),
        sim_trips_per_sec: random_f64(rng),
        alarms_active: strings(rng),
        wall_ms: random_u64(rng),
        trips_per_sec: random_f64(rng),
        eta_ms: rng.gen::<bool>().then(|| random_u64(rng)),
    }
}

/// `to_string` writes `x` as the value-tree printer prints it, and the
/// text decodes alike both ways.
fn writes_like_the_value_tree<T: Serialize + Deserialize>(x: &T) -> Result<(), String> {
    let typed = serde_json::to_string(x).expect("serializes");
    prop_assert_eq!(
        &typed,
        &serde_json::to_string(&x.to_value()).expect("serializes")
    );
    decodes_alike::<T>(&typed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn typed_writing_prints_the_value_tree_bytes(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for record in random_journal_records(&mut rng) {
            writes_like_the_value_tree(&record)?;
        }
        for record in random_trace_records(&mut rng) {
            writes_like_the_value_tree(&record)?;
        }
        writes_like_the_value_tree(&random_heartbeat(&mut rng))?;
    }
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

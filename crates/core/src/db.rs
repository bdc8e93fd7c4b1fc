//! The worst-case test database (fig. 5's final artifact).
//!
//! "At last, final worst case tests are generated and stored in the
//! database. … Functional failure patterns (if any) are stored
//! separately."

use crate::wcr::WcrClass;
use cichar_patterns::Test;
use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::path::Path;

/// One database record: a test with its measured outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstCaseTest {
    /// The test itself.
    pub test: Test,
    /// Measured trip point.
    pub trip_point: f64,
    /// Measured worst-case ratio.
    pub wcr: f64,
    /// Fig. 6 classification.
    pub class: WcrClass,
    /// The committee's pre-measurement severity prediction, when the test
    /// came through the fuzzy-neural generator.
    pub predicted_severity: Option<f64>,
}

impl fmt::Display for WorstCaseTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: trip {:.3}, WCR {:.3} ({})",
            self.test.name(),
            self.trip_point,
            self.wcr,
            self.class
        )
    }
}

/// A bounded, deduplicated, WCR-ordered store of worst-case tests, with
/// functional failures kept separately.
///
/// # Examples
///
/// ```
/// use cichar_core::db::{WorstCaseDatabase, WorstCaseTest};
/// use cichar_core::wcr::WcrClass;
/// use cichar_patterns::{march, Test};
///
/// let mut db = WorstCaseDatabase::new(8);
/// db.insert(WorstCaseTest {
///     test: Test::deterministic("m", march::march_c_minus(64)),
///     trip_point: 22.1,
///     wcr: 0.904,
///     class: WcrClass::Weakness,
///     predicted_severity: None,
/// });
/// assert_eq!(db.len(), 1);
/// assert_eq!(db.worst().expect("non-empty").wcr, 0.904);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorstCaseDatabase {
    capacity: usize,
    entries: Vec<WorstCaseTest>,
    failures: Vec<WorstCaseTest>,
    /// `entries[i].test.identity()` beside each entry, so an eviction
    /// never expands a stimulus again.
    #[serde(skip)]
    entry_ids: Vec<u64>,
    /// The identities of every entry and failure.
    #[serde(skip)]
    seen: IdentitySet,
}

/// The database's dedup index.
type IdentitySet = HashSet<u64, BuildHasherDefault<IdentityHasher>>;

/// Keys the dedup index on each identity as it is: identities are already
/// mixed 64-bit hashes. Unlike `RandomState`, which seeds every process
/// differently, a fixed hasher puts each identity in the same slot in
/// every run, so when inserts and evictions grow the index, and with it
/// the allocations a run makes, repeats exactly.
#[derive(Debug, Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id;
    }
}

impl WorstCaseDatabase {
    /// Creates a database keeping at most `capacity` worst-case entries
    /// (functional failures are kept unbounded — each is a finding).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            entries: Vec::new(),
            failures: Vec::new(),
            entry_ids: Vec::new(),
            seen: IdentitySet::default(),
        }
    }

    /// Inserts a record: failures go to the failure store, everything else
    /// competes for the WCR-ordered worst-case slots. Duplicate tests
    /// (same stimulus and conditions) are ignored.
    ///
    /// Returns `true` if the record was stored.
    pub fn insert(&mut self, record: WorstCaseTest) -> bool {
        let id = record.test.identity();
        self.insert_identified(record, id)
    }

    /// [`Self::insert`] with the record's identity already known — the GA
    /// hands over the one its `PreparedTest` computed, so the stimulus is
    /// not expanded again. `id` must be `record.test.identity()`.
    ///
    /// A newcomer goes after every entry of equal WCR under `total_cmp`,
    /// so ties keep their insertion order.
    pub(crate) fn insert_identified(&mut self, record: WorstCaseTest, id: u64) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        if record.class == WcrClass::Fail {
            self.failures.push(record);
            return true;
        }
        let at = self
            .entries
            .partition_point(|e| e.wcr.total_cmp(&record.wcr) != Ordering::Less);
        self.entries.insert(at, record);
        self.entry_ids.insert(at, id);
        if self.entries.len() > self.capacity {
            self.entries.pop();
            let evicted = self.entry_ids.pop().expect("one identity per entry");
            self.seen.remove(&evicted);
            // The newcomer itself is evicted when no entry is smaller.
            return evicted != id;
        }
        true
    }

    /// Worst-case entries, largest WCR first.
    pub fn entries(&self) -> &[WorstCaseTest] {
        &self.entries
    }

    /// Functional failures (WCR > 1), in insertion order.
    pub fn failures(&self) -> &[WorstCaseTest] {
        &self.failures
    }

    /// Number of (non-failure) worst-case entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the worst-case store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The single worst entry, if any.
    pub fn worst(&self) -> Option<&WorstCaseTest> {
        self.entries.first()
    }

    /// Serializes the database to pretty JSON at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        save_artifact(self, path)
    }

    /// Loads a database saved by [`Self::save`], rebuilding the dedup
    /// index.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. Returns [`io::ErrorKind::InvalidData`] for
    /// bytes that do not deserialize, and for a database that
    /// [`Self::insert`] could not have built: capacity 0, more entries
    /// than the capacity, entries out of descending WCR order, a record
    /// whose class is not its WCR's, or one test stored twice.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        load_artifact(path)
    }
}

impl Deserialize for WorstCaseDatabase {
    /// Rebuilds the identities and refuses what [`WorstCaseDatabase::load`]
    /// documents.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct DatabaseFile {
            capacity: usize,
            entries: Vec<WorstCaseTest>,
            failures: Vec<WorstCaseTest>,
        }
        let DatabaseFile {
            capacity,
            entries,
            failures,
        } = DatabaseFile::from_value(v)?;
        let refuse = |why: &str| Err(serde::Error::custom(format!("worst-case database: {why}")));
        if capacity == 0 {
            return refuse("capacity 0");
        }
        if entries.len() > capacity {
            return refuse("more entries than its capacity");
        }
        if entries
            .windows(2)
            .any(|pair| pair[0].wcr.total_cmp(&pair[1].wcr) == Ordering::Less)
        {
            return refuse("entries out of descending WCR order");
        }
        let classed = |r: &WorstCaseTest, fail: bool| {
            r.class == WcrClass::from_wcr(r.wcr) && (r.class == WcrClass::Fail) == fail
        };
        if !entries.iter().all(|r| classed(r, false)) || !failures.iter().all(|r| classed(r, true))
        {
            return refuse("a record classed unlike its WCR or stored on the wrong side");
        }
        let entry_ids: Vec<u64> = entries.iter().map(|r| r.test.identity()).collect();
        let mut seen = IdentitySet::with_capacity_and_hasher(
            entries.len() + failures.len(),
            Default::default(),
        );
        let unique = entry_ids
            .iter()
            .copied()
            .chain(failures.iter().map(|r| r.test.identity()))
            .all(|id| seen.insert(id));
        if !unique {
            return refuse("one test stored twice");
        }
        Ok(Self {
            capacity,
            entries,
            failures,
            entry_ids,
            seen,
        })
    }
}

/// Saves any serializable characterization artifact — a
/// [`DsvReport`](crate::dsv::DsvReport), a raw
/// [`SearchOutcome`](cichar_search::SearchOutcome), a ledger — as pretty
/// JSON at `path`. Robustness metadata (quarantine reasons, recovery
/// statuses, `Invalid` probes) round-trips with it, so a replayed
/// campaign can be audited offline.
///
/// # Errors
///
/// Propagates I/O and serialization errors.
pub fn save_artifact<T: Serialize>(artifact: &T, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string_pretty(artifact)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    commit_atomically(json.as_bytes(), path.as_ref())
}

/// Loads an artifact saved by [`save_artifact`].
///
/// # Errors
///
/// Propagates I/O and deserialization errors.
pub fn load_artifact<T: Deserialize>(path: impl AsRef<Path>) -> io::Result<T> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Saves a slice of serializable records as JSONL (one compact JSON value
/// per line) at `path`, through the same write-then-rename commit as
/// [`save_artifact`]. The wafer campaign journal commits each chunk this
/// way, so a crash mid-campaign leaves only whole chunk files behind,
/// never a truncated line.
///
/// Each record is written straight into the file's body, so a derived
/// record builds no intermediate value or line.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_jsonl<T: Serialize>(records: &[T], path: impl AsRef<Path>) -> io::Result<()> {
    let mut body = String::new();
    for record in records {
        record.write_json(&mut body);
        body.push('\n');
    }
    commit_atomically(body.as_bytes(), path.as_ref())
}

/// Loads every record of a JSONL file written by [`save_jsonl`]. Blank
/// lines are skipped.
///
/// Torn-write tolerance: [`save_jsonl`] always terminates the last record
/// with a newline, so a file whose final line lacks one was truncated
/// mid-write (a torn write on a non-atomic filesystem). The partial line
/// is dropped and every complete record is returned — use
/// [`load_jsonl_salvaged`] when the caller needs to know a tail was
/// dropped. A malformed line *before* the tail is still a hard error:
/// mid-file corruption is not a torn write.
///
/// # Errors
///
/// Propagates I/O and (non-tail) deserialization errors.
pub fn load_jsonl<T: Deserialize>(path: impl AsRef<Path>) -> io::Result<Vec<T>> {
    load_jsonl_salvaged(path).map(|salvaged| salvaged.records)
}

/// The outcome of a torn-write-tolerant JSONL load: every complete record,
/// plus whether a truncated trailing line had to be dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvaged<T> {
    /// Every record with a complete (newline-terminated) line.
    pub records: Vec<T>,
    /// Whether the file ended in a truncated partial line that was
    /// dropped. When `true`, `records.len()` is the salvage count.
    pub torn: bool,
}

/// [`load_jsonl`] with explicit torn-write accounting: drops a truncated
/// trailing line (a file not ending in `\n` was torn mid-write — the
/// atomic [`save_jsonl`] path always newline-terminates) and reports how
/// many complete records were salvaged alongside.
///
/// # Errors
///
/// Propagates I/O errors, and deserialization errors for any *complete*
/// line — mid-file corruption is a hard error, not a torn write. A
/// deserialization error is [`io::ErrorKind::InvalidData`] and names the
/// file and the 1-based line.
pub fn load_jsonl_salvaged<T: Deserialize>(path: impl AsRef<Path>) -> io::Result<Salvaged<T>> {
    let path = path.as_ref();
    let body = fs::read_to_string(path)?;
    let (complete, torn) = match body.rfind('\n') {
        Some(last) => (&body[..=last], last + 1 < body.len()),
        None => ("", !body.is_empty()),
    };
    let records = complete
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(index, line)| {
            serde_json::from_str(line).map_err(|e| {
                let at = format!("{}:{}: {e}", path.display(), index + 1);
                io::Error::new(io::ErrorKind::InvalidData, at)
            })
        })
        .collect::<io::Result<Vec<T>>>()?;
    Ok(Salvaged { records, torn })
}

/// The shared write-then-rename commit: a crash (or a full disk)
/// mid-write never leaves a truncated file at `path`. The scratch file
/// lives next to the target, so the rename stays on one filesystem, and
/// is renamed into place only once fully written.
fn commit_atomically(bytes: &[u8], path: &Path) -> io::Result<()> {
    let mut scratch_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "artifact.json".into());
    scratch_name.push(".tmp");
    let scratch = path.with_file_name(scratch_name);
    if let Err(e) = fs::write(&scratch, bytes) {
        let _ = fs::remove_file(&scratch);
        return Err(e);
    }
    fs::rename(&scratch, path)
}

impl fmt::Display for WorstCaseDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "worst-case database: {} entries, {} functional failures",
            self.entries.len(),
            self.failures.len()
        )?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::{
        AddrMode, DataMode, OpMode, Segment, SegmentProgram, Stimulus, TestConditions, TestSource,
    };
    use cichar_units::Volts;

    /// The insert this module used before the binary search, kept as the
    /// reference: push, stable-sort the whole store, pop the smallest.
    struct SortingDatabase {
        capacity: usize,
        entries: Vec<WorstCaseTest>,
        failures: Vec<WorstCaseTest>,
        seen: HashSet<u64>,
    }

    impl SortingDatabase {
        fn new(capacity: usize) -> Self {
            Self {
                capacity,
                entries: Vec::new(),
                failures: Vec::new(),
                seen: HashSet::new(),
            }
        }

        fn insert(&mut self, record: WorstCaseTest) -> bool {
            let id = record.test.identity();
            if !self.seen.insert(id) {
                return false;
            }
            if record.class == WcrClass::Fail {
                self.failures.push(record);
                return true;
            }
            self.entries.push(record);
            self.entries.sort_by(|a, b| b.wcr.total_cmp(&a.wcr));
            if self.entries.len() > self.capacity {
                let evicted = self.entries.pop().expect("over capacity");
                self.seen.remove(&evicted.test.identity());
                return !self.seen.is_empty() && self.seen.contains(&id);
            }
            true
        }
    }

    /// Name, WCR bits and class of each record: equality that sees
    /// `-0.0` and NaN.
    fn fingerprint(records: &[WorstCaseTest]) -> Vec<(String, u64, WcrClass)> {
        records
            .iter()
            .map(|r| (r.test.name().to_string(), r.wcr.to_bits(), r.class))
            .collect()
    }

    /// What every insert keeps: the capacity bound, descending
    /// `total_cmp` order, each side holding its own class, and one stored
    /// identity per record, unique across both sides.
    fn check_invariants(db: &WorstCaseDatabase) -> Result<(), String> {
        let fail = |why: &str| Err(format!("{why}: {db:?}"));
        if db.len() > db.capacity {
            return fail("over capacity");
        }
        if db
            .entries
            .windows(2)
            .any(|pair| pair[0].wcr.total_cmp(&pair[1].wcr) == Ordering::Less)
        {
            return fail("entries out of order");
        }
        if db.entries.iter().any(|e| e.class == WcrClass::Fail)
            || db.failures.iter().any(|e| e.class != WcrClass::Fail)
        {
            return fail("a record on the wrong side");
        }
        let ids: Vec<u64> = db.entries.iter().map(|e| e.test.identity()).collect();
        if ids != db.entry_ids {
            return fail("stored identities differ from the entries'");
        }
        let all: IdentitySet = ids
            .iter()
            .copied()
            .chain(db.failures.iter().map(|f| f.test.identity()))
            .collect();
        if all.len() != db.entries.len() + db.failures.len() || all != db.seen {
            return fail("identities duplicated or out of the index");
        }
        Ok(())
    }

    /// A database file in the saved layout, from any records.
    fn file(capacity: usize, entries: &[&WorstCaseTest], failures: &[&WorstCaseTest]) -> String {
        let list = |records: &[&WorstCaseTest]| {
            records
                .iter()
                .map(|r| serde_json::to_string(r).expect("serializes"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"capacity\":{capacity},\"entries\":[{}],\"failures\":[{}]}}",
            list(entries),
            list(failures)
        )
    }

    fn record(name: &str, wcr: f64, vdd_mv: u32) -> WorstCaseTest {
        // Distinct conditions make distinct identities. A one-segment
        // program keeps the saved files small.
        let segment = Segment::new(
            OpMode::WritePairRead,
            AddrMode::Sequential { stride: 1 },
            DataMode::Lcg(7),
            100,
            0,
        )
        .expect("valid segment");
        let test = Test::from_program(
            name,
            TestSource::NeuralGa,
            SegmentProgram::new(vec![segment]).expect("one segment"),
            TestConditions::nominal().with_vdd(Volts::new(f64::from(vdd_mv) / 1000.0)),
        );
        WorstCaseTest {
            test,
            trip_point: 20.0 / wcr,
            wcr,
            class: WcrClass::from_wcr(wcr),
            predicted_severity: None,
        }
    }

    /// One insert/evict stream fed to two databases leaves their dedup
    /// indexes with the same capacity after every step, so how the index
    /// grows, and the allocations it makes, do not hang on a hash seed
    /// (every `RandomState` in a process is seeded differently).
    #[test]
    fn every_database_grows_its_dedup_index_alike() {
        // Enough entries that evictions leave tombstones in the index.
        let (mut a, mut b) = (WorstCaseDatabase::new(200), WorstCaseDatabase::new(200));
        for step in 0..3_000u32 {
            let wcr = 0.05 + f64::from(step.wrapping_mul(2_654_435_761) >> 22) / 1024.0 * 0.9;
            let r = record(&format!("t{step}"), wcr, 1_000 + step);
            assert_eq!(a.insert(r.clone()), b.insert(r), "step {step}");
            assert_eq!(a.seen.capacity(), b.seen.capacity(), "step {step}");
        }
        assert_eq!(fingerprint(&a.entries), fingerprint(&b.entries));
    }

    #[test]
    fn keeps_entries_sorted_by_wcr() {
        let mut db = WorstCaseDatabase::new(10);
        db.insert(record("a", 0.6, 1700));
        db.insert(record("b", 0.9, 1710));
        db.insert(record("c", 0.7, 1720));
        let wcrs: Vec<f64> = db.entries().iter().map(|e| e.wcr).collect();
        assert_eq!(wcrs, vec![0.9, 0.7, 0.6]);
        assert_eq!(db.worst().expect("non-empty").test.name(), "b");
    }

    #[test]
    fn capacity_evicts_smallest_wcr() {
        let mut db = WorstCaseDatabase::new(2);
        db.insert(record("a", 0.6, 1700));
        db.insert(record("b", 0.9, 1710));
        db.insert(record("c", 0.7, 1720));
        assert_eq!(db.len(), 2);
        let names: Vec<&str> = db.entries().iter().map(|e| e.test.name()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut db = WorstCaseDatabase::new(10);
        assert!(db.insert(record("a", 0.6, 1700)));
        assert!(!db.insert(record("a_again", 0.6, 1700)), "same identity");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn failures_stored_separately_and_unbounded() {
        let mut db = WorstCaseDatabase::new(1);
        db.insert(record("w", 0.9, 1700));
        db.insert(record("f1", 1.1, 1710));
        db.insert(record("f2", 1.3, 1720));
        assert_eq!(db.len(), 1);
        assert_eq!(db.failures().len(), 2);
    }

    #[test]
    fn evicted_entry_can_reenter_later() {
        let mut db = WorstCaseDatabase::new(1);
        db.insert(record("small", 0.5, 1700));
        db.insert(record("big", 0.9, 1710));
        // `small` was evicted; its identity must be free again.
        assert!(db.insert(record("small", 0.5, 1700)) || db.len() == 1);
        assert_eq!(db.worst().expect("non-empty").wcr, 0.9);
    }

    #[test]
    fn save_load_round_trip() {
        let mut db = WorstCaseDatabase::new(4);
        db.insert(record("a", 0.85, 1700));
        db.insert(record("f", 1.2, 1710));
        let dir = std::env::temp_dir().join("cichar_db_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wc.json");
        db.save(&path).expect("save");
        let loaded = WorstCaseDatabase::load(&path).expect("load");
        assert_eq!(loaded.entries(), db.entries());
        assert_eq!(loaded.failures(), db.failures());
        // Dedup index was rebuilt.
        let mut loaded = loaded;
        assert!(!loaded.insert(record("a", 0.85, 1700)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_refuses_what_insert_never_builds() {
        let (a, b) = (record("a", 0.9, 1700), record("b", 0.85, 1710));
        let fail = record("f", 1.2, 1720);
        let mut db = WorstCaseDatabase::new(2);
        for r in [&a, &b, &fail] {
            db.insert(r.clone());
        }
        let saved = file(2, &[&a, &b], &[&fail]);
        assert_eq!(saved, serde_json::to_string(&db).expect("serializes"));

        let a_as_failure = WorstCaseTest {
            wcr: 1.1,
            class: WcrClass::Fail,
            ..a.clone()
        };
        let misclassed = WorstCaseTest {
            class: WcrClass::Fail,
            ..b.clone()
        };
        // The GA would panic encoding a program with no segment.
        let Stimulus::Program(program) = a.test.stimulus() else {
            panic!("records hold program tests");
        };
        let segment = serde_json::to_string(&program.segments()[0]).expect("serializes");
        let no_segment = saved.replacen(&format!("[{segment}]"), "[]", 1);
        assert_ne!(no_segment, saved);
        let crafted = [
            ("a program with no segment", no_segment),
            ("capacity 0", file(0, &[], &[])),
            ("over capacity", file(1, &[&a, &b], &[])),
            ("ascending", file(2, &[&b, &a], &[])),
            ("duplicate entries", file(2, &[&a, &a], &[])),
            ("entry and failure", file(2, &[&a], &[&a_as_failure])),
            ("duplicate failures", file(2, &[], &[&fail, &fail])),
            ("misclassed", file(2, &[&a, &misclassed], &[])),
            ("failure among entries", file(2, &[&fail], &[])),
            ("entry among failures", file(2, &[], &[&a])),
        ];
        let dir = std::env::temp_dir().join("cichar_db_crafted_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wc.json");
        std::fs::write(&path, &saved).expect("write");
        let loaded = WorstCaseDatabase::load(&path).expect("the saved database loads");
        assert_eq!(loaded, db, "identities rebuilt");
        for (what, text) in crafted {
            std::fs::write(&path, text).expect("write");
            let err = WorstCaseDatabase::load(&path).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Every prefix and every single-byte mutation of a saved database
    /// fails to load, or loads a database that later inserts keep
    /// consistent.
    #[test]
    fn no_prefix_or_byte_mutation_of_a_database_file_panics() {
        let mut db = WorstCaseDatabase::new(2);
        db.insert(record("a", 0.9, 1700));
        db.insert(record("b", 0.85, 1710));
        db.insert(record("f", 1.2, 1720));
        let json = serde_json::to_string(&db).expect("serializes");
        let later = [
            record("x", 0.95, 1800),
            record("y", 0.3, 1810),
            record("x_again", 0.2, 1800),
            record("z", 1.5, 1820),
            record("w", 0.99, 1830),
        ];
        let mut loaded = 0;
        let mut exercise = |text: &str| {
            let Ok(mut db) = serde_json::from_str::<WorstCaseDatabase>(text) else {
                return;
            };
            loaded += 1;
            check_invariants(&db).expect("loaded");
            for r in &later {
                let id = r.test.identity();
                let duplicate = db.seen.contains(&id);
                let stored = db.insert(r.clone());
                check_invariants(&db).expect("after an insert");
                assert!(!(duplicate && stored), "{text}");
                assert_eq!(stored || duplicate, db.seen.contains(&id), "{text}");
            }
        };
        for end in 0..json.len() {
            exercise(&json[..end]);
        }
        let mut bytes = json.into_bytes();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            for b in (0..=255u8).filter(|&b| b != original) {
                bytes[pos] = b;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    exercise(text);
                }
            }
            bytes[pos] = original;
        }
        assert!(
            loaded > 0,
            "some mutations (inside numbers and names) must load"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = WorstCaseDatabase::new(0);
    }

    #[test]
    fn torn_jsonl_tail_is_dropped_and_reported() {
        let dir = std::env::temp_dir().join("cichar_db_torn_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("torn.jsonl");
        save_jsonl(&[10u64, 20, 30], &path).expect("save");

        // A complete file salvages everything and reports no tear.
        let whole: Salvaged<u64> = load_jsonl_salvaged(&path).expect("load");
        assert_eq!(whole.records, vec![10, 20, 30]);
        assert!(!whole.torn);

        // Truncate into the middle of the last record: torn write.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 2]).expect("truncate");
        let salvaged: Salvaged<u64> = load_jsonl_salvaged(&path).expect("salvage");
        assert_eq!(salvaged.records, vec![10, 20], "partial line dropped");
        assert!(salvaged.torn);
        let lenient: Vec<u64> = load_jsonl(&path).expect("load_jsonl salvages too");
        assert_eq!(lenient, vec![10, 20]);

        // Mid-file corruption stays a hard error — it is not a torn tail.
        std::fs::write(&path, b"10\nnot json\n30\n").expect("write");
        let err = load_jsonl::<u64>(&path).expect_err("mid-file corruption");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_outcome_with_invalid_probes_round_trips_as_artifact() {
        use cichar_search::{Probe, SearchOutcome};
        let outcome = SearchOutcome {
            trip_point: None,
            converged: false,
            trace: vec![
                (31.0, Probe::Pass),
                (26.0, Probe::Invalid),
                (28.5, Probe::Fail),
            ],
        };
        let dir = std::env::temp_dir().join("cichar_db_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("outcome.json");
        save_artifact(&outcome, &path).expect("save");
        let loaded: SearchOutcome = load_artifact(&path).expect("load");
        assert_eq!(loaded, outcome);
        assert_eq!(loaded.trace[1].1, Probe::Invalid, "Invalid survives serde");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dsv_report_with_quarantine_statuses_round_trips_as_artifact() {
        use crate::dsv::{DsvEntry, DsvReport, QuarantineReason, SearchStrategy, TripStatus};
        use cichar_ate::MeasuredParam;
        let report = DsvReport {
            param: MeasuredParam::DataValidTime,
            strategy: SearchStrategy::SearchUntilTrip,
            entries: vec![
                DsvEntry {
                    test_name: String::from("clean"),
                    trip_point: Some(31.5),
                    measurements: 7,
                    status: TripStatus::Clean,
                },
                DsvEntry {
                    test_name: String::from("retried"),
                    trip_point: Some(30.9),
                    measurements: 11,
                    status: TripStatus::Recovered {
                        retries: 3,
                        rebracketed: true,
                    },
                },
                DsvEntry {
                    test_name: String::from("lost"),
                    trip_point: None,
                    measurements: 15,
                    status: TripStatus::Quarantined {
                        reason: QuarantineReason::InconsistentTrace,
                    },
                },
            ],
            reference_trip_point: Some(31.5),
            total_measurements: 33,
        };
        let dir = std::env::temp_dir().join("cichar_db_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("dsv.json");
        save_artifact(&report, &path).expect("save");
        let loaded: DsvReport = load_artifact(&path).expect("load");
        assert_eq!(loaded, report);
        assert_eq!(loaded.quarantined(), 1);
        assert_eq!(loaded.recovered(), 1);
        assert_eq!(
            loaded.quarantined_entries()[0].status,
            TripStatus::Quarantined {
                reason: QuarantineReason::InconsistentTrace
            }
        );
        std::fs::remove_file(&path).ok();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// WCRs drawn with replacement: repeats make ties.
        const WCRS: [f64; 12] = [
            -0.0,
            0.0,
            0.5,
            0.8,
            0.85,
            0.85,
            0.9,
            1.0,
            1.05,
            1.3,
            f64::INFINITY,
            f64::NAN,
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn arbitrary_inserts_keep_invariants(
                capacity in 1usize..6,
                wcrs in proptest::collection::vec(0.3f64..1.3, 1..24),
            ) {
                let mut db = WorstCaseDatabase::new(capacity);
                for (i, wcr) in wcrs.iter().enumerate() {
                    db.insert(record(&format!("t{i}"), *wcr, 1500 + i as u32));
                }
                prop_assert!(check_invariants(&db).is_ok(), "{:?}", check_invariants(&db));
                // Capacity bound holds.
                prop_assert!(db.len() <= capacity);
                // Entries stay sorted, all non-fail.
                for pair in db.entries().windows(2) {
                    prop_assert!(pair[0].wcr >= pair[1].wcr);
                }
                prop_assert!(db.entries().iter().all(|e| e.wcr <= 1.0));
                prop_assert!(db.failures().iter().all(|e| e.wcr > 1.0));
                // The database keeps exactly the top non-fail WCRs.
                let mut non_fail: Vec<f64> =
                    wcrs.iter().copied().filter(|w| *w <= 1.0).collect();
                non_fail.sort_by(|a, b| b.total_cmp(a));
                non_fail.truncate(capacity);
                let kept: Vec<f64> = db.entries().iter().map(|e| e.wcr).collect();
                prop_assert_eq!(kept.len(), non_fail.len());
                for (a, b) in kept.iter().zip(&non_fail) {
                    prop_assert!((a - b).abs() < 1e-12);
                }
            }

            /// The binary-search insert against the sort-everything one,
            /// over WCR streams with ties, `±0.0`, NaN, failures,
            /// duplicates and evicted tests that come back.
            #[test]
            fn insert_matches_the_sorting_reference(
                capacity in 1usize..6,
                stream in proptest::collection::vec((0u32..10, 0usize..WCRS.len()), 1..40),
            ) {
                let mut db = WorstCaseDatabase::new(capacity);
                let mut reference = SortingDatabase::new(capacity);
                for (i, &(key, w)) in stream.iter().enumerate() {
                    // `key` fixes the identity, so a repeated key is a
                    // duplicate, or a re-entry once it was evicted.
                    let r = record(&format!("t{i}"), WCRS[w], 1500 + key);
                    prop_assert_eq!(db.insert(r.clone()), reference.insert(r), "insert {}", i);
                    prop_assert_eq!(fingerprint(db.entries()), fingerprint(&reference.entries));
                    prop_assert_eq!(fingerprint(db.failures()), fingerprint(&reference.failures));
                }
                prop_assert!(check_invariants(&db).is_ok(), "{:?}", check_invariants(&db));
            }
        }
    }

    #[test]
    fn display_lists_entries() {
        let mut db = WorstCaseDatabase::new(4);
        db.insert(record("a", 0.85, 1700));
        let s = db.to_string();
        assert!(s.contains("1 entries") && s.contains("a:"), "{s}");
    }
}

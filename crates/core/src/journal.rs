//! Crash-durable campaign journal: chunk-granular checkpoints for
//! [`WaferRunner`](crate::wafer::WaferRunner) campaigns.
//!
//! A journaled campaign records every completed touchdown chunk as one
//! JSONL file (`journal_chunk_{index:05}.jsonl`) written through the
//! atomic temp+rename path of [`db::save_jsonl`]: a chunk file either
//! exists complete or not at all, and a crash mid-write leaves at worst a
//! torn trailing line that salvage drops. Each file holds the chunk's
//! [`TouchdownRecord`]s in fold order followed by exactly one
//! [`ChunkCommit`] marker carrying the chunk's own aggregate and merged
//! ledger delta as integrity checks. A chunk counts as committed **only**
//! when its final record is a matching `Commit` — a missing, torn or
//! mismatched tail means the chunk re-runs on resume.
//!
//! Resume replays the contiguous committed prefix by re-folding the
//! stored per-touchdown entries and ledgers in exactly the live fold
//! order. Re-folding (rather than restoring chunk-level partials) is what
//! makes a resumed [`WaferReport`](crate::wafer::WaferReport)
//! bit-identical to an uninterrupted run: `f64` accumulation is not
//! associative, so the sums must be rebuilt term by term in the original
//! order. The chunk-level partials stored in the commit marker are used
//! purely to cross-check the re-fold and fail loudly on corruption.

use crate::db;
use crate::stream::TripAggregate;
use crate::wafer::WaferEntry;
use cichar_ate::MeasurementLedger;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk journal format version.
pub const JOURNAL_VERSION: u64 = 1;

/// The journal's identity artifact (`journal_meta.json`): which campaign
/// the chunk files belong to. Resume refuses a journal whose fingerprint
/// does not match the campaign being resumed — replaying another
/// campaign's chunks would silently corrupt results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalMeta {
    /// Journal format version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// Digest of everything that shapes the campaign's results: runner
    /// and tester configuration, strategy, and the dies × tests shape.
    pub fingerprint: String,
    /// Total touchdown chunks the finished campaign will have committed.
    pub chunks_total: u64,
}

/// One persisted record in a chunk journal file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// One completed touchdown's raw product, in fold order.
    Touchdown(TouchdownRecord),
    /// The chunk's commit marker — always the file's last record.
    Commit(ChunkCommit),
}

/// A completed touchdown as journaled: everything the coordinator fold
/// needs to replay it without re-measuring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TouchdownRecord {
    /// Global touchdown index.
    pub touchdown: u64,
    /// Sites whose contact-check strobe returned no verdict.
    pub contact_faults: u64,
    /// Streamed entries in emission order (site-major, then test).
    pub entries: Vec<WaferEntry>,
    /// Per-site session ledgers (a session lives one touchdown, so the
    /// ledger is the touchdown's delta).
    pub ledgers: Vec<MeasurementLedger>,
}

/// The commit marker closing a chunk file. The aggregate and ledger are
/// the chunk's *own* partials, stored as integrity checks: replay
/// re-folds the touchdown records and must land on exactly these values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkCommit {
    /// Chunk index this marker commits.
    pub chunk: u64,
    /// Touchdown records the chunk holds.
    pub touchdowns: u64,
    /// Wafer entries across those touchdowns.
    pub entries: u64,
    /// The chunk-local trip aggregate (integrity check).
    pub aggregate: TripAggregate,
    /// The chunk-local merged ledger delta (integrity check).
    pub ledger: MeasurementLedger,
}

/// What resume replayed from the journal, reported alongside the (bit
/// identical) campaign result — the manifest's durability section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResumeStats {
    /// Committed chunks replayed from the journal.
    pub chunks_replayed: u64,
    /// Chunks the full campaign comprises.
    pub chunks_total: u64,
    /// Touchdowns replayed without re-measuring.
    pub touchdowns_replayed: u64,
    /// Wafer entries replayed without re-measuring.
    pub entries_replayed: u64,
}

/// A chunk-granular write-ahead journal over a directory.
///
/// # Examples
///
/// ```
/// use cichar_core::journal::{CampaignJournal, ChunkCommit, JournalMeta, JournalRecord};
/// use cichar_core::stream::TripAggregate;
/// use cichar_ate::MeasurementLedger;
///
/// let dir = std::env::temp_dir().join("cichar_journal_doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let meta = JournalMeta { version: 1, fingerprint: "demo".into(), chunks_total: 1 };
/// let journal = CampaignJournal::create(&dir, meta.clone()).expect("writable tmp dir");
/// journal
///     .commit_chunk(0, &[JournalRecord::Commit(ChunkCommit {
///         chunk: 0,
///         touchdowns: 0,
///         entries: 0,
///         aggregate: TripAggregate::new(0.0, 1.0, 8),
///         ledger: MeasurementLedger::new(),
///     })])
///     .expect("writable tmp dir");
/// let reopened = CampaignJournal::open(&dir, &meta).expect("same campaign");
/// assert_eq!(reopened.committed_chunks().expect("readable"), 1);
/// let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignJournal {
    dir: PathBuf,
    meta: JournalMeta,
}

impl CampaignJournal {
    /// Starts a fresh journal in `dir`: creates the directory, removes
    /// any stale chunk files from a previous campaign, and writes the
    /// meta artifact atomically.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn create(dir: impl Into<PathBuf>, meta: JournalMeta) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if Self::is_chunk_file(&path) {
                fs::remove_file(&path)?;
            }
        }
        db::save_artifact(&meta, dir.join("journal_meta.json"))?;
        Ok(Self { dir, meta })
    }

    /// Opens an existing journal for resume, verifying that it belongs to
    /// the campaign described by `expected`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when `dir` holds no journal, and
    /// [`io::ErrorKind::InvalidData`] when the journal's version, chunk
    /// count or fingerprint disagrees with the campaign being resumed; the
    /// message names the first part that differs.
    pub fn open(dir: impl Into<PathBuf>, expected: &JournalMeta) -> io::Result<Self> {
        let dir = dir.into();
        let meta: JournalMeta = db::load_artifact(dir.join("journal_meta.json"))?;
        if meta != *expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal at {} belongs to a different campaign: {}",
                    dir.display(),
                    first_difference(&meta, expected)
                ),
            ));
        }
        Ok(Self { dir, meta })
    }

    /// The journal's identity.
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of chunk `index`'s journal file.
    pub fn chunk_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("journal_chunk_{index:05}.jsonl"))
    }

    fn is_chunk_file(path: &Path) -> bool {
        path.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("journal_chunk_") && n.ends_with(".jsonl"))
    }

    /// Commits chunk `index`: writes its records (touchdowns then the
    /// commit marker) as one atomic JSONL file. The rename is the commit
    /// point — a crash before it leaves the chunk uncommitted, a crash
    /// after it leaves the chunk fully durable.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn commit_chunk(&self, index: usize, records: &[JournalRecord]) -> io::Result<()> {
        db::save_jsonl(records, self.chunk_path(index))
    }

    /// How many chunks form the journal's contiguous committed prefix —
    /// the chunks resume may replay. Scanning stops at the first missing
    /// chunk file or the first file whose tail is not a matching commit
    /// marker (torn tails are salvaged away by [`db::load_jsonl_salvaged`],
    /// which demotes a mid-write crash to "uncommitted").
    ///
    /// # Errors
    ///
    /// Propagates read failures other than a missing chunk file.
    pub fn committed_chunks(&self) -> io::Result<u64> {
        let mut committed = 0u64;
        while committed < self.meta.chunks_total {
            match self.load_chunk(committed as usize)? {
                Some(_) => committed += 1,
                None => break,
            }
        }
        Ok(committed)
    }

    /// Loads chunk `index` if it is committed: returns its touchdown
    /// records and commit marker, or `None` when the chunk file is
    /// missing, torn before its commit marker, or closed by a marker for
    /// the wrong chunk (a stale file from an earlier campaign layout).
    ///
    /// The commit marker's counts are verified here; the aggregate and
    /// ledger partials are verified by the caller's re-fold.
    ///
    /// # Errors
    ///
    /// Propagates read failures and [`io::ErrorKind::InvalidData`] for
    /// records that parse but are structurally impossible (a commit
    /// marker before the end, or counts that disagree with the records).
    pub fn load_chunk(&self, index: usize) -> io::Result<Option<(Vec<TouchdownRecord>, ChunkCommit)>> {
        let path = self.chunk_path(index);
        let salvaged = match db::load_jsonl_salvaged::<JournalRecord>(&path) {
            Ok(salvaged) => salvaged,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut records = salvaged.records;
        let commit = match records.pop() {
            Some(JournalRecord::Commit(commit)) if commit.chunk == index as u64 => commit,
            // No records, a torn-away tail, or a foreign commit marker:
            // the chunk never committed — re-run it.
            _ => return Ok(None),
        };
        let mut touchdowns = Vec::with_capacity(records.len());
        for record in records {
            match record {
                JournalRecord::Touchdown(td) => touchdowns.push(td),
                JournalRecord::Commit(stray) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal chunk {index} holds a stray commit marker for \
                             chunk {} before its tail",
                            stray.chunk
                        ),
                    ));
                }
            }
        }
        let entries: u64 = touchdowns.iter().map(|td| td.entries.len() as u64).sum();
        if commit.touchdowns != touchdowns.len() as u64 || commit.entries != entries {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal chunk {index} commit marker disagrees with its records: \
                     marker says {} touchdowns / {} entries, file holds {} / {}",
                    commit.touchdowns,
                    commit.entries,
                    touchdowns.len(),
                    entries
                ),
            ));
        }
        Ok(Some((touchdowns, commit)))
    }
}

/// Names the first part of two journal identities that differs and
/// prints only that part from each side: `version`, `chunks_total`, or
/// the first `|`-separated `key:value` part of the fingerprint. When the
/// two fingerprints' parts do not line up key for key, both whole
/// fingerprints are printed.
fn first_difference(journal: &JournalMeta, resuming: &JournalMeta) -> String {
    for (name, ours, theirs) in [
        ("version", journal.version, resuming.version),
        ("chunks_total", journal.chunks_total, resuming.chunks_total),
    ] {
        if ours != theirs {
            return format!("{name} differs (journal {ours}, resuming {theirs})");
        }
    }
    fn key(part: &str) -> Option<&str> {
        part.split_once(':').map(|(key, _)| key)
    }
    let ours: Vec<&str> = journal.fingerprint.split('|').collect();
    let theirs: Vec<&str> = resuming.fingerprint.split('|').collect();
    let lined_up = ours.len() == theirs.len()
        && ours
            .iter()
            .zip(&theirs)
            .all(|(a, b)| key(a).is_some() && key(a) == key(b));
    if lined_up {
        if let Some((a, b)) = ours.iter().zip(&theirs).find(|(a, b)| a != b) {
            let name = key(a).unwrap_or_default();
            return format!("{name} differs (journal {a}, resuming {b})");
        }
    }
    format!(
        "fingerprint differs (journal {}, resuming {})",
        journal.fingerprint, resuming.fingerprint
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsv::TripStatus;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cichar_journal_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(chunks: u64) -> JournalMeta {
        JournalMeta {
            version: JOURNAL_VERSION,
            fingerprint: "test-campaign".to_string(),
            chunks_total: chunks,
        }
    }

    fn touchdown(td: u64, entries: usize) -> TouchdownRecord {
        TouchdownRecord {
            touchdown: td,
            contact_faults: 0,
            entries: (0..entries)
                .map(|i| WaferEntry {
                    die: td as u32,
                    test: i as u32,
                    trip_point: Some(1.5 + i as f64),
                    status: TripStatus::Clean,
                })
                .collect(),
            ledgers: vec![MeasurementLedger::new()],
        }
    }

    fn commit(chunk: u64, touchdowns: u64, entries: u64) -> ChunkCommit {
        ChunkCommit {
            chunk,
            touchdowns,
            entries,
            aggregate: TripAggregate::new(0.0, 10.0, 16),
            ledger: MeasurementLedger::new(),
        }
    }

    fn chunk_records(chunk: u64, touchdowns: usize, entries_each: usize) -> Vec<JournalRecord> {
        let mut records: Vec<JournalRecord> = (0..touchdowns)
            .map(|i| JournalRecord::Touchdown(touchdown(chunk * 10 + i as u64, entries_each)))
            .collect();
        records.push(JournalRecord::Commit(commit(
            chunk,
            touchdowns as u64,
            (touchdowns * entries_each) as u64,
        )));
        records
    }

    #[test]
    fn committed_prefix_stops_at_the_first_gap() {
        let dir = tmp_dir("gap");
        let journal = CampaignJournal::create(&dir, meta(4)).expect("tmp dir");
        journal.commit_chunk(0, &chunk_records(0, 2, 3)).expect("write");
        // Chunk 1 missing; chunk 2 committed but unreachable through the gap.
        journal.commit_chunk(2, &chunk_records(2, 2, 3)).expect("write");
        assert_eq!(journal.committed_chunks().expect("scan"), 1);
        let (tds, commit) = journal.load_chunk(0).expect("read").expect("committed");
        assert_eq!(tds.len(), 2);
        assert_eq!(commit.entries, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_marker_demotes_the_chunk_to_uncommitted() {
        let dir = tmp_dir("torn");
        let journal = CampaignJournal::create(&dir, meta(2)).expect("tmp dir");
        journal.commit_chunk(0, &chunk_records(0, 2, 2)).expect("write");
        // Tear the tail mid-commit-marker: the chunk must re-run, not
        // half-replay.
        let path = journal.chunk_path(0);
        let bytes = fs::read(&path).expect("written chunk");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        assert_eq!(journal.load_chunk(0).expect("salvage"), None);
        assert_eq!(journal.committed_chunks().expect("scan"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_marker_count_mismatch_fails_loudly() {
        let dir = tmp_dir("mismatch");
        let journal = CampaignJournal::create(&dir, meta(1)).expect("tmp dir");
        let mut records = chunk_records(0, 2, 2);
        if let JournalRecord::Commit(commit) = records.last_mut().expect("marker") {
            commit.entries = 99;
        }
        journal.commit_chunk(0, &records).expect("write");
        let err = journal.load_chunk(0).expect_err("marker disagrees");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("disagrees"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_a_foreign_fingerprint() {
        let dir = tmp_dir("foreign");
        CampaignJournal::create(&dir, meta(3)).expect("tmp dir");
        let other = JournalMeta {
            fingerprint: "other-campaign".to_string(),
            ..meta(3)
        };
        let err = CampaignJournal::open(&dir, &other).expect_err("fingerprint mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different campaign"), "{err}");
        // The matching fingerprint opens fine.
        let journal = CampaignJournal::open(&dir, &meta(3)).expect("same campaign");
        assert_eq!(journal.meta().chunks_total, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_resume_names_the_part_that_differs() {
        let dir = tmp_dir("refusal");
        let journal = JournalMeta {
            fingerprint: "runner:R|shape:(1, Some(250))|dies:8".to_string(),
            ..meta(3)
        };
        CampaignJournal::create(&dir, journal.clone()).expect("tmp dir");
        let refusal = |resuming: JournalMeta| {
            let err = CampaignJournal::open(&dir, &resuming).expect_err("another campaign");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        let shape = refusal(JournalMeta {
            fingerprint: "runner:R|shape:(1, None)|dies:8".to_string(),
            ..journal
        });
        assert!(
            shape.ends_with(
                "different campaign: shape differs \
                 (journal shape:(1, Some(250)), resuming shape:(1, None))"
            ),
            "{shape}"
        );
        let chunks = refusal(JournalMeta {
            chunks_total: 4,
            ..journal.clone()
        });
        assert!(
            chunks.ends_with("chunks_total differs (journal 3, resuming 4)"),
            "{chunks}"
        );
        let version = refusal(JournalMeta {
            version: JOURNAL_VERSION + 1,
            ..journal.clone()
        });
        assert!(
            version.contains("version differs (journal 1, resuming 2)"),
            "{version}"
        );
        // Parts that do not line up key for key: both whole fingerprints.
        let foreign = refusal(JournalMeta {
            fingerprint: "runner:R|dies:8".to_string(),
            ..journal
        });
        assert!(
            foreign.ends_with(
                "fingerprint differs (journal runner:R|shape:(1, Some(250))|dies:8, \
                 resuming runner:R|dies:8)"
            ),
            "{foreign}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_wipes_stale_chunk_files() {
        let dir = tmp_dir("stale");
        let journal = CampaignJournal::create(&dir, meta(2)).expect("tmp dir");
        journal.commit_chunk(0, &chunk_records(0, 1, 1)).expect("write");
        journal.commit_chunk(1, &chunk_records(1, 1, 1)).expect("write");
        // A fresh campaign over the same directory must not resurrect the
        // old campaign's chunks.
        let fresh = CampaignJournal::create(&dir, meta(2)).expect("tmp dir");
        assert_eq!(fresh.committed_chunks().expect("scan"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mid_file_stray_commit_is_corruption_not_a_tear() {
        let dir = tmp_dir("stray");
        let journal = CampaignJournal::create(&dir, meta(1)).expect("tmp dir");
        journal.commit_chunk(0, &chunk_records(0, 1, 1)).expect("write");
        let mut file = OpenOptions::new()
            .append(true)
            .open(journal.chunk_path(0))
            .expect("chunk file");
        // A trailing touchdown after the marker leaves the tail as a
        // non-commit record: the chunk is merely uncommitted.
        let extra = serde_json::to_string(&JournalRecord::Touchdown(touchdown(9, 1)))
            .expect("serializable");
        writeln!(file, "{extra}").expect("append");
        assert_eq!(journal.load_chunk(0).expect("salvage"), None);
        // But a second commit marker at the tail leaves the first one
        // stranded mid-file — structurally impossible, loud corruption.
        let marker =
            serde_json::to_string(&JournalRecord::Commit(commit(0, 2, 2))).expect("serializable");
        writeln!(file, "{marker}").expect("append");
        drop(file);
        let err = journal.load_chunk(0).expect_err("stray mid-file commit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("stray commit marker"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Wafer-scale streaming characterization: the ROADMAP's 10^5–10^6
//! (test, die) campaigns in bounded memory.
//!
//! A wafer run is organised the way real ATE organises it:
//!
//! * dies are grouped into **touchdowns** of `sites` dies, measured on a
//!   [`MultiSiteAte`] whose per-site sessions are seeded by *global die
//!   index* — so results are bit-identical across thread counts, site
//!   groupings and chunk sizes (a die's random streams depend only on its
//!   identity);
//! * touchdowns are dispatched in **chunks** through
//!   [`cichar_exec::par_map_ref`], and each chunk's entries are folded
//!   into an incremental [`TripAggregate`] (eq. 1 extrema bit-exact,
//!   percentiles sketch-bounded) and then dropped — peak memory holds one
//!   chunk, never the wafer;
//! * optionally every chunk **spills** its entries as an atomic JSONL
//!   artifact ([`db::save_jsonl`]), and a final compaction step merges the
//!   chunk files into one artifact plus a summary
//!   ([`db::save_artifact`]);
//! * optionally every chunk is **journaled**
//!   ([`CampaignJournal`]): the chunk's touchdown products are committed
//!   as one atomic JSONL checkpoint, and [`WaferRunner::resume`] replays
//!   the committed prefix to reproduce an interrupted campaign
//!   bit-identically without re-measuring it.
//!
//! Searches themselves reuse the exact [`MultiTripRunner`] ladder —
//! recovery, re-bracketing, quarantine classification — so a wafer entry
//! is classified identically to a bench-top entry.
//!
//! Two self-healing guards ride the same chunk cadence. A **stall
//! watchdog** (`chunk_timeout_ms`) caps each site-touchdown's simulated
//! tester time; once a session blows the budget its remaining tests are
//! abandoned as [`QuarantineReason::TimedOut`] instead of hanging the
//! campaign. A **site health circuit breaker** (`site_fault_threshold`)
//! accumulates per-site injected-fault and timeout rates and latches open
//! at chunk boundaries ([`SiteHealthBreaker`]); an open site's remaining
//! touchdowns are skipped as [`QuarantineReason::SiteBreaker`] with full
//! ledger, trace and report accounting.

use crate::db;
use crate::dsv::{MultiTripRunner, QuarantineReason, SearchStrategy, TripStatus};
use crate::journal::{
    CampaignJournal, ChunkCommit, JournalMeta, JournalRecord, ResumeStats, TouchdownRecord,
    JOURNAL_VERSION,
};
use crate::stream::TripAggregate;
use cichar_ate::{
    Ate, AteConfig, MeasuredParam, MeasurementLedger, MultiSiteAte, PreparedTest,
    SiteHealthBreaker, TesterFaultModel,
};
use cichar_dut::{Device, Die, MemoryDevice};
use cichar_exec::ExecPolicy;
use cichar_patterns::Test;
use cichar_search::{RegionOrder, SearchScratch};
use cichar_trace::{Progress, SpanTrace, Telemetry, TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;

/// Shape of a wafer campaign: touchdown width, dispatch chunking, sketch
/// resolution, the optional spill destination, and the durability /
/// self-healing knobs (journal, watchdog, circuit breaker).
#[derive(Debug, Clone, PartialEq)]
pub struct WaferConfig {
    /// Dies measured per touchdown (multi-site width). Grouping never
    /// changes results — only batching shape.
    pub sites: usize,
    /// Touchdowns dispatched per parallel chunk; one chunk of entries is
    /// the peak materialized memory.
    pub chunk_touchdowns: usize,
    /// Buckets of the percentile sketch over the parameter's generous
    /// range.
    pub sketch_buckets: usize,
    /// Whether each touchdown opens with one shared contact-check strobe
    /// per site (at the parameter's pass edge); an unavailable verdict
    /// counts as a contact fault. One strobe per die either way, so the
    /// check is invariant under site grouping.
    pub contact_check: bool,
    /// Directory for JSONL entry spills; `None` keeps only the aggregate.
    pub spill_dir: Option<PathBuf>,
    /// Directory of the crash-durable [`CampaignJournal`]; `None` runs
    /// without checkpoints.
    pub journal_dir: Option<PathBuf>,
    /// Stall-watchdog budget per (site, touchdown) in **simulated**
    /// milliseconds of tester time; `None` never times out. Simulated
    /// time keeps the watchdog deterministic.
    pub chunk_timeout_ms: Option<u64>,
    /// Rolling fault-rate threshold in `(0, 1]` at which a site's health
    /// breaker latches open ([`SiteHealthBreaker`]); `None` never
    /// quarantines a site.
    pub site_fault_threshold: Option<f64>,
    /// Per-site fault-model overrides (site position → model), for
    /// degraded-channel scenarios. Overriding a site ties results to the
    /// touchdown grouping — a die's fault stream then depends on which
    /// site it lands on.
    pub site_faults: Vec<(usize, TesterFaultModel)>,
}

impl Default for WaferConfig {
    fn default() -> Self {
        Self {
            sites: 4,
            chunk_touchdowns: 32,
            sketch_buckets: 256,
            contact_check: true,
            spill_dir: None,
            journal_dir: None,
            chunk_timeout_ms: None,
            site_fault_threshold: None,
            site_faults: Vec::new(),
        }
    }
}

/// One streamed (die, test) measurement record — the spill row. Compact
/// by design: test identity is an index into the campaign's test list,
/// not a per-entry name allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaferEntry {
    /// The die's serial id.
    pub die: u32,
    /// Index of the test in the campaign's test list.
    pub test: u32,
    /// The measured trip point (`None` when quarantined).
    pub trip_point: Option<f64>,
    /// How the trip point was obtained (or why it is missing).
    pub status: TripStatus,
}

/// Where the streamed entries went on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpillManifest {
    /// Chunk files written before compaction.
    pub chunks: u64,
    /// Entries in the compacted artifact.
    pub entries: u64,
    /// Path of the compacted JSONL artifact.
    pub path: String,
}

/// The bounded-memory result of a wafer campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaferReport {
    /// The measured parameter.
    pub param: MeasuredParam,
    /// The per-test search strategy.
    pub strategy: SearchStrategy,
    /// Dies characterized.
    pub dies: u64,
    /// Tests per die.
    pub tests: u64,
    /// Touchdown width the campaign ran with.
    pub sites: u64,
    /// Touchdowns performed.
    pub touchdowns: u64,
    /// Sites whose contact-check strobe returned no verdict.
    pub contact_faults: u64,
    /// The streaming eq. 1 aggregate over every (test, die) entry.
    pub aggregate: TripAggregate,
    /// Quarantined entries by site position within the touchdown — always
    /// sums to `aggregate.quarantined` (per-site accounting reconciles
    /// with the merged ledger by construction).
    pub per_site_quarantined: Vec<u64>,
    /// Total tester measurements across every site session.
    pub total_measurements: u64,
    /// Tests abandoned by the stall watchdog across every session.
    #[serde(default)]
    pub timeouts: u64,
    /// Site positions latched open by the health circuit breaker,
    /// ascending.
    #[serde(default)]
    pub quarantined_sites: Vec<u64>,
    /// The spill artifact, when the campaign spilled.
    pub spill: Option<SpillManifest>,
}

/// One touchdown's raw product, produced on a worker and folded by the
/// coordinator in touchdown order.
struct TouchdownOutcome {
    entries: Vec<WaferEntry>,
    ledgers: Vec<MeasurementLedger>,
    contact_faults: u64,
    spans: Vec<SpanTrace>,
}

/// The coordinator's campaign-wide accumulation, shared verbatim between
/// the live fold and journal replay so a resumed campaign lands on bit
/// identical `f64` sums.
struct FoldState {
    aggregate: TripAggregate,
    merged: MeasurementLedger,
    per_site_quarantined: Vec<u64>,
    contact_faults: u64,
    timeouts: u64,
    breaker: Option<SiteHealthBreaker>,
}

/// Everything one campaign pass produces; trimmed by the public wrappers.
struct CampaignOutput {
    report: WaferReport,
    merged: MeasurementLedger,
    stats: ResumeStats,
    committed_chunks: u64,
}

/// Streaming wafer/lot characterization over the [`MultiTripRunner`]
/// search ladder.
///
/// # Examples
///
/// ```
/// use cichar_ate::{AteConfig, MeasuredParam};
/// use cichar_core::dsv::SearchStrategy;
/// use cichar_core::wafer::{WaferConfig, WaferRunner};
/// use cichar_dut::Lot;
/// use cichar_exec::ExecPolicy;
/// use cichar_patterns::{march, Test};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let dies = Lot::default().sample_dies(&mut rng, 8);
/// let tests = vec![Test::deterministic("march_x", march::march_x(96))];
/// let runner = WaferRunner::new(MeasuredParam::DataValidTime)
///     .with_config(WaferConfig { sites: 4, ..WaferConfig::default() });
/// let (report, ledger) = runner
///     .run(&AteConfig::default(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
///     .expect("no spill configured, no I/O to fail");
/// assert_eq!(report.dies, 8);
/// assert_eq!(ledger.measurements(), report.total_measurements);
/// ```
#[derive(Debug, Clone)]
pub struct WaferRunner {
    runner: MultiTripRunner,
    config: WaferConfig,
    /// The device prototype each touchdown session re-dies via
    /// [`Device::for_die`]. Defaults to the nominal `memory` backend,
    /// which keeps default campaigns bit-identical to the pre-registry
    /// engine.
    device: Device,
    /// The live-telemetry handle (disabled by default). Ticked only from
    /// the coordinator's fold loop — never from workers, never during
    /// journal replay — and deliberately kept off [`MultiTripRunner`],
    /// whose `Debug` output is part of the journal fingerprint.
    telemetry: Telemetry,
}

impl WaferRunner {
    /// A wafer runner measuring `param` with default search behaviour and
    /// wafer shape.
    pub fn new(param: MeasuredParam) -> Self {
        Self {
            runner: MultiTripRunner::new(param),
            config: WaferConfig::default(),
            device: MemoryDevice::nominal().into(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Wraps an already-configured per-die search runner (speculation,
    /// refinement, RTP refresh, recovery — everything carries over).
    pub fn from_runner(runner: MultiTripRunner) -> Self {
        Self {
            runner,
            config: WaferConfig::default(),
            device: MemoryDevice::nominal().into(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the wafer shape.
    pub fn with_config(mut self, config: WaferConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the device prototype the campaign characterizes. Every
    /// touchdown session is `device.for_die(die)`, so the backend's
    /// structure (netlist shape, surface constants, …) is shared across
    /// the wafer while each site carries its own die. The device enters
    /// the journal fingerprint: a journal recorded under one backend
    /// refuses to resume under another.
    pub fn with_device(mut self, device: impl Into<Device>) -> Self {
        self.device = device.into();
        self
    }

    /// The device prototype.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Arms live telemetry: the campaign's coordinator fold loop offers a
    /// progress sample to `telemetry` after every folded touchdown, and
    /// heartbeats fire on simulated-ledger-time deadlines. Telemetry is a
    /// sidecar — it never changes measurement behaviour, the journal
    /// fingerprint, or the normalized trace stream (alarm events
    /// excepted, and those occur only when telemetry is armed).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the fault-tolerant recovery ladder on every search.
    pub fn with_recovery(mut self, policy: cichar_search::RetryPolicy) -> Self {
        self.runner = self.runner.with_recovery(policy);
        self
    }

    /// The wafer shape.
    pub fn config(&self) -> &WaferConfig {
        &self.config
    }

    /// Characterizes `dies` × `tests`, streaming entries through the
    /// chunked aggregate. See [`Self::run_traced`].
    ///
    /// # Errors
    ///
    /// Propagates spill and journal I/O errors (only possible with a
    /// spill or journal directory configured).
    pub fn run(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
    ) -> io::Result<(WaferReport, MeasurementLedger)> {
        self.run_traced(ate_config, dies, tests, strategy, policy, &Tracer::disabled())
    }

    /// [`Self::run`] with per-die spans recorded into `tracer` (span index
    /// = global die index, absorbed in die order — the event stream is
    /// identical for every thread count, chunk size and site grouping).
    ///
    /// Die `d`'s session seed is `derive_seed(ate_config.seed, d)`, so a
    /// die's verdict stream is a pure function of the campaign seed and
    /// its position in `dies` — never of scheduling, touchdown grouping
    /// or chunking.
    ///
    /// With a `journal_dir` configured, every completed chunk is also
    /// committed to a fresh [`CampaignJournal`] so a crash mid-campaign
    /// can be [`Self::resume`]d. Journaling never changes measurement
    /// behaviour — only what lands on disk.
    ///
    /// # Errors
    ///
    /// Propagates spill and journal I/O errors.
    pub fn run_traced(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
        tracer: &Tracer,
    ) -> io::Result<(WaferReport, MeasurementLedger)> {
        let out = self.campaign(ate_config, dies, tests, strategy, policy, tracer, false, None)?;
        Ok((out.report, out.merged))
    }

    /// Resumes an interrupted journaled campaign: replays the journal's
    /// contiguous committed prefix (verifying each chunk's commit-marker
    /// integrity), re-measures only the incomplete remainder, and returns
    /// a report and ledger **bit-identical** to the uninterrupted run
    /// plus what was replayed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] without a configured
    /// `journal_dir`, [`io::ErrorKind::NotFound`] when the directory
    /// holds no journal, and [`io::ErrorKind::InvalidData`] when the
    /// journal belongs to a different campaign or a committed chunk fails
    /// integrity verification. Spill/journal I/O errors propagate.
    pub fn resume(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
    ) -> io::Result<(WaferReport, MeasurementLedger, ResumeStats)> {
        self.resume_traced(ate_config, dies, tests, strategy, policy, &Tracer::disabled())
    }

    /// [`Self::resume`] with live (re-measured) spans recorded into
    /// `tracer`. Replayed chunks emit **no** trace events — their spans
    /// were already absorbed by the interrupted process — so a resumed
    /// trace stream covers exactly the work this process performed.
    ///
    /// # Errors
    ///
    /// As [`Self::resume`].
    #[allow(clippy::too_many_arguments)]
    pub fn resume_traced(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
        tracer: &Tracer,
    ) -> io::Result<(WaferReport, MeasurementLedger, ResumeStats)> {
        let out = self.campaign(ate_config, dies, tests, strategy, policy, tracer, true, None)?;
        Ok((out.report, out.merged, out.stats))
    }

    /// Crash-injection hook: runs a fresh journaled campaign but stops —
    /// without finalizing — once `chunks` chunks are committed, exactly
    /// as if the process died right after the commit rename. Returns how
    /// many chunks were committed (fewer than `chunks` when the campaign
    /// is shorter).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] without a configured
    /// `journal_dir`; journal/spill I/O errors propagate.
    pub fn run_prefix(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
        chunks: usize,
    ) -> io::Result<u64> {
        if self.config.journal_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "run_prefix requires a journal directory in the wafer config",
            ));
        }
        let out = self.campaign(
            ate_config,
            dies,
            tests,
            strategy,
            policy,
            &Tracer::disabled(),
            false,
            Some(chunks),
        )?;
        Ok(out.committed_chunks)
    }

    /// The journal identity for this campaign: a digest of everything
    /// that shapes its results. Paths (spill/journal directories) are
    /// deliberately excluded — they relocate a campaign without changing
    /// it.
    fn journal_meta(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        chunks_total: u64,
    ) -> JournalMeta {
        let shape = (
            self.config.sites,
            self.config.chunk_touchdowns,
            self.config.sketch_buckets,
            self.config.contact_check,
            self.config.chunk_timeout_ms,
            self.config.site_fault_threshold,
            &self.config.site_faults,
        );
        JournalMeta {
            version: JOURNAL_VERSION,
            fingerprint: format!(
                "runner:{:?}|shape:{:?}|ate:{:?}|strategy:{:?}|dies:{}|tests:{}|device:{}",
                self.runner,
                shape,
                ate_config,
                strategy,
                dies.len(),
                tests.len(),
                self.device.descriptor()
            ),
            chunks_total,
        }
    }

    /// Folds one touchdown's product into the campaign state **and** the
    /// chunk-local partials, in emission order. Live measurement and
    /// journal replay both come through here — same code, same order,
    /// same non-associative `f64` sums.
    fn fold_touchdown(
        state: &mut FoldState,
        contact_faults: u64,
        entries: &[WaferEntry],
        ledgers: &[MeasurementLedger],
        chunk_aggregate: &mut TripAggregate,
        chunk_ledger: &mut MeasurementLedger,
    ) {
        // Saturating, like `MeasurementLedger::merge`: replayed counts come
        // from disk and are verified only after the chunk is folded.
        state.contact_faults = state.contact_faults.saturating_add(contact_faults);
        for (site, ledger) in ledgers.iter().enumerate() {
            state.merged.merge(ledger);
            chunk_ledger.merge(ledger);
            let quarantined = &mut state.per_site_quarantined[site];
            *quarantined = quarantined.saturating_add(ledger.quarantined());
            state.timeouts = state.timeouts.saturating_add(ledger.timeouts());
            if let Some(breaker) = &mut state.breaker {
                breaker.observe(site, ledger);
            }
        }
        for entry in entries {
            state.aggregate.observe(entry.trip_point, &entry.status);
            chunk_aggregate.observe(entry.trip_point, &entry.status);
        }
    }

    /// Chunk-boundary breaker evaluation. Trips latch only here, so which
    /// sites open is a pure function of the chunk partition — invariant
    /// under thread count, and reproduced exactly by journal replay.
    /// Replay passes no tracer: the interrupted process already emitted
    /// these events.
    fn latch_breaker(state: &mut FoldState, chunk_index: usize, tracer: Option<&Tracer>) {
        let Some(breaker) = &mut state.breaker else {
            return;
        };
        for site in breaker.end_chunk() {
            if let Some(tracer) = tracer {
                tracer.emit_campaign(TraceEvent::SiteBreakerTripped {
                    site: site as u64,
                    chunk: chunk_index as u64,
                    fault_rate: breaker.fault_rate(site),
                });
            }
        }
    }

    /// Flushes the chunk's spill buffer as one atomic JSONL chunk file,
    /// recording its path and entry count for verified compaction.
    fn flush_spill(
        &self,
        buffer: &mut Vec<WaferEntry>,
        paths: &mut Vec<PathBuf>,
        counts: &mut Vec<u64>,
        chunk_index: usize,
    ) -> io::Result<()> {
        if let Some(dir) = &self.config.spill_dir {
            let path = dir.join(format!("wafer_chunk_{chunk_index:05}.jsonl"));
            db::save_jsonl(buffer, &path)?;
            paths.push(path);
            counts.push(buffer.len() as u64);
            buffer.clear();
        }
        Ok(())
    }

    /// The campaign engine behind [`Self::run_traced`],
    /// [`Self::resume_traced`] and [`Self::run_prefix`]: replay the
    /// journal's committed prefix (on resume), measure the remaining
    /// chunks live, finalize spill/summary artifacts unless stopped
    /// early.
    #[allow(clippy::too_many_arguments)]
    fn campaign(
        &self,
        ate_config: &AteConfig,
        dies: &[Die],
        tests: &[Test],
        strategy: SearchStrategy,
        policy: ExecPolicy,
        tracer: &Tracer,
        resume: bool,
        stop_after_chunks: Option<usize>,
    ) -> io::Result<CampaignOutput> {
        let sites = self.config.sites.max(1);
        let chunk_touchdowns = self.config.chunk_touchdowns.max(1);
        let param = self.runner.param();
        let range = param.generous_range();

        let touchdowns: Vec<&[Die]> = dies.chunks(sites).collect();
        let touchdown_count = touchdowns.len();
        let chunk_count = touchdowns.chunks(chunk_touchdowns).len();
        // Hoist per-test pattern expansion, feature extraction and content
        // hashing out of the die loop: every touchdown on every die reuses
        // these prepared views instead of re-deriving them per search.
        let prepared: Vec<PreparedTest<'_>> = tests.iter().map(PreparedTest::new).collect();

        let journal = match &self.config.journal_dir {
            Some(dir) => {
                let meta =
                    self.journal_meta(ate_config, dies, tests, strategy, chunk_count as u64);
                Some(if resume {
                    CampaignJournal::open(dir, &meta)?
                } else {
                    CampaignJournal::create(dir, meta)?
                })
            }
            None if resume => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "resume requires a journal directory in the wafer config",
                ));
            }
            None => None,
        };

        let fresh_chunk_aggregate =
            || TripAggregate::new(range.start(), range.end(), self.config.sketch_buckets);
        let mut state = FoldState {
            aggregate: fresh_chunk_aggregate(),
            merged: MeasurementLedger::new(),
            per_site_quarantined: vec![0u64; sites.min(dies.len().max(1))],
            contact_faults: 0,
            timeouts: 0,
            breaker: self.config.site_fault_threshold.map(SiteHealthBreaker::new),
        };
        let mut stats = ResumeStats {
            chunks_total: chunk_count as u64,
            ..ResumeStats::default()
        };
        let mut spill_paths: Vec<PathBuf> = Vec::new();
        let mut spill_counts: Vec<u64> = Vec::new();
        let mut spill_buffer: Vec<WaferEntry> = Vec::new();

        // Replay the journal's contiguous committed prefix: re-fold the
        // stored touchdown products in live order and cross-check each
        // chunk against its commit marker's partials.
        let mut start_chunk = 0usize;
        if resume {
            let journal = journal.as_ref().expect("resume opened the journal above");
            while start_chunk < chunk_count {
                let Some((replayed, commit)) = journal.load_chunk(start_chunk)? else {
                    break;
                };
                let mut chunk_aggregate = fresh_chunk_aggregate();
                let mut chunk_ledger = MeasurementLedger::new();
                for td in &replayed {
                    // The fold indexes per-site state by ledger position.
                    if td.ledgers.len() > state.per_site_quarantined.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "journal chunk {start_chunk} touchdown {} holds {} site \
                                 ledgers for a {}-site campaign",
                                td.touchdown,
                                td.ledgers.len(),
                                state.per_site_quarantined.len()
                            ),
                        ));
                    }
                    Self::fold_touchdown(
                        &mut state,
                        td.contact_faults,
                        &td.entries,
                        &td.ledgers,
                        &mut chunk_aggregate,
                        &mut chunk_ledger,
                    );
                    if self.config.spill_dir.is_some() {
                        spill_buffer.extend(td.entries.iter().copied());
                    }
                    stats.touchdowns_replayed += 1;
                    stats.entries_replayed += td.entries.len() as u64;
                }
                if chunk_aggregate != commit.aggregate || chunk_ledger != commit.ledger {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal chunk {start_chunk} failed integrity verification — \
                             the replayed fold disagrees with its commit marker"
                        ),
                    ));
                }
                self.flush_spill(&mut spill_buffer, &mut spill_paths, &mut spill_counts, start_chunk)?;
                Self::latch_breaker(&mut state, start_chunk, None);
                stats.chunks_replayed += 1;
                start_chunk += 1;
            }
        }

        // Live measurement from the first incomplete chunk.
        let mut committed_chunks = start_chunk as u64;
        for (chunk_index, chunk) in touchdowns.chunks(chunk_touchdowns).enumerate().skip(start_chunk)
        {
            if stop_after_chunks.is_some_and(|k| chunk_index >= k) {
                break;
            }
            // Snapshot the open sites once per chunk: the breaker latches
            // only at chunk boundaries, so every touchdown in the chunk
            // sees the same quarantine set regardless of scheduling.
            let open: Vec<bool> = (0..sites)
                .map(|s| state.breaker.as_ref().is_some_and(|b| b.is_open(s)))
                .collect();
            let first_touchdown = chunk_index * chunk_touchdowns;
            let outcomes = cichar_exec::par_map_ref_scratch(
                policy,
                chunk,
                SearchScratch::new,
                |i, td_dies, scratch| {
                    self.process_touchdown(
                        first_touchdown + i,
                        td_dies,
                        ate_config,
                        &prepared,
                        strategy,
                        tracer,
                        &open,
                        scratch,
                    )
                },
            );

            // Fold in touchdown order: aggregates, ledgers, spans, spill,
            // journal records.
            let mut chunk_aggregate = fresh_chunk_aggregate();
            let mut chunk_ledger = MeasurementLedger::new();
            let mut records: Vec<JournalRecord> = Vec::new();
            let mut chunk_entries = 0u64;
            let mut chunk_touchdown_count = 0u64;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                for span in outcome.spans {
                    tracer.absorb(span);
                }
                Self::fold_touchdown(
                    &mut state,
                    outcome.contact_faults,
                    &outcome.entries,
                    &outcome.ledgers,
                    &mut chunk_aggregate,
                    &mut chunk_ledger,
                );
                chunk_entries += outcome.entries.len() as u64;
                chunk_touchdown_count += 1;
                // One deterministic tick per folded touchdown: the merged
                // ledger's simulated time is a pure function of the seeded
                // campaign, so heartbeat cadence is thread-count
                // invariant. Replay (above) never ticks — a resumed run's
                // heartbeats cover exactly its live work.
                self.telemetry.tick(|| Progress {
                    phase: String::from("wafer"),
                    sim_time_us: (state.merged.test_time_ms() * 1000.0) as u64,
                    units_done: state.aggregate.entries,
                    units_total: (dies.len() * tests.len()) as u64,
                    touchdowns_done: (first_touchdown + i + 1) as u64,
                    chunks_done: chunk_index as u64,
                    breaker_open_sites: state
                        .breaker
                        .as_ref()
                        .map(SiteHealthBreaker::open_sites)
                        .unwrap_or_default(),
                });
                if journal.is_some() {
                    records.push(JournalRecord::Touchdown(TouchdownRecord {
                        touchdown: (first_touchdown + i) as u64,
                        contact_faults: outcome.contact_faults,
                        entries: outcome.entries.clone(),
                        ledgers: outcome.ledgers.clone(),
                    }));
                }
                if self.config.spill_dir.is_some() {
                    spill_buffer.extend(outcome.entries);
                }
            }
            self.flush_spill(&mut spill_buffer, &mut spill_paths, &mut spill_counts, chunk_index)?;
            if let Some(journal) = &journal {
                // The commit rename is the durability point: spill chunk
                // files land first so a crash in between re-runs (and
                // atomically rewrites) the whole chunk.
                records.push(JournalRecord::Commit(ChunkCommit {
                    chunk: chunk_index as u64,
                    touchdowns: chunk_touchdown_count,
                    entries: chunk_entries,
                    aggregate: chunk_aggregate,
                    ledger: chunk_ledger,
                }));
                journal.commit_chunk(chunk_index, &records)?;
            }
            Self::latch_breaker(&mut state, chunk_index, Some(tracer));
            committed_chunks = chunk_index as u64 + 1;
        }

        let stopped_early = stop_after_chunks.is_some_and(|k| k < chunk_count);
        let spill = match &self.config.spill_dir {
            Some(dir) if !stopped_early => {
                let dest = dir.join("wafer_entries.jsonl");
                db::compact_jsonl_verified(&spill_paths, &spill_counts, &dest)?;
                Some(SpillManifest {
                    chunks: spill_paths.len() as u64,
                    entries: state.aggregate.entries,
                    path: dest.display().to_string(),
                })
            }
            _ => None,
        };

        let report = WaferReport {
            param,
            strategy,
            dies: dies.len() as u64,
            tests: tests.len() as u64,
            sites: sites as u64,
            touchdowns: touchdown_count as u64,
            contact_faults: state.contact_faults,
            aggregate: state.aggregate,
            per_site_quarantined: state.per_site_quarantined,
            total_measurements: state.merged.measurements(),
            timeouts: state.timeouts,
            quarantined_sites: state
                .breaker
                .as_ref()
                .map(SiteHealthBreaker::open_sites)
                .unwrap_or_default(),
            spill,
        };
        if !stopped_early {
            if let Some(dir) = &self.config.spill_dir {
                db::save_artifact(&report, dir.join("wafer_summary.json"))?;
            }
            if let Some(journal) = &journal {
                if self.config.spill_dir.as_deref() != Some(journal.dir()) {
                    db::save_artifact(&report, journal.dir().join("wafer_summary.json"))?;
                }
            }
        }
        Ok(CampaignOutput {
            report,
            merged: state.merged,
            stats,
            committed_chunks,
        })
    }

    /// One touchdown: per-die sessions seeded by global die index, the
    /// shared contact-check strobe (one stress hoist across sites), then
    /// each site's per-test searches through the standard recovery ladder
    /// — under the stall-watchdog deadline when one is configured, and
    /// skipped entirely (every test quarantined as
    /// [`QuarantineReason::SiteBreaker`]) for sites whose breaker is
    /// `open`.
    #[allow(clippy::too_many_arguments)]
    fn process_touchdown(
        &self,
        touchdown: usize,
        td_dies: &[Die],
        ate_config: &AteConfig,
        tests: &[PreparedTest<'_>],
        strategy: SearchStrategy,
        tracer: &Tracer,
        open: &[bool],
        scratch: &mut SearchScratch,
    ) -> TouchdownOutcome {
        let sites = self.config.sites.max(1);
        let first_die = touchdown * sites;
        let sessions: Vec<Ate> = td_dies
            .iter()
            .enumerate()
            .map(|(site, die)| {
                let mut site_config = AteConfig {
                    seed: cichar_exec::derive_seed(ate_config.seed, (first_die + site) as u64),
                    ..ate_config.clone()
                };
                if let Some((_, model)) =
                    self.config.site_faults.iter().find(|(s, _)| *s == site)
                {
                    site_config.faults = *model;
                }
                Ate::with_config(self.device.for_die(*die), site_config)
            })
            .collect();
        let mut touchdown_ate = MultiSiteAte::from_sessions(sessions);

        let mut contact_faults = 0u64;
        if self.config.contact_check {
            if let Some(first) = tests.first() {
                contact_faults = self.contact_check(&mut touchdown_ate, first, scratch);
            }
        }

        let deadline_us = self.config.chunk_timeout_ms.map(|ms| ms as f64 * 1000.0);
        let mut entries = Vec::with_capacity(td_dies.len() * tests.len());
        let mut spans = Vec::with_capacity(td_dies.len());
        for site in 0..touchdown_ate.site_count() {
            let die_index = first_die + site;
            let die_id = touchdown_ate.site(site).device().die().id();
            let span = tracer.span(die_index as u64);
            if open.get(site).copied().unwrap_or(false) {
                // The site's breaker latched open in an earlier chunk:
                // skip the searches, quarantine every test with full
                // ledger/trace accounting.
                let session = touchdown_ate.site_mut(site);
                for test_index in 0..tests.len() {
                    session.quarantine();
                    span.emit_with(|| TraceEvent::Quarantined {
                        reason: QuarantineReason::SiteBreaker.as_str().into(),
                    });
                    entries.push(WaferEntry {
                        die: die_id,
                        test: test_index as u32,
                        trip_point: None,
                        status: TripStatus::Quarantined {
                            reason: QuarantineReason::SiteBreaker,
                        },
                    });
                }
                span.mark_done();
                spans.push(span);
                continue;
            }
            // The fold path: entries stream straight into the touchdown
            // buffer — no per-die report, no per-entry name strings.
            let mut watchdog_skipped = 0u64;
            self.runner.run_fold(
                touchdown_ate.site_mut(site),
                tests,
                strategy,
                &span,
                deadline_us,
                scratch,
                |test_index, e| {
                    if matches!(
                        e.status,
                        TripStatus::Quarantined {
                            reason: QuarantineReason::TimedOut
                        }
                    ) {
                        watchdog_skipped += 1;
                    }
                    entries.push(WaferEntry {
                        die: die_id,
                        test: test_index as u32,
                        trip_point: e.trip_point,
                        status: e.status,
                    });
                },
            );
            if watchdog_skipped > 0 {
                span.emit_with(|| TraceEvent::WatchdogFired {
                    site: site as u64,
                    touchdown: touchdown as u64,
                    budget_ms: self.config.chunk_timeout_ms.unwrap_or(0),
                    skipped_tests: watchdog_skipped,
                });
            }
            span.mark_done();
            spans.push(span);
        }

        let ledgers = touchdown_ate
            .into_sessions()
            .iter()
            .map(|s| *s.ledger())
            .collect();
        TouchdownOutcome {
            entries,
            ledgers,
            contact_faults,
            spans,
        }
    }

    /// The shared touchdown strobe: every site measures the first test at
    /// the parameter's pass edge in one batch (one stress-breakdown hoist
    /// across all sites). Returns how many sites answered with no verdict.
    ///
    /// The test arrives pre-hoisted (no pattern re-expansion) and both the
    /// forces and verdict buffers are borrowed from `scratch`, so the
    /// strobe allocates nothing in steady state.
    fn contact_check(
        &self,
        touchdown_ate: &mut MultiSiteAte,
        prepared: &PreparedTest<'_>,
        scratch: &mut SearchScratch,
    ) -> u64 {
        let param = self.runner.param();
        let range = param.generous_range();
        let edge = match param.region_order() {
            RegionOrder::PassBelowFail => range.start(),
            RegionOrder::PassAboveFail => range.end(),
        };
        scratch.forces.clear();
        scratch.forces.extend_from_slice(param.relax_forces());
        scratch.forces.push((param.kind(), edge));
        scratch.spec.clear();
        touchdown_ate.measure_sites_into(
            prepared.features(),
            prepared.pattern_cycles(),
            prepared.test(),
            &scratch.forces,
            &mut scratch.spec,
        );
        scratch.spec.iter().filter(|v| !v.is_valid()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_ate::{DriftModel, NoiseModel, TesterFaultModel};
    use cichar_dut::Lot;
    use cichar_patterns::{random, TestConditions};
    use cichar_search::RetryPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::Path;

    fn harsh_config() -> AteConfig {
        AteConfig {
            noise: NoiseModel::new(0.03, 0.05, 0.005),
            drift: DriftModel::new(20.0, 1e5),
            faults: TesterFaultModel::transient(0.01, 0.02),
            seed: 0xD1E5,
        }
    }

    fn wafer(dies: usize, tests: usize) -> (Vec<Die>, Vec<Test>) {
        let mut rng = StdRng::seed_from_u64(0x57AF);
        let dies = Lot::default().sample_dies(&mut rng, dies);
        let tests = (0..tests)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect();
        (dies, tests)
    }

    fn runner(sites: usize, chunk: usize) -> WaferRunner {
        WaferRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(3, 50.0))
            .with_config(WaferConfig {
                sites,
                chunk_touchdowns: chunk,
                sketch_buckets: 128,
                contact_check: true,
                ..WaferConfig::default()
            })
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cichar_wafer_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn reports_are_bit_identical_across_thread_counts() {
        let (dies, tests) = wafer(12, 5);
        let r = runner(4, 2);
        let serial = r
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("no spill");
        for threads in [2, 8] {
            let parallel = r
                .run(
                    &harsh_config(),
                    &dies,
                    &tests,
                    SearchStrategy::SearchUntilTrip,
                    ExecPolicy::with_threads(threads),
                )
                .expect("no spill");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn reports_are_invariant_under_chunk_size() {
        let (dies, tests) = wafer(10, 4);
        let base = runner(2, 1)
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
            .expect("no spill");
        for chunk in [3, 64] {
            let other = runner(2, chunk)
                .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
                .expect("no spill");
            assert_eq!(base, other, "chunk={chunk}");
        }
    }

    #[test]
    fn site_grouping_never_changes_results() {
        // sites=1 vs sites=4: different touchdown shapes, same per-die
        // streams — entries, aggregate, ledger and contact accounting all
        // agree.
        let (dies, tests) = wafer(8, 4);
        let spill_a = tmp_dir("sites1");
        let spill_b = tmp_dir("sites4");
        let run = |sites: usize, dir: &Path| {
            let mut r = runner(sites, 2);
            r.config.spill_dir = Some(dir.to_path_buf());
            r.run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
                .expect("spill dir writable")
        };
        let (one, ledger_one) = run(1, &spill_a);
        let (four, ledger_four) = run(4, &spill_b);

        assert_eq!(one.aggregate, four.aggregate);
        assert_eq!(one.contact_faults, four.contact_faults);
        assert_eq!(ledger_one, ledger_four);
        assert_eq!(
            one.per_site_quarantined.iter().sum::<u64>(),
            four.per_site_quarantined.iter().sum::<u64>()
        );
        let entries_one: Vec<WaferEntry> =
            db::load_jsonl(spill_a.join("wafer_entries.jsonl")).expect("compacted spill");
        let entries_four: Vec<WaferEntry> =
            db::load_jsonl(spill_b.join("wafer_entries.jsonl")).expect("compacted spill");
        assert_eq!(entries_one, entries_four);
        for dir in [&spill_a, &spill_b] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn per_site_accounting_reconciles_with_merged_ledger() {
        let (dies, tests) = wafer(9, 4);
        // Heavier faults so quarantines actually occur.
        let config = AteConfig {
            faults: TesterFaultModel::transient(0.02, 0.25),
            ..harsh_config()
        };
        let r = WaferRunner::new(MeasuredParam::DataValidTime).with_config(WaferConfig {
            sites: 3,
            chunk_touchdowns: 2,
            ..WaferConfig::default()
        });
        let (report, ledger) = r
            .run(&config, &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("no spill");
        assert!(report.aggregate.quarantined > 0, "fault rate high enough to quarantine");
        assert_eq!(
            report.per_site_quarantined.iter().sum::<u64>(),
            report.aggregate.quarantined,
            "per-site quarantines sum to the aggregate"
        );
        assert_eq!(ledger.quarantined(), report.aggregate.quarantined);
        assert_eq!(ledger.measurements(), report.total_measurements);
        assert_eq!(report.aggregate.entries, report.dies * report.tests);
    }

    #[test]
    fn wafer_entries_match_independent_per_die_runs() {
        // With the contact check off, each die's wafer stream is exactly
        // an independent MultiTripRunner campaign on a session seeded by
        // its global die index.
        let (dies, tests) = wafer(6, 4);
        let config = harsh_config();
        let mut r = runner(3, 2);
        r.config.contact_check = false;
        let (report, _) = r
            .run(&config, &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
            .expect("no spill");
        assert_eq!(report.aggregate.entries, 6 * 4);

        let mut reference = TripAggregate::new(
            MeasuredParam::DataValidTime.generous_range().start(),
            MeasuredParam::DataValidTime.generous_range().end(),
            128,
        );
        let per_die = MultiTripRunner::new(MeasuredParam::DataValidTime)
            .with_recovery(RetryPolicy::new(3, 50.0));
        for (die_index, die) in dies.iter().enumerate() {
            let mut session = Ate::with_config(
                MemoryDevice::new(*die),
                AteConfig {
                    seed: cichar_exec::derive_seed(config.seed, die_index as u64),
                    ..config.clone()
                },
            );
            let report = per_die.run(&mut session, &tests, SearchStrategy::SearchUntilTrip);
            for e in &report.entries {
                reference.observe(e.trip_point, &e.status);
            }
        }
        assert_eq!(report.aggregate, reference);
    }

    #[test]
    fn spill_compacts_chunks_and_writes_summary() {
        let (dies, tests) = wafer(6, 3);
        let dir = tmp_dir("spill");
        let mut r = runner(2, 1);
        r.config.spill_dir = Some(dir.clone());
        let (report, _) = r
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("spill dir writable");

        let spill = report.spill.as_ref().expect("spill manifest");
        assert_eq!(spill.chunks, 3, "three chunks of one touchdown each");
        assert_eq!(spill.entries, 6 * 3);
        let entries: Vec<WaferEntry> = db::load_jsonl(&spill.path).expect("compacted artifact");
        assert_eq!(entries.len(), 18);
        // Chunk files are gone after compaction; the summary artifact parses.
        assert!(!dir.join("wafer_chunk_00000.jsonl").exists());
        let summary: WaferReport =
            db::load_artifact(dir.join("wafer_summary.json")).expect("summary");
        assert_eq!(summary, report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaling_never_changes_results() {
        let (dies, tests) = wafer(8, 3);
        let plain = runner(2, 2)
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("no spill");

        let dir = tmp_dir("journal_noop");
        let mut r = runner(2, 2);
        r.config.journal_dir = Some(dir.clone());
        let journaled = r
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("journal dir writable");
        assert_eq!(plain, journaled);

        // Every chunk committed, and the summary landed in the journal
        // directory for post-crash byte comparison.
        let meta: JournalMeta = db::load_artifact(dir.join("journal_meta.json")).expect("meta");
        let journal = CampaignJournal::open(&dir, &meta).expect("own meta");
        assert_eq!(journal.committed_chunks().expect("scan"), 2, "4 touchdowns / 2 per chunk");
        let summary: WaferReport = db::load_artifact(dir.join("wafer_summary.json")).expect("summary");
        assert_eq!(summary, journaled.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_interrupt_is_bit_identical() {
        let (dies, tests) = wafer(10, 3);
        let uninterrupted = runner(2, 1)
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("no spill");

        for kill_after in [0usize, 2, 4] {
            let dir = tmp_dir(&format!("resume_{kill_after}"));
            let mut r = runner(2, 1);
            r.config.journal_dir = Some(dir.clone());
            let committed = r
                .run_prefix(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial(), kill_after)
                .expect("journal dir writable");
            assert_eq!(committed, kill_after as u64);
            assert!(!dir.join("wafer_summary.json").exists(), "no finalize on interrupt");

            let (report, ledger, stats) = r
                .resume(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
                .expect("journal readable");
            assert_eq!((report, ledger), uninterrupted, "kill_after={kill_after}");
            assert_eq!(stats.chunks_replayed, kill_after as u64);
            assert_eq!(stats.chunks_total, 5, "10 dies / 2 sites / 1 td per chunk");
            assert_eq!(
                stats.entries_replayed,
                (kill_after * 2 * 3) as u64,
                "2 dies × 3 tests per replayed chunk"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_rebuilds_spill_artifacts() {
        let (dies, tests) = wafer(8, 3);
        let ref_dir = tmp_dir("respill_ref");
        let mut reference = runner(2, 2);
        reference.config.spill_dir = Some(ref_dir.clone());
        let (ref_report, _) = reference
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("spill dir writable");

        let dir = tmp_dir("respill");
        let mut r = runner(2, 2);
        r.config.spill_dir = Some(dir.clone());
        r.config.journal_dir = Some(dir.clone());
        r.run_prefix(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial(), 1)
            .expect("journal dir writable");
        let (report, _, _) = r
            .resume(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect("resume");

        // Same aggregate and the same compacted entry stream, replayed
        // chunk included.
        assert_eq!(report.aggregate, ref_report.aggregate);
        let entries: Vec<WaferEntry> =
            db::load_jsonl(dir.join("wafer_entries.jsonl")).expect("compacted");
        let ref_entries: Vec<WaferEntry> =
            db::load_jsonl(ref_dir.join("wafer_entries.jsonl")).expect("compacted");
        assert_eq!(entries, ref_entries);
        for d in [&ref_dir, &dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let (dies, tests) = wafer(6, 2);
        let dir = tmp_dir("foreign");
        let mut r = runner(2, 1);
        r.config.journal_dir = Some(dir.clone());
        r.run_prefix(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial(), 1)
            .expect("journal dir writable");

        // A different seed is a different campaign: the fingerprint must
        // refuse the journal rather than splice foreign chunks.
        let other = AteConfig { seed: 0xBAD, ..harsh_config() };
        let err = r
            .resume(&other, &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect_err("fingerprint mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // And resuming without a journal configured is an input error.
        let bare = runner(2, 1);
        let err = bare
            .resume(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial())
            .expect_err("no journal dir");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_times_out_over_budget_sessions() {
        let (dies, tests) = wafer(6, 4);
        // A zero budget expires the moment the contact strobe lands: every
        // search is abandoned deterministically.
        let mut r = runner(2, 2);
        r.config.chunk_timeout_ms = Some(0);
        let (report, ledger) = r
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(2))
            .expect("no spill");
        assert_eq!(report.timeouts, 6 * 4, "every test timed out");
        assert_eq!(report.aggregate.quarantined, 6 * 4);
        assert_eq!(report.aggregate.entries, 6 * 4);
        assert_eq!(ledger.timeouts(), report.timeouts);
        assert_eq!(ledger.quarantined(), report.aggregate.quarantined);
        assert_eq!(
            report.per_site_quarantined.iter().sum::<u64>(),
            report.aggregate.quarantined
        );

        // A generous budget never fires: identical to the unguarded run.
        let mut generous = runner(2, 2);
        generous.config.chunk_timeout_ms = Some(u64::MAX / 2_000);
        let guarded = generous
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(2))
            .expect("no spill");
        let unguarded = runner(2, 2)
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(2))
            .expect("no spill");
        assert_eq!(guarded.0.timeouts, 0);
        assert_eq!(guarded, unguarded);
    }

    #[test]
    fn breaker_quarantines_a_stuck_site_with_full_accounting() {
        let (dies, tests) = wafer(16, 4);
        // Site 1's channel is broken: stalls on most strobes plus heavy
        // dropouts. The watchdog converts the stalls into timeouts, the
        // breaker converts the rolling fault rate into a latched-open
        // site, and later touchdowns skip it entirely.
        let mut r = runner(2, 2);
        r.config.chunk_timeout_ms = Some(50);
        r.config.site_fault_threshold = Some(0.25);
        r.config.site_faults = vec![(
            1,
            TesterFaultModel::transient(0.10, 0.10).with_stalls(0.8, 40_000.0),
        )];
        let (report, ledger) = r
            .run(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
            .expect("no spill");

        assert_eq!(report.quarantined_sites, vec![1], "site 1 latched open");
        assert!(report.timeouts > 0, "stalls blew the watchdog budget");
        assert!(
            report.per_site_quarantined[1] > report.per_site_quarantined[0],
            "quarantines concentrate on the broken site"
        );
        // Accounting reconciles across all three ledgers of record.
        assert_eq!(report.aggregate.entries, 16 * 4);
        assert_eq!(
            report.per_site_quarantined.iter().sum::<u64>(),
            report.aggregate.quarantined
        );
        assert_eq!(ledger.quarantined(), report.aggregate.quarantined);
        assert_eq!(ledger.timeouts(), report.timeouts);
        assert_eq!(ledger.measurements(), report.total_measurements);

        // The same campaign journaled, interrupted and resumed replays
        // the breaker trip bit-identically.
        let dir = tmp_dir("breaker_resume");
        r.config.journal_dir = Some(dir.clone());
        r.run_prefix(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::serial(), 2)
            .expect("journal dir writable");
        let (resumed, resumed_ledger, stats) = r
            .resume(&harsh_config(), &dies, &tests, SearchStrategy::SearchUntilTrip, ExecPolicy::with_threads(4))
            .expect("resume");
        assert_eq!(resumed, report);
        assert_eq!(resumed_ledger, ledger);
        assert_eq!(stats.chunks_replayed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

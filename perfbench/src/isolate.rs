//! Layer-isolation measurements on a workload's own inputs: whole loops
//! of one layer's public operations, timed together, so per-operation
//! costs carry no per-call clock reads.

use crate::common::{median, ratio, timed};
use crate::layers::{DutSnapshot, RecordingOracle};
use cichar_ate::{Ate, AteConfig, MeasuredParam, MeasurementLedger, PreparedTest};
use cichar_core::db;
use cichar_core::journal::{CampaignJournal, JournalMeta, JournalRecord};
use cichar_core::stream::TripAggregate;
use cichar_dut::{Device, Die, EvalPlan};
use cichar_patterns::{Test, TestConditions};
use cichar_search::{
    BatchOracle, Probe, RebracketingStp, RecoveryStats, RetryPolicy, RobustOracle, ScriptedOracle,
    SearchScratch, SearchUntilTrip, SuccessiveApproximation,
};
use cichar_trace::SpanTrace;
use cichar_units::{Celsius, Megahertz, ParamKind, Volts};
use std::hint::black_box;
use std::io;
use std::path::Path;

/// Per-operation costs of the probe path — device, tester and search
/// control — measured on a sample of the workload's own searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCosts {
    /// One parametric evaluation through a prepared plan.
    pub ns_per_eval: f64,
    /// One plan preparation (a plan-cache miss).
    pub ns_per_prepare: f64,
    /// One stimulus stress hoist.
    pub ns_per_stress: f64,
    /// Tester self time per measurement: the real searches minus their
    /// replay minus the device work they did, per tester measurement.
    pub ate_ns_per_strobe: f64,
    /// Search-control self time per search, replayed against a
    /// `ScriptedOracle` serving the recorded verdicts (a zero-cost oracle).
    pub search_ns_per_trip: f64,
}

impl ProbeCosts {
    /// Device self time for `counts` at these per-operation costs.
    pub fn dut_ns(&self, counts: &DutSnapshot) -> f64 {
        counts.evals as f64 * self.ns_per_eval
            + counts.prepares as f64 * self.ns_per_prepare
            + counts.stress as f64 * self.ns_per_stress
    }
}

/// The eq. 2 full-range search and the eq. 3/4 STP with its re-bracketing
/// fallback, configured as the campaign runner configures them.
struct Searches {
    param: MeasuredParam,
    full: SuccessiveApproximation,
    rebracket: RebracketingStp,
    recovery: Option<RetryPolicy>,
}

impl Searches {
    fn new(param: MeasuredParam, recovery: Option<RetryPolicy>) -> Self {
        let full = SuccessiveApproximation::new(param.generous_range(), param.resolution());
        let stp = SearchUntilTrip::new(param.generous_range(), param.search_factor())
            .with_refinement(param.resolution());
        Self {
            param,
            rebracket: RebracketingStp::new(stp, full.clone()),
            full,
            recovery,
        }
    }

    /// One search: full range without a reference, STP around it
    /// otherwise, through the recovery ladder when one is configured.
    /// Returns the trip point, the new reference when the STP walk fell
    /// back to a full-range search, the oracle and the recovery tally.
    fn run<O: BatchOracle>(
        &self,
        reference: Option<f64>,
        oracle: O,
        scratch: &mut SearchScratch,
    ) -> (Option<f64>, Option<f64>, O, RecoveryStats) {
        fn search<O: BatchOracle>(
            s: &Searches,
            reference: Option<f64>,
            oracle: &mut O,
            scratch: &mut SearchScratch,
        ) -> (Option<f64>, Option<f64>) {
            let order = s.param.region_order();
            scratch.trace.clear();
            match reference {
                None => (s.full.run_in(order, oracle, scratch).trip_point, None),
                Some(r) => {
                    let result = s.rebracket.run_traced_in(
                        r,
                        order,
                        oracle,
                        &SpanTrace::disabled(),
                        scratch,
                    );
                    let tp = result.summary.trip_point;
                    (tp, if result.rebracketed { tp } else { None })
                }
            }
        }
        match self.recovery {
            Some(policy) => {
                let mut robust = RobustOracle::from_scratch(oracle, policy, scratch);
                let (tp, refreshed) = search(self, reference, &mut robust, scratch);
                let (oracle, stats) = robust.recycle_parts(scratch);
                (tp, refreshed, oracle, stats)
            }
            None => {
                let mut oracle = oracle;
                let (tp, refreshed) = search(self, reference, &mut oracle, scratch);
                (tp, refreshed, oracle, RecoveryStats::default())
            }
        }
    }

    /// Every test on every die the way a wafer session runs them: one
    /// session per die seeded by die index, the reference trip point from
    /// the first search. With `scripts`, each search's oracle is wrapped
    /// in a [`RecordingOracle`] and its (reference, verdicts) appended.
    /// Returns the tester measurements taken.
    fn campaign(
        &self,
        device: &Device,
        dies: &[Die],
        tests: &[PreparedTest<'_>],
        ate_config: &AteConfig,
        mut scripts: Option<&mut Vec<(Option<f64>, Vec<Probe>)>>,
    ) -> u64 {
        let mut scratch = SearchScratch::new();
        let mut strobes = 0u64;
        for (index, die) in dies.iter().enumerate() {
            let mut ate = Ate::with_config(
                device.for_die(*die),
                AteConfig {
                    seed: cichar_exec::derive_seed(ate_config.seed, index as u64),
                    ..ate_config.clone()
                },
            );
            let mut rtp: Option<f64> = None;
            for test in tests {
                let forces = std::mem::take(&mut scratch.forces);
                let oracle = ate.trip_oracle_prepared(test, self.param, forces);
                let (tp, refreshed, forces, stats) = match scripts.as_deref_mut() {
                    Some(scripts) => {
                        let (tp, refreshed, oracle, stats) =
                            self.run(rtp, RecordingOracle::new(oracle), &mut scratch);
                        let (inner, verdicts) = oracle.into_parts();
                        scripts.push((rtp, verdicts));
                        (tp, refreshed, inner.into_forces(), stats)
                    }
                    None => {
                        let (tp, refreshed, oracle, stats) = self.run(rtp, oracle, &mut scratch);
                        (tp, refreshed, oracle.into_forces(), stats)
                    }
                };
                scratch.forces = forces;
                ate.absorb_recovery(&stats);
                if refreshed.is_some() {
                    rtp = refreshed;
                } else if rtp.is_none() {
                    rtp = tp;
                }
            }
            strobes += ate.ledger().measurements();
        }
        strobes
    }
}

/// The conditions a search probes at: the test's own with the parameter's
/// §4 relaxation forces applied (the plan the tester prepares).
fn relaxed(test: &Test, param: MeasuredParam) -> TestConditions {
    let mut c = *test.conditions();
    for &(kind, value) in param.relax_forces() {
        c = match kind {
            ParamKind::SupplyVoltage => c.with_vdd(Volts::new(value)),
            ParamKind::ClockFrequency => c.with_clock(Megahertz::new(value)),
            ParamKind::Temperature => c.with_temperature(Celsius::new(value)),
            ParamKind::StrobeDelay => c,
        };
    }
    c
}

/// Timed repetitions of each isolation loop; the median is kept.
const REPEATS: usize = 5;

/// Median seconds of `REPEATS` calls of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPEATS).map(|_| timed(&mut f).0).collect();
    median(&secs)
}

/// Device costs: stress hoists, plan preparations and planned
/// evaluations over every (die, test) pair, each timed as a whole loop.
fn device_costs(
    device: &Device,
    dies: &[Die],
    tests: &[PreparedTest<'_>],
    param: MeasuredParam,
) -> (f64, f64, f64) {
    let pairs: Vec<(Device, &PreparedTest<'_>, TestConditions)> = dies
        .iter()
        .flat_map(|die| {
            let dut = device.for_die(*die);
            tests
                .iter()
                .map(move |t| (dut.clone(), t, relaxed(t.test(), param)))
        })
        .collect();
    let n = pairs.len() as f64;
    let stress: Vec<f64> = pairs
        .iter()
        .map(|(d, t, _)| d.stress_total(t.features()))
        .collect();
    let ns_stress = median_secs(|| {
        for (d, t, _) in &pairs {
            black_box(d.stress_total(black_box(t.features())));
        }
    }) * 1e9
        / n;
    let ns_prepare = median_secs(|| {
        for (d, _, c) in &pairs {
            black_box(d.prepare(black_box(c)));
        }
    }) * 1e9
        / n;
    let plans: Vec<EvalPlan> = pairs.iter().map(|(d, _, c)| d.prepare(c)).collect();
    const ROUNDS: usize = 16;
    let ns_eval = median_secs(|| {
        for _ in 0..ROUNDS {
            for (plan, s) in plans.iter().zip(&stress) {
                black_box(plan.evaluate_with_stress(black_box(*s)));
            }
        }
    }) * 1e9
        / (n * ROUNDS as f64);
    (ns_eval, ns_prepare, ns_stress)
}

/// Measures [`ProbeCosts`] on `dies` × `tests`: one recording pass through
/// the counting device (work counts and verdict scripts), then timed
/// passes of the real searches on the plain device, of their replay
/// against `ScriptedOracle`s, and of the device operations alone.
pub fn probe_costs(
    plain: &Device,
    counting: &Device,
    dies: &[Die],
    tests: &[Test],
    ate_config: &AteConfig,
    param: MeasuredParam,
    recovery: Option<RetryPolicy>,
) -> ProbeCosts {
    let searches = Searches::new(param, recovery);
    let prepared: Vec<PreparedTest<'_>> = tests.iter().map(PreparedTest::new).collect();

    let mut scripts: Vec<(Option<f64>, Vec<Probe>)> = Vec::new();
    let before = DutSnapshot::now();
    let strobes = searches.campaign(counting, dies, &prepared, ate_config, Some(&mut scripts));
    let counts = DutSnapshot::now().since(&before);
    scripts.retain(|(_, v)| !v.is_empty());

    let real = median_secs(|| {
        searches.campaign(plain, dies, &prepared, ate_config, None);
    });
    let mut scratch = SearchScratch::new();
    let replays = scripts.len() as f64;
    let replay_secs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            // Building the scripted oracles is not part of the searches.
            let oracles: Vec<(Option<f64>, ScriptedOracle)> = scripts
                .iter()
                .map(|(r, v)| (*r, ScriptedOracle::new(v.clone())))
                .collect();
            timed(|| {
                for (reference, oracle) in oracles {
                    black_box(searches.run(reference, oracle, &mut scratch).0);
                }
            })
            .0
        })
        .collect();
    let replay = median(&replay_secs);
    let (ns_per_eval, ns_per_prepare, ns_per_stress) = device_costs(plain, dies, &prepared, param);
    let mut costs = ProbeCosts {
        ns_per_eval,
        ns_per_prepare,
        ns_per_stress,
        ate_ns_per_strobe: 0.0,
        search_ns_per_trip: ratio(replay * 1e9, replays),
    };
    let ate_ns = real * 1e9 - replay * 1e9 - costs.dut_ns(&counts);
    costs.ate_ns_per_strobe = ratio(ate_ns.max(0.0), strobes as f64);
    costs
}

/// Journal and fold costs measured over a finished campaign's journal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalCost {
    /// Committed chunks.
    pub chunks: u64,
    /// Touchdowns across them.
    pub touchdowns: u64,
    /// Mean chunk file size.
    pub bytes_per_chunk: f64,
    /// Mean `CampaignJournal::load_chunk` time.
    pub load_ms_per_chunk: f64,
    /// Mean `CampaignJournal::commit_chunk` time, rewriting the same
    /// records into a scratch journal.
    pub commit_ms_per_chunk: f64,
    /// Mean cost of folding one touchdown's entries and ledgers into the
    /// campaign and chunk aggregates (the wafer engine folds into both).
    pub fold_ns_per_touchdown: f64,
    /// Tester measurements committed in chunks `0..split`.
    pub strobes_before_split: u64,
}

/// Loads, re-folds and re-commits every chunk of the journal in `dir`
/// (into `copy_dir`), timing each step. `range` and `buckets` shape the
/// aggregate as the campaign shaped it; `split` is the chunk index below
/// which chunks count toward [`JournalCost::strobes_before_split`].
///
/// # Errors
///
/// Propagates journal I/O errors; a chunk that is not committed is
/// `InvalidData`.
pub fn journal_and_fold(
    dir: &Path,
    copy_dir: &Path,
    range: (f64, f64),
    buckets: usize,
    split: u64,
) -> io::Result<JournalCost> {
    let meta: JournalMeta = db::load_artifact(dir.join("journal_meta.json"))?;
    let journal = CampaignJournal::open(dir, &meta)?;
    let copy = CampaignJournal::create(copy_dir, meta.clone())?;
    let mut cost = JournalCost {
        chunks: meta.chunks_total,
        ..JournalCost::default()
    };
    let (mut bytes, mut load_s, mut commit_s, mut fold_s) = (0u64, 0.0, 0.0, 0.0);
    let mut aggregate = TripAggregate::new(range.0, range.1, buckets);
    let mut merged = MeasurementLedger::new();
    for index in 0..meta.chunks_total as usize {
        bytes += std::fs::metadata(journal.chunk_path(index))?.len();
        let (secs, loaded) = timed(|| journal.load_chunk(index));
        load_s += secs;
        let (touchdowns, commit) = loaded?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk {index} is not committed"),
            )
        })?;
        if (index as u64) < split {
            cost.strobes_before_split += commit.ledger.measurements();
        }
        let (secs, ()) = timed(|| {
            let mut chunk_aggregate = TripAggregate::new(range.0, range.1, buckets);
            let mut chunk_ledger = MeasurementLedger::new();
            for td in &touchdowns {
                for ledger in &td.ledgers {
                    merged.merge(ledger);
                    chunk_ledger.merge(ledger);
                }
                for entry in &td.entries {
                    aggregate.observe(entry.trip_point, &entry.status);
                    chunk_aggregate.observe(entry.trip_point, &entry.status);
                }
            }
            black_box((&chunk_aggregate, &chunk_ledger));
        });
        fold_s += secs;
        cost.touchdowns += touchdowns.len() as u64;
        let mut records: Vec<JournalRecord> = touchdowns
            .into_iter()
            .map(JournalRecord::Touchdown)
            .collect();
        records.push(JournalRecord::Commit(commit));
        let (secs, written) = timed(|| copy.commit_chunk(index, &records));
        written?;
        commit_s += secs;
    }
    black_box((&aggregate, &merged));
    let chunks = cost.chunks as f64;
    cost.bytes_per_chunk = ratio(bytes as f64, chunks);
    cost.load_ms_per_chunk = ratio(load_s * 1e3, chunks);
    cost.commit_ms_per_chunk = ratio(commit_s * 1e3, chunks);
    cost.fold_ns_per_touchdown = ratio(fold_s * 1e9, cost.touchdowns as f64);
    Ok(cost)
}

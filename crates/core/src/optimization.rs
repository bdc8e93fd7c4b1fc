//! The fig. 5 optimization scheme: GA-refined worst-case test generation.
//!
//! Step by step:
//!
//! 1. GA populations are initialized by the fuzzy-neural generator's
//!    sub-optimal tests (see [`crate::generator`]);
//! 2. the characterization objective fixes the drift direction (eq. 5 or
//!    eq. 6 — [`CharacterizationObjective`]);
//! 3. the GA evolves two chromosome species — the test-sequence genes
//!    ([`SegmentProgram`]'s encoding) and the test-condition genes — with
//!    `fitness = WCR of the TPV measured on the ATE` via
//!    search-until-trip-point;
//! 4. stagnating islands restart with brand-new populations; the run ends
//!    at the generation budget or when the worst-case-ratio target trips;
//!    the surviving tests land in the [`WorstCaseDatabase`].

use crate::db::{WorstCaseDatabase, WorstCaseTest};
use crate::dsv::{measure_with_recovery, MultiTripRunner};
use crate::generator::Candidate;
use crate::wcr::CharacterizationObjective;
use cichar_ate::{Ate, MeasuredParam, MeasurementLedger, ParallelAte, PreparedTest};
use cichar_exec::ExecPolicy;
use cichar_genetic::{
    FitnessEvaluator, GaConfig, GaEngine, GaResult, GenomeSpec, Individual, SpeciesLayout,
};
use cichar_patterns::{
    ConditionSpace, SegmentProgram, Stimulus, Test, TestConditions, TestSource,
};
use cichar_search::{
    Probe, RebracketingStp, RegionOrder, RetryPolicy, RobustOracle, SearchScratch,
    SuccessiveApproximation,
};
use cichar_trace::{Progress, SpanTrace, Telemetry, TraceEvent, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// Configuration of the optimization scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationConfig {
    /// GA hyper-parameters (fig. 5's step budget lives in
    /// `ga.generations`; the WCR-theorem stop in `ga.target_fitness`).
    pub ga: GaConfig,
    /// The characterized parameter.
    pub param: MeasuredParam,
    /// The drift objective (fitness = its WCR).
    pub objective: CharacterizationObjective,
    /// Condition space for the condition chromosome.
    pub space: ConditionSpace,
    /// Evolve the condition chromosome too (`true`, the paper's two
    /// species), or pin every individual to `pinned_conditions` (Table 1's
    /// fixed Vdd = 1.8 V corner).
    pub evolve_conditions: bool,
    /// Conditions used when `evolve_conditions` is `false`.
    pub pinned_conditions: TestConditions,
    /// Worst-case entries kept in the database.
    pub database_capacity: usize,
    /// Fault-tolerance policy for the ATE-measured fitness: when set,
    /// every strobe runs through the retry / backoff / voting ladder,
    /// failed STP walks re-bracket with a full-range search, and
    /// individuals whose measurement stays untrustworthy are scored
    /// unmeasurable (and quarantined in the ledger) instead of feeding a
    /// corrupted trip point to the GA.
    pub recovery: Option<RetryPolicy>,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self {
            ga: GaConfig {
                generations: 40,
                target_fitness: Some(1.0),
                ..GaConfig::default()
            },
            param: MeasuredParam::DataValidTime,
            objective: CharacterizationObjective::drift_to_minimum(20.0),
            space: ConditionSpace::default(),
            evolve_conditions: false,
            pinned_conditions: TestConditions::nominal(),
            database_capacity: 16,
            recovery: None,
        }
    }
}

/// The scheme's product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationOutcome {
    /// The database of worst-case tests (fig. 5's final box).
    pub database: WorstCaseDatabase,
    /// Raw GA statistics.
    pub ga: GaResult,
    /// ATE measurements consumed by the whole optimization.
    pub measurements_used: u64,
    /// The single worst test found.
    pub best: WorstCaseTest,
    /// The reference trip point the run ended with: the caller-provided
    /// one, or the first converged trip point discovered (eq. 2). Feeding
    /// it into a follow-up run skips that run's initial full search.
    pub reference_trip_point: Option<f64>,
}

impl fmt::Display for OptimizationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "optimization: best {} | {} ATE measurements | GA {}",
            self.best, self.measurements_used, self.ga
        )
    }
}

/// Runs the fig. 5 scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationScheme {
    config: OptimizationConfig,
}

impl OptimizationScheme {
    /// Creates the scheme.
    pub fn new(config: OptimizationConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OptimizationConfig {
        &self.config
    }

    /// The chromosome layout: sequence genes, plus condition genes when
    /// conditions evolve.
    pub fn layout(&self) -> SpeciesLayout {
        let mut specs = vec![GenomeSpec::new(SegmentProgram::gene_bounds())];
        if self.config.evolve_conditions {
            specs.push(GenomeSpec::new(self.config.space.gene_bounds()));
        }
        SpeciesLayout::new(specs)
    }

    /// Decodes a GA individual into a concrete test.
    ///
    /// # Panics
    ///
    /// Panics if the individual does not match [`Self::layout`] — the GA
    /// engine guarantees it does.
    pub fn decode(&self, individual: &Individual, name: impl Into<String>) -> Test {
        let program = SegmentProgram::from_genes(individual.chromosome(0))
            .expect("layout bounds make every chromosome decodable");
        let conditions = if self.config.evolve_conditions {
            self.config.space.from_genes(individual.chromosome(1))
        } else {
            self.config.pinned_conditions
        };
        Test::from_program(name, TestSource::NeuralGa, program, conditions)
    }

    /// Encodes a candidate test back into an individual, when its stimulus
    /// is a segment program (random and NN-generated tests are; raw
    /// deterministic patterns are not and yield `None`).
    pub fn encode_seed(&self, candidate: &Candidate) -> Option<Individual> {
        let Stimulus::Program(program) = candidate.test.stimulus() else {
            return None;
        };
        let mut chromosomes = vec![program.to_genes()];
        if self.config.evolve_conditions {
            chromosomes.push(self.config.space.to_genes(candidate.test.conditions()));
        }
        Some(Individual::new(chromosomes))
    }

    /// Runs the GA with ATE-measured fitness on the caller's shared
    /// session, with per-evaluation spans and per-generation GA
    /// statistics recorded into `tracer` (pass [`Tracer::disabled`] to
    /// record nothing).
    ///
    /// `seeds` are the fuzzy-neural generator's sub-optimal tests (may be
    /// empty — fig. 5 degrades to a plain GA then). `reference_trip_point`
    /// usually comes from the learning phase; when `None`, the first
    /// evaluated individual establishes it with a full-range search.
    ///
    /// Each fitness evaluation gets a span keyed by its 0-based global
    /// evaluation index — the same key [`run_parallel`](Self::run_parallel)
    /// uses — and [`TraceEvent::GaGenerationEvaluated`] campaign events
    /// are emitted from the GA history after the run, so sequential and
    /// parallel campaigns describe generations identically.
    ///
    /// This is the shared-session body: every evaluation measures on
    /// `ate` in order, and a re-bracketing fallback's fresh full search
    /// re-anchors the reference trip point for the evaluations after it.
    pub fn run<R: Rng + ?Sized>(
        &self,
        ate: &mut Ate,
        seeds: &[Candidate],
        reference_trip_point: Option<f64>,
        rng: &mut R,
        tracer: &Tracer,
    ) -> OptimizationOutcome {
        // The eq. 2 and eq. 3/4 searches, built once per run.
        let searches = MultiTripRunner::new(self.config.param).searches();
        let start_ledger = *ate.ledger();
        let mut database = WorstCaseDatabase::new(self.config.database_capacity);
        let mut rtp = reference_trip_point;
        let mut evaluated = 0usize;
        // One scratch for the whole sequential campaign: every fitness
        // evaluation's searches reuse its buffers.
        let mut scratch = SearchScratch::new();
        let result = GaEngine::new(self.config.ga, self.layout()).run_seeded(
            self.seed_individuals(seeds),
            &mut |individual: &Individual| {
                let span = tracer.span(evaluated as u64);
                let scored = self.score(
                    ate,
                    individual,
                    evaluated,
                    rtp,
                    &searches,
                    &span,
                    &mut scratch,
                );
                evaluated += 1;
                if let Some((entry, id)) = scored.entry {
                    // Eq. 2: the first verified trip point anchors the
                    // reference, and a re-bracketing fallback that paid
                    // for a full search re-anchors it.
                    rtp = scored
                        .refreshed_reference
                        .or(rtp)
                        .or(Some(entry.trip_point));
                    database.insert_identified(entry, id);
                }
                span.mark_done();
                tracer.absorb(span);
                scored.fitness
            },
            rng,
        );
        let measurements = ate.ledger().measurements_since(&start_ledger);
        outcome(tracer, database, result, measurements, rtp)
    }

    /// [`OptimizationScheme::run`] with per-evaluation tester sessions
    /// fanned out across worker threads.
    ///
    /// Each GA fitness evaluation runs on its own session from
    /// `blueprint`, seeded by the global evaluation index, and the
    /// worst-case database and ledger are merged **in evaluation order**.
    /// The outcome is therefore bit-identical for every thread count; for
    /// a noiseless, drift-free blueprint it also equals the sequential
    /// [`OptimizationScheme::run`] on a single shared session.
    ///
    /// When no `reference_trip_point` is given, evaluations proceed
    /// sequentially until one converges and survives functional
    /// verification (eq. 2 anchoring); only the anchored remainder of
    /// each generation's brood fans out.
    ///
    /// Per-evaluation spans are recorded into `tracer`: workers fill each
    /// evaluation's span privately; the coordinator absorbs spans in
    /// evaluation order at the same merge point where ledgers and
    /// database inserts fold in, and offers `telemetry` a progress sample
    /// there, so the sequenced stream and the heartbeats are identical
    /// for every thread count. Telemetry lives in a parameter — not a
    /// scheme field — because the wafer journal fingerprint embeds runner
    /// state via `Debug`, and this scheme derives `PartialEq`.
    ///
    /// Returns the outcome plus the merged measurement ledger.
    #[allow(clippy::too_many_arguments)]
    pub fn run_parallel<R: Rng + ?Sized>(
        &self,
        blueprint: &ParallelAte,
        seeds: &[Candidate],
        reference_trip_point: Option<f64>,
        policy: ExecPolicy,
        rng: &mut R,
        tracer: &Tracer,
        telemetry: &Telemetry,
    ) -> (OptimizationOutcome, MeasurementLedger) {
        let mut evaluator = WcrEvaluator {
            scheme: self,
            searches: MultiTripRunner::new(self.config.param).searches(),
            blueprint,
            policy,
            evaluated: 0,
            rtp: reference_trip_point,
            database: WorstCaseDatabase::new(self.config.database_capacity),
            ledger: MeasurementLedger::new(),
            tracer,
            telemetry,
        };
        let result = GaEngine::new(self.config.ga, self.layout()).run_seeded(
            self.seed_individuals(seeds),
            &mut evaluator,
            rng,
        );
        let WcrEvaluator {
            database,
            ledger,
            rtp,
            ..
        } = evaluator;
        let outcome = outcome(tracer, database, result, ledger.measurements(), rtp);
        (outcome, ledger)
    }

    /// The GA's seed individuals: every candidate whose stimulus encodes.
    fn seed_individuals(&self, seeds: &[Candidate]) -> Vec<Individual> {
        seeds
            .iter()
            .filter_map(|cand| self.encode_seed(cand))
            .collect()
    }

    /// One fitness evaluation on whichever session the caller chose — the
    /// single scoring path of both bodies. The decoded test's trip point
    /// is searched from `reference` (eq. 2 full-range while there is none,
    /// eqs. 3/4 STP after) through the shared fault-tolerant ladder, then
    /// functionally verified, then scored by its WCR (fig. 5 step 3).
    /// `index` is the 0-based evaluation index; it names the test.
    #[allow(clippy::too_many_arguments)]
    fn score(
        &self,
        ate: &mut Ate,
        individual: &Individual,
        index: usize,
        reference: Option<f64>,
        (full, rebracket): &(SuccessiveApproximation, RebracketingStp),
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> Scored {
        let c = &self.config;
        let test = self.decode(individual, ga_name(index + 1));
        let prepared = PreparedTest::new(&test);
        let measured = measure_with_recovery(
            ate, &prepared, c.param, reference, full, rebracket, c.recovery, span, scratch,
        );
        let id = prepared.identity();
        let verified = measured.trip_point.filter(|_| {
            Self::functionally_verified(ate, &prepared, c.param, c.recovery, span, scratch)
        });
        // Unmeasurable or unverified individuals are worthless, not worst.
        let fitness = verified.map_or(f64::NEG_INFINITY, |tp| c.objective.wcr(tp));
        let entry = verified.map(|tp| {
            let class = c.objective.classify(tp);
            let record = WorstCaseTest {
                test,
                trip_point: tp,
                wcr: fitness,
                class,
                predicted_severity: None,
            };
            (record, id)
        });
        Scored {
            fitness,
            entry,
            refreshed_reference: measured.refreshed_reference,
        }
    }

    /// Functional verification: re-probe at the pass-region extreme, where
    /// only outright functional failure can reject. A test living on the
    /// edge of its functional envelope flickers under measurement noise
    /// and can fake a deep trip point (§4's "false convergence"); such
    /// candidates must not enter the database. With recovery enabled the
    /// verification strobes run through the same retry / voting ladder,
    /// so a single injected flip cannot disqualify a healthy candidate.
    ///
    /// Both confirmation strobes are issued as one [`BatchOracle`] batch:
    /// the verdicts are bit-identical to two sequential probes, but the
    /// tester amortizes condition setup and device evaluation over the
    /// pair instead of paying it per strobe.
    ///
    /// [`BatchOracle`]: cichar_search::BatchOracle
    fn functionally_verified(
        ate: &mut Ate,
        prepared: &PreparedTest<'_>,
        param: MeasuredParam,
        recovery: Option<RetryPolicy>,
        span: &SpanTrace,
        scratch: &mut SearchScratch,
    ) -> bool {
        use cichar_search::BatchOracle;
        let extreme = match param.region_order() {
            RegionOrder::PassBelowFail => param.generous_range().start(),
            RegionOrder::PassAboveFail => param.generous_range().end(),
        };
        // Verification strobes report into the evaluation's span (fault
        // and retry events), like the measurement they vet. Both the
        // forces and verdict buffers come from `scratch` — the pair of
        // confirmation strobes allocates nothing.
        ate.set_trace(span.clone());
        let forces = std::mem::take(&mut scratch.forces);
        let verified = match recovery {
            None => {
                let mut oracle = ate.trip_oracle_prepared(prepared, param, forces);
                scratch.spec.clear();
                oracle.probe_batch_into(&[extreme, extreme], &mut scratch.spec);
                scratch.forces = oracle.into_forces();
                scratch.spec.iter().all(|&p| p == Probe::Pass)
            }
            Some(policy) => {
                let oracle_span = ate.trace().clone();
                let inner = ate.trip_oracle_prepared(prepared, param, forces);
                let mut oracle =
                    RobustOracle::from_scratch(inner, policy, scratch).with_trace(oracle_span);
                scratch.spec.clear();
                oracle.probe_batch_into(&[extreme, extreme], &mut scratch.spec);
                let (inner, stats) = oracle.recycle_parts(scratch);
                scratch.forces = inner.into_forces();
                ate.absorb_recovery(&stats);
                scratch.spec.iter().all(|&p| p == Probe::Pass)
            }
        };
        ate.set_trace(SpanTrace::disabled());
        verified
    }
}

/// `ga_` and the evaluation number, zero-padded to six digits, written
/// into a string sized for it (`format!` would reserve less, then grow).
fn ga_name(number: usize) -> String {
    let digits = number.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut name = String::with_capacity("ga_".len() + digits.max(6));
    let _ = write!(name, "ga_{number:06}");
    name
}

/// Packages a finished run: emits one
/// [`TraceEvent::GaGenerationEvaluated`] campaign event per generation of
/// the GA history, after the evaluations themselves have been absorbed,
/// and picks the single worst test.
fn outcome(
    tracer: &Tracer,
    database: WorstCaseDatabase,
    ga: GaResult,
    measurements_used: u64,
    reference_trip_point: Option<f64>,
) -> OptimizationOutcome {
    if tracer.is_enabled() {
        for stats in &ga.history {
            tracer.emit_campaign(TraceEvent::GaGenerationEvaluated {
                generation: stats.generation as u64,
                best_so_far: stats.best_so_far,
                generation_best: stats.generation_best,
                mean: stats.mean,
            });
        }
    }
    let best = database
        .entries()
        .first()
        .or_else(|| database.failures().first())
        .expect("at least one individual measured")
        .clone();
    OptimizationOutcome {
        database,
        ga,
        measurements_used,
        best,
        reference_trip_point,
    }
}

/// The product of one fitness evaluation.
struct Scored {
    fitness: f64,
    /// The database record when the search converged and survived
    /// functional verification (its trip point is the anchor candidate),
    /// with the identity its `PreparedTest` computed.
    entry: Option<(WorstCaseTest, u64)>,
    /// The fresh eq. 2 anchor a re-bracketing fallback found; only the
    /// shared-session body re-anchors on it.
    refreshed_reference: Option<f64>,
}

/// The ATE-measured WCR fitness as a batch evaluator — the
/// per-evaluation-session body: anchors the reference trip point
/// sequentially, fans out anchored evaluations on derived-seed sessions,
/// and folds ledgers and database inserts back **in evaluation order**.
struct WcrEvaluator<'a> {
    scheme: &'a OptimizationScheme,
    searches: (SuccessiveApproximation, RebracketingStp),
    blueprint: &'a ParallelAte,
    policy: ExecPolicy,
    evaluated: usize,
    rtp: Option<f64>,
    database: WorstCaseDatabase,
    ledger: MeasurementLedger,
    tracer: &'a Tracer,
    telemetry: &'a Telemetry,
}

impl FitnessEvaluator for WcrEvaluator<'_> {
    fn evaluate(&mut self, individual: &Individual) -> f64 {
        self.evaluate_batch(std::slice::from_ref(individual))[0]
    }

    fn evaluate_batch(&mut self, batch: &[Individual]) -> Vec<f64> {
        let base = self.evaluated;
        self.evaluated += batch.len();
        let (scheme, searches) = (self.scheme, &self.searches);
        let (blueprint, tracer) = (self.blueprint, self.tracer);
        // Evaluation `index` on its own derived-seed session; its ledger
        // and span come back for the in-order fold.
        let score_one = |index: usize,
                         individual: &Individual,
                         reference: Option<f64>,
                         scratch: &mut SearchScratch| {
            let span = tracer.span(index as u64);
            let mut session = blueprint.session(index as u64);
            let scored = scheme.score(
                &mut session,
                individual,
                index,
                reference,
                searches,
                &span,
                scratch,
            );
            // Stamp on the worker, so a timing sidecar measures the
            // evaluation, not absorb latency.
            span.mark_done();
            (scored, *session.ledger(), span)
        };
        let mut records = Vec::with_capacity(batch.len());
        // Eq. 2 anchoring is a data dependence: run sequentially until a
        // verified trip point exists.
        let mut anchor_scratch = SearchScratch::new();
        let mut cursor = 0;
        while cursor < batch.len() && self.rtp.is_none() {
            let record = score_one(base + cursor, &batch[cursor], None, &mut anchor_scratch);
            self.rtp = record.0.entry.as_ref().map(|(e, _)| e.trip_point);
            records.push(record);
            cursor += 1;
        }
        let reference = self.rtp;
        records.extend(cichar_exec::par_map_ref_scratch(
            self.policy,
            &batch[cursor..],
            SearchScratch::new,
            |i, individual, scratch| score_one(base + cursor + i, individual, reference, scratch),
        ));
        records
            .into_iter()
            .enumerate()
            .map(|(i, (scored, ledger, span))| {
                self.ledger.merge(&ledger);
                self.tracer.absorb(span);
                if let Some((entry, id)) = scored.entry {
                    self.database.insert_identified(entry, id);
                }
                // Evaluation-order merge = the GA's deterministic fold
                // point. The total evaluation count is unknown up front
                // (early stop, stagnation restarts), so it reads as 0.
                self.telemetry.tick(|| {
                    Progress::units(
                        "ga",
                        (self.ledger.test_time_ms() * 1000.0) as u64,
                        (base + i + 1) as u64,
                        0,
                    )
                });
                scored.fitness
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsv::{MultiTripRunner, SearchStrategy};
    use crate::wcr::WcrClass;
    use cichar_dut::MemoryDevice;
    use cichar_patterns::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> OptimizationConfig {
        OptimizationConfig {
            ga: GaConfig {
                population_size: 16,
                islands: 2,
                generations: 12,
                stagnation_restart: 8,
                target_fitness: Some(1.0),
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        }
    }

    #[test]
    fn ga_finds_worse_tests_than_random_sampling() {
        let scheme = OptimizationScheme::new(small_config());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(41);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());

        // Random baseline with the same measurement style.
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let mut rng2 = StdRng::seed_from_u64(42);
        let randoms: Vec<Test> = (0..60)
            .map(|_| random::random_test_at(&mut rng2, TestConditions::nominal()))
            .collect();
        let mut ate2 = Ate::noiseless(MemoryDevice::nominal());
        let report = runner.run(
            &mut ate2,
            &randoms,
            SearchStrategy::SearchUntilTrip,
            &Tracer::disabled(),
        );
        let random_best = report.min().expect("converged");

        assert!(
            outcome.best.trip_point < random_best,
            "GA best {} should beat 60 random tests' best {random_best}",
            outcome.best.trip_point
        );
    }

    #[test]
    fn database_is_populated_and_sorted() {
        let scheme = OptimizationScheme::new(small_config());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(43);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());
        assert!(!outcome.database.is_empty());
        let wcrs: Vec<f64> = outcome.database.entries().iter().map(|e| e.wcr).collect();
        for pair in wcrs.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert_eq!(outcome.best.wcr, wcrs[0].max(outcome.best.wcr));
    }

    #[test]
    fn measurements_are_accounted() {
        let scheme = OptimizationScheme::new(small_config());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(44);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());
        assert_eq!(outcome.measurements_used, ate.ledger().measurements());
        assert!(outcome.measurements_used > outcome.ga.evaluations as u64);
    }

    #[test]
    fn known_reference_skips_full_searches() {
        let scheme = OptimizationScheme::new(small_config());
        let mut rng = StdRng::seed_from_u64(45);
        let mut ate_b = Ate::noiseless(MemoryDevice::nominal());
        let without_ref = scheme.run(&mut ate_b, &[], None, &mut rng, &Tracer::disabled());
        // Replay the identical campaign, but hand it the reference the
        // first run had to pay a full search (eq. 2) to discover. Same GA
        // trajectory (same seeds, same reference), one full search less.
        let mut rng = StdRng::seed_from_u64(45);
        let mut ate_a = Ate::noiseless(MemoryDevice::nominal());
        let with_ref = scheme.run(
            &mut ate_a,
            &[],
            without_ref.reference_trip_point,
            &mut rng,
            &Tracer::disabled(),
        );
        assert!(without_ref.reference_trip_point.is_some());
        assert_eq!(with_ref.reference_trip_point, without_ref.reference_trip_point);
        assert!(with_ref.measurements_used <= without_ref.measurements_used);
    }

    #[test]
    fn ga_names_are_zero_padded_into_strings_sized_for_them() {
        for (number, want) in [(1, "ga_000001"), (999_999, "ga_999999"), (1_234_567, "ga_1234567")] {
            let name = ga_name(number);
            assert_eq!(name, want);
            assert_eq!(name.capacity(), want.len(), "{want}");
        }
    }

    #[test]
    fn decode_respects_pinned_conditions() {
        let scheme = OptimizationScheme::new(small_config());
        let mut rng = StdRng::seed_from_u64(46);
        let ind = scheme.layout().random(&mut rng);
        let test = scheme.decode(&ind, "t");
        assert_eq!(*test.conditions(), TestConditions::nominal());
        assert_eq!(test.source(), TestSource::NeuralGa);
    }

    #[test]
    fn two_species_layout_when_conditions_evolve() {
        let scheme = OptimizationScheme::new(OptimizationConfig {
            evolve_conditions: true,
            ..small_config()
        });
        assert_eq!(scheme.layout().chromosome_count(), 2);
        let mut rng = StdRng::seed_from_u64(47);
        let ind = scheme.layout().random(&mut rng);
        let test = scheme.decode(&ind, "t");
        assert!(scheme.config().space.validate(test.conditions()).is_ok());
    }

    #[test]
    fn evolved_conditions_find_harsher_corners() {
        // With the condition species active the GA should discover that
        // low Vdd / high temperature / fast clock shrink the window.
        let scheme = OptimizationScheme::new(OptimizationConfig {
            evolve_conditions: true,
            ga: GaConfig {
                population_size: 16,
                islands: 2,
                generations: 30,
                target_fitness: None,
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        });
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(48);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());
        let best_vdd = outcome.best.test.conditions().vdd.value();
        assert!(
            best_vdd < 1.7,
            "GA should starve the supply, got {best_vdd} V"
        );
        assert!(outcome.best.trip_point < 24.0, "{}", outcome.best);
    }

    #[test]
    fn seeds_are_encoded_and_used() {
        let scheme = OptimizationScheme::new(small_config());
        let mut rng = StdRng::seed_from_u64(49);
        let seed_test = random::random_test_at(&mut rng, TestConditions::nominal());
        let candidate = Candidate {
            test: seed_test,
            predicted_severity: 0.9,
            confidence: 0.8,
        };
        let encoded = scheme.encode_seed(&candidate).expect("program stimulus");
        assert_eq!(encoded.chromosomes.len(), 1);
        assert!(scheme.layout().validate(&encoded));
        // Raw-pattern tests cannot seed.
        let raw = Candidate {
            test: Test::deterministic("m", cichar_patterns::march::march_x(96)),
            predicted_severity: 0.5,
            confidence: 0.5,
        };
        assert!(scheme.encode_seed(&raw).is_none());
    }

    #[test]
    fn wcr_target_stops_early_when_reachable() {
        // An absurdly low WCR target: the very first generation satisfies
        // it, so the run must stop far short of the generation budget.
        let scheme = OptimizationScheme::new(OptimizationConfig {
            ga: GaConfig {
                population_size: 12,
                islands: 1,
                generations: 50,
                target_fitness: Some(0.55),
                ..GaConfig::default()
            },
            ..OptimizationConfig::default()
        });
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(50);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());
        assert!(
            outcome.ga.history.len() < 50,
            "stopped after {} generations",
            outcome.ga.history.len()
        );
        assert!(outcome.best.wcr >= 0.55);
    }

    #[test]
    fn parallel_run_matches_sequential_on_noiseless_sessions() {
        use cichar_ate::{AteConfig, DriftModel, NoiseModel};
        let scheme = OptimizationScheme::new(small_config());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let sequential = scheme.run(
            &mut ate,
            &[],
            None,
            &mut StdRng::seed_from_u64(52),
            &Tracer::disabled(),
        );
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                noise: NoiseModel::noiseless(),
                drift: DriftModel::none(),
                seed: 0,
                ..AteConfig::default()
            },
        );
        let (parallel, ledger) = scheme.run_parallel(
            &blueprint,
            &[],
            None,
            ExecPolicy::with_threads(4),
            &mut StdRng::seed_from_u64(52),
            &Tracer::disabled(),
            &Telemetry::disabled(),
        );
        assert_eq!(parallel, sequential);
        assert_eq!(ledger.measurements(), sequential.measurements_used);
    }

    #[test]
    fn parallel_run_is_thread_count_invariant_even_with_noise() {
        use cichar_ate::AteConfig;
        let scheme = OptimizationScheme::new(small_config());
        // Default config is noisy: per-evaluation derived seeds keep the
        // GA trajectory schedule independent anyway.
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), AteConfig::default());
        let run = |threads: usize| {
            scheme.run_parallel(
                &blueprint,
                &[],
                None,
                ExecPolicy::with_threads(threads),
                &mut StdRng::seed_from_u64(53),
                &Tracer::disabled(),
                &Telemetry::disabled(),
            )
        };
        let (serial_outcome, serial_ledger) = run(1);
        let (wide_outcome, wide_ledger) = run(8);
        assert_eq!(wide_outcome, serial_outcome);
        assert_eq!(wide_ledger, serial_ledger);
    }

    #[test]
    fn faulty_fitness_with_recovery_is_thread_count_invariant() {
        use cichar_ate::{AteConfig, TesterFaultModel};
        let scheme = OptimizationScheme::new(OptimizationConfig {
            recovery: Some(RetryPolicy::new(3, 100.0).with_vote(2, 3)),
            ..small_config()
        });
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                faults: TesterFaultModel::transient(0.02, 0.01),
                seed: 7,
                ..AteConfig::default()
            },
        );
        let run = |threads: usize| {
            scheme.run_parallel(
                &blueprint,
                &[],
                None,
                ExecPolicy::with_threads(threads),
                &mut StdRng::seed_from_u64(54),
                &Tracer::disabled(),
                &Telemetry::disabled(),
            )
        };
        let (serial_outcome, serial_ledger) = run(1);
        let (wide_outcome, wide_ledger) = run(8);
        assert_eq!(wide_outcome, serial_outcome);
        assert_eq!(wide_ledger, serial_ledger);
        // The injected faults and their recovery show up in the ledger.
        assert!(serial_ledger.injected_faults() > 0);
        assert!(serial_ledger.retries() > 0);
        // And the campaign still produced a plausible worst case.
        assert!(serial_outcome.best.trip_point.is_finite());
    }

    #[test]
    fn functional_verification_spends_exactly_two_batched_strobes() {
        use cichar_ate::{AteConfig, NoiseModel};
        let test = Test::deterministic("m", cichar_patterns::march::march_x(96));
        let param = MeasuredParam::DataValidTime;
        let span = SpanTrace::disabled();
        // Probe-count regression: the batched pair must cost the same two
        // measurements the scalar loop always did — amortization, not
        // extra strobes.
        let prepared = PreparedTest::new(&test);
        let mut scratch = SearchScratch::new();
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        assert!(OptimizationScheme::functionally_verified(
            &mut ate,
            &prepared,
            param,
            None,
            &span,
            &mut scratch,
        ));
        assert_eq!(ate.ledger().measurements(), 2);
        // And the batch changes no physics: on a noisy twin session the
        // two batched strobes see exactly the noise draws two sequential
        // measurements would have.
        let config = AteConfig {
            noise: NoiseModel::new(0.05, 0.1, 0.01),
            seed: 23,
            ..AteConfig::default()
        };
        let mut batched = Ate::with_config(MemoryDevice::nominal(), config.clone());
        let verified = OptimizationScheme::functionally_verified(
            &mut batched,
            &prepared,
            param,
            None,
            &span,
            &mut scratch,
        );
        let mut scalar = Ate::with_config(MemoryDevice::nominal(), config);
        let extreme = param.generous_range().start();
        let sequential =
            (0..2).all(|_| scalar.measure(&test, param, extreme) == Probe::Pass);
        assert_eq!(verified, sequential);
        assert_eq!(*batched.ledger(), *scalar.ledger());
    }

    #[test]
    fn outcome_display_mentions_cost() {
        let scheme = OptimizationScheme::new(small_config());
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let mut rng = StdRng::seed_from_u64(51);
        let outcome = scheme.run(&mut ate, &[], None, &mut rng, &Tracer::disabled());
        assert!(outcome.to_string().contains("ATE measurements"));
        assert_ne!(outcome.best.class, WcrClass::Fail, "device is healthy");
    }
}

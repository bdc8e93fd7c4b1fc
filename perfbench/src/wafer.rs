//! The two wafer workloads: `wafer_lot` (the hot probe path) and
//! `wafer_recover` (crash-resume under faults with journal and telemetry).

use crate::alloc::{self, AllocSpan};
use crate::common::{
    digest, fresh_dir, median, ratio, timed_at_reference, work_dir, Args, Reference, RunResult,
};
use crate::isolate;
use crate::layers::{CountingBackend, CountingSink, DutSnapshot};
use cichar_ate::{AteConfig, MeasuredParam, MeasurementLedger, TesterFaultModel};
use cichar_core::dsv::SearchStrategy;
use cichar_core::journal::ResumeStats;
use cichar_core::wafer::{WaferConfig, WaferReport, WaferRunner};
use cichar_core::wcr::CharacterizationObjective;
use cichar_dut::{Device, DeviceBackend, Die, MemoryDevice, NetlistDevice};
use cichar_exec::{derive_seed, ExecPolicy};
use cichar_patterns::{random, ConditionSpace, Test, TestConditions};
use cichar_search::RetryPolicy;
use cichar_trace::{NullSink, Telemetry, TraceSink, Tracer};
use cichar_units::ParamRange;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const PARAM: MeasuredParam = MeasuredParam::DataValidTime;
const SITES: usize = 8;
const SKETCH_BUCKETS: usize = 256;
/// The lot's worst case is its trip point at this quantile (sketch
/// bucket midpoint), not its single lowest one: on `wafer_recover` the
/// lowest is one fault-driven search about half the time, and
/// `worst_wcr` then read 0.89 against 0.71 between seeds.
const WORST_QUANTILE: f64 = 0.001;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The shape of one wafer workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    name: &'static str,
    netlist: bool,
    dies: usize,
    tests: usize,
    chunk_touchdowns: usize,
    random_conditions: bool,
    faults: bool,
    durable: bool,
    /// What the timed campaign is scaled by: the lot is probe arithmetic,
    /// the resume mostly journal parsing. Set-up (searches and journal
    /// writes) is scaled by `Reference::Compute` on both.
    reference: Reference,
}

/// The hot probe path: memory backend, nominal conditions, 1 thread, no
/// faults, no journal, no telemetry.
pub const LOT: Spec = Spec {
    name: "wafer_lot",
    netlist: false,
    dies: 500,
    tests: 384,
    chunk_touchdowns: 32,
    random_conditions: false,
    faults: false,
    durable: false,
    reference: Reference::Compute,
};

/// Crash-resume: netlist backend, random conditions (one plan-cache miss
/// per search), 2% flips + 1% dropouts with 4 retries and 2-of-3 votes,
/// journal and telemetry armed.
pub const RECOVER: Spec = Spec {
    name: "wafer_recover",
    netlist: true,
    dies: 640,
    tests: 32,
    chunk_touchdowns: 8,
    random_conditions: true,
    faults: true,
    durable: true,
    reference: Reference::Journal,
};

impl Spec {
    fn backend(&self) -> Box<dyn DeviceBackend> {
        if self.netlist {
            Box::new(NetlistDevice::nominal())
        } else {
            Box::new(MemoryDevice::nominal())
        }
    }

    fn policy(threads: usize) -> ExecPolicy {
        if threads == 1 {
            ExecPolicy::serial()
        } else {
            ExecPolicy::with_threads(threads)
        }
    }

    fn chunks(&self) -> usize {
        self.dies.div_ceil(SITES).div_ceil(self.chunk_touchdowns)
    }

    /// Chunks committed by the simulated crash.
    fn crashed_chunks(&self) -> usize {
        self.chunks() / 2
    }
}

/// Everything set-up produces.
struct Inputs {
    dies: Vec<Die>,
    tests: Vec<Test>,
    ate: AteConfig,
    device: Device,
}

/// The scratch directories of one run.
struct Dirs {
    journal: PathBuf,
    telemetry: PathBuf,
    harvest: PathBuf,
    copy: PathBuf,
}

impl Dirs {
    fn new(root: &Path) -> Self {
        Self {
            journal: root.join("journal"),
            telemetry: root.join("telemetry"),
            harvest: root.join("harvest"),
            copy: root.join("copy"),
        }
    }
}

/// One timed campaign.
struct Rep {
    /// Seconds at the reference host speed (see `timed_at_reference`).
    secs: f64,
    /// Raw wall seconds.
    raw_secs: f64,
    report: WaferReport,
    ledger: MeasurementLedger,
    stats: ResumeStats,
    alloc: AllocSpan,
    heartbeats: u64,
}

impl Rep {
    fn digest(&self) -> u64 {
        digest(&(&self.report, &self.ledger))
    }

    fn trips(&self) -> f64 {
        self.report.aggregate.entries as f64
    }

    fn live_trips(&self) -> f64 {
        (self.report.aggregate.entries - self.stats.entries_replayed) as f64
    }
}

/// How the trace layer is armed for a campaign.
#[derive(Clone)]
enum Tracing {
    /// Tracer and telemetry disabled.
    Off,
    /// A tracer over `sink`, with telemetry fed from it.
    Armed(Arc<dyn TraceSink>),
}

fn make_inputs(spec: &Spec, seed: u64) -> Inputs {
    let device = Device::from_backend(spec.backend());
    let dies = device.sample_dies(derive_seed(seed, 1), spec.dies);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
    // A corner box around nominal (±5% supply and clock, 0–85 °C):
    // every test still has conditions of its own, so the plan cache
    // misses once per search, but the lot's worst case does not hinge on
    // one test landing in the far corner of the characterization box.
    let space = ConditionSpace::new(
        ParamRange::new(1.71, 1.89).expect("static range"),
        ParamRange::new(0.0, 85.0).expect("static range"),
        ParamRange::new(95.0, 105.0).expect("static range"),
    );
    let tests = (0..spec.tests)
        .map(|_| {
            if spec.random_conditions {
                random::random_test(&mut rng, &space)
            } else {
                random::random_test_at(&mut rng, TestConditions::nominal())
            }
        })
        .collect();
    let faults = if spec.faults {
        TesterFaultModel::transient(0.02, 0.01)
    } else {
        TesterFaultModel::none()
    };
    Inputs {
        dies,
        tests,
        ate: AteConfig {
            faults,
            seed: derive_seed(seed, 3),
            ..AteConfig::default()
        },
        device,
    }
}

fn runner(
    spec: &Spec,
    device: &Device,
    journal: Option<&Path>,
    telemetry: Telemetry,
) -> WaferRunner {
    let runner = WaferRunner::new(PARAM)
        .with_device(device.clone())
        .with_config(WaferConfig {
            sites: SITES,
            chunk_touchdowns: spec.chunk_touchdowns,
            sketch_buckets: SKETCH_BUCKETS,
            journal_dir: journal.map(Path::to_path_buf),
            ..WaferConfig::default()
        })
        .with_telemetry(telemetry);
    if spec.faults {
        runner.with_recovery(RetryPolicy::new(4, 50.0).with_vote(2, 3))
    } else {
        runner
    }
}

/// Set-up: inputs, device, a warm-up lot of 1/16 of the dies and, for the
/// durable workload, the crashed first half of the campaign.
fn setup(spec: &Spec, seed: u64, dirs: &Dirs) -> io::Result<Inputs> {
    let inputs = make_inputs(spec, seed);
    let warm = &inputs.dies[..(spec.dies / 16).max(SITES)];
    runner(spec, &inputs.device, None, Telemetry::disabled()).run(
        &inputs.ate,
        warm,
        &inputs.tests,
        SearchStrategy::SearchUntilTrip,
        Spec::policy(1),
    )?;
    if spec.durable {
        fresh_dir(&dirs.journal)?;
        let committed = runner(
            spec,
            &inputs.device,
            Some(&dirs.journal),
            Telemetry::disabled(),
        )
        .run_prefix(
            &inputs.ate,
            &inputs.dies,
            &inputs.tests,
            SearchStrategy::SearchUntilTrip,
            Spec::policy(1),
            spec.crashed_chunks(),
        )?;
        if committed != spec.crashed_chunks() as u64 {
            return Err(io::Error::other(
                "run_prefix committed fewer chunks than asked",
            ));
        }
    }
    Ok(inputs)
}

/// Puts the journal back in its crashed state: only the first half of
/// the chunks committed, no summary.
fn reset_to_crash(spec: &Spec, journal: &Path) -> io::Result<()> {
    for index in spec.crashed_chunks()..spec.chunks() {
        let path = journal.join(format!("journal_chunk_{index:05}.jsonl"));
        if path.exists() {
            std::fs::remove_file(path)?;
        }
    }
    let summary = journal.join("wafer_summary.json");
    if summary.exists() {
        std::fs::remove_file(summary)?;
    }
    Ok(())
}

/// One timed campaign: the whole lot, or the resume of the crashed one.
fn campaign(
    spec: &Spec,
    inputs: &Inputs,
    device: &Device,
    dirs: &Dirs,
    threads: usize,
    tracing: &Tracing,
) -> io::Result<Rep> {
    let (tracer, telemetry) = match tracing {
        Tracing::Off => (Tracer::disabled(), Telemetry::disabled()),
        Tracing::Armed(sink) => {
            let tracer = Tracer::new(Arc::clone(sink));
            fresh_dir(&dirs.telemetry)?;
            let telemetry = Telemetry::create(&dirs.telemetry, spec.name, tracer.clone())?;
            (tracer, telemetry)
        }
    };
    let policy = Spec::policy(threads);
    let strategy = SearchStrategy::SearchUntilTrip;
    if spec.durable {
        reset_to_crash(spec, &dirs.journal)?;
    }
    let r = runner(
        spec,
        device,
        spec.durable.then_some(dirs.journal.as_path()),
        telemetry.clone(),
    );
    alloc::start_region();
    let (secs, raw_secs, out) = timed_at_reference(spec.reference, threads, || -> io::Result<_> {
        let out = if spec.durable {
            r.resume_traced(
                &inputs.ate,
                &inputs.dies,
                &inputs.tests,
                strategy,
                policy,
                &tracer,
            )?
        } else {
            let (report, ledger) =
                r.run(&inputs.ate, &inputs.dies, &inputs.tests, strategy, policy)?;
            (report, ledger, ResumeStats::default())
        };
        telemetry.finish()?;
        Ok(out)
    });
    let alloc = alloc::region();
    let (report, ledger, stats) = out?;
    Ok(Rep {
        secs,
        raw_secs,
        report,
        ledger,
        stats,
        alloc,
        heartbeats: telemetry.heartbeats(),
    })
}

/// The workload's own tracing: armed (into a discarding sink) on the
/// durable workload, off on the lot.
fn native_tracing(spec: &Spec) -> Tracing {
    if spec.durable {
        Tracing::Armed(Arc::new(NullSink))
    } else {
        Tracing::Off
    }
}

/// Runs `spec` and reports its metrics.
///
/// # Errors
///
/// Propagates journal, telemetry and scratch-directory I/O errors.
pub fn run(spec: &Spec, args: &Args) -> io::Result<RunResult> {
    let root = work_dir(spec.name);
    fresh_dir(&root)?;
    let dirs = Dirs::new(&root);
    let result = if args.trace {
        traced(spec, args, &dirs)
    } else {
        end_to_end(spec, args, &dirs)
    };
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// Checks shared by both modes: the resumed campaign equals an
/// uninterrupted run of the same inputs, and the report reconciles.
fn check_report(result: &mut RunResult, spec: &Spec, inputs: &Inputs, rep: &Rep) -> io::Result<()> {
    let report = &rep.report;
    result.check(
        report.aggregate.entries == (spec.dies * spec.tests) as u64
            && rep.ledger.measurements() == report.total_measurements,
        "report covers dies x tests and reconciles with its ledger",
    );
    if spec.durable {
        result.check(
            rep.stats.chunks_replayed == spec.crashed_chunks() as u64,
            "resume replayed exactly the crashed prefix",
        );
        let (report, ledger) = runner(spec, &inputs.device, None, Telemetry::disabled()).run(
            &inputs.ate,
            &inputs.dies,
            &inputs.tests,
            SearchStrategy::SearchUntilTrip,
            Spec::policy(1),
        )?;
        result.check(
            digest(&(&report, &ledger)) == rep.digest(),
            "resumed report and ledger equal the uninterrupted run",
        );
    }
    Ok(())
}

fn end_to_end(spec: &Spec, args: &Args, dirs: &Dirs) -> io::Result<RunResult> {
    let mut result = RunResult::default();
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    let mut raw_setup = Vec::new();
    for _ in 0..SETUPS {
        let (secs, raw, built) =
            timed_at_reference(Reference::Compute, 1, || setup(spec, args.seed, dirs));
        setup_secs.push(secs);
        raw_setup.push(raw);
        inputs = Some(built?);
    }
    let inputs = inputs.expect("SETUPS > 0");
    let tracing = native_tracing(spec);

    let mut reps: Vec<Rep> = Vec::new();
    let mut first_digest = None;
    let start = Instant::now();
    while reps.len() < 3 || (start.elapsed().as_secs_f64() < args.seconds && reps.len() < 500) {
        let rep = campaign(spec, &inputs, &inputs.device, dirs, 1, &tracing)?;
        let d = rep.digest();
        let expected = *first_digest.get_or_insert(d);
        result.check(d == expected, "repetition reproduces the first repetition");
        reps.push(rep);
    }
    check_report(&mut result, spec, &inputs, &reps[0])?;

    let raw: Vec<f64> = reps.iter().map(|r| r.raw_secs).collect();
    eprintln!(
        "{}: raw wall medians: campaign {:.4} s over {} repetitions, setup {:.4} s",
        spec.name,
        median(&raw),
        reps.len(),
        median(&raw_setup)
    );
    let first = &reps[0];
    let trips = first.trips();
    let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let campaign_s = median(&secs);
    let allocs: Vec<f64> = reps.iter().map(|r| r.alloc.calls as f64 / trips).collect();
    let peaks: Vec<f64> = reps
        .iter()
        .map(|r| r.alloc.peak_bytes as f64 / (1u64 << 20) as f64)
        .collect();
    let aggregate = &first.report.aggregate;
    result.set("setup_s", median(&setup_secs));
    result.set("campaign_s", campaign_s);
    result.set("trips_per_s", trips / campaign_s);
    result.set("tester_ms_per_trip", first.ledger.test_time_ms() / trips);
    result.set(
        "probes_per_trip",
        first.ledger.non_speculative_measurements() as f64 / trips,
    );
    result.set("allocs_per_trip", median(&allocs));
    result.set("peak_alloc_mib", median(&peaks));
    result.set(
        "worst_wcr",
        aggregate
            .quantile(WORST_QUANTILE)
            .map_or(0.0, |tp| objective().wcr(tp)),
    );
    result.set(
        "settled_share",
        1.0 - aggregate.quarantined as f64 / aggregate.entries as f64,
    );
    Ok(result)
}

/// The paper's `T_DQ` objective (eq. 6, 20 ns spec): the lowest trip
/// point of a lot is its worst case.
fn objective() -> CharacterizationObjective {
    CharacterizationObjective::drift_to_minimum(20.0)
}

/// Median seconds (at the reference host speed, and raw) of `n`
/// campaigns, with the first one kept.
fn median_of(n: usize, mut once: impl FnMut() -> io::Result<Rep>) -> io::Result<(f64, f64, Rep)> {
    let (mut secs, mut raw) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut first = None;
    for _ in 0..n {
        let rep = once()?;
        secs.push(rep.secs);
        raw.push(rep.raw_secs);
        first.get_or_insert(rep);
    }
    Ok((median(&secs), median(&raw), first.expect("n > 0")))
}

fn traced(spec: &Spec, args: &Args, dirs: &Dirs) -> io::Result<RunResult> {
    let mut result = RunResult::default();
    let inputs = setup(spec, args.seed, dirs)?;
    let counting = CountingBackend::device(spec.backend());
    let plain_tracing = native_tracing(spec);
    let sink = Arc::new(CountingSink::new(Arc::new(NullSink)));
    let counting_tracing = if spec.durable {
        Tracing::Armed(sink.clone())
    } else {
        Tracing::Off
    };
    let reps = if args.seconds >= 8.0 { 3 } else { 2 };

    // A. The workload as measured end to end, plain and wrapped,
    // interleaved: the overhead of the wrappers, and the work counts.
    let (mut plain_secs, mut wrapped_secs, mut plain_raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut plain_first: Option<Rep> = None;
    let mut counted: Option<(Rep, DutSnapshot, u64)> = None;
    for _ in 0..reps {
        let rep = campaign(spec, &inputs, &inputs.device, dirs, 1, &plain_tracing)?;
        plain_secs.push(rep.secs);
        plain_raw.push(rep.raw_secs);
        let plain = plain_first.get_or_insert(rep);
        let (before, records) = (DutSnapshot::now(), sink.records());
        let rep = campaign(spec, &inputs, &counting, dirs, 1, &counting_tracing)?;
        wrapped_secs.push(rep.secs);
        let dut = DutSnapshot::now().since(&before);
        let events = sink.records() - records;
        result.check(
            rep.digest() == plain.digest(),
            "wrapped campaign equals the plain campaign",
        );
        if let Some((_, first_dut, first_events)) = &counted {
            result.check(
                dut == *first_dut && events == *first_events,
                "per-layer counts repeat exactly",
            );
        }
        counted.get_or_insert((rep, dut, events));
    }
    let plain = plain_first.expect("reps > 0");
    let (counted_rep, dut, events) = counted.expect("reps > 0");
    check_report(&mut result, spec, &inputs, &plain)?;
    let t_plain = median(&plain_secs);
    result.set(
        "bench.tracing_overhead",
        median(&wrapped_secs) / t_plain - 1.0,
    );

    // B. The same campaign on two threads, for the thread pool's
    // efficiency, and — where the workload arms it — with tracer and
    // telemetry off, for the trace layer by difference. Neither changes
    // results.
    let (t2, _, two) = median_of(reps, || {
        campaign(spec, &inputs, &inputs.device, dirs, 2, &plain_tracing)
    })?;
    result.check(
        two.digest() == plain.digest(),
        "two threads give the same results",
    );
    let efficiency = t_plain / (2.0 * t2);
    let t_den = median(&plain_raw);
    let trace_ns = if spec.durable {
        let (t_bare, _, bare) = median_of(reps, || {
            campaign(spec, &inputs, &inputs.device, dirs, 1, &Tracing::Off)
        })?;
        result.check(
            bare.digest() == plain.digest(),
            "tracing never changes results",
        );
        (1.0 - t_bare / t_plain) * t_den * 1e9
    } else {
        0.0
    };
    result.set("exec.parallel_efficiency", efficiency);

    // C. Device, tester and search costs on the workload's own searches.
    let sample = &inputs.dies[..(8192 / spec.tests).clamp(1, spec.dies)];
    let recovery = spec
        .faults
        .then(|| RetryPolicy::new(4, 50.0).with_vote(2, 3));
    let costs = isolate::probe_costs(
        &inputs.device,
        &counting,
        sample,
        &inputs.tests,
        &inputs.ate,
        PARAM,
        recovery,
    );

    // D. Journal and fold costs over the campaign's own journal (the lot
    // writes one for this purpose only; it journals nothing when timed).
    let journal_dir = if spec.durable {
        dirs.journal.clone()
    } else {
        fresh_dir(&dirs.harvest)?;
        runner(
            spec,
            &inputs.device,
            Some(&dirs.harvest),
            Telemetry::disabled(),
        )
        .run(
            &inputs.ate,
            &inputs.dies,
            &inputs.tests,
            SearchStrategy::SearchUntilTrip,
            Spec::policy(1),
        )?;
        dirs.harvest.clone()
    };
    let range = PARAM.generous_range();
    let split = plain.stats.chunks_replayed;
    let jc = isolate::journal_and_fold(
        &journal_dir,
        &dirs.copy,
        (range.start(), range.end()),
        SKETCH_BUCKETS,
        split,
    )?;

    // Counts per live (measured, not replayed) search.
    let ledger = &plain.ledger;
    let aggregate = &plain.report.aggregate;
    let live = plain.live_trips();
    let live_strobes = (ledger.measurements() - jc.strobes_before_split) as f64;
    result.set("dut.evals_per_trip", dut.evals as f64 / live);
    result.set("dut.ns_per_eval", costs.ns_per_eval);
    result.set("dut.prepares_per_trip", dut.prepares as f64 / live);
    result.set("ate.strobes_per_trip", live_strobes / live);
    result.set("ate.ns_per_strobe", costs.ate_ns_per_strobe);
    result.set("search.ns_per_trip", costs.search_ns_per_trip);
    result.set(
        "search.speculative_share",
        ratio(
            ledger.speculative_probes() as f64,
            ledger.measurements() as f64,
        ),
    );
    result.set(
        "search.retries_per_trip",
        ledger.retries() as f64 / plain.trips(),
    );
    result.set(
        "search.recovered_share",
        aggregate.recovered as f64 / plain.trips(),
    );
    result.set("wafer.ns_per_touchdown_fold", jc.fold_ns_per_touchdown);
    let durable = if spec.durable { 1.0 } else { 0.0 };
    result.set("journal.bytes_per_chunk", durable * jc.bytes_per_chunk);
    result.set(
        "journal.commit_ms_per_chunk",
        durable * jc.commit_ms_per_chunk,
    );
    result.set("journal.load_ms_per_chunk", durable * jc.load_ms_per_chunk);
    result.set("trace.events_per_trip", events as f64 / live);
    result.set("trace.heartbeats", counted_rep.heartbeats as f64);
    for name in [
        "neural.epochs",
        "neural.ns_per_sample_epoch",
        "neural.share",
        "genetic.fitness_evals",
        "genetic.ns_per_eval",
        "genetic.share",
    ] {
        result.set(name, 0.0);
    }

    // Shares of the one-thread plain campaign.
    let live_chunks = (jc.chunks - split) as f64;
    let shares = [
        ("dut.share", costs.dut_ns(&dut)),
        ("ate.share", costs.ate_ns_per_strobe * live_strobes),
        ("search.share", costs.search_ns_per_trip * live),
        (
            "wafer.share",
            jc.fold_ns_per_touchdown * plain.report.touchdowns as f64,
        ),
        (
            "journal.share",
            durable
                * (jc.commit_ms_per_chunk * live_chunks + jc.load_ms_per_chunk * split as f64)
                * 1e6,
        ),
        ("trace.share", trace_ns),
    ];
    result.set_shares(&shares, t_den * 1e9);
    Ok(result)
}

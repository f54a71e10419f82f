//! The batch workloads: whole simulations on the sequential or the
//! sharded engine, repeated over one seeded input for the run's window.
//!
//! Untraced repetitions give the end-to-end metrics; with tracing on,
//! traced repetitions (every policy wrapped in [`Timed`] at
//! [`Level::Full`], Adaptive-RL's phase profiler attached) alternate with
//! untraced ones, and must replay the untraced result exactly.

use crate::clock;
use crate::report::{median, Metric, Outcome};
use crate::sys;
use crate::timed::{CallStats, Level, Marks, Sink, Timed};
use adaptive_rl::AdaptiveRl;
use baselines::{GreedyEdf, OnlineRl, PredictionBased, QPlusLearning, RoundRobin};
use experiments::{Scenario, SchedulerKind};
use platform::{audit_result, replay_divergence, ExecEngine, Platform, RunResult};
use simcore::rng::RngStream;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{Phase, PhaseProfiler};
use workload::Task;

/// Seed of the simulated platform. The platform is the system under
/// test and stays fixed; `--seed` varies the workload and the policies'
/// own random streams. 2011 is the `arls serve` and `arls settings`
/// default.
pub const PLATFORM_SEED: u64 = 2011;
/// Tasks per replication of `paper-light`.
pub const LIGHT_TASKS: usize = 2_500;
/// Tasks per replication of `scale-sharded`.
pub const SCALE_TASKS: usize = 100_000;
/// Worker threads of `scale-sharded`.
pub const SCALE_WORKERS: usize = 1;
/// Untraced sequential Adaptive-RL runs are cut into segments of this
/// many `dispatch` calls (sharded runs: one segment per epoch).
pub const SEGMENT_CALLS: u64 = 128;

/// One batch workload: a scenario, the policies run back to back on
/// it, and (for sharded runs) the worker-thread count.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Platform, workload and engine settings; its seed drives the
    /// workload and the policies.
    pub scenario: Scenario,
    /// Policies, each run once per repetition on the same input.
    pub kinds: Vec<SchedulerKind>,
    /// `Some(workers)` runs on `platform::run_sharded`.
    pub workers: Option<usize>,
    /// Independent workloads per repetition; the schedule-quality
    /// metrics are their mean, as in the figures' replicated runs.
    pub replications: usize,
}

impl Batch {
    /// `paper-light`: the experiment platform at offered load 0.5, all
    /// six policies back to back (the shape of `arls compare`), four
    /// workloads per repetition.
    pub fn paper_light(seed: u64) -> Self {
        Batch {
            scenario: Scenario::new(seed, LIGHT_TASKS, 0.5),
            kinds: SchedulerKind::all_six(),
            workers: None,
            replications: 4,
        }
    }

    /// `scale-sharded`: the 100-site scaling platform at offered load
    /// 0.2 (the paper's lightly loaded state, ~36 epochs for 100 k
    /// tasks), Adaptive-RL on the sharded engine with one worker thread
    /// beside the coordinator. With two workers on a 2-vCPU shared host
    /// each epoch waits for the slower vCPU, and the run's speed
    /// followed the other tenants (interquartile range 0.17 of the
    /// median over five seeds, against 0.06 with one worker).
    pub fn scale_sharded(seed: u64) -> Self {
        Batch {
            scenario: Scenario::scaling(seed, SCALE_TASKS, 0.2),
            kinds: vec![adaptive()],
            workers: Some(SCALE_WORKERS),
            replications: 1,
        }
    }

    /// The scenario seed of replication `i`: the run's seed itself for
    /// the first, independent derived streams for the rest.
    pub fn replication_seed(&self, i: usize) -> u64 {
        match i {
            0 => self.scenario.seed,
            _ => RngStream::root(self.scenario.seed)
                .derive_indexed("perfbench.replication", i as u64)
                .seed(),
        }
    }
}

/// One policy run's inputs.
pub struct Input {
    /// Scenario seed: the workload's and the policies' streams.
    pub seed: u64,
    /// The platform.
    pub platform: Platform,
    /// The workload.
    pub tasks: Vec<Task>,
}

/// A built scenario: the platform and every replication's seed and
/// workload.
pub struct Built {
    /// The platform, shared by every replication.
    pub platform: Platform,
    /// `(scenario seed, workload)` of each replication.
    pub workloads: Vec<(u64, Vec<Task>)>,
}

/// Adaptive-RL with its default configuration.
pub fn adaptive() -> SchedulerKind {
    SchedulerKind::all_six().swap_remove(0)
}

/// Short metric tag of a policy (`sched.<tag>_s`).
pub fn tag(kind: &SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Adaptive(_) => "adaptive",
        SchedulerKind::Online(_) => "online",
        SchedulerKind::QPlus(_) => "qplus",
        SchedulerKind::Prediction(_) => "prediction",
        SchedulerKind::RoundRobin => "rr",
        SchedulerKind::GreedyEdf => "greedy",
    }
}

/// The per-policy seed mask the experiment harness applies, so a run
/// here matches `experiments::runner` for the same scenario seed.
pub fn seeded(kind: &SchedulerKind, seed: u64) -> SchedulerKind {
    let mut kind = kind.clone();
    match &mut kind {
        SchedulerKind::Adaptive(c) => c.seed = seed ^ 0xA11,
        SchedulerKind::Online(c) => c.seed = seed ^ 0x011,
        SchedulerKind::QPlus(c) => c.seed = seed ^ 0x901,
        SchedulerKind::Prediction(c) => c.seed = seed ^ 0x9E1,
        SchedulerKind::RoundRobin | SchedulerKind::GreedyEdf => {}
    }
    kind
}

/// What one policy run cost. The engine's result itself is checked and
/// dropped, so memory does not grow with the repetition count.
pub struct KindRun {
    /// Tasks completed.
    pub tasks_done: usize,
    /// Engine events processed.
    pub events: u64,
    /// Wrapper totals, merged across sites in site order for sharded
    /// runs; `dispatch_ticks` holds the decision latencies in call order
    /// ([`Level::Latency`] runs only).
    pub stats: CallStats,
    /// `[wall, cpu]` seconds of each segment of the run, cut at the
    /// wrapper's marks ([`Level::Latency`] runs; else the whole run is
    /// one segment). Their walls add up to `wall_s`.
    pub segments: Vec<[f64; 2]>,
    /// Scheduler seconds per worker thread (sharded runs).
    pub per_worker_s: Vec<f64>,
    /// Adaptive-RL's phase profiler totals (traced runs only).
    pub phases: Option<Phases>,
    /// Wall seconds of the engine call.
    pub wall_s: f64,
}

/// Raw phase totals from Adaptive-RL's profiler hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Seconds building observations.
    pub obs_build_s: f64,
    /// Seconds scoring candidates with the MLP.
    pub score_s: f64,
    /// Scoring calls.
    pub score_calls: u64,
    /// Seconds training the MLP.
    pub train_s: f64,
}

/// Runs `kind` once over `input`, unwrapped or wrapped in [`Timed`] at
/// `level`; [`Level::Full`] also attaches Adaptive-RL's phase profiler.
pub fn run_kind(
    batch: &Batch,
    kind: &SchedulerKind,
    input: Input,
    level: Option<Level>,
) -> (RunResult, KindRun) {
    let sc = &batch.scenario;
    let Input {
        seed,
        platform,
        tasks,
    } = input;
    let sites = platform.num_sites();
    let adaptive = matches!(kind, SchedulerKind::Adaptive(_));
    let prof = (level == Some(Level::Full) && adaptive).then(|| Arc::new(PhaseProfiler::new()));
    let marks = match (level, batch.workers) {
        (Some(Level::Latency), None) => Marks::Dispatch(SEGMENT_CALLS),
        (Some(Level::Latency), Some(_)) => Marks::Drain,
        _ => Marks::None,
    };
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let (result, mut stats, per_worker_s) = match batch.workers {
        Some(workers) => {
            let SchedulerKind::Adaptive(cfg) = seeded(kind, seed) else {
                panic!("sharded workloads run Adaptive-RL only");
            };
            let sink: Sink = Arc::new(Mutex::new(Vec::new()));
            let result = match level {
                None => platform::run_sharded(platform, tasks, sc.exec, workers, &|g| {
                    AdaptiveRl::for_shard(g, sites, cfg)
                }),
                Some(level) => {
                    let factory = |g: usize| {
                        let mut s = AdaptiveRl::for_shard(g, sites, cfg);
                        if let Some(p) = &prof {
                            s = s.with_profiler(p.clone());
                        }
                        // Site g < workers is the first site of worker g,
                        // so its drain marks when that worker finished
                        // advancing the epoch.
                        let marks = if g < workers { marks } else { Marks::None };
                        Timed::new(s, level)
                            .with_sink(sink.clone(), g)
                            .with_marks(marks)
                    };
                    platform::run_sharded(platform, tasks, sc.exec, workers, &factory)
                }
            };
            let mut published = std::mem::take(&mut *sink.lock().expect("stats sink poisoned"));
            published.sort_by_key(|p| p.site);
            let mut merged = CallStats::default();
            let mut per_worker: BTreeMap<String, f64> = BTreeMap::new();
            let mut epoch_ends: Vec<(Instant, Duration)> = Vec::new();
            for p in &published {
                merged.merge(&p.stats);
                *per_worker.entry(format!("{:?}", p.thread)).or_default() += p.stats.total_s();
                // An epoch ends when its last worker has advanced it.
                if epoch_ends.is_empty() {
                    epoch_ends.clone_from(&p.stats.marks);
                } else if !p.stats.marks.is_empty() {
                    epoch_ends.truncate(p.stats.marks.len());
                    for (end, m) in epoch_ends.iter_mut().zip(&p.stats.marks) {
                        if m.0 > end.0 {
                            *end = *m;
                        }
                    }
                }
            }
            merged.marks = epoch_ends;
            (result, merged, per_worker.into_values().collect())
        }
        None => {
            let engine = ExecEngine::new(sc.exec);
            macro_rules! go {
                ($s:expr) => {{
                    let s = $s;
                    match level {
                        None => {
                            let mut s = s;
                            (engine.run(platform, tasks, &mut s), CallStats::default())
                        }
                        Some(level) => {
                            let mut s = Timed::new(s, level).with_marks(marks);
                            let r = engine.run(platform, tasks, &mut s);
                            (r, s.take_stats())
                        }
                    }
                }};
            }
            let (r, stats) = match seeded(kind, seed) {
                SchedulerKind::Adaptive(cfg) => {
                    let mut s = AdaptiveRl::new(sites, cfg);
                    if let Some(p) = &prof {
                        s = s.with_profiler(p.clone());
                    }
                    go!(s)
                }
                SchedulerKind::Online(cfg) => go!(OnlineRl::new(sites, cfg)),
                SchedulerKind::QPlus(cfg) => go!(QPlusLearning::new(sites, cfg)),
                SchedulerKind::Prediction(cfg) => go!(PredictionBased::new(sites, cfg)),
                SchedulerKind::RoundRobin => go!(RoundRobin::new(sites)),
                SchedulerKind::GreedyEdf => go!(GreedyEdf::new(sites)),
            };
            let total = stats.total_s();
            (r, stats, vec![total])
        }
    };
    let (t1, cpu1) = (Instant::now(), sys::process_cpu());
    let wall_s = (t1 - t0).as_secs_f64();
    let mut cuts = vec![(t0, cpu0)];
    cuts.extend(std::mem::take(&mut stats.marks));
    cuts.push((t1, cpu1));
    let segments = cuts
        .windows(2)
        .map(|w| {
            let wall = w[1].0.saturating_duration_since(w[0].0).as_secs_f64();
            let cpu = w[1].1.saturating_sub(w[0].1).as_secs_f64();
            [wall, cpu]
        })
        .collect();
    let phases = prof.map(|p| {
        let report = p.report();
        let get = |ph: Phase| {
            report
                .phases
                .iter()
                .find(|s| s.phase == ph.name())
                .map_or((0.0, 0), |s| (s.total_s, s.calls))
        };
        Phases {
            obs_build_s: get(Phase::ObsBuild).0,
            score_s: get(Phase::Score).0,
            score_calls: get(Phase::Score).1,
            train_s: get(Phase::Train).0,
        }
    });
    let run = KindRun {
        tasks_done: result.records.len(),
        events: result.events_processed,
        stats,
        segments,
        per_worker_s,
        phases,
        wall_s,
    };
    (result, run)
}

/// Builds the platform and every replication's workload; returns them
/// with the platform, workload and total build seconds.
pub fn build(batch: &Batch) -> (Built, [f64; 3]) {
    let fixed = Scenario {
        seed: PLATFORM_SEED,
        ..batch.scenario.clone()
    };
    let t0 = Instant::now();
    let platform = fixed.build_platform();
    let t1 = Instant::now();
    let workloads = (0..batch.replications)
        .map(|i| {
            let seed = batch.replication_seed(i);
            let sc = Scenario {
                seed,
                ..batch.scenario.clone()
            };
            (seed, sc.build_workload(&platform))
        })
        .collect();
    let t2 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let built = Built {
        platform,
        workloads,
    };
    (built, [secs(t0, t1), secs(t1, t2), secs(t0, t2)])
}

/// `slot`'s value for the last user, a copy for the others.
fn take_or_clone<T: Clone>(slot: &mut Option<T>, last: bool) -> T {
    match last {
        true => slot.take(),
        false => slot.clone(),
    }
    .expect("taken only by the last user")
}

/// Build timings: `[platform, workload, total]` samples.
#[derive(Default)]
struct Builds([Vec<f64>; 3]);

impl Builds {
    fn push(&mut self, t: [f64; 3]) {
        for (v, x) in self.0.iter_mut().zip(t) {
            v.push(x);
        }
    }

    fn medians(&self) -> [f64; 3] {
        [median(&self.0[0]), median(&self.0[1]), median(&self.0[2])]
    }
}

/// Counts what is wrong with `r`: audit violations and incomplete tasks.
fn check(r: &RunResult, problems: &mut Vec<String>) -> u64 {
    let audit = audit_result(r);
    let bad = audit.violation_count() + r.incomplete as u64;
    if bad > 0 {
        problems.push(format!(
            "{}: {} audit violations, {} incomplete",
            r.scheduler,
            audit.violation_count(),
            r.incomplete
        ));
    }
    bad
}

/// The least cost, piece by piece, of one (replication, policy) pair
/// over the untraced repetitions. Every repetition runs the same input,
/// so the pair's segments and decisions line up one to one.
#[derive(Default)]
struct Best {
    /// Least `[wall, cpu]` seconds of each segment.
    segments: Vec<[f64; 2]>,
    /// Least duration in clock ticks of each decision.
    decisions: Vec<u32>,
    folded: usize,
}

impl Best {
    /// Folds in `run`'s segments and decisions, taking them out of it.
    fn fold(&mut self, run: &mut KindRun) -> Result<(), String> {
        let segments = std::mem::take(&mut run.segments);
        let decisions = std::mem::take(&mut run.stats.dispatch_ticks);
        self.folded += 1;
        if self.folded == 1 {
            self.segments = segments;
            self.decisions = decisions;
            return Ok(());
        }
        if segments.len() != self.segments.len() || decisions.len() != self.decisions.len() {
            return Err(format!(
                "repetition {} cut into {} segments and {} decisions, the first into {} and {}",
                self.folded,
                segments.len(),
                decisions.len(),
                self.segments.len(),
                self.decisions.len()
            ));
        }
        for (b, s) in self.segments.iter_mut().zip(&segments) {
            b[0] = b[0].min(s[0]);
            b[1] = b[1].min(s[1]);
        }
        for (b, d) in self.decisions.iter_mut().zip(&decisions) {
            *b = (*b).min(*d);
        }
        Ok(())
    }

    fn wall(&self) -> f64 {
        self.segments.iter().map(|s| s[0]).sum()
    }

    fn cpu(&self) -> f64 {
        self.segments.iter().map(|s| s[1]).sum()
    }

    /// Median of the decisions' least durations, in ms.
    fn lat_p50_ms(&self) -> f64 {
        let d: Vec<f64> = self.decisions.iter().copied().map(f64::from).collect();
        clock::secs(median(&d) as u64) * 1e3
    }
}

/// One repetition: every policy over every replication once.
struct Rep {
    /// Indexed `[replication][kind]`.
    runs: Vec<Vec<KindRun>>,
    /// Wall seconds of the whole repetition, checks included.
    block_s: f64,
}

impl Rep {
    fn all(&self) -> impl Iterator<Item = &KindRun> {
        self.runs.iter().flatten()
    }

    fn wall(&self) -> f64 {
        self.all().map(|r| r.wall_s).sum()
    }
}

/// Runs the workload for `seconds` and derives its metrics.
///
/// The scenario is built afresh before every repetition, which consumes
/// it: the last run on each workload takes it, and the runs before get
/// copies, so no build outlives its repetition. `setup_s` is the median
/// of those builds, spread over the whole run so that no one slow
/// stretch of a shared host decides it.
pub fn run(batch: &Batch, seconds: f64, trace: bool) -> Outcome {
    let mut builds = Builds::default();
    let mut out = Outcome::default();
    // The first result of each (replication, policy); every later run of
    // the pair, traced or not, must replay it exactly.
    let mut reference: Vec<Vec<Option<RunResult>>> =
        vec![vec![None; batch.kinds.len()]; batch.replications];
    let mut best: Vec<Vec<Best>> = (0..batch.replications)
        .map(|_| batch.kinds.iter().map(|_| Best::default()).collect())
        .collect();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // Each repetition runs on the next CPU the benchmark may use, in
    // turn. On a shared host one vCPU can run slow for tens of seconds
    // while another runs fast; a thread left on the slow one makes the
    // whole run slow, while taking turns lets every segment of the run
    // meet the fast one (see `end_to_end`).
    let cpus = sys::allowed_cpus();
    let mut turn = 0usize;
    let start = Instant::now();
    let min_reps = 3;
    let mut peak_rss_mb = 0.0;
    let mut i = 0usize;
    while plain.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        // With tracing on, traced and untraced repetitions alternate
        // (ABBA order) so drift hits both alike.
        let order: &[bool] = match (trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &full in order {
            if cpus.len() > 1 {
                sys::set_affinity(&cpus[turn % cpus.len()..][..1]);
                turn += 1;
            }
            let (built, took) = build(batch);
            builds.push(took);
            let t0 = Instant::now();
            let last_r = built.workloads.len() - 1;
            let mut platform = Some(built.platform);
            let mut runs = Vec::with_capacity(built.workloads.len());
            for (r, (seed, tasks)) in built.workloads.into_iter().enumerate() {
                let mut tasks = Some(tasks);
                let mut row = Vec::with_capacity(batch.kinds.len());
                for (k, kind) in batch.kinds.iter().enumerate() {
                    let level = match (full, kind) {
                        (true, _) => Some(Level::Full),
                        (false, SchedulerKind::Adaptive(_)) => Some(Level::Latency),
                        (false, _) => None,
                    };
                    let last_k = k + 1 == batch.kinds.len();
                    let input = Input {
                        seed,
                        platform: take_or_clone(&mut platform, last_k && r == last_r),
                        tasks: take_or_clone(&mut tasks, last_k),
                    };
                    let (result, mut run) = run_kind(batch, kind, input, level);
                    if !full {
                        if let Err(e) = best[r][k].fold(&mut run) {
                            out.failed += 1;
                            out.problems.push(format!("{}: {e}", kind.label()));
                        }
                    }
                    out.attempted += result.num_tasks as u64;
                    out.failed += check(&result, &mut out.problems);
                    match &reference[r][k] {
                        None => reference[r][k] = Some(result),
                        Some(first) => {
                            if let Some(d) = replay_divergence(first, &result) {
                                out.failed += 1;
                                out.problems.push(format!("{}: {d}", kind.label()));
                            }
                        }
                    }
                    row.push(run);
                }
                runs.push(row);
            }
            let rep = Rep {
                runs,
                block_s: t0.elapsed().as_secs_f64(),
            };
            if full {
                traced.push(rep);
            } else {
                plain.push(rep);
                // Every later repetition repeats the same work; its
                // memory grows only with the allocator's fragmentation,
                // so the peak is read after a fixed count, not a time.
                if plain.len() == min_reps {
                    peak_rss_mb = sys::peak_rss_mb("self").unwrap_or(0.0);
                }
            }
        }
        i += 1;
    }
    if cpus.len() > 1 {
        sys::set_affinity(&cpus);
    }
    let [plat_s, work_s, setup_s] = builds.medians();
    out.reps = plain.len();
    let adaptive_at = batch
        .kinds
        .iter()
        .position(|k| matches!(k, SchedulerKind::Adaptive(_)))
        .expect("every batch workload runs Adaptive-RL");
    let results: Vec<&RunResult> = reference
        .iter()
        .map(|row| row[adaptive_at].as_ref().expect("at least one repetition"))
        .collect();
    let tasks = plain[0].all().map(|r| r.tasks_done as f64).sum();
    out.e2e = end_to_end(tasks, &best, adaptive_at, &results, setup_s, peak_rss_mb);
    if trace {
        let cpu: f64 = best.iter().flatten().map(Best::cpu).sum();
        out.layers = layers(batch, &plain, &traced, plat_s, work_s);
        out.layers.push(Metric::new(
            "cpu_ms_per_ktask",
            cpu * 1e3 / (tasks / 1e3),
            "ms",
        ));
    }
    out
}

fn end_to_end(
    tasks: f64,
    best: &[Vec<Best>],
    adaptive_at: usize,
    results: &[&RunResult],
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    // Each timing adds up, over every (replication, policy) pair and
    // every segment of its run, the segment's least cost over the
    // repetitions. The host is shared, and other tenants flip the same
    // run between a fast and a slow mode (up to 1.7x apart) from moment
    // to moment; a whole run rarely stays in the fast mode, but each
    // segment, a few milliseconds long, does in some repetition.
    let wall: f64 = best.iter().flatten().map(Best::wall).sum();
    let lat = best
        .iter()
        .map(|row| row[adaptive_at].lat_p50_ms())
        .sum::<f64>()
        / best.len() as f64;
    let mean = |f: &dyn Fn(&RunResult) -> f64| {
        results.iter().map(|r| f(r)).sum::<f64>() / results.len() as f64
    };
    vec![
        Metric::new("tasks_per_s", tasks / wall, "1/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("energy_mj", mean(&|r| r.total_energy) * 1e-6, "MJ"),
        Metric::new("deadline_met_frac", mean(&|r| r.success_rate()), "fraction"),
        Metric::new("avg_response", mean(&|r| r.avg_response_time()), "t.u."),
        Metric::new("lat_p50_ms", lat, "ms"),
    ]
}

fn layers(batch: &Batch, plain: &[Rep], traced: &[Rep], plat_s: f64, work_s: f64) -> Vec<Metric> {
    let n = traced.len() as f64;
    let mut m = Vec::new();
    let mut all = CallStats::default();
    let mut wall = 0.0;
    let mut events = 0u64;
    let mut block = 0.0;
    let mut per_kind: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut phases = Phases::default();
    let mut adaptive_s = 0.0;
    let (mut worker_max, mut worker_mean) = (0.0, 0.0);
    for rep in traced {
        block += rep.block_s;
        for (kind, run) in rep.runs.iter().flat_map(|row| batch.kinds.iter().zip(row)) {
            all.merge(&run.stats);
            wall += run.wall_s;
            events += run.events;
            // The engine's own time is the wall not covered by the
            // busiest thread's scheduler calls (the only thread when
            // sequential).
            let sched = run.stats.total_s();
            let busiest = run.per_worker_s.iter().cloned().fold(0.0, f64::max);
            let e = per_kind.entry(tag(kind)).or_default();
            e.0 += sched;
            e.1 += run.wall_s - busiest;
            if let Some(p) = run.phases {
                phases.obs_build_s += p.obs_build_s;
                phases.score_s += p.score_s;
                phases.score_calls += p.score_calls;
                phases.train_s += p.train_s;
                adaptive_s += sched;
            }
            let busy = &run.per_worker_s;
            worker_max += busy.iter().cloned().fold(0.0, f64::max);
            worker_mean += busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        }
    }
    let sched_s = all.total_s();
    let plain_wall = median(&plain.iter().map(Rep::wall).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(Rep::wall).collect::<Vec<_>>());
    let per = |x: f64| x / n;
    let dispatch_s = all.dispatch.secs();
    m.push(Metric::new("trace.reps", n, "count"));
    m.push(Metric::new("trace.wall_s", per(block), "s"));
    m.push(Metric::new(
        "trace.overhead_frac",
        traced_wall / plain_wall - 1.0,
        "fraction",
    ));
    m.push(Metric::new("sched.dispatch_s", per(dispatch_s), "s"));
    m.push(Metric::new(
        "sched.dispatch_calls",
        per(all.dispatch.calls as f64),
        "count",
    ));
    m.push(Metric::new(
        "sched.dispatch_empty_frac",
        all.dispatch_empty as f64 / all.dispatch.calls.max(1) as f64,
        "fraction",
    ));
    m.push(Metric::new(
        "sched.commands",
        per(all.commands as f64),
        "count",
    ));
    m.push(Metric::new(
        "sched.us_per_command",
        dispatch_s * 1e6 / all.commands.max(1) as f64,
        "us",
    ));
    m.push(Metric::new(
        "sched.arrivals_s",
        per(all.arrivals.secs()),
        "s",
    ));
    m.push(Metric::new(
        "sched.feedback_s",
        per(all.feedback.secs()),
        "s",
    ));
    m.push(Metric::new("sched.tick_s", per(all.tick.secs()), "s"));
    m.push(Metric::new(
        "sched.pending_mean",
        all.pending_sum as f64 / all.dispatch.calls.max(1) as f64,
        "tasks",
    ));
    m.push(Metric::new(
        "sched.pending_max",
        all.pending_max as f64,
        "tasks",
    ));
    m.push(Metric::new(
        "core.obs_build_s",
        per(phases.obs_build_s),
        "s",
    ));
    m.push(Metric::new("neural.score_s", per(phases.score_s), "s"));
    m.push(Metric::new(
        "neural.score_calls",
        per(phases.score_calls as f64),
        "count",
    ));
    m.push(Metric::new("neural.train_s", per(phases.train_s), "s"));
    m.push(Metric::new(
        "core.self_s",
        per(adaptive_s - phases.obs_build_s - phases.score_s - phases.train_s),
        "s",
    ));
    m.push(Metric::new("engine.events", per(events as f64), "count"));
    for (kind, (s, e)) in &per_kind {
        m.push(Metric::new(&format!("sched.{kind}_s"), per(*s), "s"));
        m.push(Metric::new(&format!("engine.{kind}_self_s"), per(*e), "s"));
    }
    match batch.workers {
        None => {
            let engine_self = wall - sched_s;
            m.push(Metric::new("engine.self_s", per(engine_self), "s"));
            m.push(Metric::new(
                "engine.ns_per_event",
                engine_self * 1e9 / events.max(1) as f64,
                "ns",
            ));
        }
        Some(workers) => {
            let (max, mean) = (worker_max, worker_mean);
            m.push(Metric::new("shard.workers", workers as f64, "count"));
            m.push(Metric::new("shard.sched_s_max", per(max), "s"));
            m.push(Metric::new("shard.sched_s_mean", per(mean), "s"));
            m.push(Metric::new(
                "shard.imbalance",
                max / mean.max(f64::MIN_POSITIVE),
                "ratio",
            ));
            m.push(Metric::new(
                "shard.sync_records",
                per(all.sync_records as f64),
                "count",
            ));
            m.push(Metric::new(
                "shard.apply_sync_calls",
                per(all.apply_sync_calls as f64),
                "count",
            ));
            m.push(Metric::new(
                "shard.apply_sync_s",
                per(all.apply_sync_s()),
                "s",
            ));
            m.push(Metric::new("shard.other_s", per(wall - max), "s"));
        }
    }
    m.push(Metric::new("platform.build_s", plat_s, "s"));
    m.push(Metric::new("workload.build_s", work_s, "s"));
    m.push(Metric::new("unattributed_s", per(block - wall), "s"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_run(segments: Vec<[f64; 2]>, decisions: Vec<u32>) -> KindRun {
        KindRun {
            tasks_done: 0,
            events: 0,
            stats: CallStats {
                dispatch_ticks: decisions,
                ..CallStats::default()
            },
            segments,
            per_worker_s: Vec::new(),
            phases: None,
            wall_s: 0.0,
        }
    }

    #[test]
    fn best_keeps_the_least_cost_of_each_piece() {
        let mut best = Best::default();
        let mut a = kind_run(vec![[1.0, 2.0], [5.0, 1.0]], vec![7, 3]);
        let mut b = kind_run(vec![[2.0, 1.0], [4.0, 3.0]], vec![5, 4]);
        best.fold(&mut a).unwrap();
        best.fold(&mut b).unwrap();
        assert_eq!(best.segments, [[1.0, 1.0], [4.0, 1.0]]);
        assert_eq!(best.decisions, [5, 3]);
        assert_eq!((best.wall(), best.cpu()), (5.0, 2.0));
        // The runs' own samples were taken out of them.
        assert!(a.segments.is_empty() && b.stats.dispatch_ticks.is_empty());
    }

    #[test]
    fn best_refuses_runs_cut_differently() {
        let mut best = Best::default();
        best.fold(&mut kind_run(vec![[1.0, 1.0]], vec![1])).unwrap();
        let err = best.fold(&mut kind_run(vec![[1.0, 1.0]; 2], vec![1]));
        assert!(err.is_err());
    }
}

//! Small-size checks of every workload runner, of the delegating
//! wrapper, of the result line and of `BENCHMARK.json`.

use arl_perfbench::batch::{self, Batch, Input};
use arl_perfbench::report::{self, Metric};
use arl_perfbench::serve;
use arl_perfbench::timed::Level;
use experiments::{runner, Scenario, SchedulerKind};
use platform::replay_divergence;
use std::path::Path;
use std::process::Command;
use telemetry::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_arl-perfbench");

fn small(seed: u64, kinds: Vec<SchedulerKind>, workers: Option<usize>) -> Batch {
    Batch {
        scenario: Scenario::small(seed, 150, 0.8),
        kinds,
        workers,
        replications: 1,
    }
}

fn input(b: &Batch) -> Input {
    let (platform, tasks) = b.scenario.build();
    Input {
        seed: b.scenario.seed,
        platform,
        tasks,
    }
}

fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn wrapped_runs_replay_the_harness_run() {
    for kind in SchedulerKind::all_six() {
        let b = small(7, vec![kind.clone()], None);
        let reference = runner::run_scenario(&b.scenario, &kind);
        for level in [None, Some(Level::Latency), Some(Level::Full)] {
            let (r, run) = batch::run_kind(&b, &kind, input(&b), level);
            assert_eq!(replay_divergence(&reference, &r), None, "{}", kind.label());
            if level.is_some() {
                assert!(run.stats.dispatch.calls > 0);
            }
            if level == Some(Level::Latency) {
                assert!(!run.stats.dispatch_ticks.is_empty());
                assert!(run.segments.len() > 1);
            }
            assert_segments_cover_the_run(&run);
            if level == Some(Level::Full) {
                // Every task handed in was handed back out.
                assert_eq!(run.stats.pending, 0, "{}", kind.label());
                assert!(run.stats.commands > 0 && run.stats.feedback.calls > 0);
                assert_eq!(run.phases.is_some(), kind == batch::adaptive());
            }
        }
    }
}

#[test]
fn wrapped_sharded_runs_replay_the_harness_run() {
    let b = small(5, vec![batch::adaptive()], Some(2));
    let reference = runner::run_sharded(&b.scenario, &batch::adaptive(), 2);
    for level in [None, Some(Level::Latency), Some(Level::Full)] {
        let (r, run) = batch::run_kind(&b, &batch::adaptive(), input(&b), level);
        assert_eq!(replay_divergence(&reference, &r), None);
        assert_segments_cover_the_run(&run);
        if level == Some(Level::Latency) {
            // One segment per epoch, plus the tail after the last one.
            assert!(run.segments.len() > 2, "{}", run.segments.len());
        }
        if level == Some(Level::Full) {
            assert!(run.stats.sync_records > 0);
            // Two sites: every record is applied at the one other site.
            assert_eq!(run.stats.apply_sync_calls, run.stats.sync_records);
            assert!((1..=2).contains(&run.per_worker_s.len()));
        }
    }
}

fn assert_segments_cover_the_run(run: &batch::KindRun) {
    let wall: f64 = run.segments.iter().map(|s| s[0]).sum();
    assert!(
        (wall - run.wall_s).abs() <= 1e-6,
        "{wall} vs {}",
        run.wall_s
    );
    assert!(run.segments.iter().all(|s| s[1] >= 0.0));
}

fn check_batch(b: &Batch) {
    let out = batch::run(b, 0.05, true);
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    assert!(out.problems.is_empty() && out.attempted > 0 && out.reps >= 3);
    let e2e = report::select(&out.e2e, &report::schema().end_to_end, false).unwrap();
    assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");
    let l = report::select(&out.layers, &report::schema().per_layer, true).unwrap();
    // The layer times and the unattributed rest add up to the wall.
    let covered = match b.workers {
        None => ["adaptive", "online", "qplus", "prediction", "rr", "greedy"]
            .iter()
            .map(|k| value(&l, &format!("sched.{k}_s")) + value(&l, &format!("engine.{k}_self_s")))
            .sum::<f64>(),
        Some(_) => value(&l, "shard.sched_s_max") + value(&l, "shard.other_s"),
    };
    let wall = value(&l, "trace.wall_s");
    let sum = covered + value(&l, "unattributed_s");
    assert!(
        (sum - wall).abs() <= 1e-9 * wall.max(1.0),
        "{sum} vs {wall}"
    );
    assert!(value(&l, "sched.dispatch_calls") > 0.0 && value(&l, "neural.score_calls") > 0.0);
}

#[test]
fn paper_light_runner_small() {
    let mut b = small(3, SchedulerKind::all_six(), None);
    b.replications = 2;
    check_batch(&b);
}

#[test]
fn scale_sharded_runner_small() {
    check_batch(&small(6, vec![batch::adaptive()], Some(2)));
}

#[test]
fn serve_open_runner_small() {
    let out = serve::run(Path::new(EXE), 9, 1.0, true);
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    let e2e = report::select(&out.e2e, &report::schema().end_to_end, false).unwrap();
    assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");
    let l = report::select(&out.layers, &report::schema().per_layer, true).unwrap();
    let sent = value(&l, "serve.sent");
    assert!(sent > 0.0 && sent == out.attempted as f64);
    for n in ["serve.acked", "serve.placed", "serve.done"] {
        assert_eq!(value(&l, n), sent, "{n}");
    }
    assert_eq!(value(&l, "serve.rejected"), 0.0);
    // The readiness probe is the one extra line the daemon read.
    assert_eq!(value(&l, "serve.ingest_lines"), sent + 1.0);
}

#[test]
fn serve_schedule_is_seeded() {
    let a = serve::plan(1, 3.0, 400.0, 500.0, 5);
    assert_eq!(a.len(), serve::plan(1, 3.0, 400.0, 500.0, 5).len());
    assert!(a
        .iter()
        .zip(&serve::plan(1, 3.0, 400.0, 500.0, 5))
        .all(|(x, y)| x.line == y.line));
    assert_ne!(a[0].line, serve::plan(2, 3.0, 400.0, 500.0, 5)[0].line);
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    // Rates climb the ladder (25 % .. 100 % of 400 tasks/s); the 50 %
    // rung runs three times as long as the others.
    let per_rung: Vec<usize> = (0..4)
        .map(|r| a.iter().filter(|p| p.rung == r).count())
        .collect();
    assert!(
        per_rung[0] < per_rung[3] && per_rung[3] < per_rung[1],
        "{per_rung:?}"
    );
}

#[test]
fn binary_prints_a_parseable_result_line() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "paper-light",
            "--seed",
            "3",
            "--seconds",
            "0.05",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let v = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = v.get("metrics").and_then(Json::as_object).unwrap();
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = report::schema()
        .end_to_end
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    want.sort_unstable();
    assert_eq!(names, want);

    let bad = Command::new(EXE)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let v = json::parse(&text).unwrap();
    let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for name in &report::schema().workloads {
        assert!(
            arl_perfbench::runner(name).is_some(),
            "{name} has no runner"
        );
    }
    let bounds: Vec<(String, f64)> = v
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
            (name, e.get("bound").and_then(Json::as_f64).unwrap())
        })
        .collect();
    let largest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
    assert!(
        bounds.iter().all(|b| b.1 > 0.0 && b.1 <= 0.25),
        "{bounds:?}"
    );
    assert!(bounds.iter().any(|b| b.0 == "setup_s" && b.1 == largest));
}

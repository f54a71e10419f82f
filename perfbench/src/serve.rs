//! The `serve-open` workload: a fresh `arls serve` daemon driven
//! open-loop over one TCP connection.
//!
//! The daemon runs in a child process (this binary's `serve-daemon`
//! mode, which is `arls serve` itself). Submissions of one task each
//! arrive as a Poisson stream on a fixed schedule made from the seed,
//! climbing a ladder of offered rates (a share of the served platform's
//! nominal task capacity at the daemon's pace). The client never waits
//! for a reply before sending: between sends it blocks on the socket
//! until the next one is due, and every latency is taken from the
//! instant a submission was *due*, so a stall also delays the
//! submissions queued behind it. How late the generator itself ran is
//! reported alongside.

use crate::batch::PLATFORM_SEED;
use crate::report::{median, Metric, Outcome};
use crate::sys;
use experiments::config::MEAN_TASK_SIZE_MI;
use experiments::Scenario;
use simcore::rng::RngStream;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::submit::{Notification, Submission, SubmitTask};
use workload::{PriorityMix, SiteId};

/// Sim time units the daemon advances per wall second.
pub const PACE: f64 = 50.0;
/// Offered rates, as shares of nominal task capacity at [`PACE`].
pub const RUNGS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// Each rung's share of the run. The headline rung gets half, so its
/// figures rest on the most samples; the full-load rung stays short, as
/// a long one lets the backlog, and with it the latency, drift.
pub const RUNG_TIME: [f64; 4] = [1.0 / 6.0, 0.5, 1.0 / 6.0, 1.0 / 6.0];
/// The rung whose median ack latency and schedule quality are the
/// end-to-end figures: half load, clear of the queueing swings of a
/// saturated platform.
pub const HEADLINE_RUNG: usize = 1;
/// Ack p99 limit for a rung to count as sustained, in ms.
pub const ACK_LIMIT_MS: f64 = 10.0;
/// Equal-count windows the headline rung's acks are split into; the
/// figure is the median over windows.
pub const WINDOWS: usize = 5;
/// Daemon starts timed for `setup_s` before the ladder, and again
/// after it, so that no one slow stretch of a shared host decides the
/// median.
const STARTS: usize = 11;
/// Longest wait for admitted tasks to finish after the ladder.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Runs `arls serve` with `args` (the `serve-daemon` mode).
pub fn daemon_main(args: &[String]) -> ExitCode {
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    let args = arl_cli::Args::parse(argv);
    match arl_cli::serve::serve(&args) {
        Ok(summary) => {
            eprint!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One scheduled submission.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, from the start of the ladder.
    pub due: Duration,
    /// Ladder rung.
    pub rung: usize,
    /// The request line.
    pub line: String,
}

/// The served platform's nominal task capacity at [`PACE`], tasks per
/// wall second, and its deadline reference speed. The daemon serves the
/// experiment platform generated from [`PLATFORM_SEED`].
pub fn capacity() -> (f64, f64) {
    let platform = Scenario::new(PLATFORM_SEED, 0, 1.0).build_platform();
    (
        platform.total_nominal_mips() / MEAN_TASK_SIZE_MI * PACE,
        platform.reference_speed(),
    )
}

/// The open-loop schedule: Poisson arrivals at each rung's rate for its
/// [`RUNG_TIME`] share of `ladder_s` seconds, tasks drawn like the batch
/// generator's (600–7200 MI, uniform priority mix, slack band
/// deadlines).
pub fn plan(seed: u64, ladder_s: f64, cap_tps: f64, ref_speed: f64, sites: u32) -> Vec<Planned> {
    let root = RngStream::root(seed).derive("perfbench.serve");
    let mut gaps = root.derive("gaps");
    let mut sizes = root.derive("sizes");
    let mut prios = root.derive("priorities");
    let mut slack = root.derive("slack");
    let mut site = root.derive("sites");
    let mix = PriorityMix::uniform();
    let mut out = Vec::new();
    let mut begin = 0.0;
    for (rung, share) in RUNGS.iter().enumerate() {
        let rate = share * cap_tps;
        let end = begin + RUNG_TIME[rung] * ladder_s;
        let mut t = begin + gaps.exponential(1.0 / rate);
        while t < end {
            let size_mi = sizes.uniform(600.0, 7200.0);
            let priority = mix.classify(prios.unit());
            let (lo, hi) = priority.slack_band();
            let s = if lo == hi { lo } else { slack.uniform(lo, hi) };
            let task = SubmitTask {
                size_mi,
                deadline: size_mi / ref_speed * (1.0 + s),
                priority,
                site: SiteId(site.pick(sites as usize) as u32),
            };
            let id = out.len() as u64 + 1;
            out.push(Planned {
                due: Duration::from_secs_f64(t),
                rung,
                line: Submission {
                    id,
                    tasks: vec![task],
                }
                .render_line()
                    + "\n",
            });
            t += gaps.exponential(1.0 / rate);
        }
        begin = end;
    }
    out
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    ingest: String,
    metrics: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts a daemon, checks that its serve loop answers, and returns it
/// with the seconds from spawn until it was ready to accept (both
/// listeners bound, announced on stderr).
fn start(exe: &Path, life_s: f64) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["serve-daemon", "--listen", "127.0.0.1:0", "--metrics-addr"])
        .args(["127.0.0.1:0", "--scheduler", "adaptive", "--seed"])
        .arg(PLATFORM_SEED.to_string())
        .args(["--pace", &PACE.to_string(), "--run-for-secs"])
        .arg(format!("{life_s:.0}"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the daemon: {e}"))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut daemon = Daemon {
        child,
        ingest: String::new(),
        metrics: String::new(),
    };
    // The daemon announces both bound addresses on stderr, then prints
    // nothing more until it exits.
    let mut lines = BufReader::new(stderr).lines();
    while daemon.ingest.is_empty() {
        let line = match lines.next() {
            Some(Ok(l)) => l,
            _ => return Err("daemon exited before listening".into()),
        };
        if let Some(rest) = line.strip_prefix("metrics: serving /metrics on http://") {
            daemon.metrics = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("serve: listening on ") {
            daemon.ingest = rest.split_whitespace().next().unwrap_or("").to_string();
        }
    }
    let ready = t0.elapsed().as_secs_f64();
    // The loop must answer a submission aimed at a site the platform
    // does not have by refusing it.
    let mut s = TcpStream::connect(&daemon.ingest).map_err(|e| e.to_string())?;
    let probe = "{\"submit\":{\"id\":0,\"tasks\":[{\"size_mi\":1000,\"deadline\":10,\
                 \"priority\":\"low\",\"site\":4294967295}]}}\n";
    s.write_all(probe.as_bytes()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(&s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    match Notification::parse_line(reply.trim()) {
        Ok(Notification::Reject { id: 0, .. }) => Ok((daemon, ready)),
        other => Err(format!("readiness probe answered {other:?}")),
    }
}

/// Per-submission client state.
#[derive(Clone, Default)]
struct Track {
    ack: Option<Duration>,
    rejected: bool,
    placed: Option<Duration>,
    done: Option<(bool, f64)>,
    admitted_t: f64,
}

/// What the client saw.
struct Ladder {
    track: Vec<Track>,
    late_ms: Vec<f64>,
    /// Un-acked submissions sampled at every send, per rung.
    backlog: Vec<Vec<usize>>,
    failed_tasks: u64,
    ladder_s: f64,
    drain_s: f64,
    done_in_ladder: usize,
    energy_j: f64,
}

/// Drives the schedule over one connection, then waits for every
/// admitted task to finish.
fn drive(daemon: &Daemon, plan: &[Planned], ladder_end: Duration) -> Result<Ladder, String> {
    let mut sock = TcpStream::connect(&daemon.ingest).map_err(|e| e.to_string())?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut track = vec![Track::default(); plan.len()];
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut late_ms = Vec::with_capacity(plan.len());
    let mut backlog = vec![Vec::new(); RUNGS.len()];
    let (mut answered, mut resolved, mut admitted) = (0usize, 0usize, 0usize);
    let mut failed_tasks = 0u64;
    let mut done_in_ladder = 0usize;
    let mut energy_j = None;
    let mut buf = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        while next < plan.len() && plan[next].due <= now {
            sock.write_all(plan[next].line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            late_ms.push((start.elapsed() - plan[next].due).as_secs_f64() * 1e3);
            backlog[plan[next].rung].push(next + 1 - answered);
            next += 1;
        }
        if energy_j.is_none() && now >= ladder_end {
            done_in_ladder = resolved;
            energy_j = Some(scrape(&daemon.metrics)?.0);
        }
        let all_sent = next == plan.len();
        if all_sent && energy_j.is_some() && answered == plan.len() && resolved == admitted {
            break;
        }
        if all_sent && now > ladder_end + DRAIN_LIMIT {
            break;
        }
        let mut wait = if all_sent {
            Duration::from_millis(5)
        } else {
            plan[next].due.saturating_sub(now)
        };
        if energy_j.is_none() {
            wait = wait.min(ladder_end.saturating_sub(now));
        }
        if !sys::wait_readable(sock.as_raw_fd(), wait.max(Duration::from_micros(20))) {
            continue;
        }
        match sock.read(&mut buf) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("receive: {e}")),
        }
        let at = start.elapsed();
        let mut consumed = 0;
        while let Some(nl) = pending[consumed..].iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&pending[consumed..consumed + nl])
                .map_err(|e| format!("non-UTF-8 reply: {e}"))?;
            consumed += nl + 1;
            let n = Notification::parse_line(line.trim())
                .map_err(|e| format!("bad reply {line:?}: {e}"))?;
            match n {
                Notification::Ack { id, tasks, t } => {
                    let i = (id as usize).wrapping_sub(1);
                    let x = track.get_mut(i).ok_or("ack of an unknown submission")?;
                    x.ack = Some(at);
                    x.admitted_t = t;
                    for task in tasks {
                        owner.insert(task, i);
                        admitted += 1;
                    }
                    answered += 1;
                }
                Notification::Reject { id, .. } => {
                    let x = track.get_mut((id as usize).wrapping_sub(1));
                    x.ok_or("reject of an unknown submission")?.rejected = true;
                    answered += 1;
                }
                Notification::Placed { task, .. } => {
                    let i = *owner.get(&task).ok_or("placement of an unknown task")?;
                    track[i].placed.get_or_insert(at);
                }
                Notification::Done { task, met, t } => {
                    let i = *owner.get(&task).ok_or("completion of an unknown task")?;
                    track[i].done = Some((met, t));
                    resolved += 1;
                }
                Notification::Failed { task, .. } => {
                    owner.get(&task).ok_or("failure of an unknown task")?;
                    failed_tasks += 1;
                    resolved += 1;
                }
            }
        }
        pending.drain(..consumed);
    }
    let total = start.elapsed();
    Ok(Ladder {
        track,
        late_ms,
        backlog,
        failed_tasks,
        ladder_s: ladder_end.as_secs_f64(),
        drain_s: total.saturating_sub(ladder_end).as_secs_f64(),
        done_in_ladder,
        energy_j: energy_j.unwrap_or(0.0),
    })
}

/// Scrapes the daemon's `/metrics`: `(energy J, decision p99 µs,
/// ingest lines)`.
fn scrape(addr: &str) -> Result<(f64, f64, f64), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    let value = |name: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    // Histogram p99: the upper bound of the first bucket holding 99 %.
    let count = value("arls_decision_latency_seconds_count");
    let p99_us = body
        .lines()
        .filter_map(|l| l.strip_prefix("arls_decision_latency_seconds_bucket{le=\""))
        .filter_map(|l| {
            let (le, rest) = l.split_once("\"}")?;
            Some((le.parse::<f64>().ok()?, rest.trim().parse::<f64>().ok()?))
        })
        .find(|&(_, cum)| count > 0.0 && cum >= 0.99 * count)
        .map_or(0.0, |(le, _)| le * 1e6);
    Ok((
        value("arls_energy_joules"),
        p99_us,
        value("arls_ingest_lines_total"),
    ))
}

fn quantile_ms(xs: &[f64], q: f64) -> f64 {
    telemetry::quantile(xs, q).unwrap_or(0.0)
}

/// Runs the ladder for `seconds` against daemons started from `exe`
/// (a build of this crate's binary) and derives the metrics.
pub fn run(exe: &Path, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(exe, seed, seconds, trace, &mut out) {
        Ok(()) => out,
        Err(e) => {
            out.problems.push(e);
            out.failed = out.attempted.max(1);
            out
        }
    }
}

fn run_inner(
    exe: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let (cap_tps, ref_speed) = capacity();
    let sites = Scenario::experiment_platform().num_sites;
    let plan = plan(seed, seconds, cap_tps, ref_speed, sites);
    let life_s = seconds + DRAIN_LIMIT.as_secs_f64() + 60.0;
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..STARTS {
        // Earlier daemons are dropped (killed) as soon as they are ready.
        let (d, ready_s) = start(exe, life_s)?;
        setups.push(ready_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one start");
    let t_run = Instant::now();
    let ladder = drive(&daemon, &plan, Duration::from_secs_f64(seconds))?;
    let run_s = t_run.elapsed().as_secs_f64();
    let pid = daemon.child.id();
    let daemon_cpu = sys::child_cpu_s(pid).ok_or("daemon /proc stat unreadable")?;
    let daemon_rss = sys::peak_rss_mb(&pid.to_string()).ok_or("daemon /proc status unreadable")?;
    let t_scrape = Instant::now();
    let (_, decision_p99_us, ingest_lines) = scrape(&daemon.metrics)?;
    let scrape_s = t_scrape.elapsed().as_secs_f64();
    drop(daemon);
    for _ in 0..STARTS {
        setups.push(start(exe, life_s)?.1);
    }

    // Output checks: every submission answered and admitted, every
    // admitted task placed once and resolved.
    let t = &ladder.track;
    let unanswered = t.iter().filter(|x| x.ack.is_none() && !x.rejected).count();
    let rejected = t.iter().filter(|x| x.rejected).count();
    let acked = t.iter().filter(|x| x.ack.is_some()).count();
    let placed = t.iter().filter(|x| x.placed.is_some()).count();
    let done = t.iter().filter(|x| x.done.is_some()).count();
    let unresolved = acked - done - ladder.failed_tasks as usize;
    out.attempted = plan.len() as u64;
    out.failed =
        (unanswered + rejected + unresolved + acked.abs_diff(placed)) as u64 + ladder.failed_tasks;
    if out.failed > 0 {
        out.problems.push(format!(
            "serve: {unanswered} unanswered, {rejected} rejected, {unresolved} unresolved, \
             {placed} placed of {acked} admitted, {} failed",
            ladder.failed_tasks
        ));
    }
    out.reps = 1;

    let from_due = |i: usize, at: Option<Duration>| {
        at.map(|a| a.saturating_sub(plan[i].due).as_secs_f64() * 1e3)
    };
    let rung_lat = |rung: usize, f: &dyn Fn(&Track) -> Option<Duration>| -> Vec<f64> {
        (0..plan.len())
            .filter(|&i| plan[i].rung == rung)
            .filter_map(|i| from_due(i, f(&t[i])))
            .collect()
    };
    let ack_p99: Vec<f64> = (0..RUNGS.len())
        .map(|r| quantile_ms(&rung_lat(r, &|x| x.ack), 0.99))
        .collect();
    let head_ack = rung_lat(HEADLINE_RUNG, &|x| x.ack);
    let per = head_ack.len().div_ceil(WINDOWS).max(1);
    let ack_p50 = median(
        &head_ack
            .chunks(per)
            .map(|w| quantile_ms(w, 0.5))
            .collect::<Vec<_>>(),
    );
    let head_place = rung_lat(HEADLINE_RUNG, &|x| x.placed);
    let head_done: Vec<(bool, f64)> = (0..plan.len())
        .filter(|&i| plan[i].rung == HEADLINE_RUNG)
        .filter_map(|i| t[i].done.map(|(met, at)| (met, at - t[i].admitted_t)))
        .collect();
    let head_n = head_done.len().max(1) as f64;
    let met = head_done.iter().filter(|d| d.0).count() as f64 / head_n;
    let response = head_done.iter().map(|d| d.1).sum::<f64>() / head_n;

    // The client is open loop on a fixed schedule and the daemon is
    // paced, so tasks_per_s is the offered rate for as long as the daemon
    // keeps up: here it checks that it does. The daemon's speed shows,
    // traced, in cpu_ms_per_ktask and serve.max_rate_tps.
    out.e2e = vec![
        Metric::new(
            "tasks_per_s",
            ladder.done_in_ladder as f64 / ladder.ladder_s,
            "1/s",
        ),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", daemon_rss, "MiB"),
        Metric::new("energy_mj", ladder.energy_j * 1e-6, "MJ"),
        Metric::new("deadline_met_frac", met, "fraction"),
        Metric::new("avg_response", response, "t.u."),
        Metric::new("lat_p50_ms", ack_p50, "ms"),
    ];
    if trace {
        // A rung is sustained when its ack p99 meets the limit and the
        // un-acked backlog at its end is no larger than its first-half
        // peak (plus slack for one in-flight batch).
        let max_rate = (0..RUNGS.len())
            .filter(|&r| {
                let b = &ladder.backlog[r];
                let first_half = b[..b.len() / 2].iter().copied().max().unwrap_or(0);
                let end = b.last().copied().unwrap_or(0);
                ack_p99[r] <= ACK_LIMIT_MS && end <= 2 * first_half + 4
            })
            .map(|r| RUNGS[r] * cap_tps)
            .fold(0.0, f64::max);
        let l = &mut out.layers;
        l.push(Metric::new("trace.reps", 1.0, "count"));
        l.push(Metric::new("trace.wall_s", run_s + scrape_s, "s"));
        l.push(Metric::new(
            "trace.overhead_frac",
            scrape_s / run_s,
            "fraction",
        ));
        l.push(Metric::new(
            "unattributed_s",
            run_s - ladder.ladder_s - ladder.drain_s,
            "s",
        ));
        l.push(Metric::new("serve.ladder_s", ladder.ladder_s, "s"));
        l.push(Metric::new("serve.drain_s", ladder.drain_s, "s"));
        l.push(Metric::new("serve.setup_s_total", setups.iter().sum(), "s"));
        l.push(Metric::new("serve.sent", plan.len() as f64, "count"));
        l.push(Metric::new("serve.acked", acked as f64, "count"));
        l.push(Metric::new("serve.rejected", rejected as f64, "count"));
        l.push(Metric::new("serve.placed", placed as f64, "count"));
        l.push(Metric::new("serve.done", done as f64, "count"));
        l.push(Metric::new(
            "serve.backlog_max",
            ladder.backlog.iter().flatten().copied().max().unwrap_or(0) as f64,
            "count",
        ));
        l.push(Metric::new(
            "serve.gen_late_p99_ms",
            quantile_ms(&ladder.late_ms, 0.99),
            "ms",
        ));
        l.push(Metric::new("serve.daemon_cpu_s", daemon_cpu, "s"));
        l.push(Metric::new(
            "cpu_ms_per_ktask",
            daemon_cpu * 1e3 / (done.max(1) as f64 / 1e3),
            "ms",
        ));
        l.push(Metric::new("serve.decision_p99_us", decision_p99_us, "us"));
        l.push(Metric::new("serve.ingest_lines", ingest_lines, "count"));
        l.push(Metric::new(
            "serve.place_p99_ms",
            quantile_ms(&head_place, 0.99),
            "ms",
        ));
        l.push(Metric::new("serve.max_rate_tps", max_rate, "1/s"));
        for (r, p99) in ack_p99.iter().enumerate() {
            let name = format!("serve.r{}.ack_p99_ms", (RUNGS[r] * 100.0).round());
            l.push(Metric::new(&name, *p99, "ms"));
        }
    }
    Ok(())
}

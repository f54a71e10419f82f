//! `arls serve` — a long-running scheduling daemon.
//!
//! Accepts task submissions as line-delimited JSON over TCP (the
//! [`workload::submit`] protocol), routes them through a live scheduler
//! against a warm platform via [`platform::ScheduleSession`], and
//! streams placement/completion notifications back on the submitting
//! connection. Sim time advances under a wall-clock pacing factor
//! (`--pace` sim time units per wall second); the engine clock itself
//! only moves on events, so a paced run is state-identical to a batch
//! run of the same admissions.
//!
//! Durability: with `--checkpoint-dir` the daemon snapshots the complete
//! live state (platform, scheduler learning state, pending events)
//! through [`platform::checkpoint`] on a wall-clock timer and once more
//! on SIGTERM/SIGINT; `--resume-from SNAPSHOT` restarts bit-exactly —
//! the scheduler kind and configuration are recovered from the
//! snapshot's meta blob, so no flags need repeating.
//!
//! Observability: the shared [`MetricsRegistry`] carries both the
//! platform's `arls_*` family and the front door's `arls_ingest_*`
//! family, served on `/metrics` by [`telemetry::MetricsServer`] when
//! `--metrics-addr` is given.
//!
//! The daemon is single-threaded and non-blocking throughout (the same
//! dependency-free socket style as the metrics server). One loop waits
//! in `ppoll(2)` on the listener and every open client, then accepts,
//! reads, advances, notifies, flushes and checkpoints. The wait ends at
//! the first socket that is ready or at the earliest deadline: the
//! paced wall time of the next pending sim event, the monitor refresh,
//! the checkpoint timer, `--run-for-secs`, or a 50 ms ceiling, so an
//! idle daemon costs ~0% CPU while a submission is acked as soon as it
//! is read. Accepted streams set `TCP_NODELAY`, so an ack is not held
//! back behind an unacknowledged earlier notification.

use crate::args::Args;
use crate::commands::CmdError;
use crate::select::scheduler_from;
use adaptive_rl::AdaptiveRl;
use baselines::{GreedyEdf, OnlineRl, PredictionBased, QPlusLearning, RoundRobin};
use experiments::checkpoint::{decode_scheduler_meta, encode_scheduler_meta};
use experiments::{Scenario, SchedulerKind};
use platform::checkpoint::snapshot_meta;
use platform::{ExecEngine, LiveMetrics, PlatformSpec, ScheduleSession, Scheduler, SessionEvent};
use simcore::time::SimTime;
use snapshot::SnapReader;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{IngestMetrics, MetricsRegistry, MetricsServer};
use workload::submit::{Notification, Submission};

/// Set by the SIGTERM/SIGINT handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Installs the shutdown handler via libc `signal(2)` — declared
/// directly so no signal crate is needed. `signal` is async-signal-safe
/// for the store-a-flag handler used here.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `struct timespec` from `<time.h>`.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// Waits up to `timeout` for readiness on `fds` via libc `ppoll(2)` —
/// declared directly, like `signal`. A signal ends the wait early
/// (EINTR). The kernel writes `revents` only when the wait succeeds, so
/// entries built with `revents: 0` read as "nothing ready" after an
/// error or interruption.
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s whose length is passed alongside it; `ts` outlives the
    // call; a null sigmask leaves the signal mask as it is.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Upper bound on a client's unflushed notification backlog; a client
/// that stops reading past this point is disconnected rather than
/// growing the buffer without bound.
const MAX_CLIENT_BACKLOG: usize = 1 << 20;

/// Longest readiness wait. Every timer the loop keeps bounds the wait
/// itself; this ceiling only keeps the shutdown flag fresh for a signal
/// that lands between the flag check and the wait.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// How often the live gauges are refreshed from the session.
const MONITOR_REFRESH: Duration = Duration::from_millis(200);

struct ServeOpts {
    listener: TcpListener,
    /// Sim time units per wall second. `0` freezes the sim clock (the
    /// daemon still accepts and acks submissions; nothing executes).
    pace: f64,
    /// Wall-clock run bound; `None` runs until a signal.
    run_for: Option<Duration>,
    checkpoint_dir: Option<PathBuf>,
    /// Wall seconds between periodic checkpoints (0 = only on shutdown).
    checkpoint_every: f64,
    metrics_server: Option<MetricsServer>,
    ingest: IngestMetrics,
    live: Arc<LiveMetrics>,
}

/// One accepted client connection. Slots are kept for the daemon's
/// lifetime (buffers are released on close), so task→client routing
/// stays a plain index.
struct Client {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    open: bool,
}

impl Client {
    fn close(&mut self) {
        self.open = false;
        self.inbuf = Vec::new();
        self.outbuf = Vec::new();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// `arls serve` entry point. Returns the end-of-run summary.
pub fn serve(args: &Args) -> Result<String, CmdError> {
    install_signal_handlers();
    SHUTDOWN.store(false, Ordering::SeqCst);

    let pace = args.get_or("pace", 100.0f64)?;
    if !pace.is_finite() || pace < 0.0 {
        return Err(CmdError::Other("--pace must be non-negative".into()));
    }
    let run_for = match args.get("run-for-secs") {
        None => None,
        Some(_) => {
            let secs = args.get_or("run-for-secs", 0.0f64)?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(CmdError::Other("--run-for-secs must be positive".into()));
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    let checkpoint_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let checkpoint_every = args.get_or("checkpoint-every-secs", 0.0f64)?;
    if checkpoint_every > 0.0 && checkpoint_dir.is_none() {
        return Err(CmdError::Other(
            "--checkpoint-every-secs needs --checkpoint-dir".into(),
        ));
    }
    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }

    let listener = TcpListener::bind(args.get("listen").unwrap_or("127.0.0.1:0"))?;
    listener.set_nonblocking(true)?;
    let ingest_addr = listener.local_addr()?;

    // Resolve what we are serving: a fresh platform + scheduler from the
    // flags, or everything out of a snapshot's meta blob.
    let resume_payload = match args.get("resume-from") {
        Some(path) => Some(snapshot::read_file(std::path::Path::new(path))?),
        None => None,
    };
    let (kind, num_sites, sc) = match &resume_payload {
        Some(payload) => {
            let meta = snapshot_meta(payload)?;
            let (kind, sites) = decode_scheduler_meta(&meta)?;
            (kind, sites, None)
        }
        None => {
            let seed = args.get_or("seed", 2011u64)?;
            let mut sc = Scenario::new(seed, 0, 1.0);
            if let Some(sites) = args.get("sites") {
                let sites: u32 = sites
                    .parse()
                    .map_err(|_| CmdError::Other("--sites must be a positive u32".into()))?;
                if sites == 0 {
                    return Err(CmdError::Other("--sites must be at least 1".into()));
                }
                sc.platform = PlatformSpec {
                    num_sites: sites,
                    ..Scenario::experiment_platform()
                };
            }
            // A daemon has no natural end of workload; don't let the
            // batch horizon stop it.
            sc.exec.max_time = 1.0e15;
            let kind = seeded_kind(scheduler_from(args)?, seed);
            (kind, sc.platform.num_sites as usize, Some(sc))
        }
    };

    // Shared registry: platform family + ingest family in one payload.
    let registry = Arc::new(MetricsRegistry::new());
    let ingest = IngestMetrics::register(&registry);
    let metrics_server = match args.get("metrics-addr") {
        Some(addr) => {
            let s = MetricsServer::serve(addr, registry.clone())?;
            eprintln!("metrics: serving /metrics on http://{}", s.local_addr());
            Some(s)
        }
        None => None,
    };

    eprintln!("serve: listening on {ingest_addr} ({})", kind.label());
    if let Some(path) = args.get("port-file") {
        // Machine-readable bound addresses for scripts and tests (the
        // ports are kernel-assigned when `--listen` ends in `:0`).
        let metrics_line = metrics_server
            .as_ref()
            .map(|s| format!("metrics {}\n", s.local_addr()))
            .unwrap_or_default();
        std::fs::write(path, format!("ingest {ingest_addr}\n{metrics_line}"))?;
    }

    let live = LiveMetrics::register(&registry, num_sites, 0);

    macro_rules! dispatch {
        ($sched:expr) => {{
            let mut sched = $sched;
            let opts = ServeOpts {
                listener,
                pace,
                run_for,
                checkpoint_dir,
                checkpoint_every,
                metrics_server,
                ingest,
                live,
            };
            match &resume_payload {
                Some(payload) => {
                    let meta = snapshot_meta(payload)?;
                    let mut r = SnapReader::new(payload);
                    let _ = r.bytes()?; // skip meta; engine state follows
                    let mut session = ScheduleSession::resume_from_reader(&mut r, &mut sched)?;
                    session.set_monitor(opts.live.clone());
                    run_daemon(session, &meta, opts)
                }
                None => {
                    let sc = sc.expect("fresh start has a scenario");
                    let platform = sc.build_platform();
                    let engine = ExecEngine::new(sc.exec).with_monitor(opts.live.clone());
                    let meta = encode_scheduler_meta(&kind, platform.num_sites());
                    let session = ScheduleSession::new(&engine, platform, &mut sched);
                    run_daemon(session, &meta, opts)
                }
            }
        }};
    }

    match kind.clone() {
        SchedulerKind::Adaptive(cfg) => {
            dispatch!(AdaptiveRl::new(num_sites, cfg).with_metrics(live.clone()))
        }
        SchedulerKind::Online(cfg) => dispatch!(OnlineRl::new(num_sites, cfg)),
        SchedulerKind::QPlus(cfg) => dispatch!(QPlusLearning::new(num_sites, cfg)),
        SchedulerKind::Prediction(cfg) => dispatch!(PredictionBased::new(num_sites, cfg)),
        SchedulerKind::RoundRobin => dispatch!(RoundRobin::new(num_sites)),
        SchedulerKind::GreedyEdf => dispatch!(GreedyEdf::new(num_sites)),
    }
}

/// Applies the same per-seed policy-RNG mask the experiment harness
/// uses, so a served scheduler matches a batch run with the same seed.
fn seeded_kind(kind: SchedulerKind, seed: u64) -> SchedulerKind {
    let mut kind = kind;
    match &mut kind {
        SchedulerKind::Adaptive(c) => c.seed = seed ^ 0xA11,
        SchedulerKind::Online(c) => c.seed = seed ^ 0x011,
        SchedulerKind::QPlus(c) => c.seed = seed ^ 0x901,
        SchedulerKind::Prediction(c) => c.seed = seed ^ 0x9E1,
        SchedulerKind::RoundRobin | SchedulerKind::GreedyEdf => {}
    }
    kind
}

/// The serve loop, generic over the concrete scheduler.
fn run_daemon<S: Scheduler>(
    mut session: ScheduleSession<'_, S>,
    meta: &[u8],
    mut opts: ServeOpts,
) -> Result<String, CmdError> {
    let start = Instant::now();
    // Pacing is anchored at the session's restored horizon so a resumed
    // daemon continues from where the snapshot stopped.
    let base = session.horizon().max(session.now()).as_f64();
    let mut clients: Vec<Client> = Vec::new();
    // Server-assigned task id → client slot, for notification routing.
    // Tasks admitted before a resume have no client and are dropped.
    let mut owners: HashMap<u64, usize> = HashMap::new();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut checkpoints_written = 0u64;
    let mut last_checkpoint = Instant::now();
    let mut last_refresh = Instant::now();
    let mut read_chunk = [0u8; 4096];
    // The poll set of each wait: the listener first, then one entry per
    // open client, in slot order.
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            break;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if opts.run_for.is_some_and(|d| elapsed >= d.as_secs_f64()) {
            break;
        }

        // Park until a socket is ready or the earliest timer is due.
        let mut wait = MAX_WAIT.as_secs_f64();
        if opts.pace > 0.0 {
            if let Some(t) = session.next_event() {
                wait = wait.min((t.as_f64() - base) / opts.pace - elapsed);
            }
        }
        if let Some(d) = opts.run_for {
            wait = wait.min(d.as_secs_f64() - elapsed);
        }
        wait = wait.min(MONITOR_REFRESH.as_secs_f64() - last_refresh.elapsed().as_secs_f64());
        if opts.checkpoint_every > 0.0 && opts.checkpoint_dir.is_some() {
            wait = wait.min(opts.checkpoint_every - last_checkpoint.elapsed().as_secs_f64());
        }
        fds.clear();
        fds.push(PollFd {
            fd: opts.listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for c in clients.iter().filter(|c| c.open) {
            fds.push(PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.outbuf.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                },
                revents: 0,
            });
        }
        wait_ready(&mut fds, Duration::from_secs_f64(wait.max(0.0)));

        // Accept everything pending once the listener is readable.
        if fds[0].revents & POLLIN != 0 {
            loop {
                match opts.listener.accept() {
                    Ok((stream, _addr)) => {
                        if stream.set_nonblocking(true).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        opts.ingest.connections.inc(0);
                        clients.push(Client {
                            stream,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            open: true,
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Read request lines from the clients the wait found readable
        // (or hung up / in error: the read reports it) and admit
        // submissions. Clients accepted above are polled next pass.
        let readable = fds[1..]
            .iter()
            .map(|f| f.revents & (POLLIN | POLLERR | POLLHUP) != 0);
        let polled = clients.iter_mut().enumerate().filter(|(_, c)| c.open);
        for ((slot, client), ready) in polled.zip(readable) {
            if !ready {
                continue;
            }
            loop {
                match client.stream.read(&mut read_chunk) {
                    Ok(0) => {
                        client.close();
                        break;
                    }
                    Ok(n) => {
                        client.inbuf.extend_from_slice(&read_chunk[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        client.close();
                        break;
                    }
                }
            }
            while let Some(pos) = client.inbuf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = client.inbuf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                opts.ingest.lines.inc(0);
                let reply = handle_line(line, &mut session, slot, &mut owners, &opts.ingest);
                push_notification(client, &reply, &opts.ingest);
            }
        }

        // Advance sim time to the pacing target and route notifications.
        if opts.pace > 0.0 {
            let target = base + start.elapsed().as_secs_f64() * opts.pace;
            events.clear();
            session.advance_to(SimTime::new(target), &mut events);
            for ev in &events {
                let (task, n) = match ev {
                    SessionEvent::Placed { task, node, at } => (
                        task.0,
                        Notification::Placed {
                            task: task.0,
                            site: node.site.0,
                            node: node.node,
                            t: at.as_f64(),
                        },
                    ),
                    SessionEvent::Done { task, met, at } => (
                        task.0,
                        Notification::Done {
                            task: task.0,
                            met: *met,
                            t: at.as_f64(),
                        },
                    ),
                    SessionEvent::Failed { task, at } => (
                        task.0,
                        Notification::Failed {
                            task: task.0,
                            t: at.as_f64(),
                        },
                    ),
                };
                let done = matches!(ev, SessionEvent::Done { .. } | SessionEvent::Failed { .. });
                let owner = if done {
                    owners.remove(&task)
                } else {
                    owners.get(&task).copied()
                };
                if let Some(slot) = owner {
                    if clients[slot].open {
                        push_notification(&mut clients[slot], &n, &opts.ingest);
                    }
                }
            }
        }

        // Flush client backlogs.
        for c in clients.iter_mut().filter(|c| c.open) {
            flush_client(c);
        }

        if last_refresh.elapsed() >= MONITOR_REFRESH {
            session.refresh_monitor();
            last_refresh = Instant::now();
        }

        if opts.checkpoint_every > 0.0
            && last_checkpoint.elapsed().as_secs_f64() >= opts.checkpoint_every
        {
            if let Some(dir) = &opts.checkpoint_dir {
                checkpoints_written += 1;
                write_checkpoint(dir, checkpoints_written, &mut session, meta)?;
                last_checkpoint = Instant::now();
            }
        }
    }

    // Shutdown: one final checkpoint so `--resume-from` can pick up
    // exactly here, then close everything.
    let mut final_snapshot = None;
    if let Some(dir) = &opts.checkpoint_dir {
        checkpoints_written += 1;
        let path = write_checkpoint(dir, checkpoints_written, &mut session, meta)?;
        final_snapshot = Some(path);
    }
    for c in clients.iter_mut().filter(|c| c.open) {
        flush_client(c);
        c.close();
    }
    if let Some(s) = &mut opts.metrics_server {
        s.shutdown();
    }

    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} connections, {} submissions ({} tasks) admitted, {} rejected\n",
        opts.ingest.connections.total(),
        opts.ingest.submissions.total(),
        opts.ingest.tasks.total(),
        opts.ingest.rejections.total(),
    ));
    out.push_str(&format!(
        "serve: sim time {:.4}, {} tasks still in flight, {:.1}s wall\n",
        session.now().as_f64(),
        session.outstanding(),
        start.elapsed().as_secs_f64(),
    ));
    if let Some(path) = final_snapshot {
        out.push_str(&format!(
            "serve: final checkpoint {} (restart with `arls serve --resume-from` it)\n",
            path.display()
        ));
    }
    // The session's RunResult is assembled for the final gauge values'
    // sake; the daemon's contract is the notification stream.
    let _ = session.finish();
    Ok(out)
}

/// Parses and admits one request line, returning the ack/reject.
fn handle_line<S: Scheduler>(
    line: &str,
    session: &mut ScheduleSession<'_, S>,
    slot: usize,
    owners: &mut HashMap<u64, usize>,
    ingest: &IngestMetrics,
) -> Notification {
    let sub = match Submission::parse_line(line) {
        Ok(sub) => sub,
        Err(reason) => {
            ingest.parse_errors.inc(0);
            ingest.rejections.inc(0);
            return Notification::Reject { id: 0, reason };
        }
    };
    match session.submit(&sub.tasks) {
        Ok((at, ids)) => {
            ingest.submissions.inc(0);
            ingest.tasks.add(0, ids.len() as u64);
            for id in &ids {
                owners.insert(id.0, slot);
            }
            Notification::Ack {
                id: sub.id,
                tasks: ids.iter().map(|t| t.0).collect(),
                t: at.as_f64(),
            }
        }
        Err(reason) => {
            ingest.rejections.inc(0);
            Notification::Reject { id: sub.id, reason }
        }
    }
}

fn push_notification(client: &mut Client, n: &Notification, ingest: &IngestMetrics) {
    if !client.open {
        return;
    }
    client.outbuf.extend_from_slice(n.render_line().as_bytes());
    client.outbuf.push(b'\n');
    ingest.notifications.inc(0);
    if client.outbuf.len() > MAX_CLIENT_BACKLOG {
        client.close();
    }
}

/// Writes as much of the client's backlog as the socket accepts.
fn flush_client(client: &mut Client) {
    while !client.outbuf.is_empty() {
        match client.stream.write(&client.outbuf) {
            Ok(0) => {
                client.close();
                return;
            }
            Ok(n) => {
                client.outbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                client.close();
                return;
            }
        }
    }
}

/// Serializes the session into `dir` with the zero-padded sequence
/// number in the name (lexicographic order = write order, matching the
/// batch checkpointer's convention).
fn write_checkpoint<S: Scheduler>(
    dir: &std::path::Path,
    seq: u64,
    session: &mut ScheduleSession<'_, S>,
    meta: &[u8],
) -> Result<PathBuf, CmdError> {
    let payload = session.checkpoint(meta);
    let path = dir.join(format!("serve-{seq:08}.snap"));
    snapshot::write_atomic(&path, &payload)?;
    Ok(path)
}

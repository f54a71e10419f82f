//! Step-driven live scheduling sessions for serving mode.
//!
//! Batch experiments prime every arrival upfront and run the event loop
//! to quiescence. A *session* inverts that: the caller owns the outer
//! clock (wall time under a pacing factor), injects submissions as they
//! arrive over the network, and advances the simulation horizon in
//! increments with [`simcore::engine::Engine::run_until`]. Between
//! advances it drains [`SessionEvent`]s — placement decisions and
//! completion notices derived from the driver's per-task state — and can
//! serialize the complete live state through the [`crate::checkpoint`]
//! codec, so a daemon killed mid-stream restarts bit-exactly with
//! [`ScheduleSession::resume`].
//!
//! The driver underneath is byte-for-byte the batch [`crate::engine`]
//! driver; a session only changes *when* events enter the queue. Two
//! batch-mode conventions need active handling here:
//!
//! * the control-tick chain cancels itself once every known task is
//!   resolved, so [`ScheduleSession::submit`] re-arms it when no tick is
//!   pending;
//! * events that fire in a settled window are frozen (they must not
//!   disturb the energy accounting past the settlement horizon), which
//!   can strand a processor mid-wake with its `WakeDone` consumed —
//!   `submit` re-primes wake completions for any processor left in that
//!   state, completing the wake at the admission instant.

use crate::checkpoint::{encode_checkpoint, restore_from_reader};
use crate::engine::{assemble_result, Driver, Ev, ExecEngine, Partial, RunResult};
use crate::ids::{NodeAddr, ProcAddr};
use crate::monitor::LiveMetrics;
use crate::processor::ProcState;
use crate::scheduler::Scheduler;
use crate::topology::Platform;
use simcore::engine::{Engine, RunOutcome};
use simcore::time::SimTime;
use snapshot::{SnapReader, SnapshotError};
use std::sync::Arc;
use workload::submit::SubmitTask;
use workload::{Task, TaskId};

/// A state transition observed while advancing the session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionEvent {
    /// The task's group was dispatched to a node — the placement
    /// decision a submitting client is waiting on.
    Placed {
        /// The task.
        task: TaskId,
        /// The node it was placed on.
        node: NodeAddr,
        /// Dispatch instant (sim time).
        at: SimTime,
    },
    /// The task finished.
    Done {
        /// The task.
        task: TaskId,
        /// Whether it met its deadline.
        met: bool,
        /// Completion instant (sim time).
        at: SimTime,
    },
    /// The task was permanently abandoned (fault paths).
    Failed {
        /// The task.
        task: TaskId,
        /// Abandonment instant (sim time).
        at: SimTime,
    },
}

/// A live scheduling session: one warm platform + scheduler pair
/// accepting submissions and advancing in paced sim-time slices.
pub struct ScheduleSession<'s, S: Scheduler> {
    driver: Driver<'s, S>,
    engine: Engine<Ev>,
    /// The furthest horizon `advance_to` has integrated to. Admissions
    /// land at `max(horizon, engine.now())`.
    horizon: SimTime,
    /// Indices of tasks not yet resolved (completed or failed); the
    /// notification sweep only touches these.
    outstanding: Vec<u32>,
    /// Per-task flag: placement already announced.
    placed: Vec<bool>,
    tick_interval: f64,
}

impl<'s, S: Scheduler> ScheduleSession<'s, S> {
    /// Opens a session on a fresh platform with no tasks.
    ///
    /// The `exec` engine carries the configuration and any attached
    /// monitor/sampler; its fault plan applies as in batch mode. The
    /// audit oracle is not supported in sessions (its task population is
    /// fixed at construction).
    ///
    /// # Panics
    /// Panics if `exec.cfg.audit` is set.
    pub fn new(exec: &ExecEngine, platform: Platform, sched: &'s mut S) -> Self {
        assert!(
            !exec.cfg.audit,
            "the audit oracle does not support live sessions"
        );
        let tick_interval = exec.cfg.tick_interval;
        let (driver, engine) = exec.prepare(platform, Vec::new(), sched, &telemetry::NULL);
        ScheduleSession {
            driver,
            engine,
            horizon: SimTime::ZERO,
            outstanding: Vec::new(),
            placed: Vec::new(),
            tick_interval,
        }
    }

    /// Reopens a session from a checkpoint payload (as produced by
    /// [`ScheduleSession::checkpoint`], with the meta blob still at the
    /// head). `sched` must be a fresh scheduler of the checkpointed kind
    /// and configuration; its learning state is restored.
    pub fn resume(payload: &[u8], sched: &'s mut S) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(payload);
        let _meta = r.bytes()?;
        Self::resume_from_reader(&mut r, sched)
    }

    /// [`ScheduleSession::resume`] for a reader already positioned past
    /// the meta blob (callers that decode the meta themselves to pick
    /// the scheduler kind).
    pub fn resume_from_reader(
        r: &mut SnapReader<'_>,
        sched: &'s mut S,
    ) -> Result<Self, SnapshotError> {
        let (driver, engine) = restore_from_reader(r, sched)?;
        let tick_interval = driver.cfg.tick_interval;
        let mut outstanding = Vec::new();
        let mut placed = Vec::with_capacity(driver.partials.len());
        for (i, p) in driver.partials.iter().enumerate() {
            if p.finished.is_none() && p.failed_at.is_none() {
                outstanding.push(i as u32);
            }
            // Placements notified before the checkpoint are not re-sent.
            placed.push(p.dispatched.is_some());
        }
        let horizon = engine.now();
        Ok(ScheduleSession {
            driver,
            engine,
            horizon,
            outstanding,
            placed,
            tick_interval,
        })
    }

    /// Attaches live metric handles after the fact (used on resumed
    /// sessions, whose restored driver starts unmonitored). Strictly
    /// observing, like [`ExecEngine::with_monitor`].
    pub fn set_monitor(&mut self, mon: Arc<LiveMetrics>) {
        self.driver.mon = Some(mon);
    }

    /// Current simulation clock (firing time of the last event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Firing time of the earliest pending event, if any.
    pub fn next_event(&self) -> Option<SimTime> {
        self.engine.queue().next_time()
    }

    /// The furthest horizon integrated so far.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total tasks admitted over the session's life.
    pub fn num_tasks(&self) -> usize {
        self.driver.tasks.len()
    }

    /// Tasks still unresolved.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Admits a submission at the current horizon.
    ///
    /// Every task is validated first (finite positive size and relative
    /// deadline, site within the platform); one bad task rejects the
    /// whole submission with nothing admitted. On success the tasks are
    /// appended with dense server-assigned ids, their arrivals primed at
    /// the admission instant, and the control-tick chain re-armed.
    /// Returns the admission instant and the assigned ids.
    pub fn submit(&mut self, tasks: &[SubmitTask]) -> Result<(SimTime, Vec<TaskId>), String> {
        if tasks.is_empty() {
            return Err("empty submission".to_string());
        }
        let num_sites = self.driver.platform.num_sites();
        for (i, t) in tasks.iter().enumerate() {
            t.validate().map_err(|e| format!("task {i}: {e}"))?;
            if (t.site.0 as usize) >= num_sites {
                return Err(format!(
                    "task {i}: site {} out of range (platform has {num_sites})",
                    t.site.0
                ));
            }
        }
        let at = self.horizon.max(self.engine.now());
        assert!(
            self.driver.tasks.len() + tasks.len() < u32::MAX as usize,
            "task population exceeds the engine's arrival index width"
        );
        let mut ids = Vec::with_capacity(tasks.len());
        for t in tasks {
            let idx = self.driver.tasks.len() as u32;
            let task = Task {
                id: TaskId(idx as u64),
                size_mi: t.size_mi,
                arrival: at,
                deadline: SimTime::new(at.as_f64() + t.deadline),
                priority: t.priority,
                site: t.site,
            };
            self.driver.tasks.push(task);
            self.driver.partials.push(Partial::default());
            self.placed.push(false);
            self.outstanding.push(idx);
            self.engine.prime(at, Ev::Arrival(idx));
            ids.push(TaskId(idx as u64));
        }
        self.rearm_tick(at);
        self.rearm_frozen_wakes(at);
        Ok((at, ids))
    }

    /// Re-arms the control tick if none is pending: the batch tick chain
    /// cancels itself once all known tasks resolve, which in a session
    /// is just a quiet period, not the end of the run.
    fn rearm_tick(&mut self, at: SimTime) {
        let pending = self
            .engine
            .queue()
            .entries()
            .any(|e| matches!(e.event, Ev::Tick));
        if !pending {
            self.engine
                .prime(SimTime::new(at.as_f64() + self.tick_interval), Ev::Tick);
        }
    }

    /// Re-primes wake completions for processors stranded mid-wake by
    /// the settled-window freeze (their `WakeDone` fired while every
    /// task was resolved and was deliberately dropped). The wake
    /// completes at the admission instant — the settled interval is
    /// billed as waking time, which is what physically happened.
    fn rearm_frozen_wakes(&mut self, at: SimTime) {
        let mut pending: Vec<(ProcAddr, u32)> = Vec::new();
        for e in self.engine.queue().entries() {
            if let Ev::WakeDone(p, epoch) = e.event {
                pending.push((p, epoch));
            }
        }
        let mut to_prime: Vec<(SimTime, ProcAddr, u32)> = Vec::new();
        for site in &self.driver.platform.sites {
            for node in &site.nodes {
                let base =
                    self.driver.proc_base[node.addr.site.0 as usize][node.addr.node as usize];
                for (i, proc) in node.processors.iter().enumerate() {
                    if let ProcState::Waking { until } = proc.state() {
                        let addr = ProcAddr {
                            node: node.addr,
                            proc: i as u32,
                        };
                        let epoch = self.driver.epochs[base + i];
                        if !pending.contains(&(addr, epoch)) {
                            to_prime.push((at.max(until), addr, epoch));
                        }
                    }
                }
            }
        }
        for (t, addr, epoch) in to_prime {
            self.engine.prime(t, Ev::WakeDone(addr, epoch));
        }
    }

    /// Integrates the simulation up to `t` (clamped monotone) and
    /// appends the resulting [`SessionEvent`]s to `out`.
    ///
    /// Driving the same admissions through any sequence of horizons
    /// yields the same state as one batch run of those events — the
    /// engine clock only moves on events, never to the horizon itself.
    pub fn advance_to(&mut self, t: SimTime, out: &mut Vec<SessionEvent>) -> RunOutcome {
        let t = t.max(self.horizon);
        self.horizon = t;
        let outcome = self.engine.run_until(t, &mut self.driver);
        self.collect_events(out);
        outcome
    }

    /// Sweeps outstanding tasks for placements and resolutions.
    fn collect_events(&mut self, out: &mut Vec<SessionEvent>) {
        let mut i = 0;
        while i < self.outstanding.len() {
            let idx = self.outstanding[i] as usize;
            let p = self.driver.partials[idx];
            let task = TaskId(idx as u64);
            if !self.placed[idx] {
                if let (Some(node), Some(d)) = (p.node, p.dispatched) {
                    out.push(SessionEvent::Placed { task, node, at: d });
                    self.placed[idx] = true;
                }
            }
            if let Some(f) = p.finished {
                out.push(SessionEvent::Done {
                    task,
                    met: p.met,
                    at: f,
                });
                self.outstanding.swap_remove(i);
            } else if let Some(f) = p.failed_at {
                out.push(SessionEvent::Failed { task, at: f });
                self.outstanding.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Refreshes the live gauges (and the sampler, when due) at the
    /// current clock. The batch driver does this on control ticks; an
    /// idle session has no ticks, so the daemon calls this on its own
    /// cadence.
    pub fn refresh_monitor(&mut self) {
        self.driver.monitor_tick(self.engine.now(), false);
    }

    /// Serializes the complete live state (with `meta` at the head of
    /// the payload) through the [`crate::checkpoint`] codec. The
    /// returned bytes restore via [`ScheduleSession::resume`] — and a
    /// checkpoint of the restored session with the same `meta` is
    /// byte-identical.
    pub fn checkpoint(&mut self, meta: &[u8]) -> Vec<u8> {
        encode_checkpoint(
            &mut self.driver,
            self.engine.now(),
            self.engine.processed(),
            self.engine.fuse(),
            self.engine.queue(),
            meta,
        )
    }

    /// Closes the session and assembles the run summary over everything
    /// it processed (same shape as a batch [`RunResult`]).
    pub fn finish(mut self) -> RunResult {
        if self.driver.mon.is_some() || self.driver.sampler.is_some() {
            self.driver.monitor_tick(self.engine.now(), true);
        }
        let outcome = if self.engine.queue().is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::Paused
        };
        let events_processed = self.engine.processed();
        let max_queue_occupancy = self.engine.queue().max_occupancy();
        assemble_result(self.driver, outcome, events_processed, max_queue_occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecConfig;
    use crate::topology::PlatformSpec;
    use simcore::rng::RngStream;
    use workload::{Priority, SiteId, Workload, WorkloadSpec};

    /// The FCFS test scheduler used across the engine/checkpoint suites.
    struct Fcfs {
        pending: Vec<Task>,
    }

    impl Fcfs {
        fn new() -> Self {
            Fcfs {
                pending: Vec::new(),
            }
        }
    }

    impl Scheduler for Fcfs {
        fn name(&self) -> &str {
            "fcfs-session-test"
        }
        fn on_arrivals(&mut self, _now: SimTime, _site: SiteId, tasks: Vec<Task>) {
            self.pending.extend(tasks);
        }
        fn dispatch(
            &mut self,
            _now: SimTime,
            view: &crate::view::PlatformView<'_>,
        ) -> Vec<crate::scheduler::Command> {
            let mut cmds = Vec::new();
            let mut remaining = Vec::new();
            for task in self.pending.drain(..) {
                let best = view
                    .site_nodes(task.site)
                    .filter(|n| n.queue_available() > 0 && n.available_processors() > 0)
                    .max_by(|a, b| a.queue_available().cmp(&b.queue_available()));
                match best {
                    Some(n) => cmds.push(crate::scheduler::Command::Dispatch {
                        node: n.addr(),
                        tasks: vec![task],
                        policy: crate::group::GroupPolicy::Mixed,
                    }),
                    None => remaining.push(task),
                }
            }
            self.pending = remaining;
            cmds
        }
        fn save_state(&mut self, w: &mut snapshot::SnapWriter) {
            w.usize(self.pending.len());
            for t in &self.pending {
                t.snap_write(w);
            }
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
            let n = r.len_hint()?;
            let mut pending = Vec::with_capacity(n);
            for _ in 0..n {
                pending.push(Task::snap_read(r)?);
            }
            self.pending = pending;
            Ok(())
        }
    }

    fn test_platform(seed: u64) -> Platform {
        let rng = RngStream::root(seed);
        Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"))
    }

    fn submission_from_workload(platform: &Platform, seed: u64, n: usize) -> Vec<SubmitTask> {
        let rng = RngStream::root(seed);
        let wl = Workload::generate(
            WorkloadSpec::paper(n, platform.num_sites() as u32, platform.reference_speed()),
            &rng.derive("w"),
        );
        wl.tasks
            .iter()
            .map(|t| SubmitTask {
                size_mi: t.size_mi,
                deadline: (t.deadline.as_f64() - t.arrival.as_f64()).max(1.0),
                priority: t.priority,
                site: t.site,
            })
            .collect()
    }

    fn exec() -> ExecEngine {
        ExecEngine::new(ExecConfig::default())
    }

    #[test]
    fn every_submission_resolves_and_notifies() {
        let platform = test_platform(3);
        let subs = submission_from_workload(&platform, 5, 40);
        let mut sched = Fcfs::new();
        let e = exec();
        let mut session = ScheduleSession::new(&e, platform, &mut sched);
        let mut events = Vec::new();

        let (at, ids) = session.submit(&subs[..25]).expect("admit");
        assert_eq!(at, SimTime::ZERO);
        assert_eq!(ids.len(), 25);
        let mut t = 0.0;
        // Advance in small slices; submit the rest mid-stream.
        let mut submitted_rest = false;
        while session.outstanding() > 0 || !submitted_rest {
            t += 20.0;
            session.advance_to(SimTime::new(t), &mut events);
            if !submitted_rest && t >= 60.0 {
                let (at2, ids2) = session.submit(&subs[25..]).expect("admit rest");
                assert!(at2.as_f64() >= 60.0);
                assert_eq!(ids2[0], TaskId(25));
                submitted_rest = true;
            }
            assert!(t < 1e6, "session failed to drain");
        }
        let placed = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Placed { .. }))
            .count();
        let done = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Done { .. }))
            .count();
        assert_eq!(done, 40, "every task resolves: {events:?}");
        assert_eq!(placed, 40, "every task got a placement decision");
        let r = session.finish();
        assert_eq!(r.num_tasks, 40);
        assert_eq!(r.incomplete, 0);
    }

    #[test]
    fn sliced_session_matches_one_shot_session() {
        // The same admissions driven through fine slices and through one
        // big horizon must produce identical results.
        let run = |slice: f64| {
            let platform = test_platform(7);
            let subs = submission_from_workload(&platform, 9, 30);
            let mut sched = Fcfs::new();
            let e = exec();
            let mut session = ScheduleSession::new(&e, platform, &mut sched);
            session.submit(&subs).expect("admit");
            let mut events = Vec::new();
            let mut t = 0.0;
            // Drain the queue completely (not just the tasks) so both
            // runs end in the same Drained state.
            loop {
                t += slice;
                let outcome = session.advance_to(SimTime::new(t), &mut events);
                if outcome == RunOutcome::Drained && session.outstanding() == 0 {
                    break;
                }
                assert!(t < 1e6, "failed to drain");
            }
            (session.finish(), events.len())
        };
        let (fine, n1) = run(7.0);
        let (coarse, n2) = run(100_000.0);
        assert_eq!(n1, n2);
        if let Some(d) = crate::oracle::replay_divergence(&fine, &coarse) {
            panic!("slicing changed the run: {d}");
        }
    }

    #[test]
    fn rejections_admit_nothing() {
        let platform = test_platform(3);
        let num_sites = platform.num_sites();
        let mut sched = Fcfs::new();
        let e = exec();
        let mut session = ScheduleSession::new(&e, platform, &mut sched);
        let bad_site = SubmitTask {
            size_mi: 100.0,
            deadline: 50.0,
            priority: Priority::Medium,
            site: SiteId(num_sites as u32),
        };
        let good = SubmitTask {
            size_mi: 100.0,
            deadline: 50.0,
            priority: Priority::Medium,
            site: SiteId(0),
        };
        let err = session
            .submit(&[good.clone(), bad_site])
            .expect_err("must reject");
        assert!(err.contains("out of range"), "{err}");
        assert_eq!(session.num_tasks(), 0, "rejected submissions admit nothing");
        assert!(session.submit(&[]).is_err());
        let bad_size = SubmitTask {
            size_mi: f64::NAN,
            ..good
        };
        assert!(session.submit(&[bad_size]).is_err());
    }

    #[test]
    fn quiet_period_then_submit_still_schedules() {
        // Drain a first wave completely (tick chain cancels itself),
        // idle for a long horizon, then submit again: the second wave
        // must still dispatch and resolve.
        let platform = test_platform(11);
        let subs = submission_from_workload(&platform, 13, 20);
        let mut sched = Fcfs::new();
        let e = exec();
        let mut session = ScheduleSession::new(&e, platform, &mut sched);
        let mut events = Vec::new();
        session.submit(&subs[..10]).expect("wave 1");
        session.advance_to(SimTime::new(50_000.0), &mut events);
        assert_eq!(session.outstanding(), 0, "wave 1 drains");
        let done_wave1 = events.len();

        // Long idle, then wave 2 admitted at the idle horizon.
        session.advance_to(SimTime::new(90_000.0), &mut events);
        assert_eq!(events.len(), done_wave1, "idle produces no events");
        let (at, _) = session.submit(&subs[10..]).expect("wave 2");
        assert_eq!(at, SimTime::new(90_000.0));
        session.advance_to(SimTime::new(140_000.0), &mut events);
        assert_eq!(session.outstanding(), 0, "wave 2 drains");
        let done = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Done { .. }))
            .count();
        assert_eq!(done, 20);
    }

    #[test]
    fn checkpoint_resume_is_bit_exact_and_behaviour_preserving() {
        let meta = b"session-test-meta";
        let mk_events = |session: &mut ScheduleSession<'_, Fcfs>, to: f64| {
            let mut ev = Vec::new();
            session.advance_to(SimTime::new(to), &mut ev);
            ev
        };

        // Run a session half-way, checkpoint it.
        let platform = test_platform(17);
        let subs = submission_from_workload(&platform, 19, 30);
        let mut sched = Fcfs::new();
        let e = exec();
        let mut session = ScheduleSession::new(&e, platform, &mut sched);
        session.submit(&subs).expect("admit");
        // Advance in tiny slices until some tasks resolved but not all,
        // so the checkpoint lands genuinely mid-stream.
        let mut t = 0.0;
        while session.outstanding() == session.num_tasks() {
            t += 0.5;
            let _ = mk_events(&mut session, t);
            assert!(t < 1e6, "nothing ever resolved");
        }
        let payload = session.checkpoint(meta);
        assert!(
            session.outstanding() > 0,
            "checkpoint must land mid-stream to be a real test"
        );

        // Bit-exactness: restore, re-encode, compare bytes.
        let mut sched2 = Fcfs::new();
        let mut restored = ScheduleSession::resume(&payload, &mut sched2).expect("resume");
        let reencoded = restored.checkpoint(meta);
        assert_eq!(payload, reencoded, "restore→checkpoint must round-trip");

        // Behaviour: both sessions driven identically from here agree.
        let ev_a = mk_events(&mut session, 1e6);
        let ev_b = mk_events(&mut restored, 1e6);
        // The restored session re-announces nothing already placed, and
        // the sweep order over outstanding tasks is not part of the
        // contract (swap_remove history differs) — compare resolutions
        // as a set, keyed by task id.
        let resolutions = |evs: &[SessionEvent]| {
            let mut r: Vec<SessionEvent> = evs
                .iter()
                .filter(|e| !matches!(e, SessionEvent::Placed { .. }))
                .copied()
                .collect();
            r.sort_by_key(|e| match e {
                SessionEvent::Done { task, .. } | SessionEvent::Failed { task, .. } => task.0,
                SessionEvent::Placed { task, .. } => task.0,
            });
            r
        };
        assert_eq!(resolutions(&ev_a), resolutions(&ev_b));
        let ra = session.finish();
        let rb = restored.finish();
        if let Some(d) = crate::oracle::replay_divergence(&ra, &rb) {
            panic!("resumed session diverged: {d}");
        }
    }
}

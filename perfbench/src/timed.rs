//! A delegating [`Scheduler`] that times every trait call from outside.
//!
//! [`Timed`] forwards each call unchanged to the wrapped policy and only
//! reads the clock and counts around it, so a wrapped run is
//! replay-identical to an unwrapped one (pinned by the tests). Two
//! levels:
//!
//! * [`Level::Latency`] times `dispatch` alone and keeps the duration of
//!   every call that issued commands — the decision-latency sample of
//!   the untraced runs;
//! * [`Level::Full`] times every call, counts commands and the tasks the
//!   policy holds, and samples `apply_sync` (one call in
//!   [`SYNC_SAMPLE`] is timed; sharded runs make ~10⁷ of them).
//!
//! For sharded runs the instances live inside the engine's worker
//! threads; with a [`Sink`] attached each one publishes its totals
//! (tagged with its site and worker thread) when the engine drops it.
//!
//! With [`Marks`] set, the wrapper also stamps the wall and process CPU
//! clocks at fixed points of the call sequence. A run's call sequence is
//! the same in every repetition, so the stretches between marks are the
//! same work each time and can be compared one by one.

use crate::clock;
use crate::sys;
use platform::{
    AssignmentFeedback, Command, GroupFeedback, GroupId, PlatformView, Scheduler, SyncRecord,
};
use simcore::time::SimTime;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use workload::{SiteId, Task};

/// One `apply_sync` call in this many is timed; the rest are counted.
pub const SYNC_SAMPLE: u64 = 64;

/// How much the wrapper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `dispatch` durations only.
    Latency,
    /// Every trait call, plus command and backlog counts.
    Full,
}

/// Where the wrapper stamps the clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marks {
    /// Nowhere.
    None,
    /// On entry to every `n`-th `dispatch` call, the first included.
    Dispatch(u64),
    /// On entry to every `drain_sync` call: once per epoch of a sharded
    /// run, once its worker has advanced all of its sites.
    Drain,
}

/// Calls and busy clock ticks of one kind of trait call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// [`clock`] ticks spent inside them.
    pub ticks: u64,
}

impl Span {
    fn add(&mut self, start: u64) {
        self.calls += 1;
        self.ticks += clock::since(start);
    }

    /// Busy seconds.
    pub fn secs(&self) -> f64 {
        clock::secs(self.ticks)
    }
}

/// Everything one wrapper measured.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    /// `on_arrivals`, `on_rejected` and `on_orphaned`: tasks handed in.
    pub arrivals: Span,
    /// `dispatch`.
    pub dispatch: Span,
    /// `dispatch` calls that returned no command.
    pub dispatch_empty: u64,
    /// Commands returned by `dispatch` and `on_tick`.
    pub commands: u64,
    /// `on_assignment`, `on_group_complete` and `on_group_aborted`.
    pub feedback: Span,
    /// `on_tick`.
    pub tick: Span,
    /// `drain_sync`.
    pub drain_sync: Span,
    /// Sync records drained.
    pub sync_records: u64,
    /// `apply_sync` calls (all counted).
    pub apply_sync_calls: u64,
    /// The timed sample of `apply_sync` calls.
    pub apply_sync_sampled: Span,
    /// Tasks held by the policy right now: handed in minus dispatched.
    pub pending: u64,
    /// Sum over `dispatch` calls of the tasks held at the call.
    pub pending_sum: u64,
    /// Most tasks held at any `dispatch` call.
    pub pending_max: u64,
    /// Duration in clock ticks of every `dispatch` call that issued
    /// commands — a scheduling decision ([`Level::Latency`] only).
    pub dispatch_ticks: Vec<u32>,
    /// Wall instant and process CPU time at each mark ([`Marks`]).
    pub marks: Vec<(Instant, Duration)>,
}

impl CallStats {
    /// Estimated seconds inside `apply_sync`, scaled up from the sample.
    pub fn apply_sync_s(&self) -> f64 {
        if self.apply_sync_sampled.calls == 0 {
            return 0.0;
        }
        self.apply_sync_sampled.secs() * self.apply_sync_calls as f64
            / self.apply_sync_sampled.calls as f64
    }

    /// Seconds inside the policy across every kind of call.
    pub fn total_s(&self) -> f64 {
        self.arrivals.secs()
            + self.dispatch.secs()
            + self.feedback.secs()
            + self.tick.secs()
            + self.drain_sync.secs()
            + self.apply_sync_s()
    }

    /// Folds `other` into `self` (the backlog gauge is not summed).
    pub fn merge(&mut self, other: &CallStats) {
        fn sum(a: &mut Span, b: &Span) {
            a.calls += b.calls;
            a.ticks += b.ticks;
        }
        sum(&mut self.arrivals, &other.arrivals);
        sum(&mut self.dispatch, &other.dispatch);
        sum(&mut self.feedback, &other.feedback);
        sum(&mut self.tick, &other.tick);
        sum(&mut self.drain_sync, &other.drain_sync);
        sum(&mut self.apply_sync_sampled, &other.apply_sync_sampled);
        self.dispatch_empty += other.dispatch_empty;
        self.commands += other.commands;
        self.sync_records += other.sync_records;
        self.apply_sync_calls += other.apply_sync_calls;
        self.pending_sum += other.pending_sum;
        self.pending_max = self.pending_max.max(other.pending_max);
        self.dispatch_ticks.extend_from_slice(&other.dispatch_ticks);
    }
}

/// One sharded instance's totals.
#[derive(Debug)]
pub struct Published {
    /// The worker thread that dropped it.
    pub thread: ThreadId,
    /// The site it scheduled.
    pub site: usize,
    /// What it measured.
    pub stats: CallStats,
}

/// Where sharded instances publish their totals when dropped.
pub type Sink = Arc<Mutex<Vec<Published>>>;

/// The delegating wrapper.
pub struct Timed<S> {
    inner: S,
    level: Level,
    stats: CallStats,
    sink: Option<(Sink, usize)>,
    marks: Marks,
}

impl<S: Scheduler> Timed<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, level: Level) -> Self {
        Timed {
            inner,
            level,
            stats: CallStats::default(),
            sink: None,
            marks: Marks::None,
        }
    }

    /// Publishes the totals of `site`'s instance into `sink` on drop.
    pub fn with_sink(mut self, sink: Sink, site: usize) -> Self {
        self.sink = Some((sink, site));
        self
    }

    /// Stamps the clocks at `marks`.
    pub fn with_marks(mut self, marks: Marks) -> Self {
        self.marks = marks;
        self
    }

    /// Takes what has been measured so far.
    pub fn take_stats(&mut self) -> CallStats {
        std::mem::take(&mut self.stats)
    }

    fn mark(&mut self) {
        self.stats.marks.push((Instant::now(), sys::process_cpu()));
    }

    fn full(&self) -> bool {
        self.level == Level::Full
    }

    fn clock(&self) -> Option<u64> {
        self.full().then(clock::ticks)
    }

    fn took_in(&mut self, n: usize) {
        if self.full() {
            self.stats.pending += n as u64;
        }
    }

    fn gave_out(&mut self, cmds: &[Command]) {
        if !self.full() {
            return;
        }
        self.stats.commands += cmds.len() as u64;
        for c in cmds {
            if let Command::Dispatch { tasks, .. } = c {
                self.stats.pending = self.stats.pending.saturating_sub(tasks.len() as u64);
            }
        }
    }
}

impl<S> Drop for Timed<S> {
    fn drop(&mut self) {
        if let Some((sink, site)) = &self.sink {
            if let Ok(mut v) = sink.lock() {
                v.push(Published {
                    thread: std::thread::current().id(),
                    site: *site,
                    stats: std::mem::take(&mut self.stats),
                });
            }
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrivals(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.took_in(tasks.len());
        let t = self.clock();
        self.inner.on_arrivals(now, site, tasks);
        if let Some(t) = t {
            self.stats.arrivals.add(t);
        }
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        if self.full() {
            let held = self.stats.pending;
            self.stats.pending_sum += held;
            self.stats.pending_max = self.stats.pending_max.max(held);
        }
        if let Marks::Dispatch(n) = self.marks {
            if self.stats.dispatch.calls.is_multiple_of(n) {
                self.mark();
            }
        }
        let t = clock::ticks();
        let cmds = self.inner.dispatch(now, view);
        let took = clock::since(t);
        self.stats.dispatch.calls += 1;
        self.stats.dispatch.ticks += took;
        if cmds.is_empty() {
            self.stats.dispatch_empty += 1;
        } else if !self.full() {
            self.stats
                .dispatch_ticks
                .push(took.min(u32::MAX as u64) as u32);
        }
        self.gave_out(&cmds);
        cmds
    }

    fn on_assignment(&mut self, now: SimTime, fb: &AssignmentFeedback) {
        let t = self.clock();
        self.inner.on_assignment(now, fb);
        if let Some(t) = t {
            self.stats.feedback.add(t);
        }
    }

    fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
        let t = self.clock();
        self.inner.on_group_complete(now, fb);
        if let Some(t) = t {
            self.stats.feedback.add(t);
        }
    }

    fn on_rejected(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.took_in(tasks.len());
        let t = self.clock();
        self.inner.on_rejected(now, site, tasks);
        if let Some(t) = t {
            self.stats.arrivals.add(t);
        }
    }

    fn on_orphaned(&mut self, now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.took_in(tasks.len());
        let t = self.clock();
        self.inner.on_orphaned(now, site, tasks);
        if let Some(t) = t {
            self.stats.arrivals.add(t);
        }
    }

    fn on_group_aborted(&mut self, now: SimTime, group: GroupId) {
        let t = self.clock();
        self.inner.on_group_aborted(now, group);
        if let Some(t) = t {
            self.stats.feedback.add(t);
        }
    }

    fn on_tick(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        let t = self.clock();
        let cmds = self.inner.on_tick(now, view);
        if let Some(t) = t {
            self.stats.tick.add(t);
        }
        self.gave_out(&cmds);
        cmds
    }

    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        if self.marks == Marks::Drain {
            self.mark();
        }
        let before = out.len();
        let t = self.clock();
        self.inner.drain_sync(out);
        if let Some(t) = t {
            self.stats.drain_sync.add(t);
            self.stats.sync_records += (out.len() - before) as u64;
        }
    }

    fn apply_sync(&mut self, rec: &SyncRecord) {
        if !self.full() {
            self.inner.apply_sync(rec);
            return;
        }
        self.stats.apply_sync_calls += 1;
        if self.stats.apply_sync_calls.is_multiple_of(SYNC_SAMPLE) {
            let t = clock::ticks();
            self.inner.apply_sync(rec);
            self.stats.apply_sync_sampled.add(t);
        } else {
            self.inner.apply_sync(rec);
        }
    }

    fn exploration(&self) -> Option<f64> {
        self.inner.exploration()
    }

    fn save_state(&mut self, w: &mut snapshot::SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut snapshot::SnapReader<'_>,
    ) -> Result<(), snapshot::SnapshotError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{GroupPolicy, NodeAddr};
    use workload::{Priority, TaskId};

    /// Records which calls reach it.
    #[derive(Default)]
    struct Fake {
        calls: Vec<&'static str>,
    }

    impl Scheduler for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn on_arrivals(&mut self, _: SimTime, _: SiteId, _: Vec<Task>) {
            self.calls.push("arrivals");
        }
        fn dispatch(&mut self, _: SimTime, _: &PlatformView<'_>) -> Vec<Command> {
            Vec::new()
        }
        fn on_assignment(&mut self, _: SimTime, _: &AssignmentFeedback) {
            self.calls.push("assignment");
        }
        fn on_group_complete(&mut self, _: SimTime, _: &GroupFeedback) {
            self.calls.push("complete");
        }
        fn on_group_aborted(&mut self, _: SimTime, _: GroupId) {
            self.calls.push("aborted");
        }
        fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
            self.calls.push("drain");
            out.extend([record(), record()]);
        }
        fn apply_sync(&mut self, _: &SyncRecord) {
            self.calls.push("apply");
        }
        fn exploration(&self) -> Option<f64> {
            Some(0.25)
        }
    }

    fn record() -> SyncRecord {
        SyncRecord {
            time: SimTime::ZERO,
            seq: 0,
            site: 0,
            payload: [0; 4],
        }
    }

    fn task(id: u64) -> Task {
        Task {
            id: TaskId(id),
            size_mi: 1000.0,
            arrival: SimTime::ZERO,
            deadline: SimTime::new(10.0),
            priority: Priority::Low,
            site: SiteId(0),
        }
    }

    #[test]
    fn forwards_every_call_and_counts_it() {
        let mut t = Timed::new(Fake::default(), Level::Full);
        let now = SimTime::ZERO;
        t.on_arrivals(now, SiteId(0), vec![task(0), task(1)]);
        t.on_rejected(now, SiteId(0), vec![task(2)]);
        t.on_orphaned(now, SiteId(0), vec![task(3)]);
        let assignment = AssignmentFeedback {
            group: GroupId(1),
            node: NodeAddr::new(0, 0),
            policy: GroupPolicy::Mixed,
            size: 1,
            pw: 1.0,
            capacity: 1.0,
            error: 0.0,
        };
        t.on_assignment(now, &assignment);
        let complete = GroupFeedback {
            group: GroupId(1),
            node: NodeAddr::new(0, 0),
            policy: GroupPolicy::Mixed,
            size: 1,
            reward: 1,
            pw: 1.0,
            error: 0.0,
            enqueued_at: now,
            first_start: Some(now),
            completed_at: now,
            split: false,
        };
        t.on_group_complete(now, &complete);
        t.on_group_aborted(now, GroupId(2));
        let mut out = Vec::new();
        t.drain_sync(&mut out);
        for _ in 0..2 * SYNC_SAMPLE {
            t.apply_sync(&record());
        }
        assert_eq!(t.name(), "fake");
        assert_eq!(t.exploration(), Some(0.25));
        assert_eq!(out.len(), 2);

        let mut want = vec!["arrivals"; 3];
        want.extend(["assignment", "complete", "aborted", "drain"]);
        want.extend(vec!["apply"; 2 * SYNC_SAMPLE as usize]);
        assert_eq!(t.inner.calls, want);

        let s = t.take_stats();
        assert_eq!(s.pending, 4);
        assert_eq!(s.arrivals.calls, 3);
        assert_eq!(s.feedback.calls, 3);
        assert_eq!((s.drain_sync.calls, s.sync_records), (1, 2));
        assert_eq!(s.apply_sync_calls, 2 * SYNC_SAMPLE);
        assert_eq!(s.apply_sync_sampled.calls, 2);
    }

    #[test]
    fn latency_level_only_forwards() {
        let mut t = Timed::new(Fake::default(), Level::Latency);
        t.on_arrivals(SimTime::ZERO, SiteId(0), vec![task(0)]);
        t.apply_sync(&record());
        assert_eq!(t.inner.calls, ["arrivals", "apply"]);
        let s = t.take_stats();
        assert_eq!((s.arrivals.calls, s.pending, s.apply_sync_calls), (0, 0, 0));
    }

    #[test]
    fn sink_receives_the_totals_on_drop() {
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let mut t = Timed::new(Fake::default(), Level::Full).with_sink(sink.clone(), 3);
        t.on_arrivals(SimTime::ZERO, SiteId(0), vec![task(0)]);
        drop(t);
        let got = sink.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].thread, std::thread::current().id());
        assert_eq!(got[0].site, 3);
        assert_eq!(got[0].stats.arrivals.calls, 1);
    }

    #[test]
    fn marks_stamp_the_chosen_calls() {
        let marked = |marks| {
            let mut t = Timed::new(Fake::default(), Level::Latency).with_marks(marks);
            for _ in 0..3 {
                t.drain_sync(&mut Vec::new());
            }
            t.take_stats().marks.len()
        };
        assert_eq!(marked(Marks::Drain), 3);
        assert_eq!(marked(Marks::Dispatch(2)), 0);
        assert_eq!(marked(Marks::None), 0);
    }
}

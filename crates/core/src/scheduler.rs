//! The Adaptive-RL scheduler: agents + shared memory + value estimator
//! wired into the platform's [`Scheduler`] interface.

use crate::action::ActionChoice;
use crate::agent::Agent;
use crate::config::AdaptiveRlConfig;
use crate::feedback::{learning_value, value_target};
use crate::grouping::{self, MergedGroup};
use crate::memory::{Experience, SharedLearningMemory};
use crate::state::{SiteObsCache, SiteObservation};
use crate::value::ValueEstimator;
use platform::{
    AssignmentFeedback, Command, GroupFeedback, LiveMetrics, NodeAddr, PlatformView, ProcAddr,
    Scheduler, SyncRecord,
};
use simcore::rng::RngStream;
use simcore::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use telemetry::{Phase, PhaseProfiler, Recorder, TraceLevel, Value};
use workload::{SiteId, Task};

/// A dispatched-but-unresolved sample awaiting its reward.
#[derive(Debug, Clone, Copy)]
struct Sample {
    obs: SiteObservation,
    action: ActionChoice,
    site: u32,
}

/// One site's phase-A decision, awaiting the batched scoring pass.
///
/// `action` is `Some` when the agent resolved the choice without the value
/// net (memory replay / exploration); `None` marks an exploit decision whose
/// candidates occupy rows `[start, start + len)` of the estimator's batch.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    site: usize,
    obs: SiteObservation,
    src: crate::agent::ChoiceSource,
    action: Option<ActionChoice>,
    start: usize,
    len: usize,
}

/// One eligible node captured by `select_node`'s streaming pass: address,
/// Eq. (2) capacity, availability penalty, and the deadline-feasibility
/// screen's verdict.
#[derive(Debug, Clone, Copy)]
struct NodeCand {
    addr: NodeAddr,
    cap: f64,
    pen: f64,
    feasible: bool,
}

/// The paper's Adaptive-RL energy-management scheduler.
///
/// ```
/// use adaptive_rl::{AdaptiveRl, AdaptiveRlConfig};
/// use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec};
/// use simcore::rng::RngStream;
/// use workload::{Workload, WorkloadSpec};
///
/// let rng = RngStream::root(7);
/// let platform = Platform::generate(PlatformSpec::small(2, 2, 4), &rng.derive("p"));
/// let wl = Workload::generate(
///     WorkloadSpec::paper(80, 2, platform.reference_speed()),
///     &rng.derive("w"),
/// );
/// let mut sched = AdaptiveRl::new(platform.num_sites(), AdaptiveRlConfig::default());
/// let result = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
/// assert_eq!(result.incomplete, 0);
/// assert!(sched.cycles() > 0, "the agent learned from completed groups");
/// ```
pub struct AdaptiveRl {
    cfg: AdaptiveRlConfig,
    agents: Vec<Agent>,
    memory: SharedLearningMemory,
    value: ValueEstimator,
    epsilon: f64,
    cycles: u64,
    /// Samples for Dispatch commands issued this round, FIFO — resolved by
    /// the engine's in-order `on_assignment` / `on_rejected` callbacks.
    issued: VecDeque<Sample>,
    /// Samples awaiting group completion, keyed by group id.
    in_flight: HashMap<u64, Sample>,
    /// Reusable per-round ledger of queue slots claimed by this round's
    /// dispatches — cleared per site, capacity kept across rounds.
    used_scratch: Vec<(NodeAddr, usize)>,
    /// Reusable candidate-node pool for `select_node`'s streaming pass —
    /// overwritten per group, capacity kept across rounds.
    node_scratch: Vec<NodeCand>,
    /// Reusable candidate-action buffer — refilled per site, capacity
    /// kept across rounds.
    cand_scratch: Vec<ActionChoice>,
    /// Reusable phase-A decision records — one entry per deciding site,
    /// cleared per round, capacity kept across rounds.
    pending_scratch: Vec<PendingDecision>,
    /// Reusable flat store of every deferred site's candidates, parallel to
    /// the estimator's batch rows (cleared per round).
    batch_cands: Vec<ActionChoice>,
    /// Per-site observation memo, keyed by the platform's site mutation
    /// epoch — skips the per-node scan when nothing at the site changed
    /// since the last dispatch (bit-identical reuse, so decisions are
    /// unaffected).
    obs_cache: Vec<SiteObsCache>,
    /// Telemetry recorder ([`telemetry::NullRecorder`] unless attached
    /// via [`AdaptiveRl::with_recorder`]); `Arc` so the replicated
    /// runner can share one sink across schedulers.
    rec: Arc<dyn Recorder>,
    /// Level gates cached at attach time — the untraced hot path pays
    /// one predictable branch per site.
    t_dec: bool,
    t_cyc: bool,
    /// Shared-memory consultations that replayed a remembered action /
    /// fell through to ε-greedy (tracked only while tracing).
    mem_hits: u64,
    mem_misses: u64,
    /// Live metric handles (decision-latency histogram, ε gauge);
    /// `None` keeps the hot path a single predictable branch.
    mon: Option<Arc<LiveMetrics>>,
    /// Phase profiler for `--profile` runs; `None` skips every clock
    /// read around observation build / scoring / training.
    prof: Option<Arc<PhaseProfiler>>,
    /// Global site id of this instance's (single) agent when built via
    /// [`AdaptiveRl::for_shard`]; `0` in the sequential engine, where
    /// local agent indices *are* global site ids.
    site_offset: u32,
    /// Whether this instance is one shard of a sharded run: experiences
    /// are logged for cross-shard sync and the memory spans every site.
    shard_mode: bool,
    /// Cross-shard sync records produced since the last drain.
    sync_log: Vec<SyncRecord>,
    /// Per-instance sequence counter for the canonical sync order.
    sync_seq: u64,
}

impl AdaptiveRl {
    /// Creates a scheduler for a platform with `num_sites` resource sites.
    ///
    /// # Panics
    /// Panics on an invalid configuration or zero sites.
    pub fn new(num_sites: usize, cfg: AdaptiveRlConfig) -> Self {
        cfg.validate();
        assert!(num_sites > 0, "need at least one site");
        let root = RngStream::root(cfg.seed);
        let agents = (0..num_sites)
            .map(|s| Agent::new(SiteId(s as u32), root.derive_indexed("agent", s as u64)))
            .collect();
        AdaptiveRl {
            agents,
            memory: SharedLearningMemory::new(num_sites, cfg.memory_depth),
            value: ValueEstimator::with_precision(
                cfg.hidden,
                cfg.lr,
                cfg.momentum,
                cfg.seed,
                cfg.precision,
            ),
            epsilon: cfg.epsilon0,
            cycles: 0,
            issued: VecDeque::new(),
            in_flight: HashMap::new(),
            used_scratch: Vec::new(),
            node_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            batch_cands: Vec::new(),
            obs_cache: vec![SiteObsCache::default(); num_sites],
            rec: Arc::new(telemetry::NullRecorder),
            t_dec: false,
            t_cyc: false,
            mem_hits: 0,
            mem_misses: 0,
            mon: None,
            prof: None,
            site_offset: 0,
            shard_mode: false,
            sync_log: Vec::new(),
            sync_seq: 0,
            cfg,
        }
    }

    /// Creates the scheduler instance owning global site `global_site` of
    /// a sharded run over `total_sites` sites.
    ///
    /// The single local agent draws from the same counter-based stream
    /// the sequential engine would hand agent `global_site`
    /// (`root(seed).derive_indexed("agent", global_site)`), and the
    /// shared learning memory spans all `total_sites` rings so every
    /// shard holds an identical replica: local experiences enter
    /// immediately, foreign ones at the next epoch barrier via
    /// [`Scheduler::apply_sync`], in canonical order. Exploration rate
    /// and the value estimator stay per-site — decentralised learners,
    /// as in the paper's multi-agent story.
    ///
    /// # Panics
    /// Panics on an invalid configuration or `global_site >= total_sites`.
    pub fn for_shard(global_site: usize, total_sites: usize, cfg: AdaptiveRlConfig) -> Self {
        assert!(
            global_site < total_sites,
            "site {global_site} outside platform of {total_sites} sites"
        );
        let mut s = Self::new(1, cfg);
        let root = RngStream::root(s.cfg.seed);
        s.agents = vec![Agent::new(
            SiteId(0),
            root.derive_indexed("agent", global_site as u64),
        )];
        s.memory = SharedLearningMemory::new(total_sites, s.cfg.memory_depth);
        s.site_offset = global_site as u32;
        s.shard_mode = true;
        s
    }

    /// Attaches a telemetry recorder: per-decision events (chosen node,
    /// policy, `pw`, ε, shared-memory hit/miss), a decision-latency
    /// histogram, and per-learning-cycle summaries (value-net training
    /// error, exploration rate).
    pub fn with_recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.t_dec = rec.wants(TraceLevel::Decisions);
        self.t_cyc = rec.wants(TraceLevel::Cycles);
        self.rec = rec;
        self
    }

    /// Attaches live metric handles: every dispatch round that produced
    /// commands observes its wall-clock latency into
    /// `arls_decision_latency_seconds`, and every learning cycle updates
    /// the `arls_epsilon` gauge. Strictly observing.
    pub fn with_metrics(mut self, mon: Arc<LiveMetrics>) -> Self {
        self.mon = Some(mon);
        self
    }

    /// Attaches a phase profiler: observation building, batched candidate
    /// scoring and value-net training report their wall time. Strictly
    /// observing; without it the scheduler never reads the clock for
    /// profiling.
    pub fn with_profiler(mut self, prof: Arc<PhaseProfiler>) -> Self {
        self.prof = Some(prof);
        self
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Learning cycles completed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Read access to the shared-learning memory (diagnostics).
    pub fn memory(&self) -> &SharedLearningMemory {
        &self.memory
    }

    /// Eq. (10) processing weight of a candidate group.
    fn group_pw(tasks: &[Task]) -> f64 {
        let work: f64 = tasks.iter().map(|t| t.size_mi).sum();
        let budget: f64 = tasks
            .iter()
            .map(|t| t.deadline.since(t.arrival).as_f64())
            .sum();
        work / budget.max(f64::MIN_POSITIVE)
    }

    /// Picks the node whose capacity best fits the group (minimum Eq. (9)
    /// error), honouring queue slots already claimed this round.
    /// `scratch` is a reusable buffer for the captured candidate pool —
    /// contents are overwritten.
    fn select_node(
        &self,
        view: &PlatformView<'_>,
        site: SiteId,
        group: &MergedGroup,
        used: &[(NodeAddr, usize)],
        scratch: &mut Vec<NodeCand>,
    ) -> Option<NodeAddr> {
        use std::cmp::Ordering;
        let pw = Self::group_pw(&group.tasks);
        let claimed = |addr: NodeAddr| {
            used.iter()
                .find(|(a, _)| *a == addr)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        // `available_processors()` equals `num_processors()` on a healthy
        // platform; under injected faults it excludes downed processors, so
        // the agent never offers a group wider than a node can still serve.
        let eligible = |n: &platform::NodeView<'_>| {
            n.queue_available() > claimed(n.addr()) && n.available_processors() >= group.tasks.len()
        };
        // Degradation-aware placement: a positive penalty inflates the
        // assignment error of nodes that have lost processors.
        let avail_pen =
            |n: &platform::NodeView<'_>| self.cfg.availability_penalty * (1.0 - n.availability());
        if self.cfg.use_error_feedback {
            // Both feedback signals steer placement: the reward needs the
            // deadline met, the error needs pw matched to capacity. First
            // keep nodes that can plausibly finish the group's largest
            // member before the earliest deadline, then minimise Eq. (9)
            // among them (falling back to all eligible nodes when none
            // qualifies).
            let now = view.now();
            let max_size = group
                .tasks
                .iter()
                .map(|t| t.size_mi)
                .fold(0.0_f64, f64::max);
            let earliest_slack = group
                .tasks
                .iter()
                .map(|t| t.deadline.since(now).as_f64())
                .fold(f64::INFINITY, f64::min);
            let feasible = |n: &platform::NodeView<'_>| {
                let mean_speed = n.raw_speed() / n.num_processors() as f64 * n.throttle();
                max_size / mean_speed.max(1.0) <= earliest_slack
            };
            // One streaming pass over the site's nodes captures each
            // eligible node's (addr, capacity, penalty, feasibility) in
            // site order while folding the screen aggregates; selection
            // then runs over the captured pool without touching node state
            // again. Nothing mutates between capture and selection, so the
            // chosen node — values, order, and tie rules — is bit-identical
            // to the former two-pass formulation.
            scratch.clear();
            let mut any_feasible = false;
            let mut min_cap_feasible = f64::INFINITY;
            let mut min_cap_eligible = f64::INFINITY;
            for n in view.site_nodes(site) {
                if !eligible(&n) {
                    continue;
                }
                let cap = n.processing_capacity();
                min_cap_eligible = min_cap_eligible.min(cap);
                let fe = feasible(&n);
                if fe {
                    any_feasible = true;
                    min_cap_feasible = min_cap_feasible.min(cap);
                }
                scratch.push(NodeCand {
                    addr: n.addr(),
                    cap,
                    pen: avail_pen(&n),
                    feasible: fe,
                });
            }
            if scratch.is_empty() {
                return None;
            }
            let min_cap = if any_feasible {
                min_cap_feasible
            } else {
                min_cap_eligible
            };
            // §IV.D.1: "a task group with a small pw is required to be
            // executed as early as possible" — when every candidate node
            // over-provides capacity, the earliest finish is the fastest
            // node. Otherwise match pw to capacity (minimum Eq. (9)
            // error). Original tie rules: max_by keeps the LAST maximal
            // element, min_by the FIRST minimal.
            let mut best: Option<(NodeAddr, f64)> = None;
            for c in scratch.iter().filter(|c| !any_feasible || c.feasible) {
                if pw <= min_cap {
                    // The penalty discounts a degraded node's capacity
                    // (no-op at penalty 0 or full availability).
                    let v = c.cap * (1.0 - c.pen).max(0.0);
                    match best {
                        Some((_, bc)) if v.total_cmp(&bc) == Ordering::Less => {}
                        _ => best = Some((c.addr, v)),
                    }
                } else {
                    let e = (1.0 - c.cap / pw).abs() + c.pen;
                    match best {
                        Some((_, be)) if e.total_cmp(&be) != Ordering::Less => {}
                        _ => best = Some((c.addr, e)),
                    }
                }
            }
            best.map(|(a, _)| a)
        } else {
            // max_by_key keeps the last maximal element.
            let mut best: Option<(NodeAddr, usize)> = None;
            for n in view.site_nodes(site) {
                if !eligible(&n) {
                    continue;
                }
                let k = n.queue_available() - claimed(n.addr());
                match best {
                    Some((_, bk)) if k < bk => {}
                    _ => best = Some((n.addr(), k)),
                }
            }
            best.map(|(a, _)| a)
        }
    }
}

impl Scheduler for AdaptiveRl {
    fn name(&self) -> &str {
        "Adaptive-RL"
    }

    fn on_arrivals(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        self.agents[site.0 as usize].buffer(tasks);
    }

    fn dispatch(&mut self, now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        // Wall-clock only ticks while tracing or monitoring; the plain
        // path never touches `Instant`.
        let t0 = if self.t_dec || self.mon.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut cmds = Vec::new();
        let mut used = std::mem::take(&mut self.used_scratch);
        let mut node_pool = std::mem::take(&mut self.node_scratch);
        // Phase A: per-site observation and the cheap (non-neural) part of
        // action selection, staging every exploiting site's candidates into
        // one scoring batch. Safe to split from dispatch: each agent draws
        // from its own RNG stream, the memory is read-only here, and each
        // site's pending pool and observation are independent.
        let mut decisions = std::mem::take(&mut self.pending_scratch);
        decisions.clear();
        let mut batch_cands = std::mem::take(&mut self.batch_cands);
        batch_cands.clear();
        self.value.begin_batch();
        for idx in 0..self.agents.len() {
            if self.agents[idx].pending.is_empty() {
                continue;
            }
            let site = SiteId(idx as u32);
            let obs_t = self.prof.as_ref().map(|_| std::time::Instant::now());
            let obs = SiteObservation::observe_cached(
                view,
                site,
                &self.agents[idx].pending,
                &mut self.obs_cache[idx],
            );
            if let (Some(p), Some(t)) = (&self.prof, obs_t) {
                p.record_duration(Phase::ObsBuild, t.elapsed());
            }
            if obs.max_procs == 0 {
                continue;
            }
            ActionChoice::candidates_into(obs.max_procs, &mut self.cand_scratch);
            if let Some(forced) = self.cfg.force_policy {
                self.cand_scratch.retain(|c| c.policy == forced);
            }
            let (action, src) = self.agents[idx].decide(
                &self.cand_scratch,
                self.epsilon,
                self.cfg.use_value_net,
                &self.memory,
                (!self.cfg.use_shared_memory).then_some(self.site_offset + idx as u32),
                obs.max_procs,
            );
            let (start, len) = if action.is_none() {
                let start = self.value.push_candidates(&obs, &self.cand_scratch);
                batch_cands.extend_from_slice(&self.cand_scratch);
                (start, self.cand_scratch.len())
            } else {
                (0, 0)
            };
            decisions.push(PendingDecision {
                site: idx,
                obs,
                src,
                action,
                start,
                len,
            });
        }
        // One batched kernel pass scores every staged candidate row.
        if self.value.batch_rows() > 0 {
            let score_t = self.prof.as_ref().map(|_| std::time::Instant::now());
            self.value.score_batch();
            if let (Some(p), Some(t)) = (&self.prof, score_t) {
                p.record_duration(Phase::Score, t.elapsed());
            }
        }
        // Phase B: resolve each site's action (batch argmax for exploit
        // decisions), then group, place, and emit — in the original site
        // order, so telemetry, the issued queue, and the command stream are
        // identical to the per-site formulation.
        for d in &decisions {
            let idx = d.site;
            let site = SiteId(idx as u32);
            let obs = d.obs;
            let src = d.src;
            let action = match d.action {
                Some(a) => a,
                None => batch_cands[d.start + self.value.argmax_in(d.start, d.len)],
            };
            if self.t_cyc && self.cfg.use_shared_memory {
                if src == crate::agent::ChoiceSource::MemoryReplay {
                    self.mem_hits += 1;
                    self.rec.counter_add("memory.hits", 1);
                } else {
                    self.mem_misses += 1;
                    self.rec.counter_add("memory.misses", 1);
                }
            }
            // Hold partial chunks only while the site has no idle
            // processor — grouping must never delay tasks that could start
            // right away. Answered from the cached site aggregates (same
            // predicate as the former per-node scan).
            let site_idle = view.site_has_free_node(site);
            let effective_flush = if site_idle { 0.0 } else { self.cfg.flush_age };
            let groups =
                grouping::merge(&mut self.agents[idx].pending, action, now, effective_flush);
            used.clear();
            for group in groups {
                match self.select_node(view, site, &group, &used, &mut node_pool) {
                    Some(addr) => {
                        match used.iter_mut().find(|(a, _)| *a == addr) {
                            Some((_, c)) => *c += 1,
                            None => used.push((addr, 1)),
                        }
                        if self.t_dec {
                            self.rec.event(
                                "decision",
                                now.as_f64(),
                                0,
                                &[
                                    ("site", Value::U64(idx as u64)),
                                    ("node", Value::U64(addr.node as u64)),
                                    (
                                        "policy",
                                        Value::Str(match group.policy {
                                            platform::GroupPolicy::Mixed => "mixed",
                                            platform::GroupPolicy::Identical(_) => "identical",
                                        }),
                                    ),
                                    ("opnum", Value::U64(action.opnum as u64)),
                                    ("size", Value::U64(group.tasks.len() as u64)),
                                    ("pw", Value::F64(Self::group_pw(&group.tasks))),
                                    ("epsilon", Value::F64(self.epsilon)),
                                    (
                                        "source",
                                        Value::Str(match src {
                                            crate::agent::ChoiceSource::MemoryReplay => "memory",
                                            crate::agent::ChoiceSource::Explore => "explore",
                                            crate::agent::ChoiceSource::Exploit => "exploit",
                                        }),
                                    ),
                                ],
                            );
                        }
                        self.issued.push_back(Sample {
                            obs,
                            action,
                            site: idx as u32,
                        });
                        cmds.push(Command::Dispatch {
                            node: addr,
                            tasks: group.tasks,
                            policy: group.policy,
                        });
                    }
                    None => {
                        // Site saturated: keep the tasks pending.
                        self.agents[idx].pending.extend(group.tasks);
                    }
                }
            }
        }
        self.used_scratch = used;
        self.node_scratch = node_pool;
        self.pending_scratch = decisions;
        self.batch_cands = batch_cands;
        if let Some(t0) = t0 {
            // Only rounds that produced commands count as decisions.
            if !cmds.is_empty() {
                let secs = t0.elapsed().as_secs_f64();
                if self.t_dec {
                    self.rec.histogram("decision_latency_us", secs * 1e6);
                }
                if let Some(m) = &self.mon {
                    m.decision_latency.observe(m.shard, secs);
                }
            }
        }
        cmds
    }

    fn on_assignment(&mut self, _now: SimTime, fb: &AssignmentFeedback) {
        if let Some(sample) = self.issued.pop_front() {
            self.in_flight.insert(fb.group.0, sample);
        }
    }

    fn on_rejected(&mut self, _now: SimTime, site: SiteId, tasks: Vec<Task>) {
        let _ = self.issued.pop_front();
        self.agents[site.0 as usize].buffer(tasks);
    }

    fn on_tick(&mut self, _now: SimTime, view: &PlatformView<'_>) -> Vec<Command> {
        if !self.cfg.power_gating {
            return Vec::new();
        }
        // Hibernate processors of drained nodes while the agent has no
        // pending work; the engine wakes them on demand.
        let mut cmds = Vec::new();
        for (idx, agent) in self.agents.iter().enumerate() {
            if !agent.pending.is_empty() {
                continue;
            }
            let site = SiteId(idx as u32);
            for node in view.site_nodes(site) {
                if node.queue_len() > 0 {
                    continue;
                }
                for p in 0..node.num_processors() {
                    if node.proc_is_idle(p) {
                        cmds.push(Command::Sleep(ProcAddr {
                            node: node.addr(),
                            proc: p as u32,
                        }));
                    }
                }
            }
        }
        cmds
    }

    fn on_group_aborted(&mut self, _now: SimTime, group: platform::GroupId) {
        // No Eq. (8) reward will ever arrive for a group a failure
        // destroyed; drop the waiting sample so it cannot leak.
        self.in_flight.remove(&group.0);
    }

    fn exploration(&self) -> Option<f64> {
        Some(self.epsilon)
    }

    fn on_group_complete(&mut self, now: SimTime, fb: &GroupFeedback) {
        self.cycles += 1;
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_floor);
        if let Some(m) = &self.mon {
            m.epsilon.set(self.epsilon);
        }
        let Some(sample) = self.in_flight.remove(&fb.group.0) else {
            return;
        };
        let l_val = learning_value(fb.reward, fb.error, self.cfg.error_floor);
        self.memory.record(Experience {
            // In shard mode the single local agent occupies ring
            // `site_offset`; sequentially the offset is 0 and local
            // indices are global.
            agent: self.site_offset + sample.site,
            action: sample.action,
            l_val,
            cycle: self.cycles,
        });
        if self.shard_mode {
            // Queue the experience for the epoch barrier; `seq` preserves
            // this site's production order inside one epoch batch.
            self.sync_seq += 1;
            self.sync_log.push(SyncRecord {
                time: now,
                seq: self.sync_seq,
                site: self.site_offset,
                payload: [
                    match sample.action.policy {
                        crate::action::PolicyKind::Mixed => 0,
                        crate::action::PolicyKind::Identical => 1,
                    },
                    sample.action.opnum as u64,
                    l_val.to_bits(),
                    self.cycles,
                ],
            });
        }
        // The value-table delta: `train` returns the pre-update squared
        // error. NaN (rendered as JSON null) marks cycles that trained
        // nothing.
        let mut value_mse = f64::NAN;
        if self.cfg.use_reward_feedback {
            let target = value_target(fb.reward, fb.size, fb.error);
            if self.cfg.use_value_net {
                let train_t = self.prof.as_ref().map(|_| std::time::Instant::now());
                value_mse = self.value.train(&sample.obs, sample.action, target);
                if let (Some(p), Some(t)) = (&self.prof, train_t) {
                    p.record_duration(Phase::Train, t.elapsed());
                }
            }
            self.agents[sample.site as usize].note_reward(fb.success_rate());
        }
        if self.t_cyc {
            self.rec.counter_add("learning.cycles", 1);
            self.rec.event(
                "learning_cycle",
                now.as_f64(),
                0,
                &[
                    ("cycle", Value::U64(self.cycles)),
                    ("site", Value::U64(sample.site as u64)),
                    ("reward", Value::U64(fb.reward as u64)),
                    ("size", Value::U64(fb.size as u64)),
                    ("err", Value::F64(fb.error)),
                    ("l_val", Value::F64(l_val)),
                    ("value_mse", Value::F64(value_mse)),
                    ("epsilon", Value::F64(self.epsilon)),
                    ("lr", Value::F64(self.cfg.lr)),
                    ("mem_len", Value::U64(self.memory.len() as u64)),
                    ("mem_hits", Value::U64(self.mem_hits)),
                    ("mem_misses", Value::U64(self.mem_misses)),
                ],
            );
        }
    }

    fn drain_sync(&mut self, out: &mut Vec<SyncRecord>) {
        // Every receiver files these records, in order, into this site's
        // ring, which holds `memory_depth` entries under the config all
        // sites share: older records of the batch would be evicted before
        // anything reads the ring, so only the newest are sent.
        let stale = self.sync_log.len().saturating_sub(self.cfg.memory_depth);
        out.extend_from_slice(&self.sync_log[stale..]);
        self.sync_log.clear();
    }

    fn apply_sync(&mut self, rec: &SyncRecord) {
        // Foreign shards' experiences replicate into this instance's
        // shared memory; a malformed payload is ignored (the wire format
        // is produced by this module, so this is defensive only).
        let policy = match rec.payload[0] {
            0 => crate::action::PolicyKind::Mixed,
            1 => crate::action::PolicyKind::Identical,
            _ => return,
        };
        let opnum = rec.payload[1] as usize;
        if opnum == 0 || rec.site as usize >= self.memory.num_agents() {
            return;
        }
        self.memory.record(Experience {
            agent: rec.site,
            action: ActionChoice { policy, opnum },
            l_val: f64::from_bits(rec.payload[2]),
            cycle: rec.payload[3],
        });
    }

    fn save_state(&mut self, w: &mut snapshot::SnapWriter) {
        w.f64(self.epsilon);
        w.u64(self.cycles);
        w.u64(self.mem_hits);
        w.u64(self.mem_misses);
        w.usize(self.agents.len());
        for a in &self.agents {
            w.usize(a.pending.len());
            for t in &a.pending {
                t.snap_write(w);
            }
            w.opt_f64(a.last_success);
            w.bool(a.consult_memory);
            w.u64(a.rng().seed());
            for s in a.rng().state() {
                w.u64(s);
            }
        }
        w.usize(self.memory.num_agents());
        for agent in 0..self.memory.num_agents() {
            w.usize(self.memory.len_of(agent as u32));
            for exp in self.memory.iter_of(agent as u32) {
                write_action(w, exp.action);
                // Raw bits: a diverged learner can legitimately record a
                // NaN learning value (it must survive the round trip).
                w.f64(exp.l_val);
                w.u64(exp.cycle);
            }
        }
        // The snapshot surface is f64 in both kernel precisions (f32 → f64
        // widening is exact), so the byte stream matches the pre-batching
        // format and f32 runs resume bit-exactly.
        let mut params = Vec::new();
        let mut velocity = Vec::new();
        let steps = self.value.snapshot_into(&mut params, &mut velocity);
        w.usize(params.len());
        for &p in &params {
            w.f64(p);
        }
        w.usize(velocity.len());
        for &v in &velocity {
            w.f64(v);
        }
        w.u64(steps);
        w.usize(self.issued.len());
        for s in &self.issued {
            write_sample(w, s);
        }
        let mut keys: Vec<u64> = self.in_flight.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for k in keys {
            w.u64(k);
            write_sample(w, &self.in_flight[&k]);
        }
    }

    fn load_state(
        &mut self,
        r: &mut snapshot::SnapReader<'_>,
    ) -> Result<(), snapshot::SnapshotError> {
        use snapshot::corrupt;
        let epsilon = r.f64_finite()?;
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(corrupt(format!("epsilon {epsilon} outside [0, 1]")));
        }
        let cycles = r.u64()?;
        let mem_hits = r.u64()?;
        let mem_misses = r.u64()?;
        let n_agents = r.len_hint()?;
        if n_agents != self.agents.len() {
            return Err(corrupt(format!(
                "snapshot has {n_agents} agents, scheduler has {}",
                self.agents.len()
            )));
        }
        for a in &mut self.agents {
            let n_pending = r.len_hint()?;
            let mut pending = Vec::with_capacity(n_pending);
            for _ in 0..n_pending {
                pending.push(Task::snap_read(r)?);
            }
            a.pending = pending;
            a.last_success = r.opt_f64()?;
            a.consult_memory = r.bool()?;
            let seed = r.u64()?;
            let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            a.set_rng(RngStream::from_parts(seed, state));
        }
        let n_rings = r.len_hint()?;
        if n_rings != self.memory.num_agents() {
            return Err(corrupt(format!(
                "snapshot has {n_rings} memory rings, scheduler has {}",
                self.memory.num_agents()
            )));
        }
        let mut memory = SharedLearningMemory::new(n_rings, self.memory.depth());
        for agent in 0..n_rings {
            let n_exp = r.len_hint()?;
            if n_exp > self.memory.depth() {
                return Err(corrupt(format!(
                    "ring {agent} holds {n_exp} experiences, depth is {}",
                    self.memory.depth()
                )));
            }
            for _ in 0..n_exp {
                let action = read_action(r)?;
                let l_val = r.f64()?;
                let cycle = r.u64()?;
                memory.record(Experience {
                    agent: agent as u32,
                    action,
                    l_val,
                    cycle,
                });
            }
        }
        let n_params = r.len_hint()?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(r.f64()?);
        }
        let n_vel = r.len_hint()?;
        let mut velocity = Vec::with_capacity(n_vel);
        for _ in 0..n_vel {
            velocity.push(r.f64()?);
        }
        let steps = r.u64()?;
        if !self
            .value
            .restore_snapshot(&params, velocity.as_slice(), steps)
        {
            return Err(corrupt(format!(
                "value net shape mismatch: snapshot has {n_params} params / {n_vel} velocities, \
                 network has {}",
                self.value.param_count()
            )));
        }
        let n_issued = r.len_hint()?;
        let mut issued = VecDeque::with_capacity(n_issued);
        for _ in 0..n_issued {
            issued.push_back(read_sample(r, n_agents)?);
        }
        let n_flight = r.len_hint()?;
        let mut in_flight = HashMap::with_capacity(n_flight);
        for _ in 0..n_flight {
            let key = r.u64()?;
            let sample = read_sample(r, n_agents)?;
            if in_flight.insert(key, sample).is_some() {
                return Err(corrupt(format!("duplicate in-flight group {key}")));
            }
        }
        self.epsilon = epsilon;
        self.cycles = cycles;
        self.mem_hits = mem_hits;
        self.mem_misses = mem_misses;
        self.memory = memory;
        self.issued = issued;
        self.in_flight = in_flight;
        Ok(())
    }
}

fn write_action(w: &mut snapshot::SnapWriter, a: ActionChoice) {
    w.u8(match a.policy {
        crate::action::PolicyKind::Mixed => 0,
        crate::action::PolicyKind::Identical => 1,
    });
    w.usize(a.opnum);
}

fn read_action(r: &mut snapshot::SnapReader<'_>) -> Result<ActionChoice, snapshot::SnapshotError> {
    let policy = match r.u8()? {
        0 => crate::action::PolicyKind::Mixed,
        1 => crate::action::PolicyKind::Identical,
        t => return Err(snapshot::corrupt(format!("unknown policy tag {t}"))),
    };
    let opnum = r.usize()?;
    if opnum == 0 {
        return Err(snapshot::corrupt("action opnum must be positive"));
    }
    Ok(ActionChoice { policy, opnum })
}

fn write_sample(w: &mut snapshot::SnapWriter, s: &Sample) {
    w.f64(s.obs.mean_load);
    w.f64(s.obs.mean_queue_free);
    w.f64(s.obs.mean_power_frac);
    w.f64(s.obs.mean_capacity);
    w.usize(s.obs.max_procs);
    w.usize(s.obs.pending);
    for &m in &s.obs.priority_mix {
        w.f64(m);
    }
    w.f64(s.obs.availability);
    write_action(w, s.action);
    w.u32(s.site);
}

fn read_sample(
    r: &mut snapshot::SnapReader<'_>,
    num_sites: usize,
) -> Result<Sample, snapshot::SnapshotError> {
    let obs = SiteObservation {
        mean_load: r.f64_finite()?,
        mean_queue_free: r.f64_finite()?,
        mean_power_frac: r.f64_finite()?,
        mean_capacity: r.f64_finite()?,
        max_procs: r.usize()?,
        pending: r.usize()?,
        priority_mix: [r.f64_finite()?, r.f64_finite()?, r.f64_finite()?],
        availability: r.f64_finite()?,
    };
    let action = read_action(r)?;
    let site = r.u32()?;
    if site as usize >= num_sites {
        return Err(snapshot::corrupt(format!(
            "sample site {site} out of range"
        )));
    }
    Ok(Sample { obs, action, site })
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::{ExecConfig, ExecEngine, Platform, PlatformSpec, RunResult};
    use workload::{Workload, WorkloadSpec};

    fn run(seed: u64, n_tasks: usize, iat: f64, cfg: AdaptiveRlConfig) -> RunResult {
        let rng = RngStream::root(seed);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(n_tasks, 2, platform.reference_speed());
        wspec.mean_interarrival = iat;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(2, cfg);
        ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
    }

    #[test]
    fn completes_all_tasks_light_load() {
        let r = run(1, 300, 2.0, AdaptiveRlConfig::default());
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert_eq!(r.scheduler, "Adaptive-RL");
        assert!(r.success_rate() > 0.5, "success {}", r.success_rate());
    }

    #[test]
    fn completes_all_tasks_heavy_load() {
        let r = run(2, 600, 0.35, AdaptiveRlConfig::default());
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
        assert!(r.groups_completed > 0);
        // Under heavy load grouping must actually group.
        assert!(
            (r.groups_dispatched as usize) < 600,
            "dispatched {} groups for 600 tasks",
            r.groups_dispatched
        );
    }

    #[test]
    fn learning_state_advances() {
        let rng = RngStream::root(3);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.5;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(2, AdaptiveRlConfig::default());
        let eps0 = sched.epsilon();
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0);
        assert!(sched.cycles() > 0);
        assert!(sched.epsilon() < eps0, "epsilon must decay with cycles");
        assert!(!sched.memory().is_empty(), "memory must fill");
        assert!(sched.memory().len() <= 2 * 15, "ring bound respected");
    }

    #[test]
    fn unshared_replay_reads_the_shard_agents_own_ring() {
        // Global site 2 of 3 with shared access ablated: a reward drop
        // must replay ring 2's best experience, not the better one in
        // global site 0's ring (a shard's single agent is local site 0).
        use crate::action::PolicyKind;
        let rng = RngStream::root(5);
        let platform = Platform::generate(PlatformSpec::small(1, 3, 4), &rng.derive("p"));
        let wl = Workload::generate(
            WorkloadSpec::paper(6, 1, platform.reference_speed()),
            &rng.derive("w"),
        );
        let cfg = AdaptiveRlConfig {
            use_shared_memory: false,
            ..AdaptiveRlConfig::default()
        };
        let mut s = AdaptiveRl::for_shard(2, 3, cfg);
        let experience = |agent, policy, opnum, l_val| Experience {
            agent,
            action: ActionChoice { policy, opnum },
            l_val,
            cycle: 1,
        };
        s.memory.record(experience(0, PolicyKind::Mixed, 1, 100.0));
        s.memory
            .record(experience(2, PolicyKind::Identical, 3, 1.0));
        s.agents[0].note_reward(0.9);
        s.agents[0].note_reward(0.1);
        let now = SimTime::new(0.0);
        s.on_arrivals(now, SiteId(0), wl.tasks);
        let cmds = s.dispatch(now, &PlatformView::new(&platform, now));
        assert!(!cmds.is_empty());
        let chosen = s.issued.back().expect("a dispatched sample").action;
        assert_eq!(
            chosen,
            ActionChoice {
                policy: PolicyKind::Identical,
                opnum: 3
            }
        );
    }

    #[test]
    fn drained_sync_suffix_fills_receivers_ring_like_the_whole_batch() {
        // One epoch's batch longer than the ring: a receiver filing only
        // the drained records must end with the same ring for the producer.
        let cfg = AdaptiveRlConfig::default();
        let batch: Vec<SyncRecord> = (0..40u64)
            .map(|i| SyncRecord {
                time: SimTime::new(i as f64),
                seq: i + 1,
                site: 1,
                payload: [i % 2, 1 + i % 4, (i as f64).to_bits(), i],
            })
            .collect();
        let mut producer = AdaptiveRl::for_shard(1, 2, cfg);
        producer.sync_log = batch.clone();
        let mut drained = Vec::new();
        producer.drain_sync(&mut drained);
        assert_eq!(drained.len(), cfg.memory_depth);
        let mut whole = AdaptiveRl::for_shard(0, 2, cfg);
        let mut suffix = AdaptiveRl::for_shard(0, 2, cfg);
        batch.iter().for_each(|r| whole.apply_sync(r));
        drained.iter().for_each(|r| suffix.apply_sync(r));
        assert!(whole.memory.iter_of(1).eq(suffix.memory.iter_of(1)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(7, 200, 1.0, AdaptiveRlConfig::default());
        let b = run(7, 200, 1.0, AdaptiveRlConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_energy, b.total_energy);
    }

    #[test]
    fn ablated_variants_still_complete() {
        for cfg in [
            AdaptiveRlConfig {
                use_shared_memory: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_value_net: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_error_feedback: false,
                ..Default::default()
            },
            AdaptiveRlConfig {
                use_reward_feedback: false,
                ..Default::default()
            },
        ] {
            let r = run(9, 250, 0.8, cfg);
            assert_eq!(r.incomplete, 0, "cfg {cfg:?}");
        }
    }

    #[test]
    fn power_gating_saves_energy_with_a_real_sleep_state() {
        // Give the platform a genuine deep-sleep wattage, run a sparse
        // workload, and compare gated vs ungated energy.
        let mk = |gating: bool| {
            let rng = RngStream::root(17);
            let mut pspec = PlatformSpec::small(2, 3, 4);
            pspec.power.p_sleep = 5.0;
            let platform = Platform::generate(pspec, &rng.derive("p"));
            let mut wspec = workload::WorkloadSpec::paper(120, 2, platform.reference_speed());
            wspec.mean_interarrival = 6.0; // long idle gaps
            let wl = workload::Workload::generate(wspec, &rng.derive("w"));
            let cfg = AdaptiveRlConfig {
                power_gating: gating,
                ..AdaptiveRlConfig::default()
            };
            let mut sched = AdaptiveRl::new(2, cfg);
            ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched)
        };
        let gated = mk(true);
        let ungated = mk(false);
        assert_eq!(gated.incomplete, 0, "gating must never strand tasks");
        assert_eq!(ungated.incomplete, 0);
        assert!(
            gated.total_energy < ungated.total_energy * 0.8,
            "hibernation must pay on sparse load: {} vs {}",
            gated.total_energy,
            ungated.total_energy
        );
    }

    #[test]
    fn power_gating_is_safe_under_heavy_load() {
        let rng = RngStream::root(19);
        let mut pspec = PlatformSpec::small(2, 3, 4);
        pspec.power.p_sleep = 5.0;
        let platform = Platform::generate(pspec, &rng.derive("p"));
        let mut wspec = workload::WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.4;
        let wl = workload::Workload::generate(wspec, &rng.derive("w"));
        let cfg = AdaptiveRlConfig {
            power_gating: true,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(2, cfg);
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
    }

    #[test]
    fn no_rejection_leaks_tasks() {
        // Tiny queues to force rejections; every task must still finish.
        let rng = RngStream::root(11);
        let mut pspec = PlatformSpec::small(1, 2, 4);
        pspec.queue_capacity = 1;
        let platform = Platform::generate(pspec, &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(300, 1, platform.reference_speed());
        wspec.mean_interarrival = 0.3;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let mut sched = AdaptiveRl::new(1, AdaptiveRlConfig::default());
        let r = ExecEngine::new(ExecConfig::default()).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.incomplete, 0, "outcome {}", r.outcome);
    }

    #[test]
    fn survives_injected_faults_with_degradation_penalty() {
        use platform::{FaultSpec, TaskOutcome};
        let rng = RngStream::root(23);
        let platform = Platform::generate(PlatformSpec::small(2, 3, 4), &rng.derive("p"));
        let mut wspec = WorkloadSpec::paper(400, 2, platform.reference_speed());
        wspec.mean_interarrival = 0.5;
        let wl = Workload::generate(wspec, &rng.derive("w"));
        let cfg = AdaptiveRlConfig {
            availability_penalty: 2.0,
            ..AdaptiveRlConfig::default()
        };
        let mut sched = AdaptiveRl::new(2, cfg);
        let exec = ExecConfig {
            faults: FaultSpec {
                enabled: true,
                proc_mtbf: 200.0,
                proc_mttr: 25.0,
                node_mtbf: 700.0,
                node_mttr: 50.0,
                permanent_fraction: 0.05,
                horizon: 500.0,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        };
        let r = ExecEngine::new(exec).run(platform, wl.tasks, &mut sched);
        assert_eq!(r.outcome, "Drained");
        assert_eq!(r.records.len(), r.num_tasks, "no task may be lost");
        assert_eq!(r.incomplete, 0);
        assert!(r.faults_injected > 0, "the spec must actually inject");
        let failed = r
            .records
            .iter()
            .filter(|x| x.outcome == TaskOutcome::Failed)
            .count();
        assert_eq!(failed, r.tasks_failed);
    }
}

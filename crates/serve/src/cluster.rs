//! Multi-replica cluster serving: N [`ReplicaSim`]s advanced on one shared
//! virtual clock behind a routing policy.
//!
//! The paper's affordability argument — cheap NDP-DIMM boxes absorbing
//! traffic that would otherwise need more GPUs — only becomes quantifiable
//! at fleet scale. This module models that fleet: each replica is its own
//! machine ([`ReplicaSpec`]: system kind, hardware config, scheduler
//! policies — so a fleet can mix TensorRT GPU boxes with Hermes NDP boxes),
//! requests are sampled once from a fleet-wide scenario and dispatched at
//! arrival time by a [`RoutingPolicy`], and scripted [`ReplicaEvent`]s
//! drain, fail and recover replicas mid-run with deterministic re-dispatch
//! of the work they hand back (restart with recompute, through the same
//! preemption machinery single-replica eviction uses).
//!
//! The driver is deterministic end to end: replicas advance in index order
//! to each timeline point, ties between events and arrivals resolve events
//! first, and re-dispatched requests are routed in request-id order — equal
//! inputs produce bitwise-identical [`ClusterReport`]s, and a one-replica
//! cluster reproduces [`simulate`](crate::simulator::simulate) bitwise.

use hermes_core::{ClusterReport, HermesError, ReplicaReport, SystemConfig, SystemKind};

use crate::arrival::sample_arrival_times;
use crate::replica::{CarriedRequest, ReplicaSim};
use crate::request::{RequestRecord, ServingRequest};
use crate::simulator::{request_ranks, ServingSimulation, LENGTH_SEED_SALT, PREFIX_SEED_SALT};

/// How the cluster picks a replica for each arriving (or re-dispatched)
/// request. All policies consider only *routable* replicas — drained and
/// failed machines receive nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Cycle through the replicas in order, skipping unroutable ones.
    RoundRobin,
    /// The replica with the fewest outstanding (dispatched, not completed)
    /// requests; ties go to the lowest index.
    LeastOutstanding,
    /// The replica whose KV memory is least pressured
    /// ([`ReplicaSim::kv_pressure`]: resident plus queued worst-case bytes
    /// over the budget); ties go to the fewest outstanding, then the lowest
    /// index. Steers KV-heavy load away from memory-tight boxes.
    KvPressure,
    /// The replica whose prefix cache already holds the longest run of the
    /// request's prompt prefix ([`ReplicaSim::prefix_match`]); ties go to
    /// the fewest outstanding, then the lowest index. Keeps same-prefix
    /// requests on the machine whose cache is warm.
    PrefixAffinity,
}

impl RoutingPolicy {
    /// Stable display name (used in reports and bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastOutstanding => "least-outstanding",
            RoutingPolicy::KvPressure => "kv-pressure",
            RoutingPolicy::PrefixAffinity => "prefix-affinity",
        }
    }
}

/// One machine in the fleet: a system kind on a hardware config, scheduling
/// under its own policies — heterogeneous fleets mix GPU and NDP boxes with
/// different admission caps.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Display label (e.g. `"gpu-0"`, `"ndp-2"`), carried into the
    /// per-replica section of the [`ClusterReport`].
    pub label: String,
    /// Which system this box runs.
    pub kind: SystemKind,
    /// The box's hardware configuration.
    pub config: SystemConfig,
    /// The box's scheduler: batching policy, admission caps, prefill,
    /// preemption and prefix-cache mode (plus the engine-planning
    /// template). The sampling fields — arrival, request count, seeds,
    /// length/class/prompt specs and the scheduling policy — are
    /// fleet-wide concerns and are overridden from the cluster scenario.
    pub sim: ServingSimulation,
}

impl ReplicaSpec {
    /// A labelled replica of `kind` on `config` scheduling under `sim`.
    pub fn new(
        label: impl Into<String>,
        kind: SystemKind,
        config: SystemConfig,
        sim: ServingSimulation,
    ) -> Self {
        ReplicaSpec {
            label: label.into(),
            kind,
            config,
            sim,
        }
    }
}

/// A scripted lifecycle event on one replica, applied at a fixed virtual
/// time. Events at equal times apply in their listed order, before any
/// arrival at the same instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaEvent {
    /// Stop routing new work to the replica at time `at`. In-flight and
    /// already-queued admitted work finishes locally; requests that never
    /// started (queued but never admitted) are handed back to the router
    /// and re-dispatched at `at`.
    Drain { replica: usize, at: f64 },
    /// Kill the replica at time `at`: *everything* in flight — queued,
    /// prefilling, decoding, swapped-out — is handed back and re-dispatched
    /// (restart with recompute; decode progress re-prefills elsewhere, swap
    /// tier and prefix cache contents are lost), and the machine's pool and
    /// cache restart cold.
    Fail { replica: usize, at: f64 },
    /// Make the replica routable again at time `at` (after a drain or
    /// fail); its clock restarts no earlier than `at`.
    Recover { replica: usize, at: f64 },
}

impl ReplicaEvent {
    fn replica(&self) -> usize {
        match *self {
            ReplicaEvent::Drain { replica, .. }
            | ReplicaEvent::Fail { replica, .. }
            | ReplicaEvent::Recover { replica, .. } => replica,
        }
    }

    fn at(&self) -> f64 {
        match *self {
            ReplicaEvent::Drain { at, .. }
            | ReplicaEvent::Fail { at, .. }
            | ReplicaEvent::Recover { at, .. } => at,
        }
    }
}

/// One multi-replica serving scenario: a fleet of [`ReplicaSpec`]s, a
/// fleet-wide workload scenario the requests are sampled from, a routing
/// policy and an optional script of replica lifecycle events.
#[derive(Debug, Clone)]
pub struct ClusterSimulation {
    /// The fleet-wide scenario: template workload, arrival process, request
    /// count, sampling seed, length/class/prompt specs and the scheduling
    /// policy that ranks requests on every replica's ready queue. Its
    /// per-machine knobs (batching, admission, prefill, preemption, prefix
    /// cache) are **ignored** — each replica brings its own via
    /// [`ReplicaSpec::sim`].
    pub scenario: ServingSimulation,
    /// The machines serving the load.
    pub replicas: Vec<ReplicaSpec>,
    /// How arriving requests pick a replica.
    pub routing: RoutingPolicy,
    /// Scripted drain/fail/recover events.
    pub events: Vec<ReplicaEvent>,
}

impl ClusterSimulation {
    /// A fleet of `replicas` serving `scenario` under `routing`, with no
    /// lifecycle events.
    pub fn new(
        scenario: ServingSimulation,
        replicas: Vec<ReplicaSpec>,
        routing: RoutingPolicy,
    ) -> Self {
        ClusterSimulation {
            scenario,
            replicas,
            routing,
            events: Vec::new(),
        }
    }

    /// A homogeneous fleet: `n` replicas of `kind` on `config`, each
    /// scheduling under the scenario's own policy knobs.
    pub fn uniform(
        scenario: ServingSimulation,
        kind: SystemKind,
        config: &SystemConfig,
        n: usize,
        routing: RoutingPolicy,
    ) -> Self {
        let replicas = (0..n)
            .map(|i| {
                ReplicaSpec::new(
                    format!("replica-{i}"),
                    kind,
                    config.clone(),
                    scenario.clone(),
                )
            })
            .collect();
        ClusterSimulation::new(scenario, replicas, routing)
    }

    /// Same scenario with a scripted event list.
    pub fn with_events(mut self, events: Vec<ReplicaEvent>) -> Self {
        self.events = events;
        self
    }
}

/// Everything one cluster simulation produced: the fleet report plus the
/// lifecycle records of every request, in request-id order (a re-dispatched
/// request's record lives on the replica that completed it, with its
/// original arrival stamp).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Fleet-wide and per-replica serving metrics.
    pub report: ClusterReport,
    /// Lifecycle timestamps of every request.
    pub records: Vec<RequestRecord>,
}

/// One timeline point of the merged event/arrival sequence.
enum Point {
    /// Index into the sorted event list.
    Event(usize),
    /// Index into the sampled request list.
    Arrival(usize),
}

/// The fleet driver: N resumable replicas, one shared virtual timeline.
///
/// Requests and scripted events are merged into a single time-ordered
/// sequence; at each point every replica is advanced to that time (in index
/// order) before the point is applied, so a replica's boundary at time `t`
/// always sees every request routed to it strictly before `t` — the
/// property that makes a one-replica cluster reproduce
/// [`simulate`](crate::simulator::simulate) bitwise.
pub struct ClusterSimulator {
    replicas: Vec<ReplicaSim>,
    labels: Vec<String>,
    routing: RoutingPolicy,
    /// Whether each replica currently accepts new work.
    routable: Vec<bool>,
    /// Round-robin cursor.
    rr_next: usize,
    /// Requests dispatched to each replica (first dispatches plus
    /// re-dispatches).
    routed: Vec<usize>,
    /// Of those, requests that arrived via drain/fail re-dispatch.
    redispatched: Vec<usize>,
    /// The sampled requests, ordered by arrival.
    requests: Vec<ServingRequest>,
    /// Fleet-wide scheduling ranks, parallel to `requests`.
    ranks: Vec<f64>,
    /// Lifecycle events, stably sorted by time.
    events: Vec<ReplicaEvent>,
}

impl ClusterSimulator {
    /// Sample the scenario and plan every replica, failing upfront on a
    /// misconfigured fleet.
    ///
    /// # Errors
    ///
    /// [`HermesError::InvalidConfig`] for an empty fleet, an event naming
    /// a replica that does not exist or an event time that is NaN,
    /// infinite or negative, plus every validation error of
    /// [`ReplicaSim::new`] (applied per replica, against the *global*
    /// request set — any replica can receive any request through failover).
    pub fn new(sim: &ClusterSimulation) -> Result<Self, HermesError> {
        if sim.replicas.is_empty() {
            return Err(HermesError::InvalidConfig(
                "a cluster needs at least one replica".into(),
            ));
        }
        for (i, event) in sim.events.iter().enumerate() {
            if event.replica() >= sim.replicas.len() {
                return Err(HermesError::InvalidConfig(format!(
                    "event {i} ({event:?}) names replica {} but the fleet has {}",
                    event.replica(),
                    sim.replicas.len()
                )));
            }
            if !(event.at().is_finite() && event.at() >= 0.0) {
                return Err(HermesError::InvalidConfig(format!(
                    "event {i} ({event:?}) must happen at a finite, non-negative time"
                )));
            }
        }
        let scenario = &sim.scenario;
        let times = sample_arrival_times(
            &scenario.arrival,
            scenario.num_requests,
            scenario.arrival_seed,
        )?;
        let requests = ServingRequest::sample(
            &scenario.template,
            &times,
            &scenario.lengths,
            &scenario.classes,
            &scenario.prompts,
            scenario.arrival_seed ^ LENGTH_SEED_SALT,
            scenario.arrival_seed ^ PREFIX_SEED_SALT,
        )?;
        // Ranks are fleet-wide: computed once over the whole sampled set,
        // so a request keeps its rank (e.g. its prefix-affinity group
        // leader) wherever it is dispatched or re-dispatched.
        let ranks = request_ranks(scenario.scheduling, &requests);
        let mut replicas = Vec::with_capacity(sim.replicas.len());
        for spec in &sim.replicas {
            // The replica schedules under its own policy knobs but reports
            // against the fleet scenario's arrival spec (so a one-replica
            // fleet reproduces `simulate` bitwise, offered-rate included).
            let mut rsim = spec.sim.clone();
            rsim.arrival = scenario.arrival.clone();
            rsim.num_requests = scenario.num_requests;
            rsim.arrival_seed = scenario.arrival_seed;
            rsim.lengths = scenario.lengths.clone();
            rsim.classes = scenario.classes.clone();
            rsim.prompts = scenario.prompts.clone();
            rsim.scheduling = scenario.scheduling;
            let replica = ReplicaSim::new(spec.kind, &spec.config, rsim)?;
            replica.validate_requests(&requests)?;
            replicas.push(replica);
        }
        let mut events = sim.events.clone();
        // Stable: events at one instant keep their listed order.
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        let n = sim.replicas.len();
        Ok(ClusterSimulator {
            replicas,
            labels: sim.replicas.iter().map(|s| s.label.clone()).collect(),
            routing: sim.routing,
            routable: vec![true; n],
            rr_next: 0,
            routed: vec![0; n],
            redispatched: vec![0; n],
            requests,
            ranks,
            events,
        })
    }

    /// Pick a replica for `request` under the routing policy. `None` when
    /// every replica is unroutable.
    fn route(&mut self, request: &ServingRequest) -> Option<usize> {
        let n = self.replicas.len();
        match self.routing {
            RoutingPolicy::RoundRobin => {
                for offset in 0..n {
                    let idx = (self.rr_next + offset) % n;
                    if self.routable[idx] {
                        self.rr_next = (idx + 1) % n;
                        return Some(idx);
                    }
                }
                None
            }
            RoutingPolicy::LeastOutstanding => self.pick_min(|_, r| r.outstanding() as f64),
            RoutingPolicy::KvPressure => self.pick_min(|_, r| r.kv_pressure()),
            RoutingPolicy::PrefixAffinity => {
                // Longest resident prefix wins: minimize the *negated*
                // match length.
                self.pick_min(|_, r| -(r.prefix_match(&request.prefix) as f64))
            }
        }
    }

    /// The routable replica minimizing `score`, ties broken by fewest
    /// outstanding requests, then lowest index.
    fn pick_min(&self, score: impl Fn(usize, &ReplicaSim) -> f64) -> Option<usize> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (idx, replica) in self.replicas.iter().enumerate() {
            if !self.routable[idx] {
                continue;
            }
            let key = (score(idx, replica), replica.outstanding(), idx);
            let better = match &best {
                None => true,
                Some((s, o, i)) => {
                    (key.0.total_cmp(s).then(key.1.cmp(o)).then(key.2.cmp(i))).is_lt()
                }
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, idx)| idx)
    }

    /// Dispatch one first-time arrival.
    fn dispatch(&mut self, arrival_idx: usize) -> Result<(), HermesError> {
        let request = self.requests[arrival_idx].clone();
        let rank = self.ranks[arrival_idx];
        let Some(target) = self.route(&request) else {
            return Err(HermesError::InvalidConfig(format!(
                "no routable replica for request {} at t={}: every replica is drained or failed",
                request.id, request.arrival
            )));
        };
        self.routed[target] += 1;
        self.replicas[target].inject(request, rank);
        Ok(())
    }

    /// Re-dispatch the requests a drain/fail handed back, in request-id
    /// order, as fresh arrivals at the event time.
    fn redispatch(&mut self, carried: Vec<CarriedRequest>, at: f64) -> Result<(), HermesError> {
        for c in carried {
            let Some(target) = self.route(&c.request) else {
                return Err(HermesError::InvalidConfig(format!(
                    "no routable replica to re-dispatch request {} at t={at}: every replica \
                     is drained or failed",
                    c.record.id
                )));
            };
            self.routed[target] += 1;
            self.redispatched[target] += 1;
            self.replicas[target].inject_carried(c, at);
        }
        Ok(())
    }

    /// Run the fleet to completion and fold the [`ClusterOutcome`].
    ///
    /// # Errors
    ///
    /// Propagates per-replica simulation errors (unsatisfiable admission
    /// caps) and routing dead-ends (no routable replica left for an
    /// arrival).
    pub fn run(mut self) -> Result<ClusterOutcome, HermesError> {
        // Merge events and arrivals into one time-ordered pass; at equal
        // times events apply first (a request arriving the instant a
        // replica fails must not be routed to it).
        let mut points: Vec<(f64, Point)> =
            Vec::with_capacity(self.events.len() + self.requests.len());
        let mut ei = 0;
        let mut ai = 0;
        while ei < self.events.len() || ai < self.requests.len() {
            let take_event = match (self.events.get(ei), self.requests.get(ai)) {
                (Some(e), Some(r)) => e.at() <= r.arrival,
                (Some(_), None) => true,
                _ => false,
            };
            if take_event {
                points.push((self.events[ei].at(), Point::Event(ei)));
                ei += 1;
            } else {
                points.push((self.requests[ai].arrival, Point::Arrival(ai)));
                ai += 1;
            }
        }
        for (t, point) in points {
            // Every replica reaches this instant before the point applies:
            // a boundary at time `t` has then seen every earlier dispatch,
            // and nothing later.
            for replica in self.replicas.iter_mut() {
                replica.advance_to(t)?;
            }
            match point {
                Point::Arrival(idx) => self.dispatch(idx)?,
                Point::Event(idx) => match self.events[idx] {
                    ReplicaEvent::Drain { replica, at } => {
                        self.routable[replica] = false;
                        let carried = self.replicas[replica].extract_pending();
                        self.redispatch(carried, at)?;
                    }
                    ReplicaEvent::Fail { replica, at } => {
                        self.routable[replica] = false;
                        let carried = self.replicas[replica].extract_all();
                        self.redispatch(carried, at)?;
                    }
                    ReplicaEvent::Recover { replica, at } => {
                        self.routable[replica] = true;
                        self.replicas[replica].restart_at(at);
                    }
                },
            }
        }
        for replica in self.replicas.iter_mut() {
            replica.run_to_completion()?;
        }
        let replica_reports: Vec<ReplicaReport> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(idx, replica)| ReplicaReport {
                label: self.labels[idx].clone(),
                routed: self.routed[idx],
                redispatched: self.redispatched[idx],
                report: replica.report(),
            })
            .collect();
        let report = ClusterReport::from_replicas(self.routing.name().to_string(), replica_reports);
        let mut records: Vec<RequestRecord> = self
            .replicas
            .iter()
            .flat_map(|r| r.surviving_records())
            .collect();
        records.sort_by_key(|r| r.id);
        Ok(ClusterOutcome { report, records })
    }
}

/// Simulate a multi-replica cluster scenario end to end: sample the
/// fleet-wide workload, dispatch every request under the routing policy,
/// apply the scripted replica events, and run every machine dry.
///
/// Equal inputs produce bitwise-identical outcomes, and a one-replica
/// cluster with no events reproduces
/// [`simulate`](crate::simulator::simulate) bitwise (per-replica report and
/// records alike).
///
/// # Errors
///
/// Everything [`ClusterSimulator::new`] and [`ClusterSimulator::run`]
/// return.
pub fn simulate_cluster(sim: &ClusterSimulation) -> Result<ClusterOutcome, HermesError> {
    ClusterSimulator::new(sim)?.run()
}

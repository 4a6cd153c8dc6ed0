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
//! inputs produce bitwise-identical [`ClusterReport`]s, and
//! [`simulate`](crate::simulator::simulate) runs a fleet of one replica.

use hermes_core::{ClusterReport, HermesError, ReplicaReport, SystemConfig, SystemKind};
use hermes_model::non_negative_finite;

use crate::queue::Rank;
use crate::replica::{CarriedRequest, ReplicaSim};
use crate::request::{RequestRecord, ServingRequest};
use crate::simulator::{replica_scenario, request_extremes, request_ranks, ServingSimulation};

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
    /// length/class/prompt specs — and the scheduling policy are
    /// fleet-wide concerns: they are ignored here, and the replica takes
    /// the cluster scenario's scheduling policy and offered rate. They can
    /// be left at their defaults; a trace set here is never read.
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
    /// cache restart cold. Only residency restarts: the replica's report
    /// keeps its cumulative counters (peak pool blocks, and the cache's
    /// lookups, hits, reused tokens, insertions and evicted blocks), and
    /// the cached blocks lost with the machine do not count as evicted.
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
    /// scheduling under the scenario's own policy knobs. Each
    /// [`ReplicaSpec::sim`] copies those knobs and leaves the sampling
    /// fields at their defaults (they are ignored), so the fleet holds one
    /// copy of the scenario's traces, in [`ClusterSimulation::scenario`].
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
                    replica_scenario(&scenario, &scenario),
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

/// The fleet driver: N resumable replicas, one shared virtual timeline.
///
/// Requests and scripted events are merged into a single time-ordered
/// sequence; at each point every replica is advanced to that time (in index
/// order) before the point is applied, so a replica's boundary at time `t`
/// always sees every request routed to it strictly before `t`, and none
/// later. [`simulate`](crate::simulator::simulate) runs it with one replica.
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
    /// The sampled requests, ordered by arrival; [`ClusterSimulator::run`]
    /// moves each out at dispatch.
    requests: Vec<ServingRequest>,
    /// Fleet-wide scheduling ranks, parallel to `requests`.
    ranks: Vec<f64>,
    /// Lifecycle events, stably sorted by time.
    events: Vec<ReplicaEvent>,
}

impl ClusterSimulator {
    /// Validate every machine's knobs, then sample the scenario and plan
    /// every replica, failing upfront on a misconfigured fleet.
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
            non_negative_finite("its time", event.at())
                .map_err(|e| HermesError::InvalidConfig(format!("event {i} ({event:?}): {e}")))?;
        }
        for spec in &sim.replicas {
            spec.sim.validate()?;
        }
        let scenario = &sim.scenario;
        let requests = scenario.sample_requests()?;
        // Ranks are fleet-wide: computed once over the whole sampled set,
        // so a request keeps its rank (e.g. its prefix-affinity group
        // leader) wherever it is dispatched or re-dispatched.
        let ranks = request_ranks(scenario.scheduling, &requests);
        let extremes = request_extremes(&requests);
        let mut replicas = Vec::with_capacity(sim.replicas.len());
        for spec in &sim.replicas {
            // The replica schedules under its own policy knobs but reports
            // against the fleet scenario's offered rate (a lone machine
            // reports its scenario's rate).
            let rsim = replica_scenario(&spec.sim, scenario);
            let replica = ReplicaSim::new(spec.kind, &spec.config, rsim)?;
            replica.validate_extremes(&requests, extremes)?;
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
                let idx = (0..n)
                    .map(|offset| (self.rr_next + offset) % n)
                    .find(|&idx| self.routable[idx])?;
                self.rr_next = (idx + 1) % n;
                Some(idx)
            }
            RoutingPolicy::LeastOutstanding => self.pick_min(|r| r.outstanding() as f64),
            RoutingPolicy::KvPressure => self.pick_min(|r| r.kv_pressure()),
            RoutingPolicy::PrefixAffinity => {
                // Longest resident prefix wins: minimize the *negated*
                // match length.
                self.pick_min(|r| -(r.prefix_match(&request.prefix) as f64))
            }
        }
    }

    /// The routable replica minimizing `score`, ties broken by fewest
    /// outstanding requests, then lowest index.
    fn pick_min(&self, score: impl Fn(&ReplicaSim) -> f64) -> Option<usize> {
        (self.replicas.iter().enumerate())
            .filter(|&(idx, _)| self.routable[idx])
            .map(|(idx, replica)| (Rank(score(replica)), replica.outstanding(), idx))
            .min()
            .map(|(_, _, idx)| idx)
    }

    /// Dispatch one first-time arrival with its fleet-wide rank.
    fn dispatch(&mut self, request: ServingRequest, rank: f64) -> Result<(), HermesError> {
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
    /// arrival), and returns [`HermesError::InvalidConfig`] unless every
    /// sampled request completed exactly once.
    pub fn run(mut self) -> Result<ClusterOutcome, HermesError> {
        // Walk events and arrivals in one time-ordered pass: a cursor over
        // the events, and the trace, whose requests move out to their
        // replicas with their ranks.
        let num_requests = self.requests.len();
        let mut arrivals = (std::mem::take(&mut self.requests).into_iter())
            .zip(std::mem::take(&mut self.ranks))
            .peekable();
        let mut next_event = 0;
        loop {
            let arrival = arrivals.peek().map(|(r, _)| r.arrival);
            // At equal times events apply first (a request arriving the
            // instant a replica fails must not be routed to it).
            let event = (self.events.get(next_event).copied())
                .filter(|e| arrival.is_none_or(|a| e.at() <= a));
            let Some(t) = event.map(|e| e.at()).or(arrival) else {
                break;
            };
            // Every replica reaches this instant before the point applies:
            // a boundary at time `t` has then seen every earlier dispatch,
            // and nothing later.
            for replica in self.replicas.iter_mut() {
                replica.advance_to(t)?;
            }
            match event {
                Some(event) => {
                    next_event += 1;
                    self.apply(event)?;
                }
                None => {
                    if let Some((request, rank)) = arrivals.next() {
                        self.dispatch(request, rank)?;
                    }
                }
            }
        }
        // Every request is out: free the trace's buffers before the
        // replicas drain and fold their records.
        drop(arrivals);
        let mut records: Vec<RequestRecord> = Vec::with_capacity(num_requests);
        let mut replica_reports: Vec<ReplicaReport> = Vec::with_capacity(self.replicas.len());
        for (idx, (mut replica, label)) in self.replicas.into_iter().zip(self.labels).enumerate() {
            replica.run_to_completion()?;
            let outcome = replica.into_outcome();
            records.extend(outcome.records);
            replica_reports.push(ReplicaReport {
                label,
                routed: self.routed[idx],
                redispatched: self.redispatched[idx],
                report: outcome.report,
            });
        }
        let report = ClusterReport::from_replicas(self.routing.name().to_string(), replica_reports);
        place_by_id(&mut records, num_requests)?;
        Ok(ClusterOutcome { report, records })
    }

    /// Apply one scripted lifecycle event at its time.
    fn apply(&mut self, event: ReplicaEvent) -> Result<(), HermesError> {
        match event {
            ReplicaEvent::Drain { replica, at } => {
                self.routable[replica] = false;
                let carried = self.replicas[replica].extract_pending();
                self.redispatch(carried, at)
            }
            ReplicaEvent::Fail { replica, at } => {
                self.routable[replica] = false;
                let carried = self.replicas[replica].extract_all();
                self.redispatch(carried, at)
            }
            ReplicaEvent::Recover { replica, at } => {
                self.routable[replica] = true;
                self.replicas[replica].restart_at(at);
                Ok(())
            }
        }
    }
}

/// Put `records` in id order, checking that they are one record for each
/// of the `requests` sampled requests. When their ids are exactly
/// `0..requests` each record is swapped straight to its place: in place,
/// in O(n), every swap settling one record for good. On anything else (a
/// missing, repeated or unsampled id) they are sorted instead and
/// [`check_each_request_once`] names the problem.
fn place_by_id(records: &mut [RequestRecord], requests: usize) -> Result<(), HermesError> {
    let placed = records.len() == requests
        && (0..records.len()).all(|i| loop {
            let id = records[i].id;
            if id == i {
                break true;
            }
            if id >= records.len() || records[id].id == id {
                break false;
            }
            records.swap(i, id);
        });
    if placed {
        return Ok(());
    }
    records.sort_unstable_by_key(|r| r.id);
    check_each_request_once(records, requests)
}

/// Check that `records`, sorted by id, are one record for each of the
/// `requests` sampled requests: exactly the ids `0..requests`.
fn check_each_request_once(records: &[RequestRecord], requests: usize) -> Result<(), HermesError> {
    let problem = match records
        .iter()
        .enumerate()
        .find(|&(i, r)| r.id != i || i >= requests)
    {
        Some((i, r)) if r.id < i => format!("request {} completed more than once", r.id),
        Some((i, _)) if i < requests => format!("request {i} never completed"),
        Some((_, r)) => format!("request {} was never sampled", r.id),
        None if records.len() < requests => format!("request {} never completed", records.len()),
        None => return Ok(()),
    };
    Err(HermesError::InvalidConfig(format!(
        "{problem}: each of the {requests} sampled requests must complete exactly once"
    )))
}

/// Simulate a multi-replica cluster scenario end to end: sample the
/// fleet-wide workload, dispatch every request under the routing policy,
/// apply the scripted replica events, and run every machine dry.
///
/// Equal inputs produce bitwise-identical outcomes.
/// [`simulate`](crate::simulator::simulate) is a one-replica cluster with
/// no events: its report is that replica's, and its records the fleet's.
///
/// # Errors
///
/// Everything [`ClusterSimulator::new`] and [`ClusterSimulator::run`]
/// return.
pub fn simulate_cluster(sim: &ClusterSimulation) -> Result<ClusterOutcome, HermesError> {
    ClusterSimulator::new(sim)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::RequestClass;

    fn records(ids: &[usize]) -> Vec<RequestRecord> {
        ids.iter()
            .map(|&id| RequestRecord {
                id,
                arrival: 0.0,
                admitted: 0.0,
                first_token: 0.0,
                completed: 0.0,
                prompt_len: 1,
                gen_len: 1,
                class: RequestClass::default(),
                preemptions: 0,
                reused_prefix_tokens: 0,
            })
            .collect()
    }

    /// Records in any order come back in id order, and every anomaly fails
    /// as the check after a sort fails, with the same words.
    #[test]
    fn records_are_placed_by_id() {
        for ids in [
            &[][..],
            &[0],
            &[2, 0, 1],
            &[3, 1, 0, 2],
            &[1, 0, 3, 2, 5, 4],
        ] {
            let mut placed = records(ids);
            place_by_id(&mut placed, ids.len()).unwrap();
            let order: Vec<usize> = placed.iter().map(|r| r.id).collect();
            assert_eq!(order, (0..ids.len()).collect::<Vec<_>>(), "{ids:?}");
        }
        // A record's fields travel with its id.
        let mut placed = records(&[2, 0, 1]);
        placed[0].preemptions = 7;
        place_by_id(&mut placed, 3).unwrap();
        assert_eq!(placed[2].preemptions, 7);
        for (ids, requests) in [
            (&[2, 0][..], 3),
            (&[1, 0, 1], 3),
            (&[2, 2, 0], 3),
            (&[0, 3, 1], 3),
            (&[0, 1, 2, 3], 3),
            (&[1, 0], 3),
        ] {
            let mut sorted = records(ids);
            sorted.sort_unstable_by_key(|r| r.id);
            let expected = check_each_request_once(&sorted, requests).unwrap_err();
            let mut placed = records(ids);
            let err = place_by_id(&mut placed, requests).unwrap_err();
            assert_eq!(err, expected, "{ids:?}");
        }
    }

    #[test]
    fn each_request_must_complete_exactly_once() {
        assert_eq!(check_each_request_once(&records(&[0, 1, 2]), 3), Ok(()));
        assert_eq!(check_each_request_once(&records(&[]), 0), Ok(()));
        for (ids, problem) in [
            (&[0, 2][..], "request 1 never completed"),
            (&[0, 1], "request 2 never completed"),
            (&[0, 1, 1, 2], "request 1 completed more than once"),
            (&[0, 0, 2], "request 0 completed more than once"),
            (&[0, 1, 2, 3], "request 3 was never sampled"),
        ] {
            let err = check_each_request_once(&records(ids), 3).unwrap_err();
            assert!(
                matches!(&err, HermesError::InvalidConfig(msg) if msg.starts_with(problem)),
                "{ids:?}: {err}"
            );
        }
    }
}

//! The fleet serving tier: route requests across many clusters on one
//! virtual clock, advance the clusters in parallel, and stay zero-alloc on
//! the warm path.
//!
//! [`crate::ServingScenario`] runs one cluster's admission loop;
//! [`FleetScenario`] runs one such loop **per cluster of a
//! [`hidp_platform::Fleet`]**, all sharing a single virtual clock. A
//! deterministic router assigns every arriving [`FleetRequest`] to a cluster
//! under a pluggable [`RoutingPolicy`]; each cluster then runs the serving
//! tier's streaming loop (same `IndexedQueue`, same `DispatchEstimator`,
//! same pending-batch FIFO, same epoch/fingerprint plan re-keying) over the
//! requests routed to it. Every config takes that one loop: faults, drift
//! and recovery only add work when they have something to act on.
//!
//! # Rounds and barriers
//!
//! Virtual time is cut into router **rounds** of
//! [`FleetConfig::round_seconds`]. Each round the router (serially, in
//! global arrival order) delivers every arrival due by the round boundary to
//! its cluster, then all clusters advance **in parallel** up to the boundary
//! ([`crate::ParallelSweep::run_mut`]). A cluster's incremental loop is the
//! serving tier's batch loop with one extra rule: it stops — without
//! mutating any state — whenever its next virtual-time step would cross the
//! boundary, and resumes from exactly that point next round. Because a round
//! delivers *every* arrival up to its boundary before any cluster crosses
//! it, each cluster observes the same arrival/event/completion sequence the
//! one-shot serving loop would, so a 1-cluster fleet is **bit-identical** to
//! [`crate::ServingScenario::run_streaming`] (pinned by
//! `tests/fleet_equivalence.rs`) and results are bit-identical at any worker
//! thread count (each worker mutates only its own cluster; aggregates merge
//! in cluster index order through the exact-merge
//! [`LatencyHistogram`]).
//!
//! # Routing
//!
//! Routing keys reuse the planning fingerprint machinery:
//! [`RoutingPolicy::StaticHash`] is rendezvous hashing of the request key
//! against each cluster's [`Cluster::fingerprint`] — when a
//! [`ClusterTimeline`] flips a node, the cluster's fingerprint changes and
//! traffic re-keys exactly the way the plan cache re-keys.
//! [`RoutingPolicy::LeastLoaded`] reads each cluster's admission-model
//! backlog at the round barrier; [`RoutingPolicy::Locality`] adds the WAN
//! round trip from the request's region, so traffic stays regional until the
//! local backlog outweighs the WAN detour.
//!
//! # WAN accounting
//!
//! The WAN does not shift arrivals: a request reaches its cluster's queue at
//! its global arrival instant (shifting would reorder per-cluster arrivals
//! across rounds and break both determinism proofs). Instead the round trip
//! from the request's regional ingress to its serving cluster is added to
//! the *reported* fleet latency and to the deadline check — routing a
//! request away from its region costs tail latency and SLA misses, which is
//! exactly the trade-off locality routing navigates.

use crate::adaptive::{AdaptiveConfig, AdaptiveState, DriftStats};
use crate::parallel::ParallelSweep;
use crate::pending::{plan_node_mask, PendingBatch, PendingFifo};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::serving::{
    AdmissionPolicy, Departure, DispatchEstimator, FailureMode, IndexedQueue, RecoveryPolicy,
    RobustnessStats, ServingRequest,
};
use crate::strategy::DistributedStrategy;
use crate::{CoreError, PlanKey};
use hidp_dnn::zoo::WorkloadModel;
use hidp_dnn::DnnGraph;
use hidp_platform::{
    AvailabilityEvent, Cluster, ClusterTimeline, DriftModel, Fleet, NodeIndex, SlowdownWindow,
    WanDegradation,
};
use hidp_sim::serving::{LatencyHistogram, LatencySummary, SlaClass, SlaClassReport};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One request entering the fleet: a serving request plus the region it
/// originates in (which decides its WAN ingress).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetRequest {
    /// The request (model, batch, arrival, SLA class).
    pub request: ServingRequest,
    /// The region the request originates in; must be `<`
    /// [`Fleet::region_count`].
    pub region: usize,
}

impl FleetRequest {
    /// Wraps a serving request with its origin region.
    pub fn new(request: ServingRequest, region: usize) -> Self {
        Self { request, region }
    }
}

/// How the fleet router picks a serving cluster for each arrival. All
/// policies are deterministic functions of the request, the configuration
/// and the (deterministic) cluster state at the round barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Uniform pseudo-random spread: FNV of `(seed, input index)` modulo the
    /// cluster count. Ignores both load and locality — the baseline the
    /// load-aware policies must beat.
    Random {
        /// Hash seed (different seeds give different but equally uniform
        /// spreads).
        seed: u64,
    },
    /// Rendezvous (highest-random-weight) hashing of the request key
    /// `(model, batch, region)` against each cluster's
    /// [`Cluster::fingerprint`]. Sticky per key — and because the
    /// fingerprint covers availability, a timeline flip re-keys the
    /// cluster's traffic exactly the way it re-keys its plans.
    StaticHash,
    /// The cluster whose admission backlog (dispatch-model horizon beyond
    /// the round barrier, plus [`FleetConfig::route_cost_hint_s`] per
    /// request already routed this round) is smallest. Ties go to the lower
    /// cluster index.
    #[default]
    LeastLoaded,
    /// [`RoutingPolicy::LeastLoaded`] plus the WAN round trip from the
    /// request's regional ingress: traffic stays in-region until the local
    /// backlog outweighs the WAN detour.
    Locality,
}

impl RoutingPolicy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::Random { .. } => "random",
            RoutingPolicy::StaticHash => "static-hash",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::Locality => "locality",
        }
    }
}

/// Configuration of the fleet loop: the routing policy and round length on
/// top of the per-cluster serving knobs (admission policy, batching,
/// in-flight window, one optional [`ClusterTimeline`] per cluster).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// How arrivals are assigned to clusters.
    pub routing: RoutingPolicy,
    /// Per-cluster admission policy.
    pub policy: AdmissionPolicy,
    /// Per-cluster batching limit (clamped to ≥ 1).
    pub max_batch: usize,
    /// Per-cluster in-flight admission window (`None` = unbounded).
    pub max_inflight: Option<usize>,
    /// One failure timeline per cluster (empty = all clusters static; when
    /// non-empty the length must equal the fleet's cluster count).
    pub timelines: Vec<ClusterTimeline>,
    /// Router round length, virtual seconds (finite, > 0). Shorter rounds
    /// give load-aware routing fresher backlog signals at more barriers.
    pub round_seconds: f64,
    /// Request payload carried over the WAN, bytes (used for the round-trip
    /// latency accounting and locality costs).
    pub payload_bytes: u64,
    /// Estimated serving cost, seconds, charged per request already routed
    /// to a cluster within the current round — lets least-loaded/locality
    /// spread a burst that lands between two barriers.
    pub route_cost_hint_s: f64,
    /// What a down-flip does to batches already in flight (per cluster).
    pub failures: FailureMode,
    /// Recovery responses for killed and at-risk requests. At the fleet
    /// tier a retry goes **back to the router**, which re-routes it away
    /// from the cluster that killed it (failover). `hedge_premium` is a
    /// serving-tier policy and is rejected here.
    pub recovery: RecoveryPolicy,
    /// Straggler windows per cluster (empty = no stragglers; when
    /// non-empty the outer length must equal the fleet's cluster count).
    pub slowdowns: Vec<Vec<SlowdownWindow>>,
    /// Fleet-wide WAN degradation windows: a request delivered inside a
    /// window pays `factor`× its cross-site round trip.
    pub wan_degradations: Vec<WanDegradation>,
    /// One continuous drift model per cluster (empty = no drift; when
    /// non-empty the length must equal the fleet's cluster count).
    pub drifts: Vec<DriftModel>,
    /// The adaptive estimation/re-planning loop, applied per cluster
    /// worker. `None` keeps planning static.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            routing: RoutingPolicy::default(),
            policy: AdmissionPolicy::Fifo,
            max_batch: 1,
            max_inflight: None,
            timelines: Vec::new(),
            round_seconds: 1.0,
            // One 224×224×3 f32 image.
            payload_bytes: 602_112,
            route_cost_hint_s: 0.05,
            failures: FailureMode::default(),
            recovery: RecoveryPolicy::default(),
            slowdowns: Vec::new(),
            wan_degradations: Vec::new(),
            drifts: Vec::new(),
            adaptive: None,
        }
    }
}

/// A fleet workload: regional requests plus the [`FleetConfig`] governing
/// routing and every cluster's serving loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    label: String,
    requests: Vec<FleetRequest>,
    config: FleetConfig,
}

impl FleetScenario {
    /// Wraps `requests` with the default config; labelled `fleet[n]`.
    pub fn new(requests: Vec<FleetRequest>) -> Self {
        let label = format!("fleet[{}]", requests.len());
        Self {
            label,
            requests,
            config: FleetConfig::default(),
        }
    }

    /// Replaces the report label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Replaces the whole config (builder style); `max_batch` is clamped to
    /// at least 1.
    #[must_use]
    pub fn with_config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self.config.max_batch = self.config.max_batch.max(1);
        self
    }

    /// Sets the routing policy (builder style).
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.config.routing = routing;
        self
    }

    /// Sets the per-cluster admission policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the per-cluster batching limit (builder style, clamped to ≥ 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch.max(1);
        self
    }

    /// Sets the per-cluster in-flight window (builder style).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: Option<usize>) -> Self {
        self.config.max_inflight = max_inflight;
        self
    }

    /// Sets the per-cluster failure timelines (builder style).
    #[must_use]
    pub fn with_timelines(mut self, timelines: Vec<ClusterTimeline>) -> Self {
        self.config.timelines = timelines;
        self
    }

    /// Sets the router round length (builder style; validated at run time).
    #[must_use]
    pub fn with_round_seconds(mut self, round_seconds: f64) -> Self {
        self.config.round_seconds = round_seconds;
        self
    }

    /// Sets the failure mode (builder style).
    #[must_use]
    pub fn with_failure_mode(mut self, failures: FailureMode) -> Self {
        self.config.failures = failures;
        self
    }

    /// Sets the recovery policy (builder style; `hedge_premium` is rejected
    /// at validation — hedging is a serving-tier policy).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Sets the per-cluster straggler windows (builder style).
    #[must_use]
    pub fn with_slowdowns(mut self, slowdowns: Vec<Vec<SlowdownWindow>>) -> Self {
        self.config.slowdowns = slowdowns;
        self
    }

    /// Sets the fleet-wide WAN degradation windows (builder style).
    #[must_use]
    pub fn with_wan_degradations(mut self, windows: Vec<WanDegradation>) -> Self {
        self.config.wan_degradations = windows;
        self
    }

    /// Sets the per-cluster drift models (builder style).
    #[must_use]
    pub fn with_drifts(mut self, drifts: Vec<DriftModel>) -> Self {
        self.config.drifts = drifts;
        self
    }

    /// Enables the adaptive estimation/re-planning loop (builder style).
    #[must_use]
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.config.adaptive = Some(adaptive);
        self
    }

    /// The report label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The requests, input order.
    pub fn requests(&self) -> &[FleetRequest] {
        &self.requests
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the scenario has no requests (such a scenario cannot run).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Runs the fleet on the calling thread with fresh scratch and
    /// per-cluster plan caches.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario or config is invalid for `fleet`,
    /// or when planning/estimation fails in any cluster.
    pub fn run_streaming(
        &self,
        strategy: &dyn DistributedStrategy,
        fleet: &Fleet,
        leader: NodeIndex,
    ) -> Result<FleetSummary, CoreError> {
        self.run_streaming_in(
            strategy,
            fleet,
            leader,
            &ParallelSweep::new(1),
            &mut FleetScratch::new(),
        )
    }

    /// [`FleetScenario::run_streaming`] against caller-owned worker threads
    /// and scratch. Results are **bit-identical at every thread count** —
    /// the sweep only decides which thread advances which cluster. After a
    /// first pass has sized the scratch, a steady-state pass over the same
    /// workload shape performs zero heap allocations at `threads == 1`
    /// (`tests/zero_alloc_warm_path.rs`; the threaded path allocates its
    /// scoped-thread machinery per barrier).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetScenario::run_streaming`].
    pub fn run_streaming_in(
        &self,
        strategy: &dyn DistributedStrategy,
        fleet: &Fleet,
        leader: NodeIndex,
        sweep: &ParallelSweep,
        scratch: &mut FleetScratch,
    ) -> Result<FleetSummary, CoreError> {
        self.validate(fleet, leader)?;
        let requests = &self.requests;
        let n = requests.len();
        let clusters = fleet.clusters();
        let cluster_count = clusters.len();
        let round_seconds = self.config.round_seconds;
        let payload = self.config.payload_bytes;
        let hint = self.config.route_cost_hint_s;
        let degradations = self.config.wan_degradations.as_slice();
        let ctx = RoundCtx {
            strategy,
            leader,
            policy: self.config.policy,
            max_batch: self.config.max_batch.max(1),
            max_inflight: self.config.max_inflight.map(|w| w.max(1)),
            kill: self.config.failures == FailureMode::Kill,
            recovery: self.config.recovery,
            adaptive: self.config.adaptive,
        };

        scratch.ensure(cluster_count);
        let FleetScratch {
            workers,
            caches,
            order,
            retries,
        } = scratch;
        let caches: &[PlanCache] = caches;
        retries.clear();
        let mut retry_seq = 0u64;
        for (i, worker) in workers.iter_mut().enumerate() {
            let has_events = self.config.timelines.get(i).is_some_and(|t| !t.is_empty());
            worker.reset(
                &clusters[i],
                strategy,
                leader,
                has_events,
                self.config.adaptive.as_ref(),
            );
        }

        // Global arrival order: by normalised time, ties by input index.
        // Delivering in this order makes every cluster's local request list
        // arrive pre-sorted the same way the serving loop sorts.
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by(|&a, &b| {
            (requests[a as usize].request.arrival + 0.0)
                .total_cmp(&(requests[b as usize].request.arrival + 0.0))
                .then(a.cmp(&b))
        });

        let mut next_global = 0usize;
        let mut rounds = 0usize;
        // Round boundaries are multiples of `round_seconds`; `boundary` is
        // the multiplier of the last completed barrier. Windows with no
        // arrivals (or retry releases) are skipped — the boundary jumps to
        // the window holding the next delivery — so the round count scales
        // with the deliveries, not the time span.
        let mut boundary = 0u64;
        loop {
            let mut next_t = if next_global >= n {
                f64::INFINITY
            } else {
                requests[order[next_global] as usize].request.arrival + 0.0
            };
            if let Some(&Reverse(entry)) = retries.peek() {
                next_t = next_t.min(entry.release);
            }
            let next_boundary = if next_t.is_finite() {
                Some(((next_t / round_seconds).ceil() as u64).max(boundary + 1))
            } else {
                None
            };
            let t_end = match next_boundary {
                Some(m) => m as f64 * round_seconds,
                // Final drain: every delivery is made, run to the end.
                None => f64::INFINITY,
            };

            // Snapshot each cluster's backlog at the barrier for the
            // load-aware policies, then route this round's deliveries —
            // fresh arrivals merged with released retries by time (a retry
            // at the same instant goes first: it is strictly older work).
            let barrier = boundary as f64 * round_seconds;
            for worker in workers.iter_mut() {
                worker.backlog = (worker.dispatch.horizon() - barrier).max(0.0);
                worker.routed_in_round = 0;
            }
            loop {
                let arrival_t = if next_global < n {
                    let t = requests[order[next_global] as usize].request.arrival + 0.0;
                    (t <= t_end).then_some(t)
                } else {
                    None
                };
                // A release that predates this round's window is delivered
                // at the barrier — deliveries stay sorted per worker.
                let retry_t = retries.peek().and_then(|&Reverse(entry)| {
                    let t = entry.release.max(barrier);
                    (entry.release <= t_end).then_some(t)
                });
                match (arrival_t, retry_t) {
                    (None, None) => break,
                    (Some(at), rt) if rt.is_none_or(|rt| at < rt) => {
                        let idx = order[next_global] as usize;
                        let fleet_request = &requests[idx];
                        let c = route(
                            self.config.routing,
                            workers,
                            fleet,
                            fleet_request,
                            idx as u64,
                            payload,
                            hint,
                            None,
                        );
                        let mut wan = fleet.wan_round_trip(fleet_request.region, c, payload);
                        if !degradations.is_empty() {
                            wan *= wan_factor(degradations, at);
                        }
                        workers[c].accept(fleet_request.request, wan, at, idx as u32, 0);
                        workers[c].routed_in_round += 1;
                        next_global += 1;
                    }
                    (_, Some(ready)) => {
                        let Reverse(entry) = retries.pop().expect("peeked above");
                        let idx = entry.global as usize;
                        let fleet_request = &requests[idx];
                        // Failover: never back to the cluster that killed
                        // it (unless the fleet has only one).
                        let c = route(
                            self.config.routing,
                            workers,
                            fleet,
                            fleet_request,
                            fnv64(&[entry.global as u64, u64::from(entry.attempts)]),
                            payload,
                            hint,
                            Some(entry.from as usize),
                        );
                        let mut wan = fleet.wan_round_trip(fleet_request.region, c, payload);
                        if !degradations.is_empty() {
                            wan *= wan_factor(degradations, ready);
                        }
                        workers[c].accept(
                            fleet_request.request,
                            wan,
                            ready,
                            entry.global,
                            entry.attempts,
                        );
                        workers[c].routed_in_round += 1;
                    }
                    (Some(_), None) => unreachable!("an arrival with no retry always routes"),
                }
            }

            // Advance every cluster to the barrier, in parallel.
            sweep.run_mut(workers, |i, worker| {
                let events = self
                    .config
                    .timelines
                    .get(i)
                    .map(ClusterTimeline::events)
                    .unwrap_or(&[]);
                let slowdowns = self
                    .config
                    .slowdowns
                    .get(i)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let drift = self.config.drifts.get(i).filter(|d| !d.is_empty());
                worker.advance(
                    &ctx,
                    &clusters[i],
                    events,
                    slowdowns,
                    drift,
                    &caches[i],
                    t_end,
                );
            });
            for worker in workers.iter_mut() {
                if let Some(error) = worker.error.take() {
                    return Err(error);
                }
            }
            // Collect this round's kill fallout in cluster index order (the
            // deterministic global retry order at any thread count).
            for (c, worker) in workers.iter_mut().enumerate() {
                for retry in worker.retry_out.drain(..) {
                    retries.push(Reverse(FleetRetryEntry {
                        release: retry.release + 0.0,
                        seq: retry_seq,
                        global: retry.global,
                        attempts: retry.attempts,
                        from: c as u32,
                    }));
                    retry_seq += 1;
                }
            }

            rounds += 1;
            match next_boundary {
                Some(m) => boundary = m,
                // The drain round may itself have killed work and queued
                // retries; keep routing until the fleet is quiet.
                None => {
                    if retries.is_empty() {
                        break;
                    }
                }
            }
        }

        self.summarise(workers, n, cluster_count, rounds)
    }

    /// Merges the per-cluster workers into the fleet summary, in cluster
    /// index order (which is what makes the rollup thread-count invariant).
    fn summarise(
        &self,
        workers: &[ClusterWorker],
        n: usize,
        clusters: usize,
        rounds: usize,
    ) -> Result<FleetSummary, CoreError> {
        let mut latency = LatencyHistogram::new();
        let mut class_latency = [LatencyHistogram::new(); 3];
        let mut queueing_sum = 0.0f64;
        let mut queueing_max = 0.0f64;
        let mut class_queueing_sum = [0.0f64; 3];
        let mut class_misses = [0usize; 3];
        let mut deadline_misses = 0usize;
        let mut makespan = 0.0f64;
        let mut batches = 0usize;
        let mut epochs_applied = 0usize;
        let mut plan_cache = PlanCacheStats::default();
        let mut busiest = 0usize;
        let mut idlest = usize::MAX;
        let mut wan_sum = 0.0f64;
        let mut robustness = RobustnessStats::default();
        let mut drift = DriftStats::default();
        let mut time_to_first_retry = f64::INFINITY;
        let mut recovery_hist = LatencyHistogram::new();
        for worker in workers {
            robustness.merge(&worker.robustness);
            drift.merge(&DriftStats {
                replans: worker.adaptive.replans,
                observations: worker.adaptive.observations,
                energy_j: worker.dispatch.energy_j,
            });
            if worker.first_retry < time_to_first_retry {
                time_to_first_retry = worker.first_retry;
            }
            recovery_hist.merge(&worker.recovered_latency);
            latency.merge(&worker.latency);
            for (c, hist) in class_latency.iter_mut().enumerate() {
                hist.merge(&worker.class_latency[c]);
            }
            queueing_sum += worker.queueing_sum;
            if worker.queueing_max > queueing_max {
                queueing_max = worker.queueing_max;
            }
            for c in 0..3 {
                class_queueing_sum[c] += worker.class_queueing_sum[c];
                class_misses[c] += worker.class_misses[c];
            }
            deadline_misses += worker.deadline_misses;
            if worker.makespan > makespan {
                makespan = worker.makespan;
            }
            batches += worker.batches;
            epochs_applied += worker.epoch;
            plan_cache.hits += worker.stats.hits;
            plan_cache.misses += worker.stats.misses;
            busiest = busiest.max(worker.requests.len());
            idlest = idlest.min(worker.requests.len());
            wan_sum += worker.wan2.iter().sum::<f64>();
        }
        let mut per_class = [None; 3];
        for (c, &class) in SlaClass::ALL.iter().enumerate() {
            if let Some(latency) = class_latency[c].summary() {
                per_class[c] = Some(SlaClassReport {
                    class,
                    latency,
                    mean_queueing_delay: class_queueing_sum[c] / latency.count as f64,
                    deadline_misses: class_misses[c],
                });
            }
        }
        // Workers count completions and drops; the offered side of the
        // conservation invariant is the global input stream.
        robustness.offered = n as u64;
        debug_assert!(
            robustness.accounts_for_every_request(),
            "request conservation violated: {robustness:?}"
        );
        let latency_summary = latency.summary().ok_or_else(|| CoreError::Infeasible {
            what: format!(
                "fleet scenario '{}': no request completed under the fault timelines",
                self.label
            ),
        })?;
        Ok(FleetSummary {
            requests: n,
            clusters,
            rounds,
            batches,
            epochs_applied,
            makespan,
            latency: latency_summary,
            max_latency: latency.max(),
            mean_queueing_delay: queueing_sum / latency_summary.count as f64,
            max_queueing_delay: queueing_max,
            deadline_misses,
            per_class,
            plan_cache,
            busiest_cluster_requests: busiest,
            idlest_cluster_requests: idlest,
            mean_wan_round_trip: wan_sum / n as f64,
            robustness,
            drift,
            time_to_first_retry,
            recovery_latency: recovery_hist.summary(),
        })
    }

    /// Rejects empty scenarios, invalid requests/regions, malformed round
    /// or routing parameters, timeline shape mismatches and leaders outside
    /// any cluster.
    fn validate(&self, fleet: &Fleet, leader: NodeIndex) -> Result<(), CoreError> {
        if self.requests.is_empty() {
            return Err(CoreError::Infeasible {
                what: format!("fleet scenario '{}' has no requests", self.label),
            });
        }
        if self.requests.len() >= u32::MAX as usize {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}' exceeds the 2^32-1 request limit",
                    self.label
                ),
            });
        }
        for (i, fleet_request) in self.requests.iter().enumerate() {
            let request = &fleet_request.request;
            if !(request.arrival.is_finite() && request.arrival >= 0.0) {
                return Err(CoreError::Infeasible {
                    what: format!(
                        "fleet scenario '{}': request {i} has invalid arrival {}",
                        self.label, request.arrival
                    ),
                });
            }
            if request.batch == 0 {
                return Err(CoreError::Infeasible {
                    what: format!("fleet scenario '{}': request {i} has batch 0", self.label),
                });
            }
            if fleet_request.region >= fleet.region_count() {
                return Err(CoreError::Infeasible {
                    what: format!(
                        "fleet scenario '{}': request {i} originates in region {} but the fleet has {} regions",
                        self.label,
                        fleet_request.region,
                        fleet.region_count()
                    ),
                });
            }
        }
        if !(self.config.round_seconds.is_finite() && self.config.round_seconds > 0.0) {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': round_seconds must be finite and positive, got {}",
                    self.label, self.config.round_seconds
                ),
            });
        }
        if !(self.config.route_cost_hint_s.is_finite() && self.config.route_cost_hint_s >= 0.0) {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': route_cost_hint_s must be finite and non-negative, got {}",
                    self.label, self.config.route_cost_hint_s
                ),
            });
        }
        if !self.config.timelines.is_empty() && self.config.timelines.len() != fleet.len() {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': {} timelines for {} clusters (use an empty list for an all-static fleet)",
                    self.label,
                    self.config.timelines.len(),
                    fleet.len()
                ),
            });
        }
        if self.config.recovery.hedge_premium {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': hedged dispatch is a serving-tier policy \
                     (the fleet's failover response is re-routing retries)",
                    self.label
                ),
            });
        }
        if let Some(retry) = self.config.recovery.retry {
            retry.validate()?;
        }
        if !self.config.slowdowns.is_empty() && self.config.slowdowns.len() != fleet.len() {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': {} slowdown lists for {} clusters (use an empty list for no stragglers)",
                    self.label,
                    self.config.slowdowns.len(),
                    fleet.len()
                ),
            });
        }
        if !self.config.drifts.is_empty() && self.config.drifts.len() != fleet.len() {
            return Err(CoreError::Infeasible {
                what: format!(
                    "fleet scenario '{}': {} drift models for {} clusters (use an empty list for no drift)",
                    self.label,
                    self.config.drifts.len(),
                    fleet.len()
                ),
            });
        }
        if let Some(adaptive) = &self.config.adaptive {
            adaptive.validate()?;
        }
        for window in &self.config.wan_degradations {
            window.validate()?;
        }
        for (i, cluster) in fleet.clusters().iter().enumerate() {
            // The leader must exist in every cluster (every plan keys on it).
            cluster.node(leader)?;
            if let Some(timeline) = self.config.timelines.get(i) {
                timeline.validate(cluster)?;
            }
            if let Some(windows) = self.config.slowdowns.get(i) {
                for window in windows {
                    window.validate()?;
                    cluster.node(window.node)?;
                }
            }
            if let Some(drift) = self.config.drifts.get(i) {
                drift.validate(cluster.len())?;
            }
            if self.config.failures == FailureMode::Kill && cluster.len() > 64 {
                return Err(CoreError::Infeasible {
                    what: format!(
                        "fleet scenario '{}': kill semantics track plan residency in a \
                         64-bit node mask; cluster {i} has {} nodes",
                        self.label,
                        cluster.len()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Read-only per-round context shared by every cluster worker.
struct RoundCtx<'a> {
    strategy: &'a dyn DistributedStrategy,
    leader: NodeIndex,
    policy: AdmissionPolicy,
    max_batch: usize,
    max_inflight: Option<usize>,
    kill: bool,
    recovery: RecoveryPolicy,
    adaptive: Option<AdaptiveConfig>,
}

/// Routes one arrival to a cluster (serial, deterministic). `exclude` is
/// the failover rule: a retry never returns to the cluster that killed it
/// (unless the fleet has only one cluster).
#[allow(clippy::too_many_arguments)]
fn route(
    routing: RoutingPolicy,
    workers: &[ClusterWorker],
    fleet: &Fleet,
    fleet_request: &FleetRequest,
    input_index: u64,
    payload: u64,
    hint: f64,
    exclude: Option<usize>,
) -> usize {
    let k = workers.len();
    if k == 1 {
        return 0;
    }
    let skip = |c: usize| exclude == Some(c);
    match routing {
        RoutingPolicy::Random { seed } => match exclude {
            None => (fnv64(&[seed, input_index]) % k as u64) as usize,
            // Uniform over the k-1 survivors, then remapped around the hole.
            Some(x) => {
                let r = (fnv64(&[seed, input_index]) % (k as u64 - 1)) as usize;
                if r >= x {
                    r + 1
                } else {
                    r
                }
            }
        },
        RoutingPolicy::StaticHash => {
            let key = request_key(fleet_request);
            let mut best = usize::MAX;
            let mut best_score = 0u64;
            for (c, worker) in workers.iter().enumerate() {
                if skip(c) {
                    continue;
                }
                let score = fnv64(&[key, worker.fingerprint]);
                if best == usize::MAX || score > best_score {
                    best = c;
                    best_score = score;
                }
            }
            best
        }
        RoutingPolicy::LeastLoaded => {
            let mut best = usize::MAX;
            let mut best_cost = f64::INFINITY;
            for (c, worker) in workers.iter().enumerate() {
                if skip(c) {
                    continue;
                }
                let cost = worker.backlog + worker.routed_in_round as f64 * hint;
                if best == usize::MAX || cost < best_cost {
                    best = c;
                    best_cost = cost;
                }
            }
            best
        }
        RoutingPolicy::Locality => {
            let mut best = usize::MAX;
            let mut best_cost = f64::INFINITY;
            for (c, worker) in workers.iter().enumerate() {
                if skip(c) {
                    continue;
                }
                let cost = fleet.wan_round_trip(fleet_request.region, c, payload)
                    + worker.backlog
                    + worker.routed_in_round as f64 * hint;
                if best == usize::MAX || cost < best_cost {
                    best = c;
                    best_cost = cost;
                }
            }
            best
        }
    }
}

/// The compounded WAN multiplier for a delivery at `at` (1.0 outside every
/// degradation window).
fn wan_factor(degradations: &[WanDegradation], at: f64) -> f64 {
    let mut factor = 1.0f64;
    for window in degradations {
        if window.applies(at) {
            factor *= window.factor;
        }
    }
    factor
}

/// The sticky routing key of a request: model, per-request batch and region.
fn request_key(fleet_request: &FleetRequest) -> u64 {
    let model = WorkloadModel::ALL
        .iter()
        .position(|m| *m == fleet_request.request.model)
        .unwrap_or(0) as u64;
    fnv64(&[
        model,
        fleet_request.request.batch as u64,
        fleet_request.region as u64,
    ])
}

/// FNV-1a over a word sequence, avalanche-finished — the router's local
/// hash (independent of `std` hashing so routes are stable across processes
/// and Rust versions). The finalizer matters: raw FNV-1a's low bit is a
/// *linear* function of the input bytes (each step is `(h ^ b) * odd`, so
/// bit 0 just XOR-accumulates), which makes `hash % n` correlate with input
/// parity for even `n` — e.g. even-indexed requests all landing on
/// even-indexed clusters. The splitmix64-style mix diffuses every input bit
/// into every output bit.
pub(crate) fn fnv64(parts: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &part in parts {
        for byte in part.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// Reusable working memory for a fleet run: one cluster worker and one
/// sharded [`PlanCache`] per cluster, plus the global routing order. Create
/// one and pass it to every run: after the first pass has sized the buffers,
/// a steady-state pass over the same workload shape performs zero heap
/// allocations at one worker thread (`tests/zero_alloc_warm_path.rs`).
#[derive(Debug, Default)]
pub struct FleetScratch {
    workers: Vec<ClusterWorker>,
    caches: Vec<PlanCache>,
    order: Vec<u32>,
    /// Killed requests awaiting their backoff release, fleet-wide — the
    /// router drains this into (re-routed) deliveries each round.
    retries: BinaryHeap<Reverse<FleetRetryEntry>>,
}

/// A killed request in the fleet retry heap, ordered by release time, ties
/// by push sequence (which is deterministic: workers drain in cluster index
/// order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FleetRetryEntry {
    release: f64,
    seq: u64,
    global: u32,
    attempts: u32,
    from: u32,
}

impl Eq for FleetRetryEntry {}

impl PartialOrd for FleetRetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FleetRetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.release
            .total_cmp(&other.release)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One killed request a worker hands back to the router (the router adds
/// the originating cluster index).
#[derive(Debug, Clone, Copy)]
struct FleetRetry {
    global: u32,
    release: f64,
    attempts: u32,
}

impl FleetScratch {
    /// Creates an empty scratch (no buffers are allocated until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests routed to each cluster in the most recent run (allocates;
    /// for post-run reporting, not the hot path).
    pub fn cluster_requests(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.requests.len()).collect()
    }

    /// Sizes the per-cluster state (only allocates on first use or growth).
    fn ensure(&mut self, clusters: usize) {
        while self.workers.len() < clusters {
            self.workers.push(ClusterWorker::new());
        }
        self.workers.truncate(clusters);
        while self.caches.len() < clusters {
            self.caches.push(PlanCache::new());
        }
        self.caches.truncate(clusters);
    }
}

/// One cluster's incremental serving loop: the state of
/// [`crate::ServingScenario::run_streaming`]'s loop, persisted across router
/// rounds so the loop can stop at a barrier and resume bit-identically.
#[derive(Debug)]
struct ClusterWorker {
    // Deliveries from the router, in (ready, delivery) order.
    requests: Vec<ServingRequest>,
    /// Per delivery: WAN round trip added to its reported latency.
    wan2: Vec<f64>,
    // Per delivery: when it may enter the queue (arrival for fresh work,
    // backoff release for retries), its global input index, and how many
    // attempts it had already burned when delivered.
    ready: Vec<f64>,
    global: Vec<u32>,
    attempts_in: Vec<u32>,
    // The serving loop's state (field-for-field its locals and scratch).
    key: PlanKey,
    queue: IndexedQueue,
    members: Vec<u32>,
    graphs: HashMap<(WorkloadModel, usize), Arc<DnnGraph>>,
    dispatch: DispatchEstimator,
    inflight: BinaryHeap<Reverse<Departure>>,
    epoch_cluster: Option<Cluster>,
    next_event: usize,
    epoch: usize,
    departure_seq: u64,
    next_arrival: usize,
    now: f64,
    stats: PlanCacheStats,
    // Admitted batches awaiting completion, kills handed back to the
    // router, and the request accounting.
    pending: PendingFifo,
    retry_out: Vec<FleetRetry>,
    robustness: RobustnessStats,
    // Adaptive estimation/re-planning state.
    adaptive: AdaptiveState,
    // Virtual time of the first kill that produced a retry (INFINITY if
    // none), and latency histogram over completions that needed a retry.
    first_retry: f64,
    recovered_latency: LatencyHistogram,
    // Routing signals read by the (serial) router.
    fingerprint: u64,
    backlog: f64,
    routed_in_round: u32,
    // Streaming aggregates (exact-merge histograms + exact sums).
    latency: LatencyHistogram,
    class_latency: [LatencyHistogram; 3],
    queueing_sum: f64,
    queueing_max: f64,
    class_queueing_sum: [f64; 3],
    class_misses: [usize; 3],
    deadline_misses: usize,
    makespan: f64,
    batches: usize,
    error: Option<CoreError>,
}

impl ClusterWorker {
    fn new() -> Self {
        Self {
            requests: Vec::new(),
            wan2: Vec::new(),
            ready: Vec::new(),
            global: Vec::new(),
            attempts_in: Vec::new(),
            key: PlanKey {
                strategy: String::new(),
                strategy_config: String::new(),
                graph_fingerprint: 0,
                batch: 0,
                leader: NodeIndex(0),
                cluster_fingerprint: 0,
            },
            queue: IndexedQueue::default(),
            members: Vec::new(),
            graphs: HashMap::new(),
            dispatch: DispatchEstimator::default(),
            inflight: BinaryHeap::new(),
            epoch_cluster: None,
            next_event: 0,
            epoch: 0,
            departure_seq: 0,
            next_arrival: 0,
            now: 0.0,
            stats: PlanCacheStats::default(),
            pending: PendingFifo::default(),
            retry_out: Vec::new(),
            robustness: RobustnessStats::default(),
            adaptive: AdaptiveState::default(),
            first_retry: f64::INFINITY,
            recovered_latency: LatencyHistogram::new(),
            fingerprint: 0,
            backlog: 0.0,
            routed_in_round: 0,
            latency: LatencyHistogram::new(),
            class_latency: [LatencyHistogram::new(); 3],
            queueing_sum: 0.0,
            queueing_max: 0.0,
            class_queueing_sum: [0.0; 3],
            class_misses: [0; 3],
            deadline_misses: 0,
            makespan: 0.0,
            batches: 0,
            error: None,
        }
    }

    /// Rearms the worker for a new run over `cluster`, keeping every
    /// buffer's capacity (and the persistent intern tables).
    fn reset(
        &mut self,
        cluster: &Cluster,
        strategy: &dyn DistributedStrategy,
        leader: NodeIndex,
        has_events: bool,
        adaptive: Option<&AdaptiveConfig>,
    ) {
        self.requests.clear();
        self.wan2.clear();
        self.ready.clear();
        self.global.clear();
        self.attempts_in.clear();
        self.key.strategy.clear();
        self.key.strategy.push_str(strategy.name());
        strategy.write_cache_config(&mut self.key.strategy_config);
        self.key.graph_fingerprint = 0;
        self.key.batch = 0;
        self.key.leader = leader;
        self.key.cluster_fingerprint = cluster.fingerprint();
        self.queue.begin();
        self.dispatch.reset();
        self.inflight.clear();
        if has_events {
            match &mut self.epoch_cluster {
                Some(c) => {
                    // Availability-only rewind keeps warm passes zero-alloc;
                    // a different base cluster falls back to a full clone.
                    if c.restore_availability_from(cluster).is_err() {
                        c.clone_from(cluster);
                    }
                }
                None => self.epoch_cluster = Some(cluster.clone()),
            }
        } else {
            self.epoch_cluster = None;
        }
        self.next_event = 0;
        self.epoch = 0;
        self.departure_seq = 0;
        self.next_arrival = 0;
        self.now = 0.0;
        self.stats = PlanCacheStats::default();
        self.pending.clear();
        self.retry_out.clear();
        self.robustness = RobustnessStats::default();
        // Reset also deactivates any belief a previous run materialised: a
        // non-adaptive run must not inherit it, and an adaptive steady-state
        // pass must rediscover it exactly like the warm pass did.
        match adaptive {
            Some(cfg) => self.adaptive.reset(cfg, cluster.len()),
            None => self.adaptive.reset(&AdaptiveConfig::default(), 0),
        }
        self.first_retry = f64::INFINITY;
        self.recovered_latency = LatencyHistogram::new();
        self.fingerprint = cluster.fingerprint();
        self.backlog = 0.0;
        self.routed_in_round = 0;
        self.latency = LatencyHistogram::new();
        self.class_latency = [LatencyHistogram::new(); 3];
        self.queueing_sum = 0.0;
        self.queueing_max = 0.0;
        self.class_queueing_sum = [0.0; 3];
        self.class_misses = [0; 3];
        self.deadline_misses = 0;
        self.makespan = 0.0;
        self.batches = 0;
        self.error = None;
    }

    /// Accepts one routed delivery. `ready` gates when the entry may enter
    /// the queue (the router merges arrivals and retry releases so
    /// deliveries arrive sorted by `ready`), `global` is the fleet-wide
    /// input index (jitter and conservation key on it) and `attempts` is
    /// the retry budget already burned.
    fn accept(
        &mut self,
        request: ServingRequest,
        wan_round_trip: f64,
        ready: f64,
        global: u32,
        attempts: u32,
    ) {
        self.requests.push(request);
        self.wan2.push(wan_round_trip);
        self.ready.push(ready + 0.0);
        self.global.push(global);
        self.attempts_in.push(attempts);
        self.queue.ensure(self.requests.len());
    }

    /// Advances the cluster to the round barrier, trapping any error for
    /// the router to surface after the parallel section.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        ctx: &RoundCtx<'_>,
        base: &Cluster,
        events: &[AvailabilityEvent],
        slowdowns: &[SlowdownWindow],
        drift: Option<&DriftModel>,
        cache: &PlanCache,
        t_end: f64,
    ) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = self.advance_until(ctx, base, events, slowdowns, drift, cache, t_end) {
            self.error = Some(error);
        }
    }

    /// The serving tier's streaming loop, incremental: identical
    /// admissions, epochs, kills and virtual-time steps, except that the
    /// loop returns — before mutating anything — whenever its next step `t`
    /// would cross `t_end`. The router delivers every arrival `≤ t_end`
    /// before calling this, so each step sees exactly the arrival set the
    /// one-shot loop would.
    ///
    /// Admitted batches wait in the pending FIFO and are finalised
    /// (observed, WAN round trip included) once the clock passes their
    /// completion, in admission order. Under kill semantics a down-flip
    /// landing on a node a pending batch's plan touches kills it; killed
    /// members do **not** re-enter the local queue — they go to
    /// `retry_out`, and the router re-routes them away from this cluster
    /// next round (failover).
    ///
    /// Two rules are WAN-aware, unlike the serving tier's: earliest-deadline
    /// ranks by `arrival + deadline − WAN round trip` (when the reply must
    /// *leave* this cluster — the deadline rule in `hidp_sim::serving`) and
    /// shedding compares the same WAN-adjusted deadline against the
    /// admission lower bound. With zero WAN cost (a one-cluster fleet) both
    /// reduce to the serving tier's rules.
    #[allow(clippy::too_many_arguments)]
    fn advance_until(
        &mut self,
        ctx: &RoundCtx<'_>,
        base: &Cluster,
        events: &[AvailabilityEvent],
        slowdowns: &[SlowdownWindow],
        drift: Option<&DriftModel>,
        cache: &PlanCache,
        t_end: f64,
    ) -> Result<(), CoreError> {
        let ClusterWorker {
            requests,
            wan2,
            ready,
            global,
            attempts_in,
            key,
            queue,
            members,
            graphs,
            dispatch,
            inflight,
            epoch_cluster,
            next_event,
            epoch,
            departure_seq,
            next_arrival,
            now,
            stats,
            pending,
            retry_out,
            robustness,
            adaptive,
            first_retry,
            recovered_latency,
            fingerprint,
            latency,
            class_latency,
            queueing_sum,
            queueing_max,
            class_queueing_sum,
            class_misses,
            deadline_misses,
            makespan,
            batches,
            ..
        } = self;

        // Observes every batch settled by `$now`, in admission order.
        macro_rules! finalise_settled {
            ($now:expr) => {
                while let Some((b, settled)) = pending.pop_settled($now) {
                    let completion = b.effective_completion();
                    if completion > *makespan {
                        *makespan = completion;
                    }
                    robustness.completed += settled.len() as u64;
                    for &m in settled {
                        let request = &requests[m as usize];
                        let lat = completion - request.arrival + wan2[m as usize];
                        let delay = b.admitted - request.arrival;
                        latency.observe(lat);
                        if attempts_in[m as usize] > 0 {
                            // This completion only happened because a retry was
                            // re-routed here: its latency is the recovery cost.
                            recovered_latency.observe(lat);
                        }
                        *queueing_sum += delay;
                        if delay > *queueing_max {
                            *queueing_max = delay;
                        }
                        let class = request.sla.priority() as usize;
                        class_latency[class].observe(lat);
                        class_queueing_sum[class] += delay;
                        if lat > request.sla.deadline_seconds() {
                            *deadline_misses += 1;
                            class_misses[class] += 1;
                        }
                    }
                }
            };
        }

        loop {
            // Admit everything the window allows at the current instant.
            while queue.len() > 0 && ctx.max_inflight.is_none_or(|w| inflight.len() < w) {
                let head = queue.pick(ctx.policy);
                if ctx.recovery.shed {
                    // Every admitted completion is ≥ max(now, earliest free
                    // resource); the reply must leave by `deadline − WAN`.
                    let request = &requests[head as usize];
                    let bound = now.max(dispatch.earliest_free());
                    if bound
                        > request.arrival + request.sla.deadline_seconds() - wan2[head as usize]
                    {
                        queue.remove(head, requests);
                        robustness.shed += 1;
                        continue;
                    }
                }
                queue.coalesce(head, ctx.max_batch, members);
                for &m in members.iter() {
                    queue.remove(m, requests);
                }
                let head = requests[head as usize];
                let combined = head.batch * members.len();
                let graph = graphs
                    .entry((head.model, combined))
                    .or_insert_with(|| Arc::new(head.model.graph(combined)));
                key.graph_fingerprint = graph.fingerprint();
                key.batch = graph.input_shape().batch();
                // Adaptive loop: when the estimated effective rates leave the
                // hysteresis band (bounded by `max_replans`), re-materialise
                // the believed cluster so the cache re-plans on the belief.
                // A stale belief (availability epoch flipped underneath it)
                // is rebuilt without re-quantising and without burning a
                // re-plan: the levels did not move, the base did.
                if let Some(cfg) = ctx.adaptive.as_ref() {
                    let hysteresis =
                        adaptive.replans < cfg.max_replans && adaptive.should_replan(cfg);
                    if hysteresis || (adaptive.stale && adaptive.active) {
                        if hysteresis {
                            adaptive.replans += 1;
                        }
                        let belief_base: &Cluster = epoch_cluster.as_ref().unwrap_or(base);
                        adaptive.rebuild_believed(belief_base, hysteresis, cfg)?;
                    }
                }
                if let Some(believed) = adaptive.belief() {
                    key.cluster_fingerprint = believed.fingerprint();
                }
                let plan_cluster: &Cluster = match adaptive.belief() {
                    Some(believed) => believed,
                    None => epoch_cluster.as_ref().unwrap_or(base),
                };
                let (plan, hit) =
                    cache.plan_keyed(key, ctx.strategy, graph, plan_cluster, ctx.leader)?;
                if hit {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                }
                // Execution stays on the drifting truth; the observer feeds
                // the per-node effective-rate estimates.
                let completion = dispatch.estimate_full(
                    plan.as_ref(),
                    base,
                    *now,
                    slowdowns,
                    drift,
                    ctx.adaptive.as_ref().map(|cfg| (cfg, &mut *adaptive)),
                )?;
                let mask = if ctx.kill {
                    plan_node_mask(plan.as_ref())
                } else {
                    0
                };
                if ctx.max_inflight.is_some() {
                    inflight.push(Reverse(Departure {
                        at: completion,
                        seq: *departure_seq,
                    }));
                    *departure_seq += 1;
                }
                pending.push(PendingBatch::new(*now, completion, mask), members);
                *batches += 1;
            }

            let work_left = *next_arrival < requests.len() || queue.len() > 0;
            // Remaining down-flips can still kill pending work, so the
            // clock keeps walking events while any pending batch outlives
            // the next *down* event (up events never kill).
            let next_down = if ctx.kill {
                events[*next_event..].iter().find(|e| !e.up)
            } else {
                None
            };
            let kills_pending = next_down.is_some_and(|e| pending.runs_past(e.time));
            if !work_left && !kills_pending {
                // Quiet until the next delivery: no remaining down-flip can
                // touch what's pending, so its completions are settled —
                // finalise in admission order and yield to the router.
                finalise_settled!(f64::INFINITY);
                return Ok(());
            }

            // Blocked: wait for the next ready delivery, estimated
            // completion (when the window is full) or kill-relevant flip,
            // whichever comes first.
            let mut t = f64::INFINITY;
            if *next_arrival < requests.len() {
                t = ready[*next_arrival];
            }
            if queue.len() > 0 {
                let Reverse(soonest) = inflight
                    .peek()
                    .expect("a full admission window implies in-flight batches");
                t = t.min(soonest.at);
            }
            if kills_pending {
                let down = next_down.expect("kills_pending implies a down event");
                t = t.min(down.time + 0.0);
            }
            if t > t_end {
                return Ok(()); // Barrier: resume here next round.
            }
            // Replay timeline events due by then; under kill semantics a
            // down-flip kills every pending batch whose plan touches the
            // node and whose completion lies beyond the flip.
            while *next_event < events.len() && events[*next_event].time <= t {
                let event = events[*next_event];
                let c = epoch_cluster
                    .as_mut()
                    .expect("events imply an epoch cluster");
                c.set_available(event.node, event.up)?;
                key.cluster_fingerprint = c.fingerprint();
                *fingerprint = c.fingerprint();
                *epoch += 1;
                *next_event += 1;
                if adaptive.active {
                    // The belief was derived from the old availability; the
                    // next admission rebuilds it from the new epoch cluster.
                    adaptive.stale = true;
                }
                if !ctx.kill || event.up {
                    continue;
                }
                if let Some(cfg) = ctx.adaptive.as_ref() {
                    adaptive.observe_kill(event.node.0, cfg);
                }
                pending.kill(event.node, event.time, |m| {
                    robustness.killed += 1;
                    let i = m as usize;
                    let k = attempts_in[i] + 1;
                    let Some(policy) = ctx.recovery.retry.filter(|r| k <= r.max_attempts) else {
                        robustness.lost += 1;
                        return;
                    };
                    let backoff = policy.backoff_base_s * policy.backoff_factor.powi(k as i32 - 1);
                    let unit = fnv64(&[policy.seed, u64::from(global[i]), u64::from(k)]) as f64
                        / u64::MAX as f64;
                    let release = event.time + backoff * (1.0 + policy.jitter_frac * unit);
                    if ctx.recovery.deadline_abort
                        && release > requests[i].arrival + requests[i].sla.deadline_seconds()
                    {
                        robustness.aborted += 1;
                    } else {
                        // Back to the router, which re-routes it away from
                        // this cluster next round.
                        retry_out.push(FleetRetry {
                            global: global[i],
                            release,
                            attempts: k,
                        });
                        robustness.retried += 1;
                        if event.time < *first_retry {
                            *first_retry = event.time + 0.0;
                        }
                    }
                });
            }
            if t > *now {
                *now = t;
            }
            while let Some(&Reverse(soonest)) = inflight.peek() {
                if soonest.at <= *now {
                    inflight.pop();
                } else {
                    break;
                }
            }
            finalise_settled!(*now);
            while *next_arrival < requests.len() && ready[*next_arrival] <= *now {
                let idx = *next_arrival as u32;
                let request = &requests[*next_arrival];
                let deadline =
                    request.arrival + request.sla.deadline_seconds() - wan2[*next_arrival];
                queue.push_with_deadline(idx, requests, ctx.policy, deadline);
                *next_arrival += 1;
            }
        }
    }
}

/// The bounded-memory result of a fleet run: counts, the fleet makespan,
/// exact-merge latency tails (WAN round trips included) and per-class
/// aggregates. Everything is `Copy`, like [`crate::ServingSummary`], so the
/// audited steady-state pass returns without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSummary {
    /// Total requests served across the fleet.
    pub requests: usize,
    /// Clusters in the fleet.
    pub clusters: usize,
    /// Router rounds executed (arrival-bearing windows plus the drain).
    pub rounds: usize,
    /// Batches admitted across all clusters.
    pub batches: usize,
    /// Timeline events applied across all clusters.
    pub epochs_applied: usize,
    /// Estimated completion time of the last batch anywhere, seconds.
    pub makespan: f64,
    /// Fleet-wide latency tail (queueing + service + WAN round trip;
    /// p50/p95/p99 at histogram bin resolution, count and mean exact).
    pub latency: LatencySummary,
    /// Worst fleet latency, seconds (exact).
    pub max_latency: f64,
    /// Mean queueing delay over completed requests, seconds (exact; local
    /// queueing, WAN excluded).
    pub mean_queueing_delay: f64,
    /// Worst queueing delay, seconds (exact).
    pub max_queueing_delay: f64,
    /// Requests whose fleet latency missed their class deadline.
    pub deadline_misses: usize,
    /// Per-class aggregates indexed by [`SlaClass::priority`]; `None` for
    /// classes absent from the stream.
    pub per_class: [Option<SlaClassReport>; 3],
    /// Plan-cache traffic summed over the per-cluster caches.
    pub plan_cache: PlanCacheStats,
    /// Requests routed to the most-loaded cluster (routing balance signal).
    pub busiest_cluster_requests: usize,
    /// Requests routed to the least-loaded cluster.
    pub idlest_cluster_requests: usize,
    /// Mean WAN round trip paid per request, seconds (0 when all traffic
    /// stays at its regional ingress).
    pub mean_wan_round_trip: f64,
    /// Offered/completed/dropped accounting including recovery traffic.
    /// All-completed when nothing fails.
    pub robustness: RobustnessStats,
    /// Adaptive-loop accounting summed over cluster workers: re-plans
    /// triggered, rate observations fed, and dynamic dispatch energy.
    pub drift: DriftStats,
    /// Virtual time of the first kill that produced a re-routed retry
    /// anywhere in the fleet (`INFINITY` when nothing was retried).
    pub time_to_first_retry: f64,
    /// Latency tail over completions that needed at least one retry
    /// (recovery cost); `None` when no retried request completed.
    pub recovery_latency: Option<LatencySummary>,
}

impl FleetSummary {
    /// Fraction of all requests that missed their deadline.
    pub fn sla_miss_rate(&self) -> f64 {
        self.deadline_misses as f64 / self.requests as f64
    }

    /// The report for one class, if any of its requests were served.
    pub fn class(&self, class: SlaClass) -> Option<&SlaClassReport> {
        self.per_class[class.priority() as usize].as_ref()
    }

    /// Completed requests per second of simulated time (count over the
    /// estimated makespan).
    pub fn requests_per_second(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HidpStrategy;
    use hidp_platform::{presets, Link, WanModel};

    /// A two-region stream mixing two models and all SLA classes.
    fn regional_burst(count: usize) -> Vec<FleetRequest> {
        (0..count)
            .map(|i| {
                let model = if i % 2 == 0 {
                    WorkloadModel::EfficientNetB0
                } else {
                    WorkloadModel::InceptionV3
                };
                let request =
                    ServingRequest::new(model, i as f64 * 0.05).with_sla(SlaClass::ALL[i % 3]);
                FleetRequest::new(request, i % 2)
            })
            .collect()
    }

    #[test]
    fn every_policy_serves_every_request() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(120);
        for routing in [
            RoutingPolicy::Random { seed: 7 },
            RoutingPolicy::StaticHash,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::Locality,
        ] {
            let summary = FleetScenario::new(requests.clone())
                .with_routing(routing)
                .with_max_inflight(Some(4))
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap_or_else(|e| panic!("{} failed: {e}", routing.name()));
            assert_eq!(summary.requests, 120, "{}", routing.name());
            assert_eq!(summary.batches, 120, "no batching configured");
            assert_eq!(summary.clusters, 4);
            assert!(summary.rounds >= 1);
            assert!(summary.makespan > 0.0);
            assert_eq!(summary.latency.count, 120);
            assert!(summary.busiest_cluster_requests >= summary.idlest_cluster_requests);
            assert!(summary.requests_per_second() > 0.0);
            // All three SLA classes are present in the stream.
            for class in SlaClass::ALL {
                assert!(summary.class(class).is_some(), "{}", routing.name());
            }
        }
    }

    #[test]
    fn locality_pays_less_wan_than_random_and_least_loaded_spreads() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(120);
        let run = |routing: RoutingPolicy| {
            FleetScenario::new(requests.clone())
                .with_routing(routing)
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap()
        };
        let random = run(RoutingPolicy::Random { seed: 1 });
        let locality = run(RoutingPolicy::Locality);
        let least_loaded = run(RoutingPolicy::LeastLoaded);
        assert!(
            locality.mean_wan_round_trip < random.mean_wan_round_trip,
            "locality {} vs random {}",
            locality.mean_wan_round_trip,
            random.mean_wan_round_trip
        );
        // Load-aware routing never starves a cluster of this even stream.
        assert!(least_loaded.idlest_cluster_requests > 0);
    }

    #[test]
    fn timeline_flip_rekeys_static_hash_routing() {
        let fleet = presets::generated_fleet(3, 1).unwrap();
        let strategy = HidpStrategy::new();
        // One sticky key: identical requests hash to one cluster until a
        // fingerprint changes.
        let requests: Vec<FleetRequest> = (0..40)
            .map(|i| {
                FleetRequest::new(
                    ServingRequest::new(WorkloadModel::EfficientNetB0, i as f64 * 0.5),
                    0,
                )
            })
            .collect();
        let key = request_key(&requests[0]);
        let rendezvous = |fingerprints: &[u64]| {
            let mut best = 0usize;
            let mut best_score = 0u64;
            for (c, &fp) in fingerprints.iter().enumerate() {
                let score = fnv64(&[key, fp]);
                if c == 0 || score > best_score {
                    best = c;
                    best_score = score;
                }
            }
            best
        };
        let pristine: Vec<u64> = fleet.clusters().iter().map(|c| c.fingerprint()).collect();
        let winner = rendezvous(&pristine);
        // Find a (cluster, node) whose failure moves the rendezvous winner;
        // the search is deterministic, so the test either always finds one
        // or fails loudly.
        let flip = (0..fleet.len())
            .flat_map(|c| (0..fleet.clusters()[c].len()).map(move |n| (c, n)))
            .find(|&(c, n)| {
                let mut fingerprints = pristine.clone();
                let mut failed = fleet.clusters()[c].clone();
                failed.set_available(NodeIndex(n), false).unwrap();
                fingerprints[c] = failed.fingerprint();
                rendezvous(&fingerprints) != winner
            })
            .expect("some single-node failure moves the rendezvous winner");

        let static_run = |timelines: Vec<ClusterTimeline>| {
            let mut scratch = FleetScratch::new();
            FleetScenario::new(requests.clone())
                .with_routing(RoutingPolicy::StaticHash)
                .with_timelines(timelines)
                .run_streaming_in(
                    &strategy,
                    &fleet,
                    NodeIndex(1),
                    &ParallelSweep::new(1),
                    &mut scratch,
                )
                .unwrap();
            scratch.cluster_requests()
        };
        let stable = static_run(Vec::new());
        // All requests share one key, so exactly one cluster serves them.
        assert_eq!(stable.iter().filter(|&&n| n > 0).count(), 1);
        assert_eq!(stable[winner], 40);
        // Fail that node mid-stream: the fingerprint flip re-keys the
        // remaining traffic exactly as it re-keys the cluster's plans.
        let mut timelines = vec![ClusterTimeline::new(); 3];
        timelines[flip.0] = ClusterTimeline::new()
            .node_down(10.0, NodeIndex(flip.1))
            .unwrap();
        let rekeyed = static_run(timelines);
        assert_ne!(stable, rekeyed, "epoch flip must re-key routing");
        assert!(rekeyed[winner] < 40, "post-flip traffic moved: {rekeyed:?}");
        assert_eq!(rekeyed.iter().sum::<usize>(), 40);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let fleet = presets::generated_fleet(2, 1).unwrap();
        let strategy = HidpStrategy::new();
        let ok = regional_burst(4)
            .into_iter()
            .map(|mut r| {
                r.region = 0;
                r
            })
            .collect::<Vec<_>>();
        // Empty scenario.
        assert!(FleetScenario::new(Vec::new())
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Region outside the fleet.
        let mut bad_region = ok.clone();
        bad_region[1].region = 5;
        assert!(FleetScenario::new(bad_region)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Timeline count mismatch.
        assert!(FleetScenario::new(ok.clone())
            .with_timelines(vec![ClusterTimeline::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Non-positive round length.
        assert!(FleetScenario::new(ok.clone())
            .with_round_seconds(0.0)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Leader missing from a cluster.
        assert!(FleetScenario::new(ok)
            .run_streaming(&strategy, &fleet, NodeIndex(64))
            .is_err());
    }

    #[test]
    fn no_fault_robust_fleet_is_bit_identical_to_legacy() {
        let fleet = presets::generated_fleet(4, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(80);
        for routing in [
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::Locality,
            RoutingPolicy::Random { seed: 11 },
        ] {
            let plain = FleetScenario::new(requests.clone())
                .with_routing(routing)
                .with_max_inflight(Some(3))
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap();
            // Kill semantics armed, full recovery enabled — but no fault
            // timeline ever fires, so the run must match the plain config
            // bit for bit.
            let robust = FleetScenario::new(requests.clone())
                .with_routing(routing)
                .with_max_inflight(Some(3))
                .with_failure_mode(FailureMode::Kill)
                .with_recovery(RecoveryPolicy::standard())
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap();
            assert_eq!(plain, robust, "{}", routing.name());
            assert_eq!(robust.robustness, RobustnessStats::all_completed(80));
        }
    }

    #[test]
    fn fleet_failover_reroutes_killed_work_to_surviving_clusters() {
        // Two single-region clusters: locality pins region-0 traffic to
        // cluster 0, which blacks out at t = 0.01 and never recovers.
        let fleet = presets::generated_fleet(2, 2).unwrap();
        let strategy = HidpStrategy::new();
        let nodes = fleet.clusters()[0].len();
        let mut timeline = ClusterTimeline::new();
        for n in 0..nodes {
            timeline = timeline.node_down(0.01, NodeIndex(n)).unwrap();
        }
        // Three region-0 requests: few enough that locality's per-round
        // route-cost hint never spills one to the remote cluster.
        let mut requests: Vec<FleetRequest> = (0..3)
            .map(|_| FleetRequest::new(ServingRequest::new(WorkloadModel::ResNet152, 0.0), 0))
            .collect();
        // Two region-1 requests survive on cluster 1 either way, so the
        // no-recovery baseline still has a latency distribution.
        for _ in 0..2 {
            requests.push(FleetRequest::new(
                ServingRequest::new(WorkloadModel::InceptionV3, 0.0),
                1,
            ));
        }
        let run = |recovery: RecoveryPolicy| {
            FleetScenario::new(requests.clone())
                .with_routing(RoutingPolicy::Locality)
                .with_timelines(vec![timeline.clone(), ClusterTimeline::new()])
                .with_failure_mode(FailureMode::Kill)
                .with_recovery(recovery)
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap()
        };

        let abandoned = run(RecoveryPolicy::default());
        assert_eq!(abandoned.robustness.offered, 5);
        assert_eq!(abandoned.robustness.killed, 3);
        assert_eq!(
            abandoned.robustness.lost, 3,
            "no recovery: kills are permanent"
        );
        assert_eq!(abandoned.robustness.completed, 2);
        assert_eq!(abandoned.latency.count, 2);
        assert!(abandoned.robustness.accounts_for_every_request());

        let recovered = run(RecoveryPolicy::standard());
        assert_eq!(recovered.robustness.offered, 5);
        assert_eq!(recovered.robustness.killed, 3);
        assert_eq!(recovered.robustness.retried, 3, "every kill re-routes");
        assert_eq!(recovered.robustness.lost, 0);
        assert_eq!(recovered.robustness.completed, 5);
        assert_eq!(recovered.latency.count, 5);
        assert!(recovered.robustness.accounts_for_every_request());
        // The failover hop pays the cross-region WAN round trip the
        // locality-routed originals avoided.
        assert!(
            recovered.mean_wan_round_trip > abandoned.mean_wan_round_trip,
            "failover pays WAN: {} vs {}",
            recovered.mean_wan_round_trip,
            abandoned.mean_wan_round_trip
        );
    }

    #[test]
    fn earliest_deadline_ranks_by_when_the_reply_must_leave() {
        // Fault-free, two regions. A least-loaded router with no per-route
        // hint sends a one-round burst to cluster 0, so a request from
        // region 1 (paying the WAN round trip) queues next to local ones
        // behind a blocker. Earliest-deadline ranks by `arrival + deadline
        // − WAN`: the remote request jumps the local one that arrived 1 ms
        // before it. Admission instants do not depend on the order (same
        // model, window of one), so the worst queueing delay moves from the
        // remote request to the local one — 1 ms longer.
        let wan = WanModel::uniform(2, Link::new(100.0, 10.0).unwrap()).unwrap();
        let cluster = presets::paper_cluster();
        let fleet = Fleet::new(vec![cluster.clone(), cluster], vec![0, 1], wan).unwrap();
        let strategy = HidpStrategy::new();
        let run = |last_region: usize| {
            let requests = [(0.0, 0), (0.001, 0), (0.002, last_region)]
                .map(|(at, region)| {
                    FleetRequest::new(ServingRequest::new(WorkloadModel::InceptionV3, at), region)
                })
                .to_vec();
            FleetScenario::new(requests)
                .with_config(FleetConfig {
                    routing: RoutingPolicy::LeastLoaded,
                    policy: AdmissionPolicy::EarliestDeadline,
                    max_inflight: Some(1),
                    round_seconds: 10.0,
                    route_cost_hint_s: 0.0,
                    ..FleetConfig::default()
                })
                .run_streaming(&strategy, &fleet, NodeIndex(1))
                .unwrap()
        };
        let local = run(0);
        let remote = run(1);
        assert_eq!(remote.busiest_cluster_requests, 3, "one cluster serves all");
        assert!(remote.mean_wan_round_trip > 0.0);
        assert_eq!(local.mean_wan_round_trip, 0.0);
        let shift = remote.max_queueing_delay - local.max_queueing_delay;
        assert!(
            (shift - 0.001).abs() < 1e-9,
            "remote request not ranked ahead: worst delay moved by {shift}"
        );
    }

    #[test]
    fn wan_degradation_and_stragglers_degrade_the_fleet() {
        let fleet = presets::generated_fleet(3, 2).unwrap();
        let strategy = HidpStrategy::new();
        let requests = regional_burst(40);
        let base = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_failure_mode(FailureMode::Kill)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        // Every delivery inside the window pays 4x its WAN round trip.
        let degraded = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_failure_mode(FailureMode::Kill)
            .with_wan_degradations(vec![WanDegradation {
                start: 0.0,
                end: 1e6,
                factor: 4.0,
            }])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        assert!(
            degraded.mean_wan_round_trip > 3.9 * base.mean_wan_round_trip,
            "degraded {} vs base {}",
            degraded.mean_wan_round_trip,
            base.mean_wan_round_trip
        );
        assert_eq!(degraded.robustness, RobustnessStats::all_completed(40));
        // Straggler windows on every node stretch estimated completions.
        let slowdowns: Vec<Vec<SlowdownWindow>> = fleet
            .clusters()
            .iter()
            .map(|cluster| {
                (0..cluster.len())
                    .map(|n| SlowdownWindow {
                        node: NodeIndex(n),
                        start: 0.0,
                        end: 1e6,
                        factor: 3.0,
                    })
                    .collect()
            })
            .collect();
        let straggling = FleetScenario::new(requests.clone())
            .with_routing(RoutingPolicy::Random { seed: 3 })
            .with_slowdowns(slowdowns)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .unwrap();
        assert!(
            straggling.makespan > base.makespan,
            "stragglers {} vs base {}",
            straggling.makespan,
            base.makespan
        );
    }

    #[test]
    fn fleet_rejects_serving_tier_hedging_and_malformed_fault_inputs() {
        let fleet = presets::generated_fleet(2, 1).unwrap();
        let strategy = HidpStrategy::new();
        let ok = regional_burst(4)
            .into_iter()
            .map(|mut r| {
                r.region = 0;
                r
            })
            .collect::<Vec<_>>();
        // Hedging is a serving-tier policy; the fleet's failover response
        // is re-routing retries.
        let hedged = RecoveryPolicy {
            hedge_premium: true,
            ..RecoveryPolicy::default()
        };
        assert!(FleetScenario::new(ok.clone())
            .with_recovery(hedged)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Retry backoff must be positive.
        let bad_retry = RecoveryPolicy {
            retry: Some(crate::RetryPolicy {
                backoff_base_s: -1.0,
                ..crate::RetryPolicy::default()
            }),
            ..RecoveryPolicy::default()
        };
        assert!(FleetScenario::new(ok.clone())
            .with_recovery(bad_retry)
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // Slowdown shape must match the fleet; windows must name real nodes.
        assert!(FleetScenario::new(ok.clone())
            .with_slowdowns(vec![Vec::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        let rogue = SlowdownWindow {
            node: NodeIndex(99),
            start: 0.0,
            end: 1.0,
            factor: 2.0,
        };
        assert!(FleetScenario::new(ok.clone())
            .with_slowdowns(vec![vec![rogue], Vec::new()])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
        // WAN degradation windows must be well-formed.
        assert!(FleetScenario::new(ok)
            .with_wan_degradations(vec![WanDegradation {
                start: 5.0,
                end: 1.0,
                factor: 2.0,
            }])
            .run_streaming(&strategy, &fleet, NodeIndex(1))
            .is_err());
    }
}

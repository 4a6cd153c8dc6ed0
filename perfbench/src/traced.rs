//! Per-layer measurement (`--trace 1`). Spans are recorded from outside the
//! program, around calls into each layer's public functions:
//!
//! - `hermes-serve`: one replica is replayed boundary by boundary through
//!   `ReplicaSim::step_boundary` (the whole fleet on a one-replica workload,
//!   one replica's arrival share on a fleet), each call timed, with the
//!   routing probe `ReplicaSim::kv_pressure` sampled as it runs; the counts
//!   the reports already carry come from one `ClusterSimulator` run.
//! - `hermes-core`, `hermes-sparsity`, `hermes-scheduler`, `hermes-ndp`: the
//!   planner and the sparse cost model's building blocks, timed on the
//!   workload's model and steady batch.
//!
//! The same replica is also driven untraced (`run_to_completion`); the
//! traced replay's extra wall time is the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use hermes_core::{BatchState, ClusterReport, MappingPolicy, NeuronPlan};
use hermes_model::Block;
use hermes_ndp::NdpDimm;
use hermes_scheduler::ColdPlacementPolicy;
use hermes_serve::tallies::ordered_sum;
use hermes_serve::{
    BoundaryOutcome, ClusterSimulator, ReplicaSim, SchedulingPolicy, ServingRequest,
};
use hermes_sparsity::{NeuronPopularity, SparsityProfile, StatisticalActivityModel, TokenActivity};

use crate::report::{check_outputs, median, metric, percentile, Metric, Outcome};
use crate::workloads::Bench;

/// Share of the run budget each layer micro-timing may spend.
const MICRO_SHARE: f64 = 0.02;
/// Planner timings are whole plans, each tens to hundreds of ms.
const PLAN_REPEATS: usize = 3;
/// Routing-probe calls per sample, and boundaries between samples.
const PROBE_CALLS: usize = 256;
const PROBE_EVERY: usize = 64;

/// Measure every per-layer metric of `bench`.
pub fn measure(bench: &Bench, seconds: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let offered = bench.num_requests();

    // The fleet run the report-carried counts come from.
    let outcome = ClusterSimulator::new(&bench.cluster)
        .and_then(ClusterSimulator::run)
        .map_err(|e| format!("cluster run: {e}"))?;
    let ids: Vec<usize> = outcome.records.iter().map(|r| r.id).collect();
    let mut failed = 0;
    if let Err(e) = check_outputs(&outcome.report, &ids, offered, bench.expected_tokens) {
        problems.push(format!("cluster run: {e}"));
        failed += offered;
    }
    let report = &outcome.report;

    // One replica, untraced and then boundary by boundary.
    let share: Vec<ServingRequest> = bench
        .requests
        .iter()
        .filter(|r| r.id % bench.cluster.replicas.len() == 0)
        .cloned()
        .collect();
    let share_tokens: usize = share.iter().map(|r| r.gen_len).sum();
    let (mut replica, _) = replica_with(bench, &share)?;
    let t = Instant::now();
    replica
        .run_to_completion()
        .map_err(|e| format!("untraced replay: {e}"))?;
    let untraced_s = t.elapsed().as_secs_f64();
    if (replica.completed(), replica.generated_tokens()) != (share.len(), share_tokens) {
        problems.push("untraced replay: not every injected request completed".into());
    }
    drop(replica);
    let (replica, validate_s) = replica_with(bench, &share)?;
    let replay = replay(replica)?;
    // On a one-replica workload the replay is the fleet run: it must agree
    // with the report exactly.
    let expected = if bench.cluster.replicas.len() == 1 {
        (report.completed, report.generated_tokens)
    } else {
        (share.len(), share_tokens)
    };
    if (replay.completed, replay.generated_tokens) != expected {
        problems.push(format!(
            "traced replay completed {} requests and {} tokens, expected {expected:?}",
            replay.completed, replay.generated_tokens
        ));
        failed += share.len();
    }
    eprintln!(
        "replay: {} boundaries, {} jumps, traced {:.4} s vs untraced {untraced_s:.4} s",
        replay.boundaries, replay.jumps, replay.wall_s
    );

    let mut metrics = vec![
        metric(
            "serve.boundary_us_p50",
            percentile(&replay.boundary_us, 0.50),
            "us",
        ),
        metric(
            "serve.boundary_us_p99",
            percentile(&replay.boundary_us, 0.99),
            "us",
        ),
        metric("serve.boundaries", replay.boundaries as f64, "count"),
        metric("serve.jumps", replay.jumps as f64, "count"),
        metric("serve.validate_requests_s", validate_s, "s"),
    ];
    metrics.extend(report_metrics(report));
    metrics.push(metric(
        "cluster.kv_pressure_ns",
        median(&replay.kv_pressure_ns),
        "ns",
    ));
    metrics.extend(layer_timings(bench, seconds * MICRO_SHARE)?);
    metrics.push(metric("trace.overhead_s", replay.wall_s - untraced_s, "s"));

    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: offered + 2 * share.len(),
        failed,
        metrics,
    })
}

/// A fresh replica scheduling under the workload's knobs, validated against
/// the whole request set (as the fleet validates every replica) and loaded
/// with `requests`. Returns the replica and the validation time.
fn replica_with(bench: &Bench, requests: &[ServingRequest]) -> Result<(ReplicaSim, f64), String> {
    let scenario = &bench.cluster.scenario;
    let spec = bench.replica();
    let mut replica = ReplicaSim::new(spec.kind, &spec.config, scenario.clone())
        .map_err(|e| format!("replica: {e}"))?;
    let t = Instant::now();
    replica
        .validate_requests(&bench.requests)
        .map_err(|e| format!("replica: {e}"))?;
    let validate_s = t.elapsed().as_secs_f64();
    for r in requests {
        let rank = match scenario.scheduling {
            SchedulingPolicy::Fcfs => 0.0,
            SchedulingPolicy::Priority => f64::from(r.class.priority),
            other => return Err(format!("no replay rank for {other:?} scheduling")),
        };
        replica.inject(r.clone(), rank);
    }
    Ok((replica, validate_s))
}

struct Replay {
    completed: usize,
    generated_tokens: usize,
    boundary_us: Vec<f64>,
    boundaries: usize,
    jumps: usize,
    kv_pressure_ns: Vec<f64>,
    wall_s: f64,
}

/// Drive `replica` dry one timed `step_boundary` call at a time.
fn replay(mut replica: ReplicaSim) -> Result<Replay, String> {
    let mut boundary_us = Vec::new();
    let mut kv_pressure_ns = Vec::new();
    let (mut boundaries, mut jumps) = (0, 0);
    let start = Instant::now();
    loop {
        if boundary_us.len() % PROBE_EVERY == 0 {
            let t = Instant::now();
            for _ in 0..PROBE_CALLS {
                black_box(black_box(&replica).kv_pressure());
            }
            kv_pressure_ns.push(t.elapsed().as_secs_f64() * 1e9 / PROBE_CALLS as f64);
        }
        let t = Instant::now();
        let step = replica
            .step_boundary(f64::INFINITY)
            .map_err(|e| format!("traced replay: {e}"))?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        match step {
            BoundaryOutcome::Worked => boundaries += 1,
            BoundaryOutcome::Jumped => jumps += 1,
            BoundaryOutcome::Idle => break,
        }
        boundary_us.push(us);
    }
    Ok(Replay {
        completed: replica.completed(),
        generated_tokens: replica.generated_tokens(),
        boundary_us,
        boundaries,
        jumps,
        kv_pressure_ns,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// The per-layer counts the fleet report carries, summed (or averaged, for
/// ratios) over replicas. Layers a workload does not use report 0.
fn report_metrics(report: &ClusterReport) -> Vec<Metric> {
    let reps: Vec<_> = report.replicas.iter().map(|r| &r.report).collect();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            ordered_sum(xs) / xs.len() as f64
        }
    };
    let sum_f = |f: &dyn Fn(&hermes_core::ServingReport) -> f64| {
        ordered_sum(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let sum_u = |f: &dyn Fn(&hermes_core::ServingReport) -> u64| -> f64 {
        reps.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let kvs: Vec<_> = reps.iter().filter_map(|r| r.kv.as_ref()).collect();
    let lookups = sum_u(&|r| r.prefix.as_ref().map_or(0, |p| p.lookups as u64));
    let hits = sum_u(&|r| r.prefix.as_ref().map_or(0, |p| p.hits as u64));
    vec![
        metric("serve.queue_delay_p50_s", report.queue_delay.p50, "sim_s"),
        metric("serve.queue_delay_p99_s", report.queue_delay.p99, "sim_s"),
        metric(
            "serve.preemptions",
            sum_u(&|r| r.preemptions as u64),
            "count",
        ),
        metric(
            "kv.utilization",
            mean(
                &kvs.iter()
                    .map(|k| k.utilization.unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
            "fraction",
        ),
        metric(
            "kv.peak_blocks",
            kvs.iter().map(|k| k.peak_blocks).max().unwrap_or(0) as f64,
            "blocks",
        ),
        metric(
            "kv.fragmentation",
            mean(&kvs.iter().map(|k| k.fragmentation).collect::<Vec<_>>()),
            "fraction",
        ),
        metric(
            "prefix.hit_rate",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "fraction",
        ),
        metric(
            "prefix.reused_tokens",
            sum_u(&|r| {
                r.prefix
                    .as_ref()
                    .map_or(0, |p| p.reused_prefill_tokens as u64)
            }),
            "tokens",
        ),
        metric(
            "prefix.evicted_blocks",
            sum_u(&|r| r.prefix.as_ref().map_or(0, |p| p.evicted_blocks)),
            "blocks",
        ),
        metric(
            "swap.outs",
            sum_u(&|r| r.swap.as_ref().map_or(0, |s| s.swap_outs as u64)),
            "count",
        ),
        metric(
            "swap.bytes",
            sum_u(&|r| r.swap.as_ref().map_or(0, |s| s.swapped_out_bytes)),
            "bytes",
        ),
        metric(
            "swap.s",
            sum_f(&|r| r.swap.as_ref().map_or(0.0, |s| s.seconds)),
            "sim_s",
        ),
        metric("cluster.redispatches", report.redispatches as f64, "count"),
        metric("cluster.load_imbalance", report.load_imbalance, "cv"),
        metric("core.fc_s", sum_f(&|r| r.breakdown.fc), "sim_s"),
        metric(
            "core.attention_s",
            sum_f(&|r| r.breakdown.attention),
            "sim_s",
        ),
        metric("core.prefill_s", sum_f(&|r| r.breakdown.prefill), "sim_s"),
        metric(
            "core.migration_s",
            sum_f(&|r| r.breakdown.migration),
            "sim_s",
        ),
        metric(
            "core.communication_s",
            sum_f(&|r| r.breakdown.communication),
            "sim_s",
        ),
        metric("core.others_s", sum_f(&|r| r.breakdown.others), "sim_s"),
        metric(
            "core.predictor_s",
            sum_f(&|r| r.breakdown.predictor),
            "sim_s",
        ),
        metric(
            "core.dimm_imbalance",
            mean(&reps.iter().map(|r| r.dimm_imbalance).collect::<Vec<_>>()),
            "ratio",
        ),
    ]
}

/// Median seconds per call of `f`, timed in batches of `batch` calls for
/// about `budget` seconds (at least five batches).
fn time_calls(budget: f64, batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// Median seconds of `PLAN_REPEATS` calls of `f`.
fn time_repeats<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..PLAN_REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Timings of the planner and of the sparse cost model's building blocks on
/// the workload's model, each for about `budget` seconds. The sparse
/// building blocks are timed on every workload (on a full-Hermes plan of the
/// workload's model) so each metric is always measured; only the sparse
/// workloads call them in their runs.
fn layer_timings(bench: &Bench, budget: f64) -> Result<Vec<Metric>, String> {
    let template = bench.template();
    let config = &bench.replica().config;
    let engine = bench.replica().kind.engine(config);
    let plan_s = time_repeats(|| engine.plan(template));
    let mut planned = engine.plan(template).map_err(|e| format!("plan: {e}"))?;
    let batch = BatchState::new(bench.steady_batch.clone());
    let b = batch.size();
    let decode_s = time_calls(budget, 1, || {
        black_box(planned.cost.decode_cost(black_box(&batch)));
    });
    let chunked_s = time_calls(budget, 1, || {
        black_box(
            planned
                .cost
                .chunked_step_cost(black_box(&bench.steady_chunks), black_box(&batch)),
        );
    });

    let cfg = template.model_config();
    let seed = template.seed;
    let profile = SparsityProfile::for_model_on(&cfg, template.dataset);
    let popularity_s = time_repeats(|| NeuronPopularity::generate(&cfg, &profile, seed));
    let popularity = NeuronPopularity::generate(&cfg, &profile, seed);
    let mut activity = StatisticalActivityModel::new(&cfg, &profile, seed);
    let hot_budget = config
        .gpu
        .usable_weight_bytes()
        .saturating_sub(cfg.memory_footprint().dense_resident_bytes());
    let build = || {
        NeuronPlan::build(
            &cfg,
            &profile,
            &popularity,
            &activity,
            hot_budget,
            MappingPolicy::Oracle,
            config.num_dimms,
            ColdPlacementPolicy::Contiguous,
            seed,
        )
    };
    let neuron_plan_s = time_repeats(build);
    let plan = build();

    let next_token_s = time_calls(budget, 1, || {
        black_box(activity.next_token());
    });
    let tokens: Vec<TokenActivity> = (0..8).map(|_| activity.next_token()).collect();
    let token = &tokens[0];
    let blocks = || {
        (0..cfg.num_layers).flat_map(|l| {
            Block::ALL
                .into_iter()
                .enumerate()
                .map(move |(bi, block)| (l, bi, block))
        })
    };
    let expected_s = time_calls(budget, 1, || {
        for (l, bi, block) in blocks() {
            let ba = token.block(l, block);
            let hot = &plan.hot[l][bi];
            black_box(ba.expected_active(hot));
            black_box(ba.expected_union(hot, b));
        }
    });
    let dimm_loads_s = time_calls(budget, 1, || {
        for (l, _, block) in blocks() {
            let ba = token.block(l, block);
            let placement = plan.cold_placement.block(l, block);
            black_box(placement.dimm_loads(ba));
            black_box(placement.dimm_union_loads(ba, b));
        }
    });
    // Rebalancing converges on repeated input, so cycle through the
    // multipliers of several tokens.
    let windows: Vec<Vec<Vec<f64>>> = tokens
        .iter()
        .map(|t| {
            blocks()
                .map(|(l, _, block)| {
                    let ba = t.block(l, block);
                    (0..ba.num_clusters()).map(|c| ba.multiplier(c)).collect()
                })
                .collect()
        })
        .collect();
    let mut placement = plan.cold_placement.clone();
    let mut next = 0;
    let rebalance_s = time_calls(budget, 1, || {
        let window = &windows[next % windows.len()];
        next += 1;
        for ((l, _, block), mults) in blocks().zip(window) {
            black_box(placement.block_mut(l, block).rebalance(mults));
        }
    });

    let dimm = NdpDimm::new(config.dimm.clone());
    let bytes = cfg.neuron_weight_bytes(Block::Mlp) * 1024;
    let flops = cfg.neuron_flops(Block::Mlp) * 1024;
    let gemv_s = time_calls(budget, 1024, || {
        black_box(dimm.gemv_time(black_box(bytes), black_box(flops), black_box(b)));
    });

    Ok(vec![
        metric("core.plan_s", plan_s, "s"),
        metric("core.neuron_plan_s", neuron_plan_s, "s"),
        metric("core.decode_cost_us", decode_s * 1e6, "us"),
        metric("core.chunked_step_cost_us", chunked_s * 1e6, "us"),
        metric("sparsity.next_token_us", next_token_s * 1e6, "us"),
        metric("sparsity.expected_us", expected_s * 1e6, "us"),
        metric("sparsity.popularity_s", popularity_s, "s"),
        metric("scheduler.dimm_loads_us", dimm_loads_s * 1e6, "us"),
        metric("scheduler.rebalance_us", rebalance_s * 1e6, "us"),
        metric("ndp.gemv_time_ns", gemv_s * 1e9, "ns"),
    ])
}

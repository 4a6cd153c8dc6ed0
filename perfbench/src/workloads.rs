//! The three benchmark workloads. Each is a [`ClusterSimulation`] fed by
//! explicit traces drawn from the seed, plus the micro-batch shapes the
//! traced run prices its layer timings on. The README in this directory
//! records why each workload exists and which layers it stresses.

use hermes_core::{
    ArrivalProcess, LengthDistribution, PrefillChunk, PrioritySpec, PromptSpec, SystemConfig,
    SystemKind, Workload,
};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, AdmissionConfig, ClusterSimulation, PreemptionPolicy, PrefillPolicy,
    PrefixCacheMode, ReplicaEvent, ReplicaSpec, RoutingPolicy, SchedulingPolicy, ServingRequest,
    ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

use crate::inputs::{Arrivals, Classes, Inputs, Lengths, Prefixes};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["sparse-decode", "fleet-paged", "sparse-interactive"];

/// One workload instantiated from a seed.
pub struct Bench {
    /// The fleet every timed run simulates.
    pub cluster: ClusterSimulation,
    /// The sampled requests, as the simulator samples them from the traces.
    pub requests: Vec<ServingRequest>,
    /// Σ `gen_len` over the requests: the tokens a correct run generates.
    pub expected_tokens: usize,
    /// Context lengths of the decode batch the layer timings price.
    pub steady_batch: Vec<usize>,
    /// Prefill chunks co-scheduled with that batch in the chunked timing.
    pub steady_chunks: Vec<PrefillChunk>,
}

impl Bench {
    /// Instantiate workload `name` from `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Bench> {
        match name {
            "sparse-decode" => Some(sparse_decode(seed)),
            "fleet-paged" => Some(fleet_paged(seed)),
            "sparse-interactive" => Some(sparse_interactive(seed)),
            _ => None,
        }
    }

    /// Requests offered per run.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// The template workload (model, calibration seed, planning lengths).
    pub fn template(&self) -> &Workload {
        &self.cluster.scenario.template
    }

    /// One machine of the (homogeneous) fleet.
    pub fn replica(&self) -> &ReplicaSpec {
        &self.cluster.replicas[0]
    }
}

fn template(prompt_len: usize, gen_len: usize) -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = prompt_len;
    w.gen_len = gen_len;
    w
}

/// The machines serving a workload.
struct Fleet {
    kind: SystemKind,
    replicas: usize,
    routing: RoutingPolicy,
    events: Vec<ReplicaEvent>,
}

impl Fleet {
    /// One machine of `kind`.
    fn single(kind: SystemKind) -> Fleet {
        Fleet {
            kind,
            replicas: 1,
            routing: RoutingPolicy::RoundRobin,
            events: Vec::new(),
        }
    }
}

/// Wrap sampled inputs as a fleet of identical machines, each scheduling
/// under `scenario`'s knobs.
fn assemble(
    scenario: ServingSimulation,
    inputs: Inputs,
    fleet: Fleet,
    steady_batch: Vec<usize>,
    steady_chunks: Vec<PrefillChunk>,
) -> Bench {
    let expected_tokens = inputs.generated_tokens();
    let n = inputs.times.len();
    let mut scenario = scenario;
    scenario.num_requests = n;
    scenario.arrival = ArrivalProcess::Trace {
        times: inputs.times,
    };
    scenario.lengths = LengthDistribution::Trace {
        lengths: inputs.lengths,
    };
    scenario.classes = PrioritySpec::Trace {
        classes: inputs.classes,
    };
    scenario.prompts = PromptSpec::Trace {
        prefixes: inputs.prefixes,
    };
    let requests = sample_requests(&scenario);
    let cluster = ClusterSimulation::uniform(
        scenario,
        fleet.kind,
        &SystemConfig::paper_default(),
        fleet.replicas,
        fleet.routing,
    )
    .with_events(fleet.events);
    Bench {
        cluster,
        requests,
        expected_tokens,
        steady_batch,
        steady_chunks,
    }
}

/// The requests the simulator builds from the scenario's traces (the trace
/// specs make the seeds irrelevant).
fn sample_requests(scenario: &ServingSimulation) -> Vec<ServingRequest> {
    let ArrivalProcess::Trace { times } = &scenario.arrival else {
        unreachable!("benchmark scenarios replay explicit traces")
    };
    ServingRequest::sample(
        &scenario.template,
        times,
        &scenario.lengths,
        &scenario.classes,
        &scenario.prompts,
        0,
        0,
    )
    .expect("generated traces are well-formed")
}

const DECODE_REQUESTS: usize = 2_000;

/// Full Hermes, saturated: a batch of 128 fixed-length sequences stays full
/// so host time is almost all `decode_cost`.
fn sparse_decode(seed: u64) -> Bench {
    let (prompt, gen) = (64, 128);
    let inputs = Inputs::generate(
        seed,
        DECODE_REQUESTS,
        &Arrivals::Poisson { rate: 500.0 },
        &Lengths {
            prompt: (prompt, prompt),
            gen: (gen, gen),
        },
        &Classes::Single,
        &Prefixes::None,
    );
    let scenario = ServingSimulation::new(template(prompt, gen), ArrivalProcess::AllAtOnce, 0)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(128));
    assemble(
        scenario,
        inputs,
        Fleet::single(SystemKind::hermes()),
        vec![prompt + gen / 2; 128],
        vec![PrefillChunk {
            prompt_len: prompt,
            tokens: prompt,
        }],
    )
}

const FLEET_REQUESTS: usize = 50_000;
const FLEET_REPLICAS: usize = 4;
/// About half the fleet's peak: at 48 req/s and above the p99 TTFT varied
/// by 20–40% between seeds.
const FLEET_RPS: f64 = 40.0;
/// Requests per burst. With bursts of 16, about one seed in ten had a
/// cluster of bursts that set off a swap cascade and lifted the p99 TTFT
/// 20–70% above the median; with bursts of 8 it stays within 2.5% of the
/// median over a hundred seeds, and the pool still preempts and swaps.
const FLEET_BURST: usize = 8;

/// Four Hermes-base boxes behind KV-pressure routing with paged KV,
/// swap-out, a prefix cache and a mid-run failure: step pricing is O(1), so
/// host time is the scheduler, KV pool, cache and router.
fn fleet_paged(seed: u64) -> Bench {
    let (prompt, gen) = (64, 16);
    let inputs = Inputs::generate(
        seed,
        FLEET_REQUESTS,
        &Arrivals::Bursty {
            rate: FLEET_RPS,
            burst: FLEET_BURST,
        },
        &Lengths {
            prompt: (prompt, prompt),
            gen: (gen, gen),
        },
        &Classes::TwoTiers { tier0: 0.25 },
        &Prefixes::Groups {
            groups: 64,
            len: 48,
        },
    );
    let tmpl = template(prompt, gen);
    let kv_cap = request_kv_bytes(&tmpl, prompt, gen) * 32;
    let scenario = ServingSimulation::new(tmpl, ArrivalProcess::AllAtOnce, 0)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_max_batch(128)
                .with_kv_memory_bytes(kv_cap)
                .with_paged_kv(DEFAULT_BLOCK_TOKENS),
        )
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut)
        .with_prefix_cache(PrefixCacheMode::Lru);
    // Replica 1 fails 40% into the nominal trace span and comes back ten
    // seconds later; its in-flight work is re-dispatched to the other three.
    let fail_at = 0.4 * FLEET_REQUESTS as f64 / FLEET_RPS;
    let events = vec![
        ReplicaEvent::Fail {
            replica: 1,
            at: fail_at,
        },
        ReplicaEvent::Recover {
            replica: 1,
            at: fail_at + 10.0,
        },
    ];
    assemble(
        scenario,
        inputs,
        Fleet {
            kind: SystemKind::hermes_base(),
            replicas: FLEET_REPLICAS,
            routing: RoutingPolicy::KvPressure,
            events,
        },
        vec![prompt + gen / 2; 32],
        vec![
            PrefillChunk {
                prompt_len: prompt,
                tokens: prompt,
            };
            4
        ],
    )
}

/// 1,000 requests leave ten samples beyond the p99.
const INTERACTIVE_REQUESTS: usize = 1_000;
/// About half of capacity: at 4 req/s (two thirds) the p99 TTFT and TPOT
/// varied by 10–15% between seeds; at 3 req/s by about 5%.
const INTERACTIVE_RPS: f64 = 3.0;

/// Full Hermes at about half of capacity with widened lengths and chunked
/// prefill: batch size and context mix change every step.
fn sparse_interactive(seed: u64) -> Bench {
    let lengths = Lengths {
        prompt: (32, 512),
        gen: (8, 128),
    };
    let inputs = Inputs::generate(
        seed,
        INTERACTIVE_REQUESTS,
        &Arrivals::Poisson {
            rate: INTERACTIVE_RPS,
        },
        &lengths,
        &Classes::Single,
        &Prefixes::None,
    );
    // A mixed-context batch of 16 sequences (the load keeps 10-15 decoding)
    // halfway through generation, and a full 512-token budget of 64-token
    // chunks, both taken from the sampled requests.
    let steady_batch = inputs
        .lengths
        .iter()
        .take(16)
        .map(|l| l.prompt_len + l.gen_len / 2)
        .collect();
    let steady_chunks = inputs
        .lengths
        .iter()
        .take(8)
        .map(|l| PrefillChunk {
            prompt_len: l.prompt_len,
            tokens: l.prompt_len.min(64),
        })
        .collect();
    // Planned at the smallest lengths, so setup re-plans the engine for the
    // longest prompt and the longest total context.
    let scenario = ServingSimulation::new(template(32, 8), ArrivalProcess::AllAtOnce, 0)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(64))
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 64,
            budget: 512,
        });
    assemble(
        scenario,
        inputs,
        Fleet::single(SystemKind::hermes()),
        steady_batch,
        steady_chunks,
    )
}

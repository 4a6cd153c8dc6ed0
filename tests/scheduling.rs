//! Integration tests of the scheduling stack: offline partition, online
//! adjustment, window-based remapping, and their end-to-end effect
//! (the behaviour behind Fig. 13).

use hermes_core::{try_run_system, HermesOptions, SystemConfig, SystemKind, Workload};
use hermes_model::{Block, ModelConfig, ModelId};
use hermes_predictor::{HermesPredictor, PredictorConfig};
use hermes_scheduler::{
    NeuronAssignment, OfflinePartitioner, OnlineAdjuster, PartitionGoal, PartitionInput, Placement,
    WindowRemapper,
};
use hermes_sparsity::{NeuronFrequencies, SparsityProfile, TraceGenerator};

fn tiny_model() -> ModelConfig {
    let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
    cfg.num_layers = 3;
    cfg.hidden_size = 64;
    cfg.ffn_hidden = 192;
    cfg.num_heads = 8;
    cfg.num_kv_heads = 8;
    cfg
}

#[test]
fn offline_partition_feeds_online_adjustment_and_remapping() {
    // Exercise the full per-neuron scheduling path end to end on a small
    // model: profile -> offline partition -> predictor-driven adjustment ->
    // window-based remapping, checking the invariants at every step.
    let cfg = tiny_model();
    let profile = SparsityProfile::for_model(&cfg);
    let mut gen = TraceGenerator::new(&cfg, &profile, 77);
    let prefill = gen.generate(24);
    let freqs = NeuronFrequencies::measure(&prefill);

    let gpu_budget = cfg.memory_footprint().sparse_bytes() / 5;
    let partitioner = OfflinePartitioner::new(PartitionInput {
        gpu_budget_bytes: gpu_budget,
        num_dimms: 4,
        dimm_capacity_bytes: u64::MAX / 8,
        gpu_time_per_neuron: 1e-8,
        dimm_time_per_neuron: 4e-7,
        sync_time: 1e-7,
    });
    let mut assignment = partitioner.partition(&cfg, &freqs, PartitionGoal::FrequencyOptimal);
    assignment.validate(&cfg, gpu_budget, u64::MAX).unwrap();
    let initial_gpu_bytes = assignment.gpu_bytes(&cfg);
    assert!(initial_gpu_bytes > 0);

    // Online adjustment keeps the byte budget while following the predictor.
    let mut predictor = HermesPredictor::new(&cfg, PredictorConfig::default());
    predictor.initialize_from_prefill(&prefill);
    predictor.correlation_mut().sample_from_trace(&prefill, 8);
    let adjuster = OnlineAdjuster::new(u64::MAX);
    let mut remapper = WindowRemapper::new(&cfg, 5);
    let mut total_moves = 0usize;
    for _ in 0..10 {
        let tok = gen.next_token();
        predictor.observe(&tok);
        for layer in 0..cfg.num_layers {
            let plan = adjuster.adjust_layer(&cfg, &predictor, &mut assignment, layer);
            assert_eq!(plan.promoted.len(), plan.demoted.len());
        }
        if remapper.record_token(&tok) {
            let plan = remapper.rebalance(&cfg, &mut assignment);
            total_moves += plan.moves.len();
        }
    }
    assert_eq!(assignment.gpu_bytes(&cfg), initial_gpu_bytes);
    assignment.validate(&cfg, gpu_budget, u64::MAX).unwrap();
    // Remapping only touches cold neurons; every neuron stays accounted for.
    for layer in 0..cfg.num_layers {
        for block in Block::ALL {
            let n = cfg.neurons_per_layer(block);
            let counted = assignment.gpu_set(layer, block).count_ones()
                + (0..4)
                    .map(|d| assignment.dimm_set(layer, block, d).count_ones())
                    .sum::<usize>();
            assert_eq!(counted, n);
        }
    }
    let _ = total_moves;
}

#[test]
fn remapping_reduces_dimm_load_imbalance_on_contiguous_layouts() {
    let cfg = tiny_model();
    let profile = SparsityProfile::for_model(&cfg);
    let mut gen = TraceGenerator::new(&cfg, &profile, 5);
    // Contiguous placement: the layout that suffers cluster-aligned skew.
    let mut assignment = NeuronAssignment::all_on_dimm_zero(&cfg, 4);
    for layer in 0..cfg.num_layers {
        for block in Block::ALL {
            let n = cfg.neurons_per_layer(block);
            for i in 0..n {
                let d = (i * 4 / n).min(3);
                assignment.set_placement(layer, block, i, Placement::Dimm(d as u16));
            }
        }
    }
    let mut remapper = WindowRemapper::new(&cfg, 5);
    for _ in 0..5 {
        remapper.record_token(&gen.next_token());
    }
    let before =
        hermes_scheduler::remap::imbalance(&remapper.dimm_loads(&assignment, 2, Block::Mlp));
    let probe = remapper.clone();
    remapper.rebalance(&cfg, &mut assignment);
    let after = hermes_scheduler::remap::imbalance(&probe.dimm_loads(&assignment, 2, Block::Mlp));
    assert!(after <= before, "imbalance {before:.3} -> {after:.3}");
}

#[test]
fn full_system_ablation_ordering() {
    // On a memory-constrained GPU the scheduling features stack up the same
    // way the paper's Fig. 13 reports.
    let mut small_gpu = hermes_gpu::GpuDevice::tesla_t4();
    small_gpu.memory_bytes = 8 * hermes_model::GIB;
    let config = SystemConfig::paper_default().with_gpu(small_gpu);
    let mut workload = Workload::paper_default(ModelId::Opt13B);
    workload.gen_len = 10;
    workload.prompt_len = 32;
    let fc = |options: HermesOptions| {
        try_run_system(SystemKind::Hermes(options), &workload, &config)
            .unwrap()
            .breakdown
            .fc
    };
    let random = fc(HermesOptions::random_mapping());
    let partition = fc(HermesOptions::partition_only());
    let adjustment = fc(HermesOptions::adjustment_only());
    let full = fc(HermesOptions::full());
    assert!(partition <= random);
    assert!(adjustment <= partition);
    assert!(full <= adjustment * 1.02);
    // The combined gain is substantial (paper: ~2.8x from random to full).
    assert!(random / full > 1.2, "total gain {:.2}", random / full);
}

//! Integration test of the scheduling stack's end-to-end effect: offline
//! partition, online adjustment and window-based remapping stacked on a
//! full Hermes run (the behaviour behind Fig. 13).

use hermes_core::{try_run_system, HermesVariant, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

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
    let fc = |variant| {
        try_run_system(SystemKind::Hermes(variant), &workload, &config)
            .unwrap()
            .breakdown
            .fc
    };
    let random = fc(HermesVariant::Random);
    let partition = fc(HermesVariant::Partition);
    let adjustment = fc(HermesVariant::Adjustment);
    let full = fc(HermesVariant::Full);
    assert!(partition <= random);
    assert!(adjustment <= partition);
    assert!(full <= adjustment * 1.02);
    // The combined gain is substantial (paper: ~2.8x from random to full).
    assert!(random / full > 1.2, "total gain {:.2}", random / full);
}

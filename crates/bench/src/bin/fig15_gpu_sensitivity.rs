//! Fig. 15: throughput of OPT-13B and OPT-30B with different consumer GPUs
//! (Tesla T4, RTX 3090, RTX 4090) across batch sizes.

use hermes_bench::run_cell;
use hermes_core::{HermesError, SystemConfig, SystemKind, Workload};
use hermes_gpu::GpuDevice;
use hermes_model::ModelId;

fn main() -> Result<(), HermesError> {
    let batches = [1usize, 4, 16];
    println!("# Fig. 15 — GPU sensitivity (tokens/s)");
    println!("| model / batch | Tesla T4 | RTX 3090 | RTX 4090 |");
    println!("|---|---|---|---|");
    for model in [ModelId::Opt13B, ModelId::Opt30B] {
        for &batch in &batches {
            let workload = Workload::paper_default(model).with_batch(batch);
            let cells: Vec<String> = GpuDevice::consumer_lineup()
                .into_iter()
                .map(|gpu| {
                    let config = SystemConfig::paper_default().with_gpu(gpu);
                    run_cell(SystemKind::hermes(), &workload, &config).map(|c| c.formatted())
                })
                .collect::<Result<_, _>>()?;
            println!("| {model} b{batch} | {} |", cells.join(" | "));
        }
    }
    Ok(())
}

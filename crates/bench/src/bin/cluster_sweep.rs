//! Sweep multi-replica fleets: routing policies head to head on a fixed
//! fleet, then fleet sizes under KV-pressure routing to find the cheapest
//! fleet holding the target p95 TTFT.
//!
//! Run with: `cargo run --release -p hermes-bench --bin cluster_sweep`
//! (`--json` for the machine-readable output).

use hermes_bench::cluster_sweep::{run_sweep, ClusterSweepOutput, TARGET_TTFT_P95};

fn print_tables(output: &ClusterSweepOutput) {
    println!(
        "## Routing policies ({} requests/fleet)",
        output.num_requests
    );
    println!();
    println!("| routing | ttft p50 | ttft p95 | e2e p95 | load imbalance | redispatches |");
    println!("|---|---|---|---|---|---|");
    for entry in output
        .results
        .iter()
        .filter(|e| e.section == "routing-policy")
    {
        println!(
            "| {} | {:>8.3} | {:>8.3} | {:>8.3} | {:>6.3} | {:>3} |",
            entry.routing,
            entry.report.ttft.p50,
            entry.report.ttft.p95,
            entry.report.e2e.p95,
            entry.report.load_imbalance,
            entry.report.redispatches,
        );
    }
    println!();
    println!("## Per-replica utilization (routing-policy fleets)");
    println!();
    println!("| routing | replica | routed | utilization | token share |");
    println!("|---|---|---|---|---|");
    for entry in output
        .results
        .iter()
        .filter(|e| e.section == "routing-policy")
    {
        for r in &entry.per_replica {
            println!(
                "| {} | {} | {:>4} | {:>6.3} | {:>6.3} |",
                entry.routing, r.label, r.routed, r.utilization, r.token_share,
            );
        }
    }
    println!();
    println!("## Fleet sizing under kv-pressure (target p95 TTFT <= {TARGET_TTFT_P95} s)");
    println!();
    println!("| replicas | ttft p95 | load imbalance | holds target |");
    println!("|---|---|---|---|");
    for entry in output
        .results
        .iter()
        .filter(|e| e.section == "fleet-sizing")
    {
        println!(
            "| {:>2} | {:>8.3} | {:>6.3} | {} |",
            entry.replicas,
            entry.report.ttft.p95,
            entry.report.load_imbalance,
            if entry.meets_target { "yes" } else { "no" },
        );
    }
    println!();
    match output.cheapest_fleet {
        Some(n) => println!("cheapest fleet holding the target: {n} replicas"),
        None => println!("no swept fleet holds the target"),
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let output = run_sweep();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&output).expect("serializable sweep")
        );
    } else {
        print_tables(&output);
    }
}

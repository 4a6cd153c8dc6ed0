//! Neuron scheduling for Hermes: offline partition, online hot/cold
//! adjustment, and window-based load balancing across NDP-DIMMs.
//!
//! The scheduler answers three questions the paper poses (Sections IV-B to
//! IV-D):
//!
//! 1. **Where does each neuron start?** The offline partitioner places the
//!    most frequently activated neurons in GPU memory (subject to its
//!    capacity) and spreads the cold majority across the DIMMs — the greedy
//!    equivalent of the paper's ILP formulation (Eq. 1–7), with an exact
//!    solver for small instances used to validate the heuristic.
//! 2. **How does the partition track the input?** The online adjuster
//!    promotes neurons whose predictor state crosses `Th` to GPU memory and
//!    evicts the lowest-state residents, hiding the copies under the dense
//!    projection computation.
//! 3. **How do the DIMMs stay balanced?** The window-based remapper
//!    (Algorithm 1) pairs the most- and least-loaded DIMMs every
//!    five-token window and migrates the hottest cold neurons over
//!    DIMM-links.
//!
//! Two granularities are provided: exact per-neuron structures (exercised
//! by the unit tests and `tests/scheduling.rs` on small models) and
//! cluster-granularity structures (used by the end-to-end Hermes engines,
//! the Fig. 13 ablations included, for billion-parameter models, where
//! per-neuron bookkeeping per token would dominate simulation time without
//! changing the statistics).

pub mod adjust;
pub mod assignment;
pub mod cluster_placement;
pub mod partition;
pub mod remap;

pub use adjust::{AdjustmentPlan, OnlineAdjuster};
pub use assignment::{NeuronAssignment, Placement};
pub use cluster_placement::{ClusterColdPlacement, ColdPlacementPolicy};
pub use partition::{OfflinePartitioner, PartitionGoal, PartitionInput};
pub use remap::{RemapPlan, WindowRemapper};

//! Cold-neuron placement for Hermes: how the cold neurons are spread over
//! the NDP-DIMMs and rebalanced between them as the input changes.
//!
//! The paper makes three scheduling decisions (Sections IV-B to IV-D). The
//! simulator models each at co-activation-cluster granularity, which keeps
//! the statistics the cost models consume without per-neuron bookkeeping on
//! every token of a billion-parameter model:
//!
//! 1. **Offline partition** (the greedy form of the ILP in Eq. 1–7):
//!    `hermes_core::NeuronPlan::build` puts the neurons of highest
//!    activation density in GPU memory and lays the cold rest out over the
//!    DIMMs with [`ClusterColdPlacement::build`].
//! 2. **Online adjustment**: the predictor-guided hot set captures
//!    `hermes_core::HermesVariant::tracking_quality` of the oracle's
//!    activation mass.
//! 3. **Window-based remapping** (Algorithm 1), which only full Hermes
//!    (`hermes_core::HermesVariant::Full`) runs:
//!    [`cluster_placement::BlockColdPlacement::rebalance`] pairs the most-
//!    and least-loaded DIMMs every window and moves the hottest clusters'
//!    mass from the former to the latter.

pub mod cluster_placement;

pub use cluster_placement::{ClusterColdPlacement, ColdPlacementPolicy};

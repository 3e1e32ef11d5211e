//! # hemelb-partition
//!
//! Domain decomposition for the sparse lattice: the role ParMETIS plays
//! in HemeLB (§IV-A of the SC'12 co-design paper), built from scratch.
//!
//! Provided partitioners, all implementing [`Partitioner`]:
//!
//! * [`NaiveBlock`] — contiguous site-index chunks (the strawman);
//! * [`HilbertSfc`] — the Hilbert-curve ordering cut into
//!   weight-balanced chunks;
//! * [`MultilevelKWay`] — the ParMETIS-family algorithm: a first
//!   coarsening step that contracts the lattice's 2×2×2 cells, then
//!   heavy-edge matching; greedy graph growing on the coarsest graph;
//!   boundary Fiduccia–Mattheyses refinement during uncoarsening.
//!
//! [`quality`] computes the metrics the paper's
//! load-balance discussion revolves around (imbalance, edge cut,
//! communication volume, neighbour counts), and [`visaware`] implements
//! the paper's proposal that *visualisation* work must enter the balance
//! equation: multi-constraint rebalancing with migration accounting
//! (experiment E10). [`adaptive`] closes the loop: measured per-rank
//! cost → hysteresis-filtered trigger → planned rebalance → cost/benefit
//! gate (experiment E15).
//!
//! ```
//! use hemelb_geometry::VesselBuilder;
//! use hemelb_partition::{graph::SiteGraph, MultilevelKWay, Partitioner};
//!
//! let geo = VesselBuilder::straight_tube(20.0, 4.0).voxelise(1.0);
//! let graph = SiteGraph::from_geometry(&geo, hemelb_partition::graph::Connectivity::D3Q15);
//! let owner = MultilevelKWay.partition(&graph, 4);
//! let q = hemelb_partition::metrics::quality(&graph, &owner, 4);
//! assert!(q.imbalance < 1.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod error;
pub mod graph;
pub mod kway;
pub mod metrics;
mod sfc;
pub mod visaware;

pub use adaptive::{
    payoff_gate, plan_rebalance, AdaptiveLb, AdaptiveLbConfig, GateDecision, Observation,
    WindowCosts,
};
pub use error::{PartitionError, PartitionResult};
pub use graph::SiteGraph;
pub use kway::MultilevelKWay;
pub use metrics::{quality, PartitionQuality};
pub use sfc::HilbertSfc;

/// A k-way partitioner of site graphs.
pub trait Partitioner {
    /// Assign each vertex an owner in `0..k`.
    fn partition(&self, graph: &SiteGraph, k: usize) -> Vec<usize>;
    /// Short display name for report tables.
    fn name(&self) -> &'static str;
}

/// The strawman: contiguous chunks of the site-index order, balanced by
/// vertex weight. (Site index order is lexicographic x-major scan order,
/// so chunks are geometric slabs for simple geometries.)
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveBlock;

impl Partitioner for NaiveBlock {
    fn partition(&self, graph: &SiteGraph, k: usize) -> Vec<usize> {
        sfc::split_ordering_by_weight(&(0..graph.len() as u32).collect::<Vec<_>>(), graph, k)
    }
    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Connectivity;
    use hemelb_geometry::VesselBuilder;

    #[test]
    fn all_partitioners_produce_valid_covers() {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(NaiveBlock),
            Box::new(HilbertSfc),
            Box::new(MultilevelKWay),
        ];
        for p in &partitioners {
            for k in [1, 2, 4, 5] {
                let owner = p.partition(&graph, k);
                assert_eq!(owner.len(), graph.len(), "{} k={k}", p.name());
                assert!(owner.iter().all(|&o| o < k), "{} k={k}", p.name());
                // Every part non-empty (graph much larger than k).
                let mut seen = vec![false; k];
                for &o in &owner {
                    seen[o] = true;
                }
                assert!(seen.iter().all(|&s| s), "{} k={k}: empty part", p.name());
            }
        }
    }

    #[test]
    fn kway_not_dramatically_worse_than_naive_on_a_tube() {
        let geo = VesselBuilder::aneurysm(32.0, 5.0, 7.0).voxelise(1.0);
        let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
        let k = 8;
        let naive = quality(&graph, &NaiveBlock.partition(&graph, k), k);
        let kway = quality(&graph, &MultilevelKWay.partition(&graph, k), k);
        // Index slabs are near-optimal cuts for an elongated tube, so the
        // requirement here is sanity, not victory; the decisive
        // comparisons run on complex geometry in the benches.
        assert!(
            kway.edge_cut as f64 <= naive.edge_cut as f64 * 2.0,
            "kway cut {} vs naive {}",
            kway.edge_cut,
            naive.edge_cut
        );
        assert!(kway.imbalance < 1.1);
    }
}

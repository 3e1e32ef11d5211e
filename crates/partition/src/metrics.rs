//! Partition quality metrics.
//!
//! These are the quantities the paper's pre-processing discussion is
//! about: load balance ("hundreds of thousands of cores possibly wait
//! for only a couple of cores"), edge cut (halo volume) and neighbour
//! counts (message counts).

use crate::graph::SiteGraph;

/// Quality summary of a k-way partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Parts.
    pub k: usize,
    /// `max part weight / mean part weight` (1.0 = perfect).
    pub imbalance: f64,
    /// Imbalance of the secondary weight, if the graph has one.
    pub imbalance2: Option<f64>,
    /// Undirected edges crossing part boundaries.
    pub edge_cut: u64,
    /// Total communication volume: Σ_v (#distinct foreign parts adjacent
    /// to v) — the METIS "totalv" metric; proportional to halo bytes.
    pub comm_volume: u64,
    /// Maximum over parts of the per-part communication volume.
    pub max_comm_volume: u64,
    /// Maximum over parts of the number of neighbouring parts.
    pub max_neighbours: usize,
}

impl PartitionQuality {
    /// The secondary (visualisation) imbalance, or the neutral `1.0`
    /// when the graph carries no secondary weights.
    ///
    /// Callers used to `unwrap()` [`PartitionQuality::imbalance2`]
    /// directly, which panicked the moment a single-weight graph passed
    /// through a multi-constraint code path; this accessor makes the
    /// "no vis weights = perfectly balanced vis load of zero" convention
    /// explicit.
    pub fn vis_imbalance(&self) -> f64 {
        self.imbalance2.unwrap_or(1.0)
    }
}

/// Compute the quality of `owner` (values in `0..k`) on `graph`.
pub fn quality(graph: &SiteGraph, owner: &[usize], k: usize) -> PartitionQuality {
    assert_eq!(owner.len(), graph.len());
    let mut loads = vec![0.0f64; k];
    let mut loads2 = vec![0.0f64; k];
    for (v, &o) in owner.iter().enumerate() {
        loads[o] += graph.vwgt[v];
        if let Some(w2) = &graph.vwgt2 {
            loads2[o] += w2[v];
        }
    }
    let imbalance = imbalance_of(&loads);
    let imbalance2 = graph.vwgt2.as_ref().map(|_| imbalance_of(&loads2));

    let mut edge_cut = 0u64;
    let mut comm_volume = 0u64;
    let mut part_volume = vec![0u64; k];
    let mut part_neighbours: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); k];
    let mut foreign: Vec<usize> = Vec::with_capacity(8);
    for v in 0..graph.len() as u32 {
        let ov = owner[v as usize];
        foreign.clear();
        for &u in graph.neighbours(v) {
            let ou = owner[u as usize];
            if ou != ov {
                edge_cut += 1; // counts each undirected edge twice; halved below
                if !foreign.contains(&ou) {
                    foreign.push(ou);
                }
            }
        }
        comm_volume += foreign.len() as u64;
        part_volume[ov] += foreign.len() as u64;
        for &f in &foreign {
            part_neighbours[ov].insert(f);
        }
    }
    PartitionQuality {
        k,
        imbalance,
        imbalance2,
        edge_cut: edge_cut / 2,
        comm_volume,
        max_comm_volume: part_volume.into_iter().max().unwrap_or(0),
        max_neighbours: part_neighbours
            .into_iter()
            .map(|s| s.len())
            .max()
            .unwrap_or(0),
    }
}

/// `max/mean` of a load vector (1.0 = perfect, and also 1.0 for an
/// all-zero or empty load vector, where imbalance is meaningless).
pub fn imbalance_of(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    let mean = total / loads.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        loads.iter().cloned().fold(0.0, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Connectivity;
    use hemelb_geometry::VesselBuilder;

    fn line_graph(n: usize) -> SiteGraph {
        // Path graph 0-1-2-…-(n-1).
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords: (0..n).map(|v| [v as f64, 0.0, 0.0]).collect(),
        }
    }

    #[test]
    fn perfect_split_of_a_path() {
        let g = line_graph(10);
        let owner: Vec<usize> = (0..10).map(|v| v / 5).collect();
        let q = quality(&g, &owner, 2);
        assert!((q.imbalance - 1.0).abs() < 1e-12);
        assert_eq!(q.edge_cut, 1);
        assert_eq!(q.comm_volume, 2, "one boundary vertex on each side");
        assert_eq!(q.max_neighbours, 1);
    }

    #[test]
    fn alternating_split_maximises_cut() {
        let g = line_graph(10);
        let owner: Vec<usize> = (0..10).map(|v| v % 2).collect();
        let q = quality(&g, &owner, 2);
        assert_eq!(q.edge_cut, 9, "every path edge is cut");
        assert_eq!(q.comm_volume, 10);
    }

    #[test]
    fn single_part_has_no_cut() {
        let geo = VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0);
        let g = SiteGraph::from_geometry(&geo, Connectivity::Six);
        let owner = vec![0usize; g.len()];
        let q = quality(&g, &owner, 1);
        assert_eq!(q.edge_cut, 0);
        assert_eq!(q.comm_volume, 0);
        assert_eq!(q.max_neighbours, 0);
        assert!((q.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn secondary_imbalance_tracked_when_present() {
        let g = line_graph(4).with_secondary_weights(vec![1.0, 1.0, 1.0, 5.0]);
        let owner = vec![0, 0, 1, 1];
        let q = quality(&g, &owner, 2);
        assert!((q.imbalance - 1.0).abs() < 1e-12, "primary balanced");
        let im2 = q.vis_imbalance();
        assert!(im2 > 1.4, "secondary skewed: {im2}");
    }

    #[test]
    fn vis_imbalance_is_neutral_without_secondary_weights() {
        let g = line_graph(4);
        let q = quality(&g, &[0, 0, 1, 1], 2);
        assert_eq!(q.imbalance2, None);
        assert_eq!(q.vis_imbalance(), 1.0, "no weights reads as balanced");
    }

    #[test]
    fn imbalance_of_zero_loads_is_neutral() {
        assert_eq!(imbalance_of(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance_of(&[2.0, 1.0, 1.0]), 1.5);
    }
}

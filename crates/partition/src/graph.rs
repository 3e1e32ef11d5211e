//! The site graph: vertices are fluid sites, edges are lattice links.
//!
//! Stored in the CSR (`xadj`/`adjncy`) layout METIS uses. Vertex weights
//! default to the per-site LB work (uniform) and can carry a secondary
//! *visualisation* weight for the multi-constraint experiments.

use hemelb_geometry::lattice::NOT_FLUID;
use hemelb_geometry::SparseGeometry;

/// Which lattice links define graph edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connectivity {
    /// 6 axis neighbours.
    Six,
    /// 14 = 6 axis + 8 cube corners (the D3Q15 stencil).
    D3Q15,
    /// 18 = 6 axis + 12 face diagonals (the D3Q19 stencil).
    D3Q19,
    /// Full 26-neighbourhood.
    TwentySix,
}

impl Connectivity {
    /// The neighbour offsets of this stencil (excluding the rest vector).
    pub fn offsets(self) -> Vec<[i32; 3]> {
        let mut out = Vec::new();
        for dx in -1..=1i32 {
            for dy in -1..=1i32 {
                for dz in -1..=1i32 {
                    let nz = [dx, dy, dz].iter().filter(|&&v| v != 0).count();
                    let keep = match self {
                        Connectivity::Six => nz == 1,
                        Connectivity::D3Q15 => nz == 1 || nz == 3,
                        Connectivity::D3Q19 => nz == 1 || nz == 2,
                        Connectivity::TwentySix => nz >= 1,
                    };
                    if keep {
                        out.push([dx, dy, dz]);
                    }
                }
            }
        }
        out
    }
}

/// CSR graph over fluid sites with coordinates and one or two vertex
/// weights.
#[derive(Debug, Clone)]
pub struct SiteGraph {
    /// CSR row pointers, length `n + 1`.
    pub xadj: Vec<usize>,
    /// CSR adjacency (vertex ids), length `xadj[n]`.
    pub adjncy: Vec<u32>,
    /// Primary (compute) vertex weights.
    pub vwgt: Vec<f64>,
    /// Optional secondary (visualisation) vertex weights.
    pub vwgt2: Option<Vec<f64>>,
    /// Vertex coordinates (lattice positions), for geometric methods.
    pub coords: Vec<[f64; 3]>,
}

impl SiteGraph {
    /// Build the site graph of a sparse geometry under a stencil.
    pub fn from_geometry(geo: &SparseGeometry, conn: Connectivity) -> Self {
        let offsets = conn.offsets();
        let (stencil, mut row) = (geo.stencil(offsets.iter().copied()), vec![0; offsets.len()]);
        let n = geo.fluid_count();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::new();
        xadj.push(0);
        for s in 0..n as u32 {
            geo.offset_sites(s, &stencil, &mut row);
            adjncy.extend(row.iter().filter(|&&t| t != NOT_FLUID));
            xadj.push(adjncy.len());
        }
        let coords = (0..n as u32)
            .map(|s| {
                let [x, y, z] = geo.position(s);
                [x as f64, y as f64, z as f64]
            })
            .collect();
        SiteGraph {
            xadj,
            adjncy,
            vwgt: vec![1.0; n],
            vwgt2: None,
            coords,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of vertex `v`.
    #[inline]
    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.adjncy[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Total primary weight.
    pub(crate) fn total_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Attach a secondary (visualisation) weight vector.
    ///
    /// # Panics
    /// Panics if the length differs from the vertex count.
    pub fn with_secondary_weights(mut self, w2: Vec<f64>) -> Self {
        assert_eq!(w2.len(), self.len());
        self.vwgt2 = Some(w2);
        self
    }

    /// Structural sanity checks (symmetry, no self-loops, ids in range).
    /// O(E log E); used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len() as u32;
        let mut directed: Vec<(u32, u32)> = Vec::with_capacity(self.adjncy.len());
        for v in 0..n {
            for &u in self.neighbours(v) {
                if u >= n {
                    return Err(format!("edge target {u} out of range"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                directed.push((v, u));
            }
        }
        let mut reversed: Vec<(u32, u32)> = directed.iter().map(|&(a, b)| (b, a)).collect();
        directed.sort_unstable();
        reversed.sort_unstable();
        if directed != reversed {
            return Err("graph is not symmetric".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    #[test]
    fn stencils_have_expected_sizes() {
        assert_eq!(Connectivity::Six.offsets().len(), 6);
        assert_eq!(Connectivity::D3Q15.offsets().len(), 14);
        assert_eq!(Connectivity::D3Q19.offsets().len(), 18);
        assert_eq!(Connectivity::TwentySix.offsets().len(), 26);
    }

    #[test]
    fn graph_is_symmetric_and_loop_free() {
        let geo = VesselBuilder::straight_tube(14.0, 3.0).voxelise(1.0);
        for conn in [
            Connectivity::Six,
            Connectivity::D3Q15,
            Connectivity::D3Q19,
            Connectivity::TwentySix,
        ] {
            let g = SiteGraph::from_geometry(&geo, conn);
            assert_eq!(g.len(), geo.fluid_count());
            g.validate().unwrap();
        }
    }

    #[test]
    fn interior_vertices_have_full_degree() {
        let geo = VesselBuilder::straight_tube(20.0, 5.0).voxelise(1.0);
        let g = SiteGraph::from_geometry(&geo, Connectivity::Six);
        let max_deg = (0..g.len() as u32)
            .map(|v| g.neighbours(v).len())
            .max()
            .unwrap();
        assert_eq!(max_deg, 6, "interior of a radius-5 tube has full stencils");
    }

    #[test]
    fn weights_default_uniform() {
        let geo = VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0);
        let g = SiteGraph::from_geometry(&geo, Connectivity::Six);
        assert_eq!(g.total_weight(), g.len() as f64);
        let g2 = g.with_secondary_weights(vec![2.0; geo.fluid_count()]);
        assert!(g2.vwgt2.is_some());
    }
}

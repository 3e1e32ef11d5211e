//! Experiment E9 — §V's multi-resolution data structure: data
//! reduction, reconstruction error, progressive streaming and
//! region-of-interest refinement.
//!
//! For each octree level ℓ the experiment reports the cut size, the
//! transport bytes and the relative L2 error of the downsampled speed
//! field; plus a context+detail ROI cut around the aneurysm sac
//! compared with a uniform fine cut. How long the octree takes to build
//! is the repo benchmark's `octree.build_s` on `prep_cold`.

use crate::workloads::{self, Size};
use hemelb_octree::roi::{Roi, RoiCut};
use hemelb_octree::{FieldOctree, StreamOrder};
use std::fmt;

/// One level's row.
#[derive(Debug, Clone)]
pub struct MultiresRow {
    /// Octree level.
    pub level: u8,
    /// Nodes in the cut.
    pub nodes: usize,
    /// Transport bytes of the streamed prefix.
    pub prefix_bytes: usize,
    /// Relative L2 error of the reconstruction.
    pub l2_error: f64,
}

/// The experiment result.
pub struct MultiresResult {
    /// Sites in the field.
    pub sites: usize,
    /// Full-field bytes (one f64 per site).
    pub full_bytes: usize,
    /// Per-level rows.
    pub rows: Vec<MultiresRow>,
    /// ROI cut size (nodes) vs uniform fine cut.
    pub roi_nodes: usize,
    /// Uniform fine-cut node count.
    pub fine_nodes: usize,
    /// ROI cut error *inside* the ROI (must be ~0: full detail there).
    pub roi_interior_exact: bool,
}

/// Run E9.
pub fn run(size: Size) -> MultiresResult {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 200);
    let speed: Vec<f64> = (0..snap.len()).map(|i| snap.speed(i)).collect();
    let tree = FieldOctree::build(&geo, &speed);
    let order = StreamOrder::build(&tree);

    let mut rows = Vec::new();
    for level in 0..=tree.depth() {
        rows.push(MultiresRow {
            level,
            nodes: tree.cut_at_level(level).len(),
            prefix_bytes: order.prefix_bytes(level),
            l2_error: tree.l2_error_at_level(&geo, &speed, level),
        });
    }

    // ROI around the aneurysm sac (upper part of the domain).
    let shape = geo.shape();
    let roi = Roi {
        lo: [shape[0] as u32 / 3, 0, shape[2] as u32 / 2],
        hi: [2 * shape[0] as u32 / 3, shape[1] as u32, shape[2] as u32],
    };
    let mixed = RoiCut::build(&tree, roi, 2.min(tree.depth()), tree.depth());
    let fine = tree.cut_at_level(tree.depth());

    // Inside the ROI the mixed cut uses unit-cell leaves: verify by
    // checking all mixed nodes strictly inside the ROI are sites.
    let roi_interior_exact = mixed
        .nodes
        .iter()
        .filter(|n| (0..3).all(|a| n.origin[a] >= roi.lo[a] && n.origin[a] + n.size <= roi.hi[a]))
        .all(|n| n.size == 1);

    MultiresResult {
        sites: geo.fluid_count(),
        full_bytes: geo.fluid_count() * 8,
        rows,
        roi_nodes: mixed.nodes.len(),
        fine_nodes: fine.len(),
        roi_interior_exact,
    }
}

impl fmt::Display for MultiresResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Multi-resolution octree over the aneurysm speed field ({} sites, full field {})",
            self.sites,
            workloads::fmt_bytes(self.full_bytes as u64)
        )?;
        writeln!(
            f,
            "{:>6} {:>10} {:>14} {:>12} {:>12}",
            "level", "nodes", "stream bytes", "reduction", "L2 error"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>10} {:>14} {:>11.1}x {:>12.4}",
                r.level,
                r.nodes,
                workloads::fmt_bytes(r.prefix_bytes as u64),
                self.full_bytes as f64 / r.prefix_bytes.max(1) as f64,
                r.l2_error,
            )?;
        }
        writeln!(
            f,
            "context+detail ROI cut: {} nodes vs {} uniform fine nodes ({:.1}x cheaper), interior exact: {}",
            self.roi_nodes,
            self.fine_nodes,
            self.fine_nodes as f64 / self.roi_nodes as f64,
            self.roi_interior_exact,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multires_reduction_and_error_tradeoff() {
        let result = run(Size::Tiny);
        // Error decreases with level; bytes increase.
        for w in result.rows.windows(2) {
            assert!(w[1].l2_error <= w[0].l2_error + 1e-12);
            assert!(w[1].prefix_bytes >= w[0].prefix_bytes);
        }
        // Deepest level is exact.
        assert!(result.rows.last().unwrap().l2_error < 1e-12);
        // Coarse levels really reduce data.
        let level2 = &result.rows[2.min(result.rows.len() - 1)];
        assert!(level2.prefix_bytes < result.full_bytes);
        // ROI cut is cheaper than the uniform fine cut and exact inside.
        assert!(result.roi_nodes < result.fine_nodes);
        assert!(result.roi_interior_exact);
    }
}

//! Region-of-interest (context & detail) cuts.
//!
//! Paper §V: "the user can define a region to be post-processed. Then,
//! analysis and visualisation can be carried out on a refinable area" —
//! coarse *context* everywhere, fine *detail* inside the user's box.

use crate::tree::{FieldOctree, OctreeNode, NONE};

/// An axis-aligned region of interest in lattice cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roi {
    /// Minimum corner (inclusive).
    pub lo: [u32; 3],
    /// Maximum corner (exclusive).
    pub hi: [u32; 3],
}

impl Roi {
    /// Whether a node's cube intersects the ROI.
    pub fn intersects(&self, node: &OctreeNode) -> bool {
        (0..3).all(|a| node.origin[a] < self.hi[a] && node.origin[a] + node.size > self.lo[a])
    }
}

/// A mixed-resolution cut: `context_level` outside the ROI,
/// `detail_level` inside.
#[derive(Debug)]
pub struct RoiCut<'a> {
    /// Nodes forming the cut.
    pub nodes: Vec<&'a OctreeNode>,
    /// How many of them came from ROI refinement.
    pub detail_nodes: usize,
}

impl<'a> RoiCut<'a> {
    /// Build the context-and-detail cut.
    ///
    /// # Panics
    /// Panics if `detail_level < context_level`.
    pub fn build(
        tree: &'a FieldOctree,
        roi: Roi,
        context_level: u8,
        detail_level: u8,
    ) -> RoiCut<'a> {
        assert!(
            detail_level >= context_level,
            "detail must be at least as deep as context"
        );
        let mut nodes = Vec::new();
        let mut detail_nodes = 0usize;
        descend(
            tree,
            tree.root(),
            &roi,
            context_level,
            detail_level,
            &mut nodes,
            &mut detail_nodes,
        );
        RoiCut {
            nodes,
            detail_nodes,
        }
    }

    /// Transport size of this cut (48 B per node, as elsewhere).
    pub fn bytes(&self) -> usize {
        self.nodes.len() * 48
    }
}

fn descend<'a>(
    tree: &'a FieldOctree,
    idx: u32,
    roi: &Roi,
    context_level: u8,
    detail_level: u8,
    out: &mut Vec<&'a OctreeNode>,
    detail_nodes: &mut usize,
) {
    let node = &tree.nodes()[idx as usize];
    let in_roi = roi.intersects(node);
    let target = if in_roi { detail_level } else { context_level };
    if node.level >= target || node.children.iter().all(|&c| c == NONE) {
        out.push(node);
        if in_roi && node.level > context_level {
            *detail_nodes += 1;
        }
        return;
    }
    for &c in &node.children {
        if c != NONE {
            descend(tree, c, roi, context_level, detail_level, out, detail_nodes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FieldOctree;
    use hemelb_geometry::VesselBuilder;

    impl RoiCut<'_> {
        /// Fluid sites covered by the cut (must equal the domain size).
        fn site_coverage(&self) -> u64 {
            self.nodes.iter().map(|n| n.agg.count as u64).sum()
        }
    }

    fn setup() -> (hemelb_geometry::SparseGeometry, FieldOctree) {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let field: Vec<f64> = (0..geo.fluid_count()).map(|i| (i % 17) as f64).collect();
        let t = FieldOctree::build(&geo, &field);
        (geo, t)
    }

    #[test]
    fn roi_cut_covers_every_site_exactly_once() {
        let (geo, t) = setup();
        let shape = geo.shape();
        let roi = Roi {
            lo: [shape[0] as u32 / 3, 0, 0],
            hi: [2 * shape[0] as u32 / 3, shape[1] as u32, shape[2] as u32],
        };
        for (ctx, det) in [(1u8, 3u8), (2, 4), (0, 2)] {
            let cut = RoiCut::build(&t, roi, ctx, det.min(t.depth()));
            assert_eq!(cut.site_coverage(), geo.fluid_count() as u64, "ctx={ctx}");
        }
    }

    #[test]
    fn roi_refinement_adds_nodes_only_inside() {
        let (geo, t) = setup();
        let shape = geo.shape();
        let roi = Roi {
            lo: [0, 0, 0],
            hi: [shape[0] as u32 / 4, shape[1] as u32, shape[2] as u32],
        };
        let ctx_only = RoiCut::build(&t, roi, 2, 2);
        let with_detail = RoiCut::build(&t, roi, 2, t.depth());
        assert!(with_detail.nodes.len() > ctx_only.nodes.len());
        assert!(with_detail.detail_nodes > 0);
        // Refinement is localised: any deep node sits inside the ROI or
        // in the fringe of straddling ancestors — within its parent's
        // extent (2 × its own size) of the ROI box.
        for n in &with_detail.nodes {
            if n.level > 2 {
                let fringe = 2 * n.size;
                let expanded = Roi {
                    lo: [
                        roi.lo[0].saturating_sub(fringe),
                        roi.lo[1].saturating_sub(fringe),
                        roi.lo[2].saturating_sub(fringe),
                    ],
                    hi: [roi.hi[0] + fringe, roi.hi[1] + fringe, roi.hi[2] + fringe],
                };
                assert!(
                    expanded.intersects(n),
                    "deep node far outside ROI at {:?} size {}",
                    n.origin,
                    n.size
                );
            }
        }
    }

    #[test]
    fn roi_cut_is_cheaper_than_uniform_fine_cut() {
        let (geo, t) = setup();
        let shape = geo.shape();
        let small_roi = Roi {
            lo: [0, 0, 0],
            hi: [
                8.min(shape[0] as u32),
                8.min(shape[1] as u32),
                8.min(shape[2] as u32),
            ],
        };
        let mixed = RoiCut::build(&t, small_roi, 1, t.depth());
        let uniform = t.cut_at_level(t.depth());
        assert!(
            mixed.bytes() < uniform.len() * 48 / 2,
            "context+detail must be much cheaper: {} vs {}",
            mixed.bytes(),
            uniform.len() * 48
        );
    }

    #[test]
    fn degenerate_roi_gives_pure_context() {
        let (geo, t) = setup();
        let roi = Roi {
            lo: [0, 0, 0],
            hi: [0, 0, 0],
        };
        let cut = RoiCut::build(&t, roi, 2, t.depth());
        let plain = t.cut_at_level(2);
        assert_eq!(cut.nodes.len(), plain.len());
        assert_eq!(cut.detail_nodes, 0);
        assert_eq!(cut.site_coverage(), geo.fluid_count() as u64);
    }

    #[test]
    #[should_panic(expected = "detail")]
    fn inverted_levels_rejected() {
        let (_, t) = setup();
        let roi = Roi {
            lo: [0, 0, 0],
            hi: [4, 4, 4],
        };
        RoiCut::build(&t, roi, 3, 1);
    }
}

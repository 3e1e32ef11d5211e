//! Progressive, hierarchically indexed streaming of octree cuts.
//!
//! Pascucci & Frank's observation (paper reference \[10\]): if the nodes
//! are emitted level by level, Morton-ordered within each level, then
//! *every prefix* of the stream contains a complete (if coarse)
//! representation, and refinement arrives in a cache/IO-friendly order.
//! This is the transport format the in situ layer uses to ship context
//! first and detail later.

use crate::tree::FieldOctree;

/// One streamed node record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEntry {
    /// Index into [`FieldOctree::nodes`].
    pub node: u32,
    /// Depth of the node.
    pub level: u8,
    /// Morton code of the node's origin at its level (the hierarchical
    /// index).
    pub morton: u64,
}

/// The full streaming order of a tree.
#[derive(Debug, Clone)]
pub struct StreamOrder {
    entries: Vec<StreamEntry>,
    /// First entry index of each level (for prefix arithmetic).
    level_starts: Vec<usize>,
}

/// Interleave bits for the hierarchical index (duplicated from the
/// partitioner to keep the crates independent): bit `b` of `x, y, z`
/// goes to bit `3b, 3b + 1, 3b + 2`.
pub(crate) fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut x = v as u64 & 0x1f_ffff;
        x = (x | x << 32) & 0x1f00000000ffff;
        x = (x | x << 16) & 0x1f0000ff0000ff;
        x = (x | x << 8) & 0x100f00f00f00f00f;
        x = (x | x << 4) & 0x10c30c30c30c30c3;
        x = (x | x << 2) & 0x1249249249249249;
        x
    }
    spread(x) | spread(y) << 1 | spread(z) << 2
}

impl StreamOrder {
    /// Linearise the tree: breadth-first by level, Morton within level.
    pub fn build(tree: &FieldOctree) -> Self {
        let mut entries: Vec<StreamEntry> = tree
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| StreamEntry {
                node: i as u32,
                level: n.level,
                morton: morton3(
                    n.origin[0] / n.size.max(1),
                    n.origin[1] / n.size.max(1),
                    n.origin[2] / n.size.max(1),
                ),
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.level, e.morton));
        let max_level = entries.last().map(|e| e.level).unwrap_or(0);
        let mut level_starts = Vec::with_capacity(max_level as usize + 2);
        let mut cur = 0usize;
        for l in 0..=max_level {
            while cur < entries.len() && entries[cur].level < l {
                cur += 1;
            }
            level_starts.push(cur);
        }
        level_starts.push(entries.len());
        StreamOrder {
            entries,
            level_starts,
        }
    }

    /// All entries in stream order.
    pub fn entries(&self) -> &[StreamEntry] {
        &self.entries
    }

    /// The stream prefix that delivers every node of level ≤ `level`.
    pub fn prefix_for_level(&self, level: u8) -> &[StreamEntry] {
        let end = self
            .level_starts
            .get(level as usize + 1)
            .copied()
            .unwrap_or(self.entries.len());
        &self.entries[..end]
    }

    /// Bytes to transmit the prefix for `level` (48 B per node record:
    /// origin, size and aggregate).
    pub fn prefix_bytes(&self, level: u8) -> usize {
        self.prefix_for_level(level).len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FieldOctree;
    use hemelb_geometry::VesselBuilder;

    fn tree() -> (hemelb_geometry::SparseGeometry, FieldOctree) {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let field: Vec<f64> = (0..geo.fluid_count()).map(|i| i as f64).collect();
        let t = FieldOctree::build(&geo, &field);
        (geo, t)
    }

    #[test]
    fn stream_is_sorted_by_level_then_morton() {
        let (_, t) = tree();
        let order = StreamOrder::build(&t);
        for w in order.entries().windows(2) {
            assert!(
                (w[0].level, w[0].morton) <= (w[1].level, w[1].morton),
                "stream must be level-major Morton order"
            );
        }
        assert_eq!(order.entries().len(), t.nodes().len());
    }

    #[test]
    fn every_prefix_is_a_complete_coarse_view() {
        let (geo, t) = tree();
        let order = StreamOrder::build(&t);
        for level in 0..=t.depth() {
            // The nodes of the prefix at `level` plus its shallower
            // leaves tile every fluid site.
            let covered: u64 = order
                .prefix_for_level(level)
                .iter()
                .map(|e| &t.nodes()[e.node as usize])
                .filter(|n| n.level == level || (n.level < level && n.is_leaf()))
                .map(|n| n.agg.count as u64)
                .sum();
            assert_eq!(
                covered,
                geo.fluid_count() as u64,
                "level-{level} prefix must tile all sites"
            );
        }
    }

    #[test]
    fn prefixes_nest() {
        let (_, t) = tree();
        let order = StreamOrder::build(&t);
        let mut last = 0usize;
        for level in 0..=t.depth() {
            let len = order.prefix_for_level(level).len();
            assert!(len >= last);
            last = len;
        }
        assert_eq!(last, t.nodes().len(), "deepest prefix is everything");
    }

    #[test]
    fn prefix_bytes_grow_geometrically() {
        let (_, t) = tree();
        let order = StreamOrder::build(&t);
        let coarse = order.prefix_bytes(1);
        let fine = order.prefix_bytes(t.depth());
        assert!(fine > coarse * 4, "coarse={coarse} fine={fine}");
    }
}

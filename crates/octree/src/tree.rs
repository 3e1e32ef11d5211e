//! The field octree: construction, aggregates and level cuts.

use crate::stream::morton3;
use hemelb_geometry::SparseGeometry;

/// Conservative aggregates a node carries about the field beneath it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregates {
    /// Fluid sites beneath this node.
    pub count: u32,
    /// Count-weighted mean of the field.
    pub mean: f64,
    /// Minimum of the field (for transfer-function / ROI culling).
    pub min: f64,
    /// Maximum of the field.
    pub max: f64,
}

impl Aggregates {
    fn from_site(v: f64) -> Self {
        Aggregates {
            count: 1,
            mean: v,
            min: v,
            max: v,
        }
    }

    fn merge(children: impl Iterator<Item = Aggregates>) -> Self {
        let mut count = 0u32;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for a in children {
            count += a.count;
            sum += a.mean * a.count as f64;
            min = min.min(a.min);
            max = max.max(a.max);
        }
        Aggregates {
            count,
            mean: if count > 0 { sum / count as f64 } else { 0.0 },
            min,
            max,
        }
    }
}

/// One octree node over a cubic region `[origin, origin + size)³`.
#[derive(Debug, Clone)]
pub struct OctreeNode {
    /// Minimum corner in lattice cells.
    pub origin: [u32; 3],
    /// Edge length in cells (power of two).
    pub size: u32,
    /// Depth below the root (root = 0).
    pub level: u8,
    /// Field aggregates beneath this node.
    pub agg: Aggregates,
    /// Child node indices (8 octants; `u32::MAX` = absent/empty).
    pub children: [u32; 8],
    /// For size-1 leaves: the fluid-site id, else `u32::MAX`.
    pub site: u32,
}

/// Sentinel for absent children / sites.
pub const NONE: u32 = u32::MAX;

impl OctreeNode {
    /// Whether this node has no children (either a unit cell or an
    /// unrefined region).
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == NONE)
    }
}

/// An octree over the fluid sites of a sparse geometry, aggregating one
/// scalar field (callers build one per field, or re-aggregate in place
/// with [`FieldOctree::refresh`] as the simulation advances).
#[derive(Debug, Clone)]
pub struct FieldOctree {
    nodes: Vec<OctreeNode>,
    root: u32,
    depth: u8,
}

impl FieldOctree {
    /// Build from a geometry and a per-site scalar field.
    ///
    /// # Panics
    /// Panics if `field.len() != geo.fluid_count()` or the geometry is
    /// empty.
    pub fn build(geo: &SparseGeometry, field: &[f64]) -> Self {
        assert_eq!(field.len(), geo.fluid_count(), "field must cover all sites");
        assert!(geo.fluid_count() > 0, "cannot build over an empty geometry");
        let max_extent = geo.shape().into_iter().max().expect("3 axes");
        let root_size = max_extent.next_power_of_two() as u32;

        // Keys with x's bit above y's above z's at every level: a node's
        // three key bits are its octant `ox << 2 | oy << 1 | oz`, so the
        // sorted keys list its sites contiguously, its children in order.
        let mut keyed: Vec<(u64, u32)> = geo
            .positions()
            .iter()
            .zip(0u32..)
            .map(|(&[x, y, z], site)| (morton3(z, y, x), site))
            .collect();
        let bits = root_size.trailing_zeros() as usize;
        radix_sort(&mut keyed, 3 * bits);
        // A node per distinct key prefix at each level: all `bits + 1` for
        // the first key, for each later one those below where it parts.
        let below = |w: &[(u64, u32)]| (63 - (w[0].0 ^ w[1].0).leading_zeros()) as usize / 3 + 1;
        let count = bits + 1 + keyed.windows(2).map(below).sum::<usize>();
        let mut nodes = Vec::with_capacity(count);
        let root = build_range(field, &mut nodes, [0, 0, 0], root_size, 0, &keyed);
        debug_assert_eq!(nodes.len(), count);
        let depth = nodes.iter().map(|n| n.level).max().unwrap_or(0);
        FieldOctree { nodes, root, depth }
    }

    /// All nodes (parents appear after children; the root is last of its
    /// subtree but indexable via [`FieldOctree::root`]).
    pub fn nodes(&self) -> &[OctreeNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Deepest level present (unit cells sit at this level for cubic
    /// power-of-two domains).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Recompute all aggregates for a new field without rebuilding the
    /// structure (the per-step in situ path: topology is static, data
    /// is not).
    pub fn refresh(&mut self, geo: &SparseGeometry, field: &[f64]) {
        assert_eq!(field.len(), geo.fluid_count());
        // Children precede parents in `nodes` (post-order construction),
        // so one forward sweep refreshes bottom-up.
        for idx in 0..self.nodes.len() {
            let node = &self.nodes[idx];
            if node.site != NONE {
                self.nodes[idx].agg = Aggregates::from_site(field[node.site as usize]);
            } else {
                let agg = Aggregates::merge(
                    self.nodes[idx]
                        .children
                        .iter()
                        .filter(|&&c| c != NONE)
                        .map(|&c| self.nodes[c as usize].agg),
                );
                self.nodes[idx].agg = agg;
            }
        }
    }

    /// The *cut* at `level`: every node that is either at `level` or a
    /// shallower leaf — together they tile all fluid sites exactly once.
    pub fn cut_at_level(&self, level: u8) -> Vec<&OctreeNode> {
        let mut out = Vec::new();
        self.collect_cut(self.root, level, &mut out);
        out
    }

    fn collect_cut<'a>(&'a self, idx: u32, level: u8, out: &mut Vec<&'a OctreeNode>) {
        let node = &self.nodes[idx as usize];
        if node.level >= level || node.is_leaf() {
            out.push(node);
            return;
        }
        for &c in &node.children {
            if c != NONE {
                self.collect_cut(c, level, out);
            }
        }
    }

    /// Per-site reconstruction of the field from the level-`level` cut:
    /// every site gets its covering node's mean. The L2 distance to the
    /// exact field is the information lost at that resolution
    /// (experiment E9).
    pub(crate) fn reconstruct_at_level(&self, geo: &SparseGeometry, level: u8) -> Vec<f64> {
        let mut out = vec![0.0; geo.fluid_count()];
        for node in self.cut_at_level(level) {
            fill_node(self, node, &mut out);
        }
        out
    }

    /// Relative L2 error of the level-`level` reconstruction of `field`.
    pub fn l2_error_at_level(&self, geo: &SparseGeometry, field: &[f64], level: u8) -> f64 {
        let approx = self.reconstruct_at_level(geo, level);
        let num: f64 = approx
            .iter()
            .zip(field)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f64 = field.iter().map(|b| b * b).sum();
        if den == 0.0 {
            0.0
        } else {
            (num / den).sqrt()
        }
    }
}

/// Write a node's mean into every fluid site beneath it.
fn fill_node(tree: &FieldOctree, node: &OctreeNode, out: &mut [f64]) {
    if node.site != NONE {
        out[node.site as usize] = node.agg.mean;
        return;
    }
    if node.is_leaf() {
        return; // empty region (no fluid)
    }
    // Propagate the *cut node's* mean to descendants' sites.
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        if n.site != NONE {
            out[n.site as usize] = node.agg.mean;
            continue;
        }
        for &c in &n.children {
            if c != NONE {
                stack.push(&tree.nodes[c as usize]);
            }
        }
    }
}

/// Sort keyed sites by their keys' low `key_bits` bits (the rest are
/// zero), least significant digit first.
fn radix_sort(keyed: &mut Vec<(u64, u32)>, key_bits: usize) {
    const DIGIT: usize = 11;
    let mut spare = vec![(0, 0); keyed.len()];
    for shift in (0..key_bits).step_by(DIGIT) {
        let digit = |key: u64| (key >> shift) as usize & ((1 << DIGIT) - 1);
        let mut next = [0usize; 1 << DIGIT];
        keyed.iter().for_each(|&(key, _)| next[digit(key)] += 1);
        let mut sum = 0;
        next.iter_mut()
            .for_each(|slot| (*slot, sum) = (sum, sum + *slot));
        for &entry in keyed.iter() {
            spare[next[digit(entry.0)]] = entry;
            next[digit(entry.0)] += 1;
        }
        std::mem::swap(keyed, &mut spare);
    }
}

/// Post-order construction over a non-empty run of sorted keyed sites
/// inside the cube at `origin`; returns the node index.
fn build_range(
    field: &[f64],
    nodes: &mut Vec<OctreeNode>,
    origin: [u32; 3],
    size: u32,
    level: u8,
    keyed: &[(u64, u32)],
) -> u32 {
    if size == 1 {
        debug_assert_eq!(keyed.len(), 1, "one site per unit cell");
        let site = keyed[0].1;
        nodes.push(OctreeNode {
            origin,
            size,
            level,
            agg: Aggregates::from_site(field[site as usize]),
            children: [NONE; 8],
            site,
        });
        return nodes.len() as u32 - 1;
    }
    let half = size / 2;
    let shift = 3 * half.trailing_zeros();
    let mut children = [NONE; 8];
    let mut rest = keyed;
    for (o, child) in children.iter_mut().enumerate() {
        let n = rest.partition_point(|&(key, _)| (key >> shift) & 7 <= o as u64);
        let (run, tail) = rest.split_at(n);
        rest = tail;
        if !run.is_empty() {
            let co = [0, 1, 2].map(|a| origin[a] + half * (o as u32 >> (2 - a) & 1));
            *child = build_range(field, nodes, co, half, level + 1, run);
        }
    }
    let agg = Aggregates::merge(
        children
            .iter()
            .filter(|&&c| c != NONE)
            .map(|&c| nodes[c as usize].agg),
    );
    nodes.push(OctreeNode {
        origin,
        size,
        level,
        agg,
        children,
        site: NONE,
    });
    nodes.len() as u32 - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;
    use proptest::prelude::*;

    /// The oracle: the nodes and root of a post-order recursion that
    /// buckets each internal node's sites into its eight octants.
    fn bucket_nodes(geo: &SparseGeometry, field: &[f64]) -> (Vec<OctreeNode>, u32) {
        let root_size = geo.shape().iter().max().unwrap().next_power_of_two() as u32;
        let sites: Vec<u32> = (0..geo.fluid_count() as u32).collect();
        let mut nodes = Vec::new();
        let root = bucket_node(geo, field, &mut nodes, [0, 0, 0], root_size, 0, &sites);
        (nodes, root.unwrap())
    }

    fn bucket_node(
        geo: &SparseGeometry,
        field: &[f64],
        nodes: &mut Vec<OctreeNode>,
        origin: [u32; 3],
        size: u32,
        level: u8,
        sites: &[u32],
    ) -> Option<u32> {
        if sites.is_empty() {
            return None;
        }
        if size == 1 {
            let site = sites[0];
            assert_eq!(sites.len(), 1, "one site per unit cell");
            nodes.push(OctreeNode {
                origin,
                size,
                level,
                agg: Aggregates::from_site(field[site as usize]),
                children: [NONE; 8],
                site,
            });
            return Some(nodes.len() as u32 - 1);
        }
        let half = size / 2;
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for &s in sites {
            let p = geo.position(s);
            let ox = (p[0] >= origin[0] + half) as usize;
            let oy = (p[1] >= origin[1] + half) as usize;
            let oz = (p[2] >= origin[2] + half) as usize;
            buckets[ox << 2 | oy << 1 | oz].push(s);
        }
        let mut children = [NONE; 8];
        for (o, bucket) in buckets.iter().enumerate() {
            let co = [
                origin[0] + if o & 4 != 0 { half } else { 0 },
                origin[1] + if o & 2 != 0 { half } else { 0 },
                origin[2] + if o & 1 != 0 { half } else { 0 },
            ];
            if let Some(c) = bucket_node(geo, field, nodes, co, half, level + 1, bucket) {
                children[o] = c;
            }
        }
        let agg = Aggregates::merge(
            children
                .iter()
                .filter(|&&c| c != NONE)
                .map(|&c| nodes[c as usize].agg),
        );
        nodes.push(OctreeNode {
            origin,
            size,
            level,
            agg,
            children,
            site: NONE,
        });
        Some(nodes.len() as u32 - 1)
    }

    /// A node's every field, the aggregates' floats by their bits.
    fn node_bits(n: &OctreeNode) -> impl PartialEq + std::fmt::Debug {
        let a = n.agg;
        let agg = (a.count, a.mean.to_bits(), a.min.to_bits(), a.max.to_bits());
        (n.origin, n.size, n.level, agg, n.children, n.site)
    }

    fn scene(i: usize) -> VesselBuilder {
        match i {
            0 => VesselBuilder::straight_tube(12.0, 3.0),
            1 => VesselBuilder::aneurysm(16.0, 3.0, 4.0),
            2 => VesselBuilder::bifurcation(8.0, 8.0, 3.0, 0.5),
            3 => VesselBuilder::bend(8.0, 2.5),
            _ => VesselBuilder::arterial_tree(2, 8.0, 3.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The build from one Morton sort gives the bucket recursion's
        /// nodes in its order, every field equal to the bit.
        #[test]
        fn morton_build_matches_the_bucket_recursion(
            scene_id in 0usize..5,
            dx_id in 0usize..3,
            seed in any::<u64>(),
        ) {
            let geo = scene(scene_id).voxelise([1.0, 0.7, 0.5][dx_id]);
            let field: Vec<f64> = (0..geo.fluid_count() as u64)
                .map(|i| {
                    let x = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect();
            let tree = FieldOctree::build(&geo, &field);
            let (nodes, root) = bucket_nodes(&geo, &field);
            prop_assert_eq!(tree.root(), root);
            prop_assert_eq!(tree.nodes().len(), nodes.len());
            for (a, b) in tree.nodes().iter().zip(&nodes) {
                prop_assert_eq!(node_bits(a), node_bits(b));
            }
        }
    }

    fn setup() -> (SparseGeometry, Vec<f64>) {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let field: Vec<f64> = (0..geo.fluid_count())
            .map(|i| {
                let p = geo.position(i as u32);
                (p[0] as f64 * 0.1).sin() + p[2] as f64 * 0.01
            })
            .collect();
        (geo, field)
    }

    #[test]
    fn root_aggregates_cover_everything() {
        let (geo, field) = setup();
        let tree = FieldOctree::build(&geo, &field);
        let root = &tree.nodes()[tree.root() as usize];
        assert_eq!(root.agg.count as usize, geo.fluid_count());
        let mean: f64 = field.iter().sum::<f64>() / field.len() as f64;
        assert!((root.agg.mean - mean).abs() < 1e-9);
        let min = field.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((root.agg.min - min).abs() < 1e-12);
        assert!((root.agg.max - max).abs() < 1e-12);
    }

    #[test]
    fn every_cut_tiles_all_sites() {
        let (geo, field) = setup();
        let tree = FieldOctree::build(&geo, &field);
        for level in 0..=tree.depth() {
            let cut = tree.cut_at_level(level);
            let total: u64 = cut.iter().map(|n| n.agg.count as u64).sum();
            assert_eq!(total, geo.fluid_count() as u64, "level {level}");
        }
    }

    #[test]
    fn cuts_grow_with_level_and_error_shrinks() {
        let (geo, field) = setup();
        let tree = FieldOctree::build(&geo, &field);
        let mut last_size = 0usize;
        let mut last_err = f64::INFINITY;
        for level in 0..=tree.depth() {
            let size = tree.cut_at_level(level).len();
            assert!(size >= last_size, "cut must not shrink with level");
            last_size = size;
            let err = tree.l2_error_at_level(&geo, &field, level);
            assert!(
                err <= last_err + 1e-12,
                "error must not grow with level: {last_err} -> {err}"
            );
            last_err = err;
        }
        // The deepest level reproduces the field exactly.
        assert!(last_err < 1e-12);
    }

    #[test]
    fn deepest_reconstruction_is_exact() {
        let (geo, field) = setup();
        let tree = FieldOctree::build(&geo, &field);
        let rec = tree.reconstruct_at_level(&geo, tree.depth());
        for (a, b) in rec.iter().zip(&field) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn refresh_matches_rebuild() {
        let (geo, field) = setup();
        let mut tree = FieldOctree::build(&geo, &field);
        let field2: Vec<f64> = field.iter().map(|v| v * 2.0 + 1.0).collect();
        tree.refresh(&geo, &field2);
        let rebuilt = FieldOctree::build(&geo, &field2);
        let a = &tree.nodes()[tree.root() as usize].agg;
        let b = &rebuilt.nodes()[rebuilt.root() as usize].agg;
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.min - b.min).abs() < 1e-12);
        assert!((a.max - b.max).abs() < 1e-12);
    }

    #[test]
    fn data_reduction_is_geometric() {
        let (geo, field) = setup();
        let tree = FieldOctree::build(&geo, &field);
        // One f64 a site against a node record of 3×u32 origin + u32
        // size + 4×f64-ish aggregate ≈ 48 B.
        let full = geo.fluid_count() * 8;
        let coarse = tree.cut_at_level(2).len() * 48;
        assert!(
            coarse < full / 4,
            "level-2 cut must be much smaller: {coarse} vs {full}"
        );
    }

    #[test]
    #[should_panic(expected = "field must cover")]
    fn mismatched_field_rejected() {
        let (geo, _) = setup();
        FieldOctree::build(&geo, &[1.0, 2.0]);
    }
}

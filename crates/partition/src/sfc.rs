//! The Hilbert space-filling-curve partitioner.
//!
//! Order the sites along the curve, then cut the ordering into k
//! weight-balanced contiguous chunks. Cheap, decent locality, and the
//! same family of orderings the multi-resolution layer uses for
//! streaming (Pascucci-style hierarchical indexing, paper §V).

use crate::graph::SiteGraph;
use crate::Partitioner;

/// Hilbert-curve index of a 3-D point with `bits` bits per axis
/// (Skilling's transform).
pub(crate) fn hilbert3(p: [u32; 3], bits: u32) -> u128 {
    let n = 3usize;
    let mut x = [p[0], p[1], p[2]];
    let m = 1u32 << (bits - 1);

    // Inverse undo excess work (Skilling's AxestoTranspose).
    let mut q = m;
    while q > 1 {
        let pmask = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= pmask; // invert
            } else {
                let t = (x[0] ^ x[i]) & pmask;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }

    // Interleave the transposed coordinates, most significant bit first.
    let mut h: u128 = 0;
    for b in (0..bits).rev() {
        for xi in x.iter() {
            h = (h << 1) | ((xi >> b) & 1) as u128;
        }
    }
    h
}

/// Cut an ordering of all vertices into `k` contiguous chunks balanced by
/// primary vertex weight; returns the owner map.
pub(crate) fn split_ordering_by_weight(order: &[u32], graph: &SiteGraph, k: usize) -> Vec<usize> {
    assert!(k > 0);
    assert_eq!(order.len(), graph.len());
    let total = graph.total_weight();
    let target = total / k as f64;
    let mut owner = vec![0usize; graph.len()];
    let mut current = 0usize;
    let mut acc = 0.0f64;
    for &v in order {
        owner[v as usize] = current;
        acc += graph.vwgt[v as usize];
        if current + 1 < k && acc >= target * (current as f64 + 1.0) {
            current += 1;
        }
    }
    owner
}

/// Hilbert curve partitioner (consecutive curve positions are always
/// lattice neighbours).
#[derive(Debug, Default, Clone, Copy)]
pub struct HilbertSfc;

impl Partitioner for HilbertSfc {
    fn partition(&self, graph: &SiteGraph, k: usize) -> Vec<usize> {
        // Bits needed to cover the coordinate range.
        let max_c = graph
            .coords
            .iter()
            .flat_map(|c| c.iter())
            .cloned()
            .fold(0.0, f64::max) as u32;
        let bits = (32 - max_c.leading_zeros()).max(1);
        let mut order: Vec<u32> = (0..graph.len() as u32).collect();
        order.sort_unstable_by_key(|&v| {
            let c = graph.coords[v as usize];
            hilbert3([c[0] as u32, c[1] as u32, c[2] as u32], bits)
        });
        split_ordering_by_weight(&order, graph, k)
    }
    fn name(&self) -> &'static str {
        "hilbert"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Connectivity;
    use crate::metrics::quality;
    use hemelb_geometry::VesselBuilder;

    #[test]
    fn hilbert_is_a_bijection_on_a_small_cube() {
        let bits = 3;
        let mut seen = std::collections::HashSet::new();
        for x in 0..8u32 {
            for y in 0..8 {
                for z in 0..8 {
                    assert!(seen.insert(hilbert3([x, y, z], bits)));
                }
            }
        }
        assert_eq!(seen.len(), 512);
        // Indices cover exactly 0..512.
        assert_eq!(*seen.iter().max().unwrap(), 511);
        assert_eq!(*seen.iter().min().unwrap(), 0);
    }

    #[test]
    fn hilbert_consecutive_indices_are_lattice_neighbours() {
        // The defining property: the curve moves one step at a time.
        let bits = 3;
        let mut by_index = vec![[0u32; 3]; 512];
        for x in 0..8u32 {
            for y in 0..8 {
                for z in 0..8 {
                    by_index[hilbert3([x, y, z], bits) as usize] = [x, y, z];
                }
            }
        }
        for w in by_index.windows(2) {
            let d: u32 = (0..3).map(|a| w[0][a].abs_diff(w[1][a])).sum();
            assert_eq!(d, 1, "{:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn weight_balanced_split_is_balanced() {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let g = crate::SiteGraph::from_geometry(&geo, Connectivity::Six);
        let q = quality(&g, &HilbertSfc.partition(&g, 6), 6);
        assert!(q.imbalance < 1.05, "imbalance {}", q.imbalance);
    }
}

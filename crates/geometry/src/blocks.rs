//! The two-level block decomposition of the sparse lattice.
//!
//! HemeLB's geometry format groups sites into cubic *blocks* (8³ by
//! default). Level one of the format records only the fluid-site count of
//! each block — enough for an initial approximate load balance before any
//! site data is read (§IV-B of the paper). Level two holds the per-site
//! records, block by block. [`BlockDecomposition`] provides the block
//! indexing shared by the file format, the distributed reader and the
//! partitioners.

use crate::lattice::SparseGeometry;

/// Cubic-block overlay on a sparse geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecomposition {
    /// Block edge length in lattice cells.
    pub block_size: usize,
    /// Blocks per axis.
    pub blocks: [usize; 3],
    /// Fluid sites in each block, x-major block order (level one of the
    /// two-level format).
    pub fluid_per_block: Vec<u32>,
}

impl BlockDecomposition {
    /// Overlay `block_size`-cubed blocks on the geometry and count fluid
    /// sites per block.
    pub fn build(geo: &SparseGeometry, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let shape = geo.shape();
        let blocks = [
            shape[0].div_ceil(block_size),
            shape[1].div_ceil(block_size),
            shape[2].div_ceil(block_size),
        ];
        let mut fluid_per_block = vec![0u32; blocks[0] * blocks[1] * blocks[2]];
        for p in geo.positions() {
            let b = Self::block_of_impl(blocks, block_size, *p);
            fluid_per_block[b] += 1;
        }
        BlockDecomposition {
            block_size,
            blocks,
            fluid_per_block,
        }
    }

    /// Number of blocks in the overlay (including empty ones).
    pub fn block_count(&self) -> usize {
        self.fluid_per_block.len()
    }

    /// Number of blocks containing at least one fluid site.
    pub fn nonempty_block_count(&self) -> usize {
        self.fluid_per_block.iter().filter(|&&c| c > 0).count()
    }

    fn block_of_impl(blocks: [usize; 3], block_size: usize, p: [u32; 3]) -> usize {
        let bx = p[0] as usize / block_size;
        let by = p[1] as usize / block_size;
        let bz = p[2] as usize / block_size;
        (bx * blocks[1] + by) * blocks[2] + bz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vessels::VesselBuilder;

    impl BlockDecomposition {
        /// Flat block index of the block containing lattice cell `p`.
        pub(crate) fn block_of(&self, p: [u32; 3]) -> usize {
            Self::block_of_impl(self.blocks, self.block_size, p)
        }
    }

    fn demo_geo() -> SparseGeometry {
        VesselBuilder::aneurysm(32.0, 5.0, 7.0).voxelise(1.0)
    }

    #[test]
    fn block_counts_sum_to_fluid_count() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 8);
        let total: u64 = dec.fluid_per_block.iter().map(|&c| c as u64).sum();
        assert_eq!(total, geo.fluid_count() as u64);
        assert!(dec.nonempty_block_count() <= dec.block_count());
        assert!(dec.nonempty_block_count() > 0);
    }

    #[test]
    fn block_of_round_trips_coords() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 8);
        for (i, p) in geo.positions().iter().enumerate().step_by(97) {
            let b = dec.block_of(*p);
            let bz = b % dec.blocks[2];
            let by = (b / dec.blocks[2]) % dec.blocks[1];
            let bx = b / (dec.blocks[2] * dec.blocks[1]);
            assert_eq!(bx, p[0] as usize / 8, "site {i}");
            assert_eq!(by, p[1] as usize / 8);
            assert_eq!(bz, p[2] as usize / 8);
        }
    }

    #[test]
    fn block_size_one_degenerates_to_cells() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 1);
        assert_eq!(dec.blocks, geo.shape());
        assert_eq!(dec.nonempty_block_count(), geo.fluid_count());
    }
}

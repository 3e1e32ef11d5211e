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

/// Default block edge length, matching HemeLB's 8³ blocks.
pub const DEFAULT_BLOCK_SIZE: usize = 8;

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

    /// Total fluid sites across blocks.
    pub fn total_fluid(&self) -> u64 {
        self.fluid_per_block.iter().map(|&c| c as u64).sum()
    }

    /// Flat block index of the block containing lattice cell `p`.
    pub fn block_of(&self, p: [u32; 3]) -> usize {
        Self::block_of_impl(self.blocks, self.block_size, p)
    }

    fn block_of_impl(blocks: [usize; 3], block_size: usize, p: [u32; 3]) -> usize {
        let bx = p[0] as usize / block_size;
        let by = p[1] as usize / block_size;
        let bz = p[2] as usize / block_size;
        (bx * blocks[1] + by) * blocks[2] + bz
    }

    /// Block coordinates of flat block index `b`.
    pub fn block_coords(&self, b: usize) -> [usize; 3] {
        let bz = b % self.blocks[2];
        let by = (b / self.blocks[2]) % self.blocks[1];
        let bx = b / (self.blocks[2] * self.blocks[1]);
        [bx, by, bz]
    }

    /// Greedy contiguous assignment of blocks to `parts` readers/owners,
    /// balanced by fluid-site count: the *initial approximate load
    /// balance* HemeLB derives from level one of the format before
    /// reading any site data.
    ///
    /// Returns `owner[b]` for every block (empty blocks get the owner of
    /// the surrounding range).
    pub fn approximate_decomposition(&self, parts: usize) -> Vec<usize> {
        crate::distio::plan_block_owners(&self.fluid_per_block, parts)
    }

    /// Per-part fluid-site loads under an owner map.
    pub fn loads(&self, owner: &[usize], parts: usize) -> Vec<u64> {
        let mut loads = vec![0u64; parts];
        for (b, &o) in owner.iter().enumerate() {
            loads[o] += self.fluid_per_block[b] as u64;
        }
        loads
    }

    /// Load imbalance `max/mean` of an owner map (1.0 = perfect).
    pub fn imbalance(&self, owner: &[usize], parts: usize) -> f64 {
        let loads = self.loads(owner, parts);
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = self.total_fluid() as f64 / parts as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vessels::VesselBuilder;

    fn demo_geo() -> SparseGeometry {
        VesselBuilder::aneurysm(32.0, 5.0, 7.0).voxelise(1.0)
    }

    #[test]
    fn block_counts_sum_to_fluid_count() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, DEFAULT_BLOCK_SIZE);
        assert_eq!(dec.total_fluid(), geo.fluid_count() as u64);
        assert!(dec.nonempty_block_count() <= dec.block_count());
        assert!(dec.nonempty_block_count() > 0);
    }

    #[test]
    fn block_of_round_trips_coords() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 8);
        for (i, p) in geo.positions().iter().enumerate().step_by(97) {
            let b = dec.block_of(*p);
            let [bx, by, bz] = dec.block_coords(b);
            assert_eq!(bx, p[0] as usize / 8, "site {i}");
            assert_eq!(by, p[1] as usize / 8);
            assert_eq!(bz, p[2] as usize / 8);
        }
    }

    #[test]
    fn approximate_decomposition_covers_all_parts() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 8);
        for parts in [1, 2, 4, 7] {
            let owner = dec.approximate_decomposition(parts);
            assert_eq!(owner.len(), dec.block_count());
            let loads = dec.loads(&owner, parts);
            assert_eq!(loads.iter().sum::<u64>(), dec.total_fluid());
            assert!(
                loads.iter().all(|&l| l > 0),
                "every part should get some work for parts={parts}: {loads:?}"
            );
            // The block-granularity balance is approximate but bounded.
            assert!(dec.imbalance(&owner, parts) < 2.0, "parts={parts}");
        }
    }

    #[test]
    fn single_part_owns_everything() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 8);
        let owner = dec.approximate_decomposition(1);
        assert!(owner.iter().all(|&o| o == 0));
        assert!((dec.imbalance(&owner, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_size_one_degenerates_to_cells() {
        let geo = demo_geo();
        let dec = BlockDecomposition::build(&geo, 1);
        assert_eq!(dec.blocks, geo.shape());
        assert_eq!(dec.nonempty_block_count(), geo.fluid_count());
    }
}

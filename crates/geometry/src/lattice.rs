//! The sparse lattice: fluid-site storage with indirect addressing.
//!
//! The lattice-Boltzmann method uses a *regular* lattice (the paper's
//! Fig. 1), but vascular geometry occupies only a small fraction of its
//! bounding box, so HemeLB stores only the fluid sites and addresses them
//! indirectly. [`SparseGeometry`] is that representation: a flat list of
//! fluid sites (position + classification) plus a dense site-index grid
//! for O(1) neighbour lookup inside the bounding box.

use crate::vec3::Vec3;

/// Classification of a fluid site, fixing which boundary condition the
/// solver applies on its missing links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// Interior fluid: all lattice neighbours are fluid.
    Bulk,
    /// Adjacent to at least one solid (vessel wall) cell.
    Wall,
    /// In the slab of inlet `id`: open-boundary condition applies.
    Inlet(u16),
    /// In the slab of outlet `id`.
    Outlet(u16),
}

impl SiteKind {
    /// Compact one-byte discriminant used by the file format.
    pub fn to_code(self) -> (u8, u16) {
        match self {
            SiteKind::Bulk => (0, 0),
            SiteKind::Wall => (1, 0),
            SiteKind::Inlet(id) => (2, id),
            SiteKind::Outlet(id) => (3, id),
        }
    }

    /// Inverse of [`SiteKind::to_code`].
    pub fn from_code(code: u8, id: u16) -> Option<SiteKind> {
        match code {
            0 => Some(SiteKind::Bulk),
            1 => Some(SiteKind::Wall),
            2 => Some(SiteKind::Inlet(id)),
            3 => Some(SiteKind::Outlet(id)),
            _ => None,
        }
    }
}

/// Whether an open boundary is an inlet or an outlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoLetKind {
    /// Flow enters here.
    Inlet,
    /// Flow leaves here.
    Outlet,
}

/// An open vessel end: a disk in the cutting plane.
#[derive(Debug, Clone, PartialEq)]
pub struct IoLet {
    /// Inlet or outlet.
    pub kind: IoLetKind,
    /// Centre of the disk, lattice units.
    pub centre: Vec3,
    /// Outward unit normal (pointing out of the fluid domain).
    pub normal: Vec3,
    /// Disk radius, lattice units.
    pub radius: f64,
}

/// Sentinel in the dense index grid marking a non-fluid cell.
pub const NOT_FLUID: u32 = u32::MAX;

/// Lattice offsets with their steps in one geometry's index grid, for
/// [`SparseGeometry::offset_sites`].
#[derive(Debug, Clone)]
pub struct Stencil {
    shape: [usize; 3],
    offsets: Vec<[i32; 3]>,
    steps: Vec<isize>,
}

/// The sparse lattice produced by the voxeliser.
#[derive(Debug, Clone)]
pub struct SparseGeometry {
    shape: [usize; 3],
    /// Dense `x-major` grid of fluid-site indices (`NOT_FLUID` outside).
    index: Vec<u32>,
    /// Position of each fluid site (lattice coordinates).
    positions: Vec<[u32; 3]>,
    /// Classification of each fluid site.
    kinds: Vec<SiteKind>,
    /// Open boundaries; `SiteKind::Inlet(i)` refers to `iolets` entries
    /// with `kind == Inlet` counted separately from outlets.
    iolets: Vec<IoLet>,
}

impl SparseGeometry {
    /// Assemble a geometry from parts (used by the voxeliser and the file
    /// reader).
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (index grid size, position
    /// count vs kind count, positions out of range or not matching the
    /// index grid).
    pub fn from_parts(
        shape: [usize; 3],
        index: Vec<u32>,
        positions: Vec<[u32; 3]>,
        kinds: Vec<SiteKind>,
        iolets: Vec<IoLet>,
    ) -> Self {
        assert_eq!(index.len(), shape[0] * shape[1] * shape[2]);
        assert_eq!(positions.len(), kinds.len());
        for (i, p) in positions.iter().enumerate() {
            debug_assert!(
                (p[0] as usize) < shape[0]
                    && (p[1] as usize) < shape[1]
                    && (p[2] as usize) < shape[2],
                "site {i} out of range"
            );
        }
        SparseGeometry {
            shape,
            index,
            positions,
            kinds,
            iolets,
        }
    }

    /// Bounding-box extent `[nx, ny, nz]` in lattice cells.
    #[inline]
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// Number of fluid sites.
    #[inline]
    pub fn fluid_count(&self) -> usize {
        self.positions.len()
    }

    /// Fraction of bounding-box cells that are fluid — the sparsity the
    /// title's "sparse geometry" refers to.
    pub fn fluid_fraction(&self) -> f64 {
        self.fluid_count() as f64 / self.index.len() as f64
    }

    /// Flat grid offset of `(x, y, z)`.
    #[inline]
    pub fn grid_offset(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.shape[1] + y) * self.shape[2] + z
    }

    /// Fluid-site index at `(x, y, z)`, if that cell is fluid.
    /// Coordinates outside the bounding box are (correctly) not fluid.
    #[inline]
    pub fn site_at(&self, x: i64, y: i64, z: i64) -> Option<u32> {
        if x < 0
            || y < 0
            || z < 0
            || x as usize >= self.shape[0]
            || y as usize >= self.shape[1]
            || z as usize >= self.shape[2]
        {
            return None;
        }
        let v = self.index[self.grid_offset(x as usize, y as usize, z as usize)];
        (v != NOT_FLUID).then_some(v)
    }

    /// `offsets` (components in {-1, 0, 1}) as a [`Stencil`] of this
    /// geometry's index grid.
    pub fn stencil(&self, offsets: impl IntoIterator<Item = [i32; 3]>) -> Stencil {
        let [_, sy, sz] = self.shape.map(|s| s as isize);
        let offsets: Vec<[i32; 3]> = offsets.into_iter().collect();
        let step = |d: &[i32; 3]| (d[0] as isize * sy + d[1] as isize) * sz + d[2] as isize;
        Stencil {
            shape: self.shape,
            steps: offsets.iter().map(step).collect(),
            offsets,
        }
    }

    /// The fluid sites at `pos(i) + d` for each offset `d` of `stencil`:
    /// `out[k]` is the site at offset `k`, or [`NOT_FLUID`] if that cell
    /// is solid or outside the bounding box. Equal to
    /// [`site_at`](Self::site_at) per offset.
    #[inline]
    pub fn offset_sites(&self, i: u32, stencil: &Stencil, out: &mut [u32]) {
        self.offset_cells(i, stencil, &self.index, NOT_FLUID, out);
    }

    /// The values `grid` (one per cell of the index grid, in its order)
    /// holds at `pos(i) + d` for each offset `d` of `stencil`: `out[k]`
    /// for offset `k`, `outside` past the bounding box. A site off the
    /// box's faces takes each from `grid` without a bounds check.
    #[inline]
    pub fn offset_cells<T: Copy>(
        &self,
        i: u32,
        stencil: &Stencil,
        grid: &[T],
        outside: T,
        out: &mut [T],
    ) {
        debug_assert_eq!(stencil.shape, self.shape, "a stencil of another grid");
        let p = self.positions[i as usize].map(|c| c as usize);
        if (0..3).all(|a| p[a] >= 1 && p[a] + 1 < self.shape[a]) {
            let base = self.grid_offset(p[0], p[1], p[2]);
            for (o, &step) in out.iter_mut().zip(&stencil.steps) {
                *o = grid[base.wrapping_add_signed(step)];
            }
            return;
        }
        for (o, d) in out.iter_mut().zip(&stencil.offsets) {
            let c: [usize; 3] = std::array::from_fn(|a| p[a].wrapping_add_signed(d[a] as isize));
            let inside = (0..3).all(|a| c[a] < self.shape[a]);
            *o = if inside {
                grid[self.grid_offset(c[0], c[1], c[2])]
            } else {
                outside
            };
        }
    }

    /// Whether `(x, y, z)` is a fluid cell.
    #[inline]
    pub fn is_fluid(&self, x: i64, y: i64, z: i64) -> bool {
        self.site_at(x, y, z).is_some()
    }

    /// Position of fluid site `i`.
    #[inline]
    pub fn position(&self, i: u32) -> [u32; 3] {
        self.positions[i as usize]
    }

    /// Position of fluid site `i` as a `Vec3` (cell centre).
    #[inline]
    pub fn position_v(&self, i: u32) -> Vec3 {
        let p = self.positions[i as usize];
        Vec3::new(p[0] as f64, p[1] as f64, p[2] as f64)
    }

    /// Classification of fluid site `i`.
    #[inline]
    pub fn kind(&self, i: u32) -> SiteKind {
        self.kinds[i as usize]
    }

    /// All fluid-site positions, indexed by site id.
    #[inline]
    pub fn positions(&self) -> &[[u32; 3]] {
        &self.positions
    }

    /// All site kinds, indexed by site id.
    #[inline]
    pub fn kinds(&self) -> &[SiteKind] {
        &self.kinds
    }

    /// The open boundaries.
    #[inline]
    pub fn iolets(&self) -> &[IoLet] {
        &self.iolets
    }

    /// The inlet disks in id order.
    pub fn inlets(&self) -> Vec<&IoLet> {
        self.iolets
            .iter()
            .filter(|i| i.kind == IoLetKind::Inlet)
            .collect()
    }

    /// The outlet disks in id order.
    pub fn outlets(&self) -> Vec<&IoLet> {
        self.iolets
            .iter()
            .filter(|i| i.kind == IoLetKind::Outlet)
            .collect()
    }

    /// Estimated bytes to store this geometry sparsely (positions, kinds
    /// and the index grid) versus densely (full-box per-cell record of
    /// `dense_bytes_per_cell` bytes). Used by experiment E2 (Fig. 1).
    pub fn storage_comparison(&self, dense_bytes_per_cell: usize) -> (usize, usize) {
        let sparse = self.positions.len() * (12 + 4) + self.index.len() * 4;
        let dense = self.index.len() * dense_bytes_per_cell;
        (sparse, dense)
    }

    /// Count of sites per [`SiteKind`] discriminant: `(bulk, wall,
    /// inlet, outlet)`.
    pub fn kind_census(&self) -> (usize, usize, usize, usize) {
        let mut census = (0, 0, 0, 0);
        for k in &self.kinds {
            match k {
                SiteKind::Bulk => census.0 += 1,
                SiteKind::Wall => census.1 += 1,
                SiteKind::Inlet(_) => census.2 += 1,
                SiteKind::Outlet(_) => census.3 += 1,
            }
        }
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SparseGeometry {
        // 2×2×2 box with two fluid cells at (0,0,0) and (1,1,1).
        let mut index = vec![NOT_FLUID; 8];
        index[0] = 0;
        index[7] = 1;
        SparseGeometry::from_parts(
            [2, 2, 2],
            index,
            vec![[0, 0, 0], [1, 1, 1]],
            vec![SiteKind::Bulk, SiteKind::Wall],
            vec![],
        )
    }

    /// Every site and every offset of the 27-point neighbourhood, on a
    /// padded vessel (no site on a face of its box) and on `tiny` (every
    /// site on one).
    #[test]
    fn offset_sites_agree_with_site_at() {
        let offsets: Vec<[i32; 3]> = (0..27)
            .map(|k| [k / 9 - 1, k / 3 % 3 - 1, k % 3 - 1])
            .collect();
        let mut out = [0; 27];
        for geo in [
            crate::VesselBuilder::straight_tube(6.0, 2.0).voxelise(0.5),
            tiny(),
        ] {
            let stencil = geo.stencil(offsets.iter().copied());
            for i in 0..geo.fluid_count() as u32 {
                geo.offset_sites(i, &stencil, &mut out);
                let [x, y, z] = geo.position(i).map(i64::from);
                for (&o, d) in out.iter().zip(&offsets) {
                    let want = geo.site_at(x + d[0] as i64, y + d[1] as i64, z + d[2] as i64);
                    assert_eq!(o, want.unwrap_or(NOT_FLUID), "site {i} offset {d:?}");
                }
            }
        }
    }

    #[test]
    fn site_lookup_and_bounds() {
        let g = tiny();
        assert_eq!(g.site_at(0, 0, 0), Some(0));
        assert_eq!(g.site_at(1, 1, 1), Some(1));
        assert_eq!(g.site_at(1, 0, 0), None);
        assert_eq!(g.site_at(-1, 0, 0), None);
        assert_eq!(g.site_at(2, 0, 0), None);
        assert!(g.is_fluid(0, 0, 0));
        assert!(!g.is_fluid(0, 1, 1));
    }

    #[test]
    fn census_and_fraction() {
        let g = tiny();
        assert_eq!(g.fluid_count(), 2);
        assert_eq!(g.fluid_fraction(), 0.25);
        assert_eq!(g.kind_census(), (1, 1, 0, 0));
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [
            SiteKind::Bulk,
            SiteKind::Wall,
            SiteKind::Inlet(3),
            SiteKind::Outlet(77),
        ] {
            let (c, id) = k.to_code();
            assert_eq!(SiteKind::from_code(c, id), Some(k));
        }
        assert_eq!(SiteKind::from_code(9, 0), None);
    }

    #[test]
    fn storage_comparison_favours_sparse_for_sparse_domains() {
        let g = tiny();
        // A dense field of 19 f64 distributions + meta ≈ 160 B/cell.
        let (sparse, dense) = g.storage_comparison(160);
        assert!(sparse < dense);
    }

    #[test]
    #[should_panic]
    fn inconsistent_parts_panic() {
        SparseGeometry::from_parts([1, 1, 1], vec![NOT_FLUID; 2], vec![], vec![], vec![]);
    }
}

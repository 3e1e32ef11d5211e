//! Voxelisation: sample a signed-distance vessel onto the sparse lattice.
//!
//! Cells whose centre lies inside the lumen *and* inside every
//! inlet/outlet half-space become fluid sites. Sites within one cell of
//! an open-end plane are classified as inlet/outlet sites; remaining
//! fluid sites with a non-fluid 26-neighbour are wall sites; the rest are
//! bulk.

use crate::lattice::{IoLet, IoLetKind, SiteKind, SparseGeometry, NOT_FLUID};
use crate::sdf::Sdf;
use crate::vec3::Vec3;

/// Input to the voxeliser: the lumen shape plus open-end disks.
pub struct VoxelInput<'a> {
    /// Lumen signed-distance function (negative inside).
    pub lumen: &'a dyn Sdf,
    /// Open boundaries. Normals must point *out* of the fluid domain;
    /// fluid only exists on the `(p - centre)·normal <= 0` side.
    pub iolets: Vec<IoLet>,
    /// Bounding box minimum corner in world units.
    pub lo: Vec3,
    /// Bounding box maximum corner in world units.
    pub hi: Vec3,
}

/// Edge of the cubic blocks of cells that pass 1 decides at once.
const BLOCK: usize = 4;

/// Voxelise at the given lattice spacing `dx` (world units per cell).
///
/// Geometry coordinates in the result are *lattice* units: cell `(x,y,z)`
/// has its centre at `lo + (x+0.5, y+0.5, z+0.5)·dx` in world units.
pub fn voxelise(input: &VoxelInput<'_>, dx: f64) -> SparseGeometry {
    assert!(dx > 0.0, "lattice spacing must be positive");
    let extent = input.hi - input.lo;
    let shape = [extent.x, extent.y, extent.z].map(|e| (e / dx).ceil().max(1.0) as usize);
    let world_of = |x: usize, y: usize, z: usize| -> Vec3 {
        input.lo
            + Vec3::new(
                (x as f64 + 0.5) * dx,
                (y as f64 + 0.5) * dx,
                (z as f64 + 0.5) * dx,
            )
    };
    let behind_iolets = |p: Vec3| -> bool {
        input
            .iolets
            .iter()
            .all(|io| (p - io.centre).dot(io.normal) <= 0.0)
    };

    // Pass 1: mark fluid cells, a block of up to BLOCK³ at a time. The
    // lumen's distance is 1-Lipschitz (the `Sdf` contract), so if its
    // value at the middle of the block's cell centres is further from
    // zero than their half-diagonal `r` (padded far beyond the rounding of
    // `distance`), the block is solid, or inside and tests only iolets.
    let ncells = shape[0] * shape[1] * shape[2];
    let mut fluid = vec![false; ncells];
    let off = |x: usize, y: usize, z: usize| (x * shape[1] + y) * shape[2] + z;
    for bx in (0..shape[0]).step_by(BLOCK) {
        for by in (0..shape[1]).step_by(BLOCK) {
            for bz in (0..shape[2]).step_by(BLOCK) {
                let end = [bx, by, bz].map(|s| s + BLOCK);
                let end = [0, 1, 2].map(|a| end[a].min(shape[a]));
                let first = world_of(bx, by, bz);
                let last = world_of(end[0] - 1, end[1] - 1, end[2] - 1);
                let r = (last - first).norm() * 0.5 * (1.0 + 1e-9) + 1e-9 * dx;
                let d = input.lumen.distance((first + last) * 0.5);
                if d > r {
                    continue;
                }
                for x in bx..end[0] {
                    for y in by..end[1] {
                        for z in bz..end[2] {
                            let p = world_of(x, y, z);
                            fluid[off(x, y, z)] =
                                (d < -r || input.lumen.contains(p)) && behind_iolets(p);
                        }
                    }
                }
            }
        }
    }

    // Pass 2: index fluid cells into exactly sized lists and classify. A
    // fluid cell has a solid 26-neighbour (cells outside the box count as
    // solid) exactly where the 3×3×3 erosion of the fluid grid is false,
    // computed separably: `erode_plane` erodes one x plane over z and then
    // y, and three such planes roll along x.
    let plane = shape[1] * shape[2];
    let mut eroded = [vec![false; plane], vec![false; plane], vec![false; plane]];
    let mut along_z = vec![false; plane];
    erode_plane(&fluid[..plane], shape[2], &mut along_z, &mut eroded[0]);
    let mut index = vec![NOT_FLUID; ncells];
    let sites = fluid.iter().filter(|&&f| f).count();
    let (mut positions, mut kinds) = (Vec::with_capacity(sites), Vec::with_capacity(sites));
    for x in 0..shape[0] {
        if x + 1 < shape[0] {
            let next = &fluid[(x + 1) * plane..(x + 2) * plane];
            erode_plane(next, shape[2], &mut along_z, &mut eroded[(x + 1) % 3]);
        }
        let [a, b, c] = [x + 2, x, x + 1].map(|i| &eroded[i % 3]);
        for y in 0..shape[1] {
            for z in 0..shape[2] {
                let cell = off(x, y, z);
                if !fluid[cell] {
                    continue;
                }
                index[cell] = positions.len() as u32;
                positions.push([x as u32, y as u32, z as u32]);
                let i = y * shape[2] + z;
                let interior = x > 0 && x + 1 < shape[0] && a[i] && b[i] && c[i];
                kinds.push(classify(world_of(x, y, z), dx, &input.iolets, !interior));
            }
        }
    }

    // Geometry iolets are stored in lattice units for downstream use.
    let lattice_iolets: Vec<IoLet> = input
        .iolets
        .iter()
        .map(|io| IoLet {
            kind: io.kind,
            centre: (io.centre - input.lo) / dx - Vec3::splat(0.5),
            normal: io.normal,
            radius: io.radius / dx,
        })
        .collect();

    SparseGeometry::from_parts(shape, index, positions, kinds, lattice_iolets)
}

/// The 3×3 erosion of one y–z plane of the fluid grid (rows of `nz`
/// cells, outside solid) into `out`, by z into `along_z` and then by y.
fn erode_plane(fluid: &[bool], nz: usize, along_z: &mut [bool], out: &mut [bool]) {
    for (src, dst) in fluid.chunks_exact(nz).zip(along_z.chunks_exact_mut(nz)) {
        for z in 1..nz.saturating_sub(1) {
            dst[z] = src[z - 1] && src[z] && src[z + 1];
        }
        dst[0] = false;
        dst[nz - 1] = false;
    }
    let ny = fluid.len() / nz;
    out.fill(false);
    for y in 1..ny.saturating_sub(1) {
        let rows = &along_z[(y - 1) * nz..(y + 2) * nz];
        for (z, dst) in out[y * nz..(y + 1) * nz].iter_mut().enumerate() {
            *dst = rows[z] && rows[nz + z] && rows[2 * nz + z];
        }
    }
}

/// Classify one fluid cell: iolet slab membership wins, then wall
/// adjacency, then bulk.
fn classify(p: Vec3, dx: f64, iolets: &[IoLet], has_solid_neighbour: bool) -> SiteKind {
    let mut inlet_id = 0u16;
    let mut outlet_id = 0u16;
    for io in iolets {
        let along = (p - io.centre).dot(io.normal);
        // Fluid exists at along <= 0; the slab is the last cell layer
        // before the plane.
        if along > -dx && along <= 0.0 {
            return match io.kind {
                IoLetKind::Inlet => SiteKind::Inlet(inlet_id),
                IoLetKind::Outlet => SiteKind::Outlet(outlet_id),
            };
        }
        match io.kind {
            IoLetKind::Inlet => inlet_id += 1,
            IoLetKind::Outlet => outlet_id += 1,
        }
    }
    if has_solid_neighbour {
        SiteKind::Wall
    } else {
        SiteKind::Bulk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdf::Capsule;
    use crate::vessels::VesselBuilder;
    use proptest::prelude::*;

    /// The oracle: every cell's centre tested on its own, and every fluid
    /// site's 26 neighbours scanned for a solid one.
    fn voxelise_per_cell(input: &VoxelInput<'_>, dx: f64) -> SparseGeometry {
        let extent = input.hi - input.lo;
        let shape = [extent.x, extent.y, extent.z].map(|e| (e / dx).ceil().max(1.0) as usize);
        let world_of = |x: usize, y: usize, z: usize| {
            input.lo
                + Vec3::new(
                    (x as f64 + 0.5) * dx,
                    (y as f64 + 0.5) * dx,
                    (z as f64 + 0.5) * dx,
                )
        };
        let in_fluid = |p: Vec3| {
            input.lumen.contains(p)
                && input
                    .iolets
                    .iter()
                    .all(|io| (p - io.centre).dot(io.normal) <= 0.0)
        };
        let off = |x: usize, y: usize, z: usize| (x * shape[1] + y) * shape[2] + z;
        let mut fluid = vec![false; shape.iter().product()];
        for x in 0..shape[0] {
            for y in 0..shape[1] {
                for z in 0..shape[2] {
                    fluid[off(x, y, z)] = in_fluid(world_of(x, y, z));
                }
            }
        }
        let is_fluid_cell = |x: i64, y: i64, z: i64| {
            let inside = [x, y, z]
                .iter()
                .zip(shape)
                .all(|(&c, n)| c >= 0 && (c as usize) < n);
            inside && fluid[off(x as usize, y as usize, z as usize)]
        };
        let mut index = vec![NOT_FLUID; fluid.len()];
        let (mut positions, mut kinds) = (Vec::new(), Vec::new());
        for x in 0..shape[0] {
            for y in 0..shape[1] {
                for z in 0..shape[2] {
                    if !fluid[off(x, y, z)] {
                        continue;
                    }
                    index[off(x, y, z)] = positions.len() as u32;
                    positions.push([x as u32, y as u32, z as u32]);
                    let (xi, yi, zi) = (x as i64, y as i64, z as i64);
                    let solid_neighbour = (-1..=1).any(|a| {
                        (-1..=1).any(|b| (-1..=1).any(|c| !is_fluid_cell(xi + a, yi + b, zi + c)))
                    });
                    kinds.push(classify(
                        world_of(x, y, z),
                        dx,
                        &input.iolets,
                        solid_neighbour,
                    ));
                }
            }
        }
        let iolets = input
            .iolets
            .iter()
            .map(|io| IoLet {
                kind: io.kind,
                centre: (io.centre - input.lo) / dx - Vec3::splat(0.5),
                normal: io.normal,
                radius: io.radius / dx,
            })
            .collect();
        SparseGeometry::from_parts(shape, index, positions, kinds, iolets)
    }

    /// The two geometries are the same to the bit: shape, index grid,
    /// positions, kinds and iolets.
    fn assert_same_geometry(a: &SparseGeometry, b: &SparseGeometry) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.positions(), b.positions());
        prop_assert_eq!(a.kinds(), b.kinds());
        let [nx, ny, nz] = a.shape().map(|n| n as i64);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    prop_assert_eq!(a.site_at(x, y, z), b.site_at(x, y, z));
                }
            }
        }
        let bits = |io: &IoLet| {
            let v = |p: Vec3| p.to_array().map(f64::to_bits);
            (io.kind, v(io.centre), v(io.normal), io.radius.to_bits())
        };
        let a_iolets: Vec<_> = a.iolets().iter().map(bits).collect();
        let b_iolets: Vec<_> = b.iolets().iter().map(bits).collect();
        prop_assert_eq!(a_iolets, b_iolets);
        Ok(())
    }

    fn scene(i: usize) -> VesselBuilder {
        match i {
            0 => VesselBuilder::straight_tube(12.0, 3.0),
            1 => VesselBuilder::aneurysm(16.0, 3.0, 4.0),
            2 => VesselBuilder::bifurcation(8.0, 8.0, 3.0, 0.5),
            3 => VesselBuilder::bend(8.0, 2.5),
            _ => VesselBuilder::arterial_tree(3, 8.0, 3.0),
        }
    }

    /// Voxelise `vb` at `dx` with the box's low corner moved down by
    /// `shift` cells, by blocks and by the oracle.
    fn both_ways(vb: &VesselBuilder, dx: f64, shift: [f64; 3]) -> (SparseGeometry, SparseGeometry) {
        let (lo, hi) = vb.bounds();
        let input = VoxelInput {
            lumen: vb.lumen(),
            iolets: vb.iolets().to_vec(),
            lo: lo - Vec3::new(shift[0], shift[1], shift[2]) * dx,
            hi,
        };
        (voxelise(&input, dx), voxelise_per_cell(&input, dx))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Blocks meet the surface at every phase: any scene, a spacing
        /// whose box is rarely a multiple of the block, any sub-cell
        /// shift of the box.
        #[test]
        fn block_voxeliser_matches_the_per_cell_oracle(
            scene_id in 0usize..5,
            dx in 0.4f64..1.3,
            shift in proptest::array::uniform3(0.0f64..1.0),
        ) {
            let (blocks, cells) = both_ways(&scene(scene_id), dx, shift);
            assert_same_geometry(&blocks, &cells)?;
        }
    }

    /// The five scenes at spacings whose boxes are not multiples of the
    /// block on some axis, unshifted.
    #[test]
    fn block_voxeliser_matches_the_oracle_on_every_scene() {
        for scene_id in 0..5 {
            let mut ragged = 0;
            for dx in [1.0, 0.7, 0.5, 0.37] {
                let (blocks, cells) = both_ways(&scene(scene_id), dx, [0.0; 3]);
                ragged += blocks.shape().iter().any(|n| n % BLOCK != 0) as usize;
                assert_same_geometry(&blocks, &cells).unwrap();
            }
            assert!(ragged >= 3, "scene {scene_id}: {ragged} ragged boxes");
        }
    }

    /// The Medium aneurysm of the benchmarks (`dx = 0.25`, 137 320
    /// sites), unshifted and shifted.
    #[test]
    #[ignore = "Medium; run in release"]
    fn block_voxeliser_matches_the_oracle_at_medium() {
        let vb = VesselBuilder::aneurysm(28.0, 4.0, 6.0);
        for shift in [[0.0; 3], [0.25, 0.5, 0.75], [0.9, 0.1, 0.45]] {
            let (blocks, cells) = both_ways(&vb, 0.25, shift);
            assert_same_geometry(&blocks, &cells).unwrap();
        }
    }

    fn straight_tube_input(len: f64, radius: f64) -> (Capsule, Vec<IoLet>, Vec3, Vec3) {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(len, 0.0, 0.0);
        let tube = Capsule::tube(a, b, radius);
        let iolets = vec![
            IoLet {
                kind: IoLetKind::Inlet,
                centre: a + Vec3::new(1.0, 0.0, 0.0),
                normal: Vec3::new(-1.0, 0.0, 0.0),
                radius,
            },
            IoLet {
                kind: IoLetKind::Outlet,
                centre: b - Vec3::new(1.0, 0.0, 0.0),
                normal: Vec3::new(1.0, 0.0, 0.0),
                radius,
            },
        ];
        let lo = Vec3::new(0.0, -radius - 2.0, -radius - 2.0);
        let hi = Vec3::new(len, radius + 2.0, radius + 2.0);
        (tube, iolets, lo, hi)
    }

    #[test]
    fn tube_voxelisation_has_all_site_kinds() {
        let (tube, iolets, lo, hi) = straight_tube_input(20.0, 4.0);
        let geo = voxelise(
            &VoxelInput {
                lumen: &tube,
                iolets,
                lo,
                hi,
            },
            1.0,
        );
        let (bulk, wall, inlet, outlet) = geo.kind_census();
        assert!(bulk > 0, "expected bulk sites");
        assert!(wall > 0, "expected wall sites");
        assert!(inlet > 0, "expected inlet sites");
        assert!(outlet > 0, "expected outlet sites");
        // A tube in a square box is roughly π r² / (2r+4)² of the box.
        assert!(geo.fluid_fraction() > 0.1 && geo.fluid_fraction() < 0.7);
    }

    #[test]
    fn refining_dx_scales_site_count_cubically() {
        let (tube, iolets, lo, hi) = straight_tube_input(16.0, 4.0);
        let coarse = voxelise(
            &VoxelInput {
                lumen: &tube,
                iolets: iolets.clone(),
                lo,
                hi,
            },
            1.0,
        );
        let fine = voxelise(
            &VoxelInput {
                lumen: &tube,
                iolets,
                lo,
                hi,
            },
            0.5,
        );
        let ratio = fine.fluid_count() as f64 / coarse.fluid_count() as f64;
        assert!(
            (4.0..=16.0).contains(&ratio),
            "halving dx should multiply sites by ~8, got {ratio}"
        );
    }

    #[test]
    fn index_grid_matches_positions() {
        let (tube, iolets, lo, hi) = straight_tube_input(12.0, 3.0);
        let geo = voxelise(
            &VoxelInput {
                lumen: &tube,
                iolets,
                lo,
                hi,
            },
            1.0,
        );
        for i in 0..geo.fluid_count() as u32 {
            let [x, y, z] = geo.position(i);
            assert_eq!(geo.site_at(x as i64, y as i64, z as i64), Some(i));
        }
    }

    #[test]
    fn interior_of_tube_is_bulk() {
        let (tube, iolets, lo, hi) = straight_tube_input(20.0, 5.0);
        let geo = voxelise(
            &VoxelInput {
                lumen: &tube,
                iolets,
                lo,
                hi,
            },
            1.0,
        );
        // A site near the axis at mid-length must be bulk.
        let mid = geo
            .positions()
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = dist_to(a, 10.0, geo.shape());
                let db = dist_to(b, 10.0, geo.shape());
                da.partial_cmp(&db).unwrap()
            })
            .map(|(i, _)| i as u32)
            .unwrap();
        assert_eq!(geo.kind(mid), SiteKind::Bulk);
    }

    fn dist_to(p: &[u32; 3], x_mid: f64, shape: [usize; 3]) -> f64 {
        let cy = shape[1] as f64 / 2.0;
        let cz = shape[2] as f64 / 2.0;
        let dx = p[0] as f64 - x_mid;
        let dy = p[1] as f64 - cy;
        let dz = p[2] as f64 - cz;
        dx * dx + dy * dy + dz * dz
    }
}

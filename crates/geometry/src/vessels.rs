//! Parametric synthetic vasculature.
//!
//! Stand-ins for the patient-specific geometries HemeLB is normally fed:
//! each builder produces a lumen SDF, the inlet/outlet disks capping its
//! open ends, and a bounding box, ready for the voxeliser. The
//! `aneurysm` scenario — a parent vessel with a saccular bulge — is the
//! workload of the paper's Fig. 4 visualisations.

use crate::lattice::{IoLet, IoLetKind, SparseGeometry};
use crate::sdf::{Capsule, Sdf, Sphere, TorusArc, Union};
use crate::vec3::Vec3;
use crate::voxel::{voxelise, VoxelInput};

/// A composed vessel scene: lumen + open ends + bounds.
pub struct VesselBuilder {
    lumen: Union,
    iolets: Vec<IoLet>,
    lo: Vec3,
    hi: Vec3,
}

impl VesselBuilder {
    fn new(lo: Vec3, hi: Vec3) -> Self {
        VesselBuilder {
            lumen: Union::new(),
            iolets: Vec::new(),
            lo,
            hi,
        }
    }

    /// A straight cylindrical vessel of the given `length` and `radius`,
    /// axis along +x, with an inlet at x≈0 and an outlet at x≈length.
    pub fn straight_tube(length: f64, radius: f64) -> Self {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(length, 0.0, 0.0);
        let margin = 2.0;
        let mut vb = VesselBuilder::new(
            Vec3::new(0.0, -radius - margin, -radius - margin),
            Vec3::new(length, radius + margin, radius + margin),
        );
        vb.lumen.add(Capsule::tube(a, b, radius));
        vb.iolets.push(IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(1.0, 0.0, 0.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius,
        });
        vb.iolets.push(IoLet {
            kind: IoLetKind::Outlet,
            centre: Vec3::new(length - 1.0, 0.0, 0.0),
            normal: Vec3::new(1.0, 0.0, 0.0),
            radius,
        });
        vb
    }

    /// A parent vessel with a saccular (spherical) aneurysm bulging from
    /// its side at mid-length — the canonical workload of the paper's
    /// Fig. 4. `length` and `radius` describe the parent tube;
    /// `sac_radius` the aneurysm sphere.
    pub fn aneurysm(length: f64, radius: f64, sac_radius: f64) -> Self {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(length, 0.0, 0.0);
        // Sac centre sits above the tube wall so the sphere overlaps the
        // lumen, leaving a neck opening.
        let sac_centre = Vec3::new(length / 2.0, 0.0, radius + sac_radius * 0.55);
        let margin = 2.0;
        let top = sac_centre.z + sac_radius + margin;
        let mut vb = VesselBuilder::new(
            Vec3::new(0.0, -radius - margin, -radius - margin),
            Vec3::new(length, radius + margin, top),
        );
        vb.lumen.add(Capsule::tube(a, b, radius));
        vb.lumen.add(Sphere {
            centre: sac_centre,
            radius: sac_radius,
        });
        vb.iolets.push(IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(1.0, 0.0, 0.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius,
        });
        vb.iolets.push(IoLet {
            kind: IoLetKind::Outlet,
            centre: Vec3::new(length - 1.0, 0.0, 0.0),
            normal: Vec3::new(1.0, 0.0, 0.0),
            radius,
        });
        vb
    }

    /// A symmetric Y-bifurcation: parent along +x for `parent_len`, then
    /// two children of `child_len` at ±`half_angle` in the xy-plane.
    /// Child radii follow Murray's law for two equal children
    /// (`r_child = r_parent / 2^(1/3)`).
    pub fn bifurcation(parent_len: f64, child_len: f64, radius: f64, half_angle: f64) -> Self {
        let junction = Vec3::new(parent_len, 0.0, 0.0);
        let child_r = radius / 2f64.powf(1.0 / 3.0);
        let dir_up = Vec3::new(half_angle.cos(), half_angle.sin(), 0.0);
        let dir_dn = Vec3::new(half_angle.cos(), -half_angle.sin(), 0.0);
        let end_up = junction + dir_up * child_len;
        let end_dn = junction + dir_dn * child_len;

        let margin = 2.0;
        let max_y = end_up.y + child_r + margin;
        let mut vb = VesselBuilder::new(
            Vec3::new(0.0, -max_y, -radius - margin),
            Vec3::new(end_up.x + margin, max_y, radius + margin),
        );
        vb.lumen.add(Capsule::tube(Vec3::ZERO, junction, radius));
        // Rounded ends blend the junction; children are cut by outlets.
        vb.lumen.add(Capsule::rounded(junction, end_up, child_r));
        vb.lumen.add(Capsule::rounded(junction, end_dn, child_r));
        vb.iolets.push(IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(1.0, 0.0, 0.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius,
        });
        vb.iolets.push(IoLet {
            kind: IoLetKind::Outlet,
            centre: end_up - dir_up * 1.0,
            normal: dir_up,
            radius: child_r,
        });
        vb.iolets.push(IoLet {
            kind: IoLetKind::Outlet,
            centre: end_dn - dir_dn * 1.0,
            normal: dir_dn,
            radius: child_r,
        });
        vb
    }

    /// A 90° circular bend of bend radius `major` and vessel radius
    /// `minor`, in the xy-plane: inlet along −y at angle 0, outlet along
    /// −x at angle 90°.
    pub fn bend(major: f64, minor: f64) -> Self {
        let centre = Vec3::ZERO;
        let u = Vec3::new(1.0, 0.0, 0.0);
        let v = Vec3::new(0.0, 1.0, 0.0);
        let margin = 2.0;
        let mut vb = VesselBuilder::new(
            Vec3::new(-margin, -margin, -minor - margin),
            Vec3::new(
                major + minor + margin,
                major + minor + margin,
                minor + margin,
            ),
        );
        vb.lumen.add(TorusArc {
            centre,
            u,
            v,
            major_radius: major,
            minor_radius: minor,
            arc_radians: std::f64::consts::FRAC_PI_2,
        });
        // Angle 0 end: tube points along +y direction of travel, so the
        // outward normal is −y.
        vb.iolets.push(IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(major, 1.0, 0.0),
            normal: Vec3::new(0.0, -1.0, 0.0),
            radius: minor,
        });
        // Angle 90° end: outward normal is −x.
        vb.iolets.push(IoLet {
            kind: IoLetKind::Outlet,
            centre: Vec3::new(1.0, major, 0.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius: minor,
        });
        vb
    }

    /// A synthetic bifurcating arterial tree: a root vessel that splits
    /// in two at every generation (radii by Murray's law for equal
    /// children, branching planes alternating), `depth` generations
    /// deep. One inlet at the root, one outlet per leaf — the kind of
    /// multi-outlet sparse geometry HemeLB's patient vasculature
    /// actually looks like.
    pub fn arterial_tree(depth: usize, root_len: f64, root_radius: f64) -> Self {
        assert!(depth >= 1);
        let murray = 2f64.powf(-1.0 / 3.0);
        let mut segments: Vec<(Vec3, Vec3, f64)> = Vec::new();
        let mut leaves: Vec<(Vec3, Vec3, f64)> = Vec::new(); // (end, dir, radius)

        // Depth-first growth.
        #[allow(clippy::too_many_arguments)]
        fn grow(
            p: Vec3,
            dir: Vec3,
            len: f64,
            radius: f64,
            generation: usize,
            depth: usize,
            murray: f64,
            segments: &mut Vec<(Vec3, Vec3, f64)>,
            leaves: &mut Vec<(Vec3, Vec3, f64)>,
        ) {
            let end = p + dir * len;
            segments.push((p, end, radius));
            if generation + 1 == depth {
                leaves.push((end, dir, radius));
                return;
            }
            // Branch in the plane spanned by dir and an alternating
            // normal, ±35°.
            let axis = if generation.is_multiple_of(2) {
                dir.any_orthogonal()
            } else {
                dir.cross(dir.any_orthogonal()).normalised()
            };
            let angle = 35f64.to_radians();
            let (s, c) = angle.sin_cos();
            for sign in [1.0, -1.0] {
                let child_dir = (dir * c + axis * (s * sign)).normalised();
                grow(
                    end,
                    child_dir,
                    len * 0.75,
                    radius * murray,
                    generation + 1,
                    depth,
                    murray,
                    segments,
                    leaves,
                );
            }
        }
        grow(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            root_len,
            root_radius,
            0,
            depth,
            murray,
            &mut segments,
            &mut leaves,
        );

        // Bounding box over all segment endpoints.
        let margin = 2.0;
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for (a, b, _) in &segments {
            lo = lo.min(*a).min(*b);
            hi = hi.max(*a).max(*b);
        }
        let pad = Vec3::splat(root_radius + margin);
        let mut vb = VesselBuilder::new(lo - pad, hi + pad);
        for (a, b, r) in segments {
            vb.lumen.add(Capsule::rounded(a, b, r));
        }
        vb.iolets.push(IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(1.0, 0.0, 0.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius: root_radius,
        });
        for (end, dir, r) in leaves {
            vb.iolets.push(IoLet {
                kind: IoLetKind::Outlet,
                centre: end - dir * 1.0,
                normal: dir,
                radius: r,
            });
        }
        vb
    }

    /// The open boundaries, world units.
    pub fn iolets(&self) -> &[IoLet] {
        &self.iolets
    }

    /// Bounding box `(lo, hi)`, world units.
    pub fn bounds(&self) -> (Vec3, Vec3) {
        (self.lo, self.hi)
    }

    /// The lumen SDF.
    pub fn lumen(&self) -> &dyn Sdf {
        &self.lumen
    }

    /// Voxelise at lattice spacing `dx` (world units per cell).
    pub fn voxelise(&self, dx: f64) -> SparseGeometry {
        voxelise(
            &VoxelInput {
                lumen: &self.lumen,
                iolets: self.iolets.clone(),
                lo: self.lo,
                hi: self.hi,
            },
            dx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::SiteKind;

    #[test]
    fn straight_tube_is_connected_and_capped() {
        let geo = VesselBuilder::straight_tube(24.0, 5.0).voxelise(1.0);
        let (_, _, inlets, outlets) = geo.kind_census();
        assert!(inlets > 10, "inlet slab should span the cross-section");
        assert!(outlets > 10);
    }

    #[test]
    fn aneurysm_has_more_sites_than_plain_tube() {
        let tube = VesselBuilder::straight_tube(24.0, 5.0).voxelise(1.0);
        let aneu = VesselBuilder::aneurysm(24.0, 5.0, 7.0).voxelise(1.0);
        assert!(aneu.fluid_count() > tube.fluid_count());
    }

    #[test]
    fn aneurysm_sac_is_wall_bounded() {
        let geo = VesselBuilder::aneurysm(24.0, 5.0, 7.0).voxelise(1.0);
        // The topmost fluid sites (inside the sac) must be wall sites.
        let max_z = geo.positions().iter().map(|p| p[2]).max().unwrap();
        let top_sites: Vec<_> = (0..geo.fluid_count() as u32)
            .filter(|&i| geo.position(i)[2] == max_z)
            .collect();
        assert!(!top_sites.is_empty());
        for i in top_sites {
            assert_eq!(geo.kind(i), SiteKind::Wall);
        }
    }

    #[test]
    fn bifurcation_has_one_inlet_two_outlets() {
        let geo = VesselBuilder::bifurcation(16.0, 14.0, 4.0, 0.5).voxelise(1.0);
        let inlet_ids: std::collections::HashSet<u16> = geo
            .kinds()
            .iter()
            .filter_map(|k| match k {
                SiteKind::Inlet(id) => Some(*id),
                _ => None,
            })
            .collect();
        let outlet_ids: std::collections::HashSet<u16> = geo
            .kinds()
            .iter()
            .filter_map(|k| match k {
                SiteKind::Outlet(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(inlet_ids.len(), 1);
        assert_eq!(outlet_ids.len(), 2, "both children must be capped");
    }

    #[test]
    fn bend_has_fluid_along_the_arc() {
        let geo = VesselBuilder::bend(12.0, 3.0).voxelise(1.0);
        assert!(geo.fluid_count() > 100);
        let (_, _, inlets, outlets) = geo.kind_census();
        assert!(inlets > 0);
        assert!(outlets > 0);
    }

    #[test]
    fn arterial_tree_has_one_inlet_and_a_leaf_outlet_per_branch() {
        let depth = 3;
        let vb = VesselBuilder::arterial_tree(depth, 14.0, 4.0);
        // 2^(depth-1) leaves.
        let outlets = vb
            .iolets()
            .iter()
            .filter(|io| io.kind == crate::lattice::IoLetKind::Outlet)
            .count();
        assert_eq!(outlets, 4);
        let geo = vb.voxelise(1.0);
        assert!(geo.fluid_count() > 1000, "{}", geo.fluid_count());
        let outlet_ids: std::collections::HashSet<u16> = geo
            .kinds()
            .iter()
            .filter_map(|k| match k {
                SiteKind::Outlet(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert!(
            outlet_ids.len() >= 3,
            "most leaves produce outlet sites: {outlet_ids:?}"
        );
        // Murray's law: leaf radii are root/2^((depth-1)/3).
        let leaf_r = vb
            .iolets()
            .iter()
            .find(|io| io.kind == crate::lattice::IoLetKind::Outlet)
            .unwrap()
            .radius;
        let expect = 4.0 * 2f64.powf(-(depth as f64 - 1.0) / 3.0);
        assert!((leaf_r - expect).abs() < 1e-9);
    }

    #[test]
    fn geometries_are_sparse_in_their_boxes() {
        for geo in [
            VesselBuilder::aneurysm(32.0, 5.0, 8.0).voxelise(1.0),
            VesselBuilder::bifurcation(16.0, 14.0, 4.0, 0.5).voxelise(1.0),
            VesselBuilder::bend(14.0, 3.0).voxelise(1.0),
        ] {
            assert!(
                geo.fluid_fraction() < 0.5,
                "vascular geometry should be sparse, got {}",
                geo.fluid_fraction()
            );
        }
    }
}

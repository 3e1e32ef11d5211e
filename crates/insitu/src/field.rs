//! Continuous sampling of the sparse macroscopic fields.
//!
//! The renderers and tracers need field values at arbitrary points; this
//! wraps a geometry + snapshot pair with trilinear interpolation over
//! the eight surrounding cells, renormalising over the fluid subset
//! (walls contribute nothing rather than dragging values to zero).

use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};

/// Which scalar to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// Density ρ.
    Density,
    /// Velocity magnitude |u|.
    Speed,
    /// Shear-rate magnitude.
    Shear,
}

/// A geometry + snapshot pair, sampled continuously.
#[derive(Debug, Clone, Copy)]
pub struct SampledField<'a> {
    /// The sparse lattice.
    pub geo: &'a SparseGeometry,
    /// The field snapshot.
    pub snap: &'a FieldSnapshot,
}

impl<'a> SampledField<'a> {
    /// Pair a geometry with a snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot does not cover the geometry.
    pub fn new(geo: &'a SparseGeometry, snap: &'a FieldSnapshot) -> Self {
        assert_eq!(
            geo.fluid_count(),
            snap.len(),
            "snapshot must match geometry"
        );
        SampledField { geo, snap }
    }

    /// Whether the cell containing `p` is fluid.
    pub fn in_fluid(&self, p: Vec3) -> bool {
        self.geo
            .site_at(p.x.round() as i64, p.y.round() as i64, p.z.round() as i64)
            .is_some()
    }

    /// Trilinearly interpolated velocity at `p`; `None` if none of the
    /// surrounding cells are fluid.
    pub fn velocity_at(&self, p: Vec3) -> Option<[f64; 3]> {
        let mut acc = [0.0f64; 3];
        let mut wsum = 0.0;
        self.gather(p, |site, w| {
            let u = self.snap.u[site as usize];
            acc[0] += u[0] * w;
            acc[1] += u[1] * w;
            acc[2] += u[2] * w;
            wsum += w;
        });
        if wsum <= 1e-12 {
            None
        } else {
            Some([acc[0] / wsum, acc[1] / wsum, acc[2] / wsum])
        }
    }

    /// Visit the up-to-8 fluid cells around `p` with trilinear weights.
    fn gather(&self, p: Vec3, mut visit: impl FnMut(u32, f64)) {
        let x0 = p.x.floor() as i64;
        let y0 = p.y.floor() as i64;
        let z0 = p.z.floor() as i64;
        let fx = p.x - x0 as f64;
        let fy = p.y - y0 as f64;
        let fz = p.z - z0 as f64;
        for dx in 0..2i64 {
            for dy in 0..2i64 {
                for dz in 0..2i64 {
                    let w = (if dx == 0 { 1.0 - fx } else { fx })
                        * (if dy == 0 { 1.0 - fy } else { fy })
                        * (if dz == 0 { 1.0 - fz } else { fz });
                    if w <= 0.0 {
                        continue;
                    }
                    if let Some(site) = self.geo.site_at(x0 + dx, y0 + dy, z0 + dz) {
                        visit(site, w);
                    }
                }
            }
        }
    }

    /// Scalar range over all sites — used to calibrate transfer
    /// functions.
    pub fn scalar_range(&self, which: Scalar) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.snap.len() {
            let v = match which {
                Scalar::Density => self.snap.rho[i],
                Scalar::Speed => self.snap.speed(i),
                Scalar::Shear => self.snap.shear[i],
            };
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn setup() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::straight_tube(16.0, 4.0).voxelise(1.0);
        let n = geo.fluid_count();
        // Velocity = position-dependent linear field: u = (x, 0, 0)·0.01.
        let u: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let p = geo.position(i as u32);
                [p[0] as f64 * 0.01, 0.0, 0.0]
            })
            .collect();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u,
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    #[test]
    fn interpolation_reproduces_linear_fields() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        // Deep inside the tube, interpolation of a linear-in-x field is
        // exact (all 8 neighbours are fluid).
        let p = Vec3::new(
            8.3,
            geo.shape()[1] as f64 / 2.0,
            geo.shape()[2] as f64 / 2.0,
        );
        let u = f.velocity_at(p).unwrap();
        assert!((u[0] - 0.083).abs() < 1e-9, "{}", u[0]);
        assert!(u[1].abs() < 1e-12);
    }

    #[test]
    fn at_cell_centres_interpolation_is_exact() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        for i in (0..geo.fluid_count() as u32).step_by(53) {
            let pos = geo.position_v(i);
            if let Some(u) = f.velocity_at(pos) {
                // Centre sample may mix neighbours only if some are
                // missing; in the bulk it must be exact.
                let expect = snap.u[i as usize];
                if geo.kind(i) == hemelb_geometry::SiteKind::Bulk {
                    assert!((u[0] - expect[0]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn far_outside_returns_none() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        assert!(f.velocity_at(Vec3::new(-50.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn scalar_range_covers_field() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        let (lo, hi) = f.scalar_range(Scalar::Speed);
        assert!(lo >= 0.0);
        assert!(hi > lo);
        let (rlo, rhi) = f.scalar_range(Scalar::Density);
        assert_eq!(rlo, 1.0);
        assert_eq!(rhi, 1.0);
    }
}

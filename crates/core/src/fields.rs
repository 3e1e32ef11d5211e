//! Macroscopic field snapshots — the data the in situ pipeline consumes.
//!
//! The whole-snapshot reductions here fold serially **in index order**
//! on the caller's thread and allocate nothing, so a snapshot's mass or
//! mean speed is one value whatever the rank count that produced it.

use hemelb_geometry::{SiteKind, SparseGeometry};

/// Macroscopic fields over the fluid sites at one time step, indexed by
/// fluid-site id.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSnapshot {
    /// Time step the snapshot was taken at.
    pub step: u64,
    /// Density per site (lattice units; pressure = cs²ρ).
    pub rho: Vec<f64>,
    /// Velocity per site (lattice units).
    pub u: Vec<[f64; 3]>,
    /// Shear-rate magnitude per site; the basis of the wall-shear-stress
    /// observable the paper calls "physiologically relevant".
    pub shear: Vec<f64>,
}

impl FieldSnapshot {
    /// Number of sites covered.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Total mass `Σ ρ`.
    pub fn mass(&self) -> f64 {
        self.rho.iter().sum()
    }

    /// Speed `|u|` at a site.
    #[inline]
    pub fn speed(&self, i: usize) -> f64 {
        let u = self.u[i];
        (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt()
    }

    /// Maximum speed over all sites (0 if empty).
    pub fn max_speed(&self) -> f64 {
        (0..self.len()).map(|i| self.speed(i)).fold(0.0, f64::max)
    }

    /// Mean speed over all sites (0 if empty).
    pub fn mean_speed(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            let total: f64 = (0..self.len()).map(|i| self.speed(i)).sum();
            total / self.len() as f64
        }
    }

    /// Root-mean-square velocity difference against another snapshot of
    /// the same geometry — the convergence monitor.
    pub fn velocity_rms_change(&self, other: &FieldSnapshot) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "snapshots must cover the same sites"
        );
        if self.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.len())
            .map(|i| {
                let a = self.u[i];
                let b = other.u[i];
                (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
            })
            .sum();
        (sum / self.len() as f64).sqrt()
    }

    /// Wall shear stress per *wall site*: `τ_w = ρ ν |S|` (lattice
    /// units), zero at non-wall sites. `nu` is the lattice kinematic
    /// viscosity.
    pub fn wall_shear_stress(&self, geo: &SparseGeometry, nu: f64) -> Vec<f64> {
        (0..self.len())
            .map(|i| {
                if geo.kind(i as u32) == SiteKind::Wall {
                    self.rho[i] * nu * self.shear[i]
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Basic consistency checks a steering client displays as "validity"
    /// status (paper §I: "consistency and validity checks"). Returns the
    /// problems found.
    pub fn validity_report(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.rho.iter().any(|r| !r.is_finite()) {
            problems.push("non-finite density encountered".to_string());
        }
        if self.u.iter().flatten().any(|v| !v.is_finite()) {
            problems.push("non-finite velocity encountered".to_string());
        }
        if let Some(min) = self
            .rho
            .iter()
            .cloned()
            .fold(None::<f64>, |m, r| Some(m.map_or(r, |m| m.min(r))))
        {
            if min <= 0.0 {
                problems.push(format!("non-positive density {min}"));
            }
        }
        let maxs = self.max_speed();
        if maxs > 0.5 {
            problems.push(format!("speed {maxs:.3} beyond low-Mach validity"));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn snap(n: usize) -> FieldSnapshot {
        FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.01, 0.0, 0.0]; n],
            shear: vec![0.0; n],
        }
    }

    #[test]
    fn mass_and_speeds() {
        let s = snap(10);
        assert!((s.mass() - 10.0).abs() < 1e-12);
        assert!((s.max_speed() - 0.01).abs() < 1e-12);
        assert!((s.mean_speed() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rms_change_zero_against_self() {
        let s = snap(5);
        assert_eq!(s.velocity_rms_change(&s), 0.0);
        let mut t = s.clone();
        t.u[2] = [0.02, 0.0, 0.0];
        assert!(t.velocity_rms_change(&s) > 0.0);
    }

    #[test]
    fn validity_catches_nan_and_vacuum() {
        let mut s = snap(3);
        assert!(s.validity_report().is_empty());
        s.rho[1] = f64::NAN;
        assert!(!s.validity_report().is_empty());
        let mut s2 = snap(3);
        s2.rho[0] = -0.1;
        assert!(!s2.validity_report().is_empty());
        let mut s3 = snap(3);
        s3.u[0] = [0.9, 0.0, 0.0];
        assert!(!s3.validity_report().is_empty());
    }

    #[test]
    fn wss_is_nonzero_only_on_walls() {
        let geo = VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0);
        let n = geo.fluid_count();
        let s = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.0; 3]; n],
            shear: vec![2.0; n],
        };
        let wss = s.wall_shear_stress(&geo, 0.1);
        for (i, &w) in wss.iter().enumerate() {
            let expect_nonzero = geo.kind(i as u32) == hemelb_geometry::SiteKind::Wall;
            assert_eq!(w > 0.0, expect_nonzero, "site {i}");
        }
    }
}

//! Physical ↔ lattice unit conversion and stability guards.
//!
//! HemeLB targets physiological flows: vessel diameters of millimetres,
//! peak velocities of ~0.1–1 m/s, blood kinematic viscosity ≈ 3.3×10⁻⁶
//! m²/s. The converter fixes the lattice spacing `dx` (m), time step
//! `dt` (s) and reference density `rho0` (kg/m³) and derives everything
//! else, checking the standard LB validity conditions (τ in a stable
//! range, low Mach number).

use crate::CS2;

/// Converts between physical (SI) and lattice units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitConverter {
    /// Lattice spacing, metres per cell.
    pub dx: f64,
    /// Time step, seconds per LB step.
    pub dt: f64,
    /// Reference density, kg/m³ (blood ≈ 1050).
    pub rho0: f64,
}

impl UnitConverter {
    /// Construct with explicit scales.
    pub fn new(dx: f64, dt: f64, rho0: f64) -> Self {
        assert!(dx > 0.0 && dt > 0.0 && rho0 > 0.0);
        UnitConverter { dx, dt, rho0 }
    }

    /// Pick `dt` so that a physical kinematic viscosity `nu_phys`
    /// maps to the requested relaxation time `tau` at spacing `dx`:
    /// `ν_lat = cs²(τ−½)` and `ν_lat = ν_phys dt/dx²`.
    pub fn for_viscosity(dx: f64, nu_phys: f64, tau: f64, rho0: f64) -> Self {
        assert!(tau > 0.5, "tau must exceed 1/2 for positive viscosity");
        let nu_lat = CS2 * (tau - 0.5);
        let dt = nu_lat * dx * dx / nu_phys;
        UnitConverter::new(dx, dt, rho0)
    }

    /// Lattice kinematic viscosity for a physical one.
    pub fn viscosity_to_lattice(&self, nu_phys: f64) -> f64 {
        nu_phys * self.dt / (self.dx * self.dx)
    }

    /// Relaxation time implied by a physical kinematic viscosity.
    pub fn tau_for_viscosity(&self, nu_phys: f64) -> f64 {
        self.viscosity_to_lattice(nu_phys) / CS2 + 0.5
    }

    /// m/s → lattice velocity.
    pub fn velocity_to_lattice(&self, v_phys: f64) -> f64 {
        v_phys * self.dt / self.dx
    }

    /// Lattice velocity → m/s.
    pub fn velocity_to_physical(&self, v_lat: f64) -> f64 {
        v_lat * self.dx / self.dt
    }

    /// Pa → lattice density deviation: `p = cs² ρ` in lattice units with
    /// the reference pressure mapped to ρ_lat = 1.
    pub fn pressure_to_lattice_density(&self, p_phys: f64) -> f64 {
        let p_lat = p_phys * self.dt * self.dt / (self.rho0 * self.dx * self.dx);
        1.0 + p_lat / CS2
    }

    /// Lattice density → gauge pressure in Pa.
    pub fn lattice_density_to_pressure(&self, rho_lat: f64) -> f64 {
        (rho_lat - 1.0) * CS2 * self.rho0 * self.dx * self.dx / (self.dt * self.dt)
    }

    /// Lattice shear stress → Pa.
    pub fn stress_to_physical(&self, s_lat: f64) -> f64 {
        s_lat * self.rho0 * self.dx * self.dx / (self.dt * self.dt)
    }

    /// Validity checks: returns problems found (empty = fine).
    pub fn stability_report(&self, tau: f64, u_max_lat: f64) -> Vec<String> {
        let mut problems = Vec::new();
        if tau <= 0.5 {
            problems.push(format!("tau = {tau} <= 0.5: negative viscosity"));
        } else if tau < 0.51 {
            problems.push(format!("tau = {tau} < 0.51: BGK likely unstable"));
        }
        if tau > 2.0 {
            problems.push(format!("tau = {tau} > 2: accuracy degraded"));
        }
        let mach = u_max_lat / CS2.sqrt();
        if mach > 0.3 {
            problems.push(format!("Mach = {mach:.3} > 0.3: compressibility errors"));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blood-like parameters used across tests. At dx = 50 µm the
    /// diffusive scaling forces a small τ to keep peak arterial speeds
    /// low-Mach (this is why HemeLB runs close to the stability limit).
    fn blood() -> UnitConverter {
        UnitConverter::for_viscosity(50e-6, 3.3e-6, 0.55, 1050.0)
    }

    #[test]
    fn viscosity_round_trip() {
        let uc = blood();
        let tau = uc.tau_for_viscosity(3.3e-6);
        assert!((tau - 0.55).abs() < 1e-12);
    }

    #[test]
    fn velocity_round_trip() {
        let uc = blood();
        let v = 0.4; // m/s, typical arterial peak
        let lat = uc.velocity_to_lattice(v);
        assert!((uc.velocity_to_physical(lat) - v).abs() < 1e-12);
        // Must be low-Mach for LB validity at these scales.
        assert!(lat < 0.3, "lattice velocity {lat} too high");
    }

    #[test]
    fn pressure_round_trip() {
        let uc = blood();
        let p = 120.0; // Pa gauge
        let rho = uc.pressure_to_lattice_density(p);
        assert!((uc.lattice_density_to_pressure(rho) - p).abs() < 1e-9);
        assert!(rho > 1.0);
        assert!(
            (rho - 1.0).abs() < 0.1,
            "pressure must be a small density perturbation, got {rho}"
        );
    }

    #[test]
    fn stability_report_flags_bad_parameters() {
        let uc = blood();
        assert!(uc.stability_report(0.55, 0.05).is_empty());
        assert!(!uc.stability_report(0.4, 0.05).is_empty());
        assert!(!uc.stability_report(0.8, 0.5).is_empty());
        assert!(!uc.stability_report(2.5, 0.05).is_empty());
    }

    #[test]
    #[should_panic]
    fn tau_below_half_rejected() {
        UnitConverter::for_viscosity(50e-6, 3.3e-6, 0.5, 1050.0);
    }
}

//! Boundary conditions on missing lattice links.
//!
//! Site `s` is missing the population arriving along `c_i` whenever the
//! upstream cell `s − c_i` is not fluid. The rule applied depends on the
//! site's classification:
//!
//! * **wall** — halfway bounce-back (no-slip at the midpoint);
//! * **velocity iolet** — Ladd bounce-back with the prescribed wall
//!   velocity, equivalent to non-equilibrium bounce-back to first order;
//! * **pressure iolet** — anti-bounce-back against the prescribed
//!   density, using the site's own velocity estimate.
//!
//! All three rules are *local* to the site, which is what keeps the
//! distributed solver's communication limited to the halo exchange.

use crate::model::LatticeModel;
use crate::CS2;
use hemelb_geometry::{IoLet, Vec3};

/// Prescription applied at one open boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoletBc {
    /// Prescribed inflow velocity along the inward normal.
    Velocity {
        /// Peak speed (lattice units/step) at the disk centre.
        peak: f64,
        /// If true the speed falls off parabolically to zero at the disk
        /// rim (Poiseuille profile); if false it is flat.
        parabolic: bool,
    },
    /// Prescribed density (pressure `p = cs² ρ`).
    Pressure {
        /// Boundary density in lattice units (1.0 = reference pressure).
        rho: f64,
    },
    /// Pulsatile velocity inflow — the physiological (cardiac-cycle)
    /// inlet: the instantaneous peak speed is
    /// `peak · (1 + amplitude · sin(2π t / period))`.
    Pulsatile {
        /// Cycle-mean peak speed at the disk centre.
        peak: f64,
        /// Parabolic (Poiseuille) profile across the disk if true.
        parabolic: bool,
        /// Relative oscillation amplitude (0 = steady, 1 = flow stops at
        /// the trough).
        amplitude: f64,
        /// Cycle length in time steps.
        period: u64,
    },
}

impl IoletBc {
    /// Time-dependent scale of the boundary velocity at step `t`
    /// (1.0 for steady prescriptions).
    pub(crate) fn pulse_factor(&self, t: u64) -> f64 {
        match *self {
            IoletBc::Pulsatile {
                amplitude, period, ..
            } => {
                let phase =
                    2.0 * std::f64::consts::PI * (t % period.max(1)) as f64 / period.max(1) as f64;
                1.0 + amplitude * phase.sin()
            }
            _ => 1.0,
        }
    }
}

impl IoletBc {
    /// The velocity this BC prescribes at lattice position `pos` of the
    /// given iolet disk (zero for pressure BCs). Points *into* the
    /// domain (opposite the iolet's outward normal).
    pub fn velocity_at(&self, iolet: &IoLet, pos: Vec3) -> [f64; 3] {
        let (peak, parabolic) = match *self {
            IoletBc::Pressure { .. } => return [0.0; 3],
            IoletBc::Velocity { peak, parabolic } => (peak, parabolic),
            IoletBc::Pulsatile {
                peak, parabolic, ..
            } => (peak, parabolic),
        };
        let factor = if parabolic {
            let rel = pos - iolet.centre;
            let radial = rel - iolet.normal * rel.dot(iolet.normal);
            let r2 = radial.norm2() / (iolet.radius * iolet.radius);
            (1.0 - r2).max(0.0)
        } else {
            1.0
        };
        let u = -iolet.normal * (peak * factor);
        [u.x, u.y, u.z]
    }
}

/// Ladd moving-wall bounce-back:
/// `f_i = f*_opp + 2 w_i ρ₀ (c_i·u_w)/cs²` with ρ₀ = 1.
#[inline]
pub(crate) fn velocity_bounce_back(
    model: &LatticeModel,
    i: usize,
    u_wall: [f64; 3],
    f_star_opp: f64,
) -> f64 {
    f_star_opp + 2.0 * model.w[i] * model.ci_dot(i, u_wall) / CS2
}

/// Anti-bounce-back pressure condition:
/// `f_i = −f*_opp + 2 w_i ρ_w (1 + (c_i·u)²/2cs⁴ − u²/2cs²)`
/// with the site's own velocity estimate `u`.
#[inline]
pub(crate) fn pressure_anti_bounce_back(
    model: &LatticeModel,
    i: usize,
    rho_wall: f64,
    u_site: [f64; 3],
    f_star_opp: f64,
) -> f64 {
    let cu = model.ci_dot(i, u_site);
    let u2 = u_site[0] * u_site[0] + u_site[1] * u_site[1] + u_site[2] * u_site[2];
    -f_star_opp
        + 2.0 * model.w[i] * rho_wall * (1.0 + cu * cu / (2.0 * CS2 * CS2) - u2 / (2.0 * CS2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::IoLetKind;

    fn disk() -> IoLet {
        IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(0.0, 5.0, 5.0),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius: 4.0,
        }
    }

    #[test]
    fn parabolic_profile_peaks_at_centre_and_vanishes_at_rim() {
        let bc = IoletBc::Velocity {
            peak: 0.1,
            parabolic: true,
        };
        let io = disk();
        let at_centre = bc.velocity_at(&io, io.centre);
        assert!((at_centre[0] - 0.1).abs() < 1e-12, "into +x");
        let at_rim = bc.velocity_at(&io, Vec3::new(0.0, 9.0, 5.0));
        assert!(at_rim[0].abs() < 1e-12);
        let halfway = bc.velocity_at(&io, Vec3::new(0.0, 7.0, 5.0));
        assert!((halfway[0] - 0.075).abs() < 1e-12, "1 - (1/2)² = 3/4");
    }

    #[test]
    fn flat_profile_ignores_radius() {
        let bc = IoletBc::Velocity {
            peak: 0.2,
            parabolic: false,
        };
        let io = disk();
        let v = bc.velocity_at(&io, Vec3::new(0.0, 8.9, 5.0));
        assert!((v[0] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pulse_factor_oscillates_about_one() {
        let bc = IoletBc::Pulsatile {
            peak: 0.05,
            parabolic: true,
            amplitude: 0.5,
            period: 100,
        };
        assert!((bc.pulse_factor(0) - 1.0).abs() < 1e-12);
        assert!((bc.pulse_factor(25) - 1.5).abs() < 1e-12, "crest at T/4");
        assert!((bc.pulse_factor(75) - 0.5).abs() < 1e-12, "trough at 3T/4");
        // Steady BCs never modulate.
        assert_eq!(IoletBc::Pressure { rho: 1.0 }.pulse_factor(7), 1.0);
        assert_eq!(
            IoletBc::Velocity {
                peak: 0.1,
                parabolic: false
            }
            .pulse_factor(7),
            1.0
        );
    }

    #[test]
    fn pulsatile_base_profile_matches_velocity_profile() {
        let steady = IoletBc::Velocity {
            peak: 0.1,
            parabolic: true,
        };
        let pulsing = IoletBc::Pulsatile {
            peak: 0.1,
            parabolic: true,
            amplitude: 0.8,
            period: 50,
        };
        let io = disk();
        let p = Vec3::new(0.0, 7.0, 5.0);
        assert_eq!(steady.velocity_at(&io, p), pulsing.velocity_at(&io, p));
    }

    #[test]
    fn pressure_bc_prescribes_no_velocity() {
        let bc = IoletBc::Pressure { rho: 1.01 };
        assert_eq!(bc.velocity_at(&disk(), Vec3::ZERO), [0.0; 3]);
    }

    #[test]
    fn stationary_wall_reflects_exactly() {
        let model = LatticeModel::d3q15();
        // With zero wall velocity, Ladd reduces to halfway bounce-back:
        // the opposite post-collision population as it is.
        for i in 0..model.q {
            assert_eq!(velocity_bounce_back(&model, i, [0.0; 3], 0.123), 0.123);
        }
    }

    #[test]
    fn abb_at_rest_returns_weighted_density() {
        let model = LatticeModel::d3q15();
        // f*_opp = w_i ρ at rest ⇒ f_i = −w_i ρ + 2 w_i ρ = w_i ρ: the
        // equilibrium is reproduced and the boundary is stationary.
        let rho = 1.05;
        for i in 0..model.q {
            let f = pressure_anti_bounce_back(&model, i, rho, [0.0; 3], model.w[i] * rho);
            assert!((f - model.w[i] * rho).abs() < 1e-14);
        }
    }
}

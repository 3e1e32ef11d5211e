//! Collision operators: LBGK (single relaxation time) and TRT (two
//! relaxation times).

use crate::equilibrium::{feq, moments};
use crate::model::LatticeModel;

/// Which collision operator the solver applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollisionKind {
    /// Single-relaxation-time BGK with relaxation time τ.
    Bgk,
    /// Two-relaxation-time: even moments relax with τ, odd moments with
    /// τ⁻ chosen from the "magic parameter" Λ = (τ−½)(τ⁻−½).
    /// Λ = 3/16 places halfway bounce-back walls exactly for plane
    /// channels.
    Trt {
        /// The magic parameter Λ.
        magic: f64,
    },
    /// Multiple relaxation times (see [`crate::mrt`]): shear moments at
    /// `1/τ`, ghost/bulk modes at `omega_ghost`. Handled by the solvers
    /// through a per-solver [`crate::mrt::MrtOperator`]; calling the
    /// plain [`collide`] with this kind panics.
    Mrt {
        /// Relaxation rate of the non-hydrodynamic modes.
        omega_ghost: f64,
    },
}

impl CollisionKind {
    /// The standard TRT with Λ = 3/16.
    pub fn trt_magic() -> Self {
        CollisionKind::Trt { magic: 3.0 / 16.0 }
    }
}

/// Apply one collision to the `q` populations of a single site,
/// returning the site's pre-collision macroscopic moments.
///
/// `f` is updated in place to the post-collision state `f*`.
#[inline]
pub fn collide(
    model: &LatticeModel,
    kind: CollisionKind,
    tau: f64,
    f: &mut [f64],
    scratch: &mut [f64],
) -> (f64, [f64; 3]) {
    let (rho, u) = moments(model, f);
    match kind {
        CollisionKind::Mrt { .. } => {
            unreachable!("MRT collisions go through mrt::MrtOperator (solver-managed state)")
        }
        CollisionKind::Bgk => {
            let omega = 1.0 / tau;
            for (i, fi) in f.iter_mut().enumerate() {
                let fe = feq(model, i, rho, u);
                *fi += omega * (fe - *fi);
            }
        }
        CollisionKind::Trt { magic } => {
            // τ⁺ = τ; τ⁻ from Λ = (τ⁺−½)(τ⁻−½).
            let tau_minus = 0.5 + magic / (tau - 0.5);
            let om_p = 1.0 / tau;
            let om_m = 1.0 / tau_minus;
            // scratch holds equilibria.
            for (i, s) in scratch.iter_mut().enumerate() {
                *s = feq(model, i, rho, u);
            }
            for i in 0..model.q {
                let o = model.opp[i];
                if o < i {
                    continue; // handle each pair once (o == i only for rest)
                }
                let f_p = 0.5 * (f[i] + f[o]);
                let f_m = 0.5 * (f[i] - f[o]);
                let e_p = 0.5 * (scratch[i] + scratch[o]);
                let e_m = 0.5 * (scratch[i] - scratch[o]);
                let d_p = om_p * (e_p - f_p);
                let d_m = om_m * (e_m - f_m);
                f[i] += d_p + d_m;
                if o != i {
                    f[o] += d_p - d_m;
                }
            }
        }
    }
    (rho, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::feq_all;

    fn check_conservation(kind: CollisionKind) {
        let model = LatticeModel::d3q15();
        // A non-equilibrium state: equilibrium plus an asymmetric bump.
        let mut f = vec![0.0; model.q];
        feq_all(&model, 1.1, [0.05, -0.02, 0.03], &mut f);
        f[3] += 0.01;
        f[8] -= 0.004;
        let (rho0, u0) = moments(&model, &f);
        let mut scratch = vec![0.0; model.q];
        collide(&model, kind, 0.9, &mut f, &mut scratch);
        let (rho1, u1) = moments(&model, &f);
        assert!((rho1 - rho0).abs() < 1e-14, "mass conserved");
        for a in 0..3 {
            assert!(
                (u1[a] * rho1 - u0[a] * rho0).abs() < 1e-14,
                "momentum conserved"
            );
        }
    }

    #[test]
    fn bgk_conserves_mass_and_momentum() {
        check_conservation(CollisionKind::Bgk);
    }

    #[test]
    fn trt_conserves_mass_and_momentum() {
        check_conservation(CollisionKind::trt_magic());
    }

    #[test]
    fn equilibrium_is_a_fixed_point() {
        for kind in [CollisionKind::Bgk, CollisionKind::trt_magic()] {
            let model = LatticeModel::d3q19();
            let mut f = vec![0.0; model.q];
            feq_all(&model, 0.97, [0.02, 0.04, -0.01], &mut f);
            let before = f.clone();
            let mut scratch = vec![0.0; model.q];
            collide(&model, kind, 0.7, &mut f, &mut scratch);
            for i in 0..model.q {
                assert!((f[i] - before[i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn bgk_tau_one_jumps_to_equilibrium() {
        let model = LatticeModel::d3q15();
        let mut f = vec![0.0; model.q];
        feq_all(&model, 1.0, [0.0; 3], &mut f);
        f[1] += 0.02;
        f[2] -= 0.02; // keep mass; perturb momentum symmetrically? no — any perturbation works
        let (rho, u) = moments(&model, &f);
        let mut scratch = vec![0.0; model.q];
        collide(&model, CollisionKind::Bgk, 1.0, &mut f, &mut scratch);
        // With τ = 1 the post-collision state is exactly f_eq(ρ, u).
        for (i, &fi) in f.iter().enumerate() {
            assert!((fi - feq(&model, i, rho, u)).abs() < 1e-14);
        }
    }

    #[test]
    fn trt_reduces_to_bgk_when_taus_match() {
        // If Λ = (τ−½)², then τ⁻ = τ and TRT == BGK.
        let model = LatticeModel::d3q15();
        let tau = 0.8;
        let magic = (tau - 0.5) * (tau - 0.5);
        let mut f1 = vec![0.0; model.q];
        feq_all(&model, 1.05, [0.03, 0.0, -0.04], &mut f1);
        f1[5] += 0.006;
        let mut f2 = f1.clone();
        let mut scratch = vec![0.0; model.q];
        collide(&model, CollisionKind::Bgk, tau, &mut f1, &mut scratch);
        collide(
            &model,
            CollisionKind::Trt { magic },
            tau,
            &mut f2,
            &mut scratch,
        );
        for i in 0..model.q {
            assert!((f1[i] - f2[i]).abs() < 1e-13, "dir {i}");
        }
    }
}

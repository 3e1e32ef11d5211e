//! Maxwell–Boltzmann equilibrium (second-order expansion) and moment
//! computation.

use crate::model::LatticeModel;
use crate::CS2;

/// Equilibrium distribution
/// `f_i^eq = w_i ρ (1 + c·u/cs² + (c·u)²/2cs⁴ − u²/2cs²)`.
#[inline]
pub(crate) fn feq(model: &LatticeModel, i: usize, rho: f64, u: [f64; 3]) -> f64 {
    let cu = model.ci_dot(i, u);
    let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    model.w[i] * rho * (1.0 + cu / CS2 + cu * cu / (2.0 * CS2 * CS2) - u2 / (2.0 * CS2))
}

/// Fill `out[0..q]` with the equilibrium for `(rho, u)`.
pub fn feq_all(model: &LatticeModel, rho: f64, u: [f64; 3], out: &mut [f64]) {
    debug_assert_eq!(out.len(), model.q);
    let u2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    for (i, o) in out.iter_mut().enumerate() {
        let cu = model.ci_dot(i, u);
        *o = model.w[i] * rho * (1.0 + cu / CS2 + cu * cu / (2.0 * CS2 * CS2) - u2 / (2.0 * CS2));
    }
}

/// Density and velocity moments of a distribution: `ρ = Σ f_i`,
/// `ρ u = Σ c_i f_i`.
#[inline]
pub fn moments(model: &LatticeModel, f: &[f64]) -> (f64, [f64; 3]) {
    debug_assert_eq!(f.len(), model.q);
    let mut rho = 0.0;
    let mut mom = [0.0f64; 3];
    for (&fi, c) in f.iter().zip(&model.c) {
        rho += fi;
        mom[0] += c[0] as f64 * fi;
        mom[1] += c[1] as f64 * fi;
        mom[2] += c[2] as f64 * fi;
    }
    let u = if rho != 0.0 {
        [mom[0] / rho, mom[1] / rho, mom[2] / rho]
    } else {
        [0.0; 3]
    };
    (rho, u)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deviatoric non-equilibrium momentum-flux tensor
    /// `Π^neq_ab = Σ c_ia c_ib (f_i − f_i^eq)`, returned as the 6 unique
    /// components `[xx, yy, zz, xy, xz, yz]`. Used for the shear-rate and
    /// wall-shear-stress observables (the paper's "wall stress
    /// distributions").
    pub(crate) fn pi_neq(model: &LatticeModel, f: &[f64], rho: f64, u: [f64; 3]) -> [f64; 6] {
        let mut pi = [0.0f64; 6];
        for (i, &fi) in f.iter().enumerate() {
            let fi_neq = fi - feq(model, i, rho, u);
            let cx = model.c[i][0] as f64;
            let cy = model.c[i][1] as f64;
            let cz = model.c[i][2] as f64;
            pi[0] += cx * cx * fi_neq;
            pi[1] += cy * cy * fi_neq;
            pi[2] += cz * cz * fi_neq;
            pi[3] += cx * cy * fi_neq;
            pi[4] += cx * cz * fi_neq;
            pi[5] += cy * cz * fi_neq;
        }
        pi
    }

    /// Shear-rate magnitude `|S| = sqrt(2 S:S)` from the non-equilibrium
    /// stress, with `S_ab = −Π^neq_ab / (2 ρ cs² τ)`.
    pub(crate) fn shear_rate_magnitude(pi: [f64; 6], rho: f64, tau: f64) -> f64 {
        let scale = -1.0 / (2.0 * rho * CS2 * tau);
        let s = [
            pi[0] * scale,
            pi[1] * scale,
            pi[2] * scale,
            pi[3] * scale,
            pi[4] * scale,
            pi[5] * scale,
        ];
        let ss = s[0] * s[0]
            + s[1] * s[1]
            + s[2] * s[2]
            + 2.0 * (s[3] * s[3] + s[4] * s[4] + s[5] * s[5]);
        (2.0 * ss).sqrt()
    }

    #[test]
    fn equilibrium_reproduces_its_moments() {
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let rho = 1.05;
            let u = [0.04, -0.02, 0.01];
            let mut f = vec![0.0; model.q];
            feq_all(&model, rho, u, &mut f);
            let (r2, u2) = moments(&model, &f);
            assert!((r2 - rho).abs() < 1e-12, "{}", model.name);
            for a in 0..3 {
                assert!((u2[a] - u[a]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn equilibrium_at_rest_is_weights_times_rho() {
        let model = LatticeModel::d3q15();
        for i in 0..model.q {
            let f = feq(&model, i, 2.0, [0.0; 3]);
            assert!((f - 2.0 * model.w[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn pi_neq_vanishes_at_equilibrium() {
        let model = LatticeModel::d3q19();
        let mut f = vec![0.0; model.q];
        feq_all(&model, 0.98, [0.03, 0.01, -0.02], &mut f);
        let (rho, u) = moments(&model, &f);
        let pi = pi_neq(&model, &f, rho, u);
        for c in pi {
            assert!(c.abs() < 1e-12);
        }
        assert!(shear_rate_magnitude(pi, rho, 0.8).abs() < 1e-10);
    }

    #[test]
    fn feq_positive_at_low_mach() {
        let model = LatticeModel::d3q15();
        for i in 0..model.q {
            assert!(feq(&model, i, 1.0, [0.1, 0.05, -0.08]) > 0.0);
        }
    }
}

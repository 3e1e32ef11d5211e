//! Multiple-relaxation-time (MRT) collision.
//!
//! BGK relaxes every kinetic moment at the same rate; MRT relaxes each
//! moment class at its own rate, which decouples the ghost (non-hydro-
//! dynamic) modes from the viscosity and markedly improves stability at
//! low τ — the regime blood-flow lattices are pushed into (cf. the unit
//! converter: arterial speeds at 50 µm force τ near ½).
//!
//! Rather than transcribing a published moment matrix (easy to get
//! subtly wrong per lattice), the transform is **constructed at run
//! time**: the monomial moments
//! `{1, cx, cy, cz, |c|², cx²−cy², cx²−cz², cx cy, cx cz, cy cz, …}`
//! are orthogonalised by Gram–Schmidt under the lattice inner product
//! `⟨a, b⟩ = Σ_i a(c_i) b(c_i)`, exactly as in d'Humières-style MRT.
//! Moments 0–3 (density, momentum) are conserved; the quadratic shear
//! moments relax with `1/τ`; everything else (bulk + ghost modes)
//! relaxes with a tunable `omega_ghost`. With `omega_ghost = 1/τ` the
//! operator reduces to BGK exactly (asserted in tests).

use crate::equilibrium::feq_all;
use crate::model::LatticeModel;

/// Moment classes with distinct relaxation rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MomentClass {
    /// Collision invariants (ρ, j): never relaxed.
    Conserved,
    /// Traceless second-order (shear stress): sets the viscosity.
    Shear,
    /// Everything else (bulk stress + ghost modes).
    Ghost,
}

/// A runtime-built MRT operator for one velocity set.
#[derive(Debug, Clone)]
pub struct MrtOperator {
    q: usize,
    /// Orthonormal moment basis, row-major `q × q`
    /// (`basis[m][i]` = m-th moment's weight on direction `i`).
    basis: Vec<f64>,
    class: Vec<MomentClass>,
    /// Relaxation rate of the ghost/bulk modes.
    pub omega_ghost: f64,
    scratch_feq: Vec<f64>,
}

/// The monomial seeds, most important first. Gram–Schmidt makes each
/// orthogonal to its predecessors; seeds that turn out linearly
/// dependent on the span so far are skipped.
fn monomials(c: [i32; 3]) -> Vec<f64> {
    let (x, y, z) = (c[0] as f64, c[1] as f64, c[2] as f64);
    let c2 = x * x + y * y + z * z;
    let mut seeds = vec![
        1.0,
        x,
        y,
        z,
        c2,
        x * x - y * y,
        x * x - z * z,
        x * y,
        x * z,
        y * z,
    ];
    // Completion: all tensor-product monomials x^a y^b z^c with
    // exponents ≤ 2. On lattice velocities (components in {−1, 0, 1})
    // these span the *entire* function space over the direction set, so
    // Gram–Schmidt always reaches a full basis whatever the lattice;
    // everything picked up here is a ghost/bulk mode.
    for a in 0..3u32 {
        for b in 0..3u32 {
            for cc in 0..3u32 {
                seeds.push(x.powi(a as i32) * y.powi(b as i32) * z.powi(cc as i32));
            }
        }
    }
    seeds
}

fn class_of(seed_index: usize) -> MomentClass {
    match seed_index {
        0..=3 => MomentClass::Conserved,
        5..=9 => MomentClass::Shear,
        _ => MomentClass::Ghost, // includes |c|² (bulk viscosity)
    }
}

impl MrtOperator {
    /// Build the operator for `model`, with ghost modes relaxed at
    /// `omega_ghost` (a common robust choice is 1.2–1.8; 1.0/τ
    /// reproduces BGK).
    ///
    /// # Panics
    /// Panics if the monomial seeds fail to span the `q`-dimensional
    /// moment space (cannot happen for D3Q15/D3Q19).
    pub fn new(model: &LatticeModel, omega_ghost: f64) -> Self {
        let q = model.q;
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(q);
        let mut class = Vec::with_capacity(q);

        let seeds: Vec<Vec<f64>> = {
            // seed_vectors[s][i] = monomial_s(c_i)
            let per_dir: Vec<Vec<f64>> = (0..q).map(|i| monomials(model.c[i])).collect();
            let n_seeds = per_dir[0].len();
            (0..n_seeds)
                .map(|s| (0..q).map(|i| per_dir[i][s]).collect())
                .collect()
        };

        for (s, seed) in seeds.iter().enumerate() {
            if basis.len() == q {
                break;
            }
            // Gram–Schmidt against the accepted rows.
            let mut v = seed.clone();
            for row in &basis {
                let dot: f64 = v.iter().zip(row).map(|(a, b)| a * b).sum();
                for (vi, ri) in v.iter_mut().zip(row) {
                    *vi -= dot * ri;
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-9 {
                continue; // dependent on the span so far
            }
            for vi in v.iter_mut() {
                *vi /= norm;
            }
            basis.push(v);
            class.push(class_of(s));
        }
        assert_eq!(
            basis.len(),
            q,
            "monomial seeds must span the moment space of {}",
            model.name
        );

        MrtOperator {
            q,
            basis: basis.into_iter().flatten().collect(),
            class,
            omega_ghost,
            scratch_feq: vec![0.0; q],
        }
    }

    /// The relaxation rate of a moment of `class`.
    fn rate(&self, class: MomentClass, omega_shear: f64) -> f64 {
        match class {
            MomentClass::Conserved => 0.0,
            MomentClass::Shear => omega_shear,
            MomentClass::Ghost => self.omega_ghost,
        }
    }

    /// Apply one MRT collision to a site's populations; `tau` sets the
    /// shear (viscosity) rate. Returns the pre-collision `(ρ, u)`.
    pub fn collide(&mut self, model: &LatticeModel, tau: f64, f: &mut [f64]) -> (f64, [f64; 3]) {
        debug_assert_eq!(f.len(), self.q);
        let (rho, u) = crate::equilibrium::moments(model, f);
        feq_all(model, rho, u, &mut self.scratch_feq);

        // Relax in moment space: f ← f − Mᵀ S M (f − f_eq).
        // With an orthonormal basis, M⁻¹ = Mᵀ.
        let omega_shear = 1.0 / tau;
        for m in 0..self.q {
            let rate = self.rate(self.class[m], omega_shear);
            if rate == 0.0 {
                continue;
            }
            let row = &self.basis[m * self.q..(m + 1) * self.q];
            let m_neq: f64 = row
                .iter()
                .zip(f.iter().zip(&self.scratch_feq))
                .map(|(b, (fi, fe))| b * (fi - fe))
                .sum();
            let delta = rate * m_neq;
            for (fi, b) in f.iter_mut().zip(row) {
                *fi -= delta * b;
            }
        }
        (rho, u)
    }

    /// The relaxation of [`collide`](Self::collide) over `N` sites at
    /// once: `f[i]` and `fe[i]` hold direction `i`'s populations and
    /// equilibria of the `N` sites. Per site it is the same operation
    /// sequence — moments in index order, each non-equilibrium moment
    /// summed over directions in index order from the `−0.0` that
    /// `Iterator::sum` starts from, then `f_i −= (rate · m_neq) b_mi` —
    /// so the result is bit-identical; it borrows the operator immutably
    /// and keeps its scratch on the stack.
    pub(crate) fn relax_lanes<const N: usize>(
        &self,
        omega_shear: f64,
        f: &mut [[f64; N]],
        fe: &[[f64; N]],
    ) {
        debug_assert!(f.len() == self.q && fe.len() == self.q);
        for (row, class) in self.basis.chunks_exact(self.q).zip(&self.class) {
            let rate = self.rate(*class, omega_shear);
            if rate == 0.0 {
                continue;
            }
            let mut m_neq = [-0.0f64; N];
            for ((b, fi), fei) in row.iter().zip(f.iter()).zip(fe) {
                for l in 0..N {
                    m_neq[l] += b * (fi[l] - fei[l]);
                }
            }
            let mut delta = [0.0f64; N];
            for l in 0..N {
                delta[l] = rate * m_neq[l];
            }
            for (fi, b) in f.iter_mut().zip(row) {
                for l in 0..N {
                    fi[l] -= delta[l] * b;
                }
            }
        }
    }

    /// Verify the basis is orthonormal (used by tests; cheap).
    pub fn basis_is_orthonormal(&self) -> bool {
        for a in 0..self.q {
            for b in 0..self.q {
                let dot: f64 = (0..self.q)
                    .map(|i| self.basis[a * self.q + i] * self.basis[b * self.q + i])
                    .sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                if (dot - expect).abs() > 1e-9 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::{collide, CollisionKind};
    use crate::equilibrium::moments;

    fn perturbed_state(model: &LatticeModel) -> Vec<f64> {
        let mut f = vec![0.0; model.q];
        feq_all(model, 1.08, [0.03, -0.02, 0.05], &mut f);
        f[1] += 0.013;
        f[4] -= 0.004;
        f[model.q - 1] += 0.002;
        f
    }

    #[test]
    fn basis_spans_and_is_orthonormal() {
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let op = MrtOperator::new(&model, 1.3);
            assert!(op.basis_is_orthonormal(), "{}", model.name);
        }
    }

    #[test]
    fn mrt_conserves_mass_and_momentum() {
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let mut op = MrtOperator::new(&model, 1.6);
            let mut f = perturbed_state(&model);
            let (rho0, u0) = moments(&model, &f);
            op.collide(&model, 0.7, &mut f);
            let (rho1, u1) = moments(&model, &f);
            assert!((rho1 - rho0).abs() < 1e-13, "{}", model.name);
            for a in 0..3 {
                assert!((rho1 * u1[a] - rho0 * u0[a]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn mrt_with_uniform_rates_is_bgk() {
        for model in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let tau = 0.8;
            let mut op = MrtOperator::new(&model, 1.0 / tau);
            let mut f_mrt = perturbed_state(&model);
            let mut f_bgk = f_mrt.clone();
            op.collide(&model, tau, &mut f_mrt);
            let mut scratch = vec![0.0; model.q];
            collide(&model, CollisionKind::Bgk, tau, &mut f_bgk, &mut scratch);
            for i in 0..model.q {
                assert!(
                    (f_mrt[i] - f_bgk[i]).abs() < 1e-12,
                    "{} dir {i}: {} vs {}",
                    model.name,
                    f_mrt[i],
                    f_bgk[i]
                );
            }
        }
    }

    #[test]
    fn equilibrium_is_a_fixed_point_of_mrt() {
        let model = LatticeModel::d3q15();
        let mut op = MrtOperator::new(&model, 1.4);
        let mut f = vec![0.0; model.q];
        feq_all(&model, 0.95, [0.02, 0.01, -0.03], &mut f);
        let before = f.clone();
        op.collide(&model, 0.6, &mut f);
        for i in 0..model.q {
            assert!((f[i] - before[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn ghost_rate_changes_only_ghost_modes() {
        // Two MRT operators with different ghost rates must agree on
        // the hydrodynamic (conserved + shear) moments of the result.
        let model = LatticeModel::d3q15();
        let mut op_a = MrtOperator::new(&model, 1.1);
        let mut op_b = MrtOperator::new(&model, 1.9);
        let mut fa = perturbed_state(&model);
        let mut fb = fa.clone();
        op_a.collide(&model, 0.75, &mut fa);
        op_b.collide(&model, 0.75, &mut fb);
        // Same ρ, u.
        let (ra, ua) = moments(&model, &fa);
        let (rb, ub) = moments(&model, &fb);
        assert!((ra - rb).abs() < 1e-13);
        for a in 0..3 {
            assert!((ua[a] - ub[a]).abs() < 1e-13);
        }
        // Same deviatoric stress (shear moments relaxed identically).
        let pa = crate::equilibrium::tests::pi_neq(&model, &fa, ra, ua);
        let pb = crate::equilibrium::tests::pi_neq(&model, &fb, rb, ub);
        for k in 3..6 {
            // Off-diagonal components are pure shear.
            assert!((pa[k] - pb[k]).abs() < 1e-12, "component {k}");
        }
        // But the populations themselves differ (ghost modes moved).
        assert!(fa.iter().zip(&fb).any(|(x, y)| (x - y).abs() > 1e-9));
    }

    #[test]
    fn mrt_stabilises_low_tau_flow() {
        // A pressure-driven tube at τ = 0.51: BGK-with-ghost-damping
        // (MRT, ghost rate ~1.2) must stay finite and low-Mach where it
        // runs; this exercises the full solver path below.
        use crate::solver::{Solver, SolverConfig};
        use hemelb_geometry::VesselBuilder;
        use std::sync::Arc;
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.004, 0.996)
            .with_tau(0.52)
            .with_collision(CollisionKind::Mrt { omega_ghost: 1.2 });
        let mut s = Solver::new(geo, cfg);
        s.step_n(400);
        let snap = s.snapshot();
        assert!(
            snap.validity_report().is_empty(),
            "{:?}",
            snap.validity_report()
        );
        let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
        assert!(mean_ux > 1e-5, "flow develops under MRT: {mean_ux}");
    }
}

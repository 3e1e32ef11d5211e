//! Discrete velocity sets (lattice models).
//!
//! HemeLB historically uses D3Q15; D3Q19 is provided for cross-checks.
//! Both share `cs² = 1/3` and satisfy the usual isotropy constraints,
//! which the constructors verify eagerly.

use crate::CS2;

/// A discrete velocity set: directions, weights and opposites.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeModel {
    /// Human-readable name ("D3Q15" / "D3Q19").
    pub name: &'static str,
    /// Number of discrete velocities.
    pub q: usize,
    /// Velocity vectors `c_i` (components in {-1, 0, 1}).
    pub c: Vec<[i32; 3]>,
    /// Quadrature weights `w_i`.
    pub w: Vec<f64>,
    /// `opp[i]` is the index of `-c_i`.
    pub opp: Vec<usize>,
}

impl LatticeModel {
    /// The D3Q15 velocity set: rest + 6 axis + 8 cube-corner directions.
    pub fn d3q15() -> Self {
        let mut c = vec![[0, 0, 0]];
        let mut w = vec![2.0 / 9.0];
        for a in 0..3 {
            for s in [1, -1] {
                let mut v = [0, 0, 0];
                v[a] = s;
                c.push(v);
                w.push(1.0 / 9.0);
            }
        }
        for sx in [1, -1] {
            for sy in [1, -1] {
                for sz in [1, -1] {
                    c.push([sx, sy, sz]);
                    w.push(1.0 / 72.0);
                }
            }
        }
        Self::build("D3Q15", c, w)
    }

    /// The D3Q19 velocity set: rest + 6 axis + 12 face-diagonal
    /// directions.
    pub fn d3q19() -> Self {
        let mut c = vec![[0, 0, 0]];
        let mut w = vec![1.0 / 3.0];
        for a in 0..3 {
            for s in [1, -1] {
                let mut v = [0, 0, 0];
                v[a] = s;
                c.push(v);
                w.push(1.0 / 18.0);
            }
        }
        let planes = [(0usize, 1usize), (0, 2), (1, 2)];
        for (a, b) in planes {
            for sa in [1, -1] {
                for sb in [1, -1] {
                    let mut v = [0, 0, 0];
                    v[a] = sa;
                    v[b] = sb;
                    c.push(v);
                    w.push(1.0 / 36.0);
                }
            }
        }
        Self::build("D3Q19", c, w)
    }

    fn build(name: &'static str, c: Vec<[i32; 3]>, w: Vec<f64>) -> Self {
        let q = c.len();
        let mut opp = vec![usize::MAX; q];
        for i in 0..q {
            let neg = [-c[i][0], -c[i][1], -c[i][2]];
            opp[i] = c
                .iter()
                .position(|&v| v == neg)
                .expect("velocity set must be symmetric");
        }
        let model = LatticeModel { name, q, c, w, opp };
        model.validate();
        model
    }

    /// Check the isotropy/normalisation constraints of an isothermal
    /// lattice (weights sum to 1, odd moments vanish, second moment is
    /// `cs² δ_ab`).
    fn validate(&self) {
        let tol = 1e-12;
        let sum_w: f64 = self.w.iter().sum();
        assert!((sum_w - 1.0).abs() < tol, "weights must sum to 1");
        for a in 0..3 {
            let m1: f64 = (0..self.q).map(|i| self.w[i] * self.c[i][a] as f64).sum();
            assert!(m1.abs() < tol, "first moment must vanish");
            for b in 0..3 {
                let m2: f64 = (0..self.q)
                    .map(|i| self.w[i] * self.c[i][a] as f64 * self.c[i][b] as f64)
                    .sum();
                let expect = if a == b { CS2 } else { 0.0 };
                assert!((m2 - expect).abs() < tol, "second moment must be cs² δ");
            }
        }
        for i in 0..self.q {
            assert_eq!(self.opp[self.opp[i]], i, "opposite must be an involution");
        }
    }

    /// Dot product `c_i · u`.
    #[inline]
    pub(crate) fn ci_dot(&self, i: usize, u: [f64; 3]) -> f64 {
        self.c[i][0] as f64 * u[0] + self.c[i][1] as f64 * u[1] + self.c[i][2] as f64 * u[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d3q15_has_15_directions() {
        let m = LatticeModel::d3q15();
        assert_eq!(m.q, 15);
        assert_eq!(m.c[0], [0, 0, 0]);
        assert_eq!(m.opp[0], 0);
    }

    #[test]
    fn d3q19_has_19_directions() {
        let m = LatticeModel::d3q19();
        assert_eq!(m.q, 19);
        // No cube-corner directions in D3Q19.
        assert!(m
            .c
            .iter()
            .all(|v| v[0].abs() + v[1].abs() + v[2].abs() <= 2));
    }

    #[test]
    fn directions_are_unique() {
        for m in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            let set: std::collections::HashSet<_> = m.c.iter().collect();
            assert_eq!(set.len(), m.q, "{}", m.name);
        }
    }

    #[test]
    fn opposites_negate_velocities() {
        for m in [LatticeModel::d3q15(), LatticeModel::d3q19()] {
            for i in 0..m.q {
                let o = m.opp[i];
                assert_eq!(m.c[o][0], -m.c[i][0]);
                assert_eq!(m.c[o][1], -m.c[i][1]);
                assert_eq!(m.c[o][2], -m.c[i][2]);
            }
        }
    }

    #[test]
    fn fourth_moment_isotropy_d3q19() {
        // Σ w c_a c_b c_g c_d = cs⁴ (δab δgd + δag δbd + δad δbg)
        let m = LatticeModel::d3q19();
        let cs4 = CS2 * CS2;
        for a in 0..3 {
            for b in 0..3 {
                let m4: f64 = (0..m.q)
                    .map(|i| {
                        let ca = m.c[i][a] as f64;
                        let cb = m.c[i][b] as f64;
                        m.w[i] * ca * ca * cb * cb
                    })
                    .sum();
                let expect = if a == b { 3.0 * cs4 } else { cs4 };
                assert!((m4 - expect).abs() < 1e-12);
            }
        }
    }
}

//! Physics against external truth: analytic solutions the solver must
//! reproduce, each an assertion with a stated tolerance and no wall
//! clock.
//!
//! **The Poiseuille ladder.** Steady flow in a circular tube of radius
//! R (4 world units, 20 long, τ = 0.9) at lattice spacings dx = 1, ½
//! and ¼, under BGK, TRT-magic and MRT and under both iolet BCs. The
//! reference is the analytic profile at each site's own radius:
//!
//! * pressure BC: u(r) = G (R² − r²) / (4 ρ ν), with G = −c_s² dρ/dx
//!   and ν = (τ − ½)/3 in lattice units. G is taken from a linear fit
//!   of the density over the middle third of the tube, so where the
//!   iolets sit drops out;
//! * velocity BC: u(r) = u_peak (1 − r²/R²), the inlet's own parabola.
//!
//! Scaling is diffusive, so Re is the same on every rung: Δρ = 0.008·dx²
//! (1.004 / 0.996 at dx 1) and u_peak = 0.01·dx, since u ∝ G R² with
//! G ∝ Δρ·dx and R ∝ 1/dx. Each rung runs to a steady state at
//! 1e-10·dx. Its error is the relative L2 distance of the mid-tube
//! cross-section's axial velocity from the analytic profile. A release
//! run read, pressure / velocity BC:
//!
//! | dx | sites | BGK | TRT-magic | MRT |
//! |---|---|---|---|---|
//! | 1 | 936 | 12.70 / 13.88 % | 12.99 / 14.09 % | 12.48 / 13.67 % |
//! | ½ | 7 488 | 5.04 / 5.24 % | 5.25 / 5.35 % | 4.84 / 5.14 % |
//! | ¼ | 58 464 | 2.04 / 2.09 % | 2.05 / 2.11 % | 2.04 / 2.08 % |
//!
//! The observed order between consecutive rungs is 1.25–1.41 in every
//! cell. A staircase wall under halfway bounce-back claims first order,
//! so every cell asserts an order of at least 1.0, and each rung an
//! error bound with at least 8 % headroom over the worst cell: 15 %,
//! 6 % and 2.5 %. On the pressure-BC rungs the sites nearest the axis
//! at mid-tube must also carry the analytic velocity within 2.5 %; they
//! read 0.996–1.014.
//!
//! Runs are bit-deterministic, so each bound guards against a future
//! change, not against noise. Tier 1 asserts the dx 1 pressure cells;
//! the dx 1 and ½ ladder and the mass drift run in release under
//! `--ignored`, and the dx ¼ rung (about 4 minutes in release) under a
//! `soak_` name of its own.
//!
//! **Mass drift.** At a steady state the open boundaries exchange no net
//! mass, so over 5 000 further steps at dx 1 the total mass of every
//! operator × BC cell stays within 1e-9 of its value at the steady
//! state. It read at most 1.4e-10.

use hemelb::core::collision::CollisionKind;
use hemelb::core::{FieldSnapshot, Solver, SolverConfig, CS2};
use hemelb::geometry::{SparseGeometry, VesselBuilder};
use std::sync::Arc;

const RADIUS: f64 = 4.0;
const LENGTH: f64 = 20.0;
const TAU: f64 = 0.9;
/// The axis velocity's band around the analytic value.
const AXIS_BAND: f64 = 0.025;
/// The least observed order of the L2 error in dx between two rungs.
const MIN_ORDER: f64 = 1.0;
/// The rungs: each spacing with its bound on the L2 error.
const RUNGS: [(f64, f64); 3] = [(1.0, 0.15), (0.5, 0.06), (0.25, 0.025)];

fn operators() -> [CollisionKind; 3] {
    [
        CollisionKind::Bgk,
        CollisionKind::trt_magic(),
        CollisionKind::Mrt { omega_ghost: 1.2 },
    ]
}

/// The iolet condition that drives the tube.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    Pressure,
    Velocity,
}

const DRIVES: [Drive; 2] = [Drive::Pressure, Drive::Velocity];

impl Drive {
    /// The configuration at spacing `dx`, in diffusive scaling.
    fn config(self, dx: f64, collision: CollisionKind) -> SolverConfig {
        let cfg = match self {
            Drive::Pressure => {
                let half = 0.004 * dx * dx;
                SolverConfig::pressure_driven(1.0 + half, 1.0 - half)
            }
            Drive::Velocity => SolverConfig::velocity_driven(u_peak(dx)),
        };
        cfg.with_tau(TAU).with_collision(collision)
    }
}

/// The velocity inlet's peak at spacing `dx`.
fn u_peak(dx: f64) -> f64 {
    0.01 * dx
}

/// One rung's comparison with the analytic profile.
#[derive(Debug, Clone, Copy)]
struct Profile {
    /// Relative L2 error of the mid-tube cross-section's axial velocity.
    l2: f64,
    /// Mean over the sites nearest the axis at mid-tube of their
    /// velocity over the analytic one.
    axis_ratio: f64,
}

/// The tube at spacing `dx`, run to a steady state.
fn steady(collision: CollisionKind, drive: Drive, dx: f64) -> Solver {
    let geo = Arc::new(VesselBuilder::straight_tube(LENGTH, RADIUS).voxelise(dx));
    let mut solver = Solver::new(geo, drive.config(dx, collision));
    let (converged, steps, _) = solver.run_to_steady_state(1e-10 * dx, 50, 40_000);
    assert!(
        converged,
        "{collision:?} {drive:?} dx {dx}: no steady state in {steps} steps"
    );
    solver
}

/// G = −c_s² dρ/dx, with dρ/dx by least squares over every site in the
/// middle third of the tube.
fn pressure_gradient(geo: &SparseGeometry, snap: &FieldSnapshot) -> f64 {
    let nx = geo.shape()[0] as u32;
    let mid: Vec<(f64, f64)> = (0..geo.fluid_count())
        .filter(|&i| (nx / 3..2 * nx / 3).contains(&geo.position(i as u32)[0]))
        .map(|i| (geo.position(i as u32)[0] as f64, snap.rho[i]))
        .collect();
    let n = mid.len() as f64;
    let (mx, mr) = mid
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 / n, b + p.1 / n));
    let sxy: f64 = mid.iter().map(|p| (p.0 - mx) * (p.1 - mr)).sum();
    let sxx: f64 = mid.iter().map(|p| (p.0 - mx).powi(2)).sum();
    -CS2 * sxy / sxx
}

/// One cell of the ladder: the steady tube's mid-tube profile against
/// the analytic one.
fn solve(collision: CollisionKind, drive: Drive, dx: f64) -> Profile {
    let solver = steady(collision, drive, dx);
    let geo = solver.geometry();
    let snap = solver.snapshot();
    let radius = RADIUS / dx;

    // Cell centres sit at half-integer offsets from the axis.
    let shape = geo.shape();
    let (cy, cz) = ((shape[1] as f64 - 1.0) / 2.0, (shape[2] as f64 - 1.0) / 2.0);
    let r2 = |y: u32, z: u32| (y as f64 - cy).powi(2) + (z as f64 - cz).powi(2);

    // The analytic profile at site i is amp(i) · (R² − r²).
    let g = pressure_gradient(geo, &snap);
    let nu = (TAU - 0.5) / 3.0;
    let amp = |i: usize| match drive {
        Drive::Pressure => g / (4.0 * snap.rho[i] * nu),
        Drive::Velocity => u_peak(dx) / (radius * radius),
    };

    let x_mid = shape[0] as u32 / 2;
    let (mut err2, mut ref2) = (0.0, 0.0);
    let mut axis = Vec::new();
    for i in 0..geo.fluid_count() {
        let [x, y, z] = geo.position(i as u32);
        if x != x_mid {
            continue;
        }
        let (u, e) = (snap.u[i][0], amp(i) * (radius * radius - r2(y, z)));
        err2 += (u - e).powi(2);
        ref2 += e * e;
        if r2(y, z) <= 0.5 {
            axis.push(u / e);
        }
    }
    assert_eq!(axis.len(), 4, "the four sites around the axis");
    Profile {
        l2: (err2 / ref2).sqrt(),
        axis_ratio: axis.iter().sum::<f64>() / axis.len() as f64,
    }
}

fn assert_axis(p: Profile, cell: &str) {
    assert!(
        (p.axis_ratio - 1.0).abs() <= AXIS_BAND,
        "{cell}: axis velocity / analytic = {}",
        p.axis_ratio
    );
}

/// Solve every operator × drive at the rungs `coarse` and `coarse / 2`
/// and assert each rung's L2 bound, the observed order between them,
/// and the axis band of the pressure-driven cells.
fn assert_rungs(coarse: (f64, f64), fine: (f64, f64)) {
    let ((dx_c, bound_c), (dx_f, bound_f)) = (coarse, fine);
    assert_eq!(dx_f * 2.0, dx_c, "rungs halve dx");
    for collision in operators() {
        for drive in DRIVES {
            let [c, f] = [dx_c, dx_f].map(|dx| solve(collision, drive, dx));
            let order = (c.l2 / f.l2).log2();
            let cell = format!("{collision:?} {drive:?} dx {dx_c} -> {dx_f}");
            println!(
                "{cell}: L2 {:.2} % -> {:.2} %, order {order:.2}, axis {:.4} -> {:.4}",
                100.0 * c.l2,
                100.0 * f.l2,
                c.axis_ratio,
                f.axis_ratio
            );
            assert!(c.l2 <= bound_c, "{cell}: coarse L2 {}", c.l2);
            assert!(f.l2 <= bound_f, "{cell}: fine L2 {}", f.l2);
            assert!(order >= MIN_ORDER, "{cell}: observed order {order}");
            if drive == Drive::Pressure {
                assert_axis(c, &cell);
                assert_axis(f, &cell);
            }
        }
    }
}

#[test]
fn poiseuille_axis_velocity_matches_the_analytic_amplitude() {
    let (dx, bound) = RUNGS[0];
    for collision in operators() {
        let p = solve(collision, Drive::Pressure, dx);
        assert_axis(p, &format!("{collision:?}"));
        assert!(p.l2 <= bound, "{collision:?}: L2 error {}", p.l2);
    }
}

#[test]
#[ignore = "release: the dx 1 and 1/2 rungs, every operator and drive"]
fn poiseuille_ladder_converges_at_first_order() {
    assert_rungs(RUNGS[0], RUNGS[1]);
}

#[test]
#[ignore = "soak: the dx 1/4 rung takes minutes in release"]
fn soak_poiseuille_ladder_at_a_quarter() {
    assert_rungs(RUNGS[1], RUNGS[2]);
}

#[test]
#[ignore = "release: 5 000 steps past the steady state, every operator and drive"]
fn steady_tube_mass_drift_stays_below_1e_9() {
    for collision in operators() {
        for drive in DRIVES {
            let mut solver = steady(collision, drive, 1.0);
            let m0 = solver.mass();
            let mut drift: f64 = 0.0;
            for _ in 0..5_000 {
                solver.step();
                drift = drift.max((solver.mass() - m0).abs() / m0);
            }
            println!("{collision:?} {drive:?}: mass drift {drift:.2e}");
            assert!(drift <= 1e-9, "{collision:?} {drive:?}: mass drift {drift}");
        }
    }
}

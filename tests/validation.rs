//! Physics against external truth: analytic solutions the solver must
//! reproduce, each an assertion with a stated tolerance and no wall
//! clock.
//!
//! **Poiseuille amplitude.** Steady pressure-driven flow in a circular
//! tube of radius R has the axial velocity
//! u(r) = G (R² − r²) / (4 ρ ν), with G = −dp/dx = −c_s² dρ/dx and
//! ν = (τ − ½)/3 in lattice units. G is taken from a linear fit of the
//! density over the middle third of the tube, so where the iolets sit
//! drops out. The sites nearest the axis at mid-tube must carry the
//! analytic velocity at their own radius within 2.5 %. A probe of this
//! tube read 1.003–1.011 under BGK, TRT and MRT, so the bound has about
//! twice the worst deviation as margin. The shape check beside it
//! (`core::solver`'s `poiseuille_profile_in_steady_tube`) asserts only
//! the parabola's form; this one pins its height, and with it the
//! viscosity and the pressure boundary conditions.

use hemelb::core::collision::CollisionKind;
use hemelb::core::{Solver, SolverConfig, CS2};
use hemelb::geometry::VesselBuilder;
use std::sync::Arc;

const RADIUS: f64 = 4.0;
const LENGTH: f64 = 20.0;
const TAU: f64 = 0.9;

/// Velocity of the sites nearest the axis at mid-tube over the analytic
/// Poiseuille velocity at their radius, for one collision operator at
/// dx 1.
fn axis_velocity_ratio(collision: CollisionKind) -> f64 {
    let geo = Arc::new(VesselBuilder::straight_tube(LENGTH, RADIUS).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.004, 0.996)
        .with_tau(TAU)
        .with_collision(collision);
    let mut solver = Solver::new(geo.clone(), cfg);
    let (converged, steps, _) = solver.run_to_steady_state(1e-10, 50, 20_000);
    assert!(converged, "{collision:?}: no steady state in {steps} steps");
    let snap = solver.snapshot();

    // Cell centres sit at half-integer offsets from the axis.
    let shape = geo.shape();
    let (cy, cz) = ((shape[1] as f64 - 1.0) / 2.0, (shape[2] as f64 - 1.0) / 2.0);
    let r2 = |y: u32, z: u32| (y as f64 - cy).powi(2) + (z as f64 - cz).powi(2);

    // dρ/dx by least squares over every site in the middle third.
    let (lo, hi) = (shape[0] as u32 / 3, 2 * shape[0] as u32 / 3);
    let mid: Vec<(f64, f64)> = (0..geo.fluid_count())
        .filter(|&i| (lo..hi).contains(&geo.position(i as u32)[0]))
        .map(|i| (geo.position(i as u32)[0] as f64, snap.rho[i]))
        .collect();
    let n = mid.len() as f64;
    let (mx, mr) = mid
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 / n, b + p.1 / n));
    let sxy: f64 = mid.iter().map(|p| (p.0 - mx) * (p.1 - mr)).sum();
    let sxx: f64 = mid.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let g = -CS2 * sxy / sxx;
    let nu = (TAU - 0.5) / 3.0;

    let x_mid = shape[0] as u32 / 2;
    let near: Vec<usize> = (0..geo.fluid_count())
        .filter(|&i| {
            let [x, y, z] = geo.position(i as u32);
            x == x_mid && r2(y, z) <= 0.5
        })
        .collect();
    assert_eq!(near.len(), 4, "the four sites around the axis");
    let ratios = near.iter().map(|&i| {
        let [_, y, z] = geo.position(i as u32);
        let exact = g * (RADIUS * RADIUS - r2(y, z)) / (4.0 * snap.rho[i] * nu);
        snap.u[i][0] / exact
    });
    ratios.sum::<f64>() / near.len() as f64
}

#[test]
fn poiseuille_axis_velocity_matches_the_analytic_amplitude() {
    for collision in [
        CollisionKind::Bgk,
        CollisionKind::trt_magic(),
        CollisionKind::Mrt { omega_ghost: 1.2 },
    ] {
        let ratio = axis_velocity_ratio(collision);
        assert!(
            (ratio - 1.0).abs() <= 0.025,
            "{collision:?}: axis velocity / analytic = {ratio}"
        );
    }
}

//! Quickstart: build a vessel, run the lattice-Boltzmann solver, check
//! the physics, render a picture.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hemelb::core::{Solver, SolverConfig, CS2};
use hemelb::geometry::{Vec3, VesselBuilder};
use hemelb::insitu::camera::Camera;
use hemelb::insitu::field::{SampledField, Scalar};
use hemelb::insitu::transfer::TransferFunction;
use hemelb::insitu::volume::render_full;
use std::sync::Arc;

fn main() {
    // 1. Geometry: a straight vessel, 24 lattice units long, radius 5.
    let geo = Arc::new(VesselBuilder::straight_tube(24.0, 5.0).voxelise(1.0));
    println!(
        "geometry: {} fluid sites in a {:?} box ({:.1}% fluid)",
        geo.fluid_count(),
        geo.shape(),
        geo.fluid_fraction() * 100.0
    );

    // 2. Physical units: 50 µm cells, blood viscosity and density, τ
    //    chosen for stability at arterial speeds. `dt` follows from
    //    ν_lat = cs²(τ − ½) = ν_phys dt / dx².
    let (dx, nu_phys, tau, rho0) = (50e-6, 3.3e-6, 0.55, 1050.0);
    let dt = CS2 * (tau - 0.5) * dx * dx / nu_phys;
    println!("units: dx = {:.1} µm, dt = {:.2} µs", dx * 1e6, dt * 1e6);

    // 3. Solve a pressure-driven flow to steady state.
    let cfg = SolverConfig::pressure_driven(1.005, 0.995).with_tau(tau);
    let mut solver = Solver::new(geo.clone(), cfg);
    let (converged, steps, residual) = solver.run_to_steady_state(1e-9, 100, 20_000);
    let snap = solver.snapshot();
    println!("solved: converged={converged} after {steps} steps (residual {residual:.2e})");
    println!(
        "flow: max speed {:.4} lattice units = {:.3} m/s physical",
        snap.max_speed(),
        snap.max_speed() * dx / dt
    );
    let problems = snap.validity_report();
    assert!(problems.is_empty(), "validity: {problems:?}");

    // 4. Wall shear stress — the paper's physiologically relevant field.
    let nu = solver.config().viscosity();
    let wss = snap.wall_shear_stress(&geo, nu);
    let max_wss = wss.iter().cloned().fold(0.0, f64::max);
    println!(
        "peak wall shear stress: {:.2e} lattice = {:.3} Pa physical",
        max_wss,
        max_wss * rho0 * dx * dx / (dt * dt)
    );

    // 5. Render the speed field to quickstart.ppm.
    let field = SampledField::new(&geo, &snap);
    let (lo, hi) = field.scalar_range(Scalar::Speed);
    let shape = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(shape[0] as f64, shape[1] as f64, shape[2] as f64),
        Vec3::new(0.2, -1.0, 0.25),
        400,
        300,
    );
    let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));
    let image = render_full(&geo, &snap, Scalar::Speed, &cam, &tf, 0.4).image;
    let path = std::path::Path::new("quickstart.ppm");
    image.write_ppm(path).expect("image written");
    println!(
        "wrote {} ({:.1}% of pixels covered)",
        path.display(),
        image.coverage() * 100.0
    );
}

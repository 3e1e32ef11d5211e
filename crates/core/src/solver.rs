//! The serial sparse-geometry LB solver.
//!
//! Time steps come in AA pairs on one population buffer (see
//! [`crate::layout`]): a local collide, then a fused pull–collide–push,
//! with local boundary rules on missing links. Each pair gives the bits
//! of two collide → pull-stream steps. The distributed solver in
//! [`crate::dist`] reproduces this bit-for-bit; tests assert the
//! equality.

use crate::boundary::{pressure_anti_bounce_back, velocity_bounce_back, IoletBc};
use crate::collision::CollisionKind;
use crate::fields::FieldSnapshot;
use crate::layout::{upstream, SoaLattice};
use crate::model::LatticeModel;
use hemelb_geometry::{IoLetKind, SparseGeometry};
use hemelb_obs::{ObsReport, Recorder};
use std::cell::RefCell;
use std::sync::Arc;

/// Which velocity set to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// 15-velocity set (HemeLB's default).
    D3Q15,
    /// 19-velocity set.
    D3Q19,
}

impl ModelKind {
    /// Instantiate the velocity set.
    pub fn build(self) -> LatticeModel {
        match self {
            ModelKind::D3Q15 => LatticeModel::d3q15(),
            ModelKind::D3Q19 => LatticeModel::d3q19(),
        }
    }
}

/// Solver parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Velocity set.
    pub model: ModelKind,
    /// BGK relaxation time (also the even relaxation time of TRT).
    pub tau: f64,
    /// Collision operator.
    pub collision: CollisionKind,
    /// Boundary prescriptions for inlets, indexed by inlet id (the last
    /// entry is reused for any higher id).
    pub inlet_bcs: Vec<IoletBc>,
    /// Boundary prescriptions for outlets, indexed likewise.
    pub outlet_bcs: Vec<IoletBc>,
}

impl SolverConfig {
    /// Pressure-driven flow: fixed density at the inlet(s) and outlet(s).
    pub fn pressure_driven(rho_in: f64, rho_out: f64) -> Self {
        SolverConfig {
            model: ModelKind::D3Q15,
            tau: 0.8,
            collision: CollisionKind::Bgk,
            inlet_bcs: vec![IoletBc::Pressure { rho: rho_in }],
            outlet_bcs: vec![IoletBc::Pressure { rho: rho_out }],
        }
    }

    /// Parabolic velocity inlet with peak `u_peak`, pressure outlet at
    /// the reference density.
    pub fn velocity_driven(u_peak: f64) -> Self {
        SolverConfig {
            model: ModelKind::D3Q15,
            tau: 0.8,
            collision: CollisionKind::Bgk,
            inlet_bcs: vec![IoletBc::Velocity {
                peak: u_peak,
                parabolic: true,
            }],
            outlet_bcs: vec![IoletBc::Pressure { rho: 1.0 }],
        }
    }

    /// Override the relaxation time.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(tau > 0.5, "tau must exceed 1/2");
        self.tau = tau;
        self
    }

    /// Override the velocity set.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Override the collision operator.
    pub fn with_collision(mut self, collision: CollisionKind) -> Self {
        self.collision = collision;
        self
    }

    /// Lattice kinematic viscosity `cs²(τ−½)`.
    pub fn viscosity(&self) -> f64 {
        crate::CS2 * (self.tau - 0.5)
    }

    /// The BC for inlet `id` (last entry reused beyond the list).
    pub(crate) fn inlet_bc(&self, id: u16) -> IoletBc {
        let idx = (id as usize).min(self.inlet_bcs.len().saturating_sub(1));
        self.inlet_bcs[idx]
    }

    /// The BC for outlet `id`.
    pub(crate) fn outlet_bc(&self, id: u16) -> IoletBc {
        let idx = (id as usize).min(self.outlet_bcs.len().saturating_sub(1));
        self.outlet_bcs[idx]
    }

    /// The BC for inlet or outlet `id`.
    pub(crate) fn iolet_bc(&self, kind: IoLetKind, id: u16) -> IoletBc {
        match kind {
            IoLetKind::Inlet => self.inlet_bc(id),
            IoLetKind::Outlet => self.outlet_bc(id),
        }
    }
}

/// Apply the iolet rule `bc` to the missing link `(s, i)` of an inlet
/// or outlet site. (A wall site's missing link is halfway bounce-back,
/// [`wall_bounce_back`](crate::boundary::wall_bounce_back)`(f) = f`,
/// which leaves the slot of the link as it is.)
///
/// `bc_velocity` is the site's precomputed BC velocity, `f_star_opp`
/// its own post-collision opposite population, `rho_u` its
/// pre-collision moments this step.
#[inline]
pub(crate) fn iolet_rule(
    model: &LatticeModel,
    bc: IoletBc,
    bc_velocity: [f64; 3],
    i: usize,
    f_star_opp: f64,
    rho_u: (f64, [f64; 3]),
    step: u64,
) -> f64 {
    match bc {
        IoletBc::Velocity { .. } | IoletBc::Pulsatile { .. } => {
            let k = bc.pulse_factor(step);
            let u = [bc_velocity[0] * k, bc_velocity[1] * k, bc_velocity[2] * k];
            velocity_bounce_back(model, i, u, f_star_opp)
        }
        IoletBc::Pressure { rho } => pressure_anti_bounce_back(model, i, rho, rho_u.1, f_star_opp),
    }
}

/// The serial solver: the lattice over every fluid site of the
/// geometry, stepped on the calling thread.
pub struct Solver {
    geo: Arc<SparseGeometry>,
    /// Crate-visible for checkpoint restore.
    pub(crate) lat: SoaLattice,
    /// Per-phase observability recorder (`lb.collide` for a step's site
    /// update, either half of a pair, and `lb.macroscopics`).
    /// Interior-mutable so `snapshot(&self)` can record; never touched
    /// inside the per-site kernels, so the instrumentation cannot
    /// perturb results.
    obs: RefCell<Recorder>,
}

impl Solver {
    /// Initialise at rest (`ρ = 1`, `u = 0`) on the given geometry.
    pub fn new(geo: Arc<SparseGeometry>, cfg: SolverConfig) -> Self {
        let model = cfg.model.build();
        let back = upstream(&geo, &model);
        let sites = 0..geo.fluid_count() as u32;
        let links = |s: usize, row: &mut [u32]| geo.offset_sites(s as u32, &back, row);
        Solver {
            lat: SoaLattice::new(&geo, sites, cfg, model, links),
            geo,
            obs: RefCell::new(Recorder::new()),
        }
    }

    /// Run `f` with this solver's observability recorder borrowed
    /// mutably (e.g. to add custom counters or reset between phases).
    pub fn with_obs<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        f(&mut self.obs.borrow_mut())
    }

    /// Snapshot the solver's observability report (phase timings for
    /// the site updates and macroscopic extraction).
    pub fn obs_report(&self) -> ObsReport {
        self.obs.borrow().report()
    }

    /// Disable (or re-enable) phase timing; disabled recording is a
    /// single-branch no-op per step.
    pub fn set_obs_enabled(&self, on: bool) {
        self.obs.borrow_mut().set_enabled(on);
    }

    /// The geometry this solver runs on.
    pub fn geometry(&self) -> &Arc<SparseGeometry> {
        &self.geo
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.lat.cfg
    }

    /// The velocity set.
    pub fn model(&self) -> &LatticeModel {
        &self.lat.model
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.lat.step
    }

    /// Replace the BC of inlet `id` at runtime (computational steering:
    /// "not only simulation parameters … can be further modified").
    /// Precomputed iolet velocities are refreshed.
    pub fn set_inlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.lat.set_iolet_bc(&self.geo, IoLetKind::Inlet, id, bc);
    }

    /// Replace the BC of outlet `id` at runtime.
    pub fn set_outlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.lat.set_iolet_bc(&self.geo, IoLetKind::Outlet, id, bc);
    }

    /// Advance one time step on the calling thread.
    pub fn step(&mut self) {
        self.step_with(1);
    }

    /// One step with the site list split across `threads` workers (see
    /// [`crate::kernel::ParallelSolver`]).
    pub(crate) fn step_with(&mut self, threads: usize) {
        let span = self.obs.borrow().begin();
        self.lat.advance(0..self.lat.site_count(), threads);
        span.end(&mut self.obs.borrow_mut(), "lb.collide");
        self.lat.finish_step();
    }

    /// Advance `count` steps.
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Macroscopic snapshot of the current state.
    pub fn snapshot(&self) -> FieldSnapshot {
        self.snapshot_with(1)
    }

    /// Snapshot extracted across `threads` workers.
    pub(crate) fn snapshot_with(&self, threads: usize) -> FieldSnapshot {
        let span = self.obs.borrow().begin();
        let snap = self.lat.snapshot(threads);
        span.end(&mut self.obs.borrow_mut(), "lb.macroscopics");
        snap
    }

    /// Total mass `Σ_s Σ_i f_si` (conserved by interior dynamics; open
    /// boundaries exchange mass by design).
    pub fn mass(&self) -> f64 {
        self.lat.mass()
    }

    /// The whole distribution array in the canonical site-major order
    /// (checkpointing, bitwise comparison).
    pub fn raw_distributions(&self) -> Vec<f64> {
        self.lat.to_site_major()
    }

    /// Deliberately corrupt the streaming-index table by swapping the
    /// sources of two `(direction, site)` links. Test-only harness hook
    /// (the golden-digest negative test proves a single swapped
    /// neighbour fails the FNV digest). Returns `true` if the two
    /// entries actually differed.
    #[doc(hidden)]
    pub fn debug_swap_stream_entries(&mut self, dir: usize, a: usize, b: usize) -> bool {
        self.lat.debug_swap_stream_entries(dir, a, b)
    }

    /// Fraction of sites whose every link is a plain local source.
    /// Always `Some`; the `Option` is the signature the benchmark
    /// package compiles against.
    pub fn bulk_fraction(&self) -> Option<f64> {
        Some(self.lat.bulk_fraction())
    }

    /// Run until the RMS velocity change over `check_every` steps drops
    /// below `tol`, or `max_steps` elapse. Returns (converged, steps
    /// taken, final RMS change).
    pub fn run_to_steady_state(
        &mut self,
        tol: f64,
        check_every: u64,
        max_steps: u64,
    ) -> (bool, u64, f64) {
        let start = self.lat.step;
        let mut prev = self.snapshot();
        loop {
            self.step_n(check_every);
            let now = self.snapshot();
            let change = now.velocity_rms_change(&prev) / check_every as f64;
            if change < tol {
                return (true, self.lat.step - start, change);
            }
            if self.lat.step - start >= max_steps {
                return (false, self.lat.step - start, change);
            }
            prev = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn tube_solver(cfg: SolverConfig) -> Solver {
        let geo = VesselBuilder::straight_tube(20.0, 4.0).voxelise(1.0);
        Solver::new(Arc::new(geo), cfg)
    }

    #[test]
    fn equilibrium_rest_state_is_stationary_in_closed_interior() {
        // With equal inlet/outlet pressure at the reference density the
        // rest state is an exact fixed point.
        let mut s = tube_solver(SolverConfig::pressure_driven(1.0, 1.0));
        let before = s.snapshot();
        s.step_n(5);
        let after = s.snapshot();
        assert!(after.velocity_rms_change(&before) < 1e-14);
        assert!((after.mass() - before.mass()).abs() < 1e-9);
    }

    #[test]
    fn pressure_gradient_drives_flow_toward_outlet() {
        let mut s = tube_solver(SolverConfig::pressure_driven(1.01, 0.99));
        s.step_n(200);
        let snap = s.snapshot();
        // Mean x-velocity must be positive (inlet at x=0).
        let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
        assert!(mean_ux > 1e-4, "flow should develop, got {mean_ux}");
        assert!(
            snap.validity_report().is_empty(),
            "{:?}",
            snap.validity_report()
        );
    }

    #[test]
    fn velocity_inlet_drives_flow() {
        let mut s = tube_solver(SolverConfig::velocity_driven(0.05));
        s.step_n(300);
        let snap = s.snapshot();
        let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
        assert!(mean_ux > 1e-3, "{mean_ux}");
        assert!(snap.max_speed() < 0.2);
    }

    #[test]
    fn d3q19_also_develops_flow() {
        let cfg = SolverConfig::pressure_driven(1.01, 0.99).with_model(ModelKind::D3Q19);
        let mut s = tube_solver(cfg);
        s.step_n(150);
        let snap = s.snapshot();
        let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
        assert!(mean_ux > 1e-4);
    }

    #[test]
    fn trt_matches_flow_direction_of_bgk() {
        let cfg =
            SolverConfig::pressure_driven(1.01, 0.99).with_collision(CollisionKind::trt_magic());
        let mut s = tube_solver(cfg);
        s.step_n(150);
        let snap = s.snapshot();
        let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
        assert!(mean_ux > 1e-4);
        assert!(snap.validity_report().is_empty());
    }

    #[test]
    fn steady_state_detection_terminates() {
        let mut s = tube_solver(SolverConfig::pressure_driven(1.002, 0.998));
        let (converged, steps, residual) = s.run_to_steady_state(1e-8, 50, 5000);
        assert!(converged, "residual {residual} after {steps}");
        // Flow is steady: a further 50 steps change almost nothing.
        let a = s.snapshot();
        s.step_n(50);
        let b = s.snapshot();
        assert!(b.velocity_rms_change(&a) / 50.0 < 1e-7);
    }

    #[test]
    fn poiseuille_profile_in_steady_tube() {
        // Pressure-driven laminar flow in a circular tube: the steady
        // axial velocity is u(r) = u_max (1 − r²/R²). Staircase walls at
        // this resolution justify a generous tolerance; what must hold is
        // the parabolic *shape* (high correlation) and peak location on
        // the axis.
        let geo = VesselBuilder::straight_tube(24.0, 5.0).voxelise(1.0);
        let geo = Arc::new(geo);
        let mut s = Solver::new(
            geo.clone(),
            SolverConfig::pressure_driven(1.004, 0.996).with_tau(0.9),
        );
        s.run_to_steady_state(1e-9, 100, 20_000);
        let snap = s.snapshot();

        // Collect (r², ux) for mid-tube sites.
        let shape = geo.shape();
        let cy = (shape[1] as f64 - 1.0) / 2.0;
        let cz = (shape[2] as f64 - 1.0) / 2.0;
        let x_mid = shape[0] as u32 / 2;
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for i in 0..geo.fluid_count() as u32 {
            let [x, y, z] = geo.position(i);
            if x == x_mid {
                let r2 = (y as f64 - cy).powi(2) + (z as f64 - cz).powi(2);
                pts.push((r2, snap.u[i as usize][0]));
            }
        }
        assert!(pts.len() > 20, "need a cross-section");

        // Linear regression ux = a + b r² must fit well with b < 0.
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
        let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
        let b = sxy / sxx;
        let r = sxy / (sxx * syy).sqrt();
        assert!(b < 0.0, "velocity must decrease with r²");
        assert!(
            r < -0.97,
            "profile must be near-parabolic in r²; correlation {r}"
        );

        // Peak at the axis ≈ intercept a; compare against max measured.
        let a = my - b * mx;
        let u_max = pts.iter().map(|p| p.1).fold(0.0, f64::max);
        assert!((a - u_max).abs() / u_max < 0.2, "a={a}, u_max={u_max}");
    }

    #[test]
    fn pulsatile_inlet_produces_oscillating_flow() {
        use crate::boundary::IoletBc;
        let period = 120u64;
        let cfg = SolverConfig {
            model: ModelKind::D3Q15,
            tau: 0.8,
            collision: CollisionKind::Bgk,
            inlet_bcs: vec![IoletBc::Pulsatile {
                peak: 0.04,
                parabolic: true,
                amplitude: 0.8,
                period,
            }],
            outlet_bcs: vec![IoletBc::Pressure { rho: 1.0 }],
        };
        let mut s = tube_solver(cfg);
        // Skip the initial transient, then record mean inflow speed over
        // one full cycle.
        s.step_n(2 * period);
        let mut series = Vec::new();
        for _ in 0..period {
            s.step();
            let snap = s.snapshot();
            let mean_ux: f64 = snap.u.iter().map(|u| u[0]).sum::<f64>() / snap.len() as f64;
            series.push(mean_ux);
        }
        let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!(mean > 1e-4, "net forward flow: {mean}");
        assert!(
            (max - min) > mean * 0.5,
            "pulsation visible: min={min}, max={max}, mean={mean}"
        );
        // The oscillation period matches the prescribed cycle: the
        // crest and the trough are roughly half a period apart.
        let i_max = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as i64;
        let i_min = series
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as i64;
        let gap = (i_max - i_min).rem_euclid(period as i64);
        let half = period as i64 / 2;
        assert!(
            (gap - half).abs() < period as i64 / 4,
            "crest/trough separation {gap} should be near {half}"
        );
    }

    #[test]
    fn phase_timings_are_recorded_per_step() {
        let mut s = tube_solver(SolverConfig::pressure_driven(1.01, 0.99));
        s.step_n(7);
        s.snapshot();
        let report = s.obs_report();
        assert_eq!(report.phases["lb.collide"].calls, 7);
        assert!(!report.phases.contains_key("lb.stream"), "no stream phase");
        assert_eq!(report.phases["lb.macroscopics"].calls, 1);
        assert!(report.phases["lb.collide"].total_secs > 0.0);

        // Disabled recording is a no-op but physics is untouched.
        let mut quiet = tube_solver(SolverConfig::pressure_driven(1.01, 0.99));
        quiet.set_obs_enabled(false);
        quiet.step_n(7);
        assert!(quiet.obs_report().phases.is_empty());
        for (a, b) in s.raw_distributions().iter().zip(&quiet.raw_distributions()) {
            assert_eq!(a.to_bits(), b.to_bits(), "obs must not perturb physics");
        }
    }

    #[test]
    fn mass_bounded_in_driven_flow() {
        let mut s = tube_solver(SolverConfig::pressure_driven(1.01, 0.99));
        let m0 = s.mass();
        s.step_n(500);
        let m1 = s.mass();
        // Open boundaries exchange mass but the state stays bounded.
        assert!((m1 - m0).abs() / m0 < 0.05, "m0={m0}, m1={m1}");
    }
}

//! `kernel_serial` and `kernel_trt_par2`: the `core` layer alone, once
//! as the plain single-threaded BGK baseline and once through the other
//! collide operator, lattice, boundary condition and the threaded path.

use crate::report::{split, Report, RunArgs, Window};
use crate::trace::{Track, WINDOW};
use crate::util::{aneurysm, seeded_rho_in, Rng, DX_MEDIUM};
use hemelb_core::collision::CollisionKind;
use hemelb_core::solver::ModelKind;
use hemelb_core::{FieldSnapshot, ParallelSolver, Solver, SolverConfig};
use hemelb_geometry::{SparseGeometry, VesselBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Spacing that gives the bifurcation 54 784 sites.
const DX_BIFURCATION: f64 = 0.3;

enum Kernel {
    Serial(Solver),
    Threaded(ParallelSolver),
}

impl Kernel {
    fn step(&mut self) {
        match self {
            Kernel::Serial(s) => s.step(),
            Kernel::Threaded(p) => p.step(),
        }
    }

    fn snapshot(&self) -> FieldSnapshot {
        match self {
            Kernel::Serial(s) => s.snapshot(),
            Kernel::Threaded(p) => p.snapshot(),
        }
    }

    fn solver(&self) -> &Solver {
        match self {
            Kernel::Serial(s) => s,
            Kernel::Threaded(p) => p.solver(),
        }
    }
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let threaded = args.workload == "kernel_trt_par2";
    let (voxelise, cfg): (fn() -> Arc<SparseGeometry>, _) = if threaded {
        (
            || Arc::new(VesselBuilder::bifurcation(16.0, 14.0, 4.0, 0.5).voxelise(DX_BIFURCATION)),
            SolverConfig::velocity_driven(0.04 + 0.01 * rng.unit())
                .with_model(ModelKind::D3Q19)
                .with_collision(CollisionKind::trt_magic()),
        )
    } else {
        (
            || aneurysm(DX_MEDIUM),
            SolverConfig::pressure_driven(seeded_rho_in(&mut rng), 0.99),
        )
    };

    // Set-up, repeated for its median; the last one is kept and, in a
    // traced run, is the one whose spans are recorded.
    let mut track = Track::new("main", Instant::now());
    let mut setup_secs = Vec::new();
    let mut kept: Option<(Arc<SparseGeometry>, Kernel, f64, f64)> = None;
    for rep in 0..args.setup_reps() {
        // Free the previous set-up first: two resident solvers would
        // double `peak_rss_mib`.
        drop(kept.take());
        track.set_enabled(args.trace && rep + 1 == args.setup_reps());
        let t0 = Instant::now();
        let (geo, voxelise_s) = track.leaf("geometry.voxelise", voxelise);
        let (kernel, new_s) = track.leaf("core.solver_new", || {
            if threaded {
                Kernel::Threaded(ParallelSolver::new(geo.clone(), cfg.clone(), 2))
            } else {
                Kernel::Serial(Solver::new(geo.clone(), cfg.clone()))
            }
        });
        kernel.solver().set_obs_enabled(false);
        setup_secs.push(t0.elapsed().as_secs_f64());
        kept = Some((geo, kernel, voxelise_s, new_s));
    }
    let (geo, mut kernel, voxelise_s, new_s) = kept.expect("at least one set-up");
    let sites = geo.fluid_count();
    report.note(format!("sites: {sites}"));

    for _ in 0..args.pick(100, 10) {
        kernel.step();
    }

    let mut windows = Vec::new();
    for (seconds, traced) in args.windows() {
        kernel.solver().set_obs_enabled(traced);
        track.set_enabled(traced);
        let mut window = Window {
            traced,
            ..Window::default()
        };
        track.span(WINDOW, |t| {
            let t0 = Instant::now();
            while window.wall < seconds {
                let (_, secs) = t.leaf("core.step", || kernel.step());
                window.push(secs, t0.elapsed().as_secs_f64());
            }
        });
        report.ledger.ops(window.ops());
        windows.push(window);
    }

    let (snap, snapshot_s) = track.leaf("core.snapshot", || kernel.snapshot());
    report.ledger.check_field(&snap, &args.workload);

    report.end_to_end(&setup_secs, &windows);
    let (untraced, traced) = split(&windows);
    let rate = sites as f64 * untraced.ops_per_s();
    report.set("site_updates_per_s", rate);
    report.set("step_ms_p50", untraced.op_ms_p50());
    report.voxelised(sites, voxelise_s);
    report.set("core.solver_new_s", new_s);
    report.set("core.site_updates_per_s", rate);
    report.set("core.snapshot_s", snapshot_s);
    let solver = kernel.solver();
    report.set("core.bulk_fraction", solver.bulk_fraction().unwrap_or(0.0));
    computed_bytes(report, solver.model().q, rate);
    if let Some(traced) = traced {
        report.traced_steps(traced);
        report.recorders([&solver.obs_report()]);
    }
    report.tracks.push(track);
}

/// The computed (not measured) memory figures of the two-buffer pull
/// scheme with `q` populations of 8 B per site: what a site holds, what
/// one update of it moves, and that traffic as a share of the triad
/// bandwidth. Cache misses are ignored; the numbers say what the scheme
/// must move at the least.
pub fn computed_bytes(report: &mut Report, q: usize, site_updates_per_s: f64) {
    let q = q as f64;
    // Two population buffers, the u32 stream table, the moments
    // (ρ, u) and the boundary velocity.
    report.set(
        "core.state_bytes_per_site",
        2.0 * q * 8.0 + q * 4.0 + 32.0 + 24.0,
    );
    // Collide reads and writes every population in place, streaming
    // reads them again through the table and writes the second buffer;
    // the moments are written once.
    let per_update = 4.0 * q * 8.0 + q * 4.0 + 32.0;
    report.set("core.bytes_per_site_update", per_update);
    let triad = report.get("machine.triad_gib_per_s") * (1u64 << 30) as f64;
    if triad > 0.0 {
        report.set("core.mem_bw_frac", per_update * site_updates_per_s / triad);
    }
}

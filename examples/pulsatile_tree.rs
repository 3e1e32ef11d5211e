//! A physiological scenario on a synthetic arterial tree: pulsatile
//! (cardiac-cycle) inflow through a bifurcating vessel network, solved
//! distributedly with MRT collisions, with in situ streak-lines and
//! vortex feature extraction riding along — the paper's full menu on a
//! multi-outlet geometry.
//!
//! ```sh
//! cargo run --release --example pulsatile_tree
//! ```

use hemelb::core::boundary::IoletBc;
use hemelb::core::collision::CollisionKind;
use hemelb::core::solver::ModelKind;
use hemelb::core::{DistSolver, SolverConfig};
use hemelb::geometry::{Vec3, VesselBuilder};
use hemelb::insitu::features::swirling_regions;
use hemelb::insitu::field::SampledField;
use hemelb::insitu::unsteady::DistStreaklines;
use hemelb::parallel::{run_spmd_with_stats, TagClass, WireReader, WireWriter};
use std::sync::Arc;

const RANKS: usize = 4;
const PERIOD: u64 = 200;

fn main() {
    // A three-generation arterial tree: one inlet, four outlets.
    let tree = VesselBuilder::arterial_tree(3, 14.0, 4.0);
    let geo = Arc::new(tree.voxelise(0.8));
    let outlets = geo.outlets().len();
    println!(
        "arterial tree: {} fluid sites, 1 inlet, {} outlets, {:.1}% of box",
        geo.fluid_count(),
        outlets,
        geo.fluid_fraction() * 100.0
    );

    let cfg = SolverConfig {
        model: ModelKind::D3Q15,
        tau: 0.7,
        collision: CollisionKind::Mrt { omega_ghost: 1.2 },
        inlet_bcs: vec![IoletBc::Pulsatile {
            peak: 0.04,
            parabolic: true,
            amplitude: 0.7,
            period: PERIOD,
        }],
        outlet_bcs: vec![IoletBc::Pressure { rho: 1.0 }],
    };

    let geo2 = geo.clone();
    let out = run_spmd_with_stats(RANKS, move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
            .map(|s| {
                (geo2.position(s)[0] as usize * comm.size() / geo2.shape()[0]).min(comm.size() - 1)
            })
            .collect();
        let mut solver = DistSolver::new(geo2.clone(), owner.clone(), cfg.clone(), comm).unwrap();

        // Streak-line seeds: a 3×3 rake around the centroid of the
        // actual inlet sites (the geometry sits offset inside its padded
        // bounding box, so derive coordinates from the site kinds).
        let inlet_centroid = {
            let mut sum = [0.0f64; 3];
            let mut n = 0.0;
            for i in 0..geo2.fluid_count() as u32 {
                if matches!(geo2.kind(i), hemelb::geometry::SiteKind::Inlet(_)) {
                    let p = geo2.position(i);
                    for a in 0..3 {
                        sum[a] += p[a] as f64;
                    }
                    n += 1.0;
                }
            }
            [sum[0] / n, sum[1] / n, sum[2] / n]
        };
        let seeds: Vec<Vec3> = (0..9)
            .map(|i| {
                Vec3::new(
                    inlet_centroid[0] + 1.0,
                    inlet_centroid[1] + ((i % 3) as f64 - 1.0) * 1.2,
                    inlet_centroid[2] + ((i / 3) as f64 - 1.0) * 1.2,
                )
            })
            .collect();
        let mut streaks = DistStreaklines::new(comm, &owner, seeds, 1.0);

        // One full cardiac cycle with in situ tracing per step; the
        // tracers sample the *global* field view, refreshed every 20
        // steps via gather+broadcast (kept simple for the example).
        let mut mean_speeds = Vec::new();
        for burst in 0..(PERIOD / 20) {
            solver.step_n(20).unwrap();
            let full = broadcast_snapshot(comm, &solver, &geo2);
            let field = SampledField::new(&geo2, &full);
            for _ in 0..20 {
                streaks.step(&geo2, &field).unwrap();
            }
            let mean: f64 = (0..full.len()).map(|i| full.speed(i)).sum::<f64>() / full.len() as f64;
            mean_speeds.push(mean);
            let _ = burst;
        }

        // Feature extraction on the final field (master only prints).
        let full = broadcast_snapshot(comm, &solver, &geo2);
        let report = if comm.is_master() {
            // Threshold at 3× the median vorticity: structures, not shear.
            let w = hemelb::insitu::features::vorticity(&geo2, &full);
            let mut mags: Vec<f64> = w
                .iter()
                .map(|&v| hemelb::insitu::features::vorticity_magnitude(v))
                .collect();
            mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let thr = (mags[mags.len() / 2] * 2.0).max(1e-9);
            Some(swirling_regions(&geo2, &full, thr, 4))
        } else {
            None
        };
        let live = streaks.global_live().unwrap();
        (mean_speeds, live, report)
    });

    let (speeds, live, report) = &out.results[0];
    let max = speeds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "one cardiac cycle: mean speed oscillates {min:.5} → {max:.5} ({} samples)",
        speeds.len()
    );
    assert!(max > min * 1.2, "pulsation visible");
    println!("streak particles alive at cycle end: {live}");
    if let Some(report) = report {
        println!(
            "vortex regions (|ω| > {:.1e}): {}",
            report.threshold,
            report.features.len()
        );
        for (i, f) in report.features.iter().take(3).enumerate() {
            println!(
                "  #{i}: {} sites near ({:.0}, {:.0}, {:.0})",
                f.sites, f.centroid[0], f.centroid[1], f.centroid[2]
            );
        }
    }
    println!(
        "traffic: halo {} B, vis {} B",
        out.summary.total.bytes(TagClass::Halo),
        out.summary.total.bytes(TagClass::Visualisation),
    );
}

/// Gather the global snapshot at rank 0 and broadcast it (example-grade
/// field replication for the tracers).
fn broadcast_snapshot(
    comm: &hemelb::parallel::Communicator,
    solver: &DistSolver,
    geo: &hemelb::geometry::SparseGeometry,
) -> hemelb::core::FieldSnapshot {
    let gathered = solver.gather_snapshot().unwrap();
    let payload = gathered.map(|s| {
        let mut w = WireWriter::new();
        w.put_u64(s.step);
        w.put_f64_slice(&s.rho);
        w.put_usize(s.u.len());
        for u in &s.u {
            w.put(&[u[0], u[1], u[2]]);
        }
        w.put_f64_slice(&s.shear);
        w.finish()
    });
    let data = comm.broadcast(0, payload).unwrap();
    let mut r = WireReader::new(data);
    let step = r.get_u64().unwrap();
    let rho = r.get_f64_vec().unwrap();
    let nu = r.get_usize().unwrap();
    let mut u = Vec::with_capacity(nu);
    for _ in 0..nu {
        let a: [f64; 3] = r.get().unwrap();
        u.push(a);
    }
    let shear = r.get_f64_vec().unwrap();
    let _ = geo;
    hemelb::core::FieldSnapshot {
        step,
        rho,
        u,
        shear,
    }
}

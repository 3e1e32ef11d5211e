//! Computational steering end-to-end: the paper's closed loop (Fig. 2)
//! driven by a scripted client.
//!
//! A bifurcation flow runs on four ranks; a client thread connects over
//! the in-memory transport, watches frames, raises the inlet pressure
//! mid-run, observes the flow speed respond, then terminates the run —
//! the "closing the loop" the paper names as the ultimate co-design
//! goal.
//!
//! ```sh
//! cargo run --release --example steered_simulation
//! ```

use hemelb::core::SolverConfig;
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::run_spmd;
use hemelb::steering::protocol::ServerMessage;
use hemelb::steering::{
    duplex_pair, run_closed_loop, ClosedLoopConfig, SteeringClient, SteeringCommand, Transport,
};
use std::sync::Arc;
use std::sync::Mutex;

const RANKS: usize = 4;

fn main() {
    let geo = Arc::new(VesselBuilder::bifurcation(16.0, 14.0, 4.0, 0.5).voxelise(0.7));
    println!(
        "bifurcation: {} fluid sites, 1 inlet, 2 outlets",
        geo.fluid_count()
    );

    let (client_end, server_end) = duplex_pair();
    let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));

    // The scripted steering client.
    let client_thread = std::thread::spawn(move || {
        let client = SteeringClient::new(Box::new(client_end));

        // Watch the initial flow.
        let (frame, rtt) = client.request_frame().expect("first frame");
        println!(
            "[client] frame at step {} ({}x{}, round trip {:.1} ms)",
            frame.step,
            frame.width,
            frame.height,
            rtt.as_secs_f64() * 1e3
        );

        // Steer: raise the inlet pressure, then compare.
        println!("[client] raising inlet pressure 1.01 → 1.03");
        client
            .send(&SteeringCommand::SetInletPressure { id: 0, rho: 1.03 })
            .unwrap();
        // Let the flow respond, then look again.
        let mut speeds = Vec::new();
        for _ in 0..3 {
            let (_, statuses) = {
                client.send(&SteeringCommand::RequestFrame).unwrap();
                client.wait_for_image().expect("steered frame")
            };
            if let Some(s) = statuses.last() {
                println!(
                    "[client] step {}: max speed {:.4}, mass {:.1}, residual {:.2e}, problems: {:?}",
                    s.step, s.max_speed, s.mass, s.residual, s.problems
                );
                speeds.push(s.max_speed);
            }
        }
        assert!(
            speeds.last().unwrap() > speeds.first().unwrap(),
            "higher inlet pressure must speed the flow up: {speeds:?}"
        );
        println!("[client] flow responded to steering; pausing, then terminating");
        client.send(&SteeringCommand::Pause).unwrap();
        client.send(&SteeringCommand::RequestFrame).unwrap();
        let (paused_frame, _) = client.wait_for_image().expect("paused frame");
        println!("[client] frame while paused at step {}", paused_frame.step);
        client.send(&SteeringCommand::Terminate).unwrap();
        while let Ok(msg) = client.recv() {
            if let ServerMessage::Status(s) = msg {
                println!("[client] final status at step {}", s.step);
            }
        }
    });

    let geo2 = geo.clone();
    let results = run_spmd(RANKS, move |comm| {
        let transport = if comm.is_master() {
            server_slot.lock().unwrap().take()
        } else {
            None
        };
        let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
            .map(|s| {
                (geo2.position(s)[0] as usize * comm.size() / geo2.shape()[0]).min(comm.size() - 1)
            })
            .collect();
        run_closed_loop(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.01, 0.99).with_tau(0.8),
            comm,
            transport,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (256, 192),
                initial_vis_rate: u32::MAX, // frames on request only
                steps_per_cycle: 20,
                ..Default::default()
            },
        )
        .expect("closed loop")
    });
    client_thread.join().expect("client script");

    let master = &results[0];
    println!(
        "[sim] {} steps, {} frames, {} commands, terminated by client: {}, steering traffic {} B",
        master.steps_done,
        master.frames_rendered,
        master.commands_applied,
        master.terminated_by_client,
        master.steering_bytes
    );
    assert!(master.terminated_by_client);
}

//! The steering loop over a *real* TCP socket — the deployment shape of
//! the original HemeLB steering client (an out-of-process viewer
//! connecting to the simulation master over the network).

use hemelb::core::SolverConfig;
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::run_spmd;
use hemelb::steering::{
    run_closed_loop, ClosedLoopConfig, SteeringClient, SteeringCommand, TcpTransport, Transport,
};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Connect with bounded retries: on a loaded CI host the accept loop may
/// not be scheduled instantly, and a refused first SYN must not fail the
/// test. Port 0 (kernel-assigned) is still used for the bind itself.
fn connect_with_retry(addr: SocketAddr) -> TcpStream {
    let mut last_err = None;
    for attempt in 0..50 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
            Ok(stream) => return stream,
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(10 * (attempt + 1)));
            }
        }
    }
    panic!("connect to {addr} failed after bounded retries: {last_err:?}");
}

#[test]
fn closed_loop_over_tcp() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));

    // The simulation master listens; the client connects.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let client_thread = std::thread::spawn(move || {
        let stream = connect_with_retry(addr);
        let client = SteeringClient::new(Box::new(TcpTransport::new(stream).expect("transport")));
        // Steps 2–6 of the paper's loop, across a real socket.
        let (frame, rtt) = client.request_frame().expect("frame over TCP");
        assert_eq!(frame.width, 48);
        assert_eq!(frame.rgb.len(), 48 * 36 * 3);
        assert!(rtt.as_secs() < 60);
        // Observables over TCP too.
        let (obs, _) = client.request_observables().expect("observables");
        assert!(obs.sites > 0);
        client.send(&SteeringCommand::Terminate).unwrap();
        while client.recv().is_ok() {}
        frame
    });

    // Bounded-retry accept so a dead client cannot hang the suite.
    listener.set_nonblocking(true).expect("nonblocking");
    let server_stream = {
        let mut accepted = None;
        for _ in 0..500 {
            match listener.accept() {
                Ok((stream, _)) => {
                    accepted = Some(stream);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
        accepted.expect("no client connected within the retry budget")
    };
    server_stream
        .set_nonblocking(false)
        .expect("blocking stream");
    let transport: Box<dyn Transport> =
        Box::new(TcpTransport::new(server_stream).expect("server transport"));
    let server_slot = Arc::new(Mutex::new(Some(transport)));

    let geo2 = geo.clone();
    let results = run_spmd(2, move |comm| {
        let transport = if comm.is_master() {
            server_slot.lock().take()
        } else {
            None
        };
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        run_closed_loop(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            transport,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (48, 36),
                initial_vis_rate: u32::MAX,
                steps_per_cycle: 10,
                ..Default::default()
            },
        )
        .unwrap()
    });
    let frame = client_thread.join().expect("client");
    assert!(results[0].terminated_by_client);
    assert!(results[0].frames_rendered >= 1);
    // The TCP-shipped frame shows the vessel.
    let non_white = frame
        .rgb
        .chunks(3)
        .filter(|c| c[0] != 255 || c[1] != 255 || c[2] != 255)
        .count();
    assert!(non_white > 10, "vessel visible over TCP: {non_white}");
}

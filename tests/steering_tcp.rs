//! The steering loop over *real* TCP sockets — the deployment shape of
//! the original HemeLB steering client (an out-of-process viewer
//! connecting to the simulation master over the network), including a
//! client that stops reading.

use hemelb::core::SolverConfig;
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::run_spmd;
use hemelb::steering::{
    run_closed_loop, run_closed_loop_opts, Acceptor, ClosedLoopConfig, SteeringClient,
    SteeringCommand, TcpAcceptor, TcpTransport, Transport,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::sync::Mutex;
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

/// Equal runs of consecutive sites per rank.
fn block_owner(geo: &hemelb::geometry::SparseGeometry, p: usize) -> Vec<usize> {
    let n = geo.fluid_count();
    (0..n).map(|s| (s * p / n).min(p - 1)).collect()
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
            server_slot.lock().unwrap().take()
        } else {
            None
        };
        run_closed_loop(
            geo2.clone(),
            block_owner(&geo2, comm.size()),
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

#[test]
fn wedged_tcp_client_cannot_stall_the_step_loop() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let acceptor_slot = Arc::new(Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>)));

    let client_thread = std::thread::spawn(move || {
        // The wedge: asks for a large frame every cycle, then never
        // reads a byte. Dense frames fill its kernel buffers, the
        // endpoint's buffered sends start backlogging, and the
        // degradation ladder must end it — without a blocked cycle.
        let wedge = SteeringClient::new(Box::new(
            TcpTransport::new(connect_with_retry(addr)).expect("wedge transport"),
        ));
        wedge.send(&SteeringCommand::SetVisRate(1)).unwrap();

        // The successor dials while the wedge holds the seat, so it
        // waits in the listener; its request is answered only once the
        // wedge has been detached and it has been seated.
        let successor = SteeringClient::new(Box::new(
            TcpTransport::new(connect_with_retry(addr)).expect("successor transport"),
        ));
        successor.send(&SteeringCommand::RequestFrame).unwrap();
        let (img, statuses) = successor.wait_for_image().expect("seated after the wedge");
        let first = statuses.first().expect("a status precedes the image");
        assert!(
            first.problems.iter().any(|p| p.contains("wedged")),
            "the first status names the predecessor's fate: {:?}",
            first.problems
        );
        assert!(first.problems.iter().any(|p| p.contains("client attached")));
        assert_eq!(first.sessions, 1);
        successor.send(&SteeringCommand::Terminate).unwrap();
        while successor.recv().is_ok() {}
        drop(wedge);
        img.step
    });

    let geo2 = geo.clone();
    let outcome = run_spmd(2, move |comm| {
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().unwrap().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            block_owner(&geo2, comm.size()),
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (512, 384),
                initial_vis_rate: u32::MAX, // frames only on request
                steps_per_cycle: 5,
                ..Default::default()
            },
        )
        .unwrap()
    })
    .swap_remove(0);
    let seated_at_step = client_thread.join().expect("client thread");
    assert!(outcome.terminated_by_client, "the successor took control");
    // A send that blocked would hang this test, not fail it: the wedge
    // never reads. What is asserted is that cycles went on while the
    // backlog sat out the two-second drain deadline (a debug build on
    // this box does ~35 cycles in that time).
    assert!(
        seated_at_step >= 40,
        "the step loop kept advancing under the wedge (step {seated_at_step})"
    );
}

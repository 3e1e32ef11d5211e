//! Multi-client steering through the session gateway, end to end:
//! observer churn must not perturb the simulation, driver hand-off is
//! deterministic, and a wedged observer cannot stall the step loop.

use hemelb::core::SolverConfig;
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::run_spmd;
use hemelb::steering::protocol::ServerMessage;
use hemelb::steering::{
    duplex_listener, run_closed_loop_opts, Acceptor, ClosedLoopConfig, GatewayConfig,
    SteeringClient, SteeringCommand, TcpAcceptor, TcpTransport,
};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn demo_geo() -> Arc<hemelb::geometry::SparseGeometry> {
    Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0))
}

fn slab_owner(geo: &hemelb::geometry::SparseGeometry, p: usize) -> Vec<usize> {
    (0..geo.fluid_count() as u32)
        .map(|s| (geo.position(s)[0] as usize * p / geo.shape()[0]).min(p - 1))
        .collect()
}

fn loop_cfg(gateway: Option<GatewayConfig>, max_steps: u64) -> ClosedLoopConfig {
    ClosedLoopConfig {
        max_steps,
        image: (32, 24),
        initial_vis_rate: 25,
        steps_per_cycle: 5,
        gather_final_fields: true,
        gateway,
        ..Default::default()
    }
}

/// Run the closed loop to `max_steps` with the given gateway config and
/// client script; returns the master's outcome.
fn run_to_completion(
    gateway: Option<GatewayConfig>,
    max_steps: u64,
    script: impl FnOnce(hemelb::steering::DuplexConnector) + Send + 'static,
) -> hemelb::steering::ClosedLoopOutcome {
    let geo = demo_geo();
    let (connector, acceptor) = duplex_listener();
    let acceptor_slot = Arc::new(Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>)));
    let client_thread = std::thread::spawn(move || script(connector));
    let geo2 = geo.clone();
    let cfg = loop_cfg(gateway, max_steps);
    let mut results = run_spmd(2, move |comm| {
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            slab_owner(&geo2, comm.size()),
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &cfg,
        )
        .unwrap()
    });
    client_thread.join().expect("client script");
    assert!(
        results[1].final_fields.is_none(),
        "only the master gathers the final fields"
    );
    results.swap_remove(0)
}

/// A driver that keeps requesting frames until the run ends underneath
/// it (max_steps reached, server dropped).
fn frame_pump(connector: hemelb::steering::DuplexConnector) {
    let driver = SteeringClient::new(Box::new(connector.connect().unwrap()));
    while driver.request_frame().is_ok() {}
}

#[test]
fn observer_churn_leaves_the_simulation_bit_exact() {
    // Baseline: the historical single-client server, one driver, no
    // gateway anywhere near the step loop.
    let baseline = run_to_completion(None, 400, frame_pump);
    let baseline_fields = baseline.final_fields.expect("baseline gathers fields");

    // Gateway run: the same driver script while three waves of four
    // observers attach, watch a little, and vanish mid-run.
    let churned = run_to_completion(Some(GatewayConfig::default()), 400, |connector| {
        let driver_conn = connector.clone();
        let driver = std::thread::spawn(move || frame_pump(driver_conn));
        let mut waves = Vec::new();
        for _ in 0..3 {
            for _ in 0..4 {
                let conn = connector.clone();
                waves.push(std::thread::spawn(move || {
                    if let Ok(t) = conn.connect() {
                        let client = SteeringClient::new(Box::new(t));
                        // Watch a few broadcasts, then disconnect rudely.
                        for _ in 0..3 {
                            if client.recv().is_err() {
                                break;
                            }
                        }
                    }
                }));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for w in waves {
            w.join().expect("observer wave");
        }
        driver.join().expect("driver");
    });
    let churned_fields = churned.final_fields.expect("churned run gathers fields");

    assert_eq!(baseline.steps_done, churned.steps_done);
    assert_eq!(
        baseline_fields, churned_fields,
        "observer churn must not perturb the physics"
    );
    assert!(churned.sessions_peak >= 2, "observers actually attached");
}

#[test]
fn driver_hand_off_is_deterministic_and_promotes_the_survivor() {
    let outcome = run_to_completion(
        Some(GatewayConfig::default()),
        u64::MAX / 2, // only the promoted driver's Terminate ends this run
        |connector| {
            // Session 1: the driver. A first frame proves it attached
            // (and therefore claimed the driver role) before anyone else.
            let driver = SteeringClient::new(Box::new(connector.connect().unwrap()));
            let (_, _) = driver.request_frame().expect("driver frame");

            // Session 2: an observer whose commands are rejected.
            let observer = SteeringClient::new(Box::new(connector.connect().unwrap()));
            observer.send(&SteeringCommand::Pause).unwrap();
            let saw_rejection = |msg: &ServerMessage| match msg {
                ServerMessage::Status(s) => s.problems.iter().any(|p| p.contains("rejected")),
                _ => false,
            };
            loop {
                driver.send(&SteeringCommand::RequestFrame).unwrap();
                let msg = observer.recv().expect("broadcast while observing");
                if saw_rejection(&msg) {
                    break;
                }
            }

            // The driver disconnects; the lowest surviving session id is
            // promoted — the observer, whose commands now apply.
            drop(driver);
            loop {
                match observer.recv().expect("broadcast after hand-off") {
                    ServerMessage::Status(s)
                        if s.problems.iter().any(|p| p.contains("hand-off")) =>
                    {
                        break
                    }
                    _ => {}
                }
            }
            observer.send(&SteeringCommand::Terminate).unwrap();
            while observer.recv().is_ok() {}
        },
    );
    assert!(
        outcome.terminated_by_client,
        "the promoted observer's Terminate was honoured"
    );
    assert_eq!(outcome.sessions_peak, 2);
}

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
fn wedged_tcp_observer_cannot_stall_the_step_loop() {
    let geo = demo_geo();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("addr");
    let acceptor_slot = Arc::new(Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>)));

    let client_thread = std::thread::spawn(move || {
        let driver = SteeringClient::new(Box::new(
            TcpTransport::new(connect_with_retry(addr)).expect("driver transport"),
        ));
        let (_, _) = driver.request_frame().expect("driver attaches first");

        // The wedge: a socket that connects and then never reads a byte.
        // Dense frames fill its kernel buffers, the gateway's buffered
        // sends start backlogging, and the degradation ladder must kick
        // in — without a single blocked step cycle.
        let wedge = connect_with_retry(addr);

        let mut degraded = false;
        for _ in 0..400 {
            driver.send(&SteeringCommand::RequestFrame).unwrap();
            let (_, statuses) = driver.wait_for_image().expect("frame despite the wedge");
            if statuses.iter().any(|s| {
                s.problems
                    .iter()
                    .any(|p| p.contains("status-only") || p.contains("wedged"))
            }) {
                degraded = true;
                break;
            }
        }
        assert!(
            degraded,
            "the wedged observer was never degraded or detached"
        );
        driver.send(&SteeringCommand::Terminate).unwrap();
        while driver.recv().is_ok() {}
        drop(wedge);
    });

    let geo2 = geo.clone();
    let outcome = run_spmd(2, move |comm| {
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            slab_owner(&geo2, comm.size()),
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (160, 120),
                initial_vis_rate: u32::MAX, // frames only on request
                steps_per_cycle: 5,
                gateway: Some(GatewayConfig {
                    // Dense frames so every broadcast carries real bytes,
                    // and a hair-trigger ladder so the wedge is caught as
                    // soon as the kernel buffers fill.
                    sparse_frames: false,
                    degrade_queued_bytes: 1,
                    detach_queued_bytes: 1 << 20,
                    drain_deadline: Duration::from_millis(200),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap()
    })
    .swap_remove(0);
    client_thread.join().expect("client thread");
    assert!(outcome.terminated_by_client, "driver stayed in control");
    assert_eq!(outcome.sessions_peak, 2, "driver + wedge");
}

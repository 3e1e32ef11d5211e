//! Fault-injection suite: the comm/steering stack under deterministic
//! faults (ISSUE 4). Delay and duplicate faults must be bit-transparent
//! to every collective; a killed rank must recover bit-exactly through
//! checkpoint replay; a dead render rank must degrade the frame instead
//! of hanging it; a dropped steering client must auto-reconnect.

use hemelb::core::{DistSolver, Solver, SolverConfig};
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::{
    run_spmd, run_spmd_opts, FaultEvent, FaultKind, FaultPlan, SpmdOptions, TagClass,
};
use hemelb::steering::{
    duplex_listener, run_closed_loop_opts, BackoffPolicy, ClosedLoopConfig, SteeringClient,
    SteeringCommand, Transport, TransportFactory,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hemelb_fault_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The collective workload the transparency property runs under faults:
/// a few steps of mixed collectives, returning every result so callers
/// can compare runs bit for bit (f64 via `to_bits`).
fn collective_workload(comm: &hemelb::parallel::Communicator, steps: u64) -> Vec<u64> {
    let rank = comm.rank() as u64;
    let size = comm.size() as u64;
    let mut out = Vec::new();
    for step in 0..steps {
        comm.set_fault_step(step);
        let seed = step * 1000 + rank;
        let payload = comm
            .broadcast(
                0,
                comm.is_master()
                    .then(|| bytes::Bytes::from(step.to_le_bytes().to_vec())),
            )
            .unwrap();
        out.extend(payload.iter().map(|&b| b as u64));
        let sum = comm.all_reduce_u64(seed, |a, b| a.wrapping_add(b)).unwrap();
        out.push(sum);
        let vec = comm
            .all_reduce_f64_vec(vec![seed as f64, 1.0 / (seed + 1) as f64], |a, b| a + b)
            .unwrap();
        out.extend(vec.iter().map(|v| v.to_bits()));
        if let Some(all) = comm
            .gather(0, bytes::Bytes::from(seed.to_le_bytes().to_vec()))
            .unwrap()
        {
            for b in all {
                out.extend(b.iter().map(|&x| x as u64));
            }
        }
        let outgoing: Vec<bytes::Bytes> = (0..size)
            .map(|dst| bytes::Bytes::from(vec![(rank * size + dst) as u8; 3]))
            .collect();
        for b in comm.all_to_all(outgoing).unwrap() {
            out.extend(b.iter().map(|&x| x as u64));
        }
        comm.barrier().unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Benign fault plans (delays + duplicates only) must be invisible:
    /// every collective's result is bit-identical to the fault-free run,
    /// on every rank, for any seed.
    #[test]
    fn benign_fault_plans_are_bit_transparent_to_collectives(seed: u64) {
        let clean = run_spmd(3, |comm| collective_workload(comm, 4));
        let plan = FaultPlan::seeded_benign(seed, 3, 8, 3, 2);
        let faulty = run_spmd_opts(3, SpmdOptions::with_faults(plan), |comm| {
            collective_workload(comm, 4)
        });
        prop_assert_eq!(&clean, &faulty.results);
        // The plan actually did something (delays and/or duplicates
        // were injected somewhere) or matched no armed step — either
        // way the counters are consistent.
        let injected = faulty.summary.total.total_faults();
        let merged = faulty.merged_obs();
        let counted: u64 = ["fault.injected.delay", "fault.injected.duplicate", "fault.deduped"]
            .iter()
            .filter_map(|k| merged.counters.get(*k))
            .sum();
        prop_assert_eq!(injected, counted);
    }
}

/// A rank killed mid-run is recovered by restarting the world and
/// replaying from the latest collective checkpoint — and the recovered
/// fields are bit-exact against a fault-free serial reference.
#[test]
fn killed_rank_recovers_bit_exactly_via_checkpoint_replay() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut reference = Solver::new(geo.clone(), cfg.clone());
    reference.step_n(30);
    let ref_rho = reference.snapshot().rho;

    let dir = scratch_dir("kill_replay");
    let cp = dir.join("cp");
    let plan = FaultPlan::new(vec![FaultEvent {
        rank: 1,
        class: TagClass::Halo,
        step: 12,
        kind: FaultKind::KillRank,
    }]);
    let attempts = Arc::new(AtomicU64::new(0));
    let (geo2, cfg2, cp2, attempts2) = (geo.clone(), cfg.clone(), cp.clone(), attempts.clone());
    let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), move |comm| {
        attempts2.fetch_add(1, Ordering::SeqCst);
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
        // Crash recovery: resume from the latest checkpoint if one
        // exists (every rank sees the same files — `checkpoint` ends in
        // a barrier, so the set on disk is always a consistent cut).
        if cp2.join(format!("rank_{}.chkp", comm.rank())).exists() {
            ds.restore(&cp2).unwrap();
        }
        while ds.step_count() < 30 {
            let burst = 10 - ds.step_count() % 10;
            ds.step_n(burst.min(30 - ds.step_count())).unwrap();
            ds.checkpoint(&cp2).unwrap();
        }
        ds.gather_snapshot().unwrap()
    });
    // The kill fired once: 3 ranks ran the first doomed attempt, then 3
    // ran the restarted one.
    assert_eq!(attempts.load(Ordering::SeqCst), 6, "one restart");
    let merged = out.merged_obs();
    assert_eq!(merged.counters["fault.restarts"], 1);
    assert_eq!(merged.counters["fault.injected.kill"], 1);
    let snap = out.results[0].as_ref().expect("master gathers");
    assert_eq!(snap.rho, ref_rho, "recovered run is bit-exact");
    std::fs::remove_dir_all(&dir).ok();
}

/// A render rank whose compositing contribution never arrives must not
/// hang the frame: with a compositing deadline the master ships the
/// image without it and flags the degradation in the status report.
#[test]
fn dead_render_rank_yields_degraded_frame_not_a_hang() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let geo2 = geo.clone();
    let (connector, acceptor) = duplex_listener();
    let acceptor_slot = Arc::new(parking_lot::Mutex::new(Some(
        Box::new(acceptor) as Box<dyn hemelb::steering::Acceptor>
    )));
    // Rank 1's first compositing-class send is silently dropped: its
    // partial image for the first rendered frame never reaches the
    // master, exactly as if the rank stalled past the frame deadline.
    let plan = FaultPlan::new(vec![FaultEvent {
        rank: 1,
        class: TagClass::Compositing,
        step: 0,
        kind: FaultKind::DropOnce,
    }]);

    let client_thread = std::thread::spawn(move || {
        let client = SteeringClient::new(Box::new(connector.connect().unwrap()));
        // Request frames until the degraded one shows up in a status
        // report; the injected drop hits the very first frame.
        let degraded = 'outer: loop {
            client.send(&SteeringCommand::RequestFrame).unwrap();
            let (_img, statuses) = client.wait_for_image().unwrap();
            for s in &statuses {
                if let Some(p) = s.problems.iter().find(|p| p.contains("degraded frame")) {
                    break 'outer p.clone();
                }
            }
        };
        client.send(&SteeringCommand::Terminate).unwrap();
        while client.recv().is_ok() {}
        degraded
    });

    let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (16, 12),
                initial_vis_rate: u32::MAX,
                steps_per_cycle: 5,
                frame_deadline: Some(std::time::Duration::from_millis(100)),
                ..Default::default()
            },
        )
        .unwrap()
    });
    let degraded = client_thread.join().unwrap();
    assert!(
        degraded.contains("[1]"),
        "rank 1 was the dead one: {degraded}"
    );
    assert_eq!(out.results[0].frames_degraded, 1);
    for r in &out.results {
        assert!(r.terminated_by_client);
    }
    let merged = out.merged_obs();
    assert_eq!(merged.counters["vis.composite.dropped"], 1);
    assert_eq!(merged.counters["fault.injected.drop"], 1);
}

/// A transport that dies (BrokenPipe) after a fixed number of sent
/// frames — the client-side view of a flaky network link.
struct FlakyTransport {
    inner: Box<dyn Transport>,
    sends_left: std::sync::Mutex<u32>,
}

impl Transport for FlakyTransport {
    fn send_frame(&self, frame: bytes::Bytes) -> std::io::Result<()> {
        let mut left = self.sends_left.lock().unwrap();
        if *left == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "flaky link dropped",
            ));
        }
        *left -= 1;
        self.inner.send_frame(frame)
    }
    fn try_recv_frame(&self) -> std::io::Result<Option<bytes::Bytes>> {
        self.inner.try_recv_frame()
    }
    fn recv_frame(&self) -> std::io::Result<bytes::Bytes> {
        self.inner.recv_frame()
    }
    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }
}

/// A steering client whose connection dies mid-session redials with
/// backoff and carries on against the same (now headless) simulation.
#[test]
fn dropped_steering_client_auto_reconnects_with_backoff() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let geo2 = geo.clone();
    let (connector, acceptor) = duplex_listener();
    let acceptor_slot = Arc::new(parking_lot::Mutex::new(Some(
        Box::new(acceptor) as Box<dyn hemelb::steering::Acceptor>
    )));

    let client_thread = std::thread::spawn(move || {
        // The first connection dies after 2 sent frames; redials get a
        // reliable link.
        let dials = std::sync::Mutex::new(0u32);
        let factory: TransportFactory = Box::new(move || {
            let mut d = dials.lock().unwrap();
            *d += 1;
            let t = Box::new(connector.connect()?) as Box<dyn Transport>;
            Ok(if *d == 1 {
                Box::new(FlakyTransport {
                    inner: t,
                    sends_left: std::sync::Mutex::new(2),
                })
            } else {
                t
            })
        });
        let client = SteeringClient::with_reconnect(
            factory,
            BackoffPolicy {
                initial: std::time::Duration::from_millis(1),
                max: std::time::Duration::from_millis(8),
                factor: 2,
                max_attempts: 6,
            },
        )
        .unwrap();
        let (first, _) = client.request_frame().unwrap(); // send #1
        client
            .send(&SteeringCommand::SetVisRate(1_000_000))
            .unwrap(); // send #2
                       // Send #3 hits the dead link mid-round; the client must redial
                       // and complete the round on the fresh connection.
        let (second, _) = client.request_frame().unwrap();
        assert!(second.step >= first.step);
        client.send(&SteeringCommand::Terminate).unwrap();
        while client.recv().is_ok() {}
        client.obs_report()
    });

    let out = run_spmd(2, move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            owner,
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (16, 12),
                initial_vis_rate: u32::MAX,
                steps_per_cycle: 5,
                ..Default::default()
            },
        )
        .unwrap()
    });
    let report = client_thread.join().unwrap();
    assert_eq!(
        report.counters["steer.reconnect"], 2,
        "initial dial plus one recovery redial"
    );
    for r in &out {
        assert!(r.terminated_by_client);
    }
}

/// Soak (ci.sh --soak): a 200-step run surviving two rank kills, each
/// recovered from checkpoints, still bit-exact against the fault-free
/// serial reference.
#[test]
#[ignore = "soak tier: run with --ignored"]
fn soak_200_step_run_survives_two_kills_bit_exactly() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut reference = Solver::new(geo.clone(), cfg.clone());
    reference.step_n(200);
    let ref_rho = reference.snapshot().rho;

    let dir = scratch_dir("soak");
    let cp = dir.join("cp");
    let plan = FaultPlan::new(vec![
        FaultEvent {
            rank: 2,
            class: TagClass::Halo,
            step: 60,
            kind: FaultKind::KillRank,
        },
        FaultEvent {
            rank: 0,
            class: TagClass::Halo,
            step: 150,
            kind: FaultKind::KillRank,
        },
    ]);
    let (geo2, cfg2, cp2) = (geo.clone(), cfg.clone(), cp.clone());
    let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), move |comm| {
        let owner: Vec<usize> = (0..geo2.fluid_count())
            .map(|s| (s * comm.size() / geo2.fluid_count()).min(comm.size() - 1))
            .collect();
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
        if cp2.join(format!("rank_{}.chkp", comm.rank())).exists() {
            ds.restore(&cp2).unwrap();
        }
        while ds.step_count() < 200 {
            let burst = 25 - ds.step_count() % 25;
            ds.step_n(burst.min(200 - ds.step_count())).unwrap();
            ds.checkpoint(&cp2).unwrap();
        }
        ds.gather_snapshot().unwrap()
    });
    let merged = out.merged_obs();
    assert_eq!(merged.counters["fault.restarts"], 2);
    let snap = out.results[0].as_ref().expect("master gathers");
    assert_eq!(snap.rho, ref_rho, "200-step recovery is bit-exact");
    std::fs::remove_dir_all(&dir).ok();
}

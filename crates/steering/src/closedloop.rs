//! Closing the loop (paper Fig. 2): pre-processing → simulation → in
//! situ post-processing → steering → simulation …
//!
//! [`run_closed_loop`] is the SPMD driver that couples a
//! [`DistSolver`] with the in situ renderer and the master's one-seat
//! steering endpoint (`server::SteeringEndpoint`). Every cycle it
//!
//! 1. drains client commands at the master and **broadcasts** them, so
//!    every rank applies the identical command stream (steps 3–4 of the
//!    paper's §IV-C-1 loop);
//! 2. applies parameter changes (camera, field, vis-rate, ROI, inlet
//!    pressure — the "closing the loop" part);
//! 3. advances the solver unless paused;
//! 4. when a frame is due, renders each rank's own brick from its
//!    *local* snapshot, composites sort-last (steps 5–6), and the master
//!    ships the image plus a status report (consistency checks, ETA)
//!    back to the client.

use crate::adaptive::AdaptiveDriver;
use crate::error::{SteeringError, SteeringResult};
use crate::protocol::{FieldChoice, ImageFrame, ServerMessage, StatusReport, SteeringCommand};
use crate::server::{SteeringEndpoint, SteeringState};
use crate::transport::{Acceptor, Transport};
use hemelb_core::boundary::IoletBc;
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_insitu::camera::Camera;
use hemelb_insitu::compositing::{binary_swap, DeadlineCompositor};
use hemelb_insitu::transfer::TransferFunction;
use hemelb_insitu::volume::{render_brick_opts, Brick, RenderOptions};
use hemelb_parallel::{Communicator, Wire, WireReader, WireWriter};
use hemelb_partition::AdaptiveLbConfig;
use std::sync::Arc;
use std::time::Duration;

/// Closed-loop run parameters.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Stop after this many simulation steps (unless terminated).
    pub max_steps: u64,
    /// Rendered image size.
    pub image: (u32, u32),
    /// Initial frames cadence (client can change it).
    pub initial_vis_rate: u32,
    /// Simulation steps between command polls.
    pub steps_per_cycle: u32,
    /// If set, compositing waits at most this long per missing rank
    /// before shipping the frame without its contribution (reported as
    /// a degraded frame in [`StatusReport::problems`]). `None` keeps
    /// the fully synchronous binary-swap path.
    pub frame_deadline: Option<Duration>,
    /// Measurement-driven adaptive load balancing: when set, an
    /// [`AdaptiveDriver`] closes each decision window of
    /// `adaptive_lb.window_steps` steps with measured per-rank costs and
    /// repartitions when the hysteresis *and* the cost/benefit gate
    /// agree. A steering client can toggle the running driver live with
    /// [`SteeringCommand::SetAdaptiveLb`]; the config default applies
    /// until the first such command.
    pub adaptive_lb: Option<AdaptiveLbConfig>,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            max_steps: 1000,
            image: (128, 96),
            initial_vis_rate: 50,
            steps_per_cycle: 10,
            frame_deadline: None,
            adaptive_lb: None,
        }
    }
}

/// What happened during a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopOutcome {
    /// Simulation steps completed.
    pub steps_done: u64,
    /// Frames rendered and shipped.
    pub frames_rendered: u64,
    /// Steering commands applied (identical on every rank).
    pub commands_applied: u64,
    /// Whether the client requested termination.
    pub terminated_by_client: bool,
    /// Steering bytes sent to the client (master rank only, else 0).
    pub steering_bytes: u64,
    /// Mid-run repartitions performed.
    pub repartitions: u64,
    /// Sites this rank shipped away across all repartitions.
    pub sites_migrated: u64,
    /// Frames shipped with at least one rank's contribution missing
    /// because it blew the compositing deadline (master rank only).
    pub frames_degraded: u64,
}

/// Run the closed loop collectively. Rank 0 must pass the server-side
/// transport; other ranks pass `None`. With no acceptor nobody can
/// re-attach, so losing that client ends the run.
///
/// Each cycle's phases are recorded into the communicator's
/// observability recorder (`steer.poll`, `steer.broadcast`, `sim.step`,
/// `vis.render`, `vis.composite`, `steer.ship`), so
/// `Communicator::obs_report` — and the per-rank reports collected by
/// `run_spmd_opts` — break the steering round trip down by phase.
pub fn run_closed_loop(
    geo: Arc<SparseGeometry>,
    owner: Vec<usize>,
    solver_cfg: SolverConfig,
    comm: &Communicator,
    transport: Option<Box<dyn Transport>>,
    cfg: &ClosedLoopConfig,
) -> SteeringResult<ClosedLoopOutcome> {
    run_closed_loop_opts(geo, owner, solver_cfg, comm, transport, None, cfg)
}

/// [`run_closed_loop`] with an optional [`Acceptor`] on the master, so
/// the simulation can start (or continue) headless and let steering
/// clients attach mid-run — the graceful-degradation wiring of the
/// fault model. The master may then pass `transport: None`.
pub fn run_closed_loop_opts(
    geo: Arc<SparseGeometry>,
    owner: Vec<usize>,
    solver_cfg: SolverConfig,
    comm: &Communicator,
    transport: Option<Box<dyn Transport>>,
    acceptor: Option<Box<dyn Acceptor>>,
    cfg: &ClosedLoopConfig,
) -> SteeringResult<ClosedLoopOutcome> {
    if comm.is_master() {
        if transport.is_none() && acceptor.is_none() {
            return Err(SteeringError::Config(format!(
                "the master rank carries the steering transport or an acceptor \
                 (rank {} of {}, neither present)",
                comm.rank(),
                comm.size()
            )));
        }
    } else if transport.is_some() || acceptor.is_some() {
        return Err(SteeringError::Config(format!(
            "only the master rank carries steering endpoints \
             (rank {} of {} has one)",
            comm.rank(),
            comm.size()
        )));
    }
    let endpoint = comm
        .is_master()
        .then(|| SteeringEndpoint::new(transport, acceptor));
    let mut state = SteeringState::new(geo.shape());
    state.vis_rate = cfg.initial_vis_rate.max(1);

    let mut solver = DistSolver::new(geo.clone(), owner, solver_cfg, comm)?;
    let mut local_positions: Vec<[u32; 3]> = solver
        .local_sites()
        .iter()
        .map(|&g| geo.position(g))
        .collect();

    let mut outcome = ClosedLoopOutcome {
        steps_done: 0,
        frames_rendered: 0,
        commands_applied: 0,
        terminated_by_client: false,
        steering_bytes: 0,
        repartitions: 0,
        sites_migrated: 0,
        frames_degraded: 0,
    };
    let mut last_frame_step = 0u64;
    let mut prev_speed: Option<Vec<f64>> = None;
    let mut compositor = cfg.frame_deadline.map(|_| DeadlineCompositor::new());
    let mut adaptive = cfg.adaptive_lb.map(|c| AdaptiveDriver::new(&geo, c));
    let mut window_steps_done = 0u64;
    let inlets = geo.inlets().len();

    loop {
        // Step 3–4 of the paper's loop: client → master → all ranks.
        // The cycle broadcast carries the attachment flag alongside the
        // commands, so every rank agrees on whether periodic frames are
        // worth rendering (a headless run has nobody to show them to).
        let (commands, attached): (Vec<SteeringCommand>, bool) = if let Some(ep) = &endpoint {
            let span = comm.with_obs(|o| o.begin());
            let cmds = ep.poll_commands();
            comm.with_obs(|o| span.end(o, "steer.poll"));
            let attached = ep.attached();
            let span = comm.with_obs(|o| o.begin());
            let mut w = WireWriter::new();
            w.put_bool(attached);
            w.put_bytes(&cmds.to_bytes());
            comm.broadcast(0, Some(w.finish()))?;
            comm.with_obs(|o| span.end(o, "steer.broadcast"));
            (cmds, attached)
        } else {
            let span = comm.with_obs(|o| o.begin());
            let payload = comm.broadcast(0, None)?;
            comm.with_obs(|o| span.end(o, "steer.broadcast"));
            let mut r = WireReader::new(payload);
            let attached = r.get_bool()?;
            let cmds = Vec::<SteeringCommand>::from_bytes(r.get_bytes()?)?;
            (cmds, attached)
        };
        for cmd in &commands {
            state.apply(cmd);
            outcome.commands_applied += 1;
        }
        if state.terminate {
            outcome.terminated_by_client = true;
        }
        for (id, rho) in state.take_pressure_changes() {
            // An id past the geometry's inlets would grow the BC table
            // to `id + 1` entries on every rank and steer nothing.
            if (id as usize) < inlets {
                solver.set_inlet_bc(id as usize, IoletBc::Pressure { rho });
            } else {
                state.rejections.push(format!(
                    "rejected inlet pressure {rho} at inlet {id}: the geometry has \
                     {inlets} inlet(s)"
                ));
            }
        }

        // Advance the simulation.
        if !state.paused && !state.terminate {
            let remaining = cfg.max_steps.saturating_sub(outcome.steps_done);
            let burst = (cfg.steps_per_cycle as u64).min(remaining);
            let span = comm.with_obs(|o| o.begin());
            solver.step_n(burst)?;
            comm.with_obs(|o| span.end(o, "sim.step"));
            outcome.steps_done += burst;
            window_steps_done += burst;
        }

        // Measurement-driven adaptive load balancing: close the
        // decision window once enough steps have accumulated. The live
        // toggle arrives through the replicated command stream
        // (`SetAdaptiveLb`), so every rank agrees on whether the
        // collective window exchange happens.
        if let Some(driver) = adaptive.as_mut() {
            let enabled = state.adaptive_lb_override.unwrap_or(true);
            if enabled && window_steps_done >= driver.config().window_steps && !state.terminate {
                let remaining = cfg.max_steps.saturating_sub(outcome.steps_done);
                let decision =
                    driver.end_window(comm, &mut solver, window_steps_done, remaining)?;
                window_steps_done = 0;
                if decision.applied {
                    outcome.repartitions += 1;
                    outcome.sites_migrated += decision.sites_moved_local as u64;
                    // The render path indexes by local site; refresh.
                    local_positions = solver
                        .local_sites()
                        .iter()
                        .map(|&g| geo.position(g))
                        .collect();
                    prev_speed = None;
                }
            }
        }

        // In situ observable extraction over the ROI (collective
        // reductions; no field data leaves the ranks).
        if state.observables_requested {
            state.observables_requested = false;
            let snap = solver.local_snapshot();
            let in_roi = |p: &[u32; 3]| match state.roi {
                None => true,
                Some((lo, hi)) => (0..3).all(|a| p[a] >= lo[a] && p[a] < hi[a]),
            };
            let mut sites = 0u64;
            let mut sum_rho = 0.0f64;
            let mut sum_speed = 0.0f64;
            let mut max_speed = 0.0f64;
            let mut max_wss = 0.0f64;
            let nu = solver.config().viscosity();
            for (i, p) in local_positions.iter().enumerate() {
                if !in_roi(p) {
                    continue;
                }
                sites += 1;
                sum_rho += snap.rho[i];
                let sp = snap.speed(i);
                sum_speed += sp;
                max_speed = max_speed.max(sp);
                if geo.kind(solver.local_sites()[i]) == hemelb_geometry::SiteKind::Wall {
                    max_wss = max_wss.max(snap.rho[i] * nu * snap.shear[i]);
                }
            }
            let sums =
                comm.all_reduce_f64_vec(vec![sites as f64, sum_rho, sum_speed], |a, b| a + b)?;
            let maxes = comm.all_reduce_f64_vec(vec![max_speed, max_wss], f64::max)?;
            if let Some(ep) = &endpoint {
                let n = sums[0].max(1.0);
                ep.send_observables(crate::protocol::ObservableReport {
                    step: outcome.steps_done,
                    sites: sums[0] as u64,
                    mean_density: sums[1] / n,
                    mean_speed: sums[2] / n,
                    max_speed: maxes[0],
                    max_wss: maxes[1],
                    roi: state.roi,
                });
            }
        }

        // Steps 5–6: render and return the image when due. Periodic
        // frames only matter while a client is watching; explicit
        // requests are honoured regardless (they were queued before the
        // client vanished).
        let due = state.frame_requested
            || (attached
                && !state.paused
                && outcome.steps_done >= last_frame_step + state.vis_rate as u64);
        if due {
            state.frame_requested = false;
            last_frame_step = outcome.steps_done;
            let snap = solver.local_snapshot();

            let cam = Camera {
                eye: Vec3::from(state.eye),
                target: Vec3::from(state.target),
                up: Vec3::from(state.up),
                fov_y: state.fov_y,
                width: cfg.image.0,
                height: cfg.image.1,
            };
            // Every site's speed: the status monitors below want it on
            // every due frame, and it is the field most often drawn.
            let speeds: Vec<f64> = (0..snap.len()).map(|i| snap.speed(i)).collect();

            let displayed: &[f64] = match state.field {
                FieldChoice::Density => &snap.rho,
                FieldChoice::Speed => &speeds,
                FieldChoice::Shear => &snap.shear,
            };
            // ROI restriction, if any; without one the sites and their
            // values are rendered where they lie.
            let in_roi: Option<(Vec<[u32; 3]>, Vec<f64>)> = state.roi.map(|(lo, hi)| {
                local_positions
                    .iter()
                    .zip(displayed)
                    .filter(|(p, _)| (0..3).all(|a| p[a] >= lo[a] && p[a] < hi[a]))
                    .map(|(p, v)| (*p, *v))
                    .unzip()
            });
            let (points, values): (&[[u32; 3]], &[f64]) = match &in_roi {
                None => (&local_positions, displayed),
                Some((points, values)) => (points, values),
            };

            // A consistent transfer-function range needs the *global*
            // min/max of the displayed values.
            let local_min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let local_max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let global = comm.all_reduce_f64_vec(vec![-local_min, local_max], f64::max)?;
            let (lo_v, hi_v) = (-global[0], global[1]);
            let tf = TransferFunction::heat(lo_v, hi_v.max(lo_v + 1e-9));

            let span = comm.with_obs(|o| o.begin());
            let partial = match Brick::from_points(points, values) {
                Some(brick) => {
                    let (partial, st) =
                        render_brick_opts(&brick, &cam, &tf, 0.5, &RenderOptions::default());
                    comm.with_obs(|o| {
                        o.count("vis.render.samples_shaded", st.samples_shaded);
                        o.count("vis.render.samples_skipped", st.samples_skipped);
                    });
                    partial
                }
                None => hemelb_insitu::image::PartialImage::new(cam.width, cam.height),
            };
            comm.with_obs(|o| span.end(o, "vis.render"));
            let span = comm.with_obs(|o| o.begin());
            let (composited, dropped_ranks) = match (&mut compositor, cfg.frame_deadline) {
                (Some(dc), Some(deadline)) => {
                    let out = dc.composite(comm, partial, deadline)?;
                    (out.image, out.dropped)
                }
                _ => (binary_swap(comm, partial)?, Vec::new()),
            };
            comm.with_obs(|o| span.end(o, "vis.composite"));
            if !dropped_ranks.is_empty() {
                outcome.frames_degraded += 1;
            }

            // What the master ships: the encoded image message.
            let frame_bytes: Option<Vec<u8>> = composited.map(|image| {
                ServerMessage::Image(ImageFrame {
                    step: outcome.steps_done,
                    width: image.width,
                    height: image.height,
                    rgb: image.to_rgb8(),
                })
                .to_bytes()
            });
            outcome.frames_rendered += 1;

            // Status: global consistency monitors.
            let mass = solver.mass()?;
            let local_max_speed = speeds.iter().cloned().fold(0.0, f64::max);
            let max_speed = comm.all_reduce_f64(local_max_speed, f64::max)?;
            let residual = match &prev_speed {
                None => 0.0,
                Some(prev) => {
                    let local: f64 = speeds
                        .iter()
                        .zip(prev)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let stats =
                        comm.all_reduce_f64_vec(vec![local, speeds.len() as f64], |a, b| a + b)?;
                    (stats[0] / stats[1].max(1.0)).sqrt()
                }
            };
            prev_speed = Some(speeds);

            // Drained on every rank (the command stream is replicated,
            // so the queue is identical everywhere); reported by the
            // master as part of the status problems.
            let rejections = state.take_rejections();
            if let Some(ep) = &endpoint {
                let span = comm.with_obs(|o| o.begin());
                let mut problems = snap.validity_report();
                problems.extend(rejections);
                if !dropped_ranks.is_empty() {
                    problems.push(format!(
                        "degraded frame: compositing deadline dropped ranks {dropped_ranks:?}"
                    ));
                }
                problems.extend(ep.take_events());
                ep.send_status(StatusReport {
                    step: outcome.steps_done,
                    mass,
                    max_speed,
                    residual,
                    problems,
                    eta_steps: cfg.max_steps.saturating_sub(outcome.steps_done),
                    paused: state.paused,
                    rebalances: outcome.repartitions,
                    lb_imbalance: adaptive.as_ref().map_or(1.0, |d| d.last_imbalance()),
                    sessions: ep.attached() as u32,
                    cache_hits: 0,
                    cache_misses: 0,
                });
                if let Some(bytes) = frame_bytes {
                    ep.send_frame_bytes(bytes);
                }
                comm.with_obs(|o| span.end(o, "steer.ship"));
            }
        }

        if state.terminate || outcome.steps_done >= cfg.max_steps {
            break;
        }
    }

    if let Some(ep) = &endpoint {
        // Sends never block; push the run's last frame out before the
        // endpoint (and with it the transport) is dropped.
        ep.flush();
        outcome.steering_bytes = ep.bytes_sent();
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SteeringClient;
    use crate::transport::duplex_pair;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;
    use std::sync::Mutex;

    fn demo_geo() -> Arc<SparseGeometry> {
        Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0))
    }

    fn slab_owner(geo: &SparseGeometry, p: usize) -> Vec<usize> {
        (0..geo.fluid_count() as u32)
            .map(|s| (geo.position(s)[0] as usize * p / geo.shape()[0]).min(p - 1))
            .collect()
    }

    #[test]
    fn loop_runs_to_max_steps_without_a_client_command() {
        let geo = demo_geo();
        let (client_end, server_end) = duplex_pair();
        let _client = SteeringClient::new(Box::new(client_end));
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();
        let results = run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: 60,
                    image: (32, 24),
                    initial_vis_rate: 20,
                    steps_per_cycle: 10,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        for r in &results {
            assert_eq!(r.steps_done, 60);
            assert_eq!(r.frames_rendered, 3, "frames at steps 20, 40, 60");
            assert!(!r.terminated_by_client);
        }
        assert!(results[0].steering_bytes > 0, "images were shipped");
    }

    #[test]
    fn slow_link_to_the_only_client_does_not_end_the_run() {
        // 256 B leave per pump against a ~2.3 KB frame every cycle: the
        // backlog never empties for the whole run. Nobody could replace
        // this client, so the run must go on rather than detach it as
        // wedged and terminate (the zero-deadline form of this is
        // `server::tests::drain_deadline_spares_an_irreplaceable_client`).
        let geo = demo_geo();
        let server_slot = Arc::new(Mutex::new(Some(crate::server::tests::backlogging(256))));
        let results = run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo.clone(),
                slab_owner(&geo, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: 100,
                    image: (32, 24),
                    initial_vis_rate: 10,
                    steps_per_cycle: 10,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        for r in &results {
            assert_eq!(r.steps_done, 100);
            assert_eq!(r.frames_rendered, 10);
            assert!(!r.terminated_by_client);
        }
    }

    #[test]
    fn roi_observables_reflect_the_subset() {
        let geo = demo_geo();
        let shape = geo.shape();
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let hi = [shape[0] as u32, shape[1] as u32, shape[2] as u32];
        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            // Let the flow develop: each frame round trip paces at least
            // one cycle of simulation steps.
            loop {
                let (img, _) = client.request_frame().unwrap();
                if img.step >= 100 {
                    break;
                }
            }
            // Freeze the flow so both measurements see the same state.
            client.send(&SteeringCommand::Pause).unwrap();
            // Whole-domain observables first.
            let (whole, _) = client.request_observables().unwrap();
            // Then restrict to the inlet half.
            client
                .send(&SteeringCommand::SetRoi {
                    lo: [0, 0, 0],
                    hi: [hi[0] / 2, hi[1], hi[2]],
                })
                .unwrap();
            let (half, _) = client.request_observables().unwrap();
            client.send(&SteeringCommand::Terminate).unwrap();
            while client.recv().is_ok() {}
            (whole, half)
        });

        run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.01, 0.99),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: u64::MAX / 2,
                    image: (16, 12),
                    initial_vis_rate: u32::MAX,
                    steps_per_cycle: 10,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let (whole, half) = client_thread.join().unwrap();
        assert_eq!(whole.sites as usize, geo.fluid_count());
        assert!(half.sites > 0 && half.sites < whole.sites);
        assert!(half.roi.is_some());
        // The inlet half sits at higher pressure than the domain mean in
        // a pressure-driven flow.
        assert!(
            half.mean_density > whole.mean_density,
            "inlet half {} !> whole {}",
            half.mean_density,
            whole.mean_density
        );
        // Paused: the subset maximum cannot exceed the global maximum.
        assert!(whole.max_speed >= half.max_speed);
        assert_eq!(whole.step, half.step, "both measured on the same state");
    }

    #[test]
    fn camera_change_renders_the_new_view_without_repartitioning() {
        let geo = demo_geo();
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            // Run a while, then orbit the camera, then keep running and
            // terminate.
            let before = loop {
                let (img, _) = client.request_frame().unwrap();
                if img.step >= 30 {
                    break img;
                }
            };
            client
                .send(&SteeringCommand::SetCamera {
                    eye: [50.0, 8.0, 8.0],
                    target: [8.0, 8.0, 8.0],
                    up: [0.0, 0.0, 1.0],
                    fov_y: 0.8,
                })
                .unwrap();
            let after = loop {
                let (img, _) = client.request_frame().unwrap();
                if img.step >= 60 {
                    break img;
                }
            };
            client.send(&SteeringCommand::Terminate).unwrap();
            while client.recv().is_ok() {}
            (before, after)
        });

        let results = run_spmd(3, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.01, 0.99),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: u64::MAX / 2,
                    image: (16, 12),
                    initial_vis_rate: u32::MAX,
                    steps_per_cycle: 10,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let (before, after) = client_thread.join().unwrap();
        // The new view shows the vessel, and it is a different picture:
        // down the tube axis instead of side-on.
        let drawn = |img: &ImageFrame| img.rgb.chunks(3).filter(|c| *c != [255; 3]).count();
        assert!(drawn(&before) > 0 && drawn(&after) > 0);
        assert_ne!(before.rgb, after.rgb, "the camera command took effect");
        // A view change alone moves no site: only a measured, priced
        // imbalance does, and this run has no adaptive driver.
        for r in &results {
            assert_eq!(r.repartitions, 0);
            assert_eq!(r.sites_migrated, 0);
        }
    }

    #[test]
    fn rejected_roi_reaches_the_client_and_phases_are_recorded() {
        let geo = demo_geo();
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            // Inverted on x: must be rejected, not applied.
            client
                .send(&SteeringCommand::SetRoi {
                    lo: [9, 0, 0],
                    hi: [3, 16, 16],
                })
                .unwrap();
            let mut rejection = None;
            while rejection.is_none() {
                client.send(&SteeringCommand::RequestFrame).unwrap();
                let (_, statuses) = client.wait_for_image().unwrap();
                rejection = statuses
                    .iter()
                    .flat_map(|s| &s.problems)
                    .find(|p| p.contains("rejected ROI"))
                    .cloned();
            }
            // One timed round so the steer.rtt phase is populated.
            client.request_frame().unwrap();
            client.send(&SteeringCommand::Terminate).unwrap();
            while client.recv().is_ok() {}
            (rejection.unwrap(), client.obs_report())
        });

        let results = run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            let outcome = run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: u64::MAX / 2,
                    image: (16, 12),
                    initial_vis_rate: u32::MAX,
                    steps_per_cycle: 5,
                    ..Default::default()
                },
            )
            .unwrap();
            (outcome, comm.obs_report())
        });

        let (rejection, client_report) = client_thread.join().unwrap();
        assert!(rejection.contains("domain"), "{rejection}");
        // The client measured at least one full round trip.
        let rtt = &client_report.phases["steer.rtt"];
        assert!(rtt.calls >= 1);
        assert!(rtt.total_secs > 0.0);
        assert!(rtt.hist.p50() > 0.0);
        // Every rank recorded the loop phases; only the master polls
        // the transport and ships frames.
        for (i, (outcome, report)) in results.iter().enumerate() {
            assert!(outcome.terminated_by_client);
            for phase in ["steer.broadcast", "sim.step", "vis.render", "vis.composite"] {
                let p = report
                    .phases
                    .get(phase)
                    .unwrap_or_else(|| panic!("rank {i} missing {phase}"));
                assert!(p.calls >= 1);
            }
        }
        assert!(results[0].1.phases.contains_key("steer.poll"));
        assert!(results[0].1.phases.contains_key("steer.ship"));
        assert!(!results[1].1.phases.contains_key("steer.poll"));
    }

    #[test]
    fn unknown_inlet_or_bad_density_is_rejected_not_applied() {
        let geo = demo_geo();
        assert_eq!(geo.inlets().len(), 1);
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            for (id, rho) in [(7, 1.02), (0, f64::NAN), (0, 1.02)] {
                client
                    .send(&SteeringCommand::SetInletPressure { id, rho })
                    .unwrap();
            }
            // Both notices drain into the status ahead of the first
            // requested frame; the second frame shows nothing trails.
            let mut problems = Vec::new();
            for _ in 0..2 {
                client.send(&SteeringCommand::RequestFrame).unwrap();
                let (_, statuses) = client.wait_for_image().unwrap();
                problems.extend(statuses.into_iter().flat_map(|s| s.problems));
            }
            client.send(&SteeringCommand::Terminate).unwrap();
            while client.recv().is_ok() {}
            problems
        });

        run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                transport,
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

        let problems = client_thread.join().unwrap();
        let rejected: Vec<&String> = problems
            .iter()
            .filter(|p| p.contains("rejected inlet pressure"))
            .collect();
        assert_eq!(rejected.len(), 2, "{problems:?}");
        assert!(
            rejected.iter().any(|p| p.contains("inlet 7")),
            "{rejected:?}"
        );
        assert!(rejected.iter().any(|p| p.contains("NaN")), "{rejected:?}");
    }

    #[test]
    fn client_loss_goes_headless_and_a_new_client_reattaches() {
        use crate::transport::duplex_listener;
        let geo = demo_geo();
        let geo2 = geo.clone();
        let (connector, acceptor) = duplex_listener();
        let acceptor_slot = Arc::new(Mutex::new(Some(
            Box::new(acceptor) as Box<dyn crate::transport::Acceptor>
        )));

        let client_thread = std::thread::spawn(move || {
            // First client: steer a little, then vanish without a
            // Terminate — under the headless policy the run survives.
            let c1 = SteeringClient::new(Box::new(connector.connect().unwrap()));
            let (img, _) = c1.request_frame().unwrap();
            assert!(img.step >= 1);
            drop(c1);
            // Second client attaches to the same run, later in time.
            let c2 = SteeringClient::new(Box::new(connector.connect().unwrap()));
            let (img2, _) = c2.request_frame().unwrap();
            assert!(img2.step > img.step, "the run kept going headless");
            c2.send(&SteeringCommand::Terminate).unwrap();
            while c2.recv().is_ok() {}
        });

        let results = run_spmd(2, move |comm| {
            let acceptor = if comm.is_master() {
                acceptor_slot.lock().unwrap().take()
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
                    image: (16, 12),
                    initial_vis_rate: u32::MAX,
                    steps_per_cycle: 5,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        client_thread.join().unwrap();
        for r in &results {
            assert!(r.terminated_by_client, "second client's Terminate landed");
            assert!(r.frames_rendered >= 2);
        }
    }

    #[test]
    fn adaptive_lb_rebalances_a_skewed_start_and_reports_it() {
        let geo = demo_geo();
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            // Let the adaptive windows run, then switch the balancer
            // off live and run some more; finally terminate.
            let mut toggled = false;
            let mut reports = Vec::new();
            loop {
                client.send(&SteeringCommand::RequestFrame).unwrap();
                let (img, statuses) = client.wait_for_image().unwrap();
                reports.extend(statuses);
                if img.step >= 120 && !toggled {
                    toggled = true;
                    client.send(&SteeringCommand::SetAdaptiveLb(false)).unwrap();
                }
                if img.step >= 200 {
                    break;
                }
            }
            client.send(&SteeringCommand::Terminate).unwrap();
            while client.recv().is_ok() {}
            reports
        });

        let results = run_spmd(3, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            // Deliberately skewed: rank 0 starts with 75% of the sites.
            let n = geo2.fluid_count();
            let heavy = n * 3 / 4;
            let p = comm.size();
            let owner: Vec<usize> = (0..n)
                .map(|s| {
                    if s < heavy {
                        0
                    } else {
                        (1 + (s - heavy) * (p - 1) / (n - heavy)).min(p - 1)
                    }
                })
                .collect();
            run_closed_loop(
                geo2.clone(),
                owner,
                SolverConfig::pressure_driven(1.01, 0.99),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: u64::MAX / 2,
                    image: (16, 12),
                    initial_vis_rate: 20,
                    steps_per_cycle: 10,
                    adaptive_lb: Some(hemelb_partition::AdaptiveLbConfig {
                        window_steps: 20,
                        threshold: 1.1,
                        hysteresis_windows: 1,
                        min_payoff: 0.0,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let reports = client_thread.join().unwrap();
        for r in &results {
            assert_eq!(
                r.repartitions, results[0].repartitions,
                "the adaptive decision is collective"
            );
            assert!(
                r.repartitions >= 1,
                "a 75% skew with an open gate must rebalance at least once"
            );
        }
        assert!(
            results.iter().map(|r| r.sites_migrated).sum::<u64>() > 0,
            "the rebalance must move sites"
        );
        // The status stream carries the adaptive surface.
        let last = reports.last().expect("status reports shipped");
        assert_eq!(last.rebalances, results[0].repartitions);
        assert!(last.lb_imbalance >= 1.0);
    }

    #[test]
    fn missing_transport_on_the_master_is_an_error_not_a_panic() {
        let geo = demo_geo();
        let geo2 = geo.clone();
        let results = run_spmd(2, move |comm| {
            // Nobody carries a transport: the master must refuse the
            // wiring; the other rank then sees the collective fail.
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                None,
                &ClosedLoopConfig {
                    max_steps: 20,
                    image: (8, 6),
                    initial_vis_rate: 10,
                    steps_per_cycle: 5,
                    ..Default::default()
                },
            )
            .err()
            .map(|e| e.to_string())
        });
        let master_err = results[0].as_ref().expect("master must error");
        assert!(master_err.contains("master rank"), "{master_err}");
        assert!(results[1].is_some(), "the worker cannot finish alone");
    }

    #[test]
    fn client_steers_and_terminates() {
        let geo = demo_geo();
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            // Steps 2–3 of the loop: connect + send vis parameters.
            client
                .send(&SteeringCommand::SetVisRate(1_000_000))
                .unwrap();
            client
                .send(&SteeringCommand::SetField(
                    crate::protocol::FieldChoice::Density,
                ))
                .unwrap();
            // Ask for a frame explicitly and wait for it (steps 4–6).
            let (img, rtt) = client.request_frame().unwrap();
            assert_eq!(img.width, 32);
            assert_eq!(img.rgb.len(), 32 * 24 * 3);
            assert!(rtt.as_secs() < 60);
            // Steer a parameter, then stop the run.
            client
                .send(&SteeringCommand::SetInletPressure { id: 0, rho: 1.02 })
                .unwrap();
            client.send(&SteeringCommand::Terminate).unwrap();
            // Drain whatever else arrives until the server goes away.
            while client.recv().is_ok() {}
            img
        });

        let results = run_spmd(2, move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().unwrap().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.005, 0.995),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: 1_000_000, // only the client stops this run
                    image: (32, 24),
                    initial_vis_rate: 1_000_000,
                    steps_per_cycle: 5,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let img = client_thread.join().unwrap();
        // The vessel must actually be visible in the returned frame.
        let non_white = img
            .rgb
            .chunks(3)
            .filter(|c| c[0] != 255 || c[1] != 255 || c[2] != 255)
            .count();
        assert!(non_white > 10, "frame should show the vessel: {non_white}");
        for r in &results {
            assert!(r.terminated_by_client, "client sent Terminate");
            assert!(r.frames_rendered >= 1);
            assert!(r.commands_applied >= 5);
        }
    }
}

//! `steer_volume`: the paper's Fig. 2 loop. Two ranks run
//! `run_closed_loop`; one scripted client drives it in a closed loop
//! (the next `RequestFrame` only after the previous image is decoded),
//! swinging the camera every ten frames and raising the inlet pressure
//! once.
//!
//! `run_closed_loop` is one public call, so the traced window composes
//! the same cycle from the public functions it is made of, with a span
//! around each, and the header says how far the composed frame time is
//! from the real loop's.

use crate::halo::partition_metrics;
use crate::ranks::{on_ranks, RANKS};
use crate::report::{Report, RunArgs, Window};
use crate::stats::{imbalance, median};
use crate::trace::{Summary, Track, WINDOW};
use crate::util::{aneurysm, kway_map, seeded_rho_in, timed, KwayMap, Ledger, Rng, DX_SMALL};
use hemelb_core::boundary::IoletBc;
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_insitu::compositing::binary_swap;
use hemelb_insitu::image::PartialImage;
use hemelb_insitu::volume::{render_brick_opts, Brick, RenderOptions, RenderStats};
use hemelb_insitu::{Camera, TransferFunction};
use hemelb_parallel::{CommStats, Communicator, SpmdOutput, TagClass, Wire};
use hemelb_steering::protocol::{ImageFrame, ServerMessage, StatusReport, SteeringCommand};
use hemelb_steering::server::SteeringState;
use hemelb_steering::{
    duplex_pair, run_closed_loop, ClosedLoopConfig, ClosedLoopOutcome, SteeringClient, Transport,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const IMAGE: (u32, u32) = (256, 192);
const STEPS_PER_CYCLE: u32 = 5;
const CAMERA_EVERY: usize = 10;
const RHO_STEERED: f64 = 1.03;

/// The client's seeded script: the camera swing and when the inlet
/// pressure is raised.
struct Script {
    centre: [f64; 3],
    radius: f64,
    phase: f64,
    sweep: f64,
    pressure_frame: usize,
}

impl Script {
    fn new(geo: &SparseGeometry, rng: &mut Rng) -> Self {
        let centre = geo.shape().map(|n| n as f64 / 2.0);
        Script {
            centre,
            radius: centre.iter().map(|c| c * c).sum::<f64>().sqrt(),
            phase: rng.unit() * std::f64::consts::TAU,
            sweep: if rng.unit() < 0.5 { 0.7 } else { -0.7 },
            pressure_frame: 1 + (rng.unit() * 4.0) as usize,
        }
    }

    /// The `k`-th camera: a swing of ±0.35 rad about the default view
    /// along −y, with a little elevation. Small enough that the seed
    /// moves the rendering cost of a window by less than the box's
    /// noise.
    fn camera(&self, k: usize) -> SteeringCommand {
        let a = 0.35 * (self.phase + self.sweep * k as f64).sin();
        let lift = 0.15 * (self.phase + 0.9 * k as f64).cos();
        let d = 3.0 * self.radius;
        let c = self.centre;
        SteeringCommand::SetCamera {
            eye: [c[0] + d * a.sin(), c[1] - d * a.cos(), c[2] + d * lift],
            target: c,
            up: [0.0, 0.0, 1.0],
            fov_y: 45f64.to_radians(),
        }
    }

    /// Commands to send ahead of frame `k` of the timed window.
    fn before_frame(&self, k: usize) -> Vec<SteeringCommand> {
        let mut cmds = Vec::new();
        if k.is_multiple_of(CAMERA_EVERY) {
            cmds.push(self.camera(k / CAMERA_EVERY));
        }
        if k == self.pressure_frame {
            cmds.push(SteeringCommand::SetInletPressure {
                id: 0,
                rho: RHO_STEERED,
            });
        }
        cmds
    }
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    /// Seconds from the start of set-up to the first decoded image.
    first_frame_s: f64,
    window: Window,
    ledger: Ledger,
}

/// Checks on every delivered frame, and on the flow's response to the
/// pressure command once the session is over.
#[derive(Default)]
struct FrameChecks {
    last_step: u64,
    speed_at_pressure: Option<f64>,
    last_speed: f64,
}

impl FrameChecks {
    fn frame(&mut self, ledger: &mut Ledger, img: &ImageFrame, status: Option<&StatusReport>) {
        ledger.check((img.width, img.height) == IMAGE, || {
            format!("steer_volume: frame is {}x{}", img.width, img.height)
        });
        let lit = img.rgb.chunks_exact(3).any(|p| p != [255, 255, 255]);
        ledger.check(lit, || "steer_volume: frame has no lit pixel".into());
        ledger.check(img.step >= self.last_step, || {
            format!("steer_volume: frame step {} < {}", img.step, self.last_step)
        });
        self.last_step = img.step;
        if let Some(status) = status {
            self.last_speed = status.max_speed;
            ledger.check(status.problems.is_empty(), || {
                format!("steer_volume: status problems {:?}", status.problems)
            });
        }
    }

    fn pressure_sent(&mut self) {
        self.speed_at_pressure = Some(self.last_speed);
    }

    fn finish(&self, ledger: &mut Ledger) {
        let risen = self
            .speed_at_pressure
            .map(|before| self.last_speed > before);
        ledger.check(risen == Some(true), || {
            format!(
                "steer_volume: max speed {} did not rise above {:?} at SetInletPressure",
                self.last_speed, self.speed_at_pressure
            )
        });
    }
}

/// The closed-loop client. `request` performs one round trip and hands
/// back the image with the status that came with it. The first round
/// ends set-up; with `seconds` the scripted window follows.
fn drive_client(
    t0: Instant,
    script: &Script,
    seconds: Option<f64>,
    send: &dyn Fn(&SteeringCommand),
    request: &mut dyn FnMut() -> (ImageFrame, Option<StatusReport>),
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut checks = FrameChecks::default();
    let (img, status) = request();
    log.first_frame_s = t0.elapsed().as_secs_f64();
    checks.frame(&mut log.ledger, &img, status.as_ref());
    if let Some(seconds) = seconds {
        let start = Instant::now();
        for k in 0.. {
            for cmd in script.before_frame(k) {
                if matches!(cmd, SteeringCommand::SetInletPressure { .. }) {
                    checks.pressure_sent();
                }
                send(&cmd);
            }
            let ((img, status), rtt) = timed(&mut *request);
            log.window.push(rtt, start.elapsed().as_secs_f64());
            checks.frame(&mut log.ledger, &img, status.as_ref());
            if log.window.wall >= seconds {
                break;
            }
        }
        checks.finish(&mut log.ledger);
    }
    log.ledger.ops(log.window.ops() + 1);
    send(&SteeringCommand::Terminate);
    log
}

struct Inputs {
    geo: Arc<SparseGeometry>,
    map: KwayMap,
    voxelise_s: f64,
    cfg: SolverConfig,
}

fn inputs(cfg: &SolverConfig, track: &mut Track) -> Inputs {
    let (geo, voxelise_s) = track.leaf("geometry.voxelise", || aneurysm(DX_SMALL));
    let map = kway_map(track, &geo, RANKS);
    Inputs {
        geo,
        map,
        voxelise_s,
        cfg: cfg.clone(),
    }
}

/// One session of the real loop: set-up, first frame and — with
/// `seconds` — the scripted window. Returns the client's log and the
/// master's outcome.
fn real_session(
    script_seed: u64,
    cfg: &SolverConfig,
    seconds: Option<f64>,
) -> (Inputs, ClientLog, ClosedLoopOutcome) {
    let t0 = Instant::now();
    let inp = inputs(cfg, &mut Track::new("main", t0));
    let script = Script::new(&inp.geo, &mut Rng::new(script_seed));
    let (client_end, server_end) = duplex_pair();
    let server_slot = Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>));
    let loop_cfg = ClosedLoopConfig {
        max_steps: u64::MAX / 2,
        image: IMAGE,
        initial_vis_rate: u32::MAX,
        steps_per_cycle: STEPS_PER_CYCLE,
        ..Default::default()
    };
    let (log, outcome) = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let client = SteeringClient::new(Box::new(client_end));
            let log = drive_client(
                t0,
                &script,
                seconds,
                &|cmd| client.send(cmd).expect("steering command"),
                &mut || {
                    client
                        .send(&SteeringCommand::RequestFrame)
                        .expect("frame request");
                    let (img, mut statuses) = client.wait_for_image().expect("frame");
                    (img, statuses.pop())
                },
            );
            // Block until the loop has closed the link.
            while client.recv().is_ok() {}
            log
        });
        let out = on_ranks(|comm| {
            comm.set_obs_enabled(false);
            let transport = comm
                .is_master()
                .then(|| server_slot.lock().expect("server slot").take())
                .flatten();
            run_closed_loop(
                inp.geo.clone(),
                inp.map.owner.clone(),
                inp.cfg.clone(),
                comm,
                transport,
                &loop_cfg,
            )
            .expect("closed loop")
        });
        let mut outcomes = out.results;
        (
            client.join().expect("client thread"),
            outcomes.swap_remove(0),
        )
    });
    (inp, log, outcome)
}

/// Per-rank result of the composed (traced) loop.
struct ComposedRank {
    track: Track,
    frames: u64,
    render: RenderStats,
    /// Communication counters over the loop and its wall seconds.
    comm: CommStats,
    wall: f64,
}

/// The cycle of `run_closed_loop`, composed from public functions with
/// a span around each call into a layer. Rank 0 serves the client over
/// the raw transport.
fn composed_rank(
    comm: &Communicator,
    epoch: Instant,
    inp: &Inputs,
    transport: Option<Box<dyn Transport>>,
) -> ComposedRank {
    comm.set_obs_enabled(true);
    let mut track = Track::new(format!("rank{}", comm.rank()), epoch);
    track.set_enabled(true);
    let (mut solver, _) = track.leaf("core.solver_new", || {
        DistSolver::new(
            inp.geo.clone(),
            inp.map.owner.clone(),
            inp.cfg.clone(),
            comm,
        )
        .expect("distributed solver construction")
    });
    let positions: Vec<[u32; 3]> = solver
        .local_sites()
        .iter()
        .map(|&g| inp.geo.position(g))
        .collect();
    let mut state = SteeringState::new(inp.geo.shape());
    let (mut steps, mut frames) = (0u64, 0u64);
    let mut render = RenderStats::default();
    let mut prev_speed: Option<Vec<f64>> = None;
    let before = comm.stats();

    let (_, wall) = track.span(WINDOW, |t| loop {
        let cmds: Vec<SteeringCommand> = match &transport {
            Some(link) => {
                let (cmds, _) = t.leaf("steering.poll", || {
                    let mut cmds = Vec::new();
                    while let Ok(Some(frame)) = link.try_recv_frame() {
                        cmds.push(SteeringCommand::from_bytes(frame).expect("command decodes"));
                    }
                    cmds
                });
                t.leaf("parallel.broadcast", || {
                    comm.broadcast(0, Some(cmds.to_bytes())).expect("broadcast")
                });
                cmds
            }
            None => {
                let (payload, _) = t.leaf("parallel.broadcast", || {
                    comm.broadcast(0, None).expect("broadcast")
                });
                Vec::from_bytes(payload).expect("commands decode")
            }
        };
        cmds.iter().for_each(|c| state.apply(c));
        for (id, rho) in state.take_pressure_changes() {
            solver.set_inlet_bc(id as usize, IoletBc::Pressure { rho });
        }
        if state.terminate {
            break;
        }

        let halo_before = comm.stats();
        t.leaf("core.step_n", || {
            solver.step_n(STEPS_PER_CYCLE as u64).expect("steps")
        });
        let waited = comm.stats().delta_since(&halo_before);
        t.attach("parallel.halo_wait", waited.recv_wait_secs(TagClass::Halo));
        steps += STEPS_PER_CYCLE as u64;
        if !state.frame_requested {
            continue;
        }
        state.frame_requested = false;

        let (snap, _) = t.leaf("core.local_snapshot", || solver.local_snapshot());
        let speeds: Vec<f64> = (0..snap.len()).map(|i| snap.speed(i)).collect();
        let lo = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = speeds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (range, _) = t.leaf("parallel.range_reduce", || {
            comm.all_reduce_f64_vec(vec![-lo, hi], f64::max)
                .expect("range reduce")
        });
        let tf = TransferFunction::heat(-range[0], range[1].max(-range[0] + 1e-9));
        let cam = Camera {
            eye: Vec3::from(state.eye),
            target: Vec3::from(state.target),
            up: Vec3::from(state.up),
            fov_y: state.fov_y,
            width: IMAGE.0,
            height: IMAGE.1,
        };
        let (brick, _) = t.leaf("insitu.brick_build", || {
            Brick::from_points(&positions, &speeds)
        });
        let (partial, _) = t.leaf("insitu.render", || match &brick {
            Some(brick) => {
                let (partial, st) =
                    render_brick_opts(brick, &cam, &tf, 0.5, &RenderOptions::default());
                render.rays += st.rays;
                render.samples_shaded += st.samples_shaded;
                render.samples_skipped += st.samples_skipped;
                partial
            }
            None => PartialImage::new(IMAGE.0, IMAGE.1),
        });
        let swap_before = comm.stats();
        let (image, _) = t.leaf("insitu.composite", || {
            binary_swap(comm, partial).expect("binary swap")
        });
        let waited = comm.stats().delta_since(&swap_before);
        t.attach(
            "parallel.composite_wait",
            waited.recv_wait_secs(TagClass::Compositing),
        );

        // The status monitors of the real loop: mass, peak speed and
        // the RMS change since the last frame.
        let ((mass, max_speed, residual), _) = t.leaf("parallel.status_reduce", || {
            let mass = solver.mass().expect("mass");
            let max_speed = comm
                .all_reduce_f64(hi.max(0.0), f64::max)
                .expect("max speed");
            let residual = match &prev_speed {
                None => 0.0,
                Some(prev) => {
                    let sq: f64 = speeds
                        .iter()
                        .zip(prev)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    let sums = comm
                        .all_reduce_f64_vec(vec![sq, speeds.len() as f64], |a, b| a + b)
                        .expect("residual");
                    (sums[0] / sums[1].max(1.0)).sqrt()
                }
            };
            (mass, max_speed, residual)
        });
        let problems = snap.validity_report();
        prev_speed = Some(speeds);
        frames += 1;

        if let (Some(link), Some(image)) = (&transport, image) {
            let ((status, frame), _) = t.leaf("steering.encode", || {
                let status = ServerMessage::Status(StatusReport {
                    step: steps,
                    mass,
                    max_speed,
                    residual,
                    problems,
                    eta_steps: 0,
                    paused: false,
                    rebalances: 0,
                    lb_imbalance: 1.0,
                    sessions: 1,
                    cache_hits: 0,
                    cache_misses: 0,
                });
                let frame = ServerMessage::Image(ImageFrame {
                    step: steps,
                    width: image.width,
                    height: image.height,
                    rgb: image.to_rgb8(),
                });
                (status.to_bytes(), frame.to_bytes())
            });
            t.leaf("steering.ship", || {
                link.send_frame(status).expect("status ships");
                link.send_frame(frame).expect("image ships");
            });
        }
    });

    ComposedRank {
        track,
        frames,
        render,
        comm: comm.stats().delta_since(&before),
        wall,
    }
}

/// One session of the composed loop with the same scripted client, its
/// decode under a span of its own.
fn composed_session(
    script_seed: u64,
    cfg: &SolverConfig,
    seconds: f64,
) -> (ClientLog, SpmdOutput<ComposedRank>, Vec<Track>) {
    let t0 = Instant::now();
    let mut main = Track::new("main", t0);
    main.set_enabled(true);
    let inp = inputs(cfg, &mut main);
    let script = Script::new(&inp.geo, &mut Rng::new(script_seed));
    let (client_end, server_end) = duplex_pair();
    let server_slot = Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>));
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut track = Track::new("client", t0);
            track.set_enabled(true);
            let send = |cmd: &SteeringCommand| {
                client_end
                    .send_frame(cmd.to_bytes())
                    .expect("steering command")
            };
            let log = drive_client(t0, &script, Some(seconds), &send, &mut || {
                send(&SteeringCommand::RequestFrame);
                let mut status = None;
                loop {
                    let frame = client_end.recv_frame().expect("server message");
                    let (msg, _) = track.leaf("steering.decode", || {
                        ServerMessage::from_bytes(frame).expect("server message decodes")
                    });
                    match msg {
                        ServerMessage::Image(img) => return (img, status),
                        ServerMessage::Status(s) => status = Some(s),
                        _ => {}
                    }
                }
            });
            (log, track)
        });
        let out = on_ranks(|comm| {
            let transport = comm
                .is_master()
                .then(|| server_slot.lock().expect("server slot").take())
                .flatten();
            composed_rank(comm, t0, &inp, transport)
        });
        let (log, track) = client.join().expect("client thread");
        (log, out, vec![main, track])
    })
}

/// Steps per second of the plain distributed solver on the same map:
/// the base of `steering.loop_overhead_frac`.
fn plain_steps_per_s(inp: &Inputs, steps: u64) -> f64 {
    let out = on_ranks(|comm| {
        comm.set_obs_enabled(false);
        let mut solver = DistSolver::new(
            inp.geo.clone(),
            inp.map.owner.clone(),
            inp.cfg.clone(),
            comm,
        )
        .expect("distributed solver construction");
        solver.step_n(steps / 4).expect("warm-up steps");
        comm.barrier().expect("barrier");
        timed(|| solver.step_n(steps).expect("steps")).1
    });
    steps as f64 / out.results[0]
}

/// Run the composed loop for `seconds` and report the per-layer
/// metrics of its spans and counters; returns the client's window.
fn composed_window(
    report: &mut Report,
    script_seed: u64,
    cfg: &SolverConfig,
    seconds: f64,
) -> Window {
    let (mut client, out, tracks) = composed_session(script_seed, cfg, seconds);
    // The compositor counts its bytes in the program's recorder only.
    let recorded = out.merged_obs();
    let counter = |name: &str| recorded.counters.get(name).copied().unwrap_or(0) as f64;
    report.recorders(&out.obs);
    let ranks = out.results;
    report.ledger.merge(std::mem::take(&mut client.ledger));
    client.window.traced = true;

    let frames = ranks[0].frames.max(1) as f64;
    let sum = |f: &dyn Fn(&ComposedRank) -> f64| ranks.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&ComposedRank) -> f64| sum(f) / RANKS as f64;
    let shaded = sum(&|r| r.render.samples_shaded as f64);
    let skipped = sum(&|r| r.render.samples_skipped as f64);
    report.set("insitu.samples_shaded", shaded / frames);
    report.set("insitu.samples_skipped", skipped / frames);
    report.set("insitu.skip_frac", skipped / (shaded + skipped).max(1.0));
    report.set(
        "insitu.composite_bytes_wire",
        counter("vis.composite.bytes_wire") / frames,
    );
    report.set(
        "insitu.composite_bytes_dense",
        counter("vis.composite.bytes_dense") / frames,
    );
    let work: Vec<f64> = ranks
        .iter()
        .map(|r| r.render.samples_shaded as f64)
        .collect();
    report.set("insitu.work_imbalance", imbalance(&work));
    let wait = |class: TagClass| mean(&|r| r.comm.recv_wait_secs(class));
    report.set("parallel.halo_wait_s", wait(TagClass::Halo));
    report.set(
        "parallel.halo_wait_frac",
        mean(&|r| r.comm.recv_wait_secs(TagClass::Halo) / r.wall),
    );
    report.set("parallel.composite_wait_s", wait(TagClass::Compositing));
    report.set("parallel.collective_wait_s", wait(TagClass::Collective));
    report.set(
        "parallel.overlap_residual_s",
        mean(&|r| r.comm.overlap_residual_secs()),
    );

    report.tracks.extend(ranks.into_iter().map(|r| r.track));
    report.tracks.extend(tracks);
    let spans = Summary::of(&report.tracks);
    let p50 = |name: &str| median(spans.durations(name));
    report.set("insitu.brick_build_ms_p50", p50("insitu.brick_build") * 1e3);
    report.set("insitu.render_ms_p50", p50("insitu.render") * 1e3);
    report.set(
        "insitu.render_px_per_s",
        (IMAGE.0 * IMAGE.1) as f64 / p50("insitu.render"),
    );
    report.set("insitu.composite_ms_p50", p50("insitu.composite") * 1e3);
    report.set("steering.encode_ms_p50", p50("steering.encode") * 1e3);
    report.set("steering.ship_ms_p50", p50("steering.ship") * 1e3);
    report.set("steering.decode_ms_p50", p50("steering.decode") * 1e3);
    report.set(
        "core.step_ms_p50",
        p50("core.step_n") * 1e3 / STEPS_PER_CYCLE as f64,
    );
    report.set("core.snapshot_s", p50("core.local_snapshot"));
    report.set("core.solver_new_s", p50("core.solver_new"));
    client.window
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let cfg = SolverConfig::pressure_driven(seeded_rho_in(&mut rng), 0.99);
    let script_seed = rng.next_u64();

    // Set-up is the time to the first decoded frame; the extra
    // repetitions are one-frame sessions.
    let mut setup_secs = Vec::new();
    for _ in 1..args.setup_reps() {
        let (_, mut log, _) = real_session(script_seed, &cfg, None);
        setup_secs.push(log.first_frame_s);
        report.ledger.merge(std::mem::take(&mut log.ledger));
    }

    let windows = args.windows();
    let (inp, mut real, outcome) = real_session(script_seed, &cfg, Some(windows[0].0));
    setup_secs.push(real.first_frame_s);
    report.ledger.merge(std::mem::take(&mut real.ledger));
    let sites = inp.geo.fluid_count();
    report.note(format!(
        "sites: {sites}; image {}x{}; real loop: {} frames, {} steps",
        IMAGE.0, IMAGE.1, outcome.frames_rendered, outcome.steps_done
    ));

    let mut all_windows = vec![real.window.clone()];
    let frames = outcome.frames_rendered as f64;
    let bytes_per_frame = outcome.steering_bytes as f64 / frames;
    // The loop runs (and steps) from before the first frame to the
    // Terminate; the window is the part the client timed.
    let steps_per_frame = outcome.steps_done as f64 / frames;
    let loop_steps_per_s = steps_per_frame * real.window.ops_per_s();
    report.set("site_updates_per_s", sites as f64 * loop_steps_per_s);
    report.set("frame_rtt_ms_p50", real.window.op_ms_p50());
    report.set("frames_per_s", real.window.ops_per_s());
    report.set("wire_bytes_per_frame", bytes_per_frame);
    report.set("steering.bytes_per_frame", bytes_per_frame);
    report.set("steering.steps_per_frame", steps_per_frame);
    report.set("steering.commands_applied", outcome.commands_applied as f64);
    report.voxelised(sites, inp.voxelise_s);
    partition_metrics(
        report,
        &inp.map.quality,
        inp.map.graph_secs,
        inp.map.kway_secs,
        sites,
    );

    if let Some(&(seconds, _)) = windows.get(1) {
        let plain = plain_steps_per_s(&inp, args.pick(400, 40));
        report.set(
            "steering.loop_overhead_frac",
            1.0 - loop_steps_per_s / plain,
        );
        let composed = composed_window(report, script_seed, &cfg, seconds);
        report.note(format!(
            "composed loop frame {:.3} ms vs real loop {:.3} ms ({:+.1} %); {} composed frames",
            composed.op_ms_p50(),
            real.window.op_ms_p50(),
            (composed.op_ms_p50() / real.window.op_ms_p50() - 1.0) * 100.0,
            composed.ops(),
        ));
        all_windows.push(composed);
    }
    report.end_to_end(&setup_secs, &all_windows);
}

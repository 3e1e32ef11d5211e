//! `insitu_lines`: Table I's other three techniques — streamlines with
//! particle hand-off, an in situ particle ensemble and LIC — on a
//! developed flow over two slab-decomposed ranks. They use `insitu` and
//! `parallel` through hand-off rounds and halo strips, not through
//! compositing.

use crate::ranks::{on_ranks, run_windows, RANKS};
use crate::report::{split, Report, RunArgs, Window};
use crate::stats::{imbalance, median};
use crate::trace::{Summary, Track};
use crate::util::{aneurysm, axis_z, inlet_rake, seeded_rho_in, slab_owner, timed, Rng, DX_SMALL};
use hemelb_core::{FieldSnapshot, Solver, SolverConfig};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_insitu::lic::{lic_distributed, LicConfig, VelocitySlice};
use hemelb_insitu::lines::{
    stitch_segments, trace_distributed, LineSegment, TraceConfig, TraceStats,
};
use hemelb_insitu::particles::ParticleEnsemble;
use hemelb_insitu::SampledField;
use hemelb_parallel::{CommStats, Communicator, SpmdOutput, TagClass};
use std::time::Instant;

const SEEDS: usize = 256;
const PARTICLE_STEPS: usize = 50;
const TRACE: TraceConfig = TraceConfig {
    h: 1.0,
    max_steps: 1500,
    min_speed: 1e-8,
};

struct Inputs {
    geo: std::sync::Arc<SparseGeometry>,
    snap: FieldSnapshot,
    owner: Vec<usize>,
    seeds: Vec<Vec3>,
    lic: LicConfig,
    plane_z: f64,
    voxelise_s: f64,
    solver_new_s: f64,
}

/// Voxelise, develop the flow on the serial solver and place the rake.
fn inputs(args: &RunArgs) -> Inputs {
    let mut rng = Rng::new(args.seed);
    let cfg = SolverConfig::pressure_driven(seeded_rho_in(&mut rng), 0.99);
    let (geo, voxelise_s) = timed(|| aneurysm(DX_SMALL));
    let (mut solver, solver_new_s) = timed(|| Solver::new(geo.clone(), cfg));
    solver.set_obs_enabled(false);
    solver.step_n(args.pick(300, 100));
    Inputs {
        snap: solver.snapshot(),
        owner: slab_owner(&geo, RANKS),
        seeds: inlet_rake(&geo, SEEDS, &mut rng),
        lic: LicConfig {
            seed: rng.next_u64(),
            ..LicConfig::default()
        },
        plane_z: axis_z(&geo),
        geo,
        voxelise_s,
        solver_new_s,
    }
}

struct RankOut {
    ready_s: f64,
    windows: Vec<(Window, CommStats)>,
    /// Hand-offs, rounds and integration steps of the first frame.
    first: TraceStats,
    /// Whether every later frame repeated the first one's counts.
    counts_repeat: bool,
    segments: Vec<LineSegment>,
    lic_halo_bytes: u64,
    track: Track,
}

/// Receive-wait seconds of `comm` since `before`, all classes.
fn waited(comm: &Communicator, before: &CommStats) -> f64 {
    comm.stats().delta_since(before).total_recv_wait_secs()
}

fn rank(comm: &Communicator, t0: Instant, args: &RunArgs, inp: &Inputs, run: bool) -> RankOut {
    comm.set_obs_enabled(false);
    comm.barrier().expect("barrier after set-up");
    let mut out = RankOut {
        ready_s: t0.elapsed().as_secs_f64(),
        windows: Vec::new(),
        first: TraceStats::default(),
        counts_repeat: true,
        segments: Vec::new(),
        lic_halo_bytes: 0,
        track: Track::new(format!("rank{}", comm.rank()), t0),
    };
    if !run {
        return out;
    }
    let field = SampledField::new(&inp.geo, &inp.snap);
    let mut first: Option<TraceStats> = None;
    let (mut repeat, mut segments, mut lic_halo_bytes) = (true, Vec::new(), 0);
    out.windows = run_windows(comm, &mut out.track, args, 1, |t| {
        let frame = Instant::now();

        let before = comm.stats();
        let ((segs, stats), _) = t.leaf("insitu.trace", || {
            trace_distributed(comm, &inp.geo, &field, &inp.owner, &inp.seeds, &TRACE)
                .expect("distributed trace")
        });
        t.attach("parallel.wait", waited(comm, &before));
        let expected = first.get_or_insert_with(|| stats.clone());
        repeat &= *expected == stats;
        segments = segs;

        let before = comm.stats();
        t.span("insitu.particles", |t| {
            let mut ensemble = ParticleEnsemble::new(comm, &inp.geo, &inp.owner, &inp.seeds, 0.5);
            for _ in 0..PARTICLE_STEPS {
                t.leaf("insitu.particles_step", || {
                    ensemble.step(&inp.geo, &field).expect("particle step")
                });
            }
        });
        t.attach("parallel.wait", waited(comm, &before));

        let before = comm.stats();
        t.leaf("insitu.lic", || {
            let slice = VelocitySlice::extract(&field, inp.plane_z);
            lic_distributed(comm, &slice, &inp.lic).expect("distributed LIC")
        });
        let lic_stats = comm.stats().delta_since(&before);
        t.attach("parallel.wait", lic_stats.total_recv_wait_secs());
        lic_halo_bytes = lic_stats.bytes(TagClass::Visualisation);

        frame.elapsed().as_secs_f64()
    });
    out.first = first.expect("at least one frame");
    out.counts_repeat = repeat;
    out.segments = segments;
    out.lic_halo_bytes = lic_halo_bytes;
    out
}

/// Set up once and bring the world up; with `run` it goes on to
/// measure.
fn world(args: &RunArgs, run: bool) -> (Inputs, SpmdOutput<RankOut>) {
    let t0 = Instant::now();
    let inp = inputs(args);
    let out = on_ranks(|comm| rank(comm, t0, args, &inp, run));
    (inp, out)
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut setup_secs = Vec::new();
    for _ in 1..args.setup_reps() {
        setup_secs.push(world(args, false).1.results[0].ready_s);
    }
    let (inp, out) = world(args, true);
    let (mut ranks, obs) = (out.results, out.obs);
    setup_secs.push(ranks[0].ready_s);
    let sites = inp.geo.fluid_count();
    report.note(format!(
        "sites: {sites}; {SEEDS} seeds, {PARTICLE_STEPS} particle steps per frame"
    ));

    let windows: Vec<Window> = ranks[0].windows.iter().map(|(w, _)| w.clone()).collect();
    let frames: u64 = windows.iter().map(Window::ops).sum();
    report.ledger.ops(frames * SEEDS as u64);

    let segments: Vec<LineSegment> = ranks
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.segments))
        .collect();
    let lines = stitch_segments(segments, SEEDS);
    let drawn = lines.iter().filter(|l| l.len() > 1).count();
    report.ledger.check(drawn == SEEDS, || {
        format!("insitu_lines: {drawn} stitched lines for {SEEDS} seeds")
    });
    report
        .ledger
        .check(ranks.iter().all(|r| r.counts_repeat), || {
            "insitu_lines: hand-off or round counts changed between frames".into()
        });

    report.end_to_end(&setup_secs, &windows);
    let (untraced, traced) = split(&windows);
    report.set("vis_frame_ms_p50", untraced.op_ms_p50());
    report.voxelised(sites, inp.voxelise_s);
    report.set("core.solver_new_s", inp.solver_new_s);
    report.set(
        "insitu.trace_handoffs",
        ranks.iter().map(|r| r.first.handoffs).sum::<u64>() as f64,
    );
    report.set(
        "insitu.trace_rounds",
        ranks.iter().map(|r| r.first.rounds).max().unwrap_or(0) as f64,
    );
    let work: Vec<f64> = ranks
        .iter()
        .map(|r| r.first.steps_computed as f64)
        .collect();
    report.set("insitu.work_imbalance", imbalance(&work));
    report.set(
        "insitu.lic_halo_bytes",
        ranks.iter().map(|r| r.lic_halo_bytes).sum::<u64>() as f64,
    );
    if traced.is_some() {
        let total = ranks
            .iter()
            .fold(CommStats::new(), |acc, r| acc.merged_with(&r.windows[1].1));
        report.set(
            "parallel.collective_wait_s",
            total.recv_wait_secs(TagClass::Collective) / RANKS as f64,
        );
        report.recorders(&obs);
    }
    report.tracks.extend(ranks.into_iter().map(|r| r.track));
    if traced.is_some() {
        let spans = Summary::of(&report.tracks);
        let p50_ms = |name: &str| median(spans.durations(name)) * 1e3;
        report.set("insitu.trace_ms_p50", p50_ms("insitu.trace"));
        report.set(
            "insitu.particles_step_ms_p50",
            p50_ms("insitu.particles_step"),
        );
        report.set("insitu.lic_ms_p50", p50_ms("insitu.lic"));
    }
}

//! `halo_dist2`: the Small aneurysm on two ranks of one thread each,
//! split by the multilevel k-way partitioner. The map fragments each
//! rank's site list into some 330 ranges, and `core::dist`'s
//! overlapped step over them is three quarters of a step (it costs four
//! times the synchronous schedule on the same map); halo waits are the
//! rest. So this is where `core::dist`, `partition` and `parallel` work
//! shows and kernel arithmetic barely, and a serial run of the same
//! problem gives the scaling efficiency.

use crate::kernel::computed_bytes;
use crate::ranks::{on_ranks, run_windows, RANKS};
use crate::report::{split, Report, RunArgs, Window};
use crate::trace::Track;
use crate::util::{aneurysm, field_digest, kway_map, seeded_rho_in, timed, KwayMap, Rng, DX_SMALL};
use hemelb_core::{DistSolver, FieldSnapshot, Solver, SolverConfig};
use hemelb_obs::ObsReport;
use hemelb_parallel::{CommStats, TagClass};
use hemelb_partition::PartitionQuality;
use std::time::Instant;

/// Ops between two window-agreement all-reduces.
const BATCH: usize = 50;

/// What one rank brings back from the world.
struct RankOut {
    /// Seconds from the start of set-up to the solver being ready.
    ready_s: f64,
    solver_new_s: f64,
    frontier: usize,
    locals: usize,
    /// Digest of the gathered field after the warm-up (rank 0).
    warm_digest: Option<u64>,
    windows: Vec<(Window, CommStats)>,
    final_field: Option<FieldSnapshot>,
    track: Track,
}

/// One set-up and what came of it.
struct World {
    map: KwayMap,
    voxelise_s: f64,
    ranks: Vec<RankOut>,
    /// The ranks' own recorders as the runner collected them.
    obs: Vec<ObsReport>,
    main: Track,
}

/// Set up once: voxelise, partition, bring the world up and construct
/// the solvers. With `run` the world goes on to warm up and measure.
fn world(args: &RunArgs, cfg: &SolverConfig, warm_steps: u64, run: bool) -> World {
    let t0 = Instant::now();
    let mut main = Track::new("main", t0);
    main.set_enabled(args.trace && run);
    let (geo, voxelise_s) = main.leaf("geometry.voxelise", || aneurysm(DX_SMALL));
    let map = kway_map(&mut main, &geo, RANKS);
    let (geo2, owner) = (geo.clone(), map.owner.clone());
    let out = on_ranks(move |comm| {
        comm.set_obs_enabled(false);
        let mut track = Track::new(format!("rank{}", comm.rank()), t0);
        track.set_enabled(args.trace && run);
        let (mut solver, solver_new_s) = track.leaf("core.solver_new", || {
            DistSolver::new(geo2.clone(), owner.clone(), cfg.clone(), comm)
                .expect("distributed solver construction")
        });
        comm.barrier().expect("barrier after construction");
        let mut out = RankOut {
            ready_s: t0.elapsed().as_secs_f64(),
            solver_new_s,
            frontier: solver.partition().frontier_count(),
            locals: solver.local_sites().len(),
            warm_digest: None,
            windows: Vec::new(),
            final_field: None,
            track,
        };
        if !run {
            return out;
        }
        solver.step_n(warm_steps).expect("warm-up steps");
        let warm = solver.gather_snapshot().expect("gather after warm-up");
        out.warm_digest = warm.as_ref().map(field_digest);
        out.windows = run_windows(comm, &mut out.track, args, BATCH, |t| {
            let before = t.enabled().then(|| comm.stats());
            let (_, secs) = t.leaf("core.dist_step", || solver.step().expect("step"));
            if let Some(before) = before {
                let wait = comm.stats().delta_since(&before);
                t.attach("parallel.halo_wait", wait.recv_wait_secs(TagClass::Halo));
            }
            secs
        });
        out.final_field = solver.gather_snapshot().expect("final gather");
        out
    });
    World {
        map,
        voxelise_s,
        ranks: out.results,
        obs: out.obs,
        main,
    }
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let cfg = SolverConfig::pressure_driven(seeded_rho_in(&mut rng), 0.99);
    let warm_steps: u64 = args.pick(200, 20);
    let base_steps: u64 = args.pick(1000, 40);

    let mut setup_secs = Vec::new();
    for _ in 1..args.setup_reps() {
        setup_secs.push(world(args, &cfg, warm_steps, false).ranks[0].ready_s);
    }

    // The efficiency base: the same problem on the serial solver, whose
    // field after the warm-up steps is also what the ranks must match.
    let geo = aneurysm(DX_SMALL);
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    serial.set_obs_enabled(false);
    serial.step_n(warm_steps);
    let serial_digest = field_digest(&serial.snapshot());
    let ((), base_secs) = timed(|| serial.step_n(base_steps));
    let sites = geo.fluid_count();
    let serial_rate = sites as f64 * base_steps as f64 / base_secs;
    drop(serial);

    let World {
        map,
        voxelise_s,
        mut ranks,
        obs,
        main,
    } = world(args, &cfg, warm_steps, true);
    setup_secs.push(ranks[0].ready_s);
    report.note(format!(
        "sites: {sites} (rank shares {:?}), serial base {base_steps} steps",
        ranks.iter().map(|r| r.locals).collect::<Vec<_>>()
    ));

    let digest = ranks[0].warm_digest;
    report.ledger.check(digest == Some(serial_digest), || {
        format!("halo_dist2: 2-rank digest {digest:x?} != serial {serial_digest:x} at step {warm_steps}")
    });
    let final_field = ranks[0]
        .final_field
        .take()
        .expect("rank 0 gathers the field");
    report.ledger.check_field(&final_field, "halo_dist2");

    // Rank 0's view of the windows: both ranks step in lockstep.
    let windows: Vec<Window> = ranks[0].windows.iter().map(|(w, _)| w.clone()).collect();
    report.ledger.ops(windows.iter().map(Window::ops).sum());
    report.end_to_end(&setup_secs, &windows);
    let (untraced, traced) = split(&windows);
    let rate = sites as f64 * untraced.ops_per_s();
    report.set("site_updates_per_s", rate);
    report.set("step_ms_p50", untraced.op_ms_p50());
    report.set("scaling_efficiency", rate / (RANKS as f64 * serial_rate));
    report.voxelised(sites, voxelise_s);
    partition_metrics(report, &map.quality, map.graph_secs, map.kway_secs, sites);
    let mean = |f: &dyn Fn(&RankOut) -> f64| ranks.iter().map(f).sum::<f64>() / RANKS as f64;
    report.set("core.solver_new_s", mean(&|r| r.solver_new_s));
    report.set("core.site_updates_per_s", rate);
    report.set(
        "core.frontier_frac",
        ranks.iter().map(|r| r.frontier).sum::<usize>() as f64 / sites as f64,
    );
    computed_bytes(report, cfg.model.build().q, rate);

    // Message counts are exact in either window; times come from the
    // traced one when there is one.
    let pick = usize::from(traced.is_some());
    let steps = windows[pick].ops() as f64;
    let total = ranks.iter().fold(CommStats::new(), |acc, r| {
        acc.merged_with(&r.windows[pick].1)
    });
    report.set(
        "parallel.halo_msgs_per_step",
        total.msgs(TagClass::Halo) as f64 / steps,
    );
    report.set(
        "parallel.halo_bytes_per_step",
        total.bytes(TagClass::Halo) as f64 / steps,
    );
    let halo_wait = total.recv_wait_secs(TagClass::Halo) / RANKS as f64;
    report.set("parallel.halo_wait_s", halo_wait);
    report.set("parallel.halo_wait_frac", halo_wait / windows[pick].wall);
    report.set(
        "parallel.overlap_residual_s",
        total.overlap_residual_secs() / RANKS as f64,
    );
    report.set(
        "parallel.collective_wait_s",
        total.recv_wait_secs(TagClass::Collective) / RANKS as f64,
    );
    if let Some(traced) = traced {
        report.traced_steps(traced);
        report.recorders(&obs);
    }
    report.tracks.push(main);
    report.tracks.extend(ranks.into_iter().map(|r| r.track));
}

/// The `partition.*` metrics of a k-way map over `sites` sites.
pub fn partition_metrics(
    report: &mut Report,
    quality: &PartitionQuality,
    graph_secs: f64,
    kway_secs: f64,
    sites: usize,
) {
    report.set("partition.graph_build_s", graph_secs);
    report.set("partition.kway_s", kway_secs);
    report.set("partition.kway_sites_per_s", sites as f64 / kway_secs);
    report.set("partition.edge_cut", quality.edge_cut as f64);
    report.set("partition.imbalance", quality.imbalance);
    report.set("partition.comm_volume", quality.comm_volume as f64);
}

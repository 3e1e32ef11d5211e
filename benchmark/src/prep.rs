//! `prep_cold`: the pre-processing chain of the paper's §IV-B at
//! Medium, cold every time: voxelise → write `.sgmy` → two-level
//! distributed read → site graph → multilevel k-way → octree →
//! distributed solver construction → one step. `geometry` and
//! `partition` dominate; work a kernel or plan change moves into set-up
//! is charged here.

use crate::halo::partition_metrics;
use crate::ranks::{on_ranks, RANKS};
use crate::report::{Report, RunArgs, Window};
use crate::stats::median;
use crate::trace::{Track, WINDOW};
use crate::util::{aneurysm, kway_map, seeded_rho_in, timed, KwayMap, Ledger, Rng, DX_MEDIUM};
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_geometry::distio::read_distributed;
use hemelb_geometry::format::write_sgmy;
use hemelb_obs::ObsReport;
use hemelb_octree::FieldOctree;
use hemelb_parallel::TagClass;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const SGMY_BLOCK: usize = 8;
const READERS: usize = 1;

/// Exact counts of one repetition; they must not change between
/// repetitions.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    sites: usize,
    sgmy_bytes: u64,
    file_bytes_read: u64,
    forwarded_bytes: u64,
    edge_cut: u64,
    octree_nodes: usize,
}

/// One cold preparation: its counts, its k-way map, the time of each
/// stage by metric name and what the program's recorder held.
struct Rep {
    counts: Counts,
    map: KwayMap,
    stage_times: Vec<(&'static str, f64)>,
    /// The ranks' recorders after construction and the first step.
    obs: Vec<ObsReport>,
}

fn prepare(
    track: &mut Track,
    ledger: &mut Ledger,
    cfg: &SolverConfig,
    scratch: &Path,
    traced: bool,
) -> Rep {
    let (geo, voxelise_s) = track.leaf("geometry.voxelise", || aneurysm(DX_MEDIUM));
    let sites = geo.fluid_count();

    let (sgmy_bytes, write_s) = track.leaf("geometry.sgmy_write", || {
        let file = std::fs::File::create(scratch).expect("scratch geometry file");
        let mut w = BufWriter::new(file);
        write_sgmy(&geo, SGMY_BLOCK, &mut w).expect("sgmy write");
        w.flush().expect("sgmy flush");
        std::fs::metadata(scratch)
            .expect("scratch geometry file")
            .len()
    });

    let (read, read_s) = track.leaf("geometry.read_distributed", || {
        on_ranks(|comm| {
            comm.set_obs_enabled(traced);
            let loaded = read_distributed(scratch, comm, READERS).expect("distributed read");
            (loaded.my_sites.len(), loaded.file_bytes_read)
        })
    });
    std::fs::remove_file(scratch).expect("scratch geometry file removal");
    let read_back: usize = read.results.iter().map(|r| r.0).sum();
    ledger.check(read_back == sites, || {
        format!("prep_cold: read back {read_back} sites, voxelised {sites}")
    });

    let map = kway_map(track, &geo, RANKS);

    let axial: Vec<f64> = geo.positions().iter().map(|p| p[0] as f64).collect();
    let (octree, octree_s) = track.leaf("octree.build", || FieldOctree::build(&geo, &axial));

    // Construction and the first step run inside the rank threads; the
    // world span covers both, the ranks report the split.
    let (world, _) = track.leaf("core.dist_world", || {
        on_ranks(|comm| {
            comm.set_obs_enabled(traced);
            let (mut solver, new_s) = timed(|| {
                DistSolver::new(geo.clone(), map.owner.clone(), cfg.clone(), comm)
                    .expect("distributed solver construction")
            });
            let ((), step_s) = timed(|| solver.step().expect("first step"));
            let field = solver.gather_snapshot().expect("gather");
            (new_s, step_s, field)
        })
    });
    let ranks = world.results;
    let field = ranks.iter().find_map(|r| r.2.as_ref());
    ledger.check_field(field.expect("rank 0 gathers the field"), "prep_cold");

    Rep {
        counts: Counts {
            sites,
            sgmy_bytes,
            file_bytes_read: read.results.iter().map(|r| r.1).sum(),
            forwarded_bytes: read.summary.total.bytes(TagClass::Geometry),
            edge_cut: map.quality.edge_cut,
            octree_nodes: octree.nodes().len(),
        },
        obs: world.obs,
        stage_times: vec![
            ("geometry.voxelise_s", voxelise_s),
            ("geometry.sgmy_write_s", write_s),
            ("geometry.read_distributed_s", read_s),
            ("partition.graph_build_s", map.graph_secs),
            ("partition.kway_s", map.kway_secs),
            ("octree.build_s", octree_s),
            (
                "core.solver_new_s",
                ranks.iter().map(|r| r.0).sum::<f64>() / RANKS as f64,
            ),
            (
                "core.step_ms_p50",
                ranks.iter().map(|r| r.1).sum::<f64>() / RANKS as f64 * 1e3,
            ),
        ],
        map,
    }
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut rng = Rng::new(args.seed);
    let cfg = SolverConfig::pressure_driven(seeded_rho_in(&mut rng), 0.99);
    let out_dir = Path::new("benchmark/out");
    std::fs::create_dir_all(out_dir).expect("benchmark/out");
    let scratch = out_dir.join(format!("prep-{}.sgmy", std::process::id()));

    let mut track = Track::new("main", Instant::now());
    let mut windows = Vec::new();
    let mut last: Option<Rep> = None;
    let mut stage_times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (seconds, traced) in args.windows() {
        track.set_enabled(traced);
        let mut window = Window {
            traced,
            ..Window::default()
        };
        track.span(WINDOW, |t| {
            let t0 = Instant::now();
            while window.wall < seconds {
                let (rep, secs) = timed(|| prepare(t, &mut report.ledger, &cfg, &scratch, traced));
                window.push(secs, t0.elapsed().as_secs_f64());
                report.ledger.ops(1);
                if let Some(last) = &last {
                    report.ledger.check(last.counts == rep.counts, || {
                        format!(
                            "prep_cold: counts changed between repetitions: {:?} vs {:?}",
                            last.counts, rep.counts
                        )
                    });
                }
                for (name, time) in &rep.stage_times {
                    stage_times.entry(name).or_default().push(*time);
                }
                last = Some(rep);
            }
        });
        windows.push(window);
    }

    // Stage times are medians over every repetition of the run; the
    // recorder's figures are the last repetition's.
    let rep = last.expect("at least one repetition");
    let counts = &rep.counts;
    report.note(format!("sites: {}", counts.sites));
    for (name, times) in &stage_times {
        report.set(name, median(times));
    }
    let sites = counts.sites as f64;
    report.set(
        "geometry.voxelise_sites_per_s",
        sites / report.get("geometry.voxelise_s"),
    );
    report.set("geometry.sgmy_bytes", counts.sgmy_bytes as f64);
    report.set(
        "geometry.read_mib_per_s",
        counts.file_bytes_read as f64
            / report.get("geometry.read_distributed_s")
            / (1u64 << 20) as f64,
    );
    report.set("geometry.forwarded_bytes", counts.forwarded_bytes as f64);
    partition_metrics(
        report,
        &rep.map.quality,
        report.get("partition.graph_build_s"),
        report.get("partition.kway_s"),
        counts.sites,
    );
    report.set("octree.nodes", counts.octree_nodes as f64);
    report.recorders(&rep.obs);

    // Here the op *is* the set-up: every repetition of the untraced
    // window is a set-up sample.
    let setup_secs = windows[0].op_secs.clone();
    report.end_to_end(&setup_secs, &windows);
    report.tracks.push(track);
}

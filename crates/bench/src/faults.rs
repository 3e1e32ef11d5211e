//! Experiment E14 — fault injection and graceful degradation.
//!
//! The paper's closed loop only matters if it survives the weather of a
//! real machine: ranks stall, links drop, nodes die. E14 measures the
//! two degradation paths the fault harness provides:
//!
//! * **Frame latency under dead render ranks.** The steering client
//!   requests frames while 0, 1 and 2 render ranks have their
//!   compositing contributions silently dropped (a [`FaultKind::DropOnce`]
//!   per frame per dead rank). With a compositing deadline the master
//!   ships a degraded frame instead of hanging, so the p50/p95 round
//!   trip rises to the deadline bound — and no further.
//! * **Recovery-replay cost.** A rank is killed mid-run; the world
//!   restarts and replays from the latest checkpoint. We time the
//!   killed run against an identical fault-free run (same checkpoint
//!   cadence) and assert the recovered fields are bit-exact.
//!
//! The report is also written as `out/BENCH_faults.json` via the obs
//! JSON codec.

use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_obs::{fmt_secs, Histogram, ObsReport, Recorder};
use hemelb_parallel::{run_spmd_opts, FaultEvent, FaultKind, FaultPlan, SpmdOptions, TagClass};
use hemelb_steering::{
    duplex_listener, run_closed_loop_opts, Acceptor, ClosedLoopConfig, SteeringClient,
    SteeringCommand,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame-latency measurements with a given number of dead render ranks.
#[derive(Debug, Clone)]
pub struct DegradedRow {
    /// Render ranks whose compositing payloads were dropped.
    pub dead_ranks: usize,
    /// `RequestFrame → ImageFrame` round trips (seconds).
    pub rtts: Vec<f64>,
    /// Frames rendered by the closed loop.
    pub frames: u64,
    /// Frames shipped with at least one contribution missing.
    pub frames_degraded: u64,
    /// `vis.composite.dropped` across all ranks.
    pub dropped: u64,
}

impl DegradedRow {
    /// The round-trip distribution as an observability histogram.
    pub fn rtt_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &s in &self.rtts {
            h.record(s);
        }
        h
    }
}

/// Everything E14 measures.
pub struct FaultsResult {
    /// Ranks in each run.
    pub ranks: usize,
    /// Compositing deadline used for the degraded-frame sweep.
    pub deadline: Duration,
    /// One row per dead-rank count (0, 1, 2).
    pub rows: Vec<DegradedRow>,
    /// Steps of the recovery workload.
    pub steps: u64,
    /// Wall seconds of the fault-free checkpointing run.
    pub clean_secs: f64,
    /// Wall seconds of the killed run (restart + checkpoint replay).
    pub recovery_secs: f64,
    /// World restarts the kill forced (expected: 1).
    pub restarts: u64,
    /// Whether the recovered fields matched the fault-free run bit for
    /// bit.
    pub bit_exact: bool,
    /// The exported report, also written to `out/BENCH_faults.json`.
    pub report: ObsReport,
}

/// One closed-loop run with `dead` render ranks' compositing sends
/// dropped on every requested frame, measuring `frames` round trips.
fn degraded_frames(
    geo: &Arc<hemelb_geometry::SparseGeometry>,
    ranks: usize,
    dead: usize,
    frames: usize,
    deadline: Duration,
) -> DegradedRow {
    // Each frame triggers exactly one compositing-class send per worker
    // rank, and each send consumes at most one DropOnce event — so
    // `frames` events per dead rank drop that rank's contribution to
    // every requested frame.
    let mut events = Vec::new();
    for rank in 1..=dead {
        for _ in 0..frames {
            events.push(FaultEvent {
                rank,
                class: TagClass::Compositing,
                step: 0,
                kind: FaultKind::DropOnce,
            });
        }
    }
    let plan = FaultPlan::new(events);

    let (connector, acceptor) = duplex_listener();
    let acceptor_slot = Arc::new(Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>)));
    let client_thread = std::thread::spawn(move || {
        let client = SteeringClient::new(Box::new(connector.connect().unwrap()));
        let mut rtts = Vec::with_capacity(frames);
        for _ in 0..frames {
            let (_, rtt) = client.request_frame().expect("frame round trip");
            rtts.push(rtt.as_secs_f64());
        }
        client.send(&SteeringCommand::Terminate).ok();
        while client.recv().is_ok() {}
        rtts
    });

    let geo2 = geo.clone();
    let out = run_spmd_opts(ranks, SpmdOptions::with_faults(plan), move |comm| {
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            workloads::slab_owner(&geo2, comm.size()),
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (64, 48),
                initial_vis_rate: u32::MAX, // frames only on request
                steps_per_cycle: 5,
                frame_deadline: Some(deadline),
                ..Default::default()
            },
        )
        .unwrap()
    });
    let rtts = client_thread.join().expect("client thread");
    let merged = out.merged_obs();
    DegradedRow {
        dead_ranks: dead,
        rtts,
        frames: out.results[0].frames_rendered,
        frames_degraded: out.results[0].frames_degraded,
        dropped: merged
            .counters
            .get("vis.composite.dropped")
            .copied()
            .unwrap_or(0),
    }
}

/// The checkpoint-every-20-steps solver workload both recovery runs
/// execute; returns the gathered density field for the bit-exactness
/// check.
fn recovery_workload(
    geo: &Arc<hemelb_geometry::SparseGeometry>,
    ranks: usize,
    steps: u64,
    plan: FaultPlan,
    tag: &str,
) -> (f64, u64, Vec<f64>) {
    let dir =
        std::env::temp_dir().join(format!("hemelb_bench_faults_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cp = dir.join("cp");
    let (geo2, cp2) = (geo.clone(), cp.clone());
    let t = Instant::now();
    let out = run_spmd_opts(ranks, SpmdOptions::with_faults(plan), move |comm| {
        let owner = workloads::slab_owner(&geo2, comm.size());
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg, comm).unwrap();
        // Crash recovery: resume from the latest checkpoint if one
        // exists (`checkpoint` ends in a barrier, so the on-disk set is
        // always a consistent cut).
        if cp2.join(format!("rank_{}.chkp", comm.rank())).exists() {
            ds.restore(&cp2).unwrap();
        }
        while ds.step_count() < steps {
            let burst = 20 - ds.step_count() % 20;
            ds.step_n(burst.min(steps - ds.step_count())).unwrap();
            ds.checkpoint(&cp2).unwrap();
        }
        ds.gather_snapshot().unwrap()
    });
    let secs = t.elapsed().as_secs_f64();
    let merged = out.merged_obs();
    let restarts = merged.counters.get("fault.restarts").copied().unwrap_or(0);
    let rho = out.results[0].as_ref().expect("master gathers").rho.clone();
    std::fs::remove_dir_all(&dir).ok();
    (secs, restarts, rho)
}

/// Run E14 on the standard aneurysm: the degraded-frame latency sweep
/// at 0/1/2 dead render ranks, then the kill/checkpoint-replay cost.
pub fn run(size: Size, ranks: usize, frames: usize) -> FaultsResult {
    let geo = Arc::new(workloads::aneurysm(size));
    let ranks = ranks.max(3); // at least two worker ranks to kill
    let deadline = Duration::from_millis(60);

    let rows: Vec<DegradedRow> = (0..=2usize.min(ranks - 1))
        .map(|dead| degraded_frames(&geo, ranks, dead, frames, deadline))
        .collect();

    // Recovery cost: kill rank 1 at step 30 of a 60-step run with
    // checkpoints every 20 steps, against an identical fault-free run.
    let steps = 60;
    let (clean_secs, _, clean_rho) =
        recovery_workload(&geo, ranks, steps, FaultPlan::default(), "clean");
    let kill = FaultPlan::new(vec![FaultEvent {
        rank: 1,
        class: TagClass::Halo,
        step: 30,
        kind: FaultKind::KillRank,
    }]);
    let (recovery_secs, restarts, recovered_rho) =
        recovery_workload(&geo, ranks, steps, kill, "kill");
    let bit_exact = clean_rho == recovered_rho;

    // Export through the obs codec.
    let mut rec = Recorder::new();
    for row in &rows {
        let h = row.rtt_histogram();
        rec.record_secs(&format!("faults.rtt_p50.dead{}", row.dead_ranks), h.p50());
        rec.record_secs(&format!("faults.rtt_p95.dead{}", row.dead_ranks), h.p95());
        rec.count(
            &format!("faults.frames_degraded.dead{}", row.dead_ranks),
            row.frames_degraded,
        );
    }
    rec.record_secs("faults.recovery.clean", clean_secs);
    rec.record_secs("faults.recovery.killed", recovery_secs);
    rec.count("faults.recovery.restarts", restarts);
    rec.count("faults.recovery.bit_exact", u64::from(bit_exact));
    let report = rec.report();
    let path = workloads::out_dir().join("BENCH_faults.json");
    std::fs::write(&path, report.to_json()).expect("BENCH_faults.json written");

    FaultsResult {
        ranks,
        deadline,
        rows,
        steps,
        clean_secs,
        recovery_secs,
        restarts,
        bit_exact,
        report,
    }
}

impl fmt::Display for FaultsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Frame latency under dead render ranks ({} ranks, {} ms compositing deadline):",
            self.ranks,
            self.deadline.as_millis()
        )?;
        writeln!(
            f,
            "{:>11} {:>10} {:>10} {:>8} {:>10} {:>9}",
            "dead ranks", "p50", "p95", "frames", "degraded", "dropped"
        )?;
        for r in &self.rows {
            let h = r.rtt_histogram();
            writeln!(
                f,
                "{:>11} {:>10} {:>10} {:>8} {:>10} {:>9}",
                r.dead_ranks,
                fmt_secs(h.p50()),
                fmt_secs(h.p95()),
                r.frames,
                r.frames_degraded,
                r.dropped,
            )?;
        }
        writeln!(
            f,
            "recovery replay ({} steps, checkpoint every 20, kill rank 1 @ step 30):",
            self.steps
        )?;
        writeln!(
            f,
            "  fault-free {} vs killed+replayed {} ({:+.1}% overhead), {} restart(s), bit-exact: {}",
            fmt_secs(self.clean_secs),
            fmt_secs(self.recovery_secs),
            100.0 * (self.recovery_secs - self.clean_secs) / self.clean_secs.max(1e-12),
            self.restarts,
            if self.bit_exact { "yes" } else { "NO" },
        )?;
        writeln!(f, "JSON: out/BENCH_faults.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_frames_stay_bounded_and_recovery_is_bit_exact() {
        let r = run(Size::Tiny, 3, 2);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].frames_degraded, 0, "no faults, no degradation");
        for row in &r.rows[1..] {
            assert_eq!(
                row.frames_degraded,
                row.rtts.len() as u64,
                "every requested frame degrades with {} dead ranks",
                row.dead_ranks
            );
            assert!(row.dropped >= row.dead_ranks as u64);
        }
        assert_eq!(r.restarts, 1, "the kill forces exactly one restart");
        assert!(r.bit_exact, "checkpoint replay must be bit-exact");
        let back = ObsReport::from_json(&r.report.to_json()).expect("valid JSON");
        assert_eq!(back.counters["faults.recovery.bit_exact"], 1);
    }
}

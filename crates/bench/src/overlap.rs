//! Experiment E18 — communication/computation overlap: the synchronous
//! halo exchange (`overlap = false`: the one distributed schedule with
//! nothing held back to compute under the sends) against the
//! frontier-first overlapped schedule, on the standard aneurysm
//! workload, with and without an injected per-peer delay.
//!
//! The co-design claim being measured: a sparse-geometry LB rank spends
//! its halo time *waiting*, not transferring — so colliding the
//! frontier first, posting the sends, and computing the interior while
//! the messages are in flight hides the exchange behind work that had
//! to happen anyway. Under a sender-side delay `D` on one rank, the
//! victim ranks' synchronous halo wait is ≈ `D` per step while the
//! overlapped residual wait shrinks toward `max(0, D − interior
//! compute)`. Both schedules are bit-identical, which the run
//! re-verifies inline.
//!
//! Methodology: per (rank count, delay) cell, one SPMD world hosts a
//! synchronous and an overlapped solver over the *same* decomposition,
//! stepped in interleaved rounds (sync steps, then overlapped, repeat)
//! with best-of-`reps` per-step wall time kept per schedule, so cache
//! warm-up and machine noise hit both alike. Halo-wait seconds come
//! from the `CommStats` deltas around each round, averaged over the
//! non-delayed ranks. Results export to `out/BENCH_overlap.json`.

use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_obs::Recorder;
use hemelb_parallel::{run_spmd_opts, FaultEvent, FaultKind, FaultPlan, SpmdOptions, TagClass};
use std::fmt;
use std::time::Instant;

/// The rank that gets the sender-side delay in the delayed cells.
const DELAY_RANK: usize = 1;
/// Injected sender-side delay per matching halo send, milliseconds.
const DELAY_MS: u64 = 15;
/// Timed rounds per schedule (best kept).
const REPS: usize = 3;

/// One (rank count, delay) measurement.
#[derive(Debug, Clone)]
pub struct OverlapRow {
    /// SPMD world size.
    pub ranks: usize,
    /// Whether the sender-side delay was injected on rank 1.
    pub delayed: bool,
    /// Best-of-`REPS` wall seconds per step, synchronous schedule
    /// (slowest rank).
    pub sync_secs_per_step: f64,
    /// Best-of-`REPS` wall seconds per step, overlapped schedule
    /// (slowest rank).
    pub overlapped_secs_per_step: f64,
    /// `sync / overlapped` step time.
    pub speedup: f64,
    /// Synchronous halo wait per step, mean over non-delayed ranks.
    pub sync_halo_wait_secs: f64,
    /// Overlapped *residual* halo wait per step, same ranks.
    pub overlap_residual_secs: f64,
    /// compute / (compute + residual) over the overlapped rounds.
    pub overlap_efficiency: f64,
    /// Whether the two schedules' final distributions matched
    /// bit-for-bit on every rank.
    pub bit_identical: bool,
}

/// The E18 result.
pub struct OverlapResult {
    /// Fluid sites in the workload.
    pub sites: usize,
    /// Steps per timed round.
    pub steps: u64,
    /// Timed rounds per schedule (best kept).
    pub reps: usize,
    /// Injected delay in the delayed cells, milliseconds.
    pub delay_ms: u64,
    /// One row per (rank count, delay) cell.
    pub rows: Vec<OverlapRow>,
}

/// What one rank reports from a measurement world.
struct RankReport {
    sync_best: f64,
    over_best: f64,
    sync_wait: f64,
    over_residual: f64,
    over_compute: f64,
    bit_identical: bool,
}

fn measure_cell(size: Size, steps: u64, ranks: usize, delayed: bool) -> OverlapRow {
    let geo = workloads::aneurysm(size);
    let warm = steps.min(3);
    // A `Delay` event is persistent from its step onward (the matcher
    // fires on every send with `step >= ev.step`), so one event at
    // step 0 delays every halo send of the run — warm-up included.
    let opts = if delayed {
        SpmdOptions::with_faults(FaultPlan::new(vec![FaultEvent {
            rank: DELAY_RANK,
            class: TagClass::Halo,
            step: 0,
            kind: FaultKind::Delay { millis: DELAY_MS },
        }]))
    } else {
        SpmdOptions::default()
    };

    let geo2 = geo.clone();
    let out = run_spmd_opts(ranks, opts, move |comm| {
        let n = geo2.fluid_count();
        let owner: Vec<usize> = (0..n)
            .map(|s| (s * comm.size() / n).min(comm.size() - 1))
            .collect();
        let cfg = SolverConfig::pressure_driven(1.005, 0.995);
        let mut sync = DistSolver::new(
            geo2.clone(),
            owner.clone(),
            cfg.clone().with_overlap(false),
            comm,
        )
        .unwrap();
        let mut over = DistSolver::new(geo2.clone(), owner, cfg.with_overlap(true), comm).unwrap();

        // Warm-up round (untimed): touches every lane and settles the
        // flow off the uniform initial state.
        sync.step_n(warm).unwrap();
        over.step_n(warm).unwrap();

        // Interleaved best-of-`REPS`: every round steps each schedule
        // once, so drift cannot favour whichever ran last.
        let mut sync_best = f64::INFINITY;
        let mut over_best = f64::INFINITY;
        let mut sync_wait = 0.0;
        let mut over_residual = 0.0;
        let mut over_compute = 0.0;
        for _ in 0..REPS {
            let before = comm.stats();
            let t0 = Instant::now();
            sync.step_n(steps).unwrap();
            sync_best = sync_best.min(t0.elapsed().as_secs_f64() / steps as f64);
            let delta = comm.stats().delta_since(&before);
            sync_wait += delta.recv_wait_secs(TagClass::Halo);

            let before = comm.stats();
            let t0 = Instant::now();
            over.step_n(steps).unwrap();
            over_best = over_best.min(t0.elapsed().as_secs_f64() / steps as f64);
            let delta = comm.stats().delta_since(&before);
            over_residual += delta.overlap_residual_secs();
            over_compute += delta.overlap_compute_secs();
        }

        // Inline bit-identity: both schedules took the same steps over
        // the same decomposition, so each rank's state must agree
        // exactly.
        let bit_identical = sync
            .raw_distributions()
            .iter()
            .zip(over.raw_distributions().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        RankReport {
            sync_best,
            over_best,
            sync_wait,
            over_residual,
            over_compute,
            bit_identical,
        }
    });

    // Step time is set by the slowest rank; waits are averaged over the
    // ranks actually waiting on the delayed sender.
    let timed_steps = (REPS as u64 * steps) as f64;
    let victims: Vec<&RankReport> = out
        .results
        .iter()
        .enumerate()
        .filter(|&(r, _)| !delayed || r != DELAY_RANK)
        .map(|(_, rep)| rep)
        .collect();
    let mean = |f: &dyn Fn(&RankReport) -> f64| {
        victims.iter().map(|r| f(r)).sum::<f64>() / victims.len() as f64
    };
    let compute = victims.iter().map(|r| r.over_compute).sum::<f64>();
    let residual = victims.iter().map(|r| r.over_residual).sum::<f64>();
    let sync_secs = out.results.iter().map(|r| r.sync_best).fold(0.0, f64::max);
    let over_secs = out.results.iter().map(|r| r.over_best).fold(0.0, f64::max);
    OverlapRow {
        ranks,
        delayed,
        sync_secs_per_step: sync_secs,
        overlapped_secs_per_step: over_secs,
        speedup: sync_secs / over_secs,
        sync_halo_wait_secs: mean(&|r: &RankReport| r.sync_wait) / timed_steps,
        overlap_residual_secs: mean(&|r: &RankReport| r.over_residual) / timed_steps,
        overlap_efficiency: if compute + residual > 0.0 {
            compute / (compute + residual)
        } else {
            1.0
        },
        bit_identical: out.results.iter().all(|r| r.bit_identical),
    }
}

/// Run E18: sync vs overlapped step time and residual halo wait at
/// {2, 4, 8} ranks (clipped to `max_ranks`), with and without the
/// injected sender-side delay.
pub fn run(size: Size, steps: u64, max_ranks: usize) -> OverlapResult {
    let geo = workloads::aneurysm(size);
    let sites = geo.fluid_count();
    let mut rows = Vec::new();
    for &ranks in &[2usize, 4, 8] {
        if ranks > max_ranks.max(2) {
            continue;
        }
        for delayed in [false, true] {
            rows.push(measure_cell(size, steps, ranks, delayed));
        }
    }

    // Export through the obs codec.
    let mut rec = Recorder::new();
    for row in &rows {
        let cell = format!(
            "overlap.r{}.{}",
            row.ranks,
            if row.delayed { "delayed" } else { "clean" }
        );
        rec.record_secs(&format!("{cell}.sync_step"), row.sync_secs_per_step);
        rec.record_secs(
            &format!("{cell}.overlapped_step"),
            row.overlapped_secs_per_step,
        );
        rec.record_secs(&format!("{cell}.sync_halo_wait"), row.sync_halo_wait_secs);
        rec.record_secs(
            &format!("{cell}.overlap_residual"),
            row.overlap_residual_secs,
        );
        rec.count(
            &format!("{cell}.efficiency_permille"),
            (row.overlap_efficiency * 1000.0) as u64,
        );
        rec.count(
            &format!("{cell}.bit_identical"),
            u64::from(row.bit_identical),
        );
    }
    rec.count("overlap.sites", sites as u64);
    rec.count("overlap.delay_ms", DELAY_MS);
    let path = workloads::out_dir().join("BENCH_overlap.json");
    std::fs::write(&path, rec.report().to_json()).expect("BENCH_overlap.json written");

    OverlapResult {
        sites,
        steps,
        reps: REPS,
        delay_ms: DELAY_MS,
        rows,
    }
}

impl fmt::Display for OverlapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Communication/computation overlap — {} sites, {} steps/round, best of {} \
             interleaved rounds, injected delay {} ms",
            self.sites, self.steps, self.reps, self.delay_ms
        )?;
        writeln!(
            f,
            "{:<6} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>6} {:>10}",
            "ranks",
            "delayed",
            "sync ms",
            "overlap ms",
            "speedup",
            "sync wait",
            "residual",
            "eff",
            "bit-exact"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>8} {:>12.3} {:>12.3} {:>7.2}x {:>12.3} {:>12.3} {:>5.0}% {:>10}",
                r.ranks,
                r.delayed,
                r.sync_secs_per_step * 1e3,
                r.overlapped_secs_per_step * 1e3,
                r.speedup,
                r.sync_halo_wait_secs * 1e3,
                r.overlap_residual_secs * 1e3,
                r.overlap_efficiency * 100.0,
                r.bit_identical,
            )?;
        }
        writeln!(f, "JSON: out/BENCH_overlap.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_bench_measures_and_stays_bit_exact() {
        let result = run(Size::Tiny, 3, 2);
        assert_eq!(result.rows.len(), 2, "clean + delayed at 2 ranks");
        for row in &result.rows {
            assert!(
                row.bit_identical,
                "schedules diverged at {} ranks",
                row.ranks
            );
            assert!(row.sync_secs_per_step > 0.0 && row.overlapped_secs_per_step > 0.0);
            assert!((0.0..=1.0).contains(&row.overlap_efficiency));
        }
        let delayed = result.rows.iter().find(|r| r.delayed).unwrap();
        assert!(
            delayed.sync_halo_wait_secs * 1e3 > DELAY_MS as f64 * 0.5,
            "victim ranks must feel the injected delay in the sync schedule"
        );
        // Residual wait under overlap cannot exceed the sync wait by
        // more than noise: the interior compute only ever subtracts.
        assert!(
            delayed.overlap_residual_secs <= delayed.sync_halo_wait_secs * 1.5 + 0.005,
            "residual {} vs sync wait {}",
            delayed.overlap_residual_secs,
            delayed.sync_halo_wait_secs
        );
        assert!(workloads::out_dir().join("BENCH_overlap.json").exists());
    }
}

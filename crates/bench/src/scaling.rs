//! Experiment E7 — the scaling claim behind the paper (§II cites Groen
//! et al.: HemeLB "can scale well to at least 32 thousand cores with
//! more than 81 million lattice sites").
//!
//! Two parts:
//!
//! 1. **Measured strong scaling** of the distributed LB step on
//!    rank-threads, comparing partitioners (naive slabs vs SFC vs
//!    multilevel k-way) — who has the smaller halos and the better
//!    balance.
//! 2. **Projection**: fit an α–β–γ model to the measurements themselves
//!    (every row is a calibration sample — see
//!    [`hemelb_parallel::calibrate_fit`]) and scale the measured k-way
//!    halo pattern to the paper's target (32 768 ranks, 81 M sites) by
//!    surface-to-volume, estimating the communication fraction at that
//!    scale — the quantity that decides whether "scales well" holds.
//!    `reproduce projection` (E20) runs the full validated version with
//!    per-technique curves.

use crate::projection::effective_model;
use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, ParallelSolver, Solver, SolverConfig};
use hemelb_parallel::{calibrate_fit, run_spmd_with_stats, CalSample, CostModel};
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{quality, HilbertSfc, MultilevelKWay, NaiveBlock, Partitioner};
use std::fmt;
use std::time::Instant;

/// One `(partitioner, ranks)` measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Partitioner name.
    pub partitioner: &'static str,
    /// Ranks.
    pub ranks: usize,
    /// Measured wall seconds per LB step (mean over the run).
    pub seconds_per_step: f64,
    /// Halo bytes per step (total across ranks).
    pub halo_bytes_per_step: u64,
    /// Partition edge cut.
    pub edge_cut: u64,
    /// Compute imbalance (max/mean sites).
    pub imbalance: f64,
    /// Sites per rank (mean).
    pub sites_per_rank: f64,
}

/// One `(kernel, threads)` measurement of the on-rank collide–stream
/// kernel: the serial reference against the chunk-parallel kernel at a
/// few thread counts. `site_updates_per_sec` is the headline number;
/// `bit_identical` records that the parallel state matched the serial
/// one exactly (`f64::to_bits`) after the measured steps.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// "serial" or "threaded".
    pub kernel: &'static str,
    /// Rayon worker threads (1 for the serial rows).
    pub threads: usize,
    /// Measured wall seconds per LB step.
    pub seconds_per_step: f64,
    /// Site updates per second (sites / seconds_per_step).
    pub site_updates_per_sec: f64,
    /// Whether the final state matched the serial reference bitwise.
    pub bit_identical: bool,
}

/// The sweep result.
pub struct ScalingResult {
    /// Total fluid sites in the workload.
    pub sites: usize,
    /// Measured rows.
    pub rows: Vec<ScalingRow>,
    /// Serial-vs-threaded kernel comparison on one rank.
    pub kernel_rows: Vec<KernelRow>,
    /// Projection to the paper's 32k-core scale.
    pub projection: Projection,
}

/// The 32k-rank projection, priced with a model *fitted to this run's
/// own measurements* (every row doubles as a calibration sample), not
/// preset constants.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Target ranks (32 768, the paper's figure).
    pub ranks: u64,
    /// Target sites (81 M).
    pub sites: u64,
    /// The calibrated model the projection used (γ in site-updates/s —
    /// the "~250 flops/site" guess is gone, work is priced in the unit
    /// actually measured).
    pub model: CostModel,
    /// Fit quality of the calibration (R²).
    pub r2: f64,
    /// Measured halo coefficient, bytes per `sites^(2/3)` (replaces
    /// the `5 populations × 8 B` hand estimate).
    pub halo_coefficient: f64,
    /// Projected compute seconds per step per rank.
    pub compute_s: f64,
    /// Projected halo-communication seconds per step per rank.
    pub comm_s: f64,
    /// Communication fraction of a step.
    pub comm_fraction: f64,
}

/// Run E7: measure steps at each rank count under each partitioner and
/// project to 32k ranks.
pub fn run(size: Size, rank_counts: &[usize], steps: u64) -> ScalingResult {
    let geo = workloads::aneurysm(size);
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let partitioners: Vec<(&'static str, Box<dyn Partitioner>)> = vec![
        ("naive", Box::new(NaiveBlock)),
        ("hilbert", Box::new(HilbertSfc)),
        ("kway", Box::new(MultilevelKWay::default())),
    ];

    // Each rank reports (sites, halo populations, msgs, bytes, wall
    // secs) for the timed stepping — every row below is also a
    // calibration sample for the α–β–γ fit that prices the projection.
    struct RankMeasure {
        sites: usize,
        halo_volume: usize,
        msgs: u64,
        bytes: u64,
        secs: f64,
    }

    let mut rows = Vec::new();
    let mut samples: Vec<CalSample> = Vec::new();
    // Per-rank (sites, halo bytes/step) of the largest k-way run: the
    // surface-to-volume seed of the projection.
    let mut halo_seed: Vec<(usize, u64, f64)> = Vec::new();
    for (name, partitioner) in &partitioners {
        for &p in rank_counts {
            let owner = partitioner.partition(&graph, p);
            let q = quality(&graph, &owner, p);
            let geo2 = geo.clone();
            let owner2 = owner.clone();
            let out = run_spmd_with_stats(p, move |comm| {
                let mut solver = DistSolver::new(
                    geo2.clone(),
                    owner2.clone(),
                    SolverConfig::pressure_driven(1.01, 0.99),
                    comm,
                )
                .unwrap();
                let before = comm.stats();
                let t0 = Instant::now();
                solver.step_n(steps).unwrap();
                let secs = t0.elapsed().as_secs_f64();
                let delta = comm.stats().delta_since(&before);
                RankMeasure {
                    sites: solver.local_sites().len(),
                    halo_volume: solver.halo_send_volume(),
                    msgs: delta.total_msgs(),
                    bytes: delta.total_bytes(),
                    secs,
                }
            });
            // Critical-path calibration sample: a bulk-synchronous step
            // is gated by its slowest rank, so pair the per-rank maxima.
            samples.push(CalSample {
                msgs: out.results.iter().map(|r| r.msgs).max().unwrap_or(0),
                bytes: out.results.iter().map(|r| r.bytes).max().unwrap_or(0),
                work: out.results.iter().map(|r| r.sites).max().unwrap_or(0) as u64 * steps,
                secs: out.results.iter().map(|r| r.secs).fold(0.0, f64::max),
            });
            if *name == "kway" {
                halo_seed = out
                    .results
                    .iter()
                    .map(|r| {
                        (
                            r.sites,
                            r.halo_volume as u64 * 8,
                            r.msgs as f64 / steps as f64,
                        )
                    })
                    .collect();
            }
            rows.push(ScalingRow {
                partitioner: name,
                ranks: p,
                seconds_per_step: out.results.iter().map(|r| r.secs).fold(0.0, f64::max)
                    / steps as f64,
                halo_bytes_per_step: out.results.iter().map(|r| r.halo_volume as u64 * 8).sum(),
                edge_cut: q.edge_cut,
                imbalance: q.imbalance,
                sites_per_rank: geo.fluid_count() as f64 / p as f64,
            });
        }
    }

    // Serial vs thread-parallel kernel on one rank. On a single
    // hardware core the threaded rows can only show overhead — the
    // honest number either way is site-updates/sec; what must hold
    // everywhere is bit-identical output.
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let mut kernel_rows = Vec::new();
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    let t0 = Instant::now();
    serial.step_n(steps);
    let s_per_step = t0.elapsed().as_secs_f64() / steps as f64;
    kernel_rows.push(KernelRow {
        kernel: "serial",
        threads: 1,
        seconds_per_step: s_per_step,
        site_updates_per_sec: geo.fluid_count() as f64 / s_per_step,
        bit_identical: true,
    });
    let want = serial.raw_distributions();
    for t in [1usize, 2, 4] {
        let mut par = ParallelSolver::new(geo.clone(), cfg.clone(), t);
        let t0 = Instant::now();
        par.step_n(steps);
        let s_per_step = t0.elapsed().as_secs_f64() / steps as f64;
        let bit_identical = par
            .raw_distributions()
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        kernel_rows.push(KernelRow {
            kernel: "threaded",
            threads: t,
            seconds_per_step: s_per_step,
            site_updates_per_sec: geo.fluid_count() as f64 / s_per_step,
            bit_identical,
        });
    }

    // Projection: calibrate the α–β–γ model from the rows just
    // measured, then scale the measured k-way halo pattern to the
    // paper's 32k-rank, 81 M-site workload by surface-to-volume. Both
    // hand constants of the original projection are gone: γ is fitted
    // in site-updates/s (not "~250 flops/site" against a preset), and
    // the halo coefficient comes from the measured bytes per
    // `sites^(2/3)` (not "5 populations × 8 B per boundary site").
    let cal = calibrate_fit(&samples).expect("scaling rows form a fittable sample set");
    let model = effective_model(&cal);
    let target_ranks = 32_768u64;
    let target_sites = 81_000_000u64;
    let sites_per_rank = target_sites as f64 / target_ranks as f64;
    let halo_terms: Vec<f64> = halo_seed
        .iter()
        .filter(|&&(s, _, _)| s > 0)
        .map(|&(s, b, _)| b as f64 / (s as f64).powf(2.0 / 3.0))
        .collect();
    let halo_coefficient = if halo_terms.is_empty() {
        0.0
    } else {
        halo_terms.iter().sum::<f64>() / halo_terms.len() as f64
    };
    let mean_msgs = if halo_seed.is_empty() {
        0.0
    } else {
        halo_seed.iter().map(|&(_, _, m)| m).sum::<f64>() / halo_seed.len() as f64
    };
    let halo_bytes = halo_coefficient * sites_per_rank.powf(2.0 / 3.0);
    let compute_s = model.time(0, 0, sites_per_rank.round() as u64);
    let comm_s = model.alpha * mean_msgs.max(1.0) + halo_bytes / model.beta;
    let projection = Projection {
        ranks: target_ranks,
        sites: target_sites,
        model,
        r2: cal.r2,
        halo_coefficient,
        compute_s,
        comm_s,
        comm_fraction: comm_s / (comm_s + compute_s),
    };

    ScalingResult {
        sites: geo.fluid_count(),
        rows,
        kernel_rows,
        projection,
    }
}

impl ScalingResult {
    /// Rows for one partitioner.
    pub fn rows_for(&self, name: &str) -> Vec<&ScalingRow> {
        self.rows.iter().filter(|r| r.partitioner == name).collect()
    }
}

impl fmt::Display for ScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Strong scaling of the distributed LB step — {} sites",
            self.sites
        )?;
        writeln!(
            f,
            "{:<9} {:>6} {:>12} {:>14} {:>10} {:>10}",
            "partition", "ranks", "ms/step", "halo B/step", "edge cut", "imbalance"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>6} {:>12.3} {:>14} {:>10} {:>10.3}",
                r.partitioner,
                r.ranks,
                r.seconds_per_step * 1e3,
                workloads::fmt_bytes(r.halo_bytes_per_step),
                r.edge_cut,
                r.imbalance,
            )?;
        }
        writeln!(
            f,
            "on-rank kernel: serial vs chunk-parallel (bit-identical)"
        )?;
        writeln!(
            f,
            "{:<9} {:>7} {:>12} {:>16} {:>10}",
            "kernel", "threads", "ms/step", "site-updates/s", "bit-exact"
        )?;
        for k in &self.kernel_rows {
            writeln!(
                f,
                "{:<9} {:>7} {:>12.3} {:>16.0} {:>10}",
                k.kernel,
                k.threads,
                k.seconds_per_step * 1e3,
                k.site_updates_per_sec,
                k.bit_identical,
            )?;
        }
        let p = &self.projection;
        writeln!(
            f,
            "calibrated model (fit to the rows above, R² {:.3}): α = {:.2e} s/msg, \
             β = {:.2e} B/s, γ = {:.2e} site-updates/s, halo k = {:.1} B/site^⅔",
            p.r2, p.model.alpha, p.model.beta, p.model.gamma, p.halo_coefficient
        )?;
        writeln!(
            f,
            "projection to the paper's scale ({} ranks, {} sites): compute {:.1} µs/step, halo {:.1} µs/step, comm fraction {:.1}%",
            p.ranks,
            p.sites,
            p.compute_s * 1e6,
            p.comm_s * 1e6,
            p.comm_fraction * 100.0
        )?;
        writeln!(
            f,
            "(the paper's 'scales well to 32k cores' claim holds where the comm fraction stays below 50%; \
             see `reproduce projection` for the full technique curves)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_run_measures_and_projects() {
        let result = run(Size::Tiny, &[1, 2, 4], 5);
        assert_eq!(result.rows.len(), 9);
        // One rank has no halo.
        for name in ["naive", "hilbert", "kway"] {
            let rows = result.rows_for(name);
            assert_eq!(rows[0].ranks, 1);
            assert_eq!(rows[0].halo_bytes_per_step, 0);
            assert!(rows[2].halo_bytes_per_step > 0);
        }
        // The projection is priced by a model calibrated from the rows
        // themselves: the fraction is a real ratio, and γ is finite
        // (there is always compute signal). On an in-process "machine"
        // the calibrated bandwidth is far below a Cray link's, so no
        // fixed band on the fraction is honest — only its validity.
        assert!(result.projection.comm_fraction > 0.0);
        assert!(result.projection.comm_fraction < 1.0);
        assert!(result.projection.model.gamma.is_finite());
        assert!(result.projection.halo_coefficient > 0.0);
        assert!(result.projection.compute_s > 0.0 && result.projection.comm_s > 0.0);
        // One serial row + three threaded rows, all bit-identical.
        assert_eq!(result.kernel_rows.len(), 4);
        for k in &result.kernel_rows {
            assert!(k.bit_identical, "threads={} diverged", k.threads);
            assert!(k.site_updates_per_sec > 0.0);
        }
    }

    #[test]
    fn kway_cut_not_worse_than_naive_at_scale() {
        let result = run(Size::Tiny, &[8], 2);
        let naive = result.rows_for("naive")[0].edge_cut;
        let kway = result.rows_for("kway")[0].edge_cut;
        assert!(
            kway <= naive * 2,
            "kway cut {kway} should be comparable or better than naive {naive}"
        );
    }
}

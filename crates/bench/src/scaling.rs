//! Experiment E7 — the scaling claim behind the paper (§II cites Groen
//! et al.: HemeLB "can scale well to at least 32 thousand cores with
//! more than 81 million lattice sites").
//!
//! E7 answers the *partitioner* half of that claim: the distributed LB
//! step on rank-threads under naive slabs, a Hilbert SFC and the
//! multilevel k-way partitioner — who has the smaller halos, the lower
//! edge cut and the better balance as the rank count grows. The
//! projection to 32 768 ranks is E20 (`reproduce projection`, a
//! validated calibrated model with per-technique curves); how fast the
//! kernel runs is the repo benchmark's `kernel_*` workloads.

use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_parallel::run_spmd;
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

/// The sweep result.
pub struct ScalingResult {
    /// Total fluid sites in the workload.
    pub sites: usize,
    /// Measured rows.
    pub rows: Vec<ScalingRow>,
}

/// Run E7: step the distributed solver at each rank count under each
/// partitioner, recording halo volume, cut, balance and step time.
pub fn run(size: Size, rank_counts: &[usize], steps: u64) -> ScalingResult {
    let geo = workloads::aneurysm(size);
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let partitioners: Vec<(&'static str, Box<dyn Partitioner>)> = vec![
        ("naive", Box::new(NaiveBlock)),
        ("hilbert", Box::new(HilbertSfc)),
        ("kway", Box::new(MultilevelKWay)),
    ];

    let mut rows = Vec::new();
    for (name, partitioner) in &partitioners {
        for &p in rank_counts {
            let owner = partitioner.partition(&graph, p);
            let q = quality(&graph, &owner, p);
            let geo2 = geo.clone();
            // Each rank reports (halo populations sent per step, wall
            // seconds of the stepping).
            let per_rank = run_spmd(p, move |comm| {
                let mut solver = DistSolver::new(
                    geo2.clone(),
                    owner.clone(),
                    SolverConfig::pressure_driven(1.01, 0.99),
                    comm,
                )
                .unwrap();
                let t0 = Instant::now();
                solver.step_n(steps).unwrap();
                (solver.halo_send_volume(), t0.elapsed().as_secs_f64())
            });
            rows.push(ScalingRow {
                partitioner: name,
                ranks: p,
                // A bulk-synchronous step is gated by its slowest rank.
                seconds_per_step: per_rank.iter().map(|&(_, secs)| secs).fold(0.0, f64::max)
                    / steps as f64,
                halo_bytes_per_step: per_rank.iter().map(|&(halo, _)| halo as u64 * 8).sum(),
                edge_cut: q.edge_cut,
                imbalance: q.imbalance,
                sites_per_rank: geo.fluid_count() as f64 / p as f64,
            });
        }
    }

    ScalingResult {
        sites: geo.fluid_count(),
        rows,
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
            "(ms/step is indicative only on oversubscribed rank-threads; the 32k-rank \
             projection is `reproduce projection`)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_run_measures_every_partitioner() {
        let result = run(Size::Tiny, &[1, 2, 4], 5);
        assert_eq!(result.rows.len(), 9);
        // One rank has no halo.
        for name in ["naive", "hilbert", "kway"] {
            let rows = result.rows_for(name);
            assert_eq!(rows[0].ranks, 1);
            assert_eq!(rows[0].halo_bytes_per_step, 0);
            assert!(rows[2].halo_bytes_per_step > 0);
            assert!(rows.iter().all(|r| r.seconds_per_step > 0.0));
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

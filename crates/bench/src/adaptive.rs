//! Experiment E15 — measurement-driven adaptive load balancing.
//!
//! The co-design loop of the paper closes only if the runtime can act
//! on its own measurements: the observability layer feeds per-rank
//! `lb.*` span totals into the adaptive load balancer, which plans a
//! diffusive rebalance and applies it through the migrating
//! repartitioner when the cost/benefit gate approves. E15 demonstrates
//! the whole chain on a *deliberately skewed* decomposition of the
//! aneurysm geometry — one rank starts with most of the bulb — and
//! reports
//!
//! * the measured max/mean step-time imbalance in the first decision
//!   window (before any rebalance) and in the last one (after);
//! * how many rebalances the hysteresis + gate let through, how many
//!   sites migrated, and the projected migration volume in bytes;
//! * bit-exactness of the final fields against a serial solver that
//!   never repartitions — the adaptive path must be invisible to the
//!   physics.
//!
//! The report is also written as `out/BENCH_adaptive.json` via the obs
//! JSON codec.

use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, Solver, SolverConfig};
use hemelb_obs::{ObsReport, Recorder};
use hemelb_parallel::{run_spmd_opts, SpmdOptions};
use hemelb_partition::{AdaptiveLbConfig, Observation};
use hemelb_steering::AdaptiveDriver;
use std::fmt;

/// A decomposition that puts roughly `frac` of all sites on rank 0 and
/// splits the rest evenly (by fluid index) across the other ranks — the
/// "dense bulb on one rank" starting point the adaptive balancer must
/// dig itself out of.
pub fn skewed_owner(geo: &hemelb_geometry::SparseGeometry, p: usize, frac: f64) -> Vec<usize> {
    let n = geo.fluid_count();
    let head = ((n as f64 * frac) as usize).min(n);
    let rest_ranks = p.saturating_sub(1).max(1);
    let tail = n - head;
    (0..n)
        .map(|s| {
            if s < head || p == 1 {
                0
            } else {
                let i = s - head;
                (1 + i * rest_ranks / tail.max(1)).min(p - 1)
            }
        })
        .collect()
}

/// Everything E15 measures.
pub struct AdaptiveResult {
    /// Ranks in the distributed run.
    pub ranks: usize,
    /// Steps simulated.
    pub steps: u64,
    /// Decision-window length in steps.
    pub window_steps: u64,
    /// Fraction of sites parked on rank 0 at the start.
    pub skew: f64,
    /// Per-window hysteresis observations (identical on every rank).
    pub observations: Vec<Observation>,
    /// Measured sim-cost imbalance in the first window (pre-rebalance).
    pub imbalance_before: f64,
    /// Measured sim-cost imbalance in the last window.
    pub imbalance_after: f64,
    /// Repartitions the gate let through.
    pub rebalances: u64,
    /// Sites that changed ranks, summed over all rebalances.
    pub sites_moved: u64,
    /// Triggered windows the cost/benefit gate rejected.
    pub gate_skips: u64,
    /// Migration payload the moves amount to (Migration-class bytes).
    pub migration_bytes: u64,
    /// Final fields identical to the never-repartitioned serial run?
    pub bit_exact: bool,
    /// The exported report, also written to `out/BENCH_adaptive.json`.
    pub report: ObsReport,
}

/// Run E15: skewed start, adaptive windows, bit-exactness reference.
pub fn run(size: Size, ranks: usize) -> AdaptiveResult {
    let geo = workloads::aneurysm(size);
    let ranks = ranks.max(2);
    let skew = 0.7;
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    // E15 wants visible convergence within a short run on an
    // oversubscribed test box, so it reacts on every hot window and
    // uses a tight balance cap; the hysteresis behaviour itself is
    // pinned by unit tests and `tests/adaptive_lb.rs`.
    let lb_cfg = AdaptiveLbConfig {
        window_steps: 20,
        threshold: 1.15,
        hysteresis_windows: 1,
        epsilon: 0.05,
        max_passes: 60,
        ..Default::default()
    };
    let windows = 12u64;
    let steps = lb_cfg.window_steps * windows;

    let (geo2, cfg2) = (geo.clone(), cfg.clone());
    let out = run_spmd_opts(ranks, SpmdOptions::default(), move |comm| {
        let owner = skewed_owner(&geo2, comm.size(), skew);
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
        let mut driver = AdaptiveDriver::new(&geo2, lb_cfg);
        let mut observations = Vec::with_capacity(windows as usize);
        let mut q = 0usize;
        while ds.step_count() < steps {
            ds.step_n(lb_cfg.window_steps.min(steps - ds.step_count()))
                .unwrap();
            let remaining = steps - ds.step_count();
            let d = driver
                .end_window(comm, &mut ds, lb_cfg.window_steps, remaining)
                .unwrap();
            observations.push(d.observation);
            q = ds.model().q;
        }
        (ds.gather_snapshot().unwrap(), observations, q)
    });

    let merged = out.merged_obs();
    let counter = |k: &str| merged.counters.get(k).copied().unwrap_or(0);
    let rebalances = counter("lb.rebalance.count") / ranks as u64;
    let sites_moved = counter("lb.rebalance.sites_moved");
    let gate_skips = counter("lb.rebalance.skipped.gate") / ranks as u64;
    let (snapshot, observations, q) = &out.results[0];
    let migration_bytes = sites_moved * (4 + 8 * *q as u64);
    // Per-window wall measurements are noisy on a shared box; compare
    // the mean of the first two windows against the last two.
    let mean_imbalance = |os: &[Observation]| -> f64 {
        if os.is_empty() {
            1.0
        } else {
            os.iter().map(|o| o.sim_imbalance).sum::<f64>() / os.len() as f64
        }
    };
    let head = observations.len().min(2);
    let imbalance_before = mean_imbalance(&observations[..head]);
    let imbalance_after = mean_imbalance(&observations[observations.len() - head..]);

    // The never-repartitioned reference: a serial solver over the same
    // geometry and step count. Bitwise-equal densities prove the whole
    // adaptive chain (measure → plan → gate → migrate) left the physics
    // untouched.
    let mut reference = Solver::new(geo.clone(), cfg);
    reference.step_n(steps);
    let bit_exact = snapshot
        .as_ref()
        .is_some_and(|s| s.rho == reference.snapshot().rho);

    let mut rec = Recorder::new();
    rec.count("adaptive.rebalances", rebalances);
    rec.count("adaptive.sites_moved", sites_moved);
    rec.count("adaptive.gate_skips", gate_skips);
    rec.count("adaptive.migration_bytes", migration_bytes);
    rec.count("adaptive.bit_exact", u64::from(bit_exact));
    rec.record_secs("adaptive.imbalance_before", imbalance_before);
    rec.record_secs("adaptive.imbalance_after", imbalance_after);
    let report = rec.report();
    let path = workloads::out_dir().join("BENCH_adaptive.json");
    std::fs::write(&path, report.to_json()).expect("BENCH_adaptive.json written");

    AdaptiveResult {
        ranks,
        steps,
        window_steps: lb_cfg.window_steps,
        skew,
        observations: observations.clone(),
        imbalance_before,
        imbalance_after,
        rebalances,
        sites_moved,
        gate_skips,
        migration_bytes,
        bit_exact,
        report,
    }
}

impl fmt::Display for AdaptiveResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Adaptive load balancing: {} ranks, {} steps, windows of {}, \
             {:.0}% of sites start on rank 0",
            self.ranks,
            self.steps,
            self.window_steps,
            self.skew * 100.0,
        )?;
        writeln!(
            f,
            "{:>7} {:>12} {:>12} {:>5} {:>7} {:>10}",
            "window", "sim imbal", "vis imbal", "hot", "streak", "triggered"
        )?;
        for o in &self.observations {
            writeln!(
                f,
                "{:>7} {:>12.3} {:>12.3} {:>5} {:>7} {:>10}",
                o.window,
                o.sim_imbalance,
                o.vis_imbalance,
                if o.hot { "yes" } else { "no" },
                o.hot_streak,
                if o.triggered { "yes" } else { "no" },
            )?;
        }
        writeln!(
            f,
            "imbalance {:.3} -> {:.3} ({:+.1}%), {} rebalance(s), {} site(s) moved \
             ({} migration bytes), {} gate skip(s)",
            self.imbalance_before,
            self.imbalance_after,
            100.0 * (self.imbalance_after - self.imbalance_before)
                / self.imbalance_before.max(1e-12),
            self.rebalances,
            self.sites_moved,
            workloads::fmt_bytes(self.migration_bytes),
            self.gate_skips,
        )?;
        writeln!(
            f,
            "bit-exact vs never-repartitioned serial run: {}",
            if self.bit_exact { "yes" } else { "NO" },
        )?;
        writeln!(f, "JSON: out/BENCH_adaptive.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_obs::Json;

    #[test]
    fn skewed_owner_is_skewed_and_covers_all_ranks() {
        let geo = workloads::aneurysm(Size::Tiny);
        let owner = skewed_owner(&geo, 4, 0.7);
        assert_eq!(owner.len(), geo.fluid_count());
        let mut counts = [0usize; 4];
        for &o in &owner {
            counts[o] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(
            counts[0] > owner.len() / 2,
            "rank 0 must start overloaded: {counts:?}"
        );
    }

    #[test]
    fn adaptive_run_rebalances_and_stays_bit_exact() {
        let r = run(Size::Tiny, 3);
        assert!(
            r.bit_exact,
            "adaptive repartitioning must not touch physics"
        );
        assert!(
            r.rebalances >= 1,
            "a 70% skew must trigger at least one rebalance: {:?}",
            r.observations
        );
        assert!(r.sites_moved > 0);
        assert!(
            r.imbalance_after < r.imbalance_before,
            "imbalance must drop: {} -> {}",
            r.imbalance_before,
            r.imbalance_after
        );
        let tree = Json::parse(&r.report.to_json()).expect("valid JSON");
        let bit_exact = tree
            .get("counters")
            .and_then(|c| c.get("adaptive.bit_exact"));
        assert_eq!(bit_exact.and_then(Json::as_u64), Some(1));
    }
}

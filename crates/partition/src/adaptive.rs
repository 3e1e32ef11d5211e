//! Measurement-driven adaptive load balancing — the decision core that
//! closes the paper's co-design loop (§III-B, Fig. 2).
//!
//! The pre-processing story of the paper is a *loop*, not a one-shot:
//! partitioning must account for both simulation and visualisation load
//! and be revisited as the run evolves. Following Groen et al.'s
//! weighted-decomposition study (arXiv:1410.4713), the signal here is
//! *measured per-rank cost* (span totals from the observability layer),
//! not site counts.
//!
//! This module is deliberately pure — no clocks, no communicators — so
//! every rank of an SPMD job can feed it the *same* reduced cost vector
//! and reach the *same* decision deterministically. The pipeline:
//!
//! 1. every `window_steps` steps, the caller measures per-rank sim and
//!    vis seconds ([`WindowCosts`]) and feeds them to
//!    [`AdaptiveLb::observe`];
//! 2. [`AdaptiveLb`] applies a **hysteresis** filter: only when the
//!    max/mean imbalance exceeds `threshold` for `hysteresis_windows`
//!    *consecutive* windows does it trigger (no thrash on oscillating
//!    load);
//! 3. on trigger, [`plan_rebalance`] converts the rank costs into
//!    per-site weights and runs the multi-constraint diffusive
//!    [`rebalance`](crate::visaware::rebalance) (single-constraint
//!    when there is no visualisation signal);
//! 4. [`payoff_gate`] weighs the projected per-step saving against the
//!    migration cost (projected by the caller's α–β–γ machine model)
//!    over the steps that remain — a migration that cannot amortise
//!    itself is skipped.

use crate::error::{PartitionError, PartitionResult};
use crate::graph::SiteGraph;
use crate::metrics::imbalance_of;
use crate::visaware::{rebalance, RebalanceOutcome};

/// Knobs of the adaptive load balancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveLbConfig {
    /// Decision window length in simulation steps.
    pub window_steps: u64,
    /// Max/mean imbalance (of either constraint) above which a window
    /// counts as *hot*.
    pub threshold: f64,
    /// Consecutive hot windows required before a rebalance is planned.
    pub hysteresis_windows: u32,
    /// Balance tolerance handed to the diffusive rebalance.
    pub epsilon: f64,
    /// Maximum diffusion passes per rebalance.
    pub max_passes: usize,
    /// The projected saving must exceed `min_payoff ×` the projected
    /// migration cost for the plan to be applied.
    pub min_payoff: f64,
}

impl Default for AdaptiveLbConfig {
    fn default() -> Self {
        AdaptiveLbConfig {
            window_steps: 50,
            threshold: 1.25,
            hysteresis_windows: 2,
            epsilon: 0.10,
            max_passes: 30,
            min_payoff: 1.0,
        }
    }
}

/// Per-rank measured cost over one decision window. Both vectors have
/// one entry per rank; `vis_secs` may be all-zero when nothing rendered.
///
/// The sim signal should contain the *load-proportional* phases only
/// (collide, stream, halo pack, macroscopics) — halo-*wait* time is
/// idleness **caused by** imbalance and would invert the signal if
/// included.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCosts {
    /// Seconds of simulation work per rank.
    pub sim_secs: Vec<f64>,
    /// Seconds of visualisation (render) work per rank.
    pub vis_secs: Vec<f64>,
    /// Steps covered by this window.
    pub steps: u64,
}

impl WindowCosts {
    /// Max/mean imbalance of the simulation cost.
    pub fn sim_imbalance(&self) -> f64 {
        imbalance_of(&self.sim_secs)
    }

    /// Max/mean imbalance of the visualisation cost (1.0 when nothing
    /// rendered anywhere).
    pub fn vis_imbalance(&self) -> f64 {
        imbalance_of(&self.vis_secs)
    }

    /// Whether any rank reported visualisation work this window.
    pub fn has_vis_signal(&self) -> bool {
        self.vis_secs.iter().any(|&v| v > 0.0)
    }
}

/// What [`AdaptiveLb::observe`] concluded about one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Index of the observed window (0-based).
    pub window: u64,
    /// Simulation imbalance this window.
    pub sim_imbalance: f64,
    /// Visualisation imbalance this window.
    pub vis_imbalance: f64,
    /// Whether this window exceeded the threshold.
    pub hot: bool,
    /// Length of the current consecutive-hot streak (this window
    /// included).
    pub hot_streak: u32,
    /// Whether the hysteresis filter fired: plan a rebalance now.
    pub triggered: bool,
}

/// The hysteresis state machine. Feed it one [`WindowCosts`] per
/// decision window; it says when the imbalance has been persistently bad
/// enough to justify planning a rebalance.
#[derive(Debug, Clone)]
pub struct AdaptiveLb {
    cfg: AdaptiveLbConfig,
    hot_streak: u32,
    windows_seen: u64,
}

impl AdaptiveLb {
    /// New state machine with the given knobs.
    pub fn new(cfg: AdaptiveLbConfig) -> Self {
        AdaptiveLb {
            cfg,
            hot_streak: 0,
            windows_seen: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdaptiveLbConfig {
        &self.cfg
    }

    /// Windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Digest one window of measurements. A window is *hot* when either
    /// constraint's imbalance exceeds the threshold; `triggered` becomes
    /// true only after `hysteresis_windows` consecutive hot windows, and
    /// stays true each further hot window until [`AdaptiveLb::reset`]
    /// (call it after applying — or deliberately skipping — a plan).
    pub fn observe(&mut self, costs: &WindowCosts) -> Observation {
        let window = self.windows_seen;
        self.windows_seen += 1;
        let sim_imbalance = costs.sim_imbalance();
        let vis_imbalance = costs.vis_imbalance();
        let hot = sim_imbalance > self.cfg.threshold || vis_imbalance > self.cfg.threshold;
        if hot {
            self.hot_streak = self.hot_streak.saturating_add(1);
        } else {
            self.hot_streak = 0;
        }
        Observation {
            window,
            sim_imbalance,
            vis_imbalance,
            hot,
            hot_streak: self.hot_streak,
            triggered: hot && self.hot_streak >= self.cfg.hysteresis_windows,
        }
    }

    /// Clear the hot streak — call after a rebalance was applied (the
    /// old measurements no longer describe the new partition) or after
    /// the payoff gate rejected a plan (start accumulating evidence
    /// afresh rather than re-planning every window).
    pub fn reset(&mut self) {
        self.hot_streak = 0;
    }
}

/// Derived per-site weights: measured rank cost spread evenly over the
/// rank's sites. Secondary is `None` when there was no vis signal.
#[derive(Debug, Clone)]
pub struct SiteWeights {
    /// Primary (simulation) per-site weight.
    pub sim: Vec<f64>,
    /// Secondary (visualisation) per-site weight, if any rank rendered.
    pub vis: Option<Vec<f64>>,
}

/// Convert per-rank measured costs into per-site weights under the
/// current `owner` map: each site inherits `rank cost / rank site
/// count`. Sites of an expensive rank become expensive sites, which is
/// exactly the signal the diffusive rebalance needs to push work off
/// that rank (measured cost, not site count — arXiv:1410.4713).
///
/// # Errors
/// Rejects owner values outside `0..k` and cost vectors whose length is
/// not `k`.
pub fn derive_site_weights(
    owner: &[usize],
    k: usize,
    costs: &WindowCosts,
) -> PartitionResult<SiteWeights> {
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if costs.sim_secs.len() != k || costs.vis_secs.len() != k {
        return Err(PartitionError::WeightLengthMismatch {
            weights_len: costs.sim_secs.len(),
            graph_len: k,
        });
    }
    let mut count = vec![0usize; k];
    for (vertex, &o) in owner.iter().enumerate() {
        if o >= k {
            return Err(PartitionError::OwnerOutOfRange {
                vertex,
                owner: o,
                k,
            });
        }
        count[o] += 1;
    }
    let per_site = |secs: &[f64]| -> Vec<f64> {
        owner
            .iter()
            .map(|&o| {
                if count[o] == 0 {
                    0.0
                } else {
                    // Guard against a non-finite or negative timer
                    // artefact poisoning the weights.
                    (secs[o].max(0.0) / count[o] as f64).max(0.0)
                }
            })
            .map(|w| if w.is_finite() { w } else { 0.0 })
            .collect()
    };
    let sim = per_site(&costs.sim_secs);
    let vis = costs.has_vis_signal().then(|| per_site(&costs.vis_secs));
    Ok(SiteWeights { sim, vis })
}

/// Plan a rebalance from measured window costs: derive site weights,
/// install them on a copy of the topology, and run the diffusive
/// multi-constraint rebalance (single-constraint when no vis signal).
/// Nothing is applied — the caller still holds the plan against the
/// [`payoff_gate`].
///
/// # Errors
/// Propagates malformed-input errors from weight derivation and the
/// rebalance itself; never panics.
pub fn plan_rebalance(
    graph: &SiteGraph,
    owner: &[usize],
    k: usize,
    cfg: &AdaptiveLbConfig,
    costs: &WindowCosts,
) -> PartitionResult<RebalanceOutcome> {
    let weights = derive_site_weights(owner, k, costs)?;
    let mut weighted = graph.clone();
    weighted.vwgt = weights.sim;
    weighted.vwgt2 = weights.vis;
    rebalance(&weighted, owner, k, cfg.epsilon, cfg.max_passes)
}

/// The cost/benefit decision on a planned rebalance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDecision {
    /// Projected seconds saved per step if the plan is applied.
    pub benefit_per_step: f64,
    /// Projected total saving over the remaining steps.
    pub benefit_secs: f64,
    /// Projected one-off migration cost in seconds.
    pub migration_secs: f64,
    /// Apply the plan?
    pub apply: bool,
}

/// Weigh a planned rebalance: apply only when the projected saving over
/// the `remaining_steps` exceeds `min_payoff ×` the one-off migration
/// cost (`migration_secs`, projected by the caller — typically an
/// α–β–γ machine model applied to the plan's migration volume).
///
/// The per-step saving is estimated from this window's measurements:
/// today the step time is set by the slowest rank (`max` of the summed
/// sim+vis cost); after rebalancing, by `mean × imbalance_after` with
/// the plan's projected imbalance.
pub fn payoff_gate(
    plan: &RebalanceOutcome,
    costs: &WindowCosts,
    migration_secs: f64,
    remaining_steps: u64,
    cfg: &AdaptiveLbConfig,
) -> GateDecision {
    // Pad the *shorter* vector with zeros, whichever it is: zipping
    // with only vis padded would silently drop trailing vis ranks when
    // vis_secs is the longer vector, underestimating the bottleneck.
    let k = costs.sim_secs.len().max(costs.vis_secs.len()).max(1);
    let combined: Vec<f64> = (0..k)
        .map(|i| {
            costs.sim_secs.get(i).copied().unwrap_or(0.0)
                + costs.vis_secs.get(i).copied().unwrap_or(0.0)
        })
        .collect();
    let max_now = combined.iter().cloned().fold(0.0, f64::max);
    let mean = combined.iter().sum::<f64>() / k as f64;
    // Projected post-rebalance bottleneck: the mean cannot change (same
    // total work), the spread becomes the plan's projected imbalance —
    // use the worse of the two constraints to stay conservative.
    let projected_imbalance = plan.imbalance_after.max(plan.imbalance2_after);
    let max_after = mean * projected_imbalance.max(1.0);
    let steps = costs.steps.max(1) as f64;
    let benefit_per_step = (max_now - max_after) / steps;
    let benefit_secs = benefit_per_step * remaining_steps as f64;
    let apply = benefit_per_step > 0.0
        && plan.moved_vertices > 0
        && benefit_secs > migration_secs * cfg.min_payoff;
    GateDecision {
        benefit_per_step,
        benefit_secs,
        migration_secs,
        apply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(sim: &[f64], vis: &[f64], steps: u64) -> WindowCosts {
        WindowCosts {
            sim_secs: sim.to_vec(),
            vis_secs: vis.to_vec(),
            steps,
        }
    }

    #[test]
    fn hysteresis_triggers_after_consecutive_hot_windows() {
        let mut lb = AdaptiveLb::new(AdaptiveLbConfig {
            threshold: 1.25,
            hysteresis_windows: 2,
            ..AdaptiveLbConfig::default()
        });
        let hot = costs(&[3.0, 1.0], &[0.0, 0.0], 50);
        let o1 = lb.observe(&hot);
        assert!(o1.hot && !o1.triggered, "first hot window arms only");
        let o2 = lb.observe(&hot);
        assert!(o2.triggered, "second consecutive hot window fires");
        assert_eq!(o2.hot_streak, 2);
    }

    #[test]
    fn hysteresis_does_not_thrash_on_oscillating_load() {
        // Load alternates hot/cold every window (e.g. a periodic
        // rendering burst): the filter must never fire.
        let mut lb = AdaptiveLb::new(AdaptiveLbConfig {
            threshold: 1.25,
            hysteresis_windows: 2,
            ..AdaptiveLbConfig::default()
        });
        let hot = costs(&[3.0, 1.0], &[0.0, 0.0], 50);
        let cold = costs(&[1.0, 1.0], &[0.0, 0.0], 50);
        for _ in 0..10 {
            assert!(!lb.observe(&hot).triggered);
            let o = lb.observe(&cold);
            assert!(!o.triggered);
            assert_eq!(o.hot_streak, 0, "cold window clears the streak");
        }
    }

    #[test]
    fn vis_imbalance_alone_can_trigger() {
        let mut lb = AdaptiveLb::new(AdaptiveLbConfig {
            hysteresis_windows: 1,
            ..AdaptiveLbConfig::default()
        });
        let o = lb.observe(&costs(&[1.0, 1.0], &[2.0, 0.0], 50));
        assert!(o.triggered, "vis skew alone exceeds the threshold");
        assert!((o.sim_imbalance - 1.0).abs() < 1e-12);
        assert!(o.vis_imbalance > 1.9);
    }

    #[test]
    fn reset_clears_the_streak() {
        let mut lb = AdaptiveLb::new(AdaptiveLbConfig {
            hysteresis_windows: 2,
            ..AdaptiveLbConfig::default()
        });
        let hot = costs(&[3.0, 1.0], &[0.0, 0.0], 50);
        lb.observe(&hot);
        lb.observe(&hot);
        lb.reset();
        let o = lb.observe(&hot);
        assert_eq!(o.hot_streak, 1, "evidence restarts after reset");
        assert!(!o.triggered);
    }

    #[test]
    fn site_weights_follow_measured_cost() {
        // Rank 0: 2 sites, 4 s → 2 s/site. Rank 1: 2 sites, 1 s → 0.5.
        let owner = [0, 0, 1, 1];
        let w = derive_site_weights(&owner, 2, &costs(&[4.0, 1.0], &[0.0, 0.0], 50)).unwrap();
        assert_eq!(w.sim, vec![2.0, 2.0, 0.5, 0.5]);
        assert!(w.vis.is_none(), "no vis signal, no secondary weights");
        let w = derive_site_weights(&owner, 2, &costs(&[4.0, 1.0], &[1.0, 0.0], 50)).unwrap();
        assert_eq!(w.vis, Some(vec![0.5, 0.5, 0.0, 0.0]));
    }

    #[test]
    fn site_weights_reject_malformed_inputs() {
        assert!(matches!(
            derive_site_weights(&[0, 5], 2, &costs(&[1.0, 1.0], &[0.0, 0.0], 1)),
            Err(PartitionError::OwnerOutOfRange { vertex: 1, .. })
        ));
        assert!(matches!(
            derive_site_weights(&[0, 1], 2, &costs(&[1.0], &[0.0], 1)),
            Err(PartitionError::WeightLengthMismatch { .. })
        ));
        assert!(matches!(
            derive_site_weights(&[], 0, &costs(&[], &[], 1)),
            Err(PartitionError::ZeroParts)
        ));
    }

    #[test]
    fn site_weights_sanitise_timer_artefacts() {
        let owner = [0, 1];
        let w = derive_site_weights(&owner, 2, &costs(&[f64::NAN, -1.0], &[0.0, 0.0], 1)).unwrap();
        assert_eq!(w.sim, vec![0.0, 0.0], "NaN/negative timers zeroed");
    }

    #[test]
    fn plan_from_skewed_vis_cost_balances_vis_and_keeps_compute_balance() {
        use crate::graph::Connectivity;
        use crate::{NaiveBlock, Partitioner};
        let geo = hemelb_geometry::VesselBuilder::straight_tube(32.0, 4.0).voxelise(1.0);
        let g = SiteGraph::from_geometry(&geo, Connectivity::Six);
        let owner = NaiveBlock.partition(&g, 3);
        // Every rank computes as long as the others, but rank 0 holds
        // most of what the camera sees.
        let c = costs(&[1.0, 1.0, 1.0], &[0.8, 0.1, 0.1], 50);
        let cfg = AdaptiveLbConfig::default();
        let plan = plan_rebalance(&g, &owner, 3, &cfg, &c).unwrap();
        assert!(plan.imbalance2_before > 2.0, "{}", plan.imbalance2_before);
        assert!(
            plan.imbalance2_after < plan.imbalance2_before,
            "vis imbalance {} -> {}",
            plan.imbalance2_before,
            plan.imbalance2_after
        );
        assert!(
            plan.imbalance_after <= 1.0 + cfg.epsilon + 1e-9,
            "compute imbalance after: {}",
            plan.imbalance_after
        );
        assert!(plan.moved_vertices > 0);
    }

    #[test]
    fn gate_applies_profitable_plans_only() {
        let plan = RebalanceOutcome {
            owner: vec![],
            moved_vertices: 100,
            migration_volume: 100.0,
            imbalance_before: 2.0,
            imbalance_after: 1.05,
            imbalance2_before: 1.0,
            imbalance2_after: 1.0,
            cut_before: 10,
            cut_after: 10,
        };
        let c = costs(&[2.0, 1.0, 1.0, 1.0], &[0.0; 4], 50);
        let cfg = AdaptiveLbConfig::default();
        // max_now 2.0, mean 1.25 → max_after ≈ 1.3125: saves ~0.0137 s
        // per step. Cheap migration, long horizon → apply.
        let d = payoff_gate(&plan, &c, 0.01, 5000, &cfg);
        assert!(d.apply, "{d:?}");
        assert!(d.benefit_per_step > 0.0);
        // Same plan, but the run is nearly over → benefit cannot
        // amortise the migration.
        let d = payoff_gate(&plan, &c, 0.5, 10, &cfg);
        assert!(!d.apply, "{d:?}");
        // Exorbitant migration cost → rejected outright.
        let d = payoff_gate(&plan, &c, 1e9, 5000, &cfg);
        assert!(!d.apply);
    }

    #[test]
    fn gate_pads_asymmetric_cost_vectors_both_ways() {
        let plan = RebalanceOutcome {
            owner: vec![],
            moved_vertices: 100,
            migration_volume: 100.0,
            imbalance_before: 2.0,
            imbalance_after: 1.0,
            imbalance2_before: 1.0,
            imbalance2_after: 1.0,
            cut_before: 10,
            cut_after: 10,
        };
        let cfg = AdaptiveLbConfig::default();
        // vis_secs longer than sim_secs: the trailing vis rank (5.0 s)
        // is the true bottleneck and must not be dropped.
        let long_vis = costs(&[1.0, 1.0], &[0.0, 0.0, 5.0], 1);
        let d = payoff_gate(&plan, &long_vis, 0.0, 1, &cfg);
        // max_now = 5.0, mean = 7/3 → positive saving; a truncating zip
        // would have seen max_now = 1.0 and no benefit at all.
        assert!(d.benefit_per_step > 2.0, "{d:?}");
        // Mirror case: sim_secs longer than vis_secs behaves the same.
        let long_sim = costs(&[0.0, 0.0, 5.0], &[1.0, 1.0], 1);
        let m = payoff_gate(&plan, &long_sim, 0.0, 1, &cfg);
        assert!((d.benefit_per_step - m.benefit_per_step).abs() < 1e-12);
        // Equal-length vectors keep their existing arithmetic.
        let even = costs(&[2.0, 1.0], &[1.0, 0.0], 1);
        let e = payoff_gate(&plan, &even, 0.0, 1, &cfg);
        assert!((e.benefit_per_step - 1.0).abs() < 1e-12, "{e:?}");
    }

    #[test]
    fn gate_rejects_plans_that_move_nothing_or_help_nothing() {
        let mut plan = RebalanceOutcome {
            owner: vec![],
            moved_vertices: 0,
            migration_volume: 0.0,
            imbalance_before: 1.3,
            imbalance_after: 1.3,
            imbalance2_before: 1.0,
            imbalance2_after: 1.0,
            cut_before: 10,
            cut_after: 10,
        };
        let c = costs(&[1.3, 1.0], &[0.0, 0.0], 50);
        let cfg = AdaptiveLbConfig::default();
        assert!(!payoff_gate(&plan, &c, 0.0, 10_000, &cfg).apply);
        // Even with vertices moved, an unimproved imbalance projects no
        // per-step benefit.
        plan.moved_vertices = 5;
        let d = payoff_gate(&plan, &c, 0.0, 10_000, &cfg);
        assert!(!d.apply, "{d:?}");
    }
}

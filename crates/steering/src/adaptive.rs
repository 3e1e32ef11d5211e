//! The SPMD driver for measurement-driven adaptive load balancing.
//!
//! [`hemelb_partition::adaptive`] holds the pure decision logic
//! (hysteresis, weight derivation, cost/benefit gate); this module
//! supplies the measurements and applies the verdict:
//!
//! 1. every decision window, each rank reads its own `lb.*` and
//!    `vis.render` span totals from the observability recorder — the
//!    *measured* per-rank cost, not a site count;
//! 2. the per-rank costs are **all-reduced** so every rank holds the
//!    identical cost vector and therefore reaches the identical
//!    decision — the trigger is collective without extra control
//!    messages;
//! 3. on trigger, the plan from
//!    [`plan_rebalance`] is priced
//!    with an α–β–γ [`CostModel`] (projected migration seconds) and
//!    gated by [`payoff_gate`] against
//!    the projected saving over the remaining steps. The pricing model
//!    is **measured, never preset**: the first window times a small and
//!    a large message round a rank ring
//!    ([`probe_link`]), and
//!    [`calibrate_fit`] fits α, β and γ
//!    to the slowest rank's two probe samples and one compute sample.
//!    The timings ride the window's all-reduce, so every rank fits
//!    identical inputs and holds bit-identical coefficients — before
//!    any window can trigger;
//! 4. an applied plan goes through [`DistSolver::repartition`], which
//!    is bit-transparent — physics after an adaptive rebalance is
//!    bit-identical to never having rebalanced.
//!
//! Every decision is surfaced as `lb.rebalance.*` obs counters, so the
//! phase reports show *why* a rebalance did or did not happen.

use crate::error::SteeringResult;
use hemelb_core::DistSolver;
use hemelb_geometry::SparseGeometry;
use hemelb_parallel::{calibrate_fit, probe_link, CalSample, Communicator, CostModel};
use hemelb_partition::graph::Connectivity;
use hemelb_partition::{
    payoff_gate, plan_rebalance, AdaptiveLb, AdaptiveLbConfig, GateDecision, Observation,
    SiteGraph, WindowCosts,
};

/// Simulation phases whose span totals count as per-rank *load*.
/// `lb.halo-wait` is deliberately excluded: wait time is idleness
/// *caused by* imbalance on other ranks — including it would make the
/// starved ranks look busy and invert the signal. `lb.overlap.compute`
/// is excluded too: it is an umbrella span over the interior
/// `lb.collide` piece and would double-count it.
const SIM_PHASES: [&str; 4] = [
    "lb.collide",
    "lb.collide-frontier",
    "lb.halo-pack",
    "lb.macroscopics",
];

/// Visualisation phase whose span total counts as per-rank vis load.
const VIS_PHASE: &str = "vis.render";

/// What one decision window concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDecision {
    /// The hysteresis observation for this window.
    pub observation: Observation,
    /// The cost/benefit verdict, present only when the window triggered
    /// and a plan could be formed.
    pub gate: Option<GateDecision>,
    /// Vertices the plan would move globally (0 when nothing planned).
    pub planned_moves: usize,
    /// Whether a repartition was applied this window.
    pub applied: bool,
    /// Sites this rank shipped away (0 unless applied).
    pub sites_moved_local: usize,
}

/// Per-rank driver state for the adaptive load balancer. Construct one
/// per run (it snapshots obs counters incrementally) and call
/// [`AdaptiveDriver::end_window`] collectively every
/// `config.window_steps` steps.
pub struct AdaptiveDriver {
    lb: AdaptiveLb,
    graph: SiteGraph,
    /// The model pricing migrations, measured at the first window.
    model: Option<CostModel>,
    prev_sim_secs: f64,
    prev_vis_secs: f64,
    last_imbalance: f64,
}

impl AdaptiveDriver {
    /// Build the driver: the site graph is constructed once from the
    /// geometry (topology never changes mid-run). The pricing model is
    /// measured inside the first [`AdaptiveDriver::end_window`].
    pub fn new(geo: &SparseGeometry, cfg: AdaptiveLbConfig) -> Self {
        AdaptiveDriver {
            lb: AdaptiveLb::new(cfg),
            graph: SiteGraph::from_geometry(geo, Connectivity::Six),
            model: None,
            prev_sim_secs: 0.0,
            prev_vis_secs: 0.0,
            last_imbalance: 1.0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdaptiveLbConfig {
        self.lb.config()
    }

    /// The worst (sim or vis) imbalance measured in the most recent
    /// window, 1.0 before the first window completes.
    pub fn last_imbalance(&self) -> f64 {
        self.last_imbalance
    }

    /// Read this rank's cumulative load-proportional span totals.
    fn phase_totals(&self, comm: &Communicator) -> (f64, f64) {
        comm.with_obs(|o| {
            let sim = SIM_PHASES
                .iter()
                .filter_map(|p| o.phase_stats(p))
                .map(|s| s.total_secs)
                .sum();
            let vis = o.phase_stats(VIS_PHASE).map_or(0.0, |s| s.total_secs);
            (sim, vis)
        })
    }

    /// Close one decision window: gather per-rank costs, run the
    /// hysteresis filter, and — when it triggers — plan, price and
    /// maybe apply a repartition. **Collective**: every rank must call
    /// this at the same point in the step sequence.
    ///
    /// `steps_elapsed` is how many steps this window covered;
    /// `steps_remaining` is the horizon the migration must amortise
    /// over. Planning failures are absorbed (counted under
    /// `lb.rebalance.skipped.error`), never fatal; only communicator
    /// errors propagate.
    pub fn end_window(
        &mut self,
        comm: &Communicator,
        solver: &mut DistSolver,
        steps_elapsed: u64,
        steps_remaining: u64,
    ) -> SteeringResult<WindowDecision> {
        // 1. This rank's cost for the window = delta of cumulative span
        // totals since the previous window boundary.
        let (sim_total, vis_total) = self.phase_totals(comm);
        let sim = (sim_total - self.prev_sim_secs).max(0.0);
        let vis = (vis_total - self.prev_vis_secs).max(0.0);
        self.prev_sim_secs = sim_total;
        self.prev_vis_secs = vis_total;

        let work = solver.local_sites().len() as u64 * steps_elapsed.max(1);

        // The first window also probes the link at two message sizes.
        let probe = match self.model {
            None => Some(probe_link(comm)?),
            Some(_) => None,
        };

        // 2. Share: each rank fills its own slot group, sum-reduce, so
        // every rank ends up with the identical per-rank measurement
        // vector and every later decision — including the model solved
        // from it — is collectively consistent by construction.
        let size = comm.size();
        const SLOTS: usize = 5;
        let mut slots = vec![0.0f64; SLOTS * size];
        let base = SLOTS * comm.rank();
        slots[base] = sim;
        slots[base + 1] = vis;
        slots[base + 2] = work as f64;
        slots[base + 3] = probe.map_or(0.0, |p| p[0].secs);
        slots[base + 4] = probe.map_or(0.0, |p| p[1].secs);
        let reduced = comm.all_reduce_f64_vec(slots, |a, b| a + b)?;
        let reduced = &reduced;
        let column = |k: usize| (0..size).map(move |r| reduced[SLOTS * r + k]);
        let costs = WindowCosts {
            sim_secs: column(0).collect(),
            vis_secs: column(1).collect(),
            steps: steps_elapsed.max(1),
        };

        // 2b. Calibration, once: the slowest rank's probe time at each
        // size (a migration ends when its last message lands) and the
        // window's site updates against its compute seconds.
        if let Some([small, large]) = probe {
            let slowest = |s: CalSample, k| CalSample {
                secs: column(k).fold(0.0, f64::max),
                ..s
            };
            let compute = CalSample {
                msgs: 0,
                bytes: 0,
                work: column(2).sum::<f64>() as u64,
                secs: column(0).sum(),
            };
            let samples = [slowest(small, 3), slowest(large, 4), compute];
            let fitted = calibrate_fit(&samples).expect("probe samples always carry bytes");
            self.model = Some(fitted.model);
        }

        // 3. Hysteresis.
        let observation = self.lb.observe(&costs);
        self.last_imbalance = observation.sim_imbalance.max(observation.vis_imbalance);
        comm.with_obs(|o| {
            if observation.hot {
                o.count("lb.rebalance.windows_hot", 1);
            }
        });
        let mut decision = WindowDecision {
            observation,
            gate: None,
            planned_moves: 0,
            applied: false,
            sites_moved_local: 0,
        };
        if !observation.triggered {
            return Ok(decision);
        }
        comm.with_obs(|o| o.count("lb.rebalance.triggered", 1));

        // 4. Plan from measured costs. A malformed plan input must not
        // take the run down — that is the whole point of the typed
        // partition errors.
        let plan = match plan_rebalance(&self.graph, solver.owner(), size, self.lb.config(), &costs)
        {
            Ok(plan) => plan,
            Err(_) => {
                comm.with_obs(|o| o.count("lb.rebalance.skipped.error", 1));
                self.lb.reset();
                return Ok(decision);
            }
        };
        decision.planned_moves = plan.moved_vertices;

        // 5. Price the migration: every moving site ships its q
        // distributions plus its id, after a counts exchange (one small
        // message per rank pair).
        let q = solver.model().q;
        let mig_bytes = plan.moved_vertices as u64 * (4 + 8 * q as u64);
        let mig_msgs = 2 * (size as u64) * (size as u64);
        let model = self.model.expect("measured at the first window");
        let migration_secs = model.time(mig_msgs, mig_bytes, 0);
        let gate = payoff_gate(
            &plan,
            &costs,
            migration_secs,
            steps_remaining,
            self.lb.config(),
        );
        decision.gate = Some(gate);
        if !gate.apply {
            comm.with_obs(|o| o.count("lb.rebalance.skipped.gate", 1));
            self.lb.reset();
            return Ok(decision);
        }

        // 6. Apply. `repartition` is bit-transparent, so the physics is
        // unchanged; it also bumps `lb.rebalance.count` /
        // `lb.rebalance.sites_moved` and the CommStats rebalance column.
        decision.sites_moved_local = solver.repartition(plan.owner)?;
        decision.applied = true;
        comm.with_obs(|o| o.count("lb.rebalance.applied", 1));
        // The measurements that justified this trigger describe the old
        // decomposition; start accumulating evidence afresh.
        self.lb.reset();
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_core::{FieldSnapshot, Solver, SolverConfig};
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;
    use std::sync::Arc;

    const RANKS: usize = 3;
    const WINDOW: u64 = 10;

    /// What one rank of [`vis_hot_run`] saw.
    struct HotRun {
        /// The decision of every window, with the one rank-local field
        /// zeroed so ranks can be compared.
        decisions: Vec<WindowDecision>,
        sites_before: usize,
        sites_after: usize,
        owner_changed: bool,
        gate_skips: u64,
        fields: Option<FieldSnapshot>,
    }

    /// Three slab ranks step a tube while rank 0 "renders": every window
    /// books 100 s of `vis.render` on rank 0 alone and 1 s of collide on
    /// every rank. The booked seconds swamp the measured ones (a
    /// millisecond or so a window), so the cost vector, and with it the
    /// plan and the verdict, are the same on every run. The window
    /// that triggers is closed with `horizon` steps left to amortise
    /// over; afterwards the run steps one more window.
    fn vis_hot_run(horizon: u64) -> (Vec<HotRun>, FieldSnapshot) {
        let geo = Arc::new(VesselBuilder::straight_tube(24.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let lb_cfg = AdaptiveLbConfig {
            window_steps: WINDOW,
            ..Default::default()
        };
        let windows = u64::from(lb_cfg.hysteresis_windows);
        let (geo2, cfg2) = (geo.clone(), cfg.clone());
        let runs = run_spmd(RANKS, move |comm| {
            let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
                .map(|s| (geo2.position(s)[0] as usize * RANKS / geo2.shape()[0]).min(RANKS - 1))
                .collect();
            let mut ds = DistSolver::new(geo2.clone(), owner.clone(), cfg2.clone(), comm).unwrap();
            let mut driver = AdaptiveDriver::new(&geo2, lb_cfg);
            let sites_before = ds.local_sites().len();
            let mut decisions = Vec::new();
            for _ in 0..windows {
                ds.step_n(WINDOW).unwrap();
                comm.with_obs(|o| {
                    o.record_secs("lb.collide", 1.0);
                    if comm.rank() == 0 {
                        o.record_secs(VIS_PHASE, 100.0);
                    }
                });
                let mut d = driver.end_window(comm, &mut ds, WINDOW, horizon).unwrap();
                d.sites_moved_local = 0;
                decisions.push(d);
            }
            let sites_after = ds.local_sites().len();
            let owner_changed = ds.owner() != owner;
            ds.step_n(WINDOW).unwrap();
            HotRun {
                decisions,
                sites_before,
                sites_after,
                owner_changed,
                gate_skips: comm.with_obs(|o| o.counter("lb.rebalance.skipped.gate")),
                fields: ds.gather_snapshot().unwrap(),
            }
        });
        let mut serial = Solver::new(geo, cfg);
        serial.step_n((windows + 1) * WINDOW);
        (runs, serial.snapshot())
    }

    fn assert_bitwise(got: &FieldSnapshot, want: &FieldSnapshot) {
        let bits = |f: &FieldSnapshot| -> Vec<u64> {
            let u = f.u.iter().flatten();
            (f.rho.iter().chain(u).chain(&f.shear))
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(got.step, want.step);
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn measured_vis_load_moves_sites_off_the_hot_rank_bit_transparently() {
        let (runs, serial) = vis_hot_run(100_000);
        for r in &runs {
            assert_eq!(r.decisions, runs[0].decisions, "the decision is collective");
        }
        let (armed, fired) = (&runs[0].decisions[0], &runs[0].decisions[1]);
        assert!(armed.observation.hot && !armed.observation.triggered && !armed.applied);
        assert!(armed.observation.vis_imbalance > 2.9 && armed.observation.sim_imbalance < 1.1);
        assert!(fired.observation.triggered && fired.planned_moves > 0);
        assert!(fired.gate.expect("priced").apply && fired.applied);
        assert!(
            runs[0].sites_after < runs[0].sites_before,
            "rank 0 kept {} of {} sites",
            runs[0].sites_after,
            runs[0].sites_before
        );
        assert_eq!(
            runs.iter().map(|r| r.sites_after).sum::<usize>(),
            serial.len()
        );
        assert!(runs.iter().all(|r| r.owner_changed && r.gate_skips == 0));
        assert_bitwise(runs[0].fields.as_ref().expect("master gathers"), &serial);
    }

    #[test]
    fn gate_refuses_the_same_plan_when_no_steps_remain_to_amortise_it() {
        let (runs, serial) = vis_hot_run(0);
        for r in &runs {
            assert_eq!(r.decisions, runs[0].decisions, "the decision is collective");
            assert_eq!(r.gate_skips, 1);
            assert!(!r.owner_changed);
            assert_eq!(r.sites_after, r.sites_before);
        }
        let refused = &runs[0].decisions[1];
        assert!(refused.observation.triggered && refused.planned_moves > 0);
        assert!(!refused.gate.expect("priced").apply && !refused.applied);
        assert_bitwise(runs[0].fields.as_ref().expect("master gathers"), &serial);
    }

    #[test]
    fn driver_self_calibrates_from_window_measurements() {
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
        let geo2 = geo.clone();
        let results = run_spmd(2, move |comm| {
            let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
                .map(|s| {
                    (geo2.position(s)[0] as usize * comm.size() / geo2.shape()[0])
                        .min(comm.size() - 1)
                })
                .collect();
            let cfg = SolverConfig::pressure_driven(1.005, 0.995);
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg, comm).unwrap();
            let mut driver = AdaptiveDriver::new(&geo2, AdaptiveLbConfig::default());
            assert!(driver.model.is_none());
            // One window of real stepping is all it takes: the probe
            // and the window's compute time give all three terms.
            ds.step_n(10).unwrap();
            driver.end_window(comm, &mut ds, 10, 100).unwrap();
            let first = driver.model.expect("calibrated by the first window");
            // Later windows price with the same coefficients.
            ds.step_n(10).unwrap();
            driver.end_window(comm, &mut ds, 10, 90).unwrap();
            assert_eq!(driver.model, Some(first));
            first
        });
        for model in &results {
            assert!(model.gamma.is_finite() && model.gamma > 0.0, "{model:?}");
            assert!(model.beta.is_finite() && model.beta > 0.0, "{model:?}");
            assert!(model.alpha.is_finite() && model.alpha >= 0.0, "{model:?}");
        }
        // Collective consistency: the model is a pure function of the
        // all-reduced inputs, so both ranks hold bit-identical ones.
        let (m0, m1) = (&results[0], &results[1]);
        assert_eq!(m0.alpha.to_bits(), m1.alpha.to_bits());
        assert_eq!(m0.beta.to_bits(), m1.beta.to_bits());
        assert_eq!(m0.gamma.to_bits(), m1.gamma.to_bits());
    }
}

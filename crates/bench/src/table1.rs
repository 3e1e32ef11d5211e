//! Experiment E1 — the paper's **Table I**, measured.
//!
//! Paper (qualitative):
//!
//! | | volume rendering | line integral | particle tracing | LIC |
//! |---|---|---|---|---|
//! | communication cost | low | high | high | medium |
//! | load balance | can be optimised | — | — | good |
//! | ease of parallelisation | easy | hard | hard | moderate |
//!
//! Here every cell becomes a number: simulation-data bytes & dependency
//! rounds (communication cost), max/mean work (load balance), and
//! mid-frame rounds (ease of parallelisation), all measured on the same
//! aneurysm flow and decomposition.

use crate::workloads::{self, Size};
use hemelb_insitu::report::{measure_techniques, TechniqueInputs, TechniqueReport};
use std::fmt;
use std::sync::Arc;

/// Parameters of the Table I run.
#[derive(Debug, Clone, Copy)]
pub struct Table1Params {
    /// Workload size.
    pub size: Size,
    /// Ranks.
    pub ranks: usize,
    /// Solver steps to develop the flow.
    pub flow_steps: u64,
    /// Streamline/particle seeds.
    pub seeds: usize,
    /// In situ particle steps.
    pub particle_steps: usize,
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params {
            size: Size::Small,
            ranks: 8,
            flow_steps: 300,
            seeds: 64,
            particle_steps: 800,
        }
    }
}

/// The measured table.
pub struct Table1Result {
    /// Parameters used.
    pub params: Table1Params,
    /// One report per technique.
    pub reports: Vec<TechniqueReport>,
    /// Cost model calibrated from a quick measurement probe (γ in
    /// site-updates/s), shown alongside the two presets in the
    /// data-movement shares.
    pub calibrated: hemelb_parallel::CostModel,
    /// Which of α / β / γ in `calibrated` are the CrayXe6 preset's
    /// because the probe had no signal for them.
    pub from_preset: Vec<&'static str>,
}

/// Run E1.
pub fn run(params: Table1Params) -> Table1Result {
    // Quick calibration probe: 1- and 2-rank tiny worlds are enough to
    // price data movement with measured coefficients instead of only
    // the presets (machine coefficients do not depend on the workload
    // size, so the probe stays cheap regardless of `params.size`).
    let (calibrated, from_preset) =
        crate::projection::effective_model(&crate::projection::calibrate(Size::Tiny, 3, 2));
    let geo = workloads::aneurysm(params.size);
    let snap = workloads::developed_flow(&geo, params.flow_steps);
    let owner = Arc::new(workloads::slab_owner(&geo, params.ranks));
    let seeds = Arc::new(workloads::inlet_seeds(&geo, params.seeds));
    let inputs = TechniqueInputs {
        lic_plane_z: workloads::find_axis_z(&geo),
        trace: hemelb_insitu::lines::TraceConfig {
            h: 1.0,
            max_steps: 1500,
            min_speed: 1e-8,
        },
        geo,
        snap,
        owner,
        ranks: params.ranks,
        image: (128, 96),
        seeds,
        particle_steps: params.particle_steps,
    };
    Table1Result {
        params,
        reports: measure_techniques(&inputs),
        calibrated,
        from_preset,
    }
}

impl Table1Result {
    /// Look a technique up by substring.
    pub fn by_name(&self, name: &str) -> &TechniqueReport {
        self.reports
            .iter()
            .find(|r| r.technique.contains(name))
            .expect("technique present")
    }

    /// Check the paper's qualitative orderings; returns failures.
    pub fn check_orderings(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let volume = self.by_name("volume");
        let lines = self.by_name("line");
        let particles = self.by_name("particle");
        let lic = self.by_name("LIC");
        if volume.data_bytes != 0 {
            problems.push(format!(
                "volume rendering moved {} data bytes (expected 0)",
                volume.data_bytes
            ));
        }
        if lic.data_bytes == 0 {
            problems.push("LIC moved no halo data".into());
        }
        if lines.rounds <= lic.rounds {
            problems.push(format!(
                "line integrals rounds {} not > LIC rounds {}",
                lines.rounds, lic.rounds
            ));
        }
        if particles.rounds <= lic.rounds {
            problems.push("particle rounds not > LIC rounds".into());
        }
        if lic.work_imbalance >= lines.work_imbalance {
            problems.push(format!(
                "LIC imbalance {} not < line imbalance {}",
                lic.work_imbalance, lines.work_imbalance
            ));
        }
        problems
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I (measured) — aneurysm, {} ranks, slab decomposition",
            self.params.ranks
        )?;
        writeln!(
            f,
            "{:<18} {:>12} {:>12} {:>8} {:>10} {:>10}",
            "technique", "data moved", "composite", "rounds", "imbalance", "paper says"
        )?;
        let paper = ["low", "high", "high", "medium"];
        for (r, expect) in self.reports.iter().zip(paper) {
            writeln!(
                f,
                "{:<18} {:>12} {:>12} {:>8} {:>10.3} {:>10}",
                r.technique,
                workloads::fmt_bytes(r.data_bytes),
                workloads::fmt_bytes(r.composite_bytes),
                r.rounds,
                r.work_imbalance,
                expect,
            )?;
        }
        let problems = self.check_orderings();
        if problems.is_empty() {
            writeln!(f, "orderings: all of the paper's qualitative cells hold")?;
        } else {
            for p in &problems {
                writeln!(f, "ordering VIOLATION: {p}")?;
            }
        }
        // The exascale premise: project each frame onto the two machine
        // presets *and* the model calibrated on this machine, and show
        // the data-movement share growing.
        use hemelb_parallel::{CostModel, MachineModel};
        let xe6 = CostModel::for_machine(MachineModel::CrayXe6);
        let exa = CostModel::for_machine(MachineModel::ExascaleProjection);
        writeln!(
            f,
            "{:<18} {:>22} {:>22} {:>22}",
            "data-movement share", "Cray-XE6 model", "exascale model", "calibrated (this box)"
        )?;
        for r in &self.reports {
            let a = r.projected_cost(&xe6).data_movement_fraction();
            let b = r.projected_cost(&exa).data_movement_fraction();
            let c = r.projected_cost(&self.calibrated).data_movement_fraction();
            writeln!(
                f,
                "{:<18} {:>21.1}% {:>21.1}% {:>21.1}%",
                r.technique,
                a * 100.0,
                b * 100.0,
                c * 100.0
            )?;
        }
        f.write_str(&crate::projection::preset_note(&self.from_preset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_run_reproduces_paper_orderings() {
        let result = run(Table1Params {
            size: Size::Tiny,
            ranks: 4,
            flow_steps: 120,
            seeds: 16,
            particle_steps: 150,
        });
        let problems = result.check_orderings();
        assert!(problems.is_empty(), "{problems:?}");
        // The calibrated model is finite and priced the shares.
        assert!(result.calibrated.gamma.is_finite() && result.calibrated.gamma > 0.0);
        assert!(result.calibrated.beta.is_finite() && result.calibrated.beta > 0.0);
        // And the table prints, calibrated column included.
        let text = format!("{result}");
        assert!(text.contains("volume rendering"));
        assert!(text.contains("LIC"));
        assert!(text.contains("calibrated (this box)"));
    }
}

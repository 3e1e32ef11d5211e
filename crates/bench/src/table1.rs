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

use crate::techniques::{self, Scene};
use crate::workloads::{self, Size};
use hemelb_geometry::Vec3;
use hemelb_insitu::lines::TraceConfig;
use hemelb_parallel::{CostModel, MachineModel, ProjectedCost};
use std::fmt;

pub use crate::techniques::TechniqueRow;

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
    /// One row per technique, in Table I column order.
    pub reports: Vec<TechniqueRow>,
}

/// Run E1.
pub fn run(params: Table1Params) -> Table1Result {
    let scene = Scene::aneurysm(params.size, params.flow_steps, params.ranks);
    let owner = workloads::slab_owner(&scene.geo, params.ranks);
    let seeds = workloads::inlet_seeds(&scene.geo, params.seeds);
    let cam = scene.camera(Vec3::new(0.2, -1.0, 0.3), 128, 96);
    let trace = TraceConfig {
        h: 1.0,
        max_steps: 1500,
        min_speed: 1e-8,
    };
    let reports = vec![
        techniques::volume(&scene, &owner, &cam, 0.5).1,
        techniques::streamlines(&scene, &owner, &seeds, &trace).1,
        techniques::particles(&scene, &owner, &seeds, params.particle_steps),
        techniques::lic(&scene, workloads::find_axis_z(&scene.geo)).1,
    ];
    Table1Result { params, reports }
}

/// Project a technique's frame onto a machine: α-term from data
/// messages plus one per round of synchronisation, β-term from all
/// moved bytes, γ-term from the work estimate.
pub(crate) fn projected(r: &TechniqueRow, model: &CostModel) -> ProjectedCost {
    model.critical_path(
        r.data_msgs + r.rounds * r.work_per_rank.len() as u64,
        r.data_bytes + r.composite_bytes,
        r.total_work() * r.flops_per_work,
    )
}

impl Table1Result {
    /// Check the paper's qualitative orderings; returns failures.
    pub fn check_orderings(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let [volume, lines, particles, lic] = self.reports.as_slice() else {
            unreachable!("Table I has four columns")
        };
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
        if lic.work_imbalance() >= lines.work_imbalance() {
            problems.push(format!(
                "LIC imbalance {} not < line imbalance {}",
                lic.work_imbalance(),
                lines.work_imbalance()
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
                r.work_imbalance(),
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
        // presets and show the data-movement share growing. A model
        // fitted on this machine is E20's (`reproduce projection`).
        let xe6 = CostModel::for_machine(MachineModel::CrayXe6);
        let exa = CostModel::for_machine(MachineModel::ExascaleProjection);
        writeln!(
            f,
            "{:<18} {:>22} {:>22}",
            "data-movement share", "Cray-XE6 model", "exascale model"
        )?;
        for r in &self.reports {
            let a = projected(r, &xe6).data_movement_fraction();
            let b = projected(r, &exa).data_movement_fraction();
            writeln!(
                f,
                "{:<18} {:>21.1}% {:>21.1}%",
                r.technique,
                a * 100.0,
                b * 100.0
            )?;
        }
        Ok(())
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
        // And the table prints, both preset columns included.
        let text = format!("{result}");
        assert!(text.contains("volume rendering"));
        assert!(text.contains("LIC"));
        assert!(text.contains("exascale model"));
    }
}

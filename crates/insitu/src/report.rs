//! The Table I measurement harness.
//!
//! The paper compares volume rendering, line integrals, particle
//! tracing and LIC along three qualitative axes (communication cost,
//! load balance, ease of parallelisation). [`measure_techniques`] runs
//! all four over the instrumented substrate on the same geometry, field
//! and decomposition, and returns one [`TechniqueReport`] per technique.
//!
//! ## How the qualitative cells become numbers
//!
//! * **Communication cost** — the traffic that moves *simulation data*
//!   during the computation ([`TagClass::Visualisation`]) is reported
//!   separately from image *compositing* (result reduction,
//!   [`TagClass::Compositing`]), together with the number of dependency
//!   `rounds` on the critical path. Volume rendering moves **zero** data
//!   bytes ("low"); LIC moves a one-time bounded halo ("medium"); line
//!   integrals and particle tracing pay a round per hand-off generation
//!   or per simulation step ("high").
//! * **Load balance** — `max/mean` of per-rank work units.
//! * **Ease of parallelisation** — the round structure again: an
//!   embarrassingly parallel technique has zero mid-frame rounds.
//!
//! The α–β–γ cost model then projects each report onto machine presets
//! ([`TechniqueReport::projected_cost`]) so the experiment can show the
//! data-movement share growing towards exascale — the paper's premise.

use crate::camera::Camera;
use crate::compositing::binary_swap;
use crate::field::{SampledField, Scalar};
use crate::lic::{lic_distributed, LicConfig, VelocitySlice};
use crate::lines::{trace_distributed, TraceConfig};
use crate::particles::ParticleEnsemble;
use crate::transfer::TransferFunction;
use crate::volume::{render_brick, Brick};
use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_parallel::{run_spmd_with_stats, CostModel, ProjectedCost, StatsSummary, TagClass};
use std::sync::Arc;

/// Measured characteristics of one technique on one frame/run.
#[derive(Debug, Clone)]
pub struct TechniqueReport {
    /// Technique name as in the paper's Table I.
    pub technique: String,
    /// Ranks used.
    pub ranks: usize,
    /// Simulation-data bytes moved during computation (vis class).
    pub data_bytes: u64,
    /// Simulation-data messages during computation.
    pub data_msgs: u64,
    /// Image-compositing (result reduction) bytes.
    pub composite_bytes: u64,
    /// Dependency rounds on the critical path (hand-off generations,
    /// per-step migrations, halo phases).
    pub rounds: u64,
    /// Collective synchronisation points entered (summed over ranks).
    pub sync_points: u64,
    /// `max work / mean work` over ranks (1.0 = perfect balance).
    pub work_imbalance: f64,
    /// Per-rank work units (technique-specific: samples, steps, pixels).
    pub work_per_rank: Vec<u64>,
    /// Estimated floating-point operations per work unit (for the cost
    /// model).
    pub flops_per_work: u64,
}

impl TechniqueReport {
    fn from_run(
        technique: &str,
        summary: &StatsSummary,
        work_per_rank: Vec<u64>,
        rounds: u64,
        flops_per_work: u64,
    ) -> TechniqueReport {
        let max = *work_per_rank.iter().max().unwrap_or(&0) as f64;
        let mean = work_per_rank.iter().sum::<u64>() as f64 / work_per_rank.len().max(1) as f64;
        TechniqueReport {
            technique: technique.to_string(),
            ranks: work_per_rank.len(),
            data_bytes: summary.total.bytes(TagClass::Visualisation),
            data_msgs: summary.total.msgs(TagClass::Visualisation),
            composite_bytes: summary.total.bytes(TagClass::Compositing),
            rounds,
            sync_points: summary.total.sync_points,
            work_imbalance: if mean > 0.0 { max / mean } else { 1.0 },
            work_per_rank,
            flops_per_work,
        }
    }

    /// Total work units across ranks.
    fn total_work(&self) -> u64 {
        self.work_per_rank.iter().sum()
    }

    /// Project this technique's frame cost onto a machine: α-term from
    /// data messages plus one per round of synchronisation, β-term from
    /// all moved bytes, γ-term from the work estimate.
    pub fn projected_cost(&self, model: &CostModel) -> ProjectedCost {
        model.critical_path(
            self.data_msgs + self.rounds * self.ranks as u64,
            self.data_bytes + self.composite_bytes,
            self.total_work() * self.flops_per_work,
        )
    }
}

/// Inputs shared by all four techniques.
#[derive(Clone)]
pub struct TechniqueInputs {
    /// The sparse lattice.
    pub geo: Arc<SparseGeometry>,
    /// The field frame to visualise.
    pub snap: Arc<FieldSnapshot>,
    /// Site → rank decomposition.
    pub owner: Arc<Vec<usize>>,
    /// Ranks.
    pub ranks: usize,
    /// Image size for the volume renderer.
    pub image: (u32, u32),
    /// Seed points for lines/particles.
    pub seeds: Arc<Vec<Vec3>>,
    /// In situ steps for the particle ensemble.
    pub particle_steps: usize,
    /// Integration parameters for the line integrals.
    pub trace: TraceConfig,
    /// z of the LIC slice plane (lattice units).
    pub lic_plane_z: f64,
}

impl TechniqueInputs {
    fn camera(&self) -> Camera {
        let s = self.geo.shape();
        Camera::framing(
            Vec3::ZERO,
            Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
            Vec3::new(0.2, -1.0, 0.3),
            self.image.0,
            self.image.1,
        )
    }
}

/// Run all four techniques; returns reports in Table I column order.
pub fn measure_techniques(inputs: &TechniqueInputs) -> Vec<TechniqueReport> {
    vec![
        measure_volume(inputs),
        measure_lines(inputs),
        measure_particles(inputs),
        measure_lic(inputs),
    ]
}

/// Volume rendering: local ray casting + binary-swap compositing.
/// Zero data rounds: nothing is exchanged until the image reduction.
fn measure_volume(inputs: &TechniqueInputs) -> TechniqueReport {
    let inp = inputs.clone();
    let cam = inputs.camera();
    let out = run_spmd_with_stats(inputs.ranks, move |comm| {
        let mine: Vec<u32> = (0..inp.geo.fluid_count() as u32)
            .filter(|&s| inp.owner[s as usize] == comm.rank())
            .collect();
        let field = SampledField::new(&inp.geo, &inp.snap);
        let (lo, hi) = field.scalar_range(Scalar::Speed);
        let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));
        let step = 0.5;
        let (partial, samples) = match Brick::from_sites(&inp.geo, &inp.snap, Scalar::Speed, &mine)
        {
            Some(brick) => {
                let p = render_brick(&brick, &cam, &tf, step);
                let samples = estimate_samples(&brick, &cam, step);
                (p, samples)
            }
            None => (crate::image::PartialImage::new(cam.width, cam.height), 0),
        };
        binary_swap(comm, partial).unwrap();
        samples
    });
    // ~60 flops per trilinear sample + classification + blend.
    TechniqueReport::from_run("volume rendering", &out.summary, out.results, 0, 60)
}

fn estimate_samples(brick: &Brick, cam: &Camera, step: f64) -> u64 {
    let (lo, hi) = brick.bounds();
    let gen = cam.ray_generator();
    let mut total = 0.0f64;
    for py in 0..cam.height {
        for px in 0..cam.width {
            let (o, d) = gen.ray(px, py);
            if let Some((t0, t1)) = crate::camera::ray_box(o, d, lo, hi) {
                total += ((t1 - t0.max(0.0)) / step).max(0.0);
            }
        }
    }
    total as u64
}

/// Line integrals: distributed streamline tracing with hand-off.
fn measure_lines(inputs: &TechniqueInputs) -> TechniqueReport {
    let inp = inputs.clone();
    let out = run_spmd_with_stats(inputs.ranks, move |comm| {
        let field = SampledField::new(&inp.geo, &inp.snap);
        let (_, stats) =
            trace_distributed(comm, &inp.geo, &field, &inp.owner, &inp.seeds, &inp.trace).unwrap();
        (stats.steps_computed, stats.rounds)
    });
    let rounds = out.results.iter().map(|r| r.1).max().unwrap_or(0);
    let work: Vec<u64> = out.results.iter().map(|r| r.0).collect();
    // 4 field evaluations per RK4 step, ~100 flops each.
    TechniqueReport::from_run("line integrals", &out.summary, work, rounds, 400)
}

/// Particle tracing: per-step advection + migration.
fn measure_particles(inputs: &TechniqueInputs) -> TechniqueReport {
    let inp = inputs.clone();
    let out = run_spmd_with_stats(inputs.ranks, move |comm| {
        let field = SampledField::new(&inp.geo, &inp.snap);
        let mut ens = ParticleEnsemble::new(comm, &inp.geo, &inp.owner, &inp.seeds, 0.5);
        for _ in 0..inp.particle_steps {
            ens.step(&inp.geo, &field).unwrap();
        }
        (ens.stats.updates, ens.stats.rounds)
    });
    let rounds = out.results.iter().map(|r| r.1).max().unwrap_or(0);
    let work: Vec<u64> = out.results.iter().map(|r| r.0).collect();
    TechniqueReport::from_run("particle tracing", &out.summary, work, rounds, 400)
}

/// LIC on the mid-plane slice: one halo phase, then local convolution.
fn measure_lic(inputs: &TechniqueInputs) -> TechniqueReport {
    let inp = inputs.clone();
    let out = run_spmd_with_stats(inputs.ranks, move |comm| {
        let field = SampledField::new(&inp.geo, &inp.snap);
        let slice = VelocitySlice::extract(&field, inp.lic_plane_z);
        let (_, stats) = lic_distributed(comm, &slice, &LicConfig::default()).unwrap();
        stats.pixels
    });
    // 2·half_kernel bilinear samples + noise per pixel.
    TechniqueReport::from_run("LIC", &out.summary, out.results, 1, 600)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::MachineModel;

    fn inputs(p: usize) -> TechniqueInputs {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        let n = geo.fluid_count();
        // A developed-flow-like field: axial velocity, faster mid-tube.
        let u: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let pos = geo.position(i as u32);
                let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
                let r = (pos[1] as f64 - cy).abs() / 6.0;
                [(0.08 * (1.0 - r * r)).max(0.01), 0.0, 0.0]
            })
            .collect();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u,
            shear: vec![0.1; n],
        };
        // Slab decomposition along x (a realistic compute partition).
        let owner: Vec<usize> = (0..n as u32)
            .map(|s| (geo.position(s)[0] as usize * p / geo.shape()[0]).min(p - 1))
            .collect();
        // Seeds clustered near the inlet (how users actually seed).
        let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
        let cz = (geo.shape()[2] as f64 - 1.0) / 2.0;
        let seeds: Vec<Vec3> = (0..16)
            .map(|i| {
                Vec3::new(
                    2.0,
                    cy + ((i % 4) as f64 - 1.5),
                    cz + ((i / 4) as f64 - 1.5),
                )
            })
            .collect();
        TechniqueInputs {
            geo: Arc::new(geo),
            snap: Arc::new(snap),
            owner: Arc::new(owner),
            ranks: p,
            image: (48, 36),
            seeds: Arc::new(seeds),
            particle_steps: 200,
            // Bounded lines (a typical interactive probe): they do not
            // span the whole domain, so clustered seeds stay clustered.
            trace: TraceConfig {
                h: 0.5,
                max_steps: 250,
                min_speed: 1e-8,
            },
            // Slice through the parent-vessel axis.
            lic_plane_z: 6.0 + 1.0,
        }
    }

    #[test]
    fn table1_orderings_hold() {
        let reports = measure_techniques(&inputs(4));
        let by_name = |n: &str| {
            reports
                .iter()
                .find(|r| r.technique.contains(n))
                .unwrap()
                .clone()
        };
        let volume = by_name("volume");
        let lines = by_name("line");
        let particles = by_name("particle");
        let lic = by_name("LIC");

        // Communication cost (Table I: low / high / high / medium):
        // volume moves NO simulation data during computation.
        assert_eq!(volume.data_bytes, 0, "volume rendering needs no exchange");
        assert_eq!(volume.rounds, 0);
        // LIC moves a bounded one-time halo (one round).
        assert!(lic.data_bytes > 0);
        assert_eq!(lic.rounds, 1);
        // Line integrals / particles pay repeated rounds on the critical
        // path, and move data every round.
        assert!(
            lines.rounds > lic.rounds,
            "hand-off generations: {}",
            lines.rounds
        );
        assert!(particles.rounds as usize >= 200, "one round per step");
        assert!(lines.data_bytes > 0);
        assert!(particles.data_bytes > 0);

        // Load balance (Table I: LIC good; tracing poor with clustered
        // seeds).
        assert!(
            lic.work_imbalance < lines.work_imbalance,
            "lic {} !< lines {}",
            lic.work_imbalance,
            lines.work_imbalance
        );

        // Ease of parallelisation: the embarrassingly parallel technique
        // has no mid-frame dependency rounds at all.
        assert!(volume.rounds < lic.rounds);
        assert!(lic.rounds < lines.rounds);
    }

    #[test]
    fn projected_cost_shows_exascale_data_movement_pressure() {
        let reports = measure_techniques(&inputs(2));
        for r in &reports {
            let xe6 = r.projected_cost(&CostModel::for_machine(MachineModel::CrayXe6));
            let exa = r.projected_cost(&CostModel::for_machine(MachineModel::ExascaleProjection));
            if r.data_bytes + r.composite_bytes > 0 {
                assert!(
                    exa.data_movement_fraction() >= xe6.data_movement_fraction() - 1e-12,
                    "{}: exascale must not reduce the data-movement share",
                    r.technique
                );
            }
            assert!(xe6.total_s() > 0.0);
        }
    }

    #[test]
    fn reports_have_positive_work() {
        let reports = measure_techniques(&inputs(2));
        for r in &reports {
            assert!(r.total_work() > 0, "{} did no work", r.technique);
            assert_eq!(r.ranks, 2);
        }
    }
}

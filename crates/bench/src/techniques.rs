//! The four in situ techniques of the paper's Table I, one run function
//! each: volume rendering with binary-swap compositing, distributed
//! streamlines, the particle ensemble and distributed LIC.
//!
//! Every function runs one SPMD world over the instrumented substrate
//! and returns the technique's artefact (where it has one) with its
//! [`TechniqueRow`]. E1 ([`crate::table1`]) keeps the rows and the Fig. 4
//! panels ([`crate::fig4`]) keep the artefacts, so each technique runs
//! in exactly one place.
//!
//! The row turns Table I's qualitative cells into numbers. Traffic that
//! moves *simulation data* during the computation
//! ([`TagClass::Visualisation`]) is kept apart from image compositing
//! ([`TagClass::Compositing`]), next to the dependency `rounds` on the
//! critical path (communication cost, and ease of parallelisation: an
//! embarrassingly parallel technique has none); `max/mean` of the
//! per-rank work units is the load balance.

use crate::workloads::{self, Size};
use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_insitu::camera::Camera;
use hemelb_insitu::compositing::binary_swap;
use hemelb_insitu::field::{SampledField, Scalar};
use hemelb_insitu::image::{Image, PartialImage};
use hemelb_insitu::lic::{lic_distributed, LicConfig, VelocitySlice};
use hemelb_insitu::lines::{stitch_segments, trace_distributed, TraceConfig};
use hemelb_insitu::particles::ParticleEnsemble;
use hemelb_insitu::transfer::TransferFunction;
use hemelb_insitu::volume::{render_brick_opts, Brick, RenderOptions, RenderStats};
use hemelb_parallel::{run_spmd_with_stats, Communicator, TagClass, Wire};
use std::sync::Arc;

/// Measured characteristics of one technique on one frame or run: a row
/// of Table I.
#[derive(Debug, Clone)]
pub struct TechniqueRow {
    /// Technique name as in the paper's Table I.
    pub technique: &'static str,
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
    /// Per-rank work units (technique-specific: samples, steps, pixels).
    pub work_per_rank: Vec<u64>,
    /// Estimated floating-point operations per work unit (for the cost
    /// model).
    pub flops_per_work: u64,
}

impl TechniqueRow {
    /// Total work units across ranks.
    pub(crate) fn total_work(&self) -> u64 {
        self.work_per_rank.iter().sum()
    }

    /// `max work / mean work` over ranks (1.0 = perfect balance).
    pub(crate) fn work_imbalance(&self) -> f64 {
        let max = *self.work_per_rank.iter().max().unwrap_or(&0) as f64;
        let mean = self.total_work() as f64 / self.work_per_rank.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// The field frame every technique visualises, on a world of `ranks`.
pub(crate) struct Scene {
    pub(crate) geo: Arc<SparseGeometry>,
    pub(crate) snap: Arc<FieldSnapshot>,
    pub(crate) ranks: usize,
}

impl Scene {
    /// The aneurysm at `size` after `flow_steps` solver steps.
    pub(crate) fn aneurysm(size: Size, flow_steps: u64, ranks: usize) -> Scene {
        let geo = workloads::aneurysm(size);
        let snap = workloads::developed_flow(&geo, flow_steps);
        Scene { geo, snap, ranks }
    }

    /// A camera framing the whole lattice, looking along `-view_dir`.
    pub(crate) fn camera(&self, view_dir: Vec3, width: u32, height: u32) -> Camera {
        let s = self.geo.shape();
        let hi = Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64);
        Camera::framing(Vec3::ZERO, hi, view_dir, width, height)
    }
}

/// Run `rank` on every rank of one world of `scene.ranks`. Each rank
/// returns an artefact (kept from rank 0), its work units and the
/// dependency rounds it went through.
fn measure<A: Send>(
    scene: &Scene,
    technique: &'static str,
    flops_per_work: u64,
    rank: impl Fn(&Communicator) -> (Option<A>, u64, u64) + Send + Sync,
) -> (A, TechniqueRow) {
    let out = run_spmd_with_stats(scene.ranks, rank);
    let total = &out.summary.total;
    let row = TechniqueRow {
        technique,
        data_bytes: total.bytes(TagClass::Visualisation),
        data_msgs: total.msgs(TagClass::Visualisation),
        composite_bytes: total.bytes(TagClass::Compositing),
        rounds: out.results.iter().map(|r| r.2).max().unwrap_or(0),
        sync_points: total.sync_points,
        work_per_rank: out.results.iter().map(|r| r.1).collect(),
        flops_per_work,
    };
    let artefact = out.results.into_iter().next().and_then(|r| r.0);
    (artefact.expect("rank 0 holds the artefact"), row)
}

/// Volume rendering: each rank ray-casts the brick of the sites it owns
/// (march step `step` cells), then binary swap composites the frame.
/// Zero data rounds: nothing is exchanged until the image reduction.
/// Work is the samples the naive marcher would evaluate.
pub(crate) fn volume(
    scene: &Scene,
    owner: &[usize],
    cam: &Camera,
    step: f64,
) -> (Image, TechniqueRow) {
    // ~60 flops per trilinear sample + classification + blend.
    measure(scene, "volume rendering", 60, |comm| {
        let mine: Vec<u32> = (0..scene.geo.fluid_count() as u32)
            .filter(|&s| owner[s as usize] == comm.rank())
            .collect();
        let field = SampledField::new(&scene.geo, &scene.snap);
        let (lo, hi) = field.scalar_range(Scalar::Speed);
        let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));
        let opts = RenderOptions::default();
        let (partial, stats) =
            match Brick::from_sites(&scene.geo, &scene.snap, Scalar::Speed, &mine) {
                Some(brick) => render_brick_opts(&brick, cam, &tf, step, &opts),
                None => (
                    PartialImage::new(cam.width, cam.height),
                    RenderStats::default(),
                ),
            };
        (
            binary_swap(comm, partial).unwrap(),
            stats.samples_total(),
            0,
        )
    })
}

/// Line integrals: distributed streamline tracing with hand-off; rank 0
/// gathers every rank's segments and stitches them into one polyline
/// per seed.
pub(crate) fn streamlines(
    scene: &Scene,
    owner: &[usize],
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> (Vec<Vec<Vec3>>, TechniqueRow) {
    type WireSegment = ((u32, u32), Vec<[f64; 3]>);
    // 4 field evaluations per RK4 step, ~100 flops each.
    measure(scene, "line integrals", 400, |comm| {
        let field = SampledField::new(&scene.geo, &scene.snap);
        let (segments, stats) =
            trace_distributed(comm, &scene.geo, &field, owner, seeds, cfg).unwrap();
        let wire: Vec<WireSegment> = segments
            .into_iter()
            .map(|(id, start, verts)| ((id, start), verts.iter().map(|v| v.to_array()).collect()))
            .collect();
        let lines = comm.gather(0, wire.to_bytes()).unwrap().map(|parts| {
            let all = parts
                .into_iter()
                .flat_map(|p| Vec::<WireSegment>::from_bytes(p).unwrap())
                .map(|((id, start), verts)| {
                    (id, start, verts.into_iter().map(Vec3::from).collect())
                });
            stitch_segments(all.collect(), seeds.len())
        });
        (lines, stats.steps_computed, stats.rounds)
    })
}

/// Particle tracing: `steps` in situ steps of the ensemble seeded at
/// `seeds` (advection sub-step 0.5), each an advection and a migration.
pub(crate) fn particles(
    scene: &Scene,
    owner: &[usize],
    seeds: &[Vec3],
    steps: usize,
) -> TechniqueRow {
    let ((), row) = measure(scene, "particle tracing", 400, |comm| {
        let field = SampledField::new(&scene.geo, &scene.snap);
        let mut ens = ParticleEnsemble::new(comm, &scene.geo, owner, seeds, 0.5);
        for _ in 0..steps {
            ens.step(&scene.geo, &field).unwrap();
        }
        (Some(()), ens.stats.updates, ens.stats.rounds)
    });
    row
}

/// LIC on the slice at `plane_z`: one halo phase, then local
/// convolution; rank 0 gathers the `nx × ny` image (`values[x·ny + y]`,
/// NaN where the slice is solid).
pub(crate) fn lic(scene: &Scene, plane_z: f64) -> ((usize, usize, Vec<f32>), TechniqueRow) {
    // 2·half_kernel bilinear samples + noise per pixel.
    measure(scene, "LIC", 600, |comm| {
        let field = SampledField::new(&scene.geo, &scene.snap);
        let slice = VelocitySlice::extract(&field, plane_z);
        let (img, stats) = lic_distributed(comm, &slice, &LicConfig::default()).unwrap();
        (img.map(|v| (slice.nx, slice.ny, v)), stats.pixels, 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    /// Table I's four rows on a small aneurysm with a developed-flow-like
    /// field, an x-slab decomposition and seeds clustered at the inlet.
    fn rows(p: usize) -> Vec<TechniqueRow> {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        let n = geo.fluid_count();
        // Axial velocity, faster mid-tube.
        let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
        let u: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let r = (geo.position(i as u32)[1] as f64 - cy).abs() / 6.0;
                [(0.08 * (1.0 - r * r)).max(0.01), 0.0, 0.0]
            })
            .collect();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u,
            shear: vec![0.1; n],
        };
        let owner = crate::workloads::slab_owner(&geo, p);
        // Seeds clustered near the inlet (how users actually seed).
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
        let scene = Scene {
            geo: Arc::new(geo),
            snap: Arc::new(snap),
            ranks: p,
        };
        let cam = scene.camera(Vec3::new(0.2, -1.0, 0.3), 48, 36);
        // Bounded lines (a typical interactive probe): they do not span
        // the whole domain, so clustered seeds stay clustered.
        let trace = TraceConfig {
            h: 0.5,
            max_steps: 250,
            min_speed: 1e-8,
        };
        vec![
            volume(&scene, &owner, &cam, 0.5).1,
            streamlines(&scene, &owner, &seeds, &trace).1,
            particles(&scene, &owner, &seeds, 200),
            // Slice through the parent-vessel axis.
            lic(&scene, 6.0 + 1.0).1,
        ]
    }

    #[test]
    fn table1_orderings_hold() {
        let [volume, lines, particles, lic]: [TechniqueRow; 4] = rows(4).try_into().unwrap();

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
            lic.work_imbalance() < lines.work_imbalance(),
            "lic {} !< lines {}",
            lic.work_imbalance(),
            lines.work_imbalance()
        );

        // Ease of parallelisation: the embarrassingly parallel technique
        // has no mid-frame dependency rounds at all.
        assert!(volume.rounds < lic.rounds);
        assert!(lic.rounds < lines.rounds);
    }

    #[test]
    fn rows_have_positive_work_and_a_growing_exascale_data_share() {
        use hemelb_parallel::{CostModel, MachineModel};
        let xe6 = CostModel::for_machine(MachineModel::CrayXe6);
        let exa = CostModel::for_machine(MachineModel::ExascaleProjection);
        for r in &rows(2) {
            assert!(r.total_work() > 0, "{} did no work", r.technique);
            assert_eq!(r.work_per_rank.len(), 2);
            let (a, b) = (
                crate::table1::projected(r, &xe6),
                crate::table1::projected(r, &exa),
            );
            if r.data_bytes + r.composite_bytes > 0 {
                assert!(
                    b.data_movement_fraction() >= a.data_movement_fraction() - 1e-12,
                    "{}: exascale must not reduce the data-movement share",
                    r.technique
                );
            }
            assert!(a.total_s() > 0.0);
        }
    }
}

//! Inputs and checks shared by the workloads: the seeded generator, the
//! standard geometries and owner maps, the field digest and the
//! attempted/failed ledger.

use crate::trace::Track;
use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3, VesselBuilder};
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{quality, MultilevelKWay, PartitionQuality, Partitioner};
use std::sync::Arc;
use std::time::Instant;

/// Lattice spacing of the Small aneurysm (17 388 sites).
pub const DX_SMALL: f64 = 0.5;
/// Lattice spacing of the Medium aneurysm (137 320 sites).
pub const DX_MEDIUM: f64 = 0.25;

/// splitmix64: every input a workload derives from `--seed` comes from
/// one of these, so equal seeds give equal inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inlet density of the pressure-driven workloads: the seed moves the
/// pressure drop by up to a fifth, which changes no site count and no
/// per-step work.
pub fn seeded_rho_in(rng: &mut Rng) -> f64 {
    1.01 + 0.002 * rng.unit()
}

/// The paper's saccular-aneurysm vessel at spacing `dx`.
pub fn aneurysm(dx: f64) -> Arc<SparseGeometry> {
    Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(dx))
}

/// Wall seconds of `f` next to its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// A multilevel k-way owner map with what it cost and how good it is.
pub struct KwayMap {
    pub owner: Vec<usize>,
    pub graph_secs: f64,
    pub kway_secs: f64,
    pub quality: PartitionQuality,
}

pub fn kway_map(track: &mut Track, geo: &SparseGeometry, parts: usize) -> KwayMap {
    let (graph, graph_secs) = track.leaf("partition.graph_build", || {
        SiteGraph::from_geometry(geo, Connectivity::D3Q15)
    });
    let (owner, kway_secs) = track.leaf("partition.kway", || {
        MultilevelKWay::default().partition(&graph, parts)
    });
    let quality = quality(&graph, &owner, parts);
    KwayMap {
        owner,
        graph_secs,
        kway_secs,
        quality,
    }
}

/// Slab decomposition along x.
pub fn slab_owner(geo: &SparseGeometry, parts: usize) -> Vec<usize> {
    let nx = geo.shape()[0];
    geo.positions()
        .iter()
        .map(|p| (p[0] as usize * parts / nx).min(parts - 1))
        .collect()
}

/// z of the parent-vessel axis: the z plane holding most inlet-side
/// sites.
pub fn axis_z(geo: &SparseGeometry) -> f64 {
    let mut counts = vec![0usize; geo.shape()[2]];
    for p in geo.positions().iter().filter(|p| p[0] < 4) {
        counts[p[2] as usize] += 1;
    }
    let z = (0..counts.len()).max_by_key(|&z| counts[z]).unwrap_or(0);
    z as f64
}

/// `n` seed points inside the lumen of the inlet cross-section: a rake
/// around the vessel axis, jittered by the run's seed.
pub fn inlet_rake(geo: &SparseGeometry, n: usize, rng: &mut Rng) -> Vec<Vec3> {
    let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
    let cz = axis_z(geo);
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let p = Vec3::new(
            2.0 + rng.unit(),
            cy + (rng.unit() - 0.5) * 8.0,
            cz + (rng.unit() - 0.5) * 8.0,
        );
        let cell = (p.x.round() as i64, p.y.round() as i64, p.z.round() as i64);
        if geo.site_at(cell.0, cell.1, cell.2).is_some() {
            seeds.push(p);
        }
    }
    seeds
}

/// FNV-1a over the bit patterns of density and velocity, site by site.
pub fn field_digest(snap: &FieldSnapshot) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (rho, u) in snap.rho.iter().zip(&snap.u) {
        eat(*rho);
        u.iter().for_each(|c| eat(*c));
    }
    h
}

/// Operations attempted and failed; a failed output check is a failed
/// operation and is named on stderr.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Count `n` operations that completed (steps, frames, lines, …).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Add another thread's ledger to this one.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one output check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// The solver-output check every solver workload makes.
    pub fn check_field(&mut self, snap: &FieldSnapshot, which: &str) {
        let problems = snap.validity_report();
        self.check(problems.is_empty(), || {
            format!("{which}: validity_report {problems:?}")
        });
        self.check(snap.mean_speed() > 0.0, || {
            format!("{which}: mean speed is not positive")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_the_rake_is_in_the_lumen() {
        let geo = aneurysm(1.0);
        let a = inlet_rake(&geo, 32, &mut Rng::new(9));
        let b = inlet_rake(&geo, 32, &mut Rng::new(9));
        let c = inlet_rake(&geo, 32, &mut Rng::new(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let owner = slab_owner(&geo, 2);
        assert!(a
            .iter()
            .all(|p| hemelb_insitu::lines::owner_of_point(&geo, &owner, *p).is_some()));
    }

    #[test]
    fn digest_sees_one_flipped_bit() {
        let mut snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; 4],
            u: vec![[0.0; 3]; 4],
            shear: vec![0.0; 4],
        };
        let before = field_digest(&snap);
        snap.u[3][2] = f64::from_bits(1);
        assert_ne!(before, field_digest(&snap));
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_operation() {
        let mut ledger = Ledger::default();
        ledger.ops(10);
        ledger.check(true, || unreachable!());
        ledger.check(false, || "named".into());
        assert_eq!((ledger.attempted, ledger.failed), (12, 1));
    }
}

//! Shared workload builders for the experiments.
//!
//! The canonical workload is the saccular-aneurysm vessel of the
//! paper's Fig. 4 at a handful of resolutions, with a developed
//! pressure-driven flow field produced by actually running the solver.

use hemelb_core::{FieldSnapshot, Solver, SolverConfig};
use hemelb_geometry::{SparseGeometry, Vec3, VesselBuilder};
use hemelb_partition::graph::{Connectivity, SiteGraph};
use hemelb_partition::{MultilevelKWay, Partitioner};
use std::sync::Arc;

/// Workload size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// ~3 k sites: unit-test scale.
    Tiny,
    /// ~25 k sites: default experiment scale.
    Small,
    /// ~180 k sites: bench scale.
    Medium,
}

impl Size {
    /// Lattice spacing for the standard aneurysm vessel.
    pub fn dx(self) -> f64 {
        match self {
            Size::Tiny => 1.0,
            Size::Small => 0.5,
            Size::Medium => 0.25,
        }
    }
}

/// The standard aneurysm geometry (parent vessel + saccular bulge).
pub fn aneurysm(size: Size) -> Arc<SparseGeometry> {
    Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(size.dx()))
}

/// The standard bifurcation geometry.
pub fn bifurcation(size: Size) -> Arc<SparseGeometry> {
    Arc::new(VesselBuilder::bifurcation(16.0, 14.0, 4.0, 0.5).voxelise(size.dx()))
}

/// A developed flow field: run the pressure-driven solver for `steps`
/// (enough for the jet through the neck of the sac to form).
pub fn developed_flow(geo: &Arc<SparseGeometry>, steps: u64) -> Arc<FieldSnapshot> {
    let mut solver = Solver::new(
        geo.clone(),
        SolverConfig::pressure_driven(1.01, 0.99).with_tau(0.8),
    );
    solver.step_n(steps);
    Arc::new(solver.snapshot())
}

/// Slab decomposition along x (the strawman owner map).
pub fn slab_owner(geo: &SparseGeometry, p: usize) -> Vec<usize> {
    (0..geo.fluid_count() as u32)
        .map(|s| (geo.position(s)[0] as usize * p / geo.shape()[0]).min(p - 1))
        .collect()
}

/// Multilevel k-way decomposition (the ParMETIS-analogue owner map).
pub fn kway_owner(geo: &SparseGeometry, p: usize) -> Vec<usize> {
    let graph = SiteGraph::from_geometry(geo, Connectivity::D3Q15);
    MultilevelKWay.partition(&graph, p)
}

/// Seed points clustered in the inlet cross-section (how a user places
/// streamline rakes in practice).
pub fn inlet_seeds(geo: &SparseGeometry, n: usize) -> Vec<Vec3> {
    let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
    let cz = find_axis_z(geo);
    let side = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            Vec3::new(
                2.0,
                cy + ((i % side) as f64 - side as f64 / 2.0) * 0.8,
                cz + ((i / side) as f64 - side as f64 / 2.0) * 0.8,
            )
        })
        .collect()
}

/// z of the parent-vessel axis: the z coordinate with the most fluid
/// sites in the inlet region.
pub fn find_axis_z(geo: &SparseGeometry) -> f64 {
    let mut counts = vec![0usize; geo.shape()[2]];
    for i in 0..geo.fluid_count() as u32 {
        let p = geo.position(i);
        if p[0] < 4 {
            counts[p[2] as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(z, _)| z as f64)
        .unwrap_or(0.0)
}

/// Render the standard output directory, creating it if needed.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("out");
    std::fs::create_dir_all(&dir).expect("output directory must be creatable");
    dir
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_produce_consistent_sizes() {
        let tiny = aneurysm(Size::Tiny);
        let small = aneurysm(Size::Small);
        assert!(tiny.fluid_count() > 1000);
        assert!(small.fluid_count() > 6 * tiny.fluid_count());
    }

    #[test]
    fn developed_flow_actually_flows() {
        let geo = aneurysm(Size::Tiny);
        let snap = developed_flow(&geo, 100);
        assert!(snap.mean_speed() > 1e-4);
        assert!(snap.validity_report().is_empty());
    }

    #[test]
    fn owner_maps_cover_all_ranks() {
        let geo = aneurysm(Size::Tiny);
        for p in [2, 4] {
            for owner in [slab_owner(&geo, p), kway_owner(&geo, p)] {
                assert_eq!(owner.len(), geo.fluid_count());
                let mut seen = vec![false; p];
                for &o in &owner {
                    seen[o] = true;
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn seeds_land_in_fluid() {
        let geo = aneurysm(Size::Tiny);
        let seeds = inlet_seeds(&geo, 9);
        let in_fluid = seeds
            .iter()
            .filter(|s| {
                geo.site_at(s.x.round() as i64, s.y.round() as i64, s.z.round() as i64)
                    .is_some()
            })
            .count();
        assert!(
            in_fluid >= 5,
            "most seeds must be in the lumen: {in_fluid}/9"
        );
    }
}

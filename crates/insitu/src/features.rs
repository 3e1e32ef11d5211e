//! In situ feature extraction (paper §I: "in situ visualisation and
//! feature extraction are promising approaches to reduce the amount of
//! data to handle"; §IV-C-2: path-lines reveal "features such as
//! vortices").
//!
//! * [`vorticity`] — the curl of the velocity field by central
//!   differences over the sparse lattice (one-sided at walls);
//! * [`swirling_regions`] — connected components of high-swirl sites: a
//!   vortex detector whose output is a handful of [`Feature`] records
//!   (centroid, extent, strength) instead of terabytes of field data —
//!   feature extraction *as* data reduction;
//! * [`FeatureReport`] — what an in situ run ships to the steering
//!   client about each detected structure.

use hemelb_core::FieldSnapshot;
use hemelb_geometry::SparseGeometry;

/// Per-site vorticity vectors `ω = ∇ × u`.
///
/// Central differences where both neighbours are fluid, one-sided where
/// only one is, zero where isolated — consistent with the staircase
/// geometry the solver itself sees.
pub fn vorticity(geo: &SparseGeometry, snap: &FieldSnapshot) -> Vec<[f64; 3]> {
    assert_eq!(snap.len(), geo.fluid_count());
    let n = geo.fluid_count();
    // du[a][b] = ∂u_a/∂x_b at each site.
    let mut out = vec![[0.0f64; 3]; n];
    for s in 0..n as u32 {
        let [x, y, z] = geo.position(s);
        let (xi, yi, zi) = (x as i64, y as i64, z as i64);
        // derivative of component `comp` along axis `axis`
        let d = |comp: usize, axis: usize| -> f64 {
            let (dx, dy, dz) = match axis {
                0 => (1i64, 0i64, 0i64),
                1 => (0, 1, 0),
                _ => (0, 0, 1),
            };
            let plus = geo.site_at(xi + dx, yi + dy, zi + dz);
            let minus = geo.site_at(xi - dx, yi - dy, zi - dz);
            match (plus, minus) {
                (Some(p), Some(m)) => (snap.u[p as usize][comp] - snap.u[m as usize][comp]) / 2.0,
                (Some(p), None) => snap.u[p as usize][comp] - snap.u[s as usize][comp],
                (None, Some(m)) => snap.u[s as usize][comp] - snap.u[m as usize][comp],
                (None, None) => 0.0,
            }
        };
        // ω_x = ∂u_z/∂y − ∂u_y/∂z, etc.
        out[s as usize] = [d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)];
    }
    out
}

/// Magnitude of a vorticity vector.
#[inline]
pub fn vorticity_magnitude(w: [f64; 3]) -> f64 {
    (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt()
}

/// One extracted flow feature (a connected high-swirl region).
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Number of sites in the region.
    pub sites: u32,
    /// Centroid in lattice coordinates.
    pub centroid: [f64; 3],
    /// Axis-aligned bounds (min corner, max corner).
    pub bounds: ([u32; 3], [u32; 3]),
    /// Peak vorticity magnitude inside the region.
    pub peak_vorticity: f64,
    /// Mean vorticity magnitude inside the region.
    pub mean_vorticity: f64,
}

/// The in situ feature-extraction result: a compact description of the
/// flow's vortical structures.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureReport {
    /// Threshold used (vorticity magnitude).
    pub threshold: f64,
    /// Detected regions, largest first.
    pub features: Vec<Feature>,
    /// Total fluid sites scanned.
    pub scanned: u64,
}

impl FeatureReport {
    /// Bytes to ship this report (vs. the full field it summarises).
    pub fn approx_bytes(&self) -> usize {
        self.features.len() * 72 + 24
    }
}

/// Extract connected regions (6-neighbourhood) where the vorticity
/// magnitude exceeds `threshold`. Regions smaller than `min_sites` are
/// dropped as noise.
pub fn swirling_regions(
    geo: &SparseGeometry,
    snap: &FieldSnapshot,
    threshold: f64,
    min_sites: u32,
) -> FeatureReport {
    let w = vorticity(geo, snap);
    let n = geo.fluid_count();
    let mags: Vec<f64> = w.iter().map(|&v| vorticity_magnitude(v)).collect();

    let mut visited = vec![false; n];
    let mut features = Vec::new();
    for start in 0..n as u32 {
        if visited[start as usize] || mags[start as usize] < threshold {
            continue;
        }
        // Flood fill.
        let mut stack = vec![start];
        visited[start as usize] = true;
        let mut sites = 0u32;
        let mut sum = [0.0f64; 3];
        let mut lo = [u32::MAX; 3];
        let mut hi = [0u32; 3];
        let mut peak = 0.0f64;
        let mut total_mag = 0.0f64;
        while let Some(s) = stack.pop() {
            let p = geo.position(s);
            sites += 1;
            for a in 0..3 {
                sum[a] += p[a] as f64;
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
            peak = peak.max(mags[s as usize]);
            total_mag += mags[s as usize];
            let (xi, yi, zi) = (p[0] as i64, p[1] as i64, p[2] as i64);
            for (dx, dy, dz) in [
                (1i64, 0i64, 0i64),
                (-1, 0, 0),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
            ] {
                if let Some(t) = geo.site_at(xi + dx, yi + dy, zi + dz) {
                    if !visited[t as usize] && mags[t as usize] >= threshold {
                        visited[t as usize] = true;
                        stack.push(t);
                    }
                }
            }
        }
        if sites >= min_sites {
            features.push(Feature {
                sites,
                centroid: [
                    sum[0] / sites as f64,
                    sum[1] / sites as f64,
                    sum[2] / sites as f64,
                ],
                bounds: (lo, hi),
                peak_vorticity: peak,
                mean_vorticity: total_mag / sites as f64,
            });
        }
    }
    features.sort_by_key(|f| std::cmp::Reverse(f.sites));
    FeatureReport {
        threshold,
        features,
        scanned: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn tube() -> SparseGeometry {
        VesselBuilder::straight_tube(20.0, 5.0).voxelise(1.0)
    }

    fn snapshot_with(geo: &SparseGeometry, f: impl Fn([u32; 3]) -> [f64; 3]) -> FieldSnapshot {
        let n = geo.fluid_count();
        FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: (0..n as u32).map(|s| f(geo.position(s))).collect(),
            shear: vec![0.0; n],
        }
    }

    #[test]
    fn uniform_flow_has_zero_vorticity() {
        let geo = tube();
        let snap = snapshot_with(&geo, |_| [0.05, 0.0, 0.0]);
        let w = vorticity(&geo, &snap);
        for v in w {
            assert!(vorticity_magnitude(v) < 1e-12);
        }
    }

    #[test]
    fn rigid_rotation_has_vorticity_two_omega() {
        // u = Ω × r with Ω = (ω, 0, 0) gives ω_vec = (2ω, 0, 0) exactly
        // (linear field ⇒ central differences are exact).
        let geo = tube();
        let omega = 0.01;
        let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
        let cz = (geo.shape()[2] as f64 - 1.0) / 2.0;
        let snap = snapshot_with(&geo, |p| {
            let y = p[1] as f64 - cy;
            let z = p[2] as f64 - cz;
            [0.0, -omega * z, omega * y]
        });
        let w = vorticity(&geo, &snap);
        // Check interior sites (one-sided stencils at walls are still
        // exact for linear fields, so all sites qualify).
        for v in &w {
            assert!((v[0] - 2.0 * omega).abs() < 1e-12, "{v:?}");
            assert!(v[1].abs() < 1e-12);
            assert!(v[2].abs() < 1e-12);
        }
    }

    #[test]
    fn shear_flow_vorticity_matches_gradient() {
        // u_x = k·y ⇒ ω_z = −k.
        let geo = tube();
        let k = 0.004;
        let snap = snapshot_with(&geo, |p| [k * p[1] as f64, 0.0, 0.0]);
        let w = vorticity(&geo, &snap);
        for v in &w {
            assert!((v[2] + k).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn swirling_region_found_where_planted() {
        // Rotation only inside a ball at the tube centre; rest at rest.
        let geo = tube();
        let centre = [
            10.0,
            (geo.shape()[1] as f64 - 1.0) / 2.0,
            (geo.shape()[2] as f64 - 1.0) / 2.0,
        ];
        let snap = snapshot_with(&geo, |p| {
            let dx = p[0] as f64 - centre[0];
            let dy = p[1] as f64 - centre[1];
            let dz = p[2] as f64 - centre[2];
            if dx * dx + dy * dy + dz * dz < 9.0 {
                [0.0, -0.02 * dz, 0.02 * dy]
            } else {
                [0.0; 3]
            }
        });
        let report = swirling_regions(&geo, &snap, 0.02, 3);
        assert!(!report.features.is_empty(), "the planted vortex is found");
        let f = &report.features[0];
        assert!(
            (f.centroid[0] - centre[0]).abs() < 2.0,
            "centroid near the plant: {:?}",
            f.centroid
        );
        assert!(f.peak_vorticity > 0.03, "2ω = 0.04 inside");
        // Data reduction: the report is tiny compared with the field.
        assert!(report.approx_bytes() < geo.fluid_count() * 8 / 10);
    }

    #[test]
    fn still_fluid_yields_no_features() {
        let geo = tube();
        let snap = snapshot_with(&geo, |_| [0.0; 3]);
        let report = swirling_regions(&geo, &snap, 1e-6, 1);
        assert!(report.features.is_empty());
        assert_eq!(report.scanned, geo.fluid_count() as u64);
    }

    #[test]
    fn min_sites_filters_specks() {
        let geo = tube();
        // One-site "vortex": a single site with nonzero neighbours' curl.
        let target = geo.position(geo.fluid_count() as u32 / 2);
        let snap = snapshot_with(&geo, |p| {
            if p == target {
                [0.0, 0.05, 0.0]
            } else {
                [0.0; 3]
            }
        });
        let loose = swirling_regions(&geo, &snap, 1e-4, 1);
        let strict = swirling_regions(&geo, &snap, 1e-4, 50);
        assert!(loose.features.len() >= strict.features.len());
        assert!(strict.features.is_empty());
    }
}

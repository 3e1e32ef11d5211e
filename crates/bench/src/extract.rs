//! Experiment E11 (extension) — in situ *feature extraction*: the
//! paper's §I names "in situ visualisation and feature extraction" as
//! the two data-reduction strategies; §IV-C-2 says line visualisation
//! reveals "features such as vortices". This experiment extracts the
//! **vortex regions** (connected high-vorticity components) of a live
//! aneurysm flow into a compact [`FeatureReport`], orders of magnitude
//! smaller than the field it summarises — measured below.

use crate::workloads::{self, Size};
use hemelb_insitu::features::{swirling_regions, vorticity, vorticity_magnitude, FeatureReport};
use std::fmt;

/// The extraction results.
pub struct ExtractResult {
    /// Sites in the field.
    pub sites: usize,
    /// Raw field bytes (speed, f64).
    pub field_bytes: usize,
    /// The vortex report.
    pub features: FeatureReport,
}

/// Run E11 on the developed aneurysm flow.
pub fn run(size: Size) -> ExtractResult {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 400);

    // Vortex regions: threshold at twice the median vorticity.
    let w = vorticity(&geo, &snap);
    let mut mags: Vec<f64> = w.iter().map(|&v| vorticity_magnitude(v)).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = mags[mags.len() / 2] * 2.0;
    let features = swirling_regions(&geo, &snap, threshold.max(1e-9), 8);

    ExtractResult {
        sites: geo.fluid_count(),
        field_bytes: geo.fluid_count() * 8,
        features,
    }
}

impl fmt::Display for ExtractResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "In situ extraction over {} sites ({} raw field):",
            self.sites,
            workloads::fmt_bytes(self.field_bytes as u64)
        )?;
        writeln!(
            f,
            "vortex regions (|ω| > {:.2e}, ≥8 sites): {} features, report {} ({:.0}x reduction)",
            self.features.threshold,
            self.features.features.len(),
            workloads::fmt_bytes(self.features.approx_bytes() as u64),
            self.field_bytes as f64 / self.features.approx_bytes().max(1) as f64,
        )?;
        for (i, feat) in self.features.features.iter().take(5).enumerate() {
            writeln!(
                f,
                "  #{i}: {} sites at ({:.1}, {:.1}, {:.1}), peak |ω| {:.3e}",
                feat.sites,
                feat.centroid[0],
                feat.centroid[1],
                feat.centroid[2],
                feat.peak_vorticity,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_reduces_and_finds_structure() {
        let r = run(Size::Tiny);
        assert!(
            !r.features.features.is_empty(),
            "the aneurysm flow has vortical structure"
        );
        // The whole point: extracted representations are small.
        assert!(r.features.approx_bytes() < r.field_bytes / 4);
    }
}

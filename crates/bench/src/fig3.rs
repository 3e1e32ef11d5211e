//! Experiment E4 — the paper's **Fig. 3**: the post-processing pipeline
//! (extract → filter → map → render) with user iteration.
//!
//! We run the four stages over a live solver snapshot and record each
//! stage's payload size, with the *filter* stage either a pass-through
//! (classical post-processing) or an octree level cut (the in situ
//! data-reduction path of §V) — quantifying how much the
//! multi-resolution filter shrinks what the downstream stages touch.
//! How long a stage takes is the repo benchmark's business
//! (`insitu.render_ms_p50`, `octree.build_s`).

use crate::workloads::{self, Size};
use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_insitu::camera::Camera;
use hemelb_insitu::image::Image;
use hemelb_insitu::transfer::TransferFunction;
use hemelb_insitu::volume::{render_brick, Brick};
use hemelb_octree::FieldOctree;
use std::fmt;

/// `(stage name, payload bytes after the stage)` for the four stages.
type Stages = [(&'static str, usize); 4];

/// Result: the stage payloads of both pipeline variants.
pub struct Fig3Result {
    /// The full-resolution pipeline.
    pub full: Stages,
    /// The octree-reduced pipeline.
    pub reduced: Stages,
    /// Octree level used by the reduced variant.
    pub level: u8,
}

/// One pass through the four stages; `reduce_to_level` picks the
/// filter. Payload bytes: 8 B per value, 12 + 8 B per point, 16 B per
/// pixel.
fn stages(
    geo: &SparseGeometry,
    snap: &FieldSnapshot,
    reduce_to_level: Option<u8>,
    image: (u32, u32),
) -> Stages {
    // Extract: one speed value per site.
    let values: Vec<f64> = (0..snap.len()).map(|i| snap.speed(i)).collect();
    let extracted = values.len() * 8;

    // Filter: every site, or the level cut's node centres and means.
    let (points, values): (Vec<[u32; 3]>, Vec<f64>) = match reduce_to_level {
        None => (geo.positions().to_vec(), values),
        Some(level) => FieldOctree::build(geo, &values)
            .cut_at_level(level)
            .iter()
            .map(|n| {
                let c = n.origin;
                let h = n.size / 2;
                ([c[0] + h, c[1] + h, c[2] + h], n.agg.mean)
            })
            .unzip(),
    };
    let filtered = points.len() * 12 + values.len() * 8;

    // Map: classify by the filtered range; the points travel on.
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));

    // Render.
    let shape = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(shape[0] as f64, shape[1] as f64, shape[2] as f64),
        Vec3::new(0.2, -1.0, 0.3),
        image.0,
        image.1,
    );
    let img = match Brick::from_points(&points, &values) {
        Some(brick) => render_brick(&brick, &cam, &tf, 0.5).image,
        None => Image::new(image.0, image.1),
    };

    [
        ("extract", extracted),
        ("filter", filtered),
        ("map", filtered),
        ("render", img.pixels.len() * 16),
    ]
}

/// Run E4.
pub fn run(size: Size, level: u8, image: (u32, u32)) -> Fig3Result {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 150);
    Fig3Result {
        full: stages(&geo, &snap, None, image),
        reduced: stages(&geo, &snap, Some(level), image),
        level,
    }
}

impl Fig3Result {
    /// Payload size after the filter stage (bytes) for both variants.
    pub fn filtered_bytes(&self) -> (usize, usize) {
        (self.full[1].1, self.reduced[1].1)
    }
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 3 (measured): post-processing pipeline stages, full vs octree level-{} reduction",
            self.level
        )?;
        writeln!(
            f,
            "{:<10} {:>12} {:>12}",
            "stage", "full [B]", "reduced [B]"
        )?;
        for ((name, full), (_, reduced)) in self.full.iter().zip(&self.reduced) {
            writeln!(f, "{name:<10} {full:>12} {reduced:>12}")?;
        }
        let (full, reduced) = self.filtered_bytes();
        if reduced > 0 {
            writeln!(
                f,
                "data reduction after filter: {:.1}x",
                full as f64 / reduced as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_stages_run_and_reduce() {
        let result = run(Size::Tiny, 3, (48, 36));
        let (full, reduced) = result.filtered_bytes();
        assert!(full > 0);
        assert!(reduced > 0);
        assert!(
            reduced < full / 2,
            "octree filter must reduce the payload: {reduced} !< {full}/2"
        );
        // Neither variant changes the image size.
        assert_eq!(result.full[3], ("render", 48 * 36 * 16));
        assert_eq!(result.reduced[3], result.full[3]);
    }
}

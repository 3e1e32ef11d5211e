//! Experiments E5/E6 — the paper's **Fig. 4**: (a) a volume-rendered
//! aneurysm data set, (b) streamline visualisation of the same flow.
//!
//! The runs regenerate both panels as PPM images from a live solver
//! field, exercising the full distributed path: k-way decomposition →
//! per-rank brick rendering → binary-swap compositing (4a), and
//! distributed streamline tracing with hand-off → gather → projection
//! (4b). Both also report the communication the frame cost.

use crate::techniques::{self, Scene, TechniqueRow};
use crate::workloads::{self, Size};
use hemelb_geometry::Vec3;
use hemelb_insitu::camera::RayGenerator;
use hemelb_insitu::field::{SampledField, Scalar};
use hemelb_insitu::image::Image;
use hemelb_insitu::lines::TraceConfig;
use hemelb_insitu::transfer::TransferFunction;
use std::fmt;
use std::path::PathBuf;

/// Result of a Fig. 4 render.
pub struct Fig4Result {
    /// Panel name ("4a" / "4b").
    pub panel: &'static str,
    /// Where the PPM was written.
    pub path: PathBuf,
    /// Fraction of pixels covered by the vessel.
    pub coverage: f64,
    /// Visualisation data bytes (hand-off; 0 for volume rendering).
    pub data_bytes: u64,
    /// Compositing bytes.
    pub composite_bytes: u64,
    /// Streamlines traced (panel b only).
    pub lines: usize,
}

impl Fig4Result {
    /// Write `image` to `out/<file>` and report it with `row`'s traffic.
    fn written(panel: &'static str, file: &str, image: &Image, row: &TechniqueRow) -> Fig4Result {
        let path = workloads::out_dir().join(file);
        image.write_ppm(&path).expect("PPM written");
        Fig4Result {
            panel,
            path,
            coverage: image.coverage(),
            data_bytes: row.data_bytes,
            composite_bytes: row.composite_bytes,
            lines: 0,
        }
    }
}

/// The panels' view direction.
const VIEW: Vec3 = Vec3::new(0.15, -1.0, 0.25);

/// E5: distributed volume rendering of the aneurysm flow → `fig4a.ppm`.
pub fn run_4a(size: Size, ranks: usize, width: u32, height: u32) -> Fig4Result {
    let scene = Scene::aneurysm(size, 300, ranks);
    let owner = workloads::kway_owner(&scene.geo, ranks);
    let cam = scene.camera(VIEW, width, height);
    let (image, row) = techniques::volume(&scene, &owner, &cam, 0.4);
    Fig4Result::written("4a", "fig4a_volume_rendering.ppm", &image, &row)
}

/// E6: distributed streamline tracing → projected line render →
/// `fig4b_streamlines.ppm`.
pub fn run_4b(size: Size, ranks: usize, n_seeds: usize, width: u32, height: u32) -> Fig4Result {
    let scene = Scene::aneurysm(size, 300, ranks);
    let owner = workloads::kway_owner(&scene.geo, ranks);
    let seeds = workloads::inlet_seeds(&scene.geo, n_seeds);
    let cam = scene.camera(VIEW, width, height);
    let cfg = TraceConfig {
        h: 0.4,
        max_steps: 4000,
        min_speed: 1e-9,
    };
    let (lines, row) = techniques::streamlines(&scene, &owner, &seeds, &cfg);
    let field = SampledField::new(&scene.geo, &scene.snap);
    let (lo, hi) = field.scalar_range(Scalar::Speed);
    let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));

    let mut image = Image::new(width, height);
    let gen = cam.ray_generator();
    let mut drawn = 0usize;
    for line in &lines {
        if line.len() < 2 {
            continue;
        }
        drawn += 1;
        for w2 in line.windows(2) {
            let speed = field
                .velocity_at(w2[0])
                .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
                .unwrap_or(0.0);
            let mut c = tf.classify(speed);
            c[3] = 1.0;
            draw_segment(&mut image, &gen, w2[0], w2[1], c);
        }
    }
    Fig4Result {
        lines: drawn,
        ..Fig4Result::written("4b", "fig4b_streamlines.ppm", &image, &row)
    }
}

/// Table I's fourth technique as an artefact: distributed LIC of the
/// mid-vessel slice → greyscale PPM (`out/lic_slice.ppm`).
pub fn run_lic(size: Size, ranks: usize) -> Fig4Result {
    let scene = Scene::aneurysm(size, 300, ranks);
    let ((nx, ny, values), row) = techniques::lic(&scene, workloads::find_axis_z(&scene.geo));

    // Greyscale with NaN (solid) as white.
    let mut image = Image::new(nx as u32, ny as u32);
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in &values {
        if !v.is_nan() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let span = (hi - lo).max(1e-6);
    for x in 0..nx {
        for y in 0..ny {
            let v = values[x * ny + y];
            if !v.is_nan() {
                let g = (v - lo) / span;
                *image.at_mut(x as u32, (ny - 1 - y) as u32) = [g, g, g, 1.0];
            }
        }
    }
    Fig4Result::written("LIC", "lic_slice.ppm", &image, &row)
}

/// Rasterise one projected 3-D segment with simple DDA.
fn draw_segment(img: &mut Image, gen: &RayGenerator, a: Vec3, b: Vec3, colour: [f32; 4]) {
    let (Some((ax, ay, _)), Some((bx, by, _))) = (gen.project(a), gen.project(b)) else {
        return;
    };
    let steps = ((bx - ax).abs().max((by - ay).abs()).ceil() as usize).max(1);
    for s in 0..=steps {
        let t = s as f64 / steps as f64;
        let x = ax + (bx - ax) * t;
        let y = ay + (by - ay) * t;
        if x < 0.0 || y < 0.0 || x >= img.width as f64 || y >= img.height as f64 {
            continue;
        }
        let px = img.at_mut(x as u32, y as u32);
        // Opaque line: overwrite (premultiplied, alpha already 1).
        *px = [colour[0], colour[1], colour[2], 1.0];
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. {}: wrote {} (coverage {:.1}%, data {}, compositing {}{})",
            self.panel,
            self.path.display(),
            self.coverage * 100.0,
            workloads::fmt_bytes(self.data_bytes),
            workloads::fmt_bytes(self.composite_bytes),
            if self.lines > 0 {
                format!(", {} streamlines", self.lines)
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_renders_the_vessel() {
        let r = run_4a(Size::Tiny, 2, 64, 48);
        assert!(r.coverage > 0.03, "vessel visible: {}", r.coverage);
        assert!(r.coverage < 0.9);
        assert_eq!(r.data_bytes, 0, "volume rendering moves no data");
        assert!(r.composite_bytes > 0);
        assert!(r.path.exists());
        std::fs::remove_file(&r.path).ok();
    }

    #[test]
    fn fig4b_draws_streamlines() {
        let r = run_4b(Size::Tiny, 2, 9, 64, 48);
        assert!(r.lines >= 4, "most seeds produce lines: {}", r.lines);
        assert!(r.coverage > 0.005, "lines visible: {}", r.coverage);
        assert!(r.path.exists());
        std::fs::remove_file(&r.path).ok();
    }
}

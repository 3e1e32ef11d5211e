//! Experiments E5/E6 — the paper's **Fig. 4**: (a) a volume-rendered
//! aneurysm data set, (b) streamline visualisation of the same flow.
//!
//! The runs regenerate both panels as PPM images from a live solver
//! field, exercising the full distributed path: k-way decomposition →
//! per-rank brick rendering → binary-swap compositing (4a), and
//! distributed streamline tracing with hand-off → gather → projection
//! (4b). Both also report the communication the frame cost.

use crate::workloads::{self, Size};
use hemelb_geometry::Vec3;
use hemelb_insitu::camera::{Camera, RayGenerator};
use hemelb_insitu::compositing::binary_swap;
use hemelb_insitu::field::{SampledField, Scalar};
use hemelb_insitu::image::Image;
use hemelb_insitu::lines::{stitch_segments, trace_distributed, TraceConfig};
use hemelb_insitu::transfer::TransferFunction;
use hemelb_insitu::volume::{render_brick, Brick};
use hemelb_parallel::{run_spmd_with_stats, TagClass, WireReader, WireWriter};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

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

fn camera_for(geo: &hemelb_geometry::SparseGeometry, width: u32, height: u32) -> Camera {
    let s = geo.shape();
    Camera::framing(
        Vec3::ZERO,
        Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
        Vec3::new(0.15, -1.0, 0.25),
        width,
        height,
    )
}

/// E5: distributed volume rendering of the aneurysm flow → `fig4a.ppm`.
pub fn run_4a(size: Size, ranks: usize, width: u32, height: u32) -> Fig4Result {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 300);
    let owner = Arc::new(workloads::kway_owner(&geo, ranks));
    let cam = camera_for(&geo, width, height);
    let geo2 = geo.clone();
    let snap2 = snap.clone();

    let out = run_spmd_with_stats(ranks, move |comm| {
        let mine: Vec<u32> = (0..geo2.fluid_count() as u32)
            .filter(|&s| owner[s as usize] == comm.rank())
            .collect();
        let field = SampledField::new(&geo2, &snap2);
        let (lo, hi) = field.scalar_range(Scalar::Speed);
        let tf = TransferFunction::heat(lo, hi.max(lo + 1e-9));
        let partial = match Brick::from_sites(&geo2, &snap2, Scalar::Speed, &mine) {
            Some(brick) => render_brick(&brick, &cam, &tf, 0.4),
            None => hemelb_insitu::image::PartialImage::new(cam.width, cam.height),
        };
        binary_swap(comm, partial).unwrap()
    });
    let image = out.results[0].as_ref().expect("master image").clone();
    let path = workloads::out_dir().join("fig4a_volume_rendering.ppm");
    image.write_ppm(&path).expect("PPM written");
    Fig4Result {
        panel: "4a",
        path,
        coverage: image.coverage(),
        data_bytes: out.summary.total.bytes(TagClass::Visualisation),
        composite_bytes: out.summary.total.bytes(TagClass::Compositing),
        lines: 0,
    }
}

/// E6: distributed streamline tracing → projected line render →
/// `fig4b_streamlines.ppm`.
pub fn run_4b(size: Size, ranks: usize, n_seeds: usize, width: u32, height: u32) -> Fig4Result {
    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 300);
    let owner = Arc::new(workloads::kway_owner(&geo, ranks));
    let seeds = Arc::new(workloads::inlet_seeds(&geo, n_seeds));
    let cam = camera_for(&geo, width, height);
    let geo2 = geo.clone();
    let snap2 = snap.clone();
    let n_lines = seeds.len();

    let out = run_spmd_with_stats(ranks, move |comm| {
        let field = SampledField::new(&geo2, &snap2);
        let cfg = TraceConfig {
            h: 0.4,
            max_steps: 4000,
            min_speed: 1e-9,
        };
        let (segments, _) = trace_distributed(comm, &geo2, &field, &owner, &seeds, &cfg).unwrap();
        // Gather segments at rank 0 (encode: id, start, points).
        let mut w = WireWriter::new();
        w.put_usize(segments.len());
        for (id, start, verts) in &segments {
            w.put_u32(*id);
            w.put_u32(*start);
            w.put_usize(verts.len());
            for v in verts {
                w.put(&v.to_array());
            }
        }
        let gathered = comm.gather(0, w.finish()).unwrap();
        gathered.map(|parts| {
            let mut all = Vec::new();
            for part in parts {
                let mut r = WireReader::new(part);
                let n = r.get_usize().unwrap();
                for _ in 0..n {
                    let id = r.get_u32().unwrap();
                    let start = r.get_u32().unwrap();
                    let m = r.get_usize().unwrap();
                    let mut verts = Vec::with_capacity(m);
                    for _ in 0..m {
                        let a: [f64; 3] = r.get().unwrap();
                        verts.push(Vec3::from(a));
                    }
                    all.push((id, start, verts));
                }
            }
            all
        })
    });

    let segments = out.results[0].clone().expect("master gathers segments");
    let lines = stitch_segments(segments, n_lines);
    let field = SampledField::new(&geo, &snap);
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

    let path = workloads::out_dir().join("fig4b_streamlines.ppm");
    image.write_ppm(&path).expect("PPM written");
    Fig4Result {
        panel: "4b",
        path,
        coverage: image.coverage(),
        data_bytes: out.summary.total.bytes(TagClass::Visualisation),
        composite_bytes: out.summary.total.bytes(TagClass::Compositing),
        lines: drawn,
    }
}

/// Table I's fourth technique as an artefact: distributed LIC of the
/// mid-vessel slice → greyscale PPM (`out/lic_slice.ppm`).
pub fn run_lic(size: Size, ranks: usize) -> Fig4Result {
    use hemelb_insitu::lic::{lic_distributed, LicConfig, VelocitySlice};

    let geo = workloads::aneurysm(size);
    let snap = workloads::developed_flow(&geo, 300);
    let plane_z = workloads::find_axis_z(&geo);
    let geo2 = geo.clone();
    let snap2 = snap.clone();
    let out = run_spmd_with_stats(ranks, move |comm| {
        let field = SampledField::new(&geo2, &snap2);
        let slice = VelocitySlice::extract(&field, plane_z);
        let (img, _) = lic_distributed(comm, &slice, &LicConfig::default()).unwrap();
        img.map(|v| (slice.nx, slice.ny, v))
    });
    let (nx, ny, values) = out.results[0].clone().expect("master image");

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
    let path = workloads::out_dir().join("lic_slice.ppm");
    image.write_ppm(&path).expect("PPM written");
    Fig4Result {
        panel: "LIC",
        path,
        coverage: image.coverage(),
        data_bytes: out.summary.total.bytes(TagClass::Visualisation),
        composite_bytes: out.summary.total.bytes(TagClass::Compositing),
        lines: 0,
    }
}

/// Rasterise one projected 3-D segment with simple DDA.
pub fn draw_segment(img: &mut Image, gen: &RayGenerator, a: Vec3, b: Vec3, colour: [f32; 4]) {
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

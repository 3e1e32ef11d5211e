//! Images: RGBA accumulation buffers, the *over* operator, and PPM
//! output (how this repository regenerates the paper's Fig. 4 panels).

use std::io::{self, Write};
use std::path::Path;

/// An RGBA image with premultiplied-alpha `f32` channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Pixels, row-major; premultiplied alpha.
    pub pixels: Vec<[f32; 4]>,
}

impl Image {
    /// A transparent black image.
    pub fn new(width: u32, height: u32) -> Self {
        Image {
            width,
            height,
            pixels: vec![[0.0; 4]; (width * height) as usize],
        }
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> [f32; 4] {
        self.pixels[(y * self.width + x) as usize]
    }

    /// Mutable pixel accessor.
    #[inline]
    pub fn at_mut(&mut self, x: u32, y: u32) -> &mut [f32; 4] {
        &mut self.pixels[(y * self.width + x) as usize]
    }

    /// Fraction of pixels with any opacity — a cheap "did we draw
    /// something sensible" check used by tests.
    pub fn coverage(&self) -> f64 {
        let lit = self.pixels.iter().filter(|p| p[3] > 1e-4).count();
        lit as f64 / self.pixels.len() as f64
    }

    /// Composite `front` OVER `self` pixel-wise (both premultiplied).
    pub fn over(&mut self, front: &Image) {
        assert_eq!(self.width, front.width);
        assert_eq!(self.height, front.height);
        for (b, f) in self.pixels.iter_mut().zip(&front.pixels) {
            *b = over_px(*f, *b);
        }
    }

    /// Flatten to 8-bit RGB against a white background (the encoding the
    /// steering protocol ships to the client).
    pub fn to_rgb8(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            let a = p[3].clamp(0.0, 1.0);
            for &pc in p.iter().take(3) {
                let v = pc + (1.0 - a);
                out.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }

    /// Write as a binary PPM (P6) against a white background.
    pub fn write_ppm(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3 + 32);
        write!(out, "P6\n{} {}\n255\n", self.width, self.height)?;
        out.extend(self.to_rgb8());
        std::fs::write(path, out)
    }
}

/// The premultiplied-alpha *over* operator: `f OVER b`.
#[inline]
pub fn over_px(f: [f32; 4], b: [f32; 4]) -> [f32; 4] {
    let k = 1.0 - f[3];
    [
        f[0] + b[0] * k,
        f[1] + b[1] * k,
        f[2] + b[2] * k,
        f[3] + b[3] * k,
    ]
}

/// A partial image with per-pixel depth, as produced by one rank of the
/// sort-last volume renderer.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialImage {
    /// The RGBA content (premultiplied).
    pub image: Image,
    /// Per-pixel depth of the *nearest contribution* (f32::INFINITY
    /// where the rank contributed nothing). Used to order partials.
    pub depth: Vec<f32>,
}

impl PartialImage {
    /// A transparent partial with infinite depth.
    pub fn new(width: u32, height: u32) -> Self {
        PartialImage {
            image: Image::new(width, height),
            depth: vec![f32::INFINITY; (width * height) as usize],
        }
    }

    /// Merge another partial into this one, per pixel, ordering the two
    /// contributions by depth (near over far). Associative for
    /// non-overlapping depth ranges — the convex-brick case sort-last
    /// compositing relies on.
    pub fn merge(&mut self, other: &PartialImage) {
        assert_eq!(self.image.width, other.image.width);
        assert_eq!(self.image.height, other.image.height);
        for i in 0..self.image.pixels.len() {
            let (a, da) = (self.image.pixels[i], self.depth[i]);
            let (b, db) = (other.image.pixels[i], other.depth[i]);
            let (front, back, dmin) = if da <= db { (a, b, da) } else { (b, a, db) };
            self.image.pixels[i] = over_px(front, back);
            self.depth[i] = dmin;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_with_opaque_front_hides_back() {
        let f = [0.8, 0.1, 0.1, 1.0];
        let b = [0.0, 1.0, 0.0, 1.0];
        assert_eq!(over_px(f, b), f);
    }

    #[test]
    fn over_with_transparent_front_is_identity() {
        let b = [0.2, 0.3, 0.4, 0.9];
        assert_eq!(over_px([0.0; 4], b), b);
    }

    #[test]
    fn over_is_associative() {
        let a = [0.3, 0.0, 0.0, 0.4];
        let b = [0.0, 0.25, 0.0, 0.5];
        let c = [0.0, 0.0, 0.2, 0.6];
        let left = over_px(over_px(a, b), c);
        let right = over_px(a, over_px(b, c));
        for i in 0..4 {
            assert!((left[i] - right[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn partial_merge_orders_by_depth() {
        let mut near = PartialImage::new(1, 1);
        near.image.pixels[0] = [1.0, 0.0, 0.0, 1.0];
        near.depth[0] = 1.0;
        let mut far = PartialImage::new(1, 1);
        far.image.pixels[0] = [0.0, 1.0, 0.0, 1.0];
        far.depth[0] = 5.0;
        // Merging in either order gives the same (near wins) result.
        let mut m1 = near.clone();
        m1.merge(&far);
        let mut m2 = far.clone();
        m2.merge(&near);
        assert_eq!(m1.image.pixels[0], [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(m2.image.pixels[0], [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(m1.depth[0], 1.0);
        assert_eq!(m2.depth[0], 1.0);
    }

    #[test]
    fn ppm_output_has_correct_size() {
        let img = Image::new(7, 3);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hemelb_ppm_test_{}.ppm", std::process::id()));
        img.write_ppm(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P6\n7 3\n255\n"));
        assert_eq!(data.len(), b"P6\n7 3\n255\n".len() + 7 * 3 * 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coverage_counts_lit_pixels() {
        let mut img = Image::new(2, 2);
        assert_eq!(img.coverage(), 0.0);
        *img.at_mut(0, 0) = [0.1, 0.0, 0.0, 0.5];
        assert_eq!(img.coverage(), 0.25);
    }
}

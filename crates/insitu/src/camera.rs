//! Pinhole camera: ray generation for the volume renderer and point
//! projection for the line renderer.

use hemelb_geometry::Vec3;
use hemelb_obs::Fnv1a;
use serde::{Deserialize, Serialize};

/// A look-at pinhole camera.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Eye position (lattice units).
    pub eye: Vec3,
    /// Point looked at.
    pub target: Vec3,
    /// Up hint (not necessarily orthogonal to the view direction).
    pub up: Vec3,
    /// Vertical field of view, radians.
    pub fov_y: f64,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
}

impl Camera {
    /// A camera framing the axis-aligned box `[lo, hi]`, looking along
    /// `-view_dir` from far enough away to see everything.
    pub fn framing(lo: Vec3, hi: Vec3, view_dir: Vec3, width: u32, height: u32) -> Self {
        let centre = (lo + hi) * 0.5;
        let radius = (hi - lo).norm() * 0.5;
        let fov_y = 45f64.to_radians();
        let dist = radius / (fov_y / 2.0).tan() * 1.2;
        let dir = view_dir.normalised();
        Camera {
            eye: centre + dir * dist,
            target: centre,
            up: if dir.cross(Vec3::new(0.0, 0.0, 1.0)).norm() > 1e-6 {
                Vec3::new(0.0, 0.0, 1.0)
            } else {
                Vec3::new(0.0, 1.0, 0.0)
            },
            fov_y,
            width,
            height,
        }
    }

    /// Orthonormal camera basis `(right, up, forward)`.
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let forward = (self.target - self.eye).normalised();
        let right = forward.cross(self.up).normalised();
        let up = right.cross(forward);
        (right, up, forward)
    }

    /// The world-space ray through pixel `(px, py)` (pixel centres).
    /// Returns `(origin, unit direction)`.
    pub fn ray(&self, px: u32, py: u32) -> (Vec3, Vec3) {
        let (right, up, forward) = self.basis();
        let aspect = self.width as f64 / self.height as f64;
        let tan_half = (self.fov_y / 2.0).tan();
        // NDC in [-1, 1] with y up.
        let x = (2.0 * (px as f64 + 0.5) / self.width as f64 - 1.0) * tan_half * aspect;
        let y = (1.0 - 2.0 * (py as f64 + 0.5) / self.height as f64) * tan_half;
        let dir = (forward + right * x + up * y).normalised();
        (self.eye, dir)
    }

    /// FNV-1a hash over the exact bit patterns of every camera
    /// parameter. Two cameras hash equal iff they produce identical
    /// rays, so the steering gateway can key its rendered-frame cache
    /// on this without ever comparing floats for "closeness".
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for v in [self.eye, self.target, self.up] {
            h.u64(v.x.to_bits());
            h.u64(v.y.to_bits());
            h.u64(v.z.to_bits());
        }
        h.u64(self.fov_y.to_bits());
        h.u64(self.width as u64);
        h.u64(self.height as u64);
        h.finish()
    }

    /// Project a world point to pixel coordinates and view depth.
    /// Returns `None` behind the eye.
    pub fn project(&self, p: Vec3) -> Option<(f64, f64, f64)> {
        let (right, up, forward) = self.basis();
        let rel = p - self.eye;
        let depth = rel.dot(forward);
        if depth <= 1e-9 {
            return None;
        }
        let tan_half = (self.fov_y / 2.0).tan();
        let aspect = self.width as f64 / self.height as f64;
        let x = rel.dot(right) / (depth * tan_half * aspect);
        let y = rel.dot(up) / (depth * tan_half);
        let px = (x + 1.0) / 2.0 * self.width as f64;
        let py = (1.0 - y) / 2.0 * self.height as f64;
        Some((px, py, depth))
    }
}

/// Ray / axis-aligned-box intersection: `Some((t_near, t_far))` with
/// `t_far >= t_near.max(0)` when the ray hits `[lo, hi]`.
pub fn ray_box(origin: Vec3, dir: Vec3, lo: Vec3, hi: Vec3) -> Option<(f64, f64)> {
    let mut t0 = 0.0f64;
    let mut t1 = f64::INFINITY;
    for a in 0..3 {
        let (o, d, l, h) = match a {
            0 => (origin.x, dir.x, lo.x, hi.x),
            1 => (origin.y, dir.y, lo.y, hi.y),
            _ => (origin.z, dir.z, lo.z, hi.z),
        };
        if d.abs() < 1e-12 {
            if o < l || o > h {
                return None;
            }
        } else {
            let ta = (l - o) / d;
            let tb = (h - o) / d;
            let (near, far) = if ta < tb { (ta, tb) } else { (tb, ta) };
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
    }
    Some((t0, t1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cam() -> Camera {
        Camera::framing(
            Vec3::ZERO,
            Vec3::new(32.0, 16.0, 16.0),
            Vec3::new(0.0, -1.0, 0.0),
            64,
            48,
        )
    }

    #[test]
    fn basis_is_orthonormal() {
        let (r, u, f) = demo_cam().basis();
        for v in [r, u, f] {
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
        assert!(r.dot(u).abs() < 1e-12);
        assert!(r.dot(f).abs() < 1e-12);
        assert!(u.dot(f).abs() < 1e-12);
    }

    #[test]
    fn centre_pixel_ray_points_at_target() {
        let cam = demo_cam();
        let (_, dir) = cam.ray(cam.width / 2, cam.height / 2);
        let to_target = (cam.target - cam.eye).normalised();
        assert!(dir.dot(to_target) > 0.999, "centre ray ≈ view axis");
    }

    #[test]
    fn project_inverts_ray() {
        let cam = demo_cam();
        for (px, py) in [(10u32, 7u32), (40, 30), (0, 0), (63, 47)] {
            let (o, d) = cam.ray(px, py);
            let p = o + d * 25.0;
            let (qx, qy, depth) = cam.project(p).unwrap();
            assert!((qx - (px as f64 + 0.5)).abs() < 1e-6, "{qx} vs {px}");
            assert!((qy - (py as f64 + 0.5)).abs() < 1e-6);
            assert!(depth > 0.0 && depth <= 25.0 + 1e-9);
        }
    }

    #[test]
    fn points_behind_eye_do_not_project() {
        let cam = demo_cam();
        let (_, _, f) = cam.basis();
        assert!(cam.project(cam.eye - f * 5.0).is_none());
    }

    #[test]
    fn content_hash_separates_views_and_is_stable() {
        let cam = demo_cam();
        assert_eq!(cam.content_hash(), demo_cam().content_hash());
        let mut moved = cam;
        moved.eye.x += 1e-12; // even sub-visual nudges are a new view
        assert_ne!(cam.content_hash(), moved.content_hash());
        let mut resized = cam;
        resized.width += 1;
        assert_ne!(cam.content_hash(), resized.content_hash());
    }

    #[test]
    fn ray_box_hits_and_misses() {
        let lo = Vec3::ZERO;
        let hi = Vec3::new(4.0, 4.0, 4.0);
        // Straight through the middle.
        let hit = ray_box(Vec3::new(-1.0, 2.0, 2.0), Vec3::new(1.0, 0.0, 0.0), lo, hi);
        let (t0, t1) = hit.unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 5.0).abs() < 1e-12);
        // Parallel miss.
        assert!(ray_box(Vec3::new(-1.0, 5.0, 2.0), Vec3::new(1.0, 0.0, 0.0), lo, hi).is_none());
        // From inside: t0 clamps to 0.
        let (t0, t1) = ray_box(Vec3::new(2.0, 2.0, 2.0), Vec3::new(0.0, 0.0, 1.0), lo, hi).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 2.0).abs() < 1e-12);
    }
}

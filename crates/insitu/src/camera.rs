//! Pinhole camera: ray generation for the volume renderer and point
//! projection for the line renderer.

use hemelb_geometry::Vec3;
use std::ops::Range;

/// A look-at pinhole camera.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Everything about this view that does not depend on the pixel,
    /// computed once: hoist it out of any per-pixel or per-point loop.
    pub fn ray_generator(&self) -> RayGenerator {
        let (right, up, forward) = self.basis();
        RayGenerator {
            eye: self.eye,
            right,
            up,
            forward,
            tan_half: (self.fov_y / 2.0).tan(),
            aspect: self.width as f64 / self.height as f64,
            width: self.width,
            height: self.height,
        }
    }

    /// The world-space ray through pixel `(px, py)` (pixel centres).
    /// Returns `(origin, unit direction)`. One ray only: a loop takes
    /// [`Camera::ray_generator`] once instead.
    pub fn ray(&self, px: u32, py: u32) -> (Vec3, Vec3) {
        self.ray_generator().ray(px, py)
    }

    /// Project a world point to pixel coordinates and view depth.
    /// Returns `None` behind the eye. One point only: a loop takes
    /// [`Camera::ray_generator`] once instead.
    pub fn project(&self, p: Vec3) -> Option<(f64, f64, f64)> {
        self.ray_generator().project(p)
    }
}

/// A [`Camera`]'s per-frame constants — basis, `tan(fov_y / 2)`, aspect
/// — and the one formula each for pixel → ray and point → pixel.
#[derive(Debug, Clone, Copy)]
pub struct RayGenerator {
    eye: Vec3,
    right: Vec3,
    up: Vec3,
    forward: Vec3,
    tan_half: f64,
    aspect: f64,
    width: u32,
    height: u32,
}

impl RayGenerator {
    /// Unit view direction.
    pub fn forward(&self) -> Vec3 {
        self.forward
    }

    /// The world-space ray through pixel `(px, py)` (pixel centres).
    /// Returns `(origin, unit direction)`.
    pub fn ray(&self, px: u32, py: u32) -> (Vec3, Vec3) {
        // NDC in [-1, 1] with y up.
        let x = (2.0 * (px as f64 + 0.5) / self.width as f64 - 1.0) * self.tan_half * self.aspect;
        let y = (1.0 - 2.0 * (py as f64 + 0.5) / self.height as f64) * self.tan_half;
        let dir = (self.forward + self.right * x + self.up * y).normalised();
        (self.eye, dir)
    }

    /// Project a world point to pixel coordinates and view depth.
    /// Returns `None` behind the eye.
    pub fn project(&self, p: Vec3) -> Option<(f64, f64, f64)> {
        let rel = p - self.eye;
        let depth = rel.dot(self.forward);
        if depth <= 1e-9 {
            return None;
        }
        let x = rel.dot(self.right) / (depth * self.tan_half * self.aspect);
        let y = rel.dot(self.up) / (depth * self.tan_half);
        let px = (x + 1.0) / 2.0 * self.width as f64;
        let py = (1.0 - y) / 2.0 * self.height as f64;
        Some((px, py, depth))
    }

    /// A pixel rectangle `(columns, rows)` outside which no ray of this
    /// view can hit the box `[lo, hi]`: the bounds of the eight
    /// projected corners, widened by a pixel each way and clipped to
    /// the image (so it may be empty). A box wholly in front of the eye
    /// projects inside the hull of its corners; when a corner is behind
    /// the eye plane (the eye is in or beside the box) or projects to
    /// something not finite, the rectangle is the whole image.
    pub fn box_pixel_bounds(&self, lo: Vec3, hi: Vec3) -> (Range<u32>, Range<u32>) {
        let whole = (0..self.width, 0..self.height);
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for x in [lo.x, hi.x] {
            for y in [lo.y, hi.y] {
                for z in [lo.z, hi.z] {
                    match self.project(Vec3::new(x, y, z)) {
                        Some((px, py, _)) if px.is_finite() && py.is_finite() => {
                            min_x = min_x.min(px);
                            max_x = max_x.max(px);
                            min_y = min_y.min(py);
                            max_y = max_y.max(py);
                        }
                        _ => return whole,
                    }
                }
            }
        }
        // Pixel `k` is needed iff its centre `k + 0.5` lies in
        // `[min, max]`; floor − 1 and ceil + 1 leave at least half a
        // pixel of slack against ~1e-12 of projection rounding.
        let span = |min: f64, max: f64, n: u32| {
            let n = n as f64;
            (min.floor() - 1.0).clamp(0.0, n) as u32..(max.ceil() + 1.0).clamp(0.0, n) as u32
        };
        (
            span(min_x, max_x, self.width),
            span(min_y, max_y, self.height),
        )
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

    /// The per-call formulas as they stood before the generator
    /// (basis, `tan`, aspect rebuilt for every pixel and point), kept
    /// verbatim: hoisting must not move a bit.
    fn ray_before(cam: &Camera, px: u32, py: u32) -> (Vec3, Vec3) {
        let (right, up, forward) = cam.basis();
        let aspect = cam.width as f64 / cam.height as f64;
        let tan_half = (cam.fov_y / 2.0).tan();
        let x = (2.0 * (px as f64 + 0.5) / cam.width as f64 - 1.0) * tan_half * aspect;
        let y = (1.0 - 2.0 * (py as f64 + 0.5) / cam.height as f64) * tan_half;
        (cam.eye, (forward + right * x + up * y).normalised())
    }

    fn project_before(cam: &Camera, p: Vec3) -> Option<(f64, f64, f64)> {
        let (right, up, forward) = cam.basis();
        let rel = p - cam.eye;
        let depth = rel.dot(forward);
        if depth <= 1e-9 {
            return None;
        }
        let tan_half = (cam.fov_y / 2.0).tan();
        let aspect = cam.width as f64 / cam.height as f64;
        let x = rel.dot(right) / (depth * tan_half * aspect);
        let y = rel.dot(up) / (depth * tan_half);
        let px = (x + 1.0) / 2.0 * cam.width as f64;
        let py = (1.0 - y) / 2.0 * cam.height as f64;
        Some((px, py, depth))
    }

    #[test]
    fn generator_returns_the_bits_the_per_call_formulas_did() {
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let mut cams = vec![demo_cam()];
        cams.push(Camera {
            eye: Vec3::new(-13.7, 41.2, 9.9),
            target: Vec3::new(3.0, -2.5, 7.25),
            up: Vec3::new(0.1, 0.2, 1.0),
            fov_y: 0.61,
            width: 257,
            height: 191,
        });
        for cam in cams {
            let gen = cam.ray_generator();
            for py in (0..cam.height).step_by(7) {
                for px in (0..cam.width).step_by(5) {
                    let (o, d) = ray_before(&cam, px, py);
                    for (o2, d2) in [cam.ray(px, py), gen.ray(px, py)] {
                        assert_eq!(bits(o), bits(o2));
                        assert_eq!(bits(d), bits(d2), "pixel ({px}, {py})");
                    }
                    for t in [-3.0, 1e-10, 0.37, 25.0, 4e3] {
                        let p = o + d * t + Vec3::new(0.3, -0.2, 0.1);
                        let want =
                            project_before(&cam, p).map(|(x, y, z)| bits(Vec3::new(x, y, z)));
                        for got in [cam.project(p), gen.project(p)] {
                            assert_eq!(want, got.map(|(x, y, z)| bits(Vec3::new(x, y, z))));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn box_pixel_bounds_contain_every_hit_and_fall_back_near_the_eye() {
        let cam = demo_cam();
        let gen = cam.ray_generator();
        let hits_outside = |lo: Vec3, hi: Vec3| {
            let (cols, rows) = gen.box_pixel_bounds(lo, hi);
            (0..cam.height)
                .flat_map(|py| (0..cam.width).map(move |px| (px, py)))
                .filter(|&(px, py)| {
                    let (o, d) = gen.ray(px, py);
                    ray_box(o, d, lo, hi).is_some() && !(cols.contains(&px) && rows.contains(&py))
                })
                .count()
        };
        // In view, smaller than the image: a proper sub-rectangle.
        let (lo, hi) = (Vec3::new(10.0, 4.0, 6.0), Vec3::new(14.0, 9.0, 9.0));
        let (cols, rows) = gen.box_pixel_bounds(lo, hi);
        assert!(!cols.is_empty() && cols.len() < cam.width as usize);
        assert!(!rows.is_empty() && rows.len() < cam.height as usize);
        assert_eq!(hits_outside(lo, hi), 0);
        // Straddling the image edge, and wholly beside it.
        assert_eq!(
            hits_outside(Vec3::new(-40.0, 0.0, 0.0), Vec3::new(4.0, 9.0, 9.0)),
            0
        );
        let beside = gen.box_pixel_bounds(Vec3::new(400.0, 0.0, 0.0), Vec3::new(410.0, 9.0, 9.0));
        assert!(beside.0.is_empty());
        // The eye inside the box, and a box reaching behind the eye
        // plane: the whole image.
        let whole = (0..cam.width, 0..cam.height);
        let r = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(gen.box_pixel_bounds(cam.eye - r, cam.eye + r), whole);
        let behind = cam.eye - gen.forward() * 5.0;
        assert_eq!(gen.box_pixel_bounds(behind - r, cam.target + r), whole);
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

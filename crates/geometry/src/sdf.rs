//! Signed-distance primitives and CSG combinators.
//!
//! Vessel shapes are described as signed-distance functions (negative
//! inside the lumen). The voxeliser only needs an inside/outside oracle
//! plus approximate distances near the surface, so the usual "bound, not
//! exact" caveats of CSG min/max distances are acceptable.

use crate::vec3::Vec3;

/// A signed-distance field: `distance(p) < 0` means `p` is inside.
pub trait Sdf: Send + Sync {
    /// Signed distance (or a conservative bound of it) from `p` to the
    /// surface; negative inside.
    fn distance(&self, p: Vec3) -> f64;

    /// Whether `p` lies strictly inside.
    fn contains(&self, p: Vec3) -> bool {
        self.distance(p) < 0.0
    }
}

/// A solid sphere.
#[derive(Debug, Clone, Copy)]
pub struct Sphere {
    /// Centre.
    pub centre: Vec3,
    /// Radius.
    pub radius: f64,
}

impl Sdf for Sphere {
    fn distance(&self, p: Vec3) -> f64 {
        (p - self.centre).norm() - self.radius
    }
}

/// A finite capped cylinder from `a` to `b` with the given radius.
#[derive(Debug, Clone, Copy)]
pub struct Capsule {
    /// One end of the axis.
    pub a: Vec3,
    /// Other end of the axis.
    pub b: Vec3,
    /// Radius.
    pub radius: f64,
    /// If true the ends are hemispherical caps (a capsule); if false the
    /// cylinder is cut flat at `a` and `b`.
    pub rounded: bool,
}

impl Capsule {
    /// A flat-ended cylinder (open vessel segment).
    pub fn tube(a: Vec3, b: Vec3, radius: f64) -> Self {
        Capsule {
            a,
            b,
            radius,
            rounded: false,
        }
    }

    /// A hemispherically capped capsule.
    pub fn rounded(a: Vec3, b: Vec3, radius: f64) -> Self {
        Capsule {
            a,
            b,
            radius,
            rounded: true,
        }
    }
}

impl Sdf for Capsule {
    fn distance(&self, p: Vec3) -> f64 {
        let ab = self.b - self.a;
        let len2 = ab.norm2();
        let t_raw = if len2 == 0.0 {
            0.0
        } else {
            (p - self.a).dot(ab) / len2
        };
        if self.rounded {
            let t = t_raw.clamp(0.0, 1.0);
            let closest = self.a + ab * t;
            (p - closest).norm() - self.radius
        } else {
            // Distance to an infinite cylinder, intersected with the slab
            // between the two cap planes (exact for points beside the
            // tube, a bound near edges — fine for voxelisation).
            let axis_point = self.a + ab * t_raw;
            let radial = (p - axis_point).norm() - self.radius;
            let cap = if t_raw < 0.0 {
                -t_raw * len2.sqrt()
            } else if t_raw > 1.0 {
                (t_raw - 1.0) * len2.sqrt()
            } else {
                // Negative distance to the nearer cap plane.
                -(t_raw.min(1.0 - t_raw)) * len2.sqrt()
            };
            radial.max(cap)
        }
    }
}

/// A torus segment (circular-arc bend) lying in the plane spanned by `u`
/// and `v` about `centre`; the tube sweeps the arc from angle 0 to
/// `arc_radians`.
#[derive(Debug, Clone)]
pub struct TorusArc {
    /// Centre of the arc circle.
    pub centre: Vec3,
    /// First in-plane unit axis (angle 0 direction).
    pub u: Vec3,
    /// Second in-plane unit axis (angle π/2 direction).
    pub v: Vec3,
    /// Radius of the arc circle (bend radius).
    pub major_radius: f64,
    /// Radius of the swept tube (vessel radius).
    pub minor_radius: f64,
    /// Arc extent in radians, from 0 to `arc_radians`.
    pub arc_radians: f64,
}

impl Sdf for TorusArc {
    fn distance(&self, p: Vec3) -> f64 {
        let rel = p - self.centre;
        let x = rel.dot(self.u);
        let y = rel.dot(self.v);
        let theta = y.atan2(x);
        let theta_clamped = theta.clamp(0.0, self.arc_radians);
        let ring_point = self.centre
            + (self.u * theta_clamped.cos() + self.v * theta_clamped.sin()) * self.major_radius;
        (p - ring_point).norm() - self.minor_radius
    }
}

/// CSG union of a set of shapes: distance is the minimum of the parts.
pub struct Union {
    parts: Vec<Box<dyn Sdf>>,
}

impl Union {
    /// An empty union (contains nothing: distance +∞).
    pub fn new() -> Self {
        Union { parts: Vec::new() }
    }

    /// Add a shape to the union.
    pub fn add(&mut self, s: impl Sdf + 'static) -> &mut Self {
        self.parts.push(Box::new(s));
        self
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the union has no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Default for Union {
    fn default() -> Self {
        Self::new()
    }
}

impl Sdf for Union {
    fn distance(&self, p: Vec3) -> f64 {
        self.parts
            .iter()
            .map(|s| s.distance(p))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_distance_signs() {
        let s = Sphere {
            centre: Vec3::new(1.0, 2.0, 3.0),
            radius: 2.0,
        };
        assert!(s.contains(Vec3::new(1.0, 2.0, 3.0)));
        assert!(s.contains(Vec3::new(2.5, 2.0, 3.0)));
        assert!(!s.contains(Vec3::new(4.0, 2.0, 3.0)));
        assert!((s.distance(Vec3::new(1.0, 2.0, 6.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tube_contains_axis_not_outside() {
        let t = Capsule::tube(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0), 1.5);
        assert!(t.contains(Vec3::new(5.0, 0.0, 0.0)));
        assert!(t.contains(Vec3::new(5.0, 1.0, 0.0)));
        assert!(!t.contains(Vec3::new(5.0, 2.0, 0.0)));
        // Beyond the flat caps:
        assert!(!t.contains(Vec3::new(-0.5, 0.0, 0.0)));
        assert!(!t.contains(Vec3::new(10.5, 0.0, 0.0)));
    }

    #[test]
    fn rounded_capsule_extends_past_ends() {
        let t = Capsule::rounded(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0), 1.5);
        assert!(t.contains(Vec3::new(-1.0, 0.0, 0.0)));
        assert!(t.contains(Vec3::new(11.0, 0.0, 0.0)));
        assert!(!t.contains(Vec3::new(-2.0, 0.0, 0.0)));
    }

    #[test]
    fn torus_arc_quarter_bend() {
        // Quarter bend of radius 10, tube radius 1, in the xy-plane.
        let arc = TorusArc {
            centre: Vec3::ZERO,
            u: Vec3::new(1.0, 0.0, 0.0),
            v: Vec3::new(0.0, 1.0, 0.0),
            major_radius: 10.0,
            minor_radius: 1.0,
            arc_radians: std::f64::consts::FRAC_PI_2,
        };
        // On the ring at angle 0 and at 90°:
        assert!(arc.contains(Vec3::new(10.0, 0.0, 0.0)));
        assert!(arc.contains(Vec3::new(0.0, 10.0, 0.0)));
        // Mid-arc (45°):
        let m = std::f64::consts::FRAC_PI_4;
        assert!(arc.contains(Vec3::new(10.0 * m.cos(), 10.0 * m.sin(), 0.0)));
        // Past the arc end (angle 180°) the tube is absent:
        assert!(!arc.contains(Vec3::new(-10.0, 0.0, 0.0)));
        // Centre of the bend circle is far from the tube:
        assert!(!arc.contains(Vec3::ZERO));
    }

    #[test]
    fn union_is_min_of_parts() {
        let mut u = Union::new();
        u.add(Sphere {
            centre: Vec3::ZERO,
            radius: 1.0,
        });
        u.add(Sphere {
            centre: Vec3::new(5.0, 0.0, 0.0),
            radius: 1.0,
        });
        assert!(u.contains(Vec3::ZERO));
        assert!(u.contains(Vec3::new(5.0, 0.0, 0.0)));
        assert!(!u.contains(Vec3::new(2.5, 0.0, 0.0)));
        assert!(Union::new().distance(Vec3::ZERO).is_infinite());
    }
}

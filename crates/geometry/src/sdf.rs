//! Signed-distance primitives and CSG combinators.
//!
//! Vessel shapes are described as signed-distance functions (negative
//! inside the lumen). Primitives and the union may bound the distance
//! rather than give it exactly, but every one is 1-Lipschitz, which is
//! all the voxeliser needs of a distance (see [`Sdf`]).

use crate::vec3::Vec3;

/// A signed-distance field: `distance(p) < 0` means `p` is inside.
///
/// The contract: `distance` is 1-Lipschitz (`|d(p) − d(q)| ≤ |p − q|`)
/// and `contains(p)` is `distance(p) < 0`, which no implementation
/// overrides. The voxeliser decides whole blocks of cells by this rule
/// from one distance at each block's centre.
pub trait Sdf: Send + Sync {
    /// Signed distance (or a 1-Lipschitz bound of it) from `p` to the
    /// surface; negative inside.
    fn distance(&self, p: Vec3) -> f64;

    /// Whether `p` lies strictly inside: `distance(p) < 0`.
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
        let (x, y) = (rel.dot(self.u), rel.dot(self.v));
        let theta = y.atan2(x).rem_euclid(std::f64::consts::TAU);
        let ring_distance = |t: f64| {
            (p - (self.centre + (self.u * t.cos() + self.v * t.sin()) * self.major_radius)).norm()
        };
        // Past the arc its nearest point is the nearer of its two ends.
        let nearest = if theta <= self.arc_radians {
            ring_distance(theta)
        } else {
            ring_distance(0.0).min(ring_distance(self.arc_radians))
        };
        nearest - self.minor_radius
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
    use proptest::prelude::*;

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

    /// The bend's distance before its fix: the signed angle clamped to
    /// the arc, which jumps between the two ends across θ = ±π.
    fn clamped_torus_distance(arc: &TorusArc, p: Vec3) -> f64 {
        let rel = p - arc.centre;
        let theta = rel.dot(arc.v).atan2(rel.dot(arc.u));
        let t = theta.clamp(0.0, arc.arc_radians);
        let ring_point = arc.centre + (arc.u * t.cos() + arc.v * t.sin()) * arc.major_radius;
        (p - ring_point).norm() - arc.minor_radius
    }

    fn bend_arc(major: f64, minor: f64) -> TorusArc {
        TorusArc {
            centre: Vec3::ZERO,
            u: Vec3::new(1.0, 0.0, 0.0),
            v: Vec3::new(0.0, 1.0, 0.0),
            major_radius: major,
            minor_radius: minor,
            arc_radians: std::f64::consts::FRAC_PI_2,
        }
    }

    /// The nearest-end rule moves no cell centre of the bends in use
    /// across the surface: every centre of their voxel boxes keeps the
    /// sign the clamped angle gave it.
    #[test]
    fn nearest_end_keeps_every_bend_cell_on_its_side() {
        for (major, minor) in [(12.0, 3.0), (14.0, 3.0), (14.0, 4.0), (8.0, 2.5)] {
            let arc = bend_arc(major, minor);
            let (lo, hi) = crate::vessels::VesselBuilder::bend(major, minor).bounds();
            for dx in [1.0, 0.7, 0.5, 0.25] {
                let n = ((hi - lo) / dx).to_array().map(|e| e.ceil() as usize);
                for x in 0..n[0] {
                    for y in 0..n[1] {
                        for z in 0..n[2] {
                            let p =
                                lo + Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5) * dx;
                            assert_eq!(
                                arc.contains(p),
                                clamped_torus_distance(&arc, p) < 0.0,
                                "bend ({major}, {minor}) at dx {dx}, {p:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torus_distance_is_continuous_across_the_far_side() {
        let arc = bend_arc(10.0, 1.0);
        for z in [0.0, 0.5, 3.0] {
            let above = arc.distance(Vec3::new(-10.0, 1e-9, z));
            let below = arc.distance(Vec3::new(-10.0, -1e-9, z));
            assert!((above - below).abs() <= 2e-9, "{above} vs {below}");
            let jump = clamped_torus_distance(&arc, Vec3::new(-10.0, 1e-9, z))
                - clamped_torus_distance(&arc, Vec3::new(-10.0, -1e-9, z));
            assert!(jump.abs() > 1.0, "the clamped angle jumps: {jump}");
        }
    }

    fn point(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }

    /// The shapes the Lipschitz property is checked on: a sphere, both
    /// capsule kinds along x from 0 to 10, the quarter bend of radius 10
    /// about the origin in the xy-plane, and their union.
    fn lipschitz_shapes() -> Vec<Box<dyn Sdf>> {
        let a = Vec3::ZERO;
        let b = Vec3::new(10.0, 0.0, 0.0);
        let mut union = Union::new();
        union.add(Capsule::tube(a, b, 1.5));
        union.add(Sphere {
            centre: Vec3::new(5.0, 0.0, 2.0),
            radius: 2.0,
        });
        union.add(bend_arc(10.0, 1.0));
        vec![
            Box::new(Sphere {
                centre: Vec3::new(1.0, -2.0, 0.5),
                radius: 3.0,
            }),
            Box::new(Capsule::tube(a, b, 1.5)),
            Box::new(Capsule::rounded(a, b, 1.5)),
            Box::new(bend_arc(10.0, 1.0)),
            Box::new(union),
        ]
    }

    fn assert_lipschitz(p: Vec3, q: Vec3) -> Result<(), TestCaseError> {
        for (i, shape) in lipschitz_shapes().iter().enumerate() {
            let (dp, dq) = (shape.distance(p), shape.distance(q));
            let bound = (p - q).norm() * (1.0 + 1e-12) + 1e-12;
            prop_assert!(
                (dp - dq).abs() <= bound,
                "shape {i}: |{dp} - {dq}| > {bound} between {p:?} and {q:?}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pairs at every distance scale, anywhere around the
        /// shapes.
        #[test]
        fn distances_are_one_lipschitz(
            p in proptest::array::uniform3(-15.0f64..15.0),
            dir in proptest::array::uniform3(-1.0f64..1.0),
            scale in -9.0f64..1.5,
        ) {
            let p = point(p);
            assert_lipschitz(p, p + point(dir) * 10f64.powf(scale))?;
        }

        /// Pairs straddling the bend's far side (θ = ±π, the −u axis),
        /// and pairs at the flat tube's cap edges (the rim circles at
        /// x = 0 and x = 10).
        #[test]
        fn distances_are_one_lipschitz_at_the_seams(
            r in 0.0f64..14.0,
            z in -3.0f64..3.0,
            eps in -6.0f64..0.0,
            rim in 0usize..2,
            phi in 0.0f64..std::f64::consts::TAU,
            off in proptest::array::uniform3(-1.0f64..1.0),
        ) {
            let h = 10f64.powf(eps);
            assert_lipschitz(Vec3::new(-r, h, z), Vec3::new(-r, -h, z))?;
            let edge = Vec3::new(10.0 * rim as f64, 1.5 * phi.cos(), 1.5 * phi.sin());
            assert_lipschitz(edge + point(off) * h, edge - point(off) * h)?;
        }
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

//! Continuous sampling of the sparse macroscopic fields.
//!
//! The renderers and tracers need field values at arbitrary points; this
//! wraps a geometry + snapshot pair with trilinear interpolation over
//! the eight surrounding cells, renormalising over the fluid subset
//! (walls contribute nothing rather than dragging values to zero).
//!
//! A tracer asks for the velocity four times an RK4 step and moves a few
//! hundredths of a cell a step, so nearly every query lands in the cell
//! the previous one was in. A `CornerProbe` keeps that cell's eight
//! corners — which of them are fluid, and their velocities — and only
//! reweights them while the particle stays; [`SampledField::velocity_at`]
//! is a probe used once. Both give the same bits: the same corners in the
//! same order, the same skip rule and the same arithmetic. A `LaneProbe`
//! is `LANES` probes side by side for the lockstep tracer, with the
//! same bits again.

use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};

/// Which scalar to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// Density ρ.
    Density,
    /// Velocity magnitude |u|.
    Speed,
    /// Shear-rate magnitude.
    Shear,
}

/// A geometry + snapshot pair, sampled continuously.
#[derive(Debug, Clone, Copy)]
pub struct SampledField<'a> {
    /// The sparse lattice.
    pub geo: &'a SparseGeometry,
    /// The field snapshot.
    pub snap: &'a FieldSnapshot,
}

impl<'a> SampledField<'a> {
    /// Pair a geometry with a snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot does not cover the geometry.
    pub fn new(geo: &'a SparseGeometry, snap: &'a FieldSnapshot) -> Self {
        assert_eq!(
            geo.fluid_count(),
            snap.len(),
            "snapshot must match geometry"
        );
        SampledField { geo, snap }
    }

    /// Whether the cell containing `p` is fluid.
    pub fn in_fluid(&self, p: Vec3) -> bool {
        nearest_site(self.geo, p).is_some()
    }

    /// Trilinearly interpolated velocity at `p`; `None` if none of the
    /// surrounding cells are fluid.
    pub fn velocity_at(&self, p: Vec3) -> Option<[f64; 3]> {
        self.probe().velocity_at(p)
    }

    /// A probe for one particle, to be asked at its successive positions.
    pub(crate) fn probe(&self) -> CornerProbe<'a> {
        CornerProbe {
            field: *self,
            lo: [f64::NAN; 3],
            fluid: 0,
            u: [[0.0; 3]; 8],
        }
    }

    /// Which corners `c = 4·dx + 2·dy + dz` of `cell` are fluid (bit
    /// `c`), and their velocities (zero at the others).
    #[inline(never)]
    fn corners(&self, cell: [i64; 3]) -> (u8, [[f64; 3]; 8]) {
        let mut fluid = 0;
        let mut u = [[0.0; 3]; 8];
        for (c, u) in u.iter_mut().enumerate() {
            let at = |axis: usize, bit: usize| cell[axis].saturating_add(((c >> bit) & 1) as i64);
            if let Some(site) = self.geo.site_at(at(0, 2), at(1, 1), at(2, 0)) {
                fluid |= 1 << c;
                *u = self.snap.u[site as usize];
            }
        }
        (fluid, u)
    }

    /// Scalar range over all sites — used to calibrate transfer
    /// functions.
    pub fn scalar_range(&self, which: Scalar) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.snap.len() {
            let v = match which {
                Scalar::Density => self.snap.rho[i],
                Scalar::Speed => self.snap.speed(i),
                Scalar::Shear => self.snap.shear[i],
            };
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// The velocity sampler of one particle: the corners of the cell it was
/// last asked about, kept until a query lands in another cell.
#[derive(Debug, Clone)]
pub(crate) struct CornerProbe<'a> {
    field: SampledField<'a>,
    /// Lowest corner of the loaded cell (NaN before the first query). It
    /// came from `floor_i64` of an `f64`, so it converts back exactly, and
    /// `lo ≤ x < lo + 1` holds exactly when `floor(x) = lo`.
    lo: [f64; 3],
    /// Bit `c` set iff corner `c = 4·dx + 2·dy + dz` is fluid.
    fluid: u8,
    /// Velocity at each fluid corner.
    u: [[f64; 3]; 8],
}

impl CornerProbe<'_> {
    /// [`SampledField::velocity_at`], bit for bit.
    #[inline(always)]
    pub(crate) fn velocity_at(&mut self, p: Vec3) -> Option<[f64; 3]> {
        let lo = self.lo;
        let inside = |x: f64, lo: f64| lo <= x && x < lo + 1.0;
        if !(inside(p.x, lo[0]) && inside(p.y, lo[1]) && inside(p.z, lo[2])) {
            let cell = [p.x, p.y, p.z].map(floor_i64);
            self.lo = cell.map(|c| c as f64);
            (self.fluid, self.u) = self.field.corners(cell);
        }
        let (fx, fy, fz) = (p.x - self.lo[0], p.y - self.lo[1], p.z - self.lo[2]);
        let (wx, wy, wz) = ([1.0 - fx, fx], [1.0 - fy, fy], [1.0 - fz, fz]);
        let wxy = [wx[0] * wy[0], wx[0] * wy[1], wx[1] * wy[0], wx[1] * wy[1]];
        let w: [f64; 8] = std::array::from_fn(|c| wxy[c >> 1] * wz[c & 1]);
        // Inside the lumen every corner is fluid and weighs something:
        // the same sum in the same order, without a branch per corner.
        let (acc, wsum) = if self.fluid == 0xFF && w.iter().all(|&w| weighs(w)) {
            weighted_sum(self.u.iter().zip(&w))
        } else {
            partial_sum(self.fluid, &self.u, &w)
        };
        if wsum <= 1e-12 {
            None
        } else {
            Some([acc[0] / wsum, acc[1] / wsum, acc[2] / wsum])
        }
    }
}

/// Particles a [`LaneProbe`] samples at once: two AVX2 registers per
/// `[f64; LANES]`. Four and sixteen read slower (EXPERIMENTS E6).
pub(crate) const LANES: usize = 8;

/// One `f64` per lane.
pub(crate) type Lanes = [f64; LANES];

/// [`LANES`] [`CornerProbe`]s in structure-of-arrays form, so that each
/// step of a query is a loop over the lanes that the compiler vectorises.
/// Lane `l` answers what a `CornerProbe` asked at the same points would:
/// it loads the same corners, applies the same skip rule and performs
/// the same operations in the same order.
pub(crate) struct LaneProbe<'a> {
    field: SampledField<'a>,
    /// `lo[axis][lane]`, as in [`CornerProbe`].
    lo: [Lanes; 3],
    /// Each lane's fluid corners, as in [`CornerProbe`].
    fluid: [u8; LANES],
    /// `u[corner][axis][lane]`, as in [`CornerProbe`].
    u: [[Lanes; 3]; 8],
}

impl<'a> LaneProbe<'a> {
    /// Probes that hold no cell yet.
    pub(crate) fn new(field: SampledField<'a>) -> Self {
        LaneProbe {
            field,
            lo: [[f64::NAN; LANES]; 3],
            fluid: [0; LANES],
            u: [[[0.0; LANES]; 3]; 8],
        }
    }

    /// `(u, found)`, the velocity at `p[axis][lane]` of every lane `l`
    /// with `live[l]`: where [`CornerProbe::velocity_at`] gives `Some(v)`,
    /// `found[l]` is set and `u[axis][l]` is `v` bit for bit. Other lanes
    /// read anything and load no cell.
    #[inline(always)]
    pub(crate) fn velocity_at(
        &mut self,
        p: &[Lanes; 3],
        live: &[bool; LANES],
    ) -> ([Lanes; 3], [bool; LANES]) {
        let mut moved = [false; LANES];
        for l in 0..LANES {
            let mut stay = true;
            for (p, lo) in p.iter().zip(&self.lo) {
                stay &= (lo[l] <= p[l]) & (p[l] < lo[l] + 1.0);
            }
            moved[l] = live[l] & !stay;
        }
        if moved.contains(&true) {
            for l in 0..LANES {
                if moved[l] {
                    self.load(l, [0, 1, 2].map(|a| floor_i64(p[a][l])));
                }
            }
        }

        let mut w = [[0.0; LANES]; 8];
        let mut full = [true; LANES];
        for l in 0..LANES {
            let [fx, fy, fz] = [0, 1, 2].map(|a| p[a][l] - self.lo[a][l]);
            let (wx, wy, wz) = ([1.0 - fx, fx], [1.0 - fy, fy], [1.0 - fz, fz]);
            let wxy = [wx[0] * wy[0], wx[0] * wy[1], wx[1] * wy[0], wx[1] * wy[1]];
            for (c, w) in w.iter_mut().enumerate() {
                w[l] = wxy[c >> 1] * wz[c & 1];
                full[l] &= weighs(w[l]);
            }
            full[l] &= self.fluid[l] == 0xFF;
        }

        // Every lane takes the full sum; a lane at a wall then takes
        // the partial one in its place.
        let mut acc = [[0.0; LANES]; 3];
        let mut wsum = [0.0; LANES];
        for (u, w) in self.u.iter().zip(&w) {
            for l in 0..LANES {
                acc[0][l] += u[0][l] * w[l];
                acc[1][l] += u[1][l] * w[l];
                acc[2][l] += u[2][l] * w[l];
                wsum[l] += w[l];
            }
        }
        for l in 0..LANES {
            if live[l] && !full[l] {
                let u = self.u.map(|u| [u[0][l], u[1][l], u[2][l]]);
                let ([x, y, z], s) = partial_sum(self.fluid[l], &u, &w.map(|w| w[l]));
                (acc[0][l], acc[1][l], acc[2][l], wsum[l]) = (x, y, z, s);
            }
        }

        let mut found = [false; LANES];
        for l in 0..LANES {
            found[l] = wsum[l] > 1e-12 || wsum[l].is_nan();
            for acc in &mut acc {
                acc[l] /= wsum[l];
            }
        }
        (acc, found)
    }

    /// Load the eight corners of `cell` into lane `l`.
    #[inline(never)]
    fn load(&mut self, l: usize, cell: [i64; 3]) {
        let (fluid, u) = self.field.corners(cell);
        for (lo, c) in self.lo.iter_mut().zip(cell) {
            lo[l] = c as f64;
        }
        self.fluid[l] = fluid;
        for (lanes, u) in self.u.iter_mut().zip(u) {
            for a in 0..3 {
                lanes[a][l] = u[a];
            }
        }
    }
}

/// The sum over the fluid corners that weigh something, in corner
/// order: the cells at a wall.
#[inline(never)]
fn partial_sum(fluid: u8, u: &[[f64; 3]; 8], w: &[f64; 8]) -> ([f64; 3], f64) {
    weighted_sum(
        (u.iter().zip(w).enumerate())
            .filter(|&(c, (_, &w))| weighs(w) && fluid & (1 << c) != 0)
            .map(|(_, uw)| uw),
    )
}

/// Whether a corner of weight `w` joins the sum: the sampler has always
/// skipped `w <= 0`, which lets a NaN weight through.
#[inline(always)]
fn weighs(w: f64) -> bool {
    w > 0.0 || w.is_nan()
}

/// `(Σ u·w, Σ w)`, accumulated in iteration order from zero.
#[inline(always)]
fn weighted_sum<'u>(terms: impl Iterator<Item = (&'u [f64; 3], &'u f64)>) -> ([f64; 3], f64) {
    let mut acc = [0.0f64; 3];
    let mut wsum = 0.0;
    for (u, &w) in terms {
        acc[0] += u[0] * w;
        acc[1] += u[1] * w;
        acc[2] += u[2] * w;
        wsum += w;
    }
    (acc, wsum)
}

/// The fluid site whose cell contains `p` (the nearest lattice point).
pub(crate) fn nearest_site(geo: &SparseGeometry, p: Vec3) -> Option<u32> {
    geo.site_at(p.x.round() as i64, p.y.round() as i64, p.z.round() as i64)
}

/// `x.floor() as i64` without the call into libm that `floor` is on a
/// baseline x86-64 target: truncate, then step down where truncation
/// rounded up (negative non-integers). Equal for every input, the
/// saturating ends and NaN (→ 0) included.
#[inline]
pub(crate) fn floor_i64(x: f64) -> i64 {
    let i = x as i64;
    if (i as f64) > x {
        i.saturating_sub(1)
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn setup() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::straight_tube(16.0, 4.0).voxelise(1.0);
        let n = geo.fluid_count();
        // Velocity = position-dependent linear field: u = (x, 0, 0)·0.01.
        let u: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let p = geo.position(i as u32);
                [p[0] as f64 * 0.01, 0.0, 0.0]
            })
            .collect();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u,
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    /// The sampler as it was before the probe: eight look-ups per call,
    /// libm's `floor`.
    fn reference_velocity_at(f: &SampledField<'_>, p: Vec3) -> Option<[f64; 3]> {
        let (x0, y0, z0) = (p.x.floor() as i64, p.y.floor() as i64, p.z.floor() as i64);
        let (fx, fy, fz) = (p.x - x0 as f64, p.y - y0 as f64, p.z - z0 as f64);
        let mut acc = [0.0f64; 3];
        let mut wsum = 0.0;
        for dx in 0..2i64 {
            for dy in 0..2i64 {
                for dz in 0..2i64 {
                    let w = (if dx == 0 { 1.0 - fx } else { fx })
                        * (if dy == 0 { 1.0 - fy } else { fy })
                        * (if dz == 0 { 1.0 - fz } else { fz });
                    if w <= 0.0 {
                        continue;
                    }
                    if let Some(site) = f.geo.site_at(x0 + dx, y0 + dy, z0 + dz) {
                        let u = f.snap.u[site as usize];
                        acc[0] += u[0] * w;
                        acc[1] += u[1] * w;
                        acc[2] += u[2] * w;
                        wsum += w;
                    }
                }
            }
        }
        (wsum > 1e-12).then(|| [acc[0] / wsum, acc[1] / wsum, acc[2] / wsum])
    }

    #[test]
    fn interpolation_reproduces_linear_fields() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        // Deep inside the tube, interpolation of a linear-in-x field is
        // exact (all 8 neighbours are fluid).
        let p = Vec3::new(
            8.3,
            geo.shape()[1] as f64 / 2.0,
            geo.shape()[2] as f64 / 2.0,
        );
        let u = f.velocity_at(p).unwrap();
        assert!((u[0] - 0.083).abs() < 1e-9, "{}", u[0]);
        assert!(u[1].abs() < 1e-12);
    }

    #[test]
    fn at_cell_centres_interpolation_is_exact() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        for i in (0..geo.fluid_count() as u32).step_by(53) {
            let pos = geo.position_v(i);
            if let Some(u) = f.velocity_at(pos) {
                // Centre sample may mix neighbours only if some are
                // missing; in the bulk it must be exact.
                let expect = snap.u[i as usize];
                if geo.kind(i) == hemelb_geometry::SiteKind::Bulk {
                    assert!((u[0] - expect[0]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn far_outside_returns_none() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        assert!(f.velocity_at(Vec3::new(-50.0, 0.0, 0.0)).is_none());
    }

    /// One probe walked along random paths — small steps that stay in a
    /// cell, jumps across the box and out of it, cell faces and corners,
    /// non-finite points — answers every query with the reference's bits.
    #[test]
    fn probe_matches_the_eight_lookup_sampler_bitwise() {
        let (geo, mut snap) = setup();
        for (i, u) in snap.u.iter_mut().enumerate() {
            *u = [u[0], (i as f64 * 0.37).sin() * 0.01, -0.0];
        }
        let f = SampledField::new(&geo, &snap);
        let shape = geo.shape().map(|n| n as f64);
        let mut h = 0x9E3779B97F4A7C15u64;
        let mut unit = move || {
            h = h.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(23) ^ 0x5851F42D4C957F2D;
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let bits = |v: Option<[f64; 3]>| v.map(|u| u.map(f64::to_bits));
        let mut probe = f.probe();
        let mut p = Vec3::new(shape[0] / 2.0, shape[1] / 2.0, shape[2] / 2.0);
        let (mut queries, mut hits) = (0, 0);
        for step in 0..20_000 {
            p = match step % 50 {
                0 => Vec3::new(
                    unit() * (shape[0] + 4.0) - 2.0,
                    unit() * (shape[1] + 4.0) - 2.0,
                    unit() * (shape[2] + 4.0) - 2.0,
                ),
                1 => Vec3::new(p.x.round(), p.y.floor(), p.z.round() + 0.5),
                2 => Vec3::new(p.x, f64::NAN, p.z),
                3 => Vec3::new(f64::INFINITY, p.y, -1e300),
                _ => p + Vec3::new(unit() - 0.5, unit() - 0.5, unit() - 0.5) * 0.05,
            };
            if p.y.is_nan() || p.x.is_infinite() {
                assert_eq!(bits(probe.velocity_at(p)), bits(f.velocity_at(p)));
                p = Vec3::new(shape[0] / 2.0, shape[1] / 2.0, shape[2] / 2.0);
                continue;
            }
            let want = reference_velocity_at(&f, p);
            hits += usize::from(want.is_some());
            queries += 1;
            assert_eq!(bits(probe.velocity_at(p)), bits(want), "{p:?}");
            assert_eq!(bits(f.velocity_at(p)), bits(want), "{p:?}");
            assert_eq!(
                f.in_fluid(p),
                geo.site_at(p.x.round() as i64, p.y.round() as i64, p.z.round() as i64)
                    .is_some()
            );
        }
        assert!(
            hits > queries / 4,
            "{hits} of {queries} queries sampled fluid"
        );
    }

    #[test]
    fn floor_i64_is_floor_then_cast_for_every_input() {
        let mut probes = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0 + f64::EPSILON,
            7.999999999999999,
            -8.000000000000002,
            4503599627370495.5,
            -4503599627370495.5,
            9.3e18,
            -9.3e18,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let mut h = 0x9E3779B97F4A7C15u64;
        for _ in 0..2000 {
            h = h.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(23) ^ 0x5851F42D4C957F2D;
            probes.push((h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0);
        }
        for x in probes {
            assert_eq!(floor_i64(x), x.floor() as i64, "{x:e}");
        }
    }

    #[test]
    fn scalar_range_covers_field() {
        let (geo, snap) = setup();
        let f = SampledField::new(&geo, &snap);
        let (lo, hi) = f.scalar_range(Scalar::Speed);
        assert!(lo >= 0.0);
        assert!(hi > lo);
        let (rlo, rhi) = f.scalar_range(Scalar::Density);
        assert_eq!(rlo, 1.0);
        assert_eq!(rhi, 1.0);
    }
}

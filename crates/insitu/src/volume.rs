//! Distributed volume rendering by ray casting — the paper's favoured
//! technique: "Volume rendering … can be performed on each subdomain
//! without any data exchange with the neighbours."
//!
//! Each rank builds a dense *brick* over the bounding box of its own
//! sites, casts the camera rays that can reach that brick (those inside
//! its box's projected pixel rectangle) through it with front-to-back
//! compositing (no communication, on the rank's one thread), and the
//! partial images meet only in the sort-last compositing stage
//! ([`crate::compositing`]).
//!
//! # Empty-space skipping
//!
//! A sparse vascular geometry fills only a small fraction of its
//! bounding box, so a naive marcher spends most of its samples in
//! non-fluid (`NaN`) space. Every brick therefore carries a *macrocell
//! grid*: per 8³-voxel cell, the min/max scalar over the cell's support
//! (one voxel of overlap, because a trilinear sample at `q` touches
//! voxels `floor(q)` and `floor(q)+1`). During a render, a macrocell is
//! *skippable* when its support holds no fluid at all or when the
//! transfer function is identically zero-opacity over its (slightly
//! widened) value range. Rays jump analytically across skippable cells.
//!
//! The jump is **bit-exact**: sample positions follow the index ladder
//! `t_k = t_start + k·step` (never an accumulated `t += step`), the
//! jump target undershoots the cell's exit conservatively (landing
//! early only costs a re-test, landing late is impossible by
//! construction), and a skipped sample would have contributed exactly
//! `±0.0` to every channel — so the accelerated image equals the naive
//! one at the bit level. Tests assert this across random geometries.

use crate::camera::{ray_box, Camera};
use crate::field::{floor_i64, Scalar};
use crate::image::PartialImage;
use crate::transfer::TransferFunction;
use hemelb_core::FieldSnapshot;
use hemelb_geometry::{SparseGeometry, Vec3};

/// Macrocell edge length in voxels (`1 << MACRO_SHIFT`).
const MACRO_SHIFT: u32 = 3;
/// Voxels per macrocell edge.
pub const MACROCELL: usize = 1 << MACRO_SHIFT;

/// Per-brick min/max acceleration grid over 8³-voxel macrocells.
///
/// `cells[c] = (min, max)` over the *fluid* voxels in the cell's
/// support `[c·8, min(c·8 + 8, dims-1)]` (inclusive, one voxel of
/// overlap into the next cell). A cell whose support holds no fluid
/// stores `(∞, -∞)`.
#[derive(Debug, Clone)]
struct MacroGrid {
    mdims: [usize; 3],
    cells: Vec<(f32, f32)>,
}

impl MacroGrid {
    fn build(dims: [usize; 3], values: &[f32]) -> MacroGrid {
        let mdims = [
            dims[0].div_ceil(MACROCELL),
            dims[1].div_ceil(MACROCELL),
            dims[2].div_ceil(MACROCELL),
        ];
        let mut cells = vec![(f32::INFINITY, f32::NEG_INFINITY); mdims[0] * mdims[1] * mdims[2]];
        for cx in 0..mdims[0] {
            let x_hi = ((cx + 1) * MACROCELL).min(dims[0] - 1);
            for cy in 0..mdims[1] {
                let y_hi = ((cy + 1) * MACROCELL).min(dims[1] - 1);
                for cz in 0..mdims[2] {
                    let z_hi = ((cz + 1) * MACROCELL).min(dims[2] - 1);
                    let mut mn = f32::INFINITY;
                    let mut mx = f32::NEG_INFINITY;
                    for x in cx * MACROCELL..=x_hi {
                        for y in cy * MACROCELL..=y_hi {
                            let row = (x * dims[1] + y) * dims[2];
                            for z in cz * MACROCELL..=z_hi {
                                let v = values[row + z];
                                if !v.is_nan() {
                                    mn = mn.min(v);
                                    mx = mx.max(v);
                                }
                            }
                        }
                    }
                    cells[(cx * mdims[1] + cy) * mdims[2] + cz] = (mn, mx);
                }
            }
        }
        MacroGrid { mdims, cells }
    }

    /// Per-cell skippability under `tf`: no fluid at all, or zero
    /// opacity over the cell's value range. The range is widened by a
    /// relative 1e-9 so the f64 rounding of a renormalised trilinear
    /// convex combination (≲1e-14 relative) can never escape it.
    fn skippable(&self, tf: &TransferFunction) -> Vec<bool> {
        self.cells
            .iter()
            .map(|&(mn, mx)| {
                if mn > mx {
                    return true;
                }
                let pad = (mn.abs().max(mx.abs()) as f64).max(f64::MIN_POSITIVE) * 1e-9;
                tf.zero_opacity_over(mn as f64 - pad, mx as f64 + pad)
            })
            .collect()
    }
}

/// A dense scalar grid over the bounding box of a set of sites.
#[derive(Debug, Clone)]
pub struct Brick {
    lo: [u32; 3],
    dims: [usize; 3],
    /// Scalar values; `NAN` marks absent (non-owned / non-fluid) cells.
    values: Vec<f32>,
    macro_grid: MacroGrid,
}

impl Brick {
    /// Build from the subset `sites` of a geometry's fluid sites, in a
    /// single pass over `sites` (positions, values and bounds gathered
    /// together; the grid allocated at its exact final size). Returns
    /// `None` if `sites` is empty.
    pub fn from_sites(
        geo: &SparseGeometry,
        snap: &FieldSnapshot,
        which: Scalar,
        sites: &[u32],
    ) -> Option<Brick> {
        if sites.is_empty() {
            return None;
        }
        let mut lo = [u32::MAX; 3];
        let mut hi = [0u32; 3];
        let mut pts: Vec<([u32; 3], f32)> = Vec::with_capacity(sites.len());
        for &s in sites {
            let p = geo.position(s);
            let v = match which {
                Scalar::Density => snap.rho[s as usize],
                Scalar::Speed => snap.speed(s as usize),
                Scalar::Shear => snap.shear[s as usize],
            };
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
            pts.push((p, v as f32));
        }
        let dims = [
            (hi[0] - lo[0] + 1) as usize,
            (hi[1] - lo[1] + 1) as usize,
            (hi[2] - lo[2] + 1) as usize,
        ];
        let mut grid = vec![f32::NAN; dims[0] * dims[1] * dims[2]];
        for (p, v) in pts {
            let i = ((p[0] - lo[0]) as usize * dims[1] + (p[1] - lo[1]) as usize) * dims[2]
                + (p[2] - lo[2]) as usize;
            grid[i] = v;
        }
        Some(Self::from_grid(lo, dims, grid))
    }

    /// Build directly from lattice points and their scalar values (the
    /// entry point for ranks that only hold a local snapshot).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn from_points(points: &[[u32; 3]], values: &[f64]) -> Option<Brick> {
        assert_eq!(points.len(), values.len());
        if points.is_empty() {
            return None;
        }
        let mut lo = [u32::MAX; 3];
        let mut hi = [0u32; 3];
        for p in points {
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        let dims = [
            (hi[0] - lo[0] + 1) as usize,
            (hi[1] - lo[1] + 1) as usize,
            (hi[2] - lo[2] + 1) as usize,
        ];
        let mut grid = vec![f32::NAN; dims[0] * dims[1] * dims[2]];
        for (p, &v) in points.iter().zip(values) {
            let i = ((p[0] - lo[0]) as usize * dims[1] + (p[1] - lo[1]) as usize) * dims[2]
                + (p[2] - lo[2]) as usize;
            grid[i] = v as f32;
        }
        Some(Self::from_grid(lo, dims, grid))
    }

    fn from_grid(lo: [u32; 3], dims: [usize; 3], values: Vec<f32>) -> Brick {
        let macro_grid = MacroGrid::build(dims, &values);
        Brick {
            lo,
            dims,
            values,
            macro_grid,
        }
    }

    /// World-space bounds (cell centres occupy `[lo, lo+dims-1]`; the
    /// box extends half a cell beyond).
    pub fn bounds(&self) -> (Vec3, Vec3) {
        (
            Vec3::new(
                self.lo[0] as f64 - 0.5,
                self.lo[1] as f64 - 0.5,
                self.lo[2] as f64 - 0.5,
            ),
            Vec3::new(
                self.lo[0] as f64 + self.dims[0] as f64 - 0.5,
                self.lo[1] as f64 + self.dims[1] as f64 - 0.5,
                self.lo[2] as f64 + self.dims[2] as f64 - 0.5,
            ),
        )
    }

    /// Memory footprint in bytes (scalar grid + macrocell grid).
    pub fn bytes(&self) -> usize {
        self.values.len() * 4 + self.macro_grid.cells.len() * 8
    }

    #[inline]
    fn value(&self, x: i64, y: i64, z: i64) -> Option<f64> {
        let bx = x - self.lo[0] as i64;
        let by = y - self.lo[1] as i64;
        let bz = z - self.lo[2] as i64;
        if bx < 0
            || by < 0
            || bz < 0
            || bx as usize >= self.dims[0]
            || by as usize >= self.dims[1]
            || bz as usize >= self.dims[2]
        {
            return None;
        }
        let v =
            self.values[(bx as usize * self.dims[1] + by as usize) * self.dims[2] + bz as usize];
        if v.is_nan() {
            None
        } else {
            Some(v as f64)
        }
    }

    /// Fluid-renormalised trilinear sample at a world point.
    ///
    /// Interior samples take a fused eight-corner gather from one base
    /// index; corners on the brick border fall back to the bounds-checked
    /// per-corner path. Both paths accumulate corners in the same order
    /// with the same operations, so they are bit-identical.
    pub fn sample(&self, p: Vec3) -> Option<f64> {
        let x0 = floor_i64(p.x);
        let y0 = floor_i64(p.y);
        let z0 = floor_i64(p.z);
        let fx = p.x - x0 as f64;
        let fy = p.y - y0 as f64;
        let fz = p.z - z0 as f64;
        let bx = x0 - self.lo[0] as i64;
        let by = y0 - self.lo[1] as i64;
        let bz = z0 - self.lo[2] as i64;
        let (d1, d2) = (self.dims[1], self.dims[2]);
        if bx >= 0
            && by >= 0
            && bz >= 0
            && (bx as usize) + 1 < self.dims[0]
            && (by as usize) + 1 < d1
            && (bz as usize) + 1 < d2
        {
            // Fused gather: all eight corners are in bounds, one base
            // index, contiguous offsets.
            let base = (bx as usize * d1 + by as usize) * d2 + bz as usize;
            let v = &self.values;
            let corners = [
                v[base],
                v[base + 1],
                v[base + d2],
                v[base + d2 + 1],
                v[base + d1 * d2],
                v[base + d1 * d2 + 1],
                v[base + d1 * d2 + d2],
                v[base + d1 * d2 + d2 + 1],
            ];
            let wx = [1.0 - fx, fx];
            let wy = [1.0 - fy, fy];
            let wz = [1.0 - fz, fz];
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for (i, &cv) in corners.iter().enumerate() {
                let w = (wx[i >> 2] * wy[(i >> 1) & 1]) * wz[i & 1];
                if w <= 0.0 || cv.is_nan() {
                    continue;
                }
                acc += cv as f64 * w;
                wsum += w;
            }
            return if wsum <= 1e-9 { None } else { Some(acc / wsum) };
        }
        // Border path: bounds-checked corner reads.
        let mut acc = 0.0;
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
                    if let Some(v) = self.value(x0 + dx, y0 + dy, z0 + dz) {
                        acc += v * w;
                        wsum += w;
                    }
                }
            }
        }
        if wsum <= 1e-9 {
            None
        } else {
            Some(acc / wsum)
        }
    }

    /// The macrocell containing the sample at `p`, as (flat index, per-
    /// axis coordinates). Uses the same `floor` the sampler uses, so a
    /// sample's touched voxels always lie in the returned cell's support
    /// (or out of the brick entirely); out-of-grid positions clamp to
    /// the edge cells, whose supports cover them.
    #[inline]
    fn macrocell_of(&self, p: Vec3) -> (usize, [i64; 3]) {
        let md = &self.macro_grid.mdims;
        let cx = ((floor_i64(p.x) - self.lo[0] as i64) >> MACRO_SHIFT).clamp(0, md[0] as i64 - 1);
        let cy = ((floor_i64(p.y) - self.lo[1] as i64) >> MACRO_SHIFT).clamp(0, md[1] as i64 - 1);
        let cz = ((floor_i64(p.z) - self.lo[2] as i64) >> MACRO_SHIFT).clamp(0, md[2] as i64 - 1);
        (
            (cx as usize * md[1] + cy as usize) * md[2] + cz as usize,
            [cx, cy, cz],
        )
    }

    /// First sample index after `k` that may lie outside macrocell
    /// `cell` along the ray. Conservative by a positional margin: every
    /// skipped index provably stays inside the cell (so contributes
    /// exactly nothing), and an undershoot merely re-enters the skip
    /// branch one sample later. Always ≥ `k + 1`.
    #[allow(clippy::too_many_arguments)]
    fn jump_past(
        &self,
        cell: [i64; 3],
        origin: Vec3,
        dir: Vec3,
        t_start: f64,
        t1: f64,
        step: f64,
        k: u64,
    ) -> u64 {
        // Margin in *position* space (cells). Plane-crossing and sample-
        // position arithmetic err by ≲1e-11 absolute at lattice scales,
        // so shrinking each cell face by 1e-6 makes overshoot impossible.
        const POS_EPS: f64 = 1e-6;
        let o = [origin.x, origin.y, origin.z];
        let d = [dir.x, dir.y, dir.z];
        let mut t_exit = t1;
        for a in 0..3 {
            let md = self.macro_grid.mdims[a] as i64;
            let c = cell[a];
            if d[a] > 0.0 && c + 1 < md {
                // No face on the high side of the last cell: positions
                // beyond it clamp back to this cell.
                let bound = self.lo[a] as f64 + ((c + 1) << MACRO_SHIFT) as f64 - POS_EPS;
                t_exit = t_exit.min((bound - o[a]) / d[a]);
            } else if d[a] < 0.0 && c > 0 {
                let bound = self.lo[a] as f64 + (c << MACRO_SHIFT) as f64 + POS_EPS;
                t_exit = t_exit.min((bound - o[a]) / d[a]);
            }
        }
        let mut kn = k + 1;
        if t_exit > t_start && t_exit.is_finite() {
            let est = ((t_exit - t_start) / step).ceil();
            if est > kn as f64 && est < u64::MAX as f64 {
                kn = est as u64;
            }
        }
        // Guard the ladder directly: no skipped sample may sit at or
        // beyond the conservative exit.
        while kn > k + 1 && t_start + (kn - 1) as f64 * step >= t_exit {
            kn -= 1;
        }
        kn
    }
}

/// Knobs of [`render_brick_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Skip ray segments through skippable macrocells (bit-identical to
    /// the naive march; on by default).
    pub macrocells: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { macrocells: true }
    }
}

/// Work counters of one [`render_brick_opts`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Rays cast (one per pixel).
    pub rays: u64,
    /// Samples evaluated through the trilinear + transfer path.
    pub samples_shaded: u64,
    /// Samples skipped by macrocell jumps.
    pub samples_skipped: u64,
    /// Analytic jumps taken.
    pub jumps: u64,
}

impl RenderStats {
    /// Samples the naive marcher would have evaluated.
    pub fn samples_total(&self) -> u64 {
        self.samples_shaded + self.samples_skipped
    }
}

/// March one ray through the brick. Sample positions follow the index
/// ladder `t_k = t_start + k·step` so the macrocell path can jump `k`
/// without changing any sample position the naive path would visit.
#[allow(clippy::too_many_arguments)]
fn march(
    brick: &Brick,
    tf: &TransferFunction,
    skippable: Option<&[bool]>,
    origin: Vec3,
    dir: Vec3,
    t_start: f64,
    t1: f64,
    step: f64,
    stats: &mut RenderStats,
) -> ([f32; 4], f32) {
    let mut rgba = [0.0f32; 4];
    let mut depth = f32::INFINITY;
    let mut k: u64 = 0;
    // First sample index that may lie outside the current (non-
    // skippable) macrocell: until then the mask need not be consulted,
    // so the per-sample overhead of skipping is one integer compare.
    let mut shade_until = 0u64;
    loop {
        let t = t_start + k as f64 * step;
        if t >= t1 || rgba[3] >= 0.995 {
            break;
        }
        let p = origin + dir * t;
        if let Some(mask) = skippable {
            if k >= shade_until {
                let (ci, cell) = brick.macrocell_of(p);
                let kn = brick.jump_past(cell, origin, dir, t_start, t1, step, k);
                if mask[ci] {
                    stats.jumps += 1;
                    stats.samples_skipped += kn - k;
                    k = kn;
                    continue;
                }
                shade_until = kn;
            }
        }
        stats.samples_shaded += 1;
        if let Some(v) = brick.sample(p) {
            let s = tf.sample(v, step);
            if s[3] > 0.0 && depth.is_infinite() {
                depth = t as f32;
            }
            // front-to-back: out += (1 - out.a) * sample
            let kk = 1.0 - rgba[3];
            rgba[0] += s[0] * kk;
            rgba[1] += s[1] * kk;
            rgba[2] += s[2] * kk;
            rgba[3] += s[3] * kk;
        }
        k += 1;
    }
    (rgba, depth)
}

/// Ray-cast one brick into a partial image. `step` is the march step in
/// cells (0.5 is a good default). Embarrassingly parallel over pixels —
/// the "ease of parallelisation: easy" cell of Table I. Macrocell
/// skipping is on (the result is bit-identical either way); use
/// [`render_brick_opts`] to switch modes or read the work counters.
pub fn render_brick(brick: &Brick, cam: &Camera, tf: &TransferFunction, step: f64) -> PartialImage {
    render_brick_opts(brick, cam, tf, step, &RenderOptions::default()).0
}

/// [`render_brick`] with explicit options, returning the work counters.
///
/// Only the pixels inside the brick box's projected rectangle
/// ([`RayGenerator::box_pixel_bounds`]) generate a ray; the rest keep the
/// `([0; 4], ∞)` of [`PartialImage::new`], which is what a ray that
/// misses the box yields. The rays run on the calling thread (a rank is
/// one thread), and write straight into the output: the only
/// allocations are the output's buffers and the skip mask.
///
/// [`RayGenerator::box_pixel_bounds`]: crate::camera::RayGenerator::box_pixel_bounds
pub fn render_brick_opts(
    brick: &Brick,
    cam: &Camera,
    tf: &TransferFunction,
    step: f64,
    opts: &RenderOptions,
) -> (PartialImage, RenderStats) {
    assert!(step > 0.0);
    let (blo, bhi) = brick.bounds();
    let width = cam.width as usize;
    let mut out = PartialImage::new(cam.width, cam.height);
    let skippable = if opts.macrocells {
        Some(brick.macro_grid.skippable(tf))
    } else {
        None
    };
    let gen = cam.ray_generator();
    let (cols, rows) = gen.box_pixel_bounds(blo, bhi);

    // One ray per image pixel, generated or not: the counter keeps
    // meaning "pixels of the frame".
    let mut stats = RenderStats {
        rays: cam.width as u64 * cam.height as u64,
        ..RenderStats::default()
    };
    let skippable = skippable.as_deref();
    for py in rows {
        for px in cols.clone() {
            let (origin, dir) = gen.ray(px, py);
            if let Some((t0, t1)) = ray_box(origin, dir, blo, bhi) {
                let t_start = t0.max(0.0) + step * 0.5;
                let idx = py as usize * width + px as usize;
                (out.image.pixels[idx], out.depth[idx]) = march(
                    brick, tf, skippable, origin, dir, t_start, t1, step, &mut stats,
                );
            }
        }
    }
    (out, stats)
}

/// Serial full-domain render: the reference the distributed pipeline is
/// compared against (and the generator of Fig. 4a).
pub fn render_full(
    geo: &SparseGeometry,
    snap: &FieldSnapshot,
    which: Scalar,
    cam: &Camera,
    tf: &TransferFunction,
    step: f64,
) -> PartialImage {
    let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
    let brick = Brick::from_sites(geo, snap, which, &all).expect("non-empty geometry");
    render_brick(&brick, cam, tf, step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_geometry::VesselBuilder;

    fn setup() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::aneurysm(24.0, 4.0, 6.0).voxelise(1.0);
        let n = geo.fluid_count();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.05, 0.0, 0.0]; n],
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    fn varied_snapshot(geo: &SparseGeometry) -> FieldSnapshot {
        let n = geo.fluid_count();
        FieldSnapshot {
            step: 0,
            rho: (0..n)
                .map(|i| 1.0 + 0.05 * ((i * 37 % 101) as f64 / 101.0))
                .collect(),
            u: (0..n)
                .map(|i| [0.03 + 0.02 * ((i % 13) as f64 / 13.0), 0.01, 0.0])
                .collect(),
            shear: vec![0.0; n],
        }
    }

    fn camera(geo: &SparseGeometry) -> Camera {
        let s = geo.shape();
        Camera::framing(
            Vec3::ZERO,
            Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
            Vec3::new(0.0, -1.0, 0.3),
            96,
            72,
        )
    }

    fn partials_bit_eq(a: &PartialImage, b: &PartialImage) -> bool {
        a.image.pixels.len() == b.image.pixels.len()
            && a.image
                .pixels
                .iter()
                .zip(&b.image.pixels)
                .all(|(pa, pb)| (0..4).all(|c| pa[c].to_bits() == pb[c].to_bits()))
            && a.depth
                .iter()
                .zip(&b.depth)
                .all(|(da, db)| da.to_bits() == db.to_bits())
    }

    /// The pre-macrocell reference sampler (branchy per-corner reads),
    /// kept verbatim to pin the fused gather's bit-exactness.
    fn sample_reference(brick: &Brick, p: Vec3) -> Option<f64> {
        let x0 = p.x.floor() as i64;
        let y0 = p.y.floor() as i64;
        let z0 = p.z.floor() as i64;
        let fx = p.x - x0 as f64;
        let fy = p.y - y0 as f64;
        let fz = p.z - z0 as f64;
        let mut acc = 0.0;
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
                    if let Some(v) = brick.value(x0 + dx, y0 + dy, z0 + dz) {
                        acc += v * w;
                        wsum += w;
                    }
                }
            }
        }
        if wsum <= 1e-9 {
            None
        } else {
            Some(acc / wsum)
        }
    }

    #[test]
    fn brick_samples_match_sites() {
        let (geo, snap) = setup();
        let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
        let brick = Brick::from_sites(&geo, &snap, Scalar::Density, &all).unwrap();
        for i in (0..geo.fluid_count() as u32).step_by(71) {
            let p = geo.position_v(i);
            let v = brick.sample(p).expect("fluid cell samples");
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fused_gather_matches_reference_sampler_bitwise() {
        let (geo, _) = setup();
        let snap = varied_snapshot(&geo);
        let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
        let brick = Brick::from_sites(&geo, &snap, Scalar::Density, &all).unwrap();
        let (blo, bhi) = brick.bounds();
        // A deterministic scatter of probe points covering interior,
        // border and outside positions.
        let mut h = 0x243F6A8885A308D3u64;
        for _ in 0..4000 {
            let mut unit = || {
                h ^= h >> 12;
                h ^= h << 25;
                h ^= h >> 27;
                (h.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f64 / (1u64 << 24) as f64
            };
            let p = Vec3::new(
                blo.x - 1.0 + unit() * (bhi.x - blo.x + 2.0),
                blo.y - 1.0 + unit() * (bhi.y - blo.y + 2.0),
                blo.z - 1.0 + unit() * (bhi.z - blo.z + 2.0),
            );
            let fused = brick.sample(p);
            let reference = sample_reference(&brick, p);
            match (fused, reference) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "at {p:?}")
                }
                other => panic!("fused/reference disagree at {p:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn macrocell_render_is_bit_identical_to_naive() {
        let (geo, _) = setup();
        let snap = varied_snapshot(&geo);
        let cam = camera(&geo);
        let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
        for (which, tf) in [
            (Scalar::Density, TransferFunction::grey(0.9, 1.1)),
            (Scalar::Speed, TransferFunction::heat(0.0, 0.06)),
        ] {
            let brick = Brick::from_sites(&geo, &snap, which, &all).unwrap();
            let naive = RenderOptions { macrocells: false };
            let (img_naive, st_naive) = render_brick_opts(&brick, &cam, &tf, 0.5, &naive);
            let (img_accel, st_accel) =
                render_brick_opts(&brick, &cam, &tf, 0.5, &RenderOptions::default());
            assert!(
                partials_bit_eq(&img_naive, &img_accel),
                "macrocell render must be bit-identical"
            );
            assert_eq!(st_naive.samples_skipped, 0);
            assert!(
                st_accel.samples_skipped > 0,
                "a sparse vessel in its bounding box must skip something"
            );
            assert!(st_accel.samples_shaded < st_naive.samples_shaded);
            assert_eq!(st_accel.rays, st_naive.rays);
        }
    }

    /// The whole-image scan `render_brick_opts` made before it bounded
    /// the pixel loop by the brick's projected rectangle: every pixel
    /// takes a ray from the per-call `Camera::ray` and tests it against
    /// the box. The reference the bounded render must equal bit for bit.
    fn render_full_scan(
        brick: &Brick,
        cam: &Camera,
        tf: &TransferFunction,
        step: f64,
        opts: &RenderOptions,
    ) -> (PartialImage, RenderStats) {
        let (blo, bhi) = brick.bounds();
        let mut out = PartialImage::new(cam.width, cam.height);
        let skippable = opts.macrocells.then(|| brick.macro_grid.skippable(tf));
        let mut st = RenderStats::default();
        for py in 0..cam.height {
            for px in 0..cam.width {
                let (origin, dir) = cam.ray(px, py);
                st.rays += 1;
                if let Some((t0, t1)) = ray_box(origin, dir, blo, bhi) {
                    let t_start = t0.max(0.0) + step * 0.5;
                    let idx = (py * cam.width + px) as usize;
                    (out.image.pixels[idx], out.depth[idx]) = march(
                        brick,
                        tf,
                        skippable.as_deref(),
                        origin,
                        dir,
                        t_start,
                        t1,
                        step,
                        &mut st,
                    );
                }
            }
        }
        (out, st)
    }

    /// Exact work counters are the one thing the public-API property in
    /// `tests/render_compositing.rs` cannot pin with macrocells on (its
    /// reference does not jump), so they are pinned here, against the
    /// scan that shares `march`: half-domain bricks as a rank holds
    /// them, seen from outside, from inside, from afar and not at all.
    #[test]
    fn bounded_render_repeats_the_full_scan_counters() {
        let (geo, _) = setup();
        let snap = varied_snapshot(&geo);
        let framing = camera(&geo);
        let (right, up, forward) = framing.basis();
        let inside = Camera {
            eye: framing.target + right * 3.0,
            ..framing
        };
        let afar = Camera {
            eye: framing.eye - forward * 900.0,
            ..framing
        };
        let askance = Camera {
            target: framing.eye + right * 0.9 + forward * 0.5 + up * 0.1,
            fov_y: 0.6,
            ..framing
        };
        let mid = geo.shape()[0] as u32 / 2;
        let tf = TransferFunction::heat(0.0, 0.06);
        let mut covered = Vec::new();
        for half in [0, 1] {
            let sites: Vec<u32> = (0..geo.fluid_count() as u32)
                .filter(|&s| usize::from(geo.position(s)[0] >= mid) == half)
                .collect();
            let brick = Brick::from_sites(&geo, &snap, Scalar::Speed, &sites).unwrap();
            let (blo, bhi) = brick.bounds();
            for cam in [framing, inside, afar, askance] {
                let (cols, rows) = cam.ray_generator().box_pixel_bounds(blo, bhi);
                covered.push(cols.len() * rows.len());
                for macrocells in [true, false] {
                    let opts = RenderOptions { macrocells };
                    let (want, want_st) = render_full_scan(&brick, &cam, &tf, 0.5, &opts);
                    let (got, got_st) = render_brick_opts(&brick, &cam, &tf, 0.5, &opts);
                    assert!(partials_bit_eq(&want, &got), "{cam:?}");
                    assert_eq!(want_st, got_st, "{cam:?}");
                }
            }
        }
        // Part of the image, all of it, a few pixels, none.
        let all = (framing.width * framing.height) as usize;
        for per_brick in covered.chunks(4) {
            assert!(
                per_brick[0] > all / 8 && per_brick[0] < all,
                "{per_brick:?}"
            );
            assert_eq!(per_brick[1], all);
            assert!(per_brick[2] > 0 && per_brick[2] <= 40, "{per_brick:?}");
            assert_eq!(per_brick[3], 0);
        }
    }

    #[test]
    fn fully_transparent_transfer_function_skips_everything() {
        let (geo, snap) = setup();
        let cam = camera(&geo);
        let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
        let brick = Brick::from_sites(&geo, &snap, Scalar::Density, &all).unwrap();
        let clear = TransferFunction {
            stops: vec![[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            ..TransferFunction::grey(0.9, 1.1)
        };
        assert!(brick.macro_grid.skippable(&clear).iter().all(|&b| b));
        let (img, st) = render_brick_opts(&brick, &cam, &clear, 0.5, &RenderOptions::default());
        assert_eq!(st.samples_shaded, 0);
        assert!(st.samples_skipped > 0);
        assert_eq!(img.image.coverage(), 0.0);
    }

    #[test]
    fn empty_site_set_gives_no_brick() {
        let (geo, snap) = setup();
        assert!(Brick::from_sites(&geo, &snap, Scalar::Density, &[]).is_none());
    }

    #[test]
    fn from_sites_matches_from_points() {
        let (geo, _) = setup();
        let snap = varied_snapshot(&geo);
        let sites: Vec<u32> = (0..geo.fluid_count() as u32).step_by(3).collect();
        let a = Brick::from_sites(&geo, &snap, Scalar::Density, &sites).unwrap();
        let points: Vec<[u32; 3]> = sites.iter().map(|&s| geo.position(s)).collect();
        let values: Vec<f64> = sites.iter().map(|&s| snap.rho[s as usize]).collect();
        let b = Brick::from_points(&points, &values).unwrap();
        assert_eq!(a.lo, b.lo);
        assert_eq!(a.dims, b.dims);
        assert!(a
            .values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn render_covers_the_vessel_silhouette() {
        let (geo, snap) = setup();
        let cam = camera(&geo);
        let tf = TransferFunction::grey(0.9, 1.1);
        let out = render_full(&geo, &snap, Scalar::Density, &cam, &tf, 0.5);
        let cov = out.image.coverage();
        assert!(cov > 0.05, "silhouette should cover some pixels: {cov}");
        assert!(cov < 0.9, "background must stay empty: {cov}");
    }

    #[test]
    fn lit_pixels_have_finite_depth() {
        let (geo, snap) = setup();
        let cam = camera(&geo);
        let tf = TransferFunction::grey(0.9, 1.1);
        let out = render_full(&geo, &snap, Scalar::Density, &cam, &tf, 0.5);
        for (px, d) in out.image.pixels.iter().zip(&out.depth) {
            if px[3] > 1e-4 {
                assert!(d.is_finite());
            } else {
                assert!(d.is_infinite());
            }
        }
    }

    #[test]
    fn split_bricks_union_matches_full_render_coverage() {
        // Render left/right halves separately, merge, compare silhouette
        // with the full render — the sort-last correctness property for
        // a camera with no brick interleaving.
        let (geo, snap) = setup();
        let cam = camera(&geo);
        let tf = TransferFunction::grey(0.9, 1.1);
        let full = render_full(&geo, &snap, Scalar::Density, &cam, &tf, 0.5);

        let mid = geo.shape()[0] as u32 / 2;
        let left: Vec<u32> = (0..geo.fluid_count() as u32)
            .filter(|&s| geo.position(s)[0] < mid)
            .collect();
        let right: Vec<u32> = (0..geo.fluid_count() as u32)
            .filter(|&s| geo.position(s)[0] >= mid)
            .collect();
        let bl = Brick::from_sites(&geo, &snap, Scalar::Density, &left).unwrap();
        let br = Brick::from_sites(&geo, &snap, Scalar::Density, &right).unwrap();
        let mut pl = render_brick(&bl, &cam, &tf, 0.5);
        let pr = render_brick(&br, &cam, &tf, 0.5);
        pl.merge(&pr);

        // Same pixels lit (composited colour can differ slightly at the
        // seam, where one march is split into two).
        let mut mismatches = 0;
        for (a, b) in pl.image.pixels.iter().zip(&full.image.pixels) {
            if (a[3] > 1e-3) != (b[3] > 1e-3) {
                mismatches += 1;
            }
        }
        let frac = mismatches as f64 / pl.image.pixels.len() as f64;
        assert!(frac < 0.02, "silhouettes should agree, {frac} mismatched");
    }
}

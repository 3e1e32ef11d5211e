//! Line integral convolution on a slice plane, serial and distributed.
//!
//! Table I's middle column: LIC convolves a white-noise texture along
//! the in-plane flow, so each output pixel needs velocity data within a
//! *bounded* distance (the kernel length). Distributing the slice into
//! slabs therefore costs a **one-time halo exchange** of kernel-width
//! boundary strips — more traffic than volume rendering's nothing, far
//! less than per-step particle hand-off; and pixels distribute evenly,
//! so load balance is good. Exactly the "medium / good / moderate" row.

use crate::field::{floor_i64, SampledField};
use hemelb_geometry::Vec3;
use hemelb_parallel::{CommError, CommResult, Communicator, Tag, WireReader, WireWriter};
use std::ops::Range;

const T_HALO: Tag = Tag::vis(20);

/// A 2-D slice of the in-plane velocity field at `z = plane_z`.
#[derive(Debug, Clone, PartialEq)]
pub struct VelocitySlice {
    /// Pixels along x.
    pub nx: usize,
    /// Pixels along y.
    pub ny: usize,
    /// The slicing plane's z (lattice units).
    pub plane_z: f64,
    /// In-plane velocity per pixel (`None`→ NaN pair for solid).
    pub uv: Vec<[f32; 2]>,
}

impl VelocitySlice {
    /// Extract the slice at `plane_z` from a sampled field, one pixel
    /// per lattice cell.
    pub fn extract(field: &SampledField<'_>, plane_z: f64) -> Self {
        let shape = field.geo.shape();
        let (nx, ny) = (shape[0], shape[1]);
        let mut uv = vec![[f32::NAN; 2]; nx * ny];
        for x in 0..nx {
            for y in 0..ny {
                let p = Vec3::new(x as f64, y as f64, plane_z);
                if field.in_fluid(p) {
                    if let Some(v) = field.velocity_at(p) {
                        uv[x * ny + y] = [v[0] as f32, v[1] as f32];
                    }
                }
            }
        }
        VelocitySlice {
            nx,
            ny,
            plane_z,
            uv,
        }
    }

    /// In-plane velocity at integer pixel, `None` outside fluid.
    #[inline]
    pub fn at(&self, x: i64, y: i64) -> Option<[f32; 2]> {
        if x < 0 || y < 0 || x as usize >= self.nx || y as usize >= self.ny {
            return None;
        }
        let v = self.uv[x as usize * self.ny + y as usize];
        if v[0].is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Bilinear in-plane velocity at a fractional position.
    pub fn sample(&self, x: f64, y: f64) -> Option<[f32; 2]> {
        let x0 = floor_i64(x);
        let y0 = floor_i64(y);
        let fx = (x - x0 as f64) as f32;
        let fy = (y - y0 as f64) as f32;
        let mut acc = [0.0f32; 2];
        let mut wsum = 0.0f32;
        for dx in 0..2i64 {
            for dy in 0..2i64 {
                let w =
                    (if dx == 0 { 1.0 - fx } else { fx }) * (if dy == 0 { 1.0 - fy } else { fy });
                if w <= 0.0 {
                    continue;
                }
                if let Some(v) = self.at(x0 + dx, y0 + dy) {
                    acc[0] += v[0] * w;
                    acc[1] += v[1] * w;
                    wsum += w;
                }
            }
        }
        if wsum <= 1e-6 {
            None
        } else {
            Some([acc[0] / wsum, acc[1] / wsum])
        }
    }
}

/// Deterministic per-pixel white noise in `[0, 1)`.
#[inline]
pub fn noise(x: u32, y: u32, seed: u64) -> f32 {
    let mut h = seed ^ ((x as u64) << 32 | y as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^= h >> 33;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// LIC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LicConfig {
    /// Half kernel length in integration steps.
    pub half_kernel: usize,
    /// Integration step (pixels).
    pub h: f64,
    /// Noise seed.
    pub seed: u64,
}

impl Default for LicConfig {
    fn default() -> Self {
        LicConfig {
            half_kernel: 10,
            h: 0.7,
            seed: 0xC0FFEE,
        }
    }
}

/// Convolve noise along the flow through pixel `(px, py)`.
fn lic_pixel(slice: &VelocitySlice, px: usize, py: usize, cfg: &LicConfig) -> Option<f32> {
    slice.at(px as i64, py as i64)?;
    let mut sum = noise(px as u32, py as u32, cfg.seed);
    let mut count = 1.0f32;
    // Walk both directions along the in-plane field.
    for dir in [1.0f64, -1.0] {
        let mut x = px as f64;
        let mut y = py as f64;
        for _ in 0..cfg.half_kernel {
            let Some(v) = slice.sample(x, y) else { break };
            let speed = (v[0] * v[0] + v[1] * v[1]).sqrt() as f64;
            if speed < 1e-12 {
                break;
            }
            x += dir * cfg.h * v[0] as f64 / speed;
            y += dir * cfg.h * v[1] as f64 / speed;
            if x < 0.0 || y < 0.0 || x >= slice.nx as f64 || y >= slice.ny as f64 {
                break;
            }
            sum += noise(x.round() as u32, y.round() as u32, cfg.seed);
            count += 1.0;
        }
    }
    Some(sum / count)
}

/// LIC over the whole slice on the calling thread, one `ny`-long pixel
/// column at a time. `None` pixels (solid) become NaN.
pub fn lic_serial(slice: &VelocitySlice, cfg: &LicConfig) -> Vec<f32> {
    let mut out = vec![f32::NAN; slice.nx * slice.ny];
    for (x, row) in out.chunks_mut(slice.ny).enumerate() {
        for (y, slot) in row.iter_mut().enumerate() {
            if let Some(v) = lic_pixel(slice, x, y, cfg) {
                *slot = v;
            }
        }
    }
    out
}

/// Per-rank statistics of a distributed LIC.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LicStats {
    /// Pixels this rank convolved (work metric).
    pub pixels: u64,
    /// Halo columns received.
    pub halo_columns: u64,
}

/// Distributed LIC: the slice is split into x-slabs; each rank receives
/// a one-time halo of `halo_width` columns from each side, computes its
/// slab, and rank 0 gathers the image. The result equals the serial LIC
/// except where a streamline would have run beyond the halo (bounded by
/// `halo_width ≥ half_kernel · h`). Collective.
pub fn lic_distributed(
    comm: &Communicator,
    slice: &VelocitySlice,
    cfg: &LicConfig,
) -> CommResult<(Option<Vec<f32>>, LicStats)> {
    let p = comm.size();
    let me = comm.rank();
    let halo_width = ((cfg.half_kernel as f64 * cfg.h).ceil() as usize + 1).min(slice.nx);
    let slab = |r: usize| -> std::ops::Range<usize> {
        let per = slice.nx / p;
        let extra = slice.nx % p;
        let start = r * per + r.min(extra);
        let len = per + usize::from(r < extra);
        start..start + len
    };
    let mine = slab(me);

    // In a real deployment each rank owns only its slab; we model that
    // by masking: the local working slice keeps [mine - halo, mine + halo)
    // columns and NaNs elsewhere. The halo columns are *received* from
    // the neighbouring ranks (counted as real traffic).
    let mut working = VelocitySlice {
        nx: slice.nx,
        ny: slice.ny,
        plane_z: slice.plane_z,
        uv: vec![[f32::NAN; 2]; slice.nx * slice.ny],
    };
    for x in mine.clone() {
        for y in 0..slice.ny {
            working.uv[x * slice.ny + y] = slice.uv[x * slice.ny + y];
        }
    }

    // Exchange halo strips with left/right neighbours.
    let mut stats = LicStats::default();
    let mut outgoing = Vec::new();
    let mut expect = Vec::new();
    for (neigh, cols) in [
        (
            me.checked_sub(1),
            mine.start..(mine.start + halo_width).min(mine.end),
        ),
        (
            (me + 1 < p).then_some(me + 1),
            mine.end.saturating_sub(halo_width).max(mine.start)..mine.end,
        ),
    ] {
        if let Some(n) = neigh {
            let mut w = WireWriter::with_capacity(16 + cols.len() * slice.ny * 8);
            w.put_usize(cols.start);
            w.put_usize(cols.len());
            for x in cols {
                for y in 0..slice.ny {
                    let v = slice.uv[x * slice.ny + y];
                    w.put_f32(v[0]);
                    w.put_f32(v[1]);
                }
            }
            outgoing.push((n, w.finish()));
            expect.push(n);
        }
    }
    let received = comm.exchange(T_HALO, outgoing, &expect)?;
    for payload in received {
        let mut r = WireReader::new(payload);
        let cols = column_range(&mut r, slice.nx)?;
        stats.halo_columns += cols.len() as u64;
        for x in cols {
            for y in 0..slice.ny {
                working.uv[x * slice.ny + y] = [r.get_f32()?, r.get_f32()?];
            }
        }
    }

    // Convolve the owned slab, one x-column at a time.
    let mut local = vec![f32::NAN; mine.len() * slice.ny];
    for (x, row) in mine.clone().zip(local.chunks_mut(slice.ny)) {
        for (y, slot) in row.iter_mut().enumerate() {
            if let Some(v) = lic_pixel(&working, x, y, cfg) {
                *slot = v;
                stats.pixels += 1;
            }
        }
    }

    // Gather slabs at rank 0.
    let mut w = WireWriter::with_capacity(16 + local.len() * 4);
    w.put_usize(mine.start);
    w.put_usize(mine.len());
    w.put_f32_slice(&local);
    let gathered = comm.gather(0, w.finish())?;
    let image = match gathered {
        None => None,
        Some(parts) => {
            let mut out = vec![f32::NAN; slice.nx * slice.ny];
            for payload in parts {
                let mut r = WireReader::new(payload);
                let cols = column_range(&mut r, slice.nx)?;
                let vals = r.get_f32_vec()?;
                if vals.len() != cols.len() * slice.ny {
                    return Err(CommError::Decode {
                        reason: format!(
                            "LIC slab of {} columns carries {} values, not {} per column",
                            cols.len(),
                            vals.len(),
                            slice.ny
                        ),
                    });
                }
                out[cols.start * slice.ny..cols.end * slice.ny].copy_from_slice(&vals);
            }
            Some(out)
        }
    };
    Ok((image, stats))
}

/// A peer's `start, len` column header, checked to lie inside a slice
/// `nx` columns wide before anything is indexed by it.
fn column_range(r: &mut WireReader, nx: usize) -> CommResult<Range<usize>> {
    let start = r.get_usize()?;
    let len = r.get_usize()?;
    match start.checked_add(len) {
        Some(end) if end <= nx => Ok(start..end),
        _ => Err(CommError::Decode {
            reason: format!("LIC columns {start} + {len} outside a slice of {nx}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_core::FieldSnapshot;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::{run_spmd, run_spmd_with_stats, TagClass};

    fn slice_of_tube() -> VelocitySlice {
        let geo = VesselBuilder::straight_tube(32.0, 5.0).voxelise(1.0);
        let n = geo.fluid_count();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.05, 0.01, 0.0]; n],
            shear: vec![0.0; n],
        };
        let field = SampledField::new(&geo, &snap);
        let z = (geo.shape()[2] as f64 - 1.0) / 2.0;
        VelocitySlice::extract(&field, z)
    }

    #[test]
    fn slice_has_fluid_and_solid_pixels() {
        let s = slice_of_tube();
        let fluid = s.uv.iter().filter(|v| !v[0].is_nan()).count();
        assert!(fluid > 0);
        assert!(fluid < s.nx * s.ny);
    }

    #[test]
    fn noise_is_deterministic_and_uniformish() {
        let a = noise(3, 7, 1);
        assert_eq!(a, noise(3, 7, 1));
        assert_ne!(a, noise(3, 8, 1));
        let mean: f32 = (0..1000).map(|i| noise(i, i * 3 + 1, 9)).sum::<f32>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn lic_smooths_along_flow() {
        // With flow along +x, adjacent pixels along x share most of
        // their convolution path, so the LIC value correlation along x
        // exceeds that along y.
        let s = slice_of_tube();
        let cfg = LicConfig::default();
        let img = lic_serial(&s, &cfg);
        let at = |x: usize, y: usize| img[x * s.ny + y];
        let mut dx_diff = 0.0f64;
        let mut dy_diff = 0.0f64;
        let mut count = 0usize;
        for x in 5..s.nx - 5 {
            for y in 5..s.ny - 5 {
                let (c, rx, ry) = (at(x, y), at(x + 1, y), at(x, y + 1));
                if c.is_nan() || rx.is_nan() || ry.is_nan() {
                    continue;
                }
                dx_diff += (c - rx).abs() as f64;
                dy_diff += (c - ry).abs() as f64;
                count += 1;
            }
        }
        assert!(count > 50, "interior pixels: {count}");
        assert!(
            dx_diff < dy_diff * 0.8,
            "streamwise smoothing expected: dx={dx_diff}, dy={dy_diff}"
        );
    }

    #[test]
    fn distributed_lic_matches_serial() {
        let s = slice_of_tube();
        let cfg = LicConfig::default();
        let serial = lic_serial(&s, &cfg);
        for p in [1usize, 2, 4] {
            let s2 = s.clone();
            let results = run_spmd(p, move |comm| lic_distributed(comm, &s2, &cfg).unwrap().0);
            let img = results[0].as_ref().unwrap();
            let mut mismatched = 0usize;
            let mut total = 0usize;
            for (a, b) in img.iter().zip(&serial) {
                if a.is_nan() != b.is_nan() {
                    mismatched += 1;
                } else if !a.is_nan() {
                    total += 1;
                    if (a - b).abs() > 1e-5 {
                        mismatched += 1;
                    }
                }
            }
            assert_eq!(mismatched, 0, "p={p}: {mismatched}/{total} differ");
        }
    }

    /// A halo whose column header overflows or runs past the slice, or a
    /// gathered slab whose values do not fill its columns, is a decode
    /// error on the receiving rank, not an out-of-range access.
    #[test]
    fn hostile_halo_columns_are_decode_errors() {
        let s = slice_of_tube();
        let nx = s.nx;
        // (halo header, then the gathered slab's header and value count;
        // no slab: the forger stops after its halo).
        let short_slab = Some((nx / 2, nx - nx / 2, 3));
        let cases = [
            ((usize::MAX, 2), None),
            ((nx - 1, 5), None),
            ((0, nx + 1), None),
            ((nx / 2, 0), short_slab),
        ];
        for ((start, len), slab) in cases {
            let s2 = s.clone();
            let results = run_spmd(2, move |comm| {
                let got = if comm.rank() == 1 {
                    let header = |start: usize, len: usize| {
                        let mut w = WireWriter::new();
                        w.put_usize(start);
                        w.put_usize(len);
                        w
                    };
                    let halo = header(start, len).finish();
                    if let Some((start, len, values)) = slab {
                        comm.exchange(T_HALO, vec![(0, halo)], &[0]).unwrap();
                        let mut w = header(start, len);
                        w.put_f32_slice(&vec![0.0; values]);
                        comm.gather(0, w.finish()).unwrap();
                    } else {
                        comm.send(0, T_HALO, halo).unwrap();
                    }
                    None
                } else {
                    Some(lic_distributed(comm, &s2, &LicConfig::default()).map(|_| ()))
                };
                // The forger stays up until the victim has decoded.
                comm.barrier().unwrap();
                got
            });
            assert!(
                matches!(results[0], Some(Err(CommError::Decode { .. }))),
                "({start}, {len}), slab {slab:?}: {:?}",
                results[0]
            );
        }
    }

    #[test]
    fn column_headers_must_fit_the_slice() {
        let header = |start: usize, len: usize| {
            let mut w = WireWriter::new();
            w.put_usize(start);
            w.put_usize(len);
            column_range(&mut WireReader::new(w.finish()), 10)
        };
        assert_eq!(header(3, 7), Ok(3..10));
        assert_eq!(header(10, 0), Ok(10..10));
        for (start, len) in [(3, 8), (11, 0), (usize::MAX, 1), (1, usize::MAX)] {
            assert!(matches!(header(start, len), Err(CommError::Decode { .. })));
        }
    }

    #[test]
    fn halo_traffic_is_one_time_and_bounded() {
        let s = slice_of_tube();
        let cfg = LicConfig::default();
        let ny = s.ny;
        let out = run_spmd_with_stats(4, move |comm| lic_distributed(comm, &s, &cfg).unwrap().1);
        let vis_bytes = out.summary.total.bytes(TagClass::Visualisation);
        // Each interior rank exchanges ≤ 2 halos of halo_width × ny × 8 B
        // plus the final gather. Bound generously.
        let halo_width = (cfg.half_kernel as f64 * cfg.h).ceil() as u64 + 1;
        let bound = 8 * halo_width * ny as u64 * 8 + 16 * 8;
        assert!(
            out.stats
                .iter()
                .map(|st| st.bytes(TagClass::Visualisation))
                .max()
                .unwrap()
                <= bound,
            "per-rank vis traffic bounded by halo size"
        );
        assert!(vis_bytes > 0);
        // Work is evenly spread.
        let pixels: Vec<u64> = out.results.iter().map(|r| r.pixels).collect();
        let max = *pixels.iter().max().unwrap() as f64;
        let mean = pixels.iter().sum::<u64>() as f64 / pixels.len() as f64;
        assert!(max / mean < 1.7, "LIC load balance: {pixels:?}");
    }
}

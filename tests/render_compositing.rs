//! Integration tests for the accelerated render path: the macrocell
//! marcher must be bit-identical to the naive marcher over the full
//! random-geometry family, the render bounded by the brick's projected
//! rectangle must be bit-identical to a scan of every pixel wherever
//! the eye stands, and the run-length sparse compositing encoding must
//! be lossless and strictly smaller than dense on sparse images.

use hemelb::core::{Solver, SolverConfig};
use hemelb::geometry::Vec3;
use hemelb::insitu::camera::{ray_box, Camera};
use hemelb::insitu::compositing::{
    binary_swap, dense_bytes, direct_send, encode_pixel_runs, merge_pixel_runs,
};
use hemelb::insitu::field::Scalar;
use hemelb::insitu::image::PartialImage;
use hemelb::insitu::volume::{render_brick_opts, Brick, RenderOptions, RenderStats};
use hemelb::insitu::TransferFunction;
use hemelb::parallel::run_spmd_with_stats;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::Rng;

const W: u32 = 48;
const H: u32 = 36;

fn partials_bit_eq(a: &PartialImage, b: &PartialImage) -> bool {
    a.image
        .pixels
        .iter()
        .zip(&b.image.pixels)
        .all(|(pa, pb)| (0..4).all(|c| pa[c].to_bits() == pb[c].to_bits()))
        && a.depth
            .iter()
            .zip(&b.depth)
            .all(|(da, db)| da.to_bits() == db.to_bits())
}

/// Render a short developed flow on `spec`'s geometry both ways and
/// compare bitwise, for a scalar/transfer-function pair.
fn check_bit_identity(spec: &common::GeoSpec, scalar: Scalar, grey: bool) {
    let geo = spec.build();
    let mut solver = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.005, 0.995));
    solver.step_n(5);
    let snap = Arc::new(solver.snapshot());

    let all: Vec<u32> = (0..geo.fluid_count() as u32).collect();
    let brick = Brick::from_sites(&geo, &snap, scalar, &all).expect("fluid sites exist");
    let lohi = (0..snap.len()).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
        let v = match scalar {
            Scalar::Density => snap.rho[i],
            _ => snap.speed(i),
        };
        (lo.min(v), hi.max(v))
    });
    let tf = if grey {
        TransferFunction::grey(lohi.0, lohi.1.max(lohi.0 + 1e-9))
    } else {
        TransferFunction::heat(lohi.0, lohi.1.max(lohi.0 + 1e-9))
    };
    let s = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
        Vec3::new(0.4, -1.0, 0.3),
        W,
        H,
    );

    let naive = RenderOptions { macrocells: false };
    let (img_naive, _) = render_brick_opts(&brick, &cam, &tf, 0.5, &naive);
    let (img_accel, _) = render_brick_opts(&brick, &cam, &tf, 0.5, &RenderOptions::default());
    assert!(
        partials_bit_eq(&img_naive, &img_accel),
        "macrocell render diverged from naive on {spec:?} ({scalar:?}, grey={grey})"
    );
}

/// The full-image scan, written out from the public pieces: every
/// pixel takes the per-call `Camera::ray`, tests it against the brick
/// box and, on a hit, walks the naive sample ladder `t_k = t_start +
/// k·step` through `Brick::sample` and `TransferFunction::sample`. It
/// shares no loop with `render_brick_opts` — not the ray generator, not
/// the screen-space bound, not the marcher.
fn full_scan_reference(
    brick: &Brick,
    cam: &Camera,
    tf: &TransferFunction,
    step: f64,
) -> (PartialImage, RenderStats) {
    let (blo, bhi) = brick.bounds();
    let mut out = PartialImage::new(cam.width, cam.height);
    let mut stats = RenderStats::default();
    for py in 0..cam.height {
        for px in 0..cam.width {
            stats.rays += 1;
            let (origin, dir) = cam.ray(px, py);
            let Some((t0, t1)) = ray_box(origin, dir, blo, bhi) else {
                continue;
            };
            let t_start = t0.max(0.0) + step * 0.5;
            let mut rgba = [0.0f32; 4];
            let mut depth = f32::INFINITY;
            for k in 0u64.. {
                let t = t_start + k as f64 * step;
                if t >= t1 || rgba[3] >= 0.995 {
                    break;
                }
                stats.samples_shaded += 1;
                if let Some(v) = brick.sample(origin + dir * t) {
                    let s = tf.sample(v, step);
                    if s[3] > 0.0 && depth.is_infinite() {
                        depth = t as f32;
                    }
                    let kk = 1.0 - rgba[3];
                    for c in 0..4 {
                        rgba[c] += s[c] * kk;
                    }
                }
            }
            let idx = (py * cam.width + px) as usize;
            out.image.pixels[idx] = rgba;
            out.depth[idx] = depth;
        }
    }
    (out, stats)
}

fn between(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

fn direction(rng: &mut Rng) -> Vec3 {
    loop {
        let v = Vec3::new(
            between(rng, -1.0, 1.0),
            between(rng, -1.0, 1.0),
            between(rng, -1.0, 1.0),
        );
        if v.norm() > 0.2 {
            return v.normalised();
        }
    }
}

/// Where the eye stands relative to the brick box.
#[derive(Debug, Clone, Copy)]
enum View {
    FarOutside,
    EyeInsideBox,
    BoxPartlyBehindEye,
    BoxPartlyOffScreen,
    BoxWhollyOffScreen,
    OneVoxelBrick,
    BrickAboutAPixelWide,
}

const VIEWS: [View; 7] = [
    View::FarOutside,
    View::EyeInsideBox,
    View::BoxPartlyBehindEye,
    View::BoxPartlyOffScreen,
    View::BoxWhollyOffScreen,
    View::OneVoxelBrick,
    View::BrickAboutAPixelWide,
];

/// A random brick (up to 12 voxels an edge, a random share of them
/// fluid, values in [0, 1]) and a camera in the named relation to it.
fn scene(seed: u64, view: View) -> (Brick, Camera) {
    let rng = &mut Rng::seed_from_u64(seed);
    let max_dim = match view {
        View::OneVoxelBrick => 1.0,
        View::BrickAboutAPixelWide => 2.0,
        _ => 12.0,
    };
    let lo = [0, 1, 2].map(|_| between(rng, 0.0, 40.0) as u32);
    let dims = [0, 1, 2].map(|_| 1 + (rng.gen_f64() * max_dim) as u32);
    let fill = between(rng, 0.1, 1.0);
    let mut points = Vec::new();
    for x in 0..dims[0] {
        for y in 0..dims[1] {
            for z in 0..dims[2] {
                if points.is_empty() || rng.gen_f64() < fill {
                    points.push([lo[0] + x, lo[1] + y, lo[2] + z]);
                }
            }
        }
    }
    let values: Vec<f64> = points.iter().map(|_| rng.gen_f64()).collect();
    let brick = Brick::from_points(&points, &values).expect("at least one point");

    let (blo, bhi) = brick.bounds();
    let centre = (blo + bhi) * 0.5;
    let radius = (bhi - blo).norm() * 0.5;
    let mut fov_y = between(rng, 0.4, 1.2);
    let height = 24 + (rng.gen_f64() * 16.0) as u32;
    let width = height + (rng.gen_f64() * 16.0) as u32;
    let away = direction(rng);
    let far = centre + away * (radius * between(rng, 2.5, 5.0));
    let side = away.cross(direction(rng)).normalised();
    let (eye, target) = match view {
        View::EyeInsideBox => {
            let eye = Vec3::new(
                between(rng, blo.x, bhi.x),
                between(rng, blo.y, bhi.y),
                between(rng, blo.z, bhi.z),
            );
            (eye, eye + direction(rng))
        }
        // Just outside the box, looking any way.
        View::BoxPartlyBehindEye => {
            let eye = centre + away * (radius * between(rng, 1.0, 1.3));
            (eye, eye + direction(rng))
        }
        View::BoxPartlyOffScreen => {
            let reach = (far - centre).norm() * (fov_y / 2.0).tan();
            (far, centre + side * (reach * between(rng, 0.7, 1.3)))
        }
        // Every corner in front of the eye, none in the frustum: 60°
        // off the view axis, 7° of box, a narrow field of view.
        View::BoxWhollyOffScreen => {
            fov_y = fov_y.min(0.8);
            let eye = centre + away * (radius * 9.0);
            (eye, eye - away * 0.5 + side * 0.866)
        }
        View::BrickAboutAPixelWide => {
            let dist = radius * height as f64 / (fov_y / 2.0).tan();
            (centre + away * dist, centre)
        }
        View::FarOutside | View::OneVoxelBrick => (far, centre + direction(rng) * (0.2 * radius)),
    };
    let up = loop {
        let up = direction(rng);
        if up.cross(target - eye).norm() > 0.3 * (target - eye).norm() {
            break up;
        }
    };
    let cam = Camera {
        eye,
        target,
        up,
        fov_y,
        width,
        height,
    };
    (brick, cam)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: empty-space skipping never changes a
    /// single bit of the image, across cylinders, bifurcations and
    /// porous blocks.
    #[test]
    fn macrocell_march_is_bit_identical_over_random_geometry(spec in common::geo_strategy()) {
        check_bit_identity(&spec, Scalar::Speed, false);
        check_bit_identity(&spec, Scalar::Density, true);
    }

    /// The screen-space bound never changes a bit either: wherever the
    /// eye stands, the bounded render equals a scan of every pixel in
    /// colour, depth and work counters, and what lies outside the
    /// brick's projected rectangle is untouched background.
    #[test]
    fn screen_bounded_render_equals_full_scan(seed: u64) {
        for (k, view) in VIEWS.into_iter().enumerate() {
            let (brick, cam) = scene(seed.wrapping_add(k as u64), view);
            let tf = if seed & 2 == 0 {
                TransferFunction::heat(0.0, 1.0)
            } else {
                TransferFunction::grey(0.5, 1.0)
            };
            let step = if seed & 4 == 0 { 0.5 } else { 0.3 };
            let (want, want_stats) = full_scan_reference(&brick, &cam, &tf, step);

            let naive = RenderOptions { macrocells: false };
            let (img_naive, st_naive) = render_brick_opts(&brick, &cam, &tf, step, &naive);
            let (img_accel, st_accel) =
                render_brick_opts(&brick, &cam, &tf, step, &RenderOptions::default());
            prop_assert!(partials_bit_eq(&want, &img_naive), "{view:?}: naive march");
            prop_assert!(partials_bit_eq(&want, &img_accel), "{view:?}: macrocell march");
            // `rays` stays one per image pixel, generated or not; the
            // reference does not jump, so with macrocells on it pins the
            // total (the shaded / skipped split is pinned in-crate).
            prop_assert_eq!(st_naive, want_stats, "{:?}", view);
            prop_assert_eq!(st_accel.rays, want_stats.rays);
            prop_assert_eq!(st_accel.samples_total(), want_stats.samples_shaded, "{:?}", view);

            let (blo, bhi) = brick.bounds();
            let (cols, rows) = cam.ray_generator().box_pixel_bounds(blo, bhi);
            let pixels = (cam.width * cam.height) as usize;
            match view {
                View::EyeInsideBox => prop_assert_eq!(cols.len() * rows.len(), pixels),
                View::BoxWhollyOffScreen => prop_assert_eq!(cols.len() * rows.len(), 0),
                View::BrickAboutAPixelWide => {
                    prop_assert!((1..=64).contains(&(cols.len() * rows.len())))
                }
                _ => {}
            }
            for py in 0..cam.height {
                for px in 0..cam.width {
                    if !(cols.contains(&px) && rows.contains(&py)) {
                        let idx = (py * cam.width + px) as usize;
                        prop_assert_eq!(img_accel.image.pixels[idx].map(f32::to_bits), [0; 4]);
                        prop_assert_eq!(img_accel.depth[idx].to_bits(), f32::INFINITY.to_bits());
                    }
                }
            }
        }
    }

    /// Run-length encoding is lossless for arbitrary lit patterns:
    /// decode(encode(p)) reproduces every pixel and depth bit.
    #[test]
    fn pixel_run_encoding_round_trips(
        lit in proptest::collection::vec(any::<bool>(), 1..400),
        seed: u64,
    ) {
        let n = lit.len();
        let mut p = PartialImage::new(n as u32, 1);
        let mut h = seed | 1;
        for (i, &on) in lit.iter().enumerate() {
            if on {
                h = h.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(17);
                let v = (h >> 40) as f32 / (1u64 << 24) as f32;
                p.image.pixels[i] = [v, 1.0 - v, v * 0.5, (v * 0.9).max(1e-3)];
                p.depth[i] = 1.0 + v;
            }
        }
        let payload = encode_pixel_runs(&p, 0..n);
        let mut back = PartialImage::new(n as u32, 1);
        let range = merge_pixel_runs(&mut back, payload.clone()).expect("valid payload");
        prop_assert_eq!(range, 0..n);
        prop_assert!(partials_bit_eq(&p, &back));
        // Sparse never exceeds dense by more than the run table of a
        // worst-case alternating pattern.
        let lit_count = lit.iter().filter(|&&b| b).count();
        prop_assert!(payload.len() <= dense_bytes(n) + 16 * lit_count,
            "payload {} vs dense {}", payload.len(), dense_bytes(n));
        // All-transparent regions encode to the fixed header alone.
        if lit_count == 0 {
            prop_assert_eq!(payload.len(), 32);
        }
    }
}

#[test]
fn distributed_composites_agree_and_sparse_beats_dense() {
    let geo = common::GeoSpec::Cylinder {
        len: 14.0,
        radius: 3.0,
    }
    .build();
    let mut solver = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
    solver.step_n(10);
    let snap = Arc::new(solver.snapshot());
    let s = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
        Vec3::new(0.3, -1.0, 0.2),
        96,
        72,
    );
    let max_speed = (0..snap.len()).map(|i| snap.speed(i)).fold(0.0, f64::max);
    let tf = TransferFunction::heat(0.0, max_speed.max(1e-9));

    let render_mine = |rank: usize, p: usize| {
        let mine: Vec<u32> = (0..geo.fluid_count() as u32)
            .filter(|&site| (geo.position(site)[0] as usize * p / s[0]).min(p - 1) == rank)
            .collect();
        match Brick::from_sites(&geo, &snap, Scalar::Speed, &mine) {
            Some(b) => render_brick_opts(&b, &cam, &tf, 0.5, &RenderOptions::default()).0,
            None => PartialImage::new(cam.width, cam.height),
        }
    };

    for p in [2usize, 4] {
        let rm = render_mine;
        let ds = run_spmd_with_stats(p, move |comm| {
            direct_send(comm, rm(comm.rank(), comm.size())).expect("direct send")
        });
        let rm = render_mine;
        let bs = run_spmd_with_stats(p, move |comm| {
            binary_swap(comm, rm(comm.rank(), comm.size())).expect("binary swap")
        });
        let (a, b) = (
            ds.results[0].as_ref().expect("master image"),
            bs.results[0].as_ref().expect("master image"),
        );
        let images_eq = a
            .pixels
            .iter()
            .zip(&b.pixels)
            .all(|(pa, pb)| (0..4).all(|c| pa[c].to_bits() == pb[c].to_bits()));
        assert!(images_eq, "direct-send and binary-swap disagree at p={p}");
        for out in [&ds, &bs] {
            let merged = out.merged_obs();
            let wire = merged.counters["vis.composite.bytes_wire"];
            let dense = merged.counters["vis.composite.bytes_dense"];
            assert!(
                wire > 0 && wire < dense,
                "sparse compositing must beat dense at p={p}: {wire} vs {dense}"
            );
        }
    }
}

/// The scenes above are drawn from `common::Rng`. Its first three draws
/// from seed 0 are pinned, so the bricks and cameras this suite covers
/// cannot move under it, and every draw stays in `[0, 1)`.
#[test]
fn scene_rng_draws_are_pinned() {
    let mut rng = Rng::seed_from_u64(0);
    let first = [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()];
    assert_eq!(
        first,
        [
            0.8833108082136426,
            0.43152799704850997,
            0.026433771592597743
        ]
    );
    assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.gen_f64())));
}

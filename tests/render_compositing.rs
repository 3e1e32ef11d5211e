//! Integration tests for the accelerated render path: the macrocell
//! marcher must be bit-identical to the naive marcher over the full
//! random-geometry family, and the run-length sparse compositing
//! encoding must be lossless and strictly smaller than dense on
//! sparse images.

use hemelb::core::{Solver, SolverConfig};
use hemelb::geometry::Vec3;
use hemelb::insitu::camera::Camera;
use hemelb::insitu::compositing::{
    binary_swap, dense_bytes, direct_send, encode_pixel_runs, merge_pixel_runs,
};
use hemelb::insitu::field::Scalar;
use hemelb::insitu::image::PartialImage;
use hemelb::insitu::volume::{render_brick_opts, Brick, RenderOptions};
use hemelb::insitu::TransferFunction;
use hemelb::parallel::run_spmd_with_stats;
use proptest::prelude::*;
use std::sync::Arc;

mod common;

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

//! Golden regression fixtures: tiny deterministic runs whose per-field
//! bit-pattern checksums are pinned under `tests/golden/`.
//!
//! Any change to the collide/stream arithmetic — even a one-ULP
//! reordering — changes a digest and fails the suite. To re-bless after
//! an *intentional* numerical change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden
//! ```
//!
//! Each case is run on every kernel layout — the legacy site-major
//! brick, the SoA fluid-site list with scalar collision, and the SoA
//! chunked-lane SIMD path — serially and on the chunk-parallel
//! `ParallelSolver`; all must match the *same* fixture, which pins the
//! bit-exact determinism contract to stored bytes. (The SoA refactor
//! re-blessed here was a no-op: every digest was reproduced unchanged,
//! so the fixtures still certify the original arithmetic.)

mod common;

use hemelb::core::collision::CollisionKind;
use hemelb::core::solver::ModelKind;
use hemelb::core::{KernelLayout, ParallelSolver, Solver, SolverConfig};
use hemelb::geometry::VesselBuilder;
use std::path::PathBuf;
use std::sync::Arc;

struct GoldenCase {
    name: &'static str,
    steps: u64,
    build: fn() -> (Arc<hemelb::geometry::SparseGeometry>, SolverConfig),
}

const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "cylinder_bgk_pressure_d3q15",
        steps: 50,
        build: || {
            (
                Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0)),
                SolverConfig::pressure_driven(1.01, 0.99),
            )
        },
    },
    GoldenCase {
        name: "aneurysm_trt_velocity_d3q19",
        steps: 50,
        build: || {
            (
                Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0)),
                SolverConfig::velocity_driven(0.03)
                    .with_model(ModelKind::D3Q19)
                    .with_collision(CollisionKind::trt_magic()),
            )
        },
    },
    GoldenCase {
        name: "porous_mrt_pressure_d3q15",
        steps: 50,
        build: || {
            let spec = common::GeoSpec::Porous {
                nx: 8,
                ny: 6,
                nz: 6,
                seed: 7,
            };
            (
                spec.build(),
                SolverConfig::pressure_driven(1.005, 0.995)
                    .with_collision(CollisionKind::Mrt { omega_ghost: 1.2 }),
            )
        },
    },
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Digest lines for one finished run: per-field checksums plus the raw
/// distribution array, all over IEEE-754 bit patterns.
fn digest_lines(solver: &Solver, steps: u64) -> String {
    let snap = solver.snapshot();
    let (rho, u, shear) = common::snapshot_digests(&snap);
    let f = common::fnv1a_bits(solver.raw_distributions().iter().copied());
    format!("steps={steps}\nrho={rho:016x}\nu={u:016x}\nshear={shear:016x}\nf={f:016x}\n")
}

fn run_case(case: &GoldenCase) {
    let (geo, cfg) = (case.build)();

    // Legacy layout is the reference the fixtures were blessed against.
    let mut legacy = Solver::new(geo.clone(), cfg.clone().with_layout(KernelLayout::Legacy));
    legacy.step_n(case.steps);
    let got = digest_lines(&legacy, case.steps);

    // Both SoA layouts must reproduce the legacy digests bit-for-bit.
    for layout in [KernelLayout::SoaScalar, KernelLayout::SoaSimd] {
        let mut soa = Solver::new(geo.clone(), cfg.clone().with_layout(layout));
        soa.step_n(case.steps);
        assert_eq!(
            got,
            digest_lines(&soa, case.steps),
            "{}: {layout:?} diverged from the legacy layout",
            case.name
        );
    }

    // The parallel solver (SoA-SIMD layout) must produce the *same*
    // fixture.
    let mut par = ParallelSolver::new(geo, cfg.with_layout(KernelLayout::SoaSimd), 3);
    par.step_n(case.steps);
    let got_par = digest_lines(par.solver(), case.steps);
    assert_eq!(
        got, got_par,
        "{}: parallel kernel diverged from serial",
        case.name
    );

    check_or_bless(case.name, &got);
}

/// Compare `got` against the stored fixture `name`, or (re)write the
/// fixture when `GOLDEN_BLESS` is set.
fn check_or_bless(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing fixture {} ({e}); run GOLDEN_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: digests changed — if the numerical change is intentional, re-bless with \
         GOLDEN_BLESS=1 cargo test --test golden"
    );
}

#[test]
fn golden_cylinder_bgk_pressure_d3q15() {
    run_case(&CASES[0]);
}

#[test]
fn golden_aneurysm_trt_velocity_d3q19() {
    run_case(&CASES[1]);
}

#[test]
fn golden_porous_mrt_pressure_d3q15() {
    run_case(&CASES[2]);
}

/// The exhaustive operator grid the three named fixtures only sample:
/// {cylinder, porous seed 42} × {D3Q15, D3Q19} × {BGK, TRT-magic,
/// MRT ω=1.2} × {pressure, velocity}, 10 steps each, one digest line per
/// cell in `tests/golden/operator_grid.txt`.
fn operator_grid_lines(layout: KernelLayout) -> String {
    let geos = [
        (
            "cylinder",
            common::GeoSpec::Cylinder {
                len: 10.0,
                radius: 2.5,
            },
        ),
        (
            "porous42",
            common::GeoSpec::Porous {
                nx: 7,
                ny: 5,
                nz: 5,
                seed: 42,
            },
        ),
    ];
    let mut out = String::new();
    for (geo_name, geo_spec) in &geos {
        let geo = geo_spec.build();
        for (model_name, model) in [("d3q15", ModelKind::D3Q15), ("d3q19", ModelKind::D3Q19)] {
            for (coll_name, collision) in [
                ("bgk", CollisionKind::Bgk),
                ("trt", CollisionKind::trt_magic()),
                ("mrt", CollisionKind::Mrt { omega_ghost: 1.2 }),
            ] {
                for (bc_name, velocity_inlet) in [("pressure", false), ("velocity", true)] {
                    let case = common::CaseSpec {
                        geo: geo_spec.clone(),
                        model,
                        collision,
                        velocity_inlet,
                    };
                    let mut solver = Solver::new(geo.clone(), case.config().with_layout(layout));
                    solver.step_n(10);
                    let digests = digest_lines(&solver, 10).replace('\n', " ");
                    out.push_str(&format!(
                        "{geo_name} {model_name} {coll_name} {bc_name} {}\n",
                        digests.trim_end()
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn golden_operator_grid() {
    // Final cross-layout audit: the fixture is blessed from the legacy
    // layout with both SoA layouts asserted equal cell for cell.
    let got = operator_grid_lines(KernelLayout::Legacy);
    for layout in [KernelLayout::SoaScalar, KernelLayout::SoaSimd] {
        assert_eq!(
            got,
            operator_grid_lines(layout),
            "operator grid: {layout:?} diverged from the legacy layout"
        );
    }
    check_or_bless("operator_grid", &got);
}

/// Long soak: 500 steps at 8 threads must stay bit-identical to serial.
/// Run with `cargo test --test golden -- --ignored` (wired into ci.sh).
#[test]
#[ignore = "long soak; run via cargo test -- --ignored"]
fn soak_500_steps_8_threads_bit_exact() {
    let geo = Arc::new(VesselBuilder::aneurysm(14.0, 3.0, 4.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.005, 0.995);
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    let mut par = ParallelSolver::new(geo, cfg, 8);
    serial.step_n(500);
    par.step_n(500);
    assert!(
        common::bits_eq(&serial.raw_distributions(), &par.raw_distributions()),
        "8-thread soak diverged from serial after 500 steps"
    );
}

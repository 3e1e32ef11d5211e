//! Overlapped-halo-exchange equivalence suite: the frontier-first
//! schedule (collide frontier → post sends → interior compute under
//! in-flight messages → arrival-order drain → frontier stream) must be
//! **bit-identical** to the synchronous schedule and to the serial
//! solver, over random geometries × collision operators ×
//! boundary-condition families. Checkpoints written
//! mid-run under one schedule must restore and continue under the
//! other on the same bit trajectory, and the overlap accounting in
//! `CommStats` must engage exactly when the overlapped path runs.

mod common;

use hemelb::core::{DistSolver, Solver, SolverConfig};
use hemelb::geometry::VesselBuilder;
use hemelb::parallel::{
    run_spmd, run_spmd_opts, run_spmd_with_stats, FaultEvent, FaultKind, FaultPlan, SpmdOptions,
    TagClass,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Contiguous owner map splitting sites evenly by index.
fn even_owner(n: usize, p: usize) -> Vec<usize> {
    (0..n).map(|s| (s * p / n).min(p - 1)).collect()
}

/// Run `steps` of a distributed solve and return each rank's raw
/// distributions plus the root's gathered snapshot digests.
fn run_dist(
    geo: &Arc<hemelb::geometry::SparseGeometry>,
    cfg: &SolverConfig,
    ranks: usize,
    steps: u64,
) -> (Vec<Vec<f64>>, (u64, u64, u64)) {
    let geo2 = geo.clone();
    let cfg2 = cfg.clone();
    let results = run_spmd(ranks, move |comm| {
        let owner = even_owner(geo2.fluid_count(), comm.size());
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
        ds.step_n(steps).unwrap();
        let f = ds.raw_distributions();
        (f, ds.gather_snapshot().unwrap())
    });
    let digests = common::snapshot_digests(results[0].1.as_ref().expect("root gathers"));
    (results.into_iter().map(|(f, _)| f).collect(), digests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random geometries × {D3Q15, D3Q19} × {BGK, TRT, MRT} ×
    /// {pressure, velocity}: the overlapped schedule equals the
    /// synchronous schedule **per rank, per population**, and both equal
    /// the serial solver, by `to_bits`.
    #[test]
    fn overlapped_equals_sync_and_serial_bitwise(case in common::case_strategy()) {
        let geo = case.geo.build();
        let steps = 10u64;
        let cfg = case.config();
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(steps);
        let want = common::snapshot_digests(&serial.snapshot());

        let (f_over, snap_over) = run_dist(&geo, &cfg.clone().with_overlap(true), 2, steps);
        let (f_sync, snap_sync) = run_dist(&geo, &cfg.with_overlap(false), 2, steps);

        prop_assert_eq!(want, snap_over, "overlap vs serial, {:?}", &case);
        prop_assert_eq!(want, snap_sync, "sync vs serial, {:?}", &case);
        for (rank, (a, b)) in f_over.iter().zip(&f_sync).enumerate() {
            prop_assert!(
                common::bits_eq(a, b),
                "rank {} distributions diverged, {:?}", rank, &case
            );
        }
    }
}

/// A checkpoint written mid-run under the overlapped schedule restores
/// into a synchronous solver (and vice versa) and continues on the
/// exact bit trajectory of an uninterrupted run — the two schedules are
/// interchangeable at any step boundary.
#[test]
fn checkpoint_hands_off_between_overlapped_and_sync() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let base = SolverConfig::pressure_driven(1.01, 0.99);
    let (f_ref, _) = run_dist(&geo, &base.clone().with_overlap(true), 2, 20);

    for (first_overlap, then_overlap) in [(true, false), (false, true)] {
        let dir = std::env::temp_dir().join(format!(
            "hemelb_overlap_handoff_{first_overlap}_{}",
            std::process::id()
        ));
        let geo2 = geo.clone();
        let cfg_a = base.clone().with_overlap(first_overlap);
        let cfg_b = base.clone().with_overlap(then_overlap);
        let dir2 = dir.clone();
        let results = run_spmd(2, move |comm| {
            let owner = even_owner(geo2.fluid_count(), comm.size());
            let mut a = DistSolver::new(geo2.clone(), owner.clone(), cfg_a.clone(), comm).unwrap();
            a.step_n(10).unwrap();
            a.checkpoint(&dir2).unwrap();
            // Hand off: a fresh solver under the *other* schedule picks
            // up the state and finishes the run.
            let mut b = DistSolver::new(geo2.clone(), owner, cfg_b.clone(), comm).unwrap();
            b.restore(&dir2).unwrap();
            assert_eq!(b.step_count(), 10);
            b.step_n(10).unwrap();
            b.raw_distributions()
        });
        for (rank, f) in results.iter().enumerate() {
            assert!(
                common::bits_eq(f, &f_ref[rank]),
                "rank {rank} diverged after {first_overlap}->{then_overlap} hand-off"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Overlap accounting engages exactly when the overlapped path runs:
/// an overlapped multi-rank run records latency-hiding compute seconds
/// (efficiency in (0, 1]), a synchronous run records none, and a
/// zero-peer rank reports the fast path through the public accessors.
#[test]
fn overlap_accounting_and_degenerate_fast_path() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let base = SolverConfig::pressure_driven(1.01, 0.99);

    for overlap in [true, false] {
        let geo2 = geo.clone();
        let cfg = base.clone().with_overlap(overlap);
        let out = run_spmd_with_stats(2, move |comm| {
            let owner = even_owner(geo2.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
            assert_eq!(ds.overlap_active(), overlap);
            let part = ds.partition();
            assert_eq!(
                part.frontier_count() + part.interior_count(),
                part.site_count()
            );
            ds.step_n(10).unwrap();
            ds.local_snapshot().rho.len()
        });
        assert!(out.results.iter().all(|&n| n > 0));
        let total = &out.summary.total;
        if overlap {
            assert!(
                total.overlap_compute_secs() > 0.0,
                "overlapped run must record latency-hiding compute"
            );
            let eff = total.overlap_efficiency();
            assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
        } else {
            assert_eq!(total.overlap_compute_secs(), 0.0);
            assert_eq!(total.overlap_residual_secs(), 0.0);
        }
    }

    // Zero peers: overlap configured on, but nothing to overlap with.
    let geo2 = geo.clone();
    let cfg = base.clone();
    run_spmd(1, move |comm| {
        let owner = vec![0; geo2.fluid_count()];
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
        assert!(!ds.overlap_active(), "no peers, no overlap");
        assert_eq!(ds.partition().frontier_count(), 0);
        ds.step_n(3).unwrap();
    });
}

/// Composition with the PR 4 fault plans: a per-peer `Delay` on the
/// halo class slows the exchange but must not perturb a single bit —
/// overlap hides latency, never reorders physics. The delays are
/// counted by the fault accounting, and the overlapped run records
/// residual halo wait.
#[test]
fn overlapped_run_is_bit_exact_under_injected_delay() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let steps = 6u64;
    let mut serial = Solver::new(geo.clone(), cfg.clone());
    serial.step_n(steps);
    let want = common::snapshot_digests(&serial.snapshot());

    // One persistent delay event: the matcher fires on every send with
    // `step >= ev.step`, so this slows every halo send of the run.
    let plan = FaultPlan::new(vec![FaultEvent {
        rank: 1,
        class: TagClass::Halo,
        step: 0,
        kind: FaultKind::Delay { millis: 20 },
    }]);
    let geo2 = geo.clone();
    let cfg2 = cfg.clone().with_overlap(true);
    let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), move |comm| {
        let owner = even_owner(geo2.fluid_count(), comm.size());
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
        ds.step_n(steps).unwrap();
        ds.gather_snapshot().unwrap()
    });
    let got = common::snapshot_digests(out.results[0].as_ref().expect("root gathers"));
    assert_eq!(want, got, "delay fault must not change any bit");
    assert!(
        out.summary.total.faults(hemelb::parallel::FaultStat::Delay) > 0,
        "the injected delays must have fired"
    );
}

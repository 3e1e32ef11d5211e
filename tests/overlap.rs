//! Distributed step-schedule equivalence suite: the frontier-first
//! schedule (collide frontier → post sends → interior compute under
//! in-flight messages → arrival-order drain → frontier stream) must be
//! **bit-identical** to the serial solver, over random geometries
//! × collision operators × boundary-condition families × owner maps
//! from slabs to per-site scatter × rank counts, with the storage
//! order the schedule relies on checked against an independent
//! geometry query, and the overlap accounting in `CommStats` must
//! engage exactly when there is interior work to hide the exchange
//! behind.

mod common;

use hemelb::core::{DistSolver, Solver, SolverConfig};
use hemelb::geometry::{SparseGeometry, VesselBuilder};
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

/// How an owner map is drawn, from the best case for contiguity to the
/// worst.
#[derive(Debug, Clone, Copy)]
enum MapKind {
    /// Contiguous index slabs.
    Slab,
    /// Checkerboard of 2³-voxel blocks.
    Blocks,
    /// Every site to a rank of its own choosing (seeded hash).
    Scatter(u64),
}

fn owner_map(geo: &SparseGeometry, kind: MapKind, p: usize) -> Vec<usize> {
    let n = geo.fluid_count();
    match kind {
        MapKind::Slab => even_owner(n, p),
        MapKind::Blocks => (0..n as u32)
            .map(|s| {
                let [x, y, z] = geo.position(s);
                ((x / 2 + y / 2 + z / 2) as usize) % p
            })
            .collect(),
        MapKind::Scatter(seed) => (0..n as u64)
            .map(|s| {
                let h = (s ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 33) % p as u64) as usize
            })
            .collect(),
    }
}

fn map_strategy() -> impl Strategy<Value = MapKind> {
    (0usize..4, any::<u64>()).prop_map(|(pick, seed)| match pick {
        0 => MapKind::Slab,
        1 => MapKind::Blocks,
        _ => MapKind::Scatter(seed),
    })
}

/// What one rank reports after a run.
struct RankOut {
    /// `local_sites()`: global ids in storage order.
    sites: Vec<u32>,
    /// Where the frontier prefix ends.
    split: usize,
    /// `raw_distributions()`, site-major over `sites`.
    f: Vec<f64>,
}

/// Run `steps` of a distributed solve over `owner` and return each
/// rank's report plus the digests of the root's gathered snapshot.
fn run_dist(
    geo: &Arc<SparseGeometry>,
    cfg: &SolverConfig,
    owner: &[usize],
    ranks: usize,
    steps: u64,
) -> (Vec<RankOut>, (u64, u64, u64)) {
    let (geo2, cfg2, owner2) = (geo.clone(), cfg.clone(), owner.to_vec());
    let results = run_spmd(ranks, move |comm| {
        let mut ds = DistSolver::new(geo2.clone(), owner2.clone(), cfg2.clone(), comm).unwrap();
        ds.step_n(steps).unwrap();
        let out = RankOut {
            sites: ds.local_sites().to_vec(),
            split: ds.partition().frontier_count(),
            f: ds.raw_distributions(),
        };
        (out, ds.gather_snapshot().unwrap())
    });
    let digests = common::snapshot_digests(results[0].1.as_ref().expect("root gathers"));
    (results.into_iter().map(|(out, _)| out).collect(), digests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random geometries × {D3Q15, D3Q19} × {BGK, TRT, MRT} ×
    /// {pressure, velocity} × {slab, block checkerboard, per-site
    /// scatter} owner maps × {2, 3} ranks.
    ///
    /// Storage order: `local_sites()` is a permutation of the rank's
    /// owned sites, ascending within the frontier prefix and within the
    /// interior suffix, and a site is in the prefix exactly when some
    /// lattice neighbour belongs to another rank (it is in a send plan
    /// or has a halo link — the velocity sets are symmetric, so one
    /// implies the other). Physics: the gathered snapshot and every
    /// rank's distributions, read in global order, equal the serial
    /// solver's by `to_bits`.
    #[test]
    fn storage_order_and_schedules_match_serial_bitwise(
        case in common::case_strategy(),
        map in map_strategy(),
        ranks in 2usize..4,
    ) {
        let geo = case.geo.build();
        let steps = 10u64;
        let cfg = case.config();
        let model = cfg.model.build();
        let q = model.q;
        let owner = owner_map(&geo, map, ranks);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(steps);
        let want = common::snapshot_digests(&serial.snapshot());
        let want_f = serial.raw_distributions();

        let touches_peer = |g: u32| {
            let [x, y, z] = geo.position(g);
            model.c.iter().any(|c| {
                geo.site_at(x as i64 + c[0] as i64, y as i64 + c[1] as i64, z as i64 + c[2] as i64)
                    .is_some_and(|nb| owner[nb as usize] != owner[g as usize])
            })
        };

        let (outs, digests) = run_dist(&geo, &cfg, &owner, ranks, steps);
        prop_assert_eq!(want, digests, "dist vs serial, {:?} {:?}", &case, map);
        for (rank, out) in outs.iter().enumerate() {
            let mut sorted = out.sites.clone();
            sorted.sort_unstable();
            let owned: Vec<u32> = (0..owner.len() as u32).filter(|&g| owner[g as usize] == rank).collect();
            prop_assert_eq!(&sorted, &owned, "rank {} owns other sites", rank);
            for class in [&out.sites[..out.split], &out.sites[out.split..]] {
                prop_assert!(class.windows(2).all(|w| w[0] < w[1]), "rank {} class order", rank);
            }
            for (l, &g) in out.sites.iter().enumerate() {
                prop_assert_eq!(l < out.split, touches_peer(g), "rank {} site {}", rank, g);
                let g = g as usize;
                prop_assert!(
                    common::bits_eq(&out.f[l * q..(l + 1) * q], &want_f[g * q..(g + 1) * q]),
                    "rank {} site {} diverged from serial, {:?} {:?}",
                    rank, g, &case, map
                );
            }
        }
    }
}

/// Overlap accounting engages exactly when there is interior work to
/// hide the exchange behind: a multi-rank run with interior sites
/// records latency-hiding compute seconds (efficiency in (0, 1]), and a
/// zero-peer rank reports that it has nothing to overlap through the
/// public accessors and records none.
#[test]
fn overlap_accounting_and_degenerate_domains() {
    let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0));
    let base = SolverConfig::pressure_driven(1.01, 0.99);

    let geo2 = geo.clone();
    let cfg = base.clone();
    let out = run_spmd_with_stats(2, move |comm| {
        let owner = even_owner(geo2.fluid_count(), comm.size());
        let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
        assert!(ds.overlap_active());
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
    assert!(
        total.overlap_compute_secs() > 0.0,
        "overlapped run must record latency-hiding compute"
    );
    let eff = total.overlap_efficiency();
    assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");

    // Zero peers: nothing to overlap with, nothing recorded.
    let out = run_spmd_with_stats(1, move |comm| {
        let owner = vec![0; geo.fluid_count()];
        let mut ds = DistSolver::new(geo.clone(), owner, base.clone(), comm).unwrap();
        assert!(!ds.overlap_active(), "no peers, no overlap");
        assert_eq!(ds.partition().frontier_count(), 0);
        ds.step_n(3).unwrap();
    });
    assert_eq!(out.summary.total.overlap_compute_secs(), 0.0);
    assert_eq!(out.summary.total.overlap_residual_secs(), 0.0);
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
    let cfg2 = cfg.clone();
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

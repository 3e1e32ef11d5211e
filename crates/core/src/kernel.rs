//! The collide, stream and macroscopics drivers over [`SoaLattice`] and
//! the thread-parallel solver.
//!
//! The serial [`Solver`], the [`ParallelSolver`] here and the distributed
//! solver all step through the three drivers below; they differ only in
//! the site ranges and the thread count they pass. Pull streaming reads
//! only the previous-step buffer and every site writes only its own
//! `f_next` entries, so partitioning the site list into contiguous
//! chunks and running them on worker threads is race-free **and**
//! bit-exact by construction: no atomics, no reductions, no operation
//! reordering. The determinism proptests in `tests/properties.rs` assert
//! `serial == parallel(1) == parallel(4)` via `f64::to_bits`.

use crate::boundary::IoletBc;
use crate::fields::FieldSnapshot;
use crate::layout::{collide_span_soa, macroscopics_span_soa, stream_span_soa, SoaLattice};
use crate::solver::{Solver, SolverConfig};
use hemelb_geometry::SparseGeometry;
use std::sync::Arc;

/// Split a list of ascending, disjoint `(start, len)` site ranges into
/// `(first_site, len)` chunks of at most ⌈total/threads⌉ sites, each
/// contained in one source range. The subdivision never affects results
/// — collide is per-site independent and stream writes disjoint outputs
/// — only which thread computes which sites.
pub(crate) fn range_chunks(ranges: &[(u32, u32)], threads: usize) -> Vec<(usize, usize)> {
    let total: usize = ranges.iter().map(|&(_, len)| len as usize).sum();
    if total == 0 {
        return Vec::new();
    }
    let chunk = total.div_ceil(threads.max(1));
    let mut out = Vec::new();
    for &(start, len) in ranges {
        let mut first = start as usize;
        let mut rem = len as usize;
        while rem > 0 {
            let take = chunk.min(rem);
            out.push((first, take));
            first += take;
            rem -= take;
        }
    }
    out
}

/// Detach the first `len` elements of `rest`, leaving the tail — the
/// safe-Rust way to hand disjoint spans of one array to workers.
fn take_span<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Carve `lanes` into one bundle per chunk — the same site span of every
/// direction, for one worker; sites between chunks are skipped.
fn split_lanes<'a>(
    lanes: &'a mut [Vec<f64>],
    chunks: &[(usize, usize)],
) -> Vec<Vec<&'a mut [f64]>> {
    let mut rest: Vec<&mut [f64]> = lanes.iter_mut().map(|l| l.as_mut_slice()).collect();
    let mut cursor = 0;
    chunks
        .iter()
        .map(|&(first, len)| {
            for lane in rest.iter_mut() {
                take_span(lane, first - cursor);
            }
            cursor = first + len;
            rest.iter_mut().map(|lane| take_span(lane, len)).collect()
        })
        .collect()
}

/// [`split_lanes`] for one per-site array.
fn split_spans<'a, T>(array: &'a mut [T], chunks: &[(usize, usize)]) -> Vec<&'a mut [T]> {
    let mut rest = array;
    let mut cursor = 0;
    chunks
        .iter()
        .map(|&(first, len)| {
            take_span(&mut rest, first - cursor);
            cursor = first + len;
            take_span(&mut rest, len)
        })
        .collect()
}

/// Execute `work` items across at most `threads` scoped workers,
/// preserving item order within each worker. With a single thread — or
/// a single item — everything runs inline on the caller's thread with
/// no spawn at all. The grouping can never affect results (items write
/// disjoint spans; order within a worker is the global order); it
/// exists to bound thread churn, which matters when site ranges are
/// fragmented and chunks far outnumber workers.
fn run_grouped<W, F>(work: Vec<W>, threads: usize, run: F)
where
    W: Send,
    F: Fn(W) + Sync,
{
    if threads <= 1 || work.len() <= 1 {
        for w in work {
            run(w);
        }
        return;
    }
    let per = work.len().div_ceil(threads);
    let mut groups: Vec<Vec<W>> = Vec::with_capacity(threads);
    let mut items = work.into_iter();
    loop {
        let group: Vec<W> = items.by_ref().take(per).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let run = &run;
    rayon::scope(|sc| {
        for group in groups {
            sc.spawn(move |_| {
                for w in group {
                    run(w);
                }
            });
        }
    });
}

impl SoaLattice {
    /// Collide the sites in `ranges` in place (`f` becomes `f*`),
    /// recording their pre-collision moments; sites outside the ranges
    /// are untouched. The chunked BGK path is chunk-offset-invariant, so
    /// neither the ranges nor `threads` can change any site's value.
    /// Each worker gets (for MRT) its own clone of the operator, whose
    /// only mutable state is scratch space.
    pub(crate) fn collide(&mut self, ranges: &[(u32, u32)], threads: usize) {
        let chunks = range_chunks(ranges, threads);
        let work: Vec<_> = split_lanes(&mut self.f, &chunks)
            .into_iter()
            .zip(split_spans(&mut self.moments, &chunks))
            .collect();
        run_grouped(work, threads, |(mut lanes, moments)| {
            let mut op = self.mrt.clone();
            collide_span_soa(
                &self.model,
                self.cfg.collision,
                self.cfg.tau,
                op.as_mut(),
                &mut lanes,
                moments,
            );
        });
    }

    /// Pull-stream the destination sites in `ranges` into the next
    /// buffer, with boundary rules on missing links and `halo` feeding
    /// cross-rank links (empty for non-distributed solvers). Reads only
    /// immutable post-collision state and does **not** close the step
    /// (see [`SoaLattice::finish_step`]) — the overlapped distributed
    /// schedule streams in two pieces first.
    pub(crate) fn stream(&mut self, ranges: &[(u32, u32)], halo: &[f64], threads: usize) {
        let chunks = range_chunks(ranges, threads);
        let work: Vec<_> = chunks
            .iter()
            .map(|&(first, _)| first)
            .zip(split_lanes(&mut self.f_next, &chunks))
            .collect();
        run_grouped(work, threads, |(first, mut out)| {
            stream_span_soa(
                &self.model,
                &self.cfg,
                &self.kinds,
                &self.f,
                &self.plan,
                &self.moments,
                &self.bc_velocity,
                halo,
                self.step,
                first,
                &mut out,
            );
        });
    }

    /// Macroscopic fields (density, velocity, shear-rate magnitude) of
    /// every site.
    pub(crate) fn snapshot(&self, threads: usize) -> FieldSnapshot {
        let n = self.site_count();
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        let mut shear = vec![0.0; n];
        let chunks = range_chunks(&self.full_range(), threads);
        let work: Vec<_> = chunks
            .iter()
            .map(|&(first, _)| first)
            .zip(split_spans(&mut rho, &chunks))
            .zip(split_spans(&mut u, &chunks))
            .zip(split_spans(&mut shear, &chunks))
            .collect();
        run_grouped(work, threads, |(((first, rho), u), shear)| {
            macroscopics_span_soa(&self.model, self.cfg.tau, &self.f, first, rho, u, shear)
        });
        FieldSnapshot {
            step: self.step,
            rho,
            u,
            shear,
        }
    }
}

/// The thread-parallel solver: the serial [`Solver`]'s state stepped
/// with the site list split across `threads` workers.
///
/// Because pull streaming reads only the old buffer and chunk writes are
/// disjoint, the result is **bit-for-bit identical** to [`Solver`] at
/// any thread count — asserted by the determinism suite and the golden
/// fixtures under `tests/golden/`.
pub struct ParallelSolver {
    inner: Solver,
    threads: usize,
}

impl ParallelSolver {
    /// Initialise at rest on `geo` with `threads` worker threads.
    pub fn new(geo: Arc<SparseGeometry>, cfg: SolverConfig, threads: usize) -> Self {
        Self::from_solver(Solver::new(geo, cfg), threads)
    }

    /// Wrap an existing solver (mid-run states carry over unchanged).
    pub fn from_solver(inner: Solver, threads: usize) -> Self {
        ParallelSolver {
            inner,
            threads: threads.max(1),
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wrapped serial solver (read-only access to geometry, config,
    /// distributions, …).
    pub fn solver(&self) -> &Solver {
        &self.inner
    }

    /// Unwrap back into the serial solver, preserving the state.
    pub fn into_inner(self) -> Solver {
        self.inner
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.inner.step_count()
    }

    /// Advance one time step (collide + stream), chunk-parallel.
    pub fn step(&mut self) {
        self.inner.step_with(self.threads);
    }

    /// Advance `count` steps.
    pub fn step_n(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Macroscopic snapshot, extracted chunk-parallel. Bit-identical to
    /// [`Solver::snapshot`] on the same state.
    pub fn snapshot(&self) -> FieldSnapshot {
        self.inner.snapshot_with(self.threads)
    }

    /// Total mass (delegates to the serial implementation).
    pub fn mass(&self) -> f64 {
        self.inner.mass()
    }

    /// Raw distributions, canonical site-major order.
    pub fn raw_distributions(&self) -> Vec<f64> {
        self.inner.raw_distributions()
    }

    /// Replace the BC of inlet `id` at runtime (steering).
    pub fn set_inlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.inner.set_inlet_bc(id, bc);
    }

    /// Replace the BC of outlet `id` at runtime.
    pub fn set_outlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.inner.set_outlet_bc(id, bc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::CollisionKind;
    use crate::solver::ModelKind;
    use hemelb_geometry::VesselBuilder;

    fn bit_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let geo = Arc::new(VesselBuilder::straight_tube(16.0, 3.5).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        let mut par1 = ParallelSolver::new(geo.clone(), cfg.clone(), 1);
        let mut par4 = ParallelSolver::new(geo, cfg, 4);
        for _ in 0..25 {
            serial.step();
            par1.step();
            par4.step();
        }
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par1.raw_distributions()
        ));
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par4.raw_distributions()
        ));
        let ss = serial.snapshot();
        let ps = par4.snapshot();
        assert!(bit_eq(&ss.rho, &ps.rho));
        assert!(bit_eq(&ss.shear, &ps.shear));
        for (a, b) in ss.u.iter().zip(&ps.u) {
            assert!(bit_eq(a, b));
        }
    }

    #[test]
    fn range_chunks_respect_range_bounds() {
        let ranges = [(2u32, 5u32), (10, 1), (20, 7)];
        let chunks = range_chunks(&ranges, 2);
        let sites: Vec<usize> = chunks
            .iter()
            .flat_map(|&(first, len)| first..first + len)
            .collect();
        let expect: Vec<usize> = ranges
            .iter()
            .flat_map(|&(s, l)| s as usize..(s + l) as usize)
            .collect();
        assert_eq!(sites, expect, "chunks must tile the ranges in order");
        for (first, len) in chunks {
            assert!(ranges
                .iter()
                .any(|&(s, l)| first >= s as usize && first + len <= (s + l) as usize));
        }
        assert!(range_chunks(&[], 2).is_empty());
    }

    /// Collide over a two-piece range split is bit-identical on covered
    /// sites to collide over everything, and leaves uncovered sites
    /// untouched — the invariant the overlapped step's frontier/interior
    /// phases rely on (the chunked BGK path must be offset-invariant
    /// across the range seams).
    #[test]
    fn range_collide_matches_full_collide_on_covered_sites() {
        let geo = Arc::new(VesselBuilder::straight_tube(6.0, 2.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.0, 1.0).with_tau(0.9);
        let mut full = Solver::new(geo.clone(), cfg.clone()).lat;
        let mut part = Solver::new(geo, cfg).lat;
        let (n, q) = (full.site_count(), full.model.q);
        assert!(n > 23, "need room for the split below");
        let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).cos().abs()).collect();
        full.install_site_major(0, &init);
        part.install_site_major(0, &init);

        full.collide(&full.full_range(), 1);
        // Cover sites 0..4 and 9..23, leaving the rest untouched.
        let ranges = [(0u32, 4u32), (9, 14)];
        part.collide(&ranges, 3);

        let (full_f, part_f) = (full.to_site_major(), part.to_site_major());
        for s in 0..n {
            let covered = ranges
                .iter()
                .any(|&(st, l)| s >= st as usize && s < (st + l) as usize);
            let want = if covered { &full_f } else { &init };
            assert!(
                bit_eq(&part_f[s * q..(s + 1) * q], &want[s * q..(s + 1) * q]),
                "site {s}"
            );
            if covered {
                assert_eq!(part.moments[s].0.to_bits(), full.moments[s].0.to_bits());
            }
        }
    }

    #[test]
    fn parallel_matches_serial_with_mrt_and_d3q19() {
        let geo = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
        let cfg = SolverConfig::velocity_driven(0.03)
            .with_model(ModelKind::D3Q19)
            .with_collision(CollisionKind::Mrt { omega_ghost: 1.2 });
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        let mut par = ParallelSolver::new(geo, cfg, 3);
        serial.step_n(20);
        par.step_n(20);
        assert!(bit_eq(
            &serial.raw_distributions(),
            &par.raw_distributions()
        ));
    }
}

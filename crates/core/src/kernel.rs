//! The collide, stream and macroscopics drivers over [`SoaLattice`] and
//! the thread-parallel solver.
//!
//! The serial [`Solver`], the [`ParallelSolver`] here and the distributed
//! solver all step through the three drivers below; they differ only in
//! the site range and the thread count they pass. Pull streaming reads
//! only the previous-step buffer and every site writes only its own
//! `f_next` entries, so partitioning the site list into contiguous
//! chunks and running them on worker threads is race-free **and**
//! bit-exact by construction: no atomics, no reductions, no operation
//! reordering. The determinism proptests in `tests/properties.rs` assert
//! `serial == parallel(1) == parallel(4)` via `f64::to_bits`.

use crate::boundary::IoletBc;
use crate::fields::FieldSnapshot;
use crate::layout::{
    collide_span_soa, macroscopics_span_soa, stream_span_soa, IoletSpan, SoaLattice,
};
use crate::solver::{Solver, SolverConfig};
use hemelb_geometry::SparseGeometry;
use std::ops::Range;
use std::sync::Arc;

/// Detach the first `len` elements of `rest`, leaving the tail — the
/// safe-Rust way to hand disjoint spans of one array to workers.
fn take_span<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Per-site state a worker can own a contiguous span of: `carve`
/// detaches the first `len` sites and leaves the rest.
trait Carve {
    fn carve(&mut self, len: usize) -> Self;
}

impl<T> Carve for &mut [T] {
    fn carve(&mut self, len: usize) -> Self {
        take_span(self, len)
    }
}

/// A lane bundle: the same site span of every direction.
impl Carve for Vec<&mut [f64]> {
    fn carve(&mut self, len: usize) -> Self {
        self.iter_mut().map(|lane| take_span(lane, len)).collect()
    }
}

/// The iolet sites of a span: the first `len` sites' share is cut off
/// where their local indices end (`partition_point`).
impl Carve for IoletSpan<'_> {
    fn carve(&mut self, len: usize) -> Self {
        let end = self.first + len;
        let k = self.sites.partition_point(|&s| (s as usize) < end);
        let (sites, rest) = self.sites.split_at(k);
        self.sites = rest;
        let head = IoletSpan {
            first: self.first,
            sites,
            moments: take_span(&mut self.moments, k),
        };
        self.first = end;
        head
    }
}

impl<A: Carve, B: Carve> Carve for (A, B) {
    fn carve(&mut self, len: usize) -> Self {
        (self.0.carve(len), self.1.carve(len))
    }
}

/// The site span `range` of every lane, as one bundle.
fn lane_spans(lanes: &mut [Vec<f64>], range: Range<usize>) -> Vec<&mut [f64]> {
    lanes
        .iter_mut()
        .map(|lane| &mut lane[range.clone()])
        .collect()
}

/// Run `run(first_site, state)` over `range`, whose per-site `state`
/// is cut into at most `threads` contiguous chunks of ⌈len/threads⌉
/// sites, one scoped worker each. With a single thread — or a range that
/// fits one chunk — everything runs inline on the caller's thread with
/// no spawn and no further allocation. The subdivision never affects
/// results (collide is per-site independent and stream writes disjoint
/// outputs), only which thread computes which sites.
fn for_chunks<W, F>(range: Range<usize>, threads: usize, mut state: W, run: F)
where
    W: Carve + Send,
    F: Fn(usize, W) + Sync,
{
    let chunk = range.len().div_ceil(threads.max(1));
    if chunk == range.len() {
        if chunk > 0 {
            run(range.start, state);
        }
        return;
    }
    let run = &run;
    rayon::scope(|sc| {
        for first in range.clone().step_by(chunk) {
            let part = state.carve(chunk.min(range.end - first));
            sc.spawn(move |_| run(first, part));
        }
    });
}

impl SoaLattice {
    /// Collide the sites of `range` in place (`f` becomes `f*`),
    /// recording the pre-collision moments of its iolet sites; sites
    /// outside it are untouched. The chunked sweep is
    /// chunk-offset-invariant, so neither the range nor `threads` can
    /// change any site's value; workers share the direction tables and
    /// the operator immutably.
    pub(crate) fn collide(&mut self, range: Range<usize>, threads: usize) {
        let state = (
            lane_spans(&mut self.f, range.clone()),
            self.iolets.span_mut(range.clone()),
        );
        for_chunks(range, threads, state, |_, (mut lanes, iolets)| {
            collide_span_soa(&self.model, &self.dirs, &self.relax, &mut lanes, iolets);
        });
    }

    /// Pull-stream the destination sites of `range` into the next
    /// buffer, with boundary rules on missing links and `halo` feeding
    /// cross-rank links (empty for non-distributed solvers). Reads only
    /// immutable post-collision state and does **not** close the step
    /// (see [`SoaLattice::finish_step`]) — the distributed schedule
    /// streams in two pieces first.
    pub(crate) fn stream(&mut self, range: Range<usize>, halo: &[f64], threads: usize) {
        let out = lane_spans(&mut self.f_next, range.clone());
        for_chunks(range, threads, out, |first, mut out| {
            stream_span_soa(
                &self.model,
                &self.cfg,
                &self.f,
                &self.plan,
                &self.iolets,
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
        let state = ((&mut rho[..], &mut u[..]), &mut shear[..]);
        for_chunks(0..n, threads, state, |first, ((rho, u), shear)| {
            macroscopics_span_soa(
                &self.model,
                &self.dirs,
                self.cfg.tau,
                &self.f,
                first,
                rho,
                u,
                shear,
            )
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
    fn chunks_tile_the_range_in_at_most_threads_pieces() {
        use std::sync::Mutex;
        for (range, threads) in [(2..19, 1), (2..19, 3), (5..6, 4), (0..8, 8), (3..3, 2)] {
            let mut marks = [0u8; 20];
            let seen = Mutex::new(Vec::new());
            for_chunks(
                range.clone(),
                threads,
                &mut marks[range.clone()],
                |first, part| {
                    part.fill(1);
                    seen.lock().unwrap().push((first, part.len()));
                },
            );
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert!(seen.len() <= threads, "{range:?} on {threads}: {seen:?}");
            let mut next = range.start;
            for (first, len) in seen {
                assert_eq!(first, next, "chunks must tile {range:?} in order");
                assert!(len > 0);
                next += len;
            }
            assert_eq!(next, range.end);
            for (s, &m) in marks.iter().enumerate() {
                assert_eq!(m == 1, range.contains(&s), "site {s} of {range:?}");
            }
        }
    }

    /// Collide over a sub-range is bit-identical on covered sites to
    /// collide over everything, and leaves uncovered sites untouched —
    /// the invariant the distributed step's frontier/interior phases
    /// rely on (the chunked sweep must be offset-invariant across the
    /// seam and the worker chunks, whose boundaries below fall off
    /// multiples of the chunk width under every operator).
    #[test]
    fn range_collide_matches_full_collide_on_covered_sites() {
        let geo = Arc::new(VesselBuilder::straight_tube(6.0, 2.0).voxelise(1.0));
        for collision in [
            CollisionKind::Bgk,
            CollisionKind::trt_magic(),
            CollisionKind::Mrt { omega_ghost: 1.2 },
        ] {
            let cfg = SolverConfig::pressure_driven(1.0, 1.0)
                .with_tau(0.9)
                .with_collision(collision);
            let mut full = Solver::new(geo.clone(), cfg.clone()).lat;
            let mut part = Solver::new(geo.clone(), cfg).lat;
            let (n, q) = (full.site_count(), full.model.q);
            assert!(n > 23, "need room for the split below");
            let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).cos().abs()).collect();
            full.install_site_major(0, &init);
            part.install_site_major(0, &init);

            full.collide(0..n, 1);
            // Cover sites 0..5 inline and 9..23 on three workers, leaving
            // the rest untouched.
            let ranges = [0..5, 9..23];
            part.collide(ranges[0].clone(), 1);
            part.collide(ranges[1].clone(), 3);

            let (full_f, part_f) = (full.to_site_major(), part.to_site_major());
            for s in 0..n {
                let covered = ranges.iter().any(|r| r.contains(&s));
                let want = if covered { &full_f } else { &init };
                assert!(
                    bit_eq(&part_f[s * q..(s + 1) * q], &want[s * q..(s + 1) * q]),
                    "{collision:?} site {s}"
                );
            }
            // The covered iolet sites' stored moments agree too.
            let iolets = &full.iolets.sites;
            assert!(!iolets.is_empty());
            for (k, &s) in iolets.iter().enumerate() {
                if ranges.iter().any(|r| r.contains(&(s as usize))) {
                    let (a, b) = (part.iolets.moments[k], full.iolets.moments[k]);
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{collision:?} iolet {k}");
                    assert!(bit_eq(&a.1, &b.1), "{collision:?} iolet {k}");
                }
            }
        }
    }

    /// The compact moments the collide stores at the iolet sites equal
    /// the scalar pre-collision moments of those sites at any thread
    /// count — the worker shares split the iolet list where their site
    /// ranges split.
    #[test]
    fn compact_iolet_moments_match_the_full_moments() {
        let geo = Arc::new(VesselBuilder::straight_tube(10.0, 2.5).voxelise(1.0));
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let cfg = SolverConfig::velocity_driven(0.03).with_model(kind);
            let mut base = Solver::new(geo.clone(), cfg).lat;
            let (n, q) = (base.site_count(), base.model.q);
            let init: Vec<f64> = (0..n * q).map(|k| 0.05 + (k as f64).sin().abs()).collect();
            base.install_site_major(0, &init);
            let full: Vec<_> = init
                .chunks_exact(q)
                .map(|site| crate::equilibrium::moments(&base.model, site))
                .collect();
            let sites = base.iolets.sites.clone();
            assert!(sites.len() > 3, "inlet and outlet slabs");
            for threads in [1, 2, 3] {
                let mut lat = Solver::new(geo.clone(), base.cfg.clone()).lat;
                lat.install_site_major(0, &init);
                lat.collide(0..n, threads);
                for (k, &s) in sites.iter().enumerate() {
                    let (got, want) = (lat.iolets.moments[k], full[s as usize]);
                    assert_eq!(
                        got.0.to_bits(),
                        want.0.to_bits(),
                        "{kind:?} t{threads} site {s}"
                    );
                    assert!(bit_eq(&got.1, &want.1), "{kind:?} t{threads} site {s}");
                }
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

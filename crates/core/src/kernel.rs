//! The local-step, pull–push and macroscopics drivers over
//! [`SoaLattice`] and the thread-parallel solver.
//!
//! The serial [`Solver`], the [`ParallelSolver`] here and the distributed
//! solver all step through the drivers below. The serial solver and a
//! distributed rank pass one thread (a rank is one thread) and differ
//! only in the site range; [`ParallelSolver`] is the one caller that
//! passes more, and its workers are `std::thread::scope` threads spawned
//! per call, one per chunk or share. Both steps of an AA pair
//! (see [`crate::layout`]) are race-free **and** bit-exact on threads
//! by construction, with no atomics, no reductions and no operation
//! reordering:
//!
//! * the **local step** touches nothing but each site's own lanes, so
//!   contiguous chunks of the site list run on worker threads as they
//!   are;
//! * in the **pull–push step** every site reads and writes exactly its
//!   own slot set, whose lanes belong to its neighbours. A worker owns
//!   one contiguous, [`BLOCK`]-aligned share of the lanes
//!   (`split_at_mut`), and runs the blocks whose slot sets lie wholly
//!   inside it (the plan's per-block `reach`). The **seam** — blocks
//!   with a slot in another share or in the ghost buffer — runs on the
//!   calling thread after the join. Slot sets are disjoint, so neither
//!   the order nor the thread a block runs on can change a bit.
//!
//! The determinism proptests in `tests/properties.rs` assert
//! `serial == parallel(1) == parallel(4)` via `f64::to_bits`.

use crate::boundary::IoletBc;
use crate::fields::FieldSnapshot;
use crate::layout::{
    apply_iolet_rules, blocks, collide_span_soa, macroscopics_span_soa, pull_push_blocks,
    IoletSpan, SoaLattice, BLOCK,
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

/// The iolet sites of a span.
impl Carve for IoletSpan<'_> {
    fn carve(&mut self, len: usize) -> Self {
        self.take_front(len)
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
/// results (the local step and the macroscopics are per-site
/// independent), only which thread computes which sites.
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
    std::thread::scope(|sc| {
        for first in range.clone().step_by(chunk) {
            let part = state.carve(chunk.min(range.end - first));
            sc.spawn(move || run(first, part));
        }
    });
}

/// How the pull–push step splits a site range among up to `threads`
/// workers: contiguous shares of `per` [`BLOCK`]s each, aligned to the
/// plan's blocks so that a block lies in exactly one share.
struct Shares {
    range: Range<usize>,
    first_block: usize,
    per: usize,
    /// Number of shares (1: no worker is spawned).
    count: usize,
}

impl Shares {
    fn new(range: Range<usize>, threads: usize) -> Self {
        let nblocks = blocks(range.clone()).count();
        let per = nblocks.div_ceil(threads.max(1)).max(1);
        Shares {
            first_block: range.start / BLOCK,
            count: nblocks.div_ceil(per).max(1),
            per,
            range,
        }
    }

    /// The sites of share `w`: blocks `w·per..(w+1)·per` of the range.
    fn share(&self, w: usize) -> Range<usize> {
        let a = ((self.first_block + w * self.per) * BLOCK).max(self.range.start);
        a..((self.first_block + (w + 1) * self.per) * BLOCK).min(self.range.end)
    }

    /// The share holding `block`.
    fn home(&self, block: &Range<usize>) -> Range<usize> {
        self.share((block.start / BLOCK - self.first_block) / self.per)
    }
}

impl SoaLattice {
    /// One step over the sites of `range`: the local step at an even
    /// step count, the pull–push step at an odd one. Sites outside it
    /// are untouched, and neither the range nor `threads` can change
    /// any value. Does not advance the step counter (see
    /// [`SoaLattice::finish_step`]): the distributed schedule runs a
    /// step in two ranges.
    pub(crate) fn advance(&mut self, range: Range<usize>, threads: usize) {
        if self.between_pair() {
            self.pull_push(range, threads);
        } else {
            self.collide(range.clone(), threads);
            let (span, rules) = self
                .iolets
                .span_mut(range, &self.model, &self.cfg, self.step);
            apply_iolet_rules(&self.plan, rules, &mut self.f, &span);
        }
    }

    /// Close a step: advance the step counter, which flips the parity
    /// the lanes are read with.
    pub(crate) fn finish_step(&mut self) {
        self.step += 1;
    }

    /// Collide the sites of `range` in place with the AA store (`f*_i`
    /// into lane `ī`), recording the pre-collision moments of its iolet
    /// sites; sites outside it are untouched. The chunked sweep is
    /// chunk-offset-invariant, so neither the range nor `threads` can
    /// change any site's value; workers share the direction tables and
    /// the operator immutably.
    pub(crate) fn collide(&mut self, range: Range<usize>, threads: usize) {
        let (span, _) = self
            .iolets
            .span_mut(range.clone(), &self.model, &self.cfg, self.step);
        let state = (lane_spans(&mut self.f, range.clone()), span);
        for_chunks(range, threads, state, |_, (mut lanes, iolets)| {
            collide_span_soa(&self.model, &self.dirs, &self.relax, &mut lanes, iolets);
        });
    }

    /// The pull–push step over the sites of `range`. On one thread the
    /// blocks run in order; on more, each worker takes a [`Shares`]
    /// share of the range with its lanes and runs the blocks whose slot
    /// sets lie inside it, and the seam runs after the join.
    fn pull_push(&mut self, range: Range<usize>, threads: usize) {
        let SoaLattice {
            model,
            cfg,
            dirs,
            relax,
            iolets,
            f,
            ghost,
            plan,
            step,
        } = self;
        let (model, dirs, relax, plan) = (&*model, &*dirs, &*relax, &*plan);
        let shares = Shares::new(range.clone(), threads);
        if shares.count > 1 {
            let (span, rules) = iolets.span_mut(range.clone(), model, cfg, *step);
            let mut state = (lane_spans(f, range.clone()), span);
            std::thread::scope(|sc| {
                for w in 0..shares.count {
                    let own = shares.share(w);
                    let (mut lanes, span) = state.carve(own.len());
                    sc.spawn(move || {
                        let inside = |block: &Range<usize>| plan.block_within(block, &own);
                        pull_push_blocks(
                            model,
                            dirs,
                            relax,
                            plan,
                            rules,
                            own.clone(),
                            &mut lanes,
                            own.start,
                            &mut [],
                            span,
                            inside,
                        );
                    });
                }
            });
        }
        let seam = |block: &Range<usize>| {
            shares.count == 1 || !plan.block_within(block, &shares.home(block))
        };
        let (span, rules) = iolets.span_mut(range.clone(), model, cfg, *step);
        let mut lanes: Vec<&mut [f64]> = f.iter_mut().map(|l| &mut l[..]).collect();
        pull_push_blocks(
            model, dirs, relax, plan, rules, range, &mut lanes, 0, ghost, span, seam,
        );
    }

    /// Macroscopic fields (density, velocity, shear-rate magnitude) of
    /// every site, from the canonical state at either parity.
    pub(crate) fn snapshot(&self, threads: usize) -> FieldSnapshot {
        let n = self.site_count();
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        let mut shear = vec![0.0; n];
        let state = ((&mut rho[..], &mut u[..]), &mut shear[..]);
        for_chunks(0..n, threads, state, |first, ((rho, u), shear)| {
            let span = first..first + rho.len();
            self.canonical(span, |at, lanes| {
                let (k, len) = (at - first, lanes[0].len());
                macroscopics_span_soa(
                    &self.model,
                    &self.dirs,
                    self.cfg.tau,
                    lanes,
                    &mut rho[k..k + len],
                    &mut u[k..k + len],
                    &mut shear[k..k + len],
                )
            });
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
/// Because every site reads and writes only its own lanes (local step)
/// or its own slot set (pull–push step), and workers own disjoint
/// shares of the lanes, the result is **bit-for-bit identical** to
/// [`Solver`] at any thread count — asserted by the determinism suite
/// and the golden fixtures under `tests/golden/`.
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

    /// Advance one time step, chunk-parallel.
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

    /// On a lattice long enough that the shares hold blocks of both
    /// kinds — inner blocks run on their worker, seam blocks after the
    /// join — the threaded state after every step of two pairs equals
    /// the serial one, bit for bit.
    #[test]
    fn threaded_pull_push_runs_inner_and_seam_blocks_bit_exactly() {
        let geo = Arc::new(VesselBuilder::straight_tube(40.0, 3.0).voxelise(0.5));
        let cfg = SolverConfig::velocity_driven(0.03)
            .with_model(ModelKind::D3Q19)
            .with_collision(CollisionKind::trt_magic());
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        let want: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                serial.step();
                serial.raw_distributions()
            })
            .collect();
        for threads in [2, 3, 4] {
            let mut par = ParallelSolver::new(geo.clone(), cfg.clone(), threads);
            let lat = &par.solver().lat;
            let n = lat.site_count();
            let shares = Shares::new(0..n, threads);
            assert_eq!(shares.count, threads);
            let inner = blocks(0..n)
                .filter(|b| lat.plan.block_within(b, &shares.home(b)))
                .count();
            let all = blocks(0..n).count();
            assert!(
                0 < inner && inner < all,
                "{threads} threads: {inner} of {all} inner"
            );
            for (k, want) in want.iter().enumerate() {
                par.step();
                assert!(
                    bit_eq(want, &par.raw_distributions()),
                    "{threads} threads, step {k}"
                );
            }
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

//! Allocation budget of the step path: how often a steady-state step
//! goes to the allocator must not depend on the site count or on how
//! fragmented the owner map is.
//!
//! A rank-step of the distributed solver may allocate for its messages
//! (encode buffer, shared payload header) and for the lane bundles its
//! two lattice sweeps hand to the kernels — a count per peer, not per
//! site and not per frontier run, and the same in both steps of an AA
//! pair — and a serial step, whatever the collision operator and the
//! step's parity, only for its one lane bundle.
//!
//! The binary has its own counting `#[global_allocator]`, with one
//! counter per thread, so ranks (threads of this process) are counted
//! apart and the test harness's own threads never disturb a figure.

use hemelb::core::collision::CollisionKind;
use hemelb::core::{DistSolver, Solver, SolverConfig};
use hemelb::geometry::{SparseGeometry, VesselBuilder};
use hemelb::parallel::run_spmd;
use hemelb::partition::graph::Connectivity;
use hemelb::partition::{MultilevelKWay, Partitioner, SiteGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (fresh and grown) made by this thread. `const`
    /// initialised and without a destructor, so touching it from inside
    /// the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is passed on exactly as the caller gave it.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The paper's saccular-aneurysm vessel: Small at `dx = 0.5` (17 388
/// sites), Medium at 0.25 (137 320).
fn aneurysm(dx: f64) -> Arc<SparseGeometry> {
    Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(dx))
}

const STEPS: u64 = 50;

/// Allocations each of two ranks makes over `STEPS` steady-state steps
/// of the Small aneurysm decomposed by `owner`, obs disabled.
fn rank_step_allocations(geo: &Arc<SparseGeometry>, owner: Vec<usize>) -> Vec<u64> {
    let geo = geo.clone();
    run_spmd(2, move |comm| {
        comm.set_obs_enabled(false);
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut ds = DistSolver::new(geo.clone(), owner.clone(), cfg, comm).unwrap();
        assert!(ds.overlap_active(), "both maps leave interior to overlap");
        ds.step_n(20).unwrap();
        comm.barrier().unwrap();
        let before = allocations();
        ds.step_n(STEPS).unwrap();
        allocations() - before
    })
}

#[test]
fn rank_step_allocations_do_not_depend_on_map_fragmentation() {
    let geo = aneurysm(0.5);
    let n = geo.fluid_count();
    let slab: Vec<usize> = (0..n).map(|s| s * 2 / n).collect();
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let kway = MultilevelKWay.partition(&graph, 2);
    // The k-way map is the fragmented one: far more maximal runs of one
    // owner along the site list than the slab's two.
    let runs = |owner: &[usize]| 1 + owner.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(runs(&slab), 2);
    assert!(runs(&kway) > 100, "k-way map has {} runs", runs(&kway));

    let on_slab = rank_step_allocations(&geo, slab);
    let on_kway = rank_step_allocations(&geo, kway);
    assert_eq!(
        on_slab, on_kway,
        "allocations over {STEPS} steps per rank: slab vs k-way"
    );
    for total in on_kway {
        assert_eq!(total % STEPS, 0, "a constant count per step");
        assert!(total / STEPS <= 16, "{} allocations a step", total / STEPS);
    }
}

/// Allocations per steady-state step of the serial solver under
/// `collision` on the aneurysm at resolution `dx`.
fn serial_step_allocations(collision: CollisionKind, dx: f64) -> u64 {
    let cfg = SolverConfig::pressure_driven(1.01, 0.99).with_collision(collision);
    let mut solver = Solver::new(aneurysm(dx), cfg);
    solver.set_obs_enabled(false);
    solver.step_n(5);
    let before = allocations();
    solver.step_n(STEPS);
    let total = allocations() - before;
    assert_eq!(total % STEPS, 0, "a constant count per step at dx {dx}");
    total / STEPS
}

#[test]
fn serial_bgk_step_allocates_a_small_constant() {
    let per_step = [0.5, 0.25].map(|dx| serial_step_allocations(CollisionKind::Bgk, dx));
    assert_eq!(per_step[0], per_step[1], "Small vs Medium");
    assert!(per_step[0] <= 4, "{} allocations a step", per_step[0]);
}

/// TRT and MRT run the same chunked sweep as BGK over borrowed tables
/// and stack scratch, and a pull–push block's buffer is on the stack
/// too: the one lane bundle is all a step allocates, local or
/// pull–push.
#[test]
fn serial_trt_and_mrt_steps_allocate_only_their_lane_bundle() {
    for collision in [
        CollisionKind::Bgk,
        CollisionKind::trt_magic(),
        CollisionKind::Mrt { omega_ghost: 1.2 },
    ] {
        assert_eq!(serial_step_allocations(collision, 0.5), 1, "{collision:?}");
    }
}

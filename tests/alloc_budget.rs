//! Allocation budget of the step path: how often a steady-state step
//! goes to the allocator must not depend on the site count or on how
//! fragmented the owner map is.
//!
//! A rank-step of the distributed solver may allocate for its messages
//! only (one encode buffer per peer, which is the payload) — a count per
//! peer, not per site and not per frontier run, and the same in both
//! steps of an AA pair. A serial step, whatever the collision operator
//! and the step's parity, allocates nothing: the lane bundle a sweep
//! hands the kernels and a pull–push block's buffer are on the stack.
//!
//! In situ work inside a rank runs on the rank's one thread: a brick's
//! render asks only for its partial image and its skip mask, and a
//! snapshot's reductions ask for nothing.
//!
//! Set-up has a byte budget: building a solver asks for its lanes and
//! its streaming plan, not for a `q × n` table of the links besides.
//!
//! The same allocator bounds what a decoder asks for: hostile `.sgmy`
//! bytes must not make the reader allocate more than the file or its
//! index grid, hostile `parallel::wire` bytes no more than the
//! payload's length in the elements they decode to, and a partial
//! steering frame no more than one read beyond what has arrived of it,
//! whatever length its prefix announces.
//!
//! The binary has its own counting `#[global_allocator]`, with one
//! counter per thread, so ranks (threads of this process) are counted
//! apart and the test harness's own threads never disturb a figure.

use hemelb::core::collision::CollisionKind;
use hemelb::core::{DistSolver, FieldSnapshot, Solver, SolverConfig};
use hemelb::geometry::format::{
    assemble, read_block_sites, read_header, read_sgmy, write_sgmy, SgmyHeader,
};
use hemelb::geometry::{SparseGeometry, Vec3, VesselBuilder};
use hemelb::insitu::camera::Camera;
use hemelb::insitu::field::Scalar;
use hemelb::insitu::volume::{render_brick_opts, Brick, RenderOptions};
use hemelb::insitu::TransferFunction;
use hemelb::octree::FieldOctree;
use hemelb::parallel::wire::{Wire, WireReader, WireWriter};
use hemelb::parallel::{run_spmd, CommResult};
use hemelb::partition::graph::Connectivity;
use hemelb::partition::{MultilevelKWay, Partitioner, SiteGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

thread_local! {
    /// Allocations (fresh and grown) made by this thread. `const`
    /// initialised and without a destructor, so touching it from inside
    /// the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest block this thread has asked for, fresh or grown.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has asked for: each fresh block's size and what
    /// each grown block grew by.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one request on this thread for a block of `bytes`, `grown` of
/// them new.
fn note(bytes: usize, grown: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(bytes)));
    BYTES.with(|c| c.set(c.get() + grown as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is two thread-local
// counter updates that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: `layout` is passed on exactly as the caller gave it.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size.saturating_sub(layout.size()));
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
        // One halo payload to the one peer.
        assert!(total / STEPS <= 1, "{} allocations a step", total / STEPS);
    }
}

/// The bytes this thread asks the allocator for while `f` runs (see
/// `BYTES`), next to its result.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

/// Set-up builds the streaming plan in one walk over the sites, with no
/// `q × n` table of the links beside it. A lattice of `n` sites holds
/// `q` lanes of `n` `f64`s, `8 q n` bytes; a table of its links would be
/// `q × n` `u32`s, `4 q n` more. What `Solver::new` asks the allocator
/// for at Small (D3Q15, 17 388 sites) is bounded by the two, `12 q n`:
/// a construction that builds the table is over it with its first plan
/// list. A rank of `DistSolver::new` (2 ranks, the k-way map, obs off)
/// also holds its ordering and exchange state beside the plan: a `u32`
/// per global and per own site (the global-to-local index and the
/// storage order), a byte per cell of the geometry's box (the frontier
/// pass's grid) and some fifty bytes per halo link (requests, their
/// payloads, send plan, halo list, ghost slots) — under `2 q n` here —
/// so its bound is `14 q n`. Fresh blocks count their size, grown ones
/// what they grew by. The table-building construction before the plan
/// builder asked for 13.3 `q n` serially and 17.0 and 18.3 on the ranks;
/// the plan builder asks for 9.3, 11.6 and 12.8.
#[test]
fn solver_construction_allocates_no_link_table() {
    let geo = aneurysm(0.5);
    let cfg = SolverConfig::pressure_driven(1.01, 0.99);
    let (solver, bytes) = bytes_allocated(|| Solver::new(geo.clone(), cfg.clone()));
    let (q, n) = (solver.model().q as u64, geo.fluid_count() as u64);
    assert_eq!(q, 15);
    assert!(
        bytes < 12 * q * n,
        "Solver::new: {bytes} bytes for {n} sites"
    );
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let owner = MultilevelKWay.partition(&graph, 2);
    let ranks = run_spmd(2, move |comm| {
        comm.set_obs_enabled(false);
        let owner = owner.clone();
        let (ds, bytes) =
            bytes_allocated(|| DistSolver::new(geo.clone(), owner, cfg.clone(), comm));
        (ds.unwrap().local_sites().len() as u64, bytes)
    });
    for (rank, (n, bytes)) in ranks.into_iter().enumerate() {
        assert!(
            bytes < 14 * q * n,
            "rank {rank}: {bytes} bytes for {n} sites"
        );
    }
}

/// The octree is built from one sort of the sites' Morton keys: the
/// keyed sites and the exactly sized node array are all it asks the
/// allocator for, at any site count. The build that bucketed each
/// internal node's sites into eight `Vec`s made 24 482 allocations at
/// Small.
#[test]
fn octree_build_allocates_a_small_constant() {
    let geo = aneurysm(0.5);
    let field: Vec<f64> = (0..geo.fluid_count()).map(|i| i as f64).collect();
    let before = allocations();
    let tree = FieldOctree::build(&geo, &field);
    let count = allocations() - before;
    assert!(tree.nodes().len() > geo.fluid_count());
    assert!(count <= 4, "FieldOctree::build: {count} allocations");
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
    assert_eq!(per_step[0], 0, "allocations a step");
}

/// TRT and MRT run the same chunked sweep as BGK over borrowed tables
/// and stack scratch, and the lane bundle and a pull–push block's
/// buffer are on the stack too: a step allocates nothing, local or
/// pull–push.
#[test]
fn serial_trt_and_mrt_steps_allocate_nothing() {
    for collision in [
        CollisionKind::Bgk,
        CollisionKind::trt_magic(),
        CollisionKind::Mrt { omega_ghost: 1.2 },
    ] {
        assert_eq!(serial_step_allocations(collision, 0.5), 0, "{collision:?}");
    }
}

/// A developed snapshot of the Small aneurysm.
fn developed_small() -> (Arc<SparseGeometry>, Arc<FieldSnapshot>) {
    let geo = aneurysm(0.5);
    let mut solver = Solver::new(geo.clone(), SolverConfig::pressure_driven(1.01, 0.99));
    solver.step_n(20);
    (geo, Arc::new(solver.snapshot()))
}

/// A rank's render of its k-way brick (2 ranks, Small) asks for the
/// partial image's pixels and depths and the brick's skip mask, and for
/// nothing per row, band or pixel.
#[test]
fn in_rank_render_allocates_its_image_and_skip_mask_only() {
    let (geo, snap) = developed_small();
    let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
    let owner = MultilevelKWay.partition(&graph, 2);
    let s = geo.shape();
    let cam = Camera::framing(
        Vec3::ZERO,
        Vec3::new(s[0] as f64, s[1] as f64, s[2] as f64),
        Vec3::new(0.0, -1.0, 0.3),
        96,
        72,
    );
    let tf = TransferFunction::heat(0.0, snap.max_speed());
    let counts = run_spmd(2, move |comm| {
        let mine: Vec<u32> = (0..geo.fluid_count() as u32)
            .filter(|&site| owner[site as usize] == comm.rank())
            .collect();
        let brick = Brick::from_sites(&geo, &snap, Scalar::Speed, &mine).unwrap();
        let before = allocations();
        let (_, stats) = render_brick_opts(&brick, &cam, &tf, 0.5, &RenderOptions::default());
        (allocations() - before, stats.samples_shaded)
    });
    for (rank, (count, shaded)) in counts.into_iter().enumerate() {
        assert!(shaded > 0, "rank {rank} rendered nothing");
        assert_eq!(count, 3, "rank {rank}: render_brick_opts allocations");
    }
}

/// The whole-snapshot reductions fold in place on a rank's thread.
#[test]
fn snapshot_reductions_allocate_nothing() {
    let (_, snap) = developed_small();
    let counts = run_spmd(1, move |_| {
        let mut prev = (*snap).clone();
        prev.u.iter_mut().for_each(|u| u[0] *= 0.5);
        let count = |f: &dyn Fn() -> f64| {
            let before = allocations();
            assert!(f() > 0.0);
            allocations() - before
        };
        [
            count(&|| snap.mass()),
            count(&|| snap.mean_speed()),
            count(&|| snap.max_speed()),
            count(&|| snap.velocity_rms_change(&prev)),
        ]
    });
    assert_eq!(
        counts[0], [0; 4],
        "mass, mean_speed, max_speed, velocity_rms_change"
    );
}

/// The largest block `f` asks the allocator for on this thread, next to
/// its result.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LARGEST.with(|c| c.replace(0));
    let r = f();
    let largest = LARGEST.with(|c| c.replace(before.max(c.get())));
    (r, largest)
}

/// Whether `geo` is a geometry `header` can describe: as many sites as
/// it announces, each inside its shape, each the one the index grid
/// finds at its position.
fn consistent(header: &SgmyHeader, geo: &SparseGeometry) -> bool {
    geo.shape() == header.shape
        && geo.fluid_count() as u64 == header.fluid_total
        && (0..geo.fluid_count() as u32).all(|i| {
            let [x, y, z] = geo.position(i);
            let inside = [x, y, z]
                .iter()
                .zip(header.shape)
                .all(|(&c, n)| (c as usize) < n);
            inside && geo.site_at(x as i64, y as i64, z as i64) == Some(i)
        })
}

/// `.sgmy` level two under every truncation and every single-bit flip of
/// a small written file: `read_sgmy`, and `read_block_sites` over two
/// halves of the block range assembled as a distributed read does, both
/// return an error or the same consistent geometry. Nothing panics, and
/// no request to the allocator is larger than the file or the index
/// grid its header's blocks can span (a flipped shape stays inside its
/// blocks, since the block count must still match it).
#[test]
fn sgmy_level_two_survives_every_truncation_and_bit_flip() {
    let geo = VesselBuilder::straight_tube(10.0, 2.0).voxelise(1.0);
    let mut valid = Vec::new();
    write_sgmy(&geo, 4, &mut valid).unwrap();
    let header = read_header(&mut Cursor::new(&valid)).unwrap();
    let blocks = header.fluid_per_block.len();
    let block_cells = blocks * header.block_size.pow(3);
    let bound = valid.len().max(block_cells * std::mem::size_of::<u32>());
    assert!(blocks >= 4 && geo.fluid_count() > 50, "{blocks} blocks");

    let decode = |bytes: &[u8]| -> Result<(), String> {
        let (got, largest) = largest_allocation(|| {
            let whole = read_sgmy(&mut Cursor::new(bytes));
            let halves = read_header(&mut Cursor::new(bytes)).and_then(|h| {
                let mut r = Cursor::new(bytes);
                let mut sites = read_block_sites(&h, &mut r, 0..blocks / 2)?;
                sites.extend(read_block_sites(&h, &mut r, blocks / 2..blocks)?);
                Ok((assemble(&h, sites)?, h))
            });
            (whole, halves)
        });
        if largest > bound {
            return Err(format!("asked for {largest} B, bound {bound} B"));
        }
        match got {
            (Ok(whole), Ok((halves, h))) => {
                if !consistent(&h, &whole) {
                    return Err("an inconsistent geometry".into());
                }
                if whole.positions() != halves.positions() {
                    return Err("the halves differ from the whole".into());
                }
                Ok(())
            }
            (Err(_), Err(_)) => Ok(()),
            (whole, halves) => Err(format!(
                "read_sgmy {:?} but the block reads {:?}",
                whole.err(),
                halves.err()
            )),
        }
    };
    decode(&valid).unwrap();
    for len in 0..valid.len() {
        let got = read_sgmy(&mut Cursor::new(&valid[..len]));
        assert!(got.is_err(), "a {len}-byte prefix decoded");
        decode(&valid[..len]).unwrap_or_else(|e| panic!("prefix of {len} bytes: {e}"));
    }
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        decode(&flipped).unwrap_or_else(|e| panic!("bit {bit} (byte {}): {e}", bit / 8));
    }
}

/// `decode` over `valid`, every proper prefix of it and every single-bit
/// flip of it: nothing panics, every prefix is an error, and no request
/// to the allocator is larger than `elem` × `valid.len()`, `elem` being
/// the size of the type the payload decodes into.
fn sweep_wire_payload(
    name: &str,
    valid: Vec<u8>,
    elem: usize,
    decode: impl Fn(Vec<u8>) -> CommResult<()>,
) {
    let bound = elem * valid.len();
    let check = |bytes: Vec<u8>, what: String| -> bool {
        let (outcome, largest) =
            largest_allocation(|| catch_unwind(AssertUnwindSafe(|| decode(bytes))));
        let Ok(decoded) = outcome else {
            panic!("{name}: {what} panicked");
        };
        assert!(
            largest <= bound,
            "{name}: {what} asked for {largest} B, bound {bound} B"
        );
        decoded.is_ok()
    };
    assert!(check(valid.to_vec(), "the valid payload".into()), "{name}");
    for len in 0..valid.len() {
        let decoded = check(valid[..len].to_vec(), format!("a {len}-byte prefix"));
        assert!(!decoded, "{name}: a {len}-byte prefix decoded");
    }
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(flipped, format!("bit {bit} flipped"));
    }
}

/// `parallel::wire` under every truncation and every single-bit flip of
/// a payload of each composite `Wire` impl and of each bulk getter: an error or a value, never a panic, never a block
/// larger than the payload's length in decoded elements. Each payload
/// is a few hundred bytes, so a decode error's message fits its bound.
#[test]
fn wire_payloads_survive_every_truncation_and_bit_flip() {
    use std::mem::size_of;
    fn whole<T: Wire>(b: Vec<u8>) -> CommResult<()> {
        T::from_bytes(b).map(drop)
    }
    /// A getter that must consume the whole payload.
    fn read_all<T>(
        b: Vec<u8>,
        get: impl FnOnce(&mut WireReader) -> CommResult<T>,
    ) -> CommResult<()> {
        let mut r = WireReader::new(b);
        get(&mut r)?;
        r.expect_end()
    }
    fn written(put: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        put(&mut w);
        w.finish()
    }

    let labels: Vec<(u32, String)> = (0..12)
        .map(|i| (i * 0x0101_0101, format!("rank {i}: ✓ sac")))
        .collect();
    sweep_wire_payload(
        "Vec<(u32, String)>",
        labels.to_bytes(),
        size_of::<(u32, String)>(),
        whole::<Vec<(u32, String)>>,
    );
    let seeds: Vec<[f64; 3]> = (0..12)
        .map(|i| [i as f64, -0.5 * i as f64, f64::MIN_POSITIVE * i as f64])
        .collect();
    sweep_wire_payload(
        "Vec<[f64; 3]>",
        seeds.to_bytes(),
        size_of::<[f64; 3]>(),
        whole::<Vec<[f64; 3]>>,
    );
    let text = "pressure ✓ inlet 0 → outlet 1; ".repeat(10);
    sweep_wire_payload("String", text.to_bytes(), 1, whole::<String>);

    let f64s: Vec<f64> = (0..40).map(|i| i as f64 * 0.75 - 3.0).collect();
    let f32s: Vec<f32> = (0..80).map(|i| i as f32 * 0.25 - 1.0).collect();
    let raw: Vec<u8> = (0..=255).collect();
    sweep_wire_payload(
        "get_f64_vec",
        written(|w| w.put_f64_slice(&f64s)),
        size_of::<f64>(),
        |b| read_all(b, WireReader::get_f64_vec),
    );
    let f32_payload = written(|w| w.put_f32_slice(&f32s));
    sweep_wire_payload("get_f32_vec", f32_payload.clone(), size_of::<f32>(), |b| {
        read_all(b, WireReader::get_f32_vec)
    });
    sweep_wire_payload("get_f32_slice", f32_payload, size_of::<f32>(), |b| {
        read_all(b, |r| r.get_f32_slice(&mut Vec::new()))
    });
    sweep_wire_payload("get_bytes", written(|w| w.put_bytes(&raw)), 1, |b| {
        read_all(b, WireReader::get_bytes)
    });
}

/// A steering frame's length prefix does not size the receive buffer:
/// after a client announces a 32 MiB frame and sends ten bytes of it,
/// a poll keeps what arrived and asks the allocator for no more than
/// one read's worth. The poll runs on a helper thread (the counters are
/// per thread) under a deadline, so a poll that blocks on the rest of
/// the frame fails the test instead of hanging it.
#[test]
fn announced_frame_length_does_not_size_the_receive_buffer() {
    use hemelb::steering::transport::{TcpTransport, Transport};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server_stream, _) = listener.accept().unwrap();
    let mut partial = (32u32 << 20).to_le_bytes().to_vec();
    partial.extend([7; 10]);
    client.write_all(&partial).unwrap();
    // Wait until all of it is readable, so the poll meets a partial
    // frame rather than an empty socket.
    while server_stream.peek(&mut vec![0; partial.len()]).unwrap() < partial.len() {}
    let server = TcpTransport::new(server_stream).unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let poller = std::thread::spawn(move || {
        let polled = largest_allocation(|| server.try_recv_frame().map_err(|e| e.kind()));
        tx.send(polled).unwrap();
    });
    let (polled, largest) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("try_recv_frame blocked on a partial frame");
    poller.join().unwrap();
    assert_eq!(polled, Ok(None));
    assert!(
        largest < 1 << 20,
        "a 10-byte partial frame asked for {largest} B"
    );
}

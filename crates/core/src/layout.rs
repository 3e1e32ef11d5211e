//! The lattice state and its per-span kernels: the structure-of-arrays
//! (SoA) fluid-site list every solver in this crate steps.
//!
//! Distributions are kept as **one contiguous `f64` lane per velocity
//! direction** (`f[dir][site]`) plus a streaming-index table built once
//! at setup: `stream[dir][site]` names the site whose direction-`dir`
//! population streams *into* `site` (pull streaming), with missing links
//! resolved to the sentinel [`LINK_BOUNDARY`] (bounce-back / iolet rule)
//! and cross-rank links to `HALO_FLAG | slot`. The table is compiled
//! into a [`StreamPlan`], so the streaming phase is segment copies plus
//! two flat link lists with no per-link dispatch.
//!
//! Site `s` of a lattice is the `s`-th fluid site handed to it at
//! construction: every fluid site in global order for the serial
//! solver; for the distributed one a rank's owned sites in its storage
//! order — frontier first, interior after (see [`SitePartition`] and
//! [`crate::dist`]) — so the drivers in [`crate::kernel`] only ever
//! sweep one contiguous site range. Snapshots and checkpoints exchange
//! state in the canonical site-major order (`[site][dir]`) over that
//! site list.
//!
//! ## Bitwise reference
//!
//! The chunked-lane BGK path performs the exact per-site operation
//! sequence of the scalar [`collide`](crate::collision::collide) (same
//! associativity, same visit order within a site); TRT and MRT run that
//! scalar code per site directly. Whole-step behaviour is pinned by the
//! digests under `tests/golden/`.

use crate::boundary::IoletBc;
use crate::collision::{collide, CollisionKind};
use crate::equilibrium::{moments as site_moments, pi_neq, shear_rate_magnitude};
use crate::model::LatticeModel;
use crate::mrt::MrtOperator;
use crate::solver::{boundary_rule, precompute_bc_velocities, SolverConfig};
use crate::CS2;
use hemelb_geometry::{IoLetKind, SiteKind, SparseGeometry};

/// Sentinel in the streaming table marking a missing (boundary) link.
pub(crate) const LINK_BOUNDARY: u32 = u32::MAX;

/// Flag bit marking a streaming source that lives in the halo buffer of
/// the distributed solver; the low bits are the halo slot. Check
/// [`LINK_BOUNDARY`] first — the sentinel has this bit set too.
pub(crate) const HALO_FLAG: u32 = 1 << 31;

/// Whether a streaming-table entry names a plain local source site.
fn is_local(entry: u32) -> bool {
    entry & HALO_FLAG == 0
}

/// One contiguous copy segment of the bulk streaming plan: destination
/// sites `dst..dst+len` of a lane pull from the consecutive sources
/// `src..src+len` of the same lane, so the gather collapses to a
/// `copy_from_slice` (bit-identical by construction — it moves the same
/// values to the same places). Raster site numbering makes such
/// segments long: within a column of fluid sites every direction's
/// sources are themselves consecutive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CopySeg {
    /// First destination site.
    pub dst: u32,
    /// First source site.
    pub src: u32,
    /// Segment length in sites.
    pub len: u32,
}

/// The fully resolved streaming schedule: every `(site, dir)` link of
/// the table appears in exactly one of the three lists, so the
/// streaming phase has no per-link dispatch left — local links run as
/// segment copies, boundary links as a flat list of rule applications,
/// halo links as a flat list of buffer reads. Link order never matters
/// for the result: each output slot is written exactly once from inputs
/// that the phase only reads.
pub(crate) struct StreamPlan {
    /// Per-direction contiguous-copy segments over all plain-local
    /// links, sorted by destination.
    pub copy: Vec<Vec<CopySeg>>,
    /// `(site, dir)` links resolved by the boundary rule, sorted by site.
    pub boundary: Vec<(u32, u32)>,
    /// `(site, dir, slot)` links fed from the halo buffer, sorted by site.
    pub halo: Vec<(u32, u32, u32)>,
}

/// Compile the streaming table into a [`StreamPlan`].
fn build_stream_plan(stream: &[Vec<u32>], n: usize) -> StreamPlan {
    let mut boundary = Vec::new();
    let mut halo = Vec::new();
    for s in 0..n {
        for (i, lane) in stream.iter().enumerate() {
            let e = lane[s];
            if e == LINK_BOUNDARY {
                boundary.push((s as u32, i as u32));
            } else if !is_local(e) {
                halo.push((s as u32, i as u32, e & !HALO_FLAG));
            }
        }
    }
    let copy = stream
        .iter()
        .map(|lane| {
            let mut segs = Vec::new();
            let mut s = 0;
            while s < n {
                let e = lane[s];
                if !is_local(e) {
                    s += 1;
                    continue;
                }
                let mut len = 1usize;
                while s + len < n {
                    let e2 = lane[s + len];
                    if !is_local(e2) || e2 != e + len as u32 {
                        break;
                    }
                    len += 1;
                }
                segs.push(CopySeg {
                    dst: s as u32,
                    src: e,
                    len: len as u32,
                });
                s += len;
            }
            segs
        })
        .collect();
    StreamPlan {
        copy,
        boundary,
        halo,
    }
}

/// Build the lane-major streaming table for `sites` (global ids):
/// `table[dir][k]` is `resolve(g, dir)` for the fluid site `g` found at
/// `pos(sites[k]) − c_dir`, or [`LINK_BOUNDARY`] when there is none.
/// `resolve` is called in `(site, dir)` order.
pub(crate) fn build_stream_table(
    geo: &SparseGeometry,
    model: &LatticeModel,
    sites: impl ExactSizeIterator<Item = u32>,
    mut resolve: impl FnMut(u32, usize) -> u32,
) -> Vec<Vec<u32>> {
    let mut table = vec![vec![LINK_BOUNDARY; sites.len()]; model.q];
    for (k, g) in sites.enumerate() {
        let [x, y, z] = geo.position(g);
        for (i, c) in model.c.iter().enumerate() {
            let src = geo.site_at(
                x as i64 - c[0] as i64,
                y as i64 - c[1] as i64,
                z as i64 - c[2] as i64,
            );
            if let Some(src) = src {
                table[i][k] = resolve(src, i);
            }
        }
    }
    table
}

/// The complete lattice state of one solver (or one rank): the
/// double-buffered distribution lanes, the streaming schedule, the
/// per-site collision inputs and the step counter. The collide, stream
/// and macroscopics drivers over it live in [`crate::kernel`].
pub(crate) struct SoaLattice {
    pub(crate) model: LatticeModel,
    pub(crate) cfg: SolverConfig,
    /// MRT operator when `cfg.collision` is [`CollisionKind::Mrt`].
    pub(crate) mrt: Option<MrtOperator>,
    /// Direction tables of the chunked BGK path, built once.
    pub(crate) bgk: BgkTables,
    /// Site kinds, local order.
    pub(crate) kinds: Vec<SiteKind>,
    /// Precomputed iolet velocities (zero away from velocity iolets).
    pub(crate) bc_velocity: Vec<[f64; 3]>,
    /// Pre-collision moments of the current step, per site.
    pub(crate) moments: Vec<(f64, [f64; 3])>,
    /// Current distributions, `f[dir][site]`.
    pub(crate) f: Vec<Vec<f64>>,
    /// Streaming destination buffer, same shape.
    pub(crate) f_next: Vec<Vec<f64>>,
    /// Streaming source table, `stream[dir][site]`: local site index,
    /// `HALO_FLAG | slot`, or [`LINK_BOUNDARY`].
    pub(crate) stream: Vec<Vec<u32>>,
    /// The compiled streaming schedule (copies + boundary + halo lists).
    pub(crate) plan: StreamPlan,
    /// Completed time steps.
    pub(crate) step: u64,
}

impl SoaLattice {
    /// The rest state (`ρ = 1`, `u = 0`: lane `i` is the constant `w_i`)
    /// on `sites` of `geo`, streaming by `stream`.
    pub(crate) fn new(
        geo: &SparseGeometry,
        sites: impl ExactSizeIterator<Item = u32> + Clone,
        cfg: SolverConfig,
        model: LatticeModel,
        stream: Vec<Vec<u32>>,
    ) -> Self {
        let n = sites.len();
        assert!(
            stream.len() == model.q && stream.iter().all(|lane| lane.len() == n),
            "streaming table shape"
        );
        let f: Vec<Vec<f64>> = model.w.iter().map(|&w| vec![w; n]).collect();
        let mrt = match cfg.collision {
            CollisionKind::Mrt { omega_ghost } => Some(MrtOperator::new(&model, omega_ghost)),
            _ => None,
        };
        SoaLattice {
            mrt,
            bgk: BgkTables::new(&model),
            kinds: sites.clone().map(|g| geo.kind(g)).collect(),
            bc_velocity: precompute_bc_velocities(geo, &cfg, sites),
            moments: vec![(1.0, [0.0; 3]); n],
            f_next: f.clone(),
            f,
            plan: build_stream_plan(&stream, n),
            stream,
            model,
            cfg,
            step: 0,
        }
    }

    /// Number of fluid sites.
    pub(crate) fn site_count(&self) -> usize {
        self.moments.len()
    }

    /// Fraction of sites whose every link is a plain local source (they
    /// stream by segment copies alone).
    pub(crate) fn bulk_fraction(&self) -> f64 {
        let n = self.site_count();
        if n == 0 {
            return 0.0;
        }
        let bulk = (0..n)
            .filter(|&s| self.stream.iter().all(|lane| is_local(lane[s])))
            .count();
        bulk as f64 / n as f64
    }

    /// Replace the BC of one inlet or outlet and refresh the precomputed
    /// boundary velocities; `geo` and `sites` as at construction.
    pub(crate) fn set_iolet_bc(
        &mut self,
        geo: &SparseGeometry,
        sites: impl ExactSizeIterator<Item = u32>,
        kind: IoLetKind,
        id: usize,
        bc: IoletBc,
    ) {
        let bcs = match kind {
            IoLetKind::Inlet => &mut self.cfg.inlet_bcs,
            IoLetKind::Outlet => &mut self.cfg.outlet_bcs,
        };
        if id >= bcs.len() {
            bcs.resize(id + 1, bc);
        }
        bcs[id] = bc;
        self.bc_velocity = precompute_bc_velocities(geo, &self.cfg, sites);
    }

    /// Transpose the current distributions to the canonical site-major
    /// order (checkpointing, digests).
    pub(crate) fn to_site_major(&self) -> Vec<f64> {
        let q = self.model.q;
        let mut out = vec![0.0; self.site_count() * q];
        for (i, lane) in self.f.iter().enumerate() {
            for (s, &v) in lane.iter().enumerate() {
                out[s * q + i] = v;
            }
        }
        out
    }

    /// Overwrite the dynamical state from a site-major array and its
    /// step counter (checkpoint restore).
    ///
    /// # Panics
    /// Panics if the array length does not match `sites × q`.
    pub(crate) fn install_site_major(&mut self, step: u64, f_site_major: &[f64]) {
        let q = self.model.q;
        assert_eq!(f_site_major.len(), self.site_count() * q);
        for (i, lane) in self.f.iter_mut().enumerate() {
            for (s, v) in lane.iter_mut().enumerate() {
                *v = f_site_major[s * q + i];
            }
        }
        self.step = step;
    }

    /// Overwrite the `q` populations of one site.
    pub(crate) fn set_site_values(&mut self, s: usize, values: &[f64]) {
        assert_eq!(values.len(), self.model.q);
        for (lane, &v) in self.f.iter_mut().zip(values) {
            lane[s] = v;
        }
    }

    /// Total mass `Σ_s Σ_i f_si`, summed in the canonical site-major
    /// order so the value does not depend on the storage order.
    pub(crate) fn mass(&self) -> f64 {
        let mut acc = 0.0;
        for s in 0..self.site_count() {
            for lane in &self.f {
                acc += lane[s];
            }
        }
        acc
    }

    /// Close a step once every destination site is streamed: swap the
    /// double buffers and advance the step counter.
    pub(crate) fn finish_step(&mut self) {
        std::mem::swap(&mut self.f, &mut self.f_next);
        self.step += 1;
    }

    /// Deliberately corrupt the streaming table by swapping the sources
    /// of two `(dir, site)` links and recompiling the plan. Returns
    /// `true` if the two entries actually differed. Test-only hook for
    /// the golden-digest negative test.
    pub(crate) fn debug_swap_stream_entries(&mut self, dir: usize, a: usize, b: usize) -> bool {
        let lane = &mut self.stream[dir];
        if lane[a] == lane[b] {
            return false;
        }
        lane.swap(a, b);
        self.plan = build_stream_plan(&self.stream, self.site_count());
        true
    }
}

/// The frontier/interior split of a rank's site list, fixed at setup for
/// the distributed step schedule.
///
/// **Frontier** sites are the communication surface: their
/// post-collision populations are sent to peers (they appear in the
/// send plan) or they pull at least one population *from* a peer (their
/// streaming row contains a halo link). **Interior** sites are everything
/// else — by construction their streaming reads touch no halo slot, so
/// they can collide and stream while halo messages are still in flight.
///
/// The distributed solver stores its sites frontier first, so the two
/// classes are the contiguous local index ranges `0..split` and
/// `split..n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SitePartition {
    n: usize,
    split: usize,
}

impl SitePartition {
    /// `n` local sites of which the first `split` are the frontier.
    pub(crate) fn new(n: usize, split: usize) -> Self {
        assert!(split <= n, "frontier cannot exceed the site list");
        SitePartition { n, split }
    }

    /// Number of local sites covered by the partition.
    pub fn site_count(&self) -> usize {
        self.n
    }

    /// Number of frontier sites: local sites `0..frontier_count()`.
    pub fn frontier_count(&self) -> usize {
        self.split
    }

    /// Number of interior sites: the rest of the local site list.
    pub fn interior_count(&self) -> usize {
        self.n - self.split
    }

    /// Whether local site `s` is on the frontier.
    pub fn is_frontier(&self, s: usize) -> bool {
        debug_assert!(s < self.n);
        s < self.split
    }
}

/// Collide a span of sites over per-lane chunks, recording pre-collision
/// moments. `lanes[i]` and `moments` cover the same site span. BGK runs
/// the chunked-lane vectorised path; TRT/MRT take the scalar
/// gather/scatter site loop.
pub(crate) fn collide_span_soa(
    model: &LatticeModel,
    collision: CollisionKind,
    tau: f64,
    bgk: &BgkTables,
    mut mrt: Option<&mut MrtOperator>,
    lanes: &mut [&mut [f64]],
    moments: &mut [(f64, [f64; 3])],
) {
    debug_assert_eq!(lanes.len(), model.q);
    if matches!(collision, CollisionKind::Bgk) && mrt.is_none() {
        bgk_collide_chunked(model, bgk, tau, lanes, moments);
        return;
    }
    let q = model.q;
    let mut buf = vec![0.0; q];
    let mut scratch = vec![0.0; q];
    for (s, m) in moments.iter_mut().enumerate() {
        for (b, lane) in buf.iter_mut().zip(lanes.iter()) {
            *b = lane[s];
        }
        *m = match mrt.as_deref_mut() {
            Some(op) => op.collide(model, tau, &mut buf),
            None => collide(model, collision, tau, &mut buf, &mut scratch),
        };
        for (b, lane) in buf.iter().zip(lanes.iter_mut()) {
            lane[s] = *b;
        }
    }
}

/// Width of the chunked-lane BGK path: small fixed-size accumulator
/// arrays the compiler keeps in vector registers.
const CHUNK: usize = 8;

/// The direction tables of the chunked BGK path, derived from the
/// velocity set once per lattice instead of once per collide call.
pub(crate) struct BgkTables {
    /// The velocity vectors as `f64`.
    cs: Vec<[f64; 3]>,
    /// Opposite-direction pairs `(i, j)`, `i < j`. They share the two
    /// equilibrium divisions: `c_j = −c_i` gives `cu_j = −cu_i` exactly
    /// (IEEE negation commutes with the dot product), so
    /// `cu_j / cs² = −(cu_i / cs²)` and `cu_j² = cu_i²` bit-for-bit —
    /// half the fdivs of the naive loop.
    pairs: Vec<(usize, usize)>,
    /// Rest directions (`c = 0`, their own opposite): `cu = ±0`, so the
    /// polynomial collapses to `1 − u²/2cs²` with no division at all.
    rests: Vec<usize>,
}

impl BgkTables {
    pub(crate) fn new(model: &LatticeModel) -> Self {
        let cs = model
            .c
            .iter()
            .map(|c| [c[0] as f64, c[1] as f64, c[2] as f64])
            .collect();
        let mut pairs = Vec::new();
        let mut rests = Vec::new();
        for (i, &j) in model.opp.iter().enumerate() {
            match i.cmp(&j) {
                std::cmp::Ordering::Less => pairs.push((i, j)),
                std::cmp::Ordering::Equal => rests.push(i),
                std::cmp::Ordering::Greater => {}
            }
        }
        BgkTables { cs, pairs, rests }
    }
}

/// The vectorised BGK collision: process `CHUNK` sites at a time, one
/// lane pass for the moments, one lane pass per opposite-direction pair
/// for the relaxation. Every per-site operation sequence (moment
/// accumulation order, the guarded `u = m/ρ`, the equilibrium
/// polynomial, the `f += ω (f_eq − f)` update) matches the scalar
/// kernels operand-for-operand — the only rewrites are exact IEEE-754
/// identities (`1 − t ≡ 1 + (−t)`, `(−x)/c ≡ −(x/c)`, `(−x)² ≡ x²`,
/// `x ± 0 ≡ x` in the polynomial), so the result is bit-identical.
fn bgk_collide_chunked(
    model: &LatticeModel,
    tables: &BgkTables,
    tau: f64,
    lanes: &mut [&mut [f64]],
    moments: &mut [(f64, [f64; 3])],
) {
    let q = model.q;
    let omega = 1.0 / tau;
    let n = moments.len();
    let BgkTables { cs, pairs, rests } = tables;
    let mut s0 = 0;
    // Full chunks: fixed-size `[f64; CHUNK]` windows, so every index is
    // statically in range (no bounds checks) and the loops vectorise.
    while s0 + CHUNK <= n {
        let mut rho = [0.0f64; CHUNK];
        let mut mx = [0.0f64; CHUNK];
        let mut my = [0.0f64; CHUNK];
        let mut mz = [0.0f64; CHUNK];
        for i in 0..q {
            let [cx, cy, cz] = cs[i];
            let lane: &[f64; CHUNK] = lanes[i][s0..s0 + CHUNK].try_into().expect("chunk window");
            for l in 0..CHUNK {
                let fi = lane[l];
                rho[l] += fi;
                mx[l] += cx * fi;
                my[l] += cy * fi;
                mz[l] += cz * fi;
            }
        }
        let mut ux = [0.0f64; CHUNK];
        let mut uy = [0.0f64; CHUNK];
        let mut uz = [0.0f64; CHUNK];
        let mut u2h = [0.0f64; CHUNK];
        for l in 0..CHUNK {
            // Branchless form of the `ρ ≠ 0` guard: compute the
            // quotients unconditionally, keep them only when the guard
            // holds — identical values, and the lane loop vectorises.
            let nz = rho[l] != 0.0;
            let qx = mx[l] / rho[l];
            let qy = my[l] / rho[l];
            let qz = mz[l] / rho[l];
            ux[l] = if nz { qx } else { 0.0 };
            uy[l] = if nz { qy } else { 0.0 };
            uz[l] = if nz { qz } else { 0.0 };
            // The direction-independent `u² / (2 cs²)` term of the
            // equilibrium, hoisted out of the lane loop: same operands,
            // same operation, computed once instead of q times.
            let u2 = ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l];
            u2h[l] = u2 / (2.0 * CS2);
        }
        for &(i, j) in pairs {
            let [cx, cy, cz] = cs[i];
            let wi = model.w[i];
            let wj = model.w[j];
            let mut t = [0.0f64; CHUNK];
            let mut sq = [0.0f64; CHUNK];
            for l in 0..CHUNK {
                let cu = cx * ux[l] + cy * uy[l] + cz * uz[l];
                t[l] = cu / CS2;
                sq[l] = cu * cu / (2.0 * CS2 * CS2);
            }
            let (left, right) = lanes.split_at_mut(j);
            let li: &mut [f64; CHUNK] = (&mut left[i][s0..s0 + CHUNK])
                .try_into()
                .expect("chunk window");
            for l in 0..CHUNK {
                let fi = li[l];
                let fe = wi * rho[l] * (1.0 + t[l] + sq[l] - u2h[l]);
                li[l] = fi + omega * (fe - fi);
            }
            let lj: &mut [f64; CHUNK] = (&mut right[0][s0..s0 + CHUNK])
                .try_into()
                .expect("chunk window");
            for l in 0..CHUNK {
                let fj = lj[l];
                let fe = wj * rho[l] * (1.0 - t[l] + sq[l] - u2h[l]);
                lj[l] = fj + omega * (fe - fj);
            }
        }
        for &i in rests {
            let wi = model.w[i];
            let lane: &mut [f64; CHUNK] = (&mut lanes[i][s0..s0 + CHUNK])
                .try_into()
                .expect("chunk window");
            for l in 0..CHUNK {
                let fi = lane[l];
                let fe = wi * rho[l] * (1.0 - u2h[l]);
                lane[l] = fi + omega * (fe - fi);
            }
        }
        for (l, m) in moments[s0..s0 + CHUNK].iter_mut().enumerate() {
            *m = (rho[l], [ux[l], uy[l], uz[l]]);
        }
        s0 += CHUNK;
    }
    // Ragged tail (< CHUNK sites): same operation order, plain loops.
    if s0 < n {
        let w = n - s0;
        let mut rho = [0.0f64; CHUNK];
        let mut mx = [0.0f64; CHUNK];
        let mut my = [0.0f64; CHUNK];
        let mut mz = [0.0f64; CHUNK];
        for i in 0..q {
            let [cx, cy, cz] = cs[i];
            let lane = &lanes[i][s0..s0 + w];
            for (l, &fi) in lane.iter().enumerate() {
                rho[l] += fi;
                mx[l] += cx * fi;
                my[l] += cy * fi;
                mz[l] += cz * fi;
            }
        }
        let mut ux = [0.0f64; CHUNK];
        let mut uy = [0.0f64; CHUNK];
        let mut uz = [0.0f64; CHUNK];
        let mut u2h = [0.0f64; CHUNK];
        for l in 0..w {
            if rho[l] != 0.0 {
                ux[l] = mx[l] / rho[l];
                uy[l] = my[l] / rho[l];
                uz[l] = mz[l] / rho[l];
            }
            let u2 = ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l];
            u2h[l] = u2 / (2.0 * CS2);
        }
        for i in 0..q {
            let [cx, cy, cz] = cs[i];
            let wi = model.w[i];
            let lane = &mut lanes[i][s0..s0 + w];
            for (l, fi) in lane.iter_mut().enumerate() {
                let cu = cx * ux[l] + cy * uy[l] + cz * uz[l];
                let fe = wi * rho[l] * (1.0 + cu / CS2 + cu * cu / (2.0 * CS2 * CS2) - u2h[l]);
                *fi += omega * (fe - *fi);
            }
        }
        for (l, m) in moments[s0..s0 + w].iter_mut().enumerate() {
            *m = (rho[l], [ux[l], uy[l], uz[l]]);
        }
    }
}

/// Pull-stream a span of sites into per-lane output chunks. `out[i]`
/// covers sites `first..first + out[i].len()`. The whole phase runs off
/// the compiled [`StreamPlan`]: plain-local links as clipped segment
/// copies (`copy_from_slice` — the dominant case under raster site
/// numbering), boundary links as a flat list of rule applications, halo
/// links as a flat list of buffer reads. No per-link dispatch remains.
/// `halo` feeds the halo list (empty slice for non-distributed
/// solvers); `kinds` and `bc_velocity` are indexed by (local) site.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_span_soa(
    model: &LatticeModel,
    cfg: &SolverConfig,
    kinds: &[SiteKind],
    f_old: &[Vec<f64>],
    plan: &StreamPlan,
    moments: &[(f64, [f64; 3])],
    bc_velocity: &[[f64; 3]],
    halo: &[f64],
    step: u64,
    first: usize,
    out: &mut [&mut [f64]],
) {
    let q = model.q;
    debug_assert_eq!(out.len(), q);
    let hi = first + out[0].len();

    // Local links: clipped segment copies. Segments are sorted by
    // destination, so skip straight to the first one overlapping the
    // span and stop at the first one past it.
    for i in 0..q {
        let fo = &f_old[i][..];
        let o = &mut *out[i];
        let segs = &plan.copy[i];
        let k0 = segs.partition_point(|seg| (seg.dst + seg.len) as usize <= first);
        for seg in &segs[k0..] {
            let d = seg.dst as usize;
            if d >= hi {
                break;
            }
            let a = d.max(first);
            let b = (d + seg.len as usize).min(hi);
            let s = seg.src as usize + (a - d);
            o[a - first..b - first].copy_from_slice(&fo[s..s + (b - a)]);
        }
    }

    // Boundary links: bounce-back / iolet rule per listed link.
    let k0 = plan
        .boundary
        .partition_point(|&(s, _)| (s as usize) < first);
    for &(s, i) in &plan.boundary[k0..] {
        let s = s as usize;
        if s >= hi {
            break;
        }
        let i = i as usize;
        out[i][s - first] = boundary_rule(
            model,
            cfg,
            kinds[s],
            bc_velocity[s],
            i,
            f_old[model.opp[i]][s],
            moments[s],
            step,
        );
    }

    // Halo links: direct reads from the exchanged buffer.
    let k0 = plan.halo.partition_point(|&(s, _, _)| (s as usize) < first);
    for &(s, i, slot) in &plan.halo[k0..] {
        let s = s as usize;
        if s >= hi {
            break;
        }
        out[i as usize][s - first] = halo[slot as usize];
    }
}

/// Macroscopic fields of the site span `first..first + rho.len()` over
/// SoA lanes: gather each site into a scratch buffer and run the scalar
/// moment/stress code on it.
pub(crate) fn macroscopics_span_soa(
    model: &LatticeModel,
    tau: f64,
    f: &[Vec<f64>],
    first: usize,
    rho: &mut [f64],
    u: &mut [[f64; 3]],
    shear: &mut [f64],
) {
    let q = model.q;
    let mut buf = vec![0.0; q];
    for k in 0..rho.len() {
        let s = first + k;
        for (b, lane) in buf.iter_mut().zip(f.iter()) {
            *b = lane[s];
        }
        let (r, v) = site_moments(model, &buf);
        let pi = pi_neq(model, &buf, r, v);
        rho[k] = r;
        u[k] = v;
        shear[k] = shear_rate_magnitude(pi, r, tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::feq_all;
    use crate::solver::ModelKind;
    use hemelb_geometry::{SparseGeometry, VesselBuilder};
    use std::sync::Arc;

    fn tube() -> Arc<SparseGeometry> {
        Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0))
    }

    fn lattice_for(geo: &SparseGeometry, kind: ModelKind) -> SoaLattice {
        let cfg = SolverConfig::pressure_driven(1.0, 1.0).with_model(kind);
        let model = kind.build();
        let sites = 0..geo.fluid_count() as u32;
        let stream = build_stream_table(geo, &model, sites.clone(), |src, _| src);
        SoaLattice::new(geo, sites, cfg, model, stream)
    }

    #[test]
    fn transpose_round_trips_site_major() {
        let geo = tube();
        let mut lat = lattice_for(&geo, ModelKind::D3Q15);
        let q = lat.model.q;
        // Distinct per-entry values so transposition bugs cannot cancel.
        let g: Vec<f64> = (0..geo.fluid_count() * q)
            .map(|k| (k as f64).sin())
            .collect();
        lat.install_site_major(7, &g);
        assert_eq!(lat.step, 7);
        assert_eq!(lat.to_site_major(), g);
        // One site overwritten in place moves exactly its q values.
        let mut want = g.clone();
        want[3 * q..4 * q].fill(0.5);
        lat.set_site_values(3, &vec![0.5; q]);
        assert_eq!(lat.to_site_major(), want);
    }

    /// Satellite: validate streaming-index construction at **domain
    /// edges per boundary orientation** — for every one of the q link
    /// directions, every site's entry must agree with an independent
    /// geometry query (fluid neighbour upstream ⇒ its index; otherwise
    /// the boundary sentinel). Covers all ±x/±y/±z faces and the
    /// diagonal links of both velocity sets, not just end-to-end digests.
    #[test]
    fn stream_table_matches_geometry_per_orientation() {
        let geo = tube();
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let soa = lattice_for(&geo, kind);
            let model = &soa.model;
            let mut bulk = vec![true; geo.fluid_count()];
            for i in 0..model.q {
                let c = model.c[i];
                let mut boundary_links = 0usize;
                for s in 0..geo.fluid_count() as u32 {
                    let [x, y, z] = geo.position(s);
                    let src = geo.site_at(
                        x as i64 - c[0] as i64,
                        y as i64 - c[1] as i64,
                        z as i64 - c[2] as i64,
                    );
                    let entry = soa.stream[i][s as usize];
                    bulk[s as usize] &= src.is_some();
                    match src {
                        Some(g) => assert_eq!(
                            entry, g,
                            "dir {i} (c = {c:?}) at site {s}: wrong local source"
                        ),
                        None => {
                            assert_eq!(
                                entry, LINK_BOUNDARY,
                                "dir {i} (c = {c:?}) at site {s}: missing link not marked"
                            );
                            boundary_links += 1;
                        }
                    }
                }
                if c != [0, 0, 0] {
                    assert!(
                        boundary_links > 0,
                        "a closed tube must clip direction {i} (c = {c:?}) somewhere"
                    );
                }
            }
            let bulk = bulk.iter().filter(|&&b| b).count();
            assert!(0 < bulk && bulk < geo.fluid_count(), "a tube has both");
            assert_eq!(soa.bulk_fraction(), bulk as f64 / geo.fluid_count() as f64);
        }
    }

    #[test]
    fn chunked_bgk_is_bit_identical_to_scalar_collide() {
        let model = LatticeModel::d3q19();
        let q = model.q;
        // 37 sites: exercises full chunks and a ragged tail.
        let n = 37;
        let mut site_major = vec![0.0; n * q];
        for s in 0..n {
            let u = [
                0.03 * ((s % 5) as f64 - 2.0),
                0.02 * ((s % 3) as f64 - 1.0),
                0.01 * ((s % 7) as f64 - 3.0),
            ];
            feq_all(
                &model,
                1.0 + 0.01 * s as f64,
                u,
                &mut site_major[s * q..(s + 1) * q],
            );
            site_major[s * q + (s % q)] += 1e-3; // off-equilibrium
        }
        // Scalar reference via the per-site collide().
        let mut reference = site_major.clone();
        let mut moments_ref = vec![(0.0, [0.0; 3]); n];
        let mut scratch = vec![0.0; q];
        for (s, m) in moments_ref.iter_mut().enumerate() {
            *m = collide(
                &model,
                CollisionKind::Bgk,
                0.8,
                &mut reference[s * q..(s + 1) * q],
                &mut scratch,
            );
        }
        // Chunked path over lanes.
        let mut lanes_store: Vec<Vec<f64>> = (0..q)
            .map(|i| (0..n).map(|s| site_major[s * q + i]).collect())
            .collect();
        let mut lanes: Vec<&mut [f64]> = lanes_store.iter_mut().map(|l| l.as_mut_slice()).collect();
        let mut moments = vec![(0.0, [0.0; 3]); n];
        bgk_collide_chunked(
            &model,
            &BgkTables::new(&model),
            0.8,
            &mut lanes,
            &mut moments,
        );
        for s in 0..n {
            for i in 0..q {
                assert_eq!(
                    lanes_store[i][s].to_bits(),
                    reference[s * q + i].to_bits(),
                    "site {s} dir {i}"
                );
            }
            assert_eq!(moments[s].0.to_bits(), moments_ref[s].0.to_bits());
            for k in 0..3 {
                assert_eq!(moments[s].1[k].to_bits(), moments_ref[s].1[k].to_bits());
            }
        }
    }

    #[test]
    fn swapping_stream_entries_corrupts_and_recompiles_the_plan() {
        let geo = tube();
        let mut soa = lattice_for(&geo, ModelKind::D3Q15);
        // Find two sites with different sources in direction 1.
        let lane = &soa.stream[1];
        let b = (1..lane.len())
            .find(|&t| lane[t] != lane[0])
            .expect("tube must have differing sources");
        let (ea, eb) = (lane[0], lane[b]);
        assert!(soa.debug_swap_stream_entries(1, 0, b));
        assert_eq!((soa.stream[1][0], soa.stream[1][b]), (eb, ea));
        assert!(!soa.debug_swap_stream_entries(1, 0, 0), "equal entries");
        // The recompiled plan still covers every link exactly once.
        let copied: usize = soa.plan.copy.iter().flatten().map(|s| s.len as usize).sum();
        assert_eq!(
            copied + soa.plan.boundary.len() + soa.plan.halo.len(),
            soa.site_count() * soa.model.q
        );
    }
}

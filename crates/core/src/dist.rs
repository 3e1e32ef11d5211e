//! The distributed SPMD solver.
//!
//! Domain decomposition by an arbitrary site→rank owner map (produced by
//! any partitioner in `hemelb-partition`); each rank stores distributions
//! only for its own sites, and the cross-rank links are fed by a
//! per-step **halo exchange** of post-collision populations — the
//! communication whose volume the partitioners minimise and the paper's
//! load-balance discussion revolves around.
//!
//! The distributed stepper is bit-for-bit identical to the serial
//! [`Solver`](crate::Solver) (asserted in tests): both perform the same
//! per-site arithmetic; only the storage and transport differ. A rank is
//! one thread, as an MPI rank is one core in HemeLB: its sweeps and
//! snapshots run the serial solver's loops on the rank's own thread.
//!
//! ## Storage order and the step schedule
//!
//! A rank's sites are either **frontier** (their post-collision
//! populations are shipped to peers, or they pull from peers) or
//! **interior** (everything else). The constructor finds the frontier in
//! one pass over the rank's sites and stores it as the local prefix
//! `0..split`, the interior as the suffix `split..n`, ascending global
//! id within each class — HemeLB's "domain-edge first, mid-domain
//! after" order — then builds the streaming plan in one walk over that
//! order. However fragmented the owner map, the step (DESIGN.md §2.14)
//! is then two contiguous sweeps around the exchange, at either parity
//! of the AA pair (see [`crate::layout`]):
//!
//! 1. step the frontier `0..split`;
//! 2. pack and post every peer's message;
//! 3. step the interior `split..n` while the messages are in flight;
//! 4. drain receives in arrival order.
//!
//! The messages are one per peer and step, and carry the same pairs in
//! the same order both ways. A **local step** ships, for each `(t, i)` a
//! peer requested, `t`'s outgoing `f*_i` (lane `ī` at `t` after the AA
//! store); the receiver keeps them in the ghost slots of its halo links.
//! A **pull–push step** reads those ghosts, writes the outgoing `f*_ī`
//! of each halo link back into its ghost slot and ships the slots back
//! in the order they came; the owner of `t` installs each value into
//! lane `ī` at `t`, its *send slot*, which no site of its own reads or
//! writes in that step. Both steps end with their drain, so the state
//! between two steps is complete on every rank: snapshots, checkpoints
//! and repartitions need no message in flight. The local step touches
//! only a site's own lanes and the pull–push step only a site's own
//! slot set, so where the seam between the sweeps falls changes no
//! value.
//!
//! **Ordering contract.** [`DistSolver::local_sites`] returns the
//! storage order; [`DistSolver::local_snapshot`],
//! [`DistSolver::raw_distributions`] and the per-rank checkpoints are
//! index-aligned with it. The order is a function of the geometry, the
//! velocity set and the owner map alone. Collective results
//! ([`DistSolver::gather_snapshot`]) are in global site order.

use crate::boundary::IoletBc;
use crate::fields::FieldSnapshot;
use crate::layout::{upstream, SitePartition, SoaLattice, HALO_FLAG, LINK_BOUNDARY as BOUNDARY};
use crate::model::LatticeModel;
use crate::solver::SolverConfig;
use hemelb_geometry::lattice::Stencil;
use hemelb_geometry::{IoLetKind, SparseGeometry};
use hemelb_parallel::{CommError, CommResult, Communicator, Tag, WireReader, WireWriter};
use std::sync::Arc;

const T_HALO: Tag = Tag::halo(0);
const T_MIGRATE: Tag = Tag::migration(0);

/// One rank's share of the distributed solver. Construct collectively
/// with the same arguments on every rank.
pub struct DistSolver<'a> {
    comm: &'a Communicator,
    geo: Arc<SparseGeometry>,
    owner: Vec<usize>,
    /// Global ids of the sites this rank owns, in storage order:
    /// frontier first, interior after, ascending within each class.
    locals: Vec<u32>,
    /// The lattice over the owned sites, storage order.
    pub(crate) lat: SoaLattice,
    /// Per peer rank: `(peer, requests)` where requests are
    /// `(local_src, dir)` pairs to ship each step, in the peer's order.
    send_plan: Vec<(usize, Vec<(u32, u16)>)>,
    /// Per peer rank: `(peer, ghost slot range start, count)`; the
    /// slots follow the peer's request order.
    recv_plan: Vec<(usize, usize, usize)>,
    /// Where the frontier prefix of the local sites ends (see
    /// [`SitePartition`]).
    partition: SitePartition,
    /// Peers whose halo payload of the current step is still
    /// outstanding; kept to reuse its allocation.
    awaited: Vec<usize>,
}

/// Global → local index over `locals`; `u32::MAX` for sites not in it.
fn global_to_local(locals: &[u32], fluid_count: usize) -> Vec<u32> {
    let mut g2l = vec![u32::MAX; fluid_count];
    for (l, &g) in locals.iter().enumerate() {
        g2l[g as usize] = l as u32;
    }
    g2l
}

/// The storage order, where its frontier ends, and the requests to each
/// rank (see [`frontier_pass`]).
type Frontier = (Vec<u32>, usize, Vec<Vec<(u32, u16)>>);

/// The frontier pass over the sites `rank` owns, ascending, `back` the
/// stencil of a site's `q` link sources. The velocity sets are
/// symmetric, so a site is frontier iff some neighbour is owned
/// elsewhere. Returns the storage order (the frontier, then the
/// interior, each ascending so copy segments stay long), where the
/// frontier ends, and per rank the `(source, dir)` links pulled from it
/// in `(site, dir)` order: the requests.
fn frontier_pass(
    geo: &SparseGeometry,
    back: &Stencil,
    q: usize,
    owner: &[usize],
    rank: usize,
    ranks: usize,
) -> Frontier {
    let mut needed: Vec<Vec<(u32, u16)>> = vec![Vec::new(); ranks];
    // Which cells of the index grid hold a site owned elsewhere.
    let (mut elsewhere, mut owned) = (vec![false; geo.shape().iter().product()], 0);
    for (g, &o) in owner.iter().enumerate() {
        let [x, y, z] = geo.position(g as u32).map(|c| c as usize);
        elsewhere[geo.grid_offset(x, y, z)] = o != rank;
        owned += usize::from(o == rank);
    }
    // The frontier fills it from the front, the interior from the back.
    let mut locals = vec![0u32; owned];
    let (mut split, mut rest) = (0, locals.len());
    let (mut flags, mut row) = (vec![false; q], vec![BOUNDARY; q]);
    for g in (0..owner.len() as u32).filter(|&g| owner[g as usize] == rank) {
        geo.offset_cells(g, back, &elsewhere, false, &mut flags);
        if !flags.contains(&true) {
            rest -= 1;
            locals[rest] = g;
            continue;
        }
        geo.offset_sites(g, back, &mut row);
        for (i, &src) in row.iter().enumerate().filter(|&(i, _)| flags[i]) {
            needed[owner[src as usize]].push((src, i as u16));
        }
        locals[split] = g;
        split += 1;
    }
    locals[split..].reverse();
    (locals, split, needed)
}

/// Encode one peer's request list: a count, then `(global site,
/// direction)` pairs of `u32`s.
fn encode_requests(list: &[(u32, u16)]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8 + list.len() * 8);
    w.put_usize(list.len());
    for &(g, d) in list {
        w.put_u32(g);
        w.put_u32(d as u32);
    }
    w.finish()
}

/// Decode one peer's request list (see [`encode_requests`]) into
/// `(local site, direction)` pairs over `g2l`. A count the bytes cannot
/// hold, a site this rank does not own or a direction past `q` is a
/// `Decode` error, not an allocation or a panic.
fn decode_requests(payload: Vec<u8>, g2l: &[u32], q: usize) -> CommResult<Vec<(u32, u16)>> {
    let mut r = WireReader::new(payload);
    let count = r.get_checked_len(8, "site requests")?;
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let g = r.get_u32()?;
        let d = r.get_u32()?;
        let l = g2l.get(g as usize).copied().unwrap_or(u32::MAX);
        if l == u32::MAX {
            return Err(CommError::Decode {
                reason: format!("peer requested site {g}, which this rank does not own"),
            });
        }
        if d as usize >= q {
            return Err(CommError::Decode {
                reason: format!("peer requested direction {d} of a {q}-velocity model"),
            });
        }
        requests.push((l, d as u16));
    }
    r.expect_end()?;
    Ok(requests)
}

/// One rank's `gather_snapshot` payload, computed straight from its
/// lattice: `rho`, `u` and `shear` of its `n` sites in ascending global
/// order. Each field is a `u64` count `n` and its `f64`s (three a site
/// for `u`) — the bytes `WireWriter` gives an `f64` slice, a count with
/// its `[f64; 3]`s and an `f64` slice — and every value is written
/// straight to its place.
fn fields_payload(lat: &SoaLattice, locals: &[u32], split: usize) -> Vec<u8> {
    let n = locals.len();
    let mut buf = vec![0u8; 24 + 40 * n];
    let (rho, rest) = buf.split_at_mut(8 + 8 * n);
    let (u, shear) = rest.split_at_mut(8 + 24 * n);
    let place = |run: &mut [u8], k: usize, v: f64| {
        run[8 + 8 * k..16 + 8 * k].copy_from_slice(&v.to_le_bytes());
    };
    for run in [&mut *rho, &mut *u, &mut *shear] {
        run[..8].copy_from_slice(&(n as u64).to_le_bytes());
    }
    let mut ascending = ascending_slots(locals, split);
    lat.macroscopics(|l, r, v, g| {
        let k = ascending(l);
        place(rho, k, r);
        for (a, &c) in v.iter().enumerate() {
            place(u, 3 * k + a, c);
        }
        place(shear, k, g);
    });
    buf
}

/// Decode rank `rank`'s `gather_snapshot` payload (see
/// [`fields_payload`]) straight into the global `snap`, the sites `rank`
/// owns in `owner` taking its values in turn. The payload must lay out
/// exactly those sites, or it is a `Decode` error and nothing is
/// written; no count off the wire sizes anything.
fn decode_fields_of(
    payload: &[u8],
    rank: usize,
    owner: &[usize],
    snap: &mut FieldSnapshot,
) -> CommResult<()> {
    let n = owner.iter().filter(|&&o| o == rank).count();
    let at = [0, 8 + 8 * n, 16 + 32 * n, 24 + 40 * n];
    let counted = |a: usize| payload.get(a..a + 8) == Some(&(n as u64).to_le_bytes()[..]);
    if payload.len() != at[3] || !at[..3].iter().all(|&a| counted(a)) {
        let reason = format!(
            "{} bytes of fields from rank {rank}, which owns {n} sites",
            payload.len()
        );
        return Err(CommError::Decode { reason });
    }
    let [r, v, s] = [at[0], at[1], at[2]].map(|a| &payload[a + 8..]);
    let value = |run: &[u8], k: usize| {
        f64::from_le_bytes(run[8 * k..8 * k + 8].try_into().expect("8 bytes"))
    };
    let sites = owner.iter().enumerate().filter(|&(_, &o)| o == rank);
    for (k, (g, _)) in sites.enumerate() {
        snap.rho[g] = value(r, k);
        snap.u[g] = std::array::from_fn(|a| value(v, 3 * k + a));
        snap.shear[g] = value(s, k);
    }
    Ok(())
}

/// Where each storage index of `locals`, asked in increasing order,
/// falls in ascending global order: its place in its own ascending run
/// (frontier `..split` or interior `split..`) plus the other run's
/// sites below it, which a forward-only cursor counts.
fn ascending_slots(locals: &[u32], split: usize) -> impl FnMut(usize) -> usize + '_ {
    let (frontier, interior) = locals.split_at(split);
    let (mut below_in_frontier, mut below_in_interior) = (0, 0);
    let below = |run: &[u32], count: &mut usize, g: u32| {
        while run.get(*count).is_some_and(|&h| h < g) {
            *count += 1;
        }
        *count
    };
    move |l| match l.checked_sub(split) {
        None => l + below(interior, &mut below_in_interior, locals[l]),
        Some(k) => k + below(frontier, &mut below_in_frontier, locals[l]),
    }
}

impl<'a> DistSolver<'a> {
    /// Collective constructor: every rank passes the same geometry,
    /// owner map and configuration.
    ///
    /// # Panics
    /// Panics if `owner.len() != geo.fluid_count()` or an owner index is
    /// out of range.
    pub fn new(
        geo: Arc<SparseGeometry>,
        owner: Vec<usize>,
        cfg: SolverConfig,
        comm: &'a Communicator,
    ) -> CommResult<Self> {
        assert_eq!(
            owner.len(),
            geo.fluid_count(),
            "owner map must cover all sites"
        );
        assert!(
            owner.iter().all(|&o| o < comm.size()),
            "owner rank out of range"
        );
        let me = comm.rank();
        let model = cfg.model.build();
        let back = upstream(&geo, &model);

        let (locals, split, needed) = frontier_pass(&geo, &back, model.q, &owner, me, comm.size());
        let n = locals.len();
        let g2l = global_to_local(&locals, geo.fluid_count());

        // Halo slots: one contiguous range per peer, in ascending peer
        // order, each in the peer's request order.
        let mut recv_plan = Vec::new();
        let mut next_slot = Vec::with_capacity(comm.size());
        let mut n_halo = 0usize;
        for (peer, list) in needed.iter().enumerate() {
            next_slot.push(n_halo as u32);
            if !list.is_empty() {
                recv_plan.push((peer, n_halo, list.len()));
            }
            n_halo += list.len();
        }

        // Exchange request lists so each rank learns what to send.
        // (One all-to-all at construction; steady-state steps use only
        // the sparse neighbourhood exchange.)
        let outgoing: Vec<Vec<u8>> = needed.iter().map(|list| encode_requests(list)).collect();
        let incoming = comm.all_to_all(outgoing)?;
        let mut send_plan = Vec::new();
        for (peer, payload) in incoming.into_iter().enumerate() {
            if peer == me {
                continue;
            }
            let requests = decode_requests(payload, &g2l, model.q)?;
            if !requests.is_empty() {
                send_plan.push((peer, requests));
            }
        }

        // One walk over the sites in storage order builds the plan. Halo
        // links come from the frontier alone, which ascends like the
        // requests, so a peer's k-th halo link takes the k-th slot of
        // its range.
        let links = |s: usize, row: &mut [u32]| {
            geo.offset_sites(locals[s], &back, row);
            for e in row.iter_mut().filter(|e| **e != BOUNDARY) {
                let l = g2l[*e as usize];
                *e = if l != u32::MAX {
                    l
                } else {
                    let slot = &mut next_slot[owner[*e as usize]];
                    *slot += 1;
                    HALO_FLAG | (*slot - 1)
                };
            }
        };
        let lat = SoaLattice::new(&geo, locals.iter().copied(), cfg, model, links);
        assert_eq!(lat.ghost.len(), n_halo, "one ghost slot per halo link");
        Ok(DistSolver {
            comm,
            geo,
            owner,
            locals,
            lat,
            send_plan,
            awaited: Vec::with_capacity(recv_plan.len()),
            recv_plan,
            partition: SitePartition::new(n, split),
        })
    }

    /// Global ids of this rank's sites in storage order: the frontier
    /// first, the interior after, ascending within each class. Local
    /// snapshots, raw distributions and per-rank checkpoints are indexed
    /// like this list.
    pub fn local_sites(&self) -> &[u32] {
        &self.locals
    }

    /// Halo values (f64 populations) this rank sends in a local step; in
    /// a pull–push step it sends back as many as it received.
    pub fn halo_send_volume(&self) -> usize {
        self.send_plan.iter().map(|(_, l)| l.len()).sum()
    }

    /// Replace the BC of inlet `id` at runtime (steering). Must be
    /// called identically on every rank.
    pub fn set_inlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.lat.set_iolet_bc(&self.geo, IoLetKind::Inlet, id, bc);
    }

    /// Replace the BC of outlet `id` at runtime (steering). Must be
    /// called identically on every rank.
    pub fn set_outlet_bc(&mut self, id: usize, bc: IoletBc) {
        self.lat.set_iolet_bc(&self.geo, IoLetKind::Outlet, id, bc);
    }

    /// Whether this rank's step hides its halo exchange behind interior
    /// work: there must be peers to exchange with, and interior sites
    /// to compute under the in-flight messages.
    pub fn overlap_active(&self) -> bool {
        !(self.send_plan.is_empty() && self.recv_plan.is_empty())
            && self.partition.interior_count() > 0
    }

    /// The frontier/interior split of the local sites.
    pub fn partition(&self) -> &SitePartition {
        &self.partition
    }

    /// Encode each peer's message as one length-prefixed `f64` slice
    /// (the bulk wire path) and post it: in a local step the requested
    /// outgoing populations, in a pull–push step the peer's ghost slots.
    fn post_halo(&self) -> CommResult<()> {
        let (f, ghost) = (&self.lat.f, &self.lat.ghost);
        let opp = &self.lat.model.opp;
        if self.lat.between_pair() {
            for &(peer, start, count) in &self.recv_plan {
                let mut w = WireWriter::with_capacity(8 + count * 8);
                w.put_f64_slice(&ghost[start..start + count]);
                self.comm.send(peer, T_HALO, w.finish())?;
            }
        } else {
            for (peer, requests) in &self.send_plan {
                let mut w = WireWriter::with_capacity(8 + requests.len() * 8);
                w.put_f64_seq(
                    requests
                        .iter()
                        .map(|&(l, d)| f[opp[d as usize]][l as usize]),
                );
                self.comm.send(*peer, T_HALO, w.finish())?;
            }
        }
        Ok(())
    }

    /// Decode one peer's halo payload (bulk `f64` slice): in a local
    /// step straight into its ghost slot range, in a pull–push step into
    /// the send slots of its requests, in request order. A payload from a
    /// rank outside the plan, or with the wrong population count, is an
    /// error and writes nothing.
    fn unpack_halo(&mut self, peer: usize, payload: Vec<u8>) -> CommResult<()> {
        let not_planned = || CommError::Decode {
            reason: format!("halo payload from rank {peer}, which is not in the exchange plan"),
        };
        if !self.lat.between_pair() {
            let &(_, start, count) = self
                .recv_plan
                .iter()
                .find(|(p, _, _)| *p == peer)
                .ok_or_else(not_planned)?;
            return WireReader::new(payload)
                .get_f64_into(&mut self.lat.ghost[start..start + count]);
        }
        let (_, requests) = self
            .send_plan
            .iter()
            .find(|(p, _)| *p == peer)
            .ok_or_else(not_planned)?;
        let mut r = WireReader::new(payload);
        let count = r.get_checked_len(8, "returned populations")?;
        if count != requests.len() {
            return Err(CommError::Decode {
                reason: format!(
                    "{count} returned populations where {} were sent",
                    requests.len()
                ),
            });
        }
        let (f, opp) = (&mut self.lat.f, &self.lat.model.opp);
        for &(l, d) in requests {
            f[opp[d as usize]][l as usize] = r.get_f64()?;
        }
        Ok(())
    }

    /// Receive and unpack every peer's halo payload in arrival order, so
    /// one slow peer does not delay unpacking of already-delivered
    /// payloads. Returns the seconds spent blocked (`lb.halo-wait`).
    fn drain_halo(&mut self) -> CommResult<f64> {
        let mut waited = 0.0;
        let mut awaited = std::mem::take(&mut self.awaited);
        awaited.clear();
        awaited.extend(self.recv_plan.iter().map(|(peer, _, _)| *peer));
        while !awaited.is_empty() {
            let span = self.comm.with_obs(|o| o.begin());
            let (peer, payload) = self.comm.recv_any_of(T_HALO, &awaited)?;
            waited += self.comm.with_obs(|o| span.end(o, "lb.halo-wait"));
            awaited.retain(|&p| p != peer);
            self.unpack_halo(peer, payload)?;
        }
        self.awaited = awaited;
        Ok(waited)
    }

    /// Advance one time step: one half of an AA pair, with its halo
    /// exchange.
    ///
    /// One schedule at either parity, two contiguous sweeps around the
    /// exchange:
    ///
    /// 1. step the frontier `0..split` — exactly the sites whose
    ///    populations peers wait on, plus the sites that read peers';
    /// 2. pack from the frontier (local step) or the ghost slots
    ///    (pull–push step) and post all sends;
    /// 3. step the interior `split..n` while messages are in flight
    ///    (the interior reads and writes no ghost or send slot by
    ///    construction);
    /// 4. drain receives in arrival order, unpacking each payload as it
    ///    lands into the ghost slots (local step) or the send slots
    ///    (pull–push step) — the remaining blocked time is the
    ///    *residual* halo wait.
    ///
    /// Ordering argument for bit-exactness: a local step touches only
    /// its sites' own lanes, and a pull–push step only its sites' slot
    /// sets, which are disjoint, so splitting either into two sweeps
    /// changes no value; the pack in phase 2 reads only frontier lanes
    /// or ghost slots, which phase 3 never touches; and the unpack in
    /// phase 4 writes only slots no sweep of the step reads.
    ///
    /// Both sweeps run on the rank's own thread: a rank is one thread,
    /// and its site loops are the serial solver's.
    pub fn step(&mut self) -> CommResult<()> {
        // The LB step drives the fault clock: a `FaultPlan` keyed by
        // step sees the simulation's notion of time (no-op without an
        // active plan).
        self.comm.set_fault_step(self.lat.step);
        let n = self.locals.len();
        let split = self.partition.frontier_count();

        // (1) Frontier first.
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.advance(0..split);
        self.comm.with_obs(|o| span.end(o, "lb.collide-frontier"));

        // (2) Pack and post all sends; messages are now in flight.
        let span = self.comm.with_obs(|o| o.begin());
        self.post_halo()?;
        self.comm.with_obs(|o| span.end(o, "lb.halo-pack"));

        // (3) Interior compute under the in-flight exchange. The inner
        // span feeds the lb.collide phase; the umbrella span measures
        // how much latency-hiding work this rank had available.
        let overlap_span = self.comm.with_obs(|o| o.begin());
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.advance(split..n);
        self.comm.with_obs(|o| span.end(o, "lb.collide"));
        let compute_secs = self
            .comm
            .with_obs(|o| overlap_span.end(o, "lb.overlap.compute"));

        // (4) Residual drain: only time still blocked *after* the
        // interior work counts as halo wait under overlap.
        let residual_secs = self.drain_halo()?;

        if self.overlap_active() {
            self.comm.note_overlap(compute_secs, residual_secs);
        }
        self.lat.finish_step();
        Ok(())
    }

    /// Advance `count` steps.
    pub fn step_n(&mut self, count: u64) -> CommResult<()> {
        for _ in 0..count {
            self.step()?;
        }
        Ok(())
    }

    /// Adopt a new domain decomposition **mid-run**, migrating each
    /// site's distributions to its new owner (paper §IV-B: "the
    /// opportunity to adjust the partitioning mid-term is introduced.
    /// This repartitioning helps to improve load balance greatly").
    ///
    /// Collective; every rank passes the same `new_owner`. The physics
    /// is untouched: stepping after a repartition is bit-identical to
    /// never having repartitioned (asserted in tests). Returns the
    /// number of sites this rank shipped away.
    pub fn repartition(&mut self, new_owner: Vec<usize>) -> CommResult<usize> {
        let span = self.comm.with_obs(|o| o.begin());
        assert_eq!(new_owner.len(), self.geo.fluid_count());
        assert!(new_owner.iter().all(|&o| o < self.comm.size()));
        let me = self.comm.rank();
        let q = self.lat.model.q;

        // Sort my sites by new owner into flat batches: global ids plus
        // their canonical populations, `q` per site. `batches[me]` stays
        // here.
        let f = self.lat.to_site_major();
        let mut batches: Vec<(Vec<u32>, Vec<f64>)> = vec![Default::default(); self.comm.size()];
        for (l, &g) in self.locals.iter().enumerate() {
            let (ids, values) = &mut batches[new_owner[g as usize]];
            ids.push(g);
            values.extend_from_slice(&f[l * q..(l + 1) * q]);
        }
        drop(f);
        let (mut ids, mut values) = std::mem::take(&mut batches[me]);
        let moved = self.locals.len() - ids.len();

        // Counts first (collective control), then payloads under the
        // migration tag so the traffic is attributed correctly.
        let counts: Vec<Vec<u8>> = batches
            .iter()
            .map(|(ids, _)| {
                let mut w = WireWriter::with_capacity(8);
                w.put_u64(ids.len() as u64);
                w.finish()
            })
            .collect();
        let incoming_counts = self.comm.all_to_all(counts)?;
        for (dst, (ids, values)) in batches.iter().enumerate() {
            if !ids.is_empty() {
                let mut w = WireWriter::with_capacity(ids.len() * (4 + q * 8));
                for (g, fs) in ids.iter().zip(values.chunks_exact(q)) {
                    w.put_u32(*g);
                    for &v in fs {
                        w.put_f64(v);
                    }
                }
                self.comm.send(dst, T_MIGRATE, w.finish())?;
            }
        }
        for (src, payload) in incoming_counts.into_iter().enumerate() {
            if src == me {
                continue;
            }
            let count = WireReader::new(payload).get_u64()?;
            if count == 0 {
                continue;
            }
            let mut r = WireReader::new(self.comm.recv(src, T_MIGRATE)?);
            for _ in 0..count {
                ids.push(r.get_u32()?);
                for _ in 0..q {
                    values.push(r.get_f64()?);
                }
            }
        }

        // Rebuild the solver state for the new decomposition and install
        // the migrated distributions.
        let step = self.lat.step;
        let mut fresh =
            DistSolver::new(self.geo.clone(), new_owner, self.lat.cfg.clone(), self.comm)?;
        assert_eq!(
            ids.len(),
            fresh.locals.len(),
            "every new-local site received data"
        );
        let g2l = global_to_local(&fresh.locals, self.geo.fluid_count());
        let mut f = vec![0.0; ids.len() * q];
        for (g, fs) in ids.iter().zip(values.chunks_exact(q)) {
            let l = g2l[*g as usize];
            assert_ne!(l, u32::MAX, "migrated site {g} not owned under new map");
            f[l as usize * q..(l as usize + 1) * q].copy_from_slice(fs);
        }
        drop(values);
        fresh.lat.install_site_major(step, &f);
        *self = fresh;
        self.comm.note_rebalance();
        self.comm.with_obs(|o| {
            o.count("lb.rebalance.count", 1);
            o.count("lb.rebalance.sites_moved", moved as u64);
            span.end(o, "lb.repartition")
        });
        Ok(moved)
    }

    /// Snapshot of this rank's sites only (indexed like
    /// [`DistSolver::local_sites`]).
    pub fn local_snapshot(&self) -> FieldSnapshot {
        let span = self.comm.with_obs(|o| o.begin());
        let snap = self.lat.snapshot();
        self.comm.with_obs(|o| span.end(o, "lb.macroscopics"));
        snap
    }

    /// Gather the global snapshot at rank 0 (collective). Non-root ranks
    /// receive `None`. Every rank ships its fields in ascending global
    /// order, so the wire format does not depend on the storage order.
    ///
    /// The field is held once: a peer computes its fields straight into
    /// its payload; rank 0 writes its own sites straight into the global
    /// arrays and decodes each peer's payload into them as it arrives.
    pub fn gather_snapshot(&self) -> CommResult<Option<FieldSnapshot>> {
        let span = self.comm.with_obs(|o| o.begin());
        if self.comm.rank() != 0 {
            let payload = fields_payload(&self.lat, &self.locals, self.partition.frontier_count());
            self.comm.with_obs(|o| span.end(o, "lb.macroscopics"));
            self.comm.gather_each(0, payload, |_, _| Ok(()))?;
            return Ok(None);
        }
        let n = self.owner.len();
        let mut snap = FieldSnapshot {
            step: self.lat.step,
            rho: vec![0.0; n],
            u: vec![[0.0; 3]; n],
            shear: vec![0.0; n],
        };
        self.lat.macroscopics(|l, r, v, s| {
            let g = self.locals[l] as usize;
            (snap.rho[g], snap.u[g], snap.shear[g]) = (r, v, s);
        });
        self.comm.with_obs(|o| span.end(o, "lb.macroscopics"));
        self.comm
            .gather_each(0, Vec::new(), |src, payload| match src {
                0 => Ok(()),
                _ => decode_fields_of(&payload, src, &self.owner, &mut snap),
            })?;
        Ok(Some(snap))
    }

    /// Global mass via all-reduce (collective).
    pub fn mass(&self) -> CommResult<f64> {
        self.comm.all_reduce_f64(self.lat.mass(), |a, b| a + b)
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.lat.step
    }

    /// This rank's whole local distribution array, site-major over
    /// [`DistSolver::local_sites`].
    pub fn raw_distributions(&self) -> Vec<f64> {
        self.lat.to_site_major()
    }

    /// The communicator this rank steps on (checkpoint naming and
    /// fencing).
    pub(crate) fn comm(&self) -> &'a Communicator {
        self.comm
    }

    /// The geometry.
    pub fn geometry(&self) -> &Arc<SparseGeometry> {
        &self.geo
    }

    /// The owner map.
    pub fn owner(&self) -> &[usize] {
        &self.owner
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.lat.cfg
    }

    /// The lattice model in use (the adaptive load balancer sizes
    /// migration payloads from `model().q`).
    pub fn model(&self) -> &LatticeModel {
        &self.lat.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tests::build_stream_table;
    use crate::solver::{ModelKind, Solver};
    use hemelb_geometry::lattice::NOT_FLUID;
    use hemelb_geometry::{IoLet, SiteKind, Vec3, VesselBuilder};
    use hemelb_parallel::{run_spmd, run_spmd_with_stats, TagClass};
    use hemelb_partition::graph::Connectivity;
    use hemelb_partition::{HilbertSfc, MultilevelKWay, Partitioner, SiteGraph};
    use proptest::prelude::*;

    /// The storage indices of `locals` by ascending global id, by a sort
    /// (each run, `..split` and `split..`, ascends on its own).
    fn ascending_order(locals: &[u32], split: usize) -> impl Iterator<Item = usize> + '_ {
        let mut order: Vec<usize> = (0..locals.len()).collect();
        order.sort_by_key(|&l| locals[l]);
        assert!(locals[..split].is_sorted() && locals[split..].is_sorted());
        order.into_iter()
    }

    /// The wire format of [`fields_payload`] from a local snapshot, its
    /// sites taken in `order`: a `WireWriter` with each field's count
    /// and values.
    fn encode_fields(local: &FieldSnapshot, order: impl Iterator<Item = usize>) -> Vec<u8> {
        let order: Vec<usize> = order.collect();
        let mut w = WireWriter::new();
        w.put_f64_seq(order.iter().map(|&l| local.rho[l]));
        w.put_usize(order.len());
        order.iter().for_each(|&l| w.put(&local.u[l]));
        w.put_f64_seq(order.iter().map(|&l| local.shear[l]));
        w.finish()
    }

    /// `(rho, u, shear)` of every fluid site, global order.
    type Fields = (Vec<f64>, Vec<[f64; 3]>, Vec<f64>);

    /// The global fields decoded from every rank's payload, rank by rank.
    fn decode_fields(parts: &[Vec<u8>], owner: &[usize]) -> CommResult<Fields> {
        let n = owner.len();
        let (rho, u, shear) = (vec![0.0; n], vec![[0.0; 3]; n], vec![0.0; n]);
        let mut snap = FieldSnapshot {
            step: 0,
            rho,
            u,
            shear,
        };
        for (rank, part) in parts.iter().enumerate() {
            decode_fields_of(part, rank, owner, &mut snap)?;
        }
        Ok((snap.rho, snap.u, snap.shear))
    }

    /// The gathered snapshot equals the serial one by `to_bits` at both
    /// parities, on a k-way map at 2 and 3 ranks and on a checkerboard
    /// (ascending runs a voxel or two long), and each rank's streamed
    /// payload is the wire encoding of its local snapshot.
    #[test]
    fn gather_snapshot_is_the_serial_snapshot_by_bits() {
        let geo = Arc::new(VesselBuilder::aneurysm(14.0, 3.0, 4.0).voxelise(1.0));
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let graph = SiteGraph::from_geometry(&geo, Connectivity::D3Q15);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for steps in [6, 7] {
            let mut serial = Solver::new(geo.clone(), cfg.clone());
            serial.step_n(steps);
            let want = serial.snapshot();
            let maps = [
                MultilevelKWay.partition(&graph, 2),
                MultilevelKWay.partition(&graph, 3),
                checkerboard_owner(&geo, 3),
            ];
            for owner in maps {
                let ranks = owner.iter().max().unwrap() + 1;
                let (geo2, cfg2) = (geo.clone(), cfg.clone());
                let results = run_spmd(ranks, move |comm| {
                    let mut ds =
                        DistSolver::new(geo2.clone(), owner.clone(), cfg2.clone(), comm).unwrap();
                    ds.step_n(steps).unwrap();
                    let split = ds.partition.frontier_count();
                    let streamed = fields_payload(&ds.lat, &ds.locals, split);
                    let encoded =
                        encode_fields(&ds.local_snapshot(), ascending_order(&ds.locals, split));
                    assert!(streamed == encoded, "rank {}", comm.rank());
                    ds.gather_snapshot().unwrap()
                });
                let got = results[0].as_ref().expect("root gathers");
                assert_eq!(bits(&got.rho), bits(&want.rho), "{ranks} ranks");
                assert_eq!(bits(&got.shear), bits(&want.shear), "{ranks} ranks");
                let u = |s: &FieldSnapshot| bits(s.u.as_flattened());
                assert_eq!(u(got), u(&want), "{ranks} ranks");
            }
        }
    }

    /// The ascending global ids of the sites `rank` owns.
    fn locals_of(owner: &[usize], rank: usize) -> Vec<u32> {
        (0..owner.len() as u32)
            .filter(|&g| owner[g as usize] == rank)
            .collect()
    }

    fn demo_geo() -> Arc<SparseGeometry> {
        Arc::new(VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0))
    }

    /// Contiguous owner map splitting sites evenly by index.
    fn even_owner(n: usize, p: usize) -> Vec<usize> {
        (0..n).map(|s| (s * p / n).min(p - 1)).collect()
    }

    #[test]
    fn distributed_equals_serial_bitwise() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(20);
        let reference = serial.snapshot();

        for p in [1, 2, 3, 4] {
            let geo2 = geo.clone();
            let cfg2 = cfg.clone();
            let results = run_spmd(p, move |comm| {
                let owner = even_owner(geo2.fluid_count(), comm.size());
                let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
                ds.step_n(20).unwrap();
                ds.gather_snapshot().unwrap()
            });
            let gathered = results[0].as_ref().expect("root gathers");
            assert_eq!(gathered.rho.len(), reference.rho.len());
            for s in 0..reference.rho.len() {
                assert_eq!(gathered.rho[s], reference.rho[s], "rho at site {s}, p={p}");
                assert_eq!(gathered.u[s], reference.u[s], "u at site {s}, p={p}");
            }
        }
    }

    #[test]
    fn halo_traffic_scales_with_cut_not_volume() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let geo2 = geo.clone();
        let out = run_spmd_with_stats(4, move |comm| {
            let owner = even_owner(geo2.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
            ds.step_n(5).unwrap();
            ds.halo_send_volume()
        });
        let halo_bytes = out.summary.total.bytes(TagClass::Halo);
        assert!(halo_bytes > 0, "cross-rank links must exist");
        // Halo per step = f64 per (site, dir) crossing the cut; 5 steps.
        let per_step: usize = out.results.iter().sum::<usize>() * 8;
        // Construction also used halo-tagged plan messages; bound loosely.
        assert!(
            halo_bytes as usize >= per_step * 5,
            "expected at least {} bytes, saw {halo_bytes}",
            per_step * 5
        );
        // The cut is tiny compared with shipping whole subdomains.
        let q = cfg_q();
        let full_volume = geo.fluid_count() * q * 8 * 5;
        assert!((halo_bytes as usize) < full_volume / 2);
    }

    fn cfg_q() -> usize {
        crate::model::LatticeModel::d3q15().q
    }

    #[test]
    fn mass_agrees_with_serial() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.0, 1.0);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(3);
        let m_serial = serial.mass();
        let geo2 = geo.clone();
        let results = run_spmd(3, move |comm| {
            let owner = even_owner(geo2.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
            ds.step_n(3).unwrap();
            ds.mass().unwrap()
        });
        for m in results {
            assert!((m - m_serial).abs() < 1e-9);
        }
    }

    #[test]
    fn single_rank_dist_solver_matches_serial_without_comm() {
        let geo = demo_geo();
        let cfg = SolverConfig::velocity_driven(0.03);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(10);
        let reference = serial.snapshot();
        let geo2 = geo.clone();
        let out = run_spmd_with_stats(1, move |comm| {
            let owner = vec![0; geo2.fluid_count()];
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
            ds.step_n(10).unwrap();
            ds.local_snapshot()
        });
        assert_eq!(out.results[0].rho, reference.rho);
        assert_eq!(
            out.summary.total.bytes(TagClass::Halo),
            0,
            "no peers, no halo"
        );
    }

    #[test]
    fn repartition_mid_run_preserves_physics_bitwise() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(20);
        let reference = serial.snapshot();

        let geo2 = geo.clone();
        let out = run_spmd_with_stats(4, move |comm| {
            let n = geo2.fluid_count();
            let owner_a = even_owner(n, comm.size());
            // A completely different (reversed) decomposition.
            let owner_b: Vec<usize> = owner_a.iter().map(|&o| comm.size() - 1 - o).collect();
            let mut ds = DistSolver::new(geo2.clone(), owner_a, cfg.clone(), comm).unwrap();
            ds.step_n(10).unwrap();
            let moved = ds.repartition(owner_b.clone()).unwrap();
            assert_eq!(ds.owner(), &owner_b[..], "owner map adopted");
            ds.step_n(10).unwrap();
            (ds.gather_snapshot().unwrap(), moved, ds.step_count())
        });
        let (snap, _, steps) = &out.results[0];
        assert_eq!(*steps, 20);
        let gathered = snap.as_ref().unwrap();
        for s in 0..reference.rho.len() {
            assert_eq!(gathered.rho[s], reference.rho[s], "site {s}");
            assert_eq!(gathered.u[s], reference.u[s], "site {s}");
        }
        // Everything moved (reversed map) and was counted as migration
        // traffic.
        let moved_total: usize = out.results.iter().map(|r| r.1).sum();
        assert_eq!(moved_total, geo.fluid_count());
        assert!(out.summary.total.bytes(TagClass::Migration) > 0);
    }

    /// Checkerboard of 2³-voxel blocks: about the most fragmented map a
    /// partitioner could hand over — nearly every site is frontier and
    /// ascending runs of one owner are a voxel or two long.
    fn checkerboard_owner(geo: &SparseGeometry, p: usize) -> Vec<usize> {
        (0..geo.fluid_count() as u32)
            .map(|s| {
                let [x, y, z] = geo.position(s);
                ((x / 2 + y / 2 + z / 2) as usize) % p
            })
            .collect()
    }

    /// Slab → checkerboard → slab mid-run, with a checkpoint → restore
    /// round trip on the fragmented map in between: every population of
    /// every rank equals the serial solver's, in global order.
    #[test]
    fn repartition_to_a_fragmented_map_and_back_preserves_physics_bitwise() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(30);
        let want = serial.raw_distributions();
        let q = cfg_q();

        let dir = std::env::temp_dir().join(format!("hemelb_frag_{}", std::process::id()));
        let (geo2, dir2) = (geo.clone(), dir.clone());
        let out = run_spmd_with_stats(2, move |comm| {
            let slab = even_owner(geo2.fluid_count(), comm.size());
            let fragmented = checkerboard_owner(&geo2, comm.size());
            let mut ds = DistSolver::new(geo2.clone(), slab.clone(), cfg.clone(), comm).unwrap();
            ds.step_n(10).unwrap();
            ds.repartition(fragmented.clone()).unwrap();
            let part = *ds.partition();
            assert!(
                part.frontier_count() * 2 > part.site_count(),
                "rank {}: a checkerboard is mostly frontier",
                comm.rank()
            );
            ds.step_n(5).unwrap();

            ds.checkpoint(&dir2).unwrap();
            let mut resumed = DistSolver::new(geo2.clone(), fragmented, cfg.clone(), comm).unwrap();
            resumed.restore(&dir2).unwrap();
            assert_eq!(resumed.step_count(), 15);
            assert_eq!(resumed.local_sites(), ds.local_sites());
            ds.step_n(5).unwrap();
            resumed.step_n(5).unwrap();
            let (a, b) = (ds.raw_distributions(), resumed.raw_distributions());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "rank {}: restored run diverged on the fragmented map",
                comm.rank()
            );

            resumed.repartition(slab).unwrap();
            resumed.step_n(10).unwrap();
            (resumed.local_sites().to_vec(), resumed.raw_distributions())
        });
        let mut seen = 0;
        for (sites, f) in &out.results {
            for (k, &g) in sites.iter().enumerate() {
                let g = g as usize;
                for d in 0..q {
                    assert_eq!(
                        f[k * q + d].to_bits(),
                        want[g * q + d].to_bits(),
                        "site {g} dir {d}"
                    );
                }
                seen += 1;
            }
        }
        assert_eq!(seen, geo.fluid_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bytes off a channel never panic a rank: a halo payload with the
    /// wrong population count, a truncated one, or one from a rank
    /// outside the exchange plan is a typed error that writes nothing —
    /// into the ghost slots at an even step count (a local step's
    /// message) or into the send slots at an odd one (a pull–push
    /// step's).
    #[test]
    fn malformed_halo_payloads_are_errors_not_panics() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        run_spmd(2, move |comm| {
            let owner = even_owner(geo.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo.clone(), owner, cfg.clone(), comm).unwrap();
            let (peer, _, count) = ds.recv_plan[0];
            let sent = ds.send_plan[0].1.len();
            let slice_of = |len: usize| {
                let mut w = WireWriter::new();
                w.put_f64_slice(&vec![7.0; len]);
                w.finish()
            };
            for (steps, count) in [(2, count), (3, sent)] {
                ds.step_n(steps - ds.step_count()).unwrap();
                let before = (ds.lat.ghost.clone(), ds.lat.f.clone());
                let mut truncated = WireWriter::new();
                truncated.put_usize(count);
                for (who, payload) in [
                    (peer, slice_of(count + 1)),
                    (peer, slice_of(count - 1)),
                    (peer, truncated.finish()),
                    (peer, Vec::new()),
                    (comm.rank(), slice_of(count)),
                ] {
                    let got = ds.unpack_halo(who, payload);
                    assert!(matches!(got, Err(CommError::Decode { .. })), "{got:?}");
                    let after = (&ds.lat.ghost, &ds.lat.f);
                    assert_eq!(
                        after,
                        (&before.0, &before.1),
                        "a rejected payload writes nothing"
                    );
                }
                ds.unpack_halo(peer, slice_of(count)).unwrap();
                let sevens = |v: &[f64]| v.iter().filter(|&&v| v == 7.0).count();
                let lanes: usize = ds.lat.f.iter().map(|l| sevens(l)).sum();
                assert!(sevens(&ds.lat.ghost) + lanes >= count, "step {steps}");
            }
        });
    }

    /// A request list as `DistSolver::new` encodes it, with any count.
    fn request_list(count: u64, pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(count);
        for &(g, d) in pairs {
            w.put_u32(g);
            w.put_u32(d);
        }
        w.finish()
    }

    /// `g2l` of a rank owning global sites 0 and 2 of four.
    const G2L: [u32; 4] = [0, u32::MAX, 1, u32::MAX];

    #[test]
    fn hostile_request_count_is_a_decode_error() {
        for count in [u64::MAX, 1 << 40, 2] {
            let got = decode_requests(request_list(count, &[(0, 1)]), &G2L, 15);
            assert!(
                matches!(got, Err(CommError::Decode { .. })),
                "{count}: {got:?}"
            );
        }
    }

    #[test]
    fn request_for_a_site_past_the_map_is_a_decode_error() {
        let got = decode_requests(request_list(1, &[(4, 1)]), &G2L, 15);
        assert!(matches!(got, Err(CommError::Decode { .. })), "{got:?}");
    }

    #[test]
    fn request_for_an_unowned_site_or_direction_is_a_decode_error() {
        for (g, d) in [(1, 1), (0, 15)] {
            let got = decode_requests(request_list(1, &[(g, d)]), &G2L, 15);
            assert!(matches!(got, Err(CommError::Decode { .. })), "{got:?}");
        }
        let ok = decode_requests(request_list(2, &[(2, 3), (0, 14)]), &G2L, 15);
        assert_eq!(ok.unwrap(), vec![(1, 3), (0, 14)]);
    }

    #[test]
    fn short_or_hostile_rank_fields_are_decode_errors() {
        let fields = |n_rho: usize, nu: u64, n_u: usize, n_shear: usize| {
            let mut w = WireWriter::new();
            w.put_f64_slice(&vec![1.0; n_rho]);
            w.put_u64(nu);
            for _ in 0..n_u {
                w.put(&[2.0f64; 3]);
            }
            w.put_f64_slice(&vec![3.0; n_shear]);
            w.finish()
        };
        for (what, payload) in [
            ("velocity count u64::MAX", fields(2, u64::MAX, 2, 2)),
            ("velocity count past the bytes", fields(2, 1 << 40, 0, 0)),
            ("short rho", fields(1, 2, 2, 2)),
            ("short u", fields(2, 1, 1, 2)),
            ("short shear", fields(2, 2, 2, 1)),
            ("fewer sites than owned", fields(1, 1, 1, 1)),
            ("more sites than owned", fields(3, 3, 3, 3)),
        ] {
            let got = decode_fields(&[payload], &[0, 0]);
            assert!(
                matches!(got, Err(CommError::Decode { .. })),
                "{what}: {got:?}"
            );
        }
        let mut trailing = fields(2, 2, 2, 2);
        trailing.push(0);
        let got = decode_fields(&[trailing], &[0, 0]);
        assert!(matches!(got, Err(CommError::Decode { .. })), "{got:?}");
        let (rho, u, shear) = decode_fields(&[fields(2, 2, 2, 2)], &[0, 0]).unwrap();
        assert_eq!(
            (rho, u, shear),
            (vec![1.0; 2], vec![[2.0; 3]; 2], vec![3.0; 2])
        );
    }

    /// Every rank's `gather_snapshot` payload of a 2-rank run, each under
    /// every truncation and every single-bit flip: decoding never
    /// panics, every proper prefix is a `Decode` error, and a flip is
    /// either one or a field of every site. The decoder writes straight
    /// into the global arrays, which the owner map sizes: no count off
    /// the wire sizes an allocation.
    #[test]
    fn gather_payloads_survive_every_truncation_and_bit_flip() {
        let geo = Arc::new(VesselBuilder::straight_tube(4.0, 1.5).voxelise(1.0));
        let owner = even_owner(geo.fluid_count(), 2);
        let (geo2, owner2) = (geo.clone(), owner.clone());
        let ranks = run_spmd(2, move |comm| {
            let cfg = SolverConfig::pressure_driven(1.01, 0.99);
            let mut ds = DistSolver::new(geo2.clone(), owner2.clone(), cfg, comm).unwrap();
            ds.step_n(3).unwrap();
            let ascending = ascending_order(&ds.locals, ds.partition.frontier_count());
            let payload = encode_fields(&ds.local_snapshot(), ascending);
            (payload, ds.gather_snapshot().unwrap())
        });
        let gathered = ranks[0].1.clone().expect("root gathers");
        let mut parts: Vec<Vec<u8>> = ranks.into_iter().map(|r| r.0).collect();
        let (rho, u, shear) = decode_fields(&parts, &owner).unwrap();
        assert_eq!(
            (&rho, &u, &shear),
            (&gathered.rho, &gathered.u, &gathered.shear)
        );
        let n = geo.fluid_count();
        for rank in 0..2 {
            let valid = parts[rank].clone();
            for len in 0..valid.len() {
                parts[rank] = valid[..len].to_vec();
                let got = decode_fields(&parts, &owner);
                assert!(matches!(got, Err(CommError::Decode { .. })), "{len} bytes");
            }
            for bit in 0..valid.len() * 8 {
                parts[rank] = valid.clone();
                parts[rank][bit / 8] ^= 1 << (bit % 8);
                match decode_fields(&parts, &owner) {
                    Ok((rho, u, shear)) => assert_eq!([rho.len(), u.len(), shear.len()], [n; 3]),
                    Err(CommError::Decode { .. }) => {}
                    Err(other) => panic!("bit {bit}: {other:?}"),
                }
            }
            parts[rank] = valid;
        }
    }

    #[test]
    fn repartition_to_same_owner_is_a_no_op_migration() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.0, 1.0);
        let geo2 = geo.clone();
        let out = run_spmd_with_stats(3, move |comm| {
            let owner = even_owner(geo2.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo2.clone(), owner.clone(), cfg.clone(), comm).unwrap();
            ds.step_n(3).unwrap();
            ds.repartition(owner).unwrap()
        });
        assert!(out.results.iter().all(|&m| m == 0), "nothing moves");
        assert_eq!(out.summary.total.bytes(TagClass::Migration), 0);
    }

    /// Satellite: validate streaming-index construction at **rank
    /// boundaries per link orientation**. With an explicit x-slab
    /// decomposition, every pull entry must agree with an independent
    /// geometry + owner-map query: boundary sentinel for missing links,
    /// a local index resolving to the right global site for owned
    /// sources, and a halo slot exactly when the source belongs to the
    /// peer. Orientation coverage: the low-x rank may only have halo
    /// links on directions pulling from higher x (`c_x = −1`), the
    /// high-x rank only on `c_x = +1`, and x-neutral directions never
    /// cross the cut.
    #[test]
    fn halo_slots_marked_per_orientation_at_rank_boundaries() {
        let geo = demo_geo();
        let x_cut = geo.shape()[0] as u32 / 2;
        let owner: Vec<usize> = (0..geo.fluid_count() as u32)
            .map(|s| usize::from(geo.position(s)[0] >= x_cut))
            .collect();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let geo2 = geo.clone();
        let owner2 = owner.clone();
        run_spmd(2, move |comm| {
            let ds = DistSolver::new(geo2.clone(), owner2.clone(), cfg.clone(), comm).unwrap();
            let me = comm.rank();
            let q = ds.lat.model.q;
            let table = ds.lat.stream_table();
            let mut halo_links = vec![0usize; q];
            for (l, &g) in ds.locals.iter().enumerate() {
                let [x, y, z] = geo2.position(g);
                for (i, links) in halo_links.iter_mut().enumerate() {
                    let c = ds.lat.model.c[i];
                    let src = geo2.site_at(
                        x as i64 - c[0] as i64,
                        y as i64 - c[1] as i64,
                        z as i64 - c[2] as i64,
                    );
                    let entry = table[i][l];
                    match src {
                        None => assert_eq!(entry, BOUNDARY, "dir {i} at local {l}"),
                        Some(sg) if owner2[sg as usize] == me => {
                            assert_eq!(entry & HALO_FLAG, 0, "owned source marked halo");
                            assert_eq!(
                                ds.locals[entry as usize], sg,
                                "dir {i} at local {l}: wrong local source"
                            );
                        }
                        Some(_) => {
                            assert_ne!(entry, BOUNDARY);
                            assert_ne!(entry & HALO_FLAG, 0, "peer source must be a halo slot");
                            assert!(((entry & !HALO_FLAG) as usize) < ds.lat.ghost.len());
                            *links += 1;
                        }
                    }
                }
            }
            for (i, &links) in halo_links.iter().enumerate().take(q) {
                let cx = ds.lat.model.c[i][0];
                let crosses = (me == 0 && cx == -1) || (me == 1 && cx == 1);
                if crosses {
                    assert!(
                        links > 0,
                        "rank {me}: direction {i} (c_x = {cx}) must cross the cut"
                    );
                } else {
                    assert_eq!(
                        links, 0,
                        "rank {me}: direction {i} (c_x = {cx}) must not cross the cut"
                    );
                }
            }
        });
    }

    /// Every promise of the plan builder on this rank, against oracles
    /// drawn from the geometry and the owner map alone:
    ///
    /// * a site is frontier exactly when some lattice neighbour is owned
    ///   elsewhere, and the storage order is the frontier, then the
    ///   interior, each ascending;
    /// * the requests this rank sends are byte for byte the lists a walk
    ///   of the table in ascending global order gives (the encoding
    ///   before the plan builder), and each peer's requests arrive in
    ///   this rank's send plan in the peer's order;
    /// * the halo slots are one contiguous range per peer, in peer order,
    ///   each in the order of this rank's requests to that peer;
    /// * the plan expands to `build_stream_table` over the storage order
    ///   with those slots, and every link lies in exactly one of the
    ///   plan's lists.
    fn assert_plan_matches_oracles(ds: &DistSolver<'_>) {
        let (geo, owner, model) = (&ds.geo, &ds.owner[..], &ds.lat.model);
        let (me, ranks) = (ds.comm.rank(), ds.comm.size());

        let split = ds.partition.frontier_count();
        for (l, &g) in ds.locals.iter().enumerate() {
            let [x, y, z] = geo.position(g).map(i64::from);
            let elsewhere = model.c.iter().any(|c| {
                let t = geo.site_at(x + c[0] as i64, y + c[1] as i64, z + c[2] as i64);
                t.is_some_and(|t| owner[t as usize] != me)
            });
            assert_eq!(
                ds.partition.is_frontier(l),
                elsewhere,
                "rank {me}: site {g}"
            );
        }
        assert!(ds.locals[..split].windows(2).all(|w| w[0] < w[1]));
        assert!(ds.locals[split..].windows(2).all(|w| w[0] < w[1]));
        let mut sorted = ds.locals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, locals_of(owner, me), "rank {me}: a permutation");

        // Each rank's requests, per peer, as a table walk over its sites
        // in ascending global order meets them.
        let requests_of = |rank: usize| {
            let mut lists = vec![Vec::new(); ranks];
            build_stream_table(geo, model, locals_of(owner, rank).into_iter(), |src, i| {
                let o = owner[src as usize];
                if o != rank {
                    lists[o].push((src, i as u16));
                }
                0
            });
            lists
        };
        let mine = requests_of(me);
        let (_, _, sent) = frontier_pass(geo, &upstream(geo, model), model.q, owner, me, ranks);
        for (list, want) in sent.iter().zip(&mine) {
            let pairs: Vec<(u32, u32)> = want.iter().map(|&(g, d)| (g, d as u32)).collect();
            assert_eq!(
                encode_requests(list),
                request_list(want.len() as u64, &pairs)
            );
        }
        let g2l = global_to_local(&ds.locals, geo.fluid_count());
        let send_plan: Vec<_> = (0..ranks)
            .filter(|&peer| peer != me)
            .map(|peer| (peer, requests_of(peer).swap_remove(me)))
            .filter(|(_, list)| !list.is_empty())
            .map(|(peer, list)| {
                (
                    peer,
                    list.iter().map(|&(g, d)| (g2l[g as usize], d)).collect(),
                )
            })
            .collect();
        assert_eq!(ds.send_plan, send_plan, "rank {me}");

        let mut recv_plan = Vec::new();
        let mut slot_of = std::collections::HashMap::new();
        for (peer, list) in mine.iter().enumerate() {
            if !list.is_empty() {
                recv_plan.push((peer, slot_of.len(), list.len()));
            }
            for &link in list {
                slot_of.insert(link, slot_of.len() as u32);
            }
        }
        assert_eq!(ds.recv_plan, recv_plan, "rank {me}");
        let want = build_stream_table(geo, model, ds.locals.iter().copied(), |src, i| {
            match owner[src as usize] == me {
                true => g2l[src as usize],
                false => HALO_FLAG | slot_of[&(src, i as u16)],
            }
        });
        assert_eq!(ds.lat.stream_table(), want, "rank {me}");
        crate::layout::tests::assert_plan_partitions_the_links(&ds.lat);
    }

    /// On every rank of a 3-rank k-way-like split (a checkerboard, so
    /// the plan has halo links in every direction), for both velocity
    /// sets: the plan keeps every promise of the builder, and every
    /// ghost slot is read by exactly one link.
    #[test]
    fn plan_partitions_the_links_and_expands_to_the_table_on_every_rank() {
        let geo = Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0));
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let cfg = SolverConfig::velocity_driven(0.03).with_model(kind);
            let geo2 = geo.clone();
            run_spmd(3, move |comm| {
                let owner = checkerboard_owner(&geo2, comm.size());
                let ds = DistSolver::new(geo2.clone(), owner, cfg.clone(), comm).unwrap();
                assert_plan_matches_oracles(&ds);
                let mut slots = vec![0; ds.lat.ghost.len()];
                for &(_, _, slot) in &ds.lat.plan.halo {
                    slots[slot as usize] += 1;
                }
                assert!(slots.iter().all(|&s| s == 1), "every halo slot read once");
            });
        }
    }

    /// A random blob of fluid cells filling a `shape` box to `density`,
    /// numbered in raster order; the sites of the lowest fluid `x` are
    /// inlet 0, those of the highest outlet 0.
    fn blob(shape: [usize; 3], density: f64, seed: u64) -> Arc<SparseGeometry> {
        let mut state = seed;
        let mut draw = || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut index = vec![NOT_FLUID; shape.iter().product()];
        let mut positions = Vec::new();
        for x in 0..shape[0] {
            for y in 0..shape[1] {
                for z in 0..shape[2] {
                    if draw() < density {
                        index[(x * shape[1] + y) * shape[2] + z] = positions.len() as u32;
                        positions.push([x as u32, y as u32, z as u32]);
                    }
                }
            }
        }
        let x0 = positions.first().map_or(0, |p| p[0]);
        let x1 = positions.last().map_or(0, |p| p[0]);
        let kinds = positions
            .iter()
            .map(|p| match p[0] {
                x if x == x0 => SiteKind::Inlet(0),
                x if x == x1 => SiteKind::Outlet(0),
                _ => SiteKind::Wall,
            })
            .collect();
        let disk = |kind, x: u32, nx: f64| IoLet {
            kind,
            centre: Vec3::new(x as f64, shape[1] as f64 / 2.0, shape[2] as f64 / 2.0),
            normal: Vec3::new(nx, 0.0, 0.0),
            radius: shape[1].max(shape[2]) as f64,
        };
        let iolets = vec![
            disk(IoLetKind::Inlet, x0, -1.0),
            disk(IoLetKind::Outlet, x1, 1.0),
        ];
        Arc::new(SparseGeometry::from_parts(
            shape, index, positions, kinds, iolets,
        ))
    }

    /// A slab, Hilbert (`map` 1) or k-way (`map` 2) map of `geo` on `p`
    /// ranks.
    fn owner_map(geo: &SparseGeometry, map: usize, p: usize) -> Vec<usize> {
        let graph = SiteGraph::from_geometry(geo, Connectivity::D3Q15);
        match map {
            0 => even_owner(geo.fluid_count(), p),
            1 => HilbertSfc.partition(&graph, p),
            _ => MultilevelKWay.partition(&graph, p),
        }
    }

    /// The serial lattice of `geo`, and every one of `p` ranks' under
    /// `owner`, keep every promise of the plan builder.
    fn assert_plans_match_oracles(
        geo: &Arc<SparseGeometry>,
        kind: ModelKind,
        owner: Vec<usize>,
        p: usize,
    ) {
        let cfg = SolverConfig::velocity_driven(0.03).with_model(kind);
        let serial = Solver::new(geo.clone(), cfg.clone());
        let sites = 0..geo.fluid_count() as u32;
        let want = build_stream_table(geo, &serial.lat.model, sites, |src, _| src);
        assert_eq!(serial.lat.stream_table(), want);
        crate::layout::tests::assert_plan_partitions_the_links(&serial.lat);
        let geo = geo.clone();
        run_spmd(p, move |comm| {
            let ds = DistSolver::new(geo.clone(), owner.clone(), cfg.clone(), comm).unwrap();
            assert_plan_matches_oracles(&ds);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random fluid blobs up to 12³ × {D3Q15, D3Q19} × {slab,
        /// Hilbert, k-way} maps × 1–4 ranks.
        #[test]
        fn plan_builder_keeps_its_promises_on_random_blobs(
            shape in proptest::array::uniform3(2usize..13),
            density in 0.2f64..0.9,
            seed in any::<u64>(),
            d3q19 in any::<bool>(),
            map in 0usize..3,
            ranks in 1usize..5,
        ) {
            let geo = blob(shape, density, seed);
            prop_assume!(geo.fluid_count() >= ranks);
            let kind = if d3q19 { ModelKind::D3Q19 } else { ModelKind::D3Q15 };
            assert_plans_match_oracles(&geo, kind, owner_map(&geo, map, ranks), ranks);
        }
    }

    /// The `prep_cold` case: the Medium aneurysm (137 320 sites) under its
    /// two-rank k-way map, and the serial lattice.
    #[test]
    #[ignore = "Medium plan oracles in debug; run via cargo test --release -- --ignored"]
    fn plan_builder_keeps_its_promises_at_medium() {
        let geo = Arc::new(VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.25));
        assert_eq!(geo.fluid_count(), 137_320);
        assert_plans_match_oracles(&geo, ModelKind::D3Q15, owner_map(&geo, 2, 2), 2);
    }

    /// Satellite: the interior/frontier classifier, validated **per
    /// link orientation at rank boundaries** with the same explicit
    /// x-slab decomposition as the streaming-table test above. A site must
    /// be frontier iff it appears in the send plan or owns a halo pull
    /// link; the compiled [`SitePartition`] must agree with that
    /// definition, and the storage order must put the frontier first,
    /// ascending in global id within each class.
    #[test]
    fn frontier_classification_per_orientation_at_rank_boundaries() {
        let geo = demo_geo();
        let x_cut = geo.shape()[0] as u32 / 2;
        let owner: Vec<usize> = (0..geo.fluid_count() as u32)
            .map(|s| usize::from(geo.position(s)[0] >= x_cut))
            .collect();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let geo2 = geo.clone();
        let owner2 = owner.clone();
        run_spmd(2, move |comm| {
            let ds = DistSolver::new(geo2.clone(), owner2.clone(), cfg.clone(), comm).unwrap();
            let me = comm.rank();
            let q = ds.lat.model.q;
            let nl = ds.locals.len();
            let table = ds.lat.stream_table();

            // Independent reconstruction of the frontier set.
            let mut expected = vec![false; nl];
            for (_, requests) in &ds.send_plan {
                for &(l, _) in requests {
                    expected[l as usize] = true;
                }
            }
            for (l, flag) in expected.iter_mut().enumerate() {
                *flag |= (0..q).any(|d| {
                    let e = table[d][l];
                    e != BOUNDARY && e & HALO_FLAG != 0
                });
            }
            for (l, &want) in expected.iter().enumerate() {
                assert_eq!(
                    ds.partition.is_frontier(l),
                    want,
                    "rank {me}: site {l} misclassified"
                );
            }

            // Per orientation: only links crossing the x-cut may
            // make a site frontier, and every crossing orientation
            // must contribute at least one frontier site.
            for (i, c) in ds.lat.model.c.iter().enumerate() {
                let crosses = (me == 0 && c[0] == -1) || (me == 1 && c[0] == 1);
                let halo_sites = (0..nl)
                    .filter(|&l| {
                        let e = table[i][l];
                        e != BOUNDARY && e & HALO_FLAG != 0
                    })
                    .count();
                if crosses {
                    assert!(halo_sites > 0, "rank {me}: dir {i} should cross the cut");
                } else {
                    assert_eq!(halo_sites, 0, "rank {me}: dir {i} must not cross");
                }
                for (l, &e) in table[i].iter().enumerate() {
                    if e != BOUNDARY && e & HALO_FLAG != 0 {
                        assert!(ds.partition.is_frontier(l));
                    }
                }
            }

            // Storage order: the frontier is the prefix, and each class
            // ascends in global id, so together they are a permutation
            // of the owned sites.
            let split = ds.partition.frontier_count();
            assert_eq!(split, expected.iter().filter(|&&f| f).count());
            assert_eq!(ds.partition.site_count(), nl);
            assert!(ds.locals[..split].windows(2).all(|w| w[0] < w[1]));
            assert!(ds.locals[split..].windows(2).all(|w| w[0] < w[1]));
            let mut sorted = ds.locals.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, locals_of(&owner2, me), "rank {me}: a permutation");

            // An x-slab of a 16-long tube has interior sites, so
            // overlap engages.
            assert!(ds.overlap_active(), "rank {me}: overlap should engage");
        });
    }

    /// Satellite: the interior suffix must contain **no halo reads** —
    /// that is the invariant letting the step stream the interior
    /// before any receive has landed.
    #[test]
    fn interior_stream_segments_have_no_halo_reads() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        for (p, fragmented) in [(2, false), (3, false), (4, false), (2, true), (3, true)] {
            let geo2 = geo.clone();
            let cfg2 = cfg.clone();
            run_spmd(p, move |comm| {
                let owner = if fragmented {
                    checkerboard_owner(&geo2, comm.size())
                } else {
                    even_owner(geo2.fluid_count(), comm.size())
                };
                let ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
                let split = ds.partition.frontier_count();
                let table = ds.lat.stream_table();
                for l in split..ds.locals.len() {
                    for lane in &table {
                        assert!(
                            lane[l] == BOUNDARY || lane[l] & HALO_FLAG == 0,
                            "rank {}: interior site {l} reads the halo",
                            comm.rank()
                        );
                    }
                }
                // Everything the exchange touches lies in the prefix.
                let halo = ds.lat.plan.halo.iter().map(|&(l, _, _)| l);
                let sent = ds
                    .send_plan
                    .iter()
                    .flat_map(|(_, r)| r.iter().map(|&(l, _)| l));
                assert!(halo.chain(sent).all(|l| (l as usize) < split));
            });
        }
    }

    /// Satellite: degenerate domains run the same schedule with one of
    /// its sweeps empty — a zero-peer rank has nothing to overlap with,
    /// an all-frontier slab has no interior to hide latency behind. Both
    /// still step correctly and report no overlap.
    #[test]
    fn degenerate_domains_have_nothing_to_overlap() {
        // Zero peers: single rank owns everything.
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let geo2 = geo.clone();
        let cfg2 = cfg.clone();
        run_spmd(1, move |comm| {
            let owner = vec![0; geo2.fluid_count()];
            let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
            assert_eq!(ds.partition.frontier_count(), 0, "no peers, no frontier");
            assert!(!ds.overlap_active(), "zero-peer rank must not overlap");
            ds.step_n(3).unwrap();
        });

        // All-frontier: a 2-voxel-long tube split across the x axis
        // leaves each rank a one-layer slab where every site touches
        // the cut.
        let thin = Arc::new(VesselBuilder::straight_tube(2.0, 3.0).voxelise(1.0));
        let x_cut = thin.shape()[0] as u32 / 2;
        let owner: Vec<usize> = (0..thin.fluid_count() as u32)
            .map(|s| usize::from(thin.position(s)[0] >= x_cut))
            .collect();
        let thin2 = thin.clone();
        let cfg2 = cfg.clone();
        run_spmd(2, move |comm| {
            let mut ds = DistSolver::new(thin2.clone(), owner.clone(), cfg2.clone(), comm).unwrap();
            assert_eq!(
                ds.partition.interior_count(),
                0,
                "one-layer slab is all frontier"
            );
            assert!(!ds.overlap_active(), "all-frontier rank must not overlap");
            ds.step_n(3).unwrap();
        });
    }

    #[test]
    fn local_sites_partition_the_domain() {
        let geo = demo_geo();
        let n = geo.fluid_count();
        let owner = even_owner(n, 3);
        let mut seen = vec![false; n];
        for r in 0..3 {
            for g in locals_of(&owner, r) {
                assert!(!seen[g as usize], "site {g} owned twice");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every site owned");
    }
}

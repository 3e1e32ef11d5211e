//! The distributed SPMD solver.
//!
//! Domain decomposition by an arbitrary site→rank owner map (produced by
//! any partitioner in `hemelb-partition`); each rank stores distributions
//! only for its own sites, and the pull streaming of cross-rank links is
//! fed by a per-step **halo exchange** of post-collision populations —
//! the communication whose volume the partitioners minimise and the
//! paper's load-balance discussion revolves around.
//!
//! The distributed stepper is bit-for-bit identical to the serial
//! [`Solver`](crate::Solver) (asserted in tests): both perform the same
//! per-site arithmetic; only the storage and transport differ.
//!
//! ## Storage order and the step schedule
//!
//! A rank's sites are either **frontier** (their post-collision
//! populations are shipped to peers, or they pull from peers) or
//! **interior** (everything else). The constructor renumbers the rank's
//! sites once so that the frontier is the local prefix `0..split` and
//! the interior the suffix `split..n`, ascending global id within each
//! class — HemeLB's "domain-edge first, mid-domain after" order. However
//! fragmented the owner map, the step (DESIGN.md §2.14) is then two
//! contiguous sweeps around the exchange:
//!
//! 1. collide the frontier `0..split`;
//! 2. pack and post every peer's message;
//! 3. collide and stream the interior `split..n` while the messages are
//!    in flight;
//! 4. drain receives in arrival order;
//! 5. stream the frontier from the complete halo buffer.
//!
//! Collide is per-site independent and stream reads only immutable
//! post-collision state, so where the seam falls changes no value.
//!
//! **Ordering contract.** [`DistSolver::local_sites`] returns the
//! storage order; [`DistSolver::local_snapshot`],
//! [`DistSolver::raw_distributions`] and the per-rank checkpoints are
//! index-aligned with it. The order is a function of the geometry, the
//! velocity set and the owner map alone. Collective results
//! ([`DistSolver::gather_snapshot`]) are in global site order.

use crate::boundary::IoletBc;
use crate::fields::FieldSnapshot;
use crate::layout::{
    build_stream_table, SitePartition, SoaLattice, HALO_FLAG, LINK_BOUNDARY as BOUNDARY,
};
use crate::model::LatticeModel;
use crate::solver::SolverConfig;
use bytes::Bytes;
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
    /// Per peer rank: `(peer, halo slot range start, count)`.
    recv_plan: Vec<(usize, usize, usize)>,
    /// Halo buffer of received post-collision populations.
    halo: Vec<f64>,
    /// Where the frontier prefix of the local sites ends (see
    /// [`SitePartition`]).
    partition: SitePartition,
    /// Peers whose halo payload of the current step is still
    /// outstanding; kept to reuse its allocation.
    awaited: Vec<usize>,
}

/// Compute the ascending list of global site ids owned by `rank`.
pub fn locals_of(owner: &[usize], rank: usize) -> Vec<u32> {
    owner
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == rank)
        .map(|(s, _)| s as u32)
        .collect()
}

/// Global → local index over `locals`; `u32::MAX` for sites not in it.
fn global_to_local(locals: &[u32], fluid_count: usize) -> Vec<u32> {
    let mut g2l = vec![u32::MAX; fluid_count];
    for (l, &g) in locals.iter().enumerate() {
        g2l[g as usize] = l as u32;
    }
    g2l
}

/// Decode one peer's request list — a count, then `(global site,
/// direction)` pairs of `u32`s — into `(local site, direction)` pairs
/// over `g2l`. A count the bytes cannot hold, a site this rank does not
/// own or a direction past `q` is a `Decode` error, not an allocation
/// or a panic.
fn decode_requests(payload: Bytes, g2l: &[u32], q: usize) -> CommResult<Vec<(u32, u16)>> {
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

/// `(rho, u, shear)` of one rank's sites, ascending global order.
type RankFields = (Vec<f64>, Vec<[f64; 3]>, Vec<f64>);

/// Decode one rank's `gather_snapshot` payload. A count the bytes cannot
/// hold, or a field that does not hold exactly `sites` values, is a
/// `Decode` error.
fn decode_rank_fields(payload: Bytes, sites: usize) -> CommResult<RankFields> {
    let mut r = WireReader::new(payload);
    let rho = r.get_f64_vec()?;
    let nu = r.get_checked_len(24, "velocities")?;
    let u = (0..nu)
        .map(|_| r.get())
        .collect::<CommResult<Vec<[f64; 3]>>>()?;
    let shear = r.get_f64_vec()?;
    r.expect_end()?;
    if [rho.len(), u.len(), shear.len()] != [sites; 3] {
        return Err(CommError::Decode {
            reason: format!(
                "fields of {} / {} / {} sites from a rank owning {sites}",
                rho.len(),
                u.len(),
                shear.len()
            ),
        });
    }
    Ok((rho, u, shear))
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
        // Everything up to the renumbering below indexes the owned sites
        // in ascending global order.
        let ascending = locals_of(&owner, me);
        let n = ascending.len();
        let g2l = global_to_local(&ascending, geo.fluid_count());

        // Build the streaming table, registering remote sources per peer.
        // needed[r] = list of (global_src, dir) this rank must receive
        // from r each step, in deterministic (local site, dir) order.
        let mut needed: Vec<Vec<(u32, u16)>> = vec![Vec::new(); comm.size()];
        let mut halo_slot_of: Vec<Vec<usize>> = vec![Vec::new(); comm.size()];
        let mut n_halo = 0usize;
        let mut stream = build_stream_table(&geo, &model, ascending.iter().copied(), |sg, i| {
            let o = owner[sg as usize];
            if o == me {
                return g2l[sg as usize];
            }
            needed[o].push((sg, i as u16));
            halo_slot_of[o].push(n_halo);
            n_halo += 1;
            HALO_FLAG | (n_halo - 1) as u32
        });

        // Exchange request lists so each rank learns what to send.
        // (One all-to-all at construction; steady-state steps use only
        // the sparse neighbourhood exchange.)
        let outgoing: Vec<Bytes> = needed
            .iter()
            .map(|list| {
                let mut w = WireWriter::with_capacity(8 + list.len() * 6);
                w.put_usize(list.len());
                for &(g, d) in list {
                    w.put_u32(g);
                    w.put_u32(d as u32);
                }
                w.finish()
            })
            .collect();
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
        send_plan.sort_unstable_by_key(|(peer, _)| *peer);

        // Receive plan: contiguousise halo slots per peer. Slots were
        // allocated interleaved across peers, so build a remap.
        let mut recv_plan = Vec::new();
        let mut remap = vec![0usize; n_halo];
        let mut next = 0usize;
        for (peer, slots) in halo_slot_of.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let start = next;
            for &old in slots {
                remap[old] = next;
                next += 1;
            }
            recv_plan.push((peer, start, slots.len()));
        }

        // Frontier classification: a site is frontier iff a peer needs
        // its post-collision populations (send plan) or it pulls at
        // least one population from a peer (halo link in its streaming
        // row). Interior sites touch no halo state in either direction,
        // so they can collide and stream while the exchange is in
        // flight.
        let mut frontier = vec![false; n];
        for (_, requests) in &send_plan {
            for &(l, _) in requests {
                frontier[l as usize] = true;
            }
        }
        for lane in &mut stream {
            for (entry, flag) in lane.iter_mut().zip(&mut frontier) {
                if *entry != BOUNDARY && *entry & HALO_FLAG != 0 {
                    let old = (*entry & !HALO_FLAG) as usize;
                    *entry = HALO_FLAG | remap[old] as u32;
                    *flag = true;
                }
            }
        }

        // Renumber into storage order — frontier first, interior after,
        // ascending global id within each class so copy segments stay
        // long — and carry the table, the site list and the send plan
        // through the permutation. Halo slots keep their numbers: they
        // follow the peers' packing order, which is fixed above.
        let frontier = &frontier;
        let class = |want: bool| (0..n as u32).filter(move |&l| frontier[l as usize] == want);
        let order: Vec<u32> = class(true).chain(class(false)).collect();
        let split = class(true).count();
        let mut renumber = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        let locals: Vec<u32> = order.iter().map(|&old| ascending[old as usize]).collect();
        // One lane at a time through one spare lane: a second table
        // would be fresh memory to fault in for nothing.
        let relabel = |e: u32| {
            if e & HALO_FLAG == 0 {
                renumber[e as usize]
            } else {
                e
            }
        };
        let mut spare = Vec::with_capacity(n);
        for lane in &mut stream {
            spare.clear();
            spare.extend(order.iter().map(|&old| relabel(lane[old as usize])));
            std::mem::swap(lane, &mut spare);
        }
        for (_, requests) in &mut send_plan {
            for (l, _) in requests {
                *l = renumber[*l as usize];
            }
        }

        let lat = SoaLattice::new(&geo, locals.iter().copied(), cfg, model, stream);
        Ok(DistSolver {
            comm,
            geo,
            owner,
            locals,
            lat,
            send_plan,
            awaited: Vec::with_capacity(recv_plan.len()),
            recv_plan,
            halo: vec![0.0; n_halo],
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

    /// Halo values (f64 populations) this rank sends per step.
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

    /// Encode each peer's requested post-collision populations as one
    /// length-prefixed `f64` slice (the bulk wire path) and post it.
    fn post_halo(&self) -> CommResult<()> {
        let f = &self.lat.f;
        for (peer, requests) in &self.send_plan {
            let mut w = WireWriter::with_capacity(8 + requests.len() * 8);
            w.put_f64_seq(requests.iter().map(|&(l, d)| f[d as usize][l as usize]));
            self.comm.send(*peer, T_HALO, w.finish())?;
        }
        Ok(())
    }

    /// Decode one peer's halo payload (bulk `f64` slice) straight into
    /// its slot range of the halo buffer. A payload from a rank outside
    /// the receive plan, or with the wrong population count, is an
    /// error and writes nothing.
    fn unpack_halo(&mut self, peer: usize, payload: Bytes) -> CommResult<()> {
        let &(_, start, count) = self
            .recv_plan
            .iter()
            .find(|(p, _, _)| *p == peer)
            .ok_or_else(|| CommError::Decode {
                reason: format!("halo payload from rank {peer}, which is not in the receive plan"),
            })?;
        WireReader::new(payload).get_f64_into(&mut self.halo[start..start + count])
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

    /// Advance one time step: collide, halo-exchange, stream.
    ///
    /// One schedule, two contiguous sweeps around the exchange:
    ///
    /// 1. collide the frontier `0..split` — exactly the populations
    ///    peers wait on, plus the sites that will need peers' data;
    /// 2. pack from the frontier and post all sends;
    /// 3. collide + stream the interior `split..n` while messages are in
    ///    flight (interior streaming touches no halo slot by
    ///    construction);
    /// 4. drain receives in arrival order, unpacking each payload as it
    ///    lands — the remaining blocked time is the *residual* halo wait;
    /// 5. stream the frontier from the now-complete halo buffer.
    ///
    /// Ordering argument for bit-exactness: collide is per-site
    /// independent and chunk-offset-invariant, so splitting it into two
    /// phases changes no value; every collide finishes before any stream
    /// that could read it (the interior streams after phases 1 and 3a;
    /// the frontier streams last); and the pack in phase 2 reads only
    /// frontier sites, which phase 3 never touches.
    ///
    /// Collide and stream run through the lattice drivers in
    /// [`crate::kernel`]: inside a rayon pool (the runner's
    /// threads-per-rank knob) the site loops split across worker
    /// threads, and with one thread they degenerate to the exact serial
    /// loops — bit-identical either way.
    pub fn step(&mut self) -> CommResult<()> {
        // The LB step drives the fault clock: a `FaultPlan` keyed by
        // step sees the simulation's notion of time (no-op without an
        // active plan).
        self.comm.set_fault_step(self.lat.step);
        let threads = rayon::current_num_threads();
        let n = self.locals.len();
        let split = self.partition.frontier_count();

        // (1) Frontier-first collide.
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.collide(0..split, threads);
        self.comm.with_obs(|o| span.end(o, "lb.collide-frontier"));

        // (2) Pack and post all sends; messages are now in flight.
        let span = self.comm.with_obs(|o| o.begin());
        self.post_halo()?;
        self.comm.with_obs(|o| span.end(o, "lb.halo-pack"));

        // (3) Interior compute under the in-flight exchange. The inner
        // spans keep feeding the classic lb.collide / lb.stream phases;
        // the umbrella span measures how much latency-hiding work this
        // rank had available.
        let overlap_span = self.comm.with_obs(|o| o.begin());
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.collide(split..n, threads);
        self.comm.with_obs(|o| span.end(o, "lb.collide"));
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.stream(split..n, &self.halo, threads);
        self.comm.with_obs(|o| span.end(o, "lb.stream"));
        let compute_secs = self
            .comm
            .with_obs(|o| overlap_span.end(o, "lb.overlap.compute"));

        // (4) Residual drain: only time still blocked *after* the
        // interior work counts as halo wait under overlap.
        let residual_secs = self.drain_halo()?;

        // (5) Frontier stream from the complete halo buffer.
        let span = self.comm.with_obs(|o| o.begin());
        self.lat.stream(0..split, &self.halo, threads);
        self.comm.with_obs(|o| span.end(o, "lb.stream"));

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
        // their populations, `q` per site. `batches[me]` stays here.
        let mut batches: Vec<(Vec<u32>, Vec<f64>)> = vec![Default::default(); self.comm.size()];
        for (l, &g) in self.locals.iter().enumerate() {
            let (ids, values) = &mut batches[new_owner[g as usize]];
            ids.push(g);
            values.extend(self.lat.f.iter().map(|lane| lane[l]));
        }
        let (mut ids, mut values) = std::mem::take(&mut batches[me]);
        let moved = self.locals.len() - ids.len();

        // Counts first (collective control), then payloads under the
        // migration tag so the traffic is attributed correctly.
        let counts: Vec<Bytes> = batches
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
        for (g, fs) in ids.iter().zip(values.chunks_exact(q)) {
            let l = g2l[*g as usize];
            assert_ne!(l, u32::MAX, "migrated site {g} not owned under new map");
            fresh.lat.set_site_values(l as usize, fs);
        }
        fresh.lat.step = step;
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
        let snap = self.lat.snapshot(rayon::current_num_threads());
        self.comm.with_obs(|o| span.end(o, "lb.macroscopics"));
        snap
    }

    /// Gather the global snapshot at rank 0 (collective). Non-root ranks
    /// receive `None`. Every rank ships its fields in ascending global
    /// order, so the wire format does not depend on the storage order.
    pub fn gather_snapshot(&self) -> CommResult<Option<FieldSnapshot>> {
        let local = self.local_snapshot();
        // Storage indices by ascending global id (two sorted runs: the
        // stable sort merges them in one pass).
        let mut ascending: Vec<usize> = (0..local.len()).collect();
        ascending.sort_by_key(|&l| self.locals[l]);
        let mut w = WireWriter::with_capacity(local.len() * 40);
        w.put_f64_seq(ascending.iter().map(|&l| local.rho[l]));
        w.put_usize(local.len());
        for &l in &ascending {
            w.put(&local.u[l]);
        }
        w.put_f64_seq(ascending.iter().map(|&l| local.shear[l]));
        let gathered = self.comm.gather(0, w.finish())?;
        let Some(parts) = gathered else {
            return Ok(None);
        };
        let n = self.geo.fluid_count();
        let mut rho = vec![0.0; n];
        let mut u = vec![[0.0; 3]; n];
        let mut shear = vec![0.0; n];
        for (rank, payload) in parts.into_iter().enumerate() {
            let ids = locals_of(&self.owner, rank);
            let (rho_l, u_l, shear_l) = decode_rank_fields(payload, ids.len())?;
            for (k, &g) in ids.iter().enumerate() {
                rho[g as usize] = rho_l[k];
                u[g as usize] = u_l[k];
                shear[g as usize] = shear_l[k];
            }
        }
        Ok(Some(FieldSnapshot {
            step: self.lat.step,
            rho,
            u,
            shear,
        }))
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
    use crate::solver::{ModelKind, Solver};
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::{run_spmd, run_spmd_with_stats, TagClass};

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
    fn distributed_with_threads_per_rank_equals_serial_bitwise() {
        // Hybrid decomposition: ranks × on-rank rayon workers. The
        // chunked kernels keep every (p, t) combination bit-identical
        // to the serial solver.
        use hemelb_parallel::{run_spmd_opts, SpmdOptions};
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        let mut serial = Solver::new(geo.clone(), cfg.clone());
        serial.step_n(20);
        let reference = serial.snapshot();

        for (p, t) in [(1, 4), (2, 2), (3, 3)] {
            let geo2 = geo.clone();
            let cfg2 = cfg.clone();
            let out = run_spmd_opts(
                p,
                SpmdOptions {
                    threads_per_rank: t,
                    ..Default::default()
                },
                move |comm| {
                    let owner = even_owner(geo2.fluid_count(), comm.size());
                    let mut ds = DistSolver::new(geo2.clone(), owner, cfg2.clone(), comm).unwrap();
                    ds.step_n(20).unwrap();
                    ds.gather_snapshot().unwrap()
                },
            );
            let gathered = out.results[0].as_ref().expect("root gathers");
            for s in 0..reference.rho.len() {
                assert_eq!(
                    gathered.rho[s], reference.rho[s],
                    "rho at {s}, p={p}, t={t}"
                );
                assert_eq!(gathered.u[s], reference.u[s], "u at {s}, p={p}, t={t}");
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
    /// outside the receive plan is a typed error that leaves the halo
    /// buffer untouched.
    #[test]
    fn malformed_halo_payloads_are_errors_not_panics() {
        let geo = demo_geo();
        let cfg = SolverConfig::pressure_driven(1.01, 0.99);
        run_spmd(2, move |comm| {
            let owner = even_owner(geo.fluid_count(), comm.size());
            let mut ds = DistSolver::new(geo.clone(), owner, cfg.clone(), comm).unwrap();
            ds.step_n(2).unwrap();
            let (peer, _, count) = ds.recv_plan[0];
            let before = ds.halo.clone();

            let slice_of = |len: usize| {
                let mut w = WireWriter::new();
                w.put_f64_slice(&vec![7.0; len]);
                w.finish()
            };
            let mut truncated = WireWriter::new();
            truncated.put_usize(count);
            for (who, payload) in [
                (peer, slice_of(count + 1)),
                (peer, slice_of(count - 1)),
                (peer, truncated.finish()),
                (peer, Bytes::new()),
                (comm.rank(), slice_of(count)),
            ] {
                let got = ds.unpack_halo(who, payload);
                assert!(matches!(got, Err(CommError::Decode { .. })), "{got:?}");
                assert_eq!(ds.halo, before, "a rejected payload writes nothing");
            }
            ds.unpack_halo(peer, slice_of(count)).unwrap();
            assert!(ds.halo.iter().filter(|&&v| v == 7.0).count() >= count);
        });
    }

    /// A request list as `DistSolver::new` encodes it, with any count.
    fn request_list(count: u64, pairs: &[(u32, u32)]) -> Bytes {
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
        ] {
            let got = decode_rank_fields(payload, 2);
            assert!(
                matches!(got, Err(CommError::Decode { .. })),
                "{what}: {got:?}"
            );
        }
        let (rho, u, shear) = decode_rank_fields(fields(2, 2, 2, 2), 2).unwrap();
        assert_eq!(
            (rho, u, shear),
            (vec![1.0; 2], vec![[2.0; 3]; 2], vec![3.0; 2])
        );
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
                            assert!(((entry & !HALO_FLAG) as usize) < ds.halo.len());
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

    /// On every rank of a 3-rank k-way-like split (a checkerboard, so
    /// the plan has halo links in every direction), for both velocity
    /// sets: every link lies in exactly one of the plan's four lists,
    /// and the plan expands back to the streaming table entry for entry
    /// — local and missing links exactly as an independent
    /// `build_stream_table` over the storage order gives them, halo
    /// links as distinct slots of the halo buffer.
    #[test]
    fn plan_partitions_the_links_and_expands_to_the_table_on_every_rank() {
        let geo = Arc::new(VesselBuilder::aneurysm(12.0, 2.5, 3.5).voxelise(1.0));
        for kind in [ModelKind::D3Q15, ModelKind::D3Q19] {
            let cfg = SolverConfig::velocity_driven(0.03).with_model(kind);
            let geo2 = geo.clone();
            run_spmd(3, move |comm| {
                let owner = checkerboard_owner(&geo2, comm.size());
                let ds = DistSolver::new(geo2.clone(), owner.clone(), cfg.clone(), comm).unwrap();
                crate::layout::tests::assert_plan_partitions_the_links(&ds.lat);
                let me = comm.rank();
                let g2l = global_to_local(&ds.locals, geo2.fluid_count());
                let want =
                    build_stream_table(&geo2, &ds.lat.model, ds.locals.iter().copied(), |sg, _| {
                        if owner[sg as usize] == me {
                            g2l[sg as usize]
                        } else {
                            HALO_FLAG
                        }
                    });
                let got = ds.lat.stream_table();
                let mut slots = vec![false; ds.halo.len()];
                for (lane, want_lane) in got.iter().zip(&want) {
                    for (&e, &w) in lane.iter().zip(want_lane) {
                        if w == HALO_FLAG {
                            assert!(e != BOUNDARY && e & HALO_FLAG != 0, "rank {me}: {e:x}");
                            let slot = (e & !HALO_FLAG) as usize;
                            assert!(
                                !std::mem::replace(&mut slots[slot], true),
                                "slot {slot} twice"
                            );
                        } else {
                            assert_eq!(e, w, "rank {me} {kind:?}");
                        }
                    }
                }
                assert!(slots.iter().all(|&s| s), "rank {me}: every halo slot read");
            });
        }
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

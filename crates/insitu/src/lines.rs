//! Line integrals: streamlines, pathlines and streak-lines, serial and
//! distributed (the distributed per-step tracer, which also draws
//! streak-lines, is [`crate::particles::ParticleEnsemble`]).
//!
//! These are the *hard* row of the paper's Table I: "algorithms which
//! need a lot of neighbourhood searching, such as path-lines, are
//! challenging to implement in a distributed memory environment" — a
//! field line wanders across subdomains, so the integrating rank changes
//! mid-line and the particle must be **handed off**, paying a message
//! per crossing; and because seeds cluster where the user looks, the
//! work distribution is inherently unbalanced.
//!
//! A rank traces its whole hand-off batch on its own thread, eight
//! particles at a time through one lane-batched probe; the only
//! parallelism is across ranks.

use crate::field::{nearest_site, LaneProbe, Lanes, SampledField, LANES};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_parallel::{CommError, CommResult, Communicator, Wire, WireReader, WireWriter};

/// Integration parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// RK4 step length (cells).
    pub h: f64,
    /// Maximum integration steps per line.
    pub max_steps: usize,
    /// Terminate when the local speed falls below this.
    pub min_speed: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            h: 0.5,
            max_steps: 2000,
            min_speed: 1e-8,
        }
    }
}

/// One RK4 step through a steady velocity field from `p`, where the
/// field reads `k1 = v(p)`: the caller samples it, so a tracer that
/// tests the speed at `p` first pays four field evaluations a step, not
/// five. `v` may keep state between calls (a [`crate::field::CornerProbe`]
/// does). `None` when a later stage leaves the fluid.
pub fn rk4_step(
    mut v: impl FnMut(Vec3) -> Option<[f64; 3]>,
    p: Vec3,
    k1: [f64; 3],
    h: f64,
) -> Option<Vec3> {
    let k2 = v(p + Vec3::from(k1) * (h / 2.0))?;
    let k3 = v(p + Vec3::from(k2) * (h / 2.0))?;
    let k4 = v(p + Vec3::from(k3) * h)?;
    let d = Vec3::new(
        (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0,
        (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0,
        (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]) / 6.0,
    );
    Some(p + d * h)
}

/// The length of a velocity.
#[inline(always)]
fn speed(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// Trace one steady streamline from `seed` (forward direction).
pub fn trace_streamline(field: &SampledField<'_>, seed: Vec3, cfg: &TraceConfig) -> Vec<Vec3> {
    let mut probe = field.probe();
    let mut line = vec![seed];
    // A seed whose own cell is not fluid (placed in the vessel wall) is
    // dropped even where interpolation from fluid neighbours would carry
    // it a step: no rank owns it, so the distributed tracer never starts.
    if !field.in_fluid(seed) {
        return line;
    }
    let mut p = seed;
    for _ in 0..cfg.max_steps {
        let Some(vel) = probe.velocity_at(p) else {
            break;
        };
        if speed(vel) < cfg.min_speed {
            break;
        }
        let Some(q) = rk4_step(|q| probe.velocity_at(q), p, vel, cfg.h) else {
            break;
        };
        line.push(q);
        // Stop once the containing cell leaves the fluid (interpolation
        // can still succeed slightly outside; the distributed tracer
        // terminates on cell ownership, so the serial one must too).
        if !field.in_fluid(q) {
            break;
        }
        p = q;
    }
    line
}

/// Unsteady tracers advanced against a sequence of snapshots: call
/// [`UnsteadyTracer::advect`] once per solver step.
///
/// * Pathlines: trajectories of the initial seeds.
/// * Streak-lines: all particles released from each seed point so far,
///   connected in release order.
#[derive(Debug, Clone)]
pub struct UnsteadyTracer {
    /// Seed points (streak sources / pathline origins).
    pub seeds: Vec<Vec3>,
    /// `particles[k] = (seed_index, release_step, position)`; inactive
    /// particles are retained for line assembly but not advanced.
    pub particles: Vec<(u32, u64, Vec3, bool)>,
    /// Recorded pathline vertices per initial seed.
    pub pathlines: Vec<Vec<Vec3>>,
    /// Whether a new particle is released from each seed every step
    /// (streak-line mode).
    pub continuous_release: bool,
    step: u64,
    h: f64,
}

impl UnsteadyTracer {
    /// Seed the tracer. `continuous_release = true` gives streak-lines;
    /// false gives pure pathlines.
    pub fn new(seeds: Vec<Vec3>, h: f64, continuous_release: bool) -> Self {
        let particles = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, 0, s, true))
            .collect();
        let pathlines = seeds.iter().map(|&s| vec![s]).collect();
        UnsteadyTracer {
            seeds,
            particles,
            pathlines,
            continuous_release,
            step: 0,
            h,
        }
    }

    /// Advance all live particles one step through the *current* field
    /// and (in streak mode) release a new particle per seed.
    pub fn advect(&mut self, field: &SampledField<'_>) {
        self.step += 1;
        for part in self.particles.iter_mut() {
            if !part.3 {
                continue;
            }
            let v = |p: Vec3| field.velocity_at(p);
            match v(part.2).and_then(|k1| rk4_step(&v, part.2, k1, self.h)) {
                Some(q) => {
                    part.2 = q;
                    if part.1 == 0 {
                        // An original seed: extend its pathline.
                        self.pathlines[part.0 as usize].push(q);
                    }
                }
                None => part.3 = false,
            }
        }
        if self.continuous_release {
            for (i, &s) in self.seeds.iter().enumerate() {
                self.particles.push((i as u32, self.step, s, true));
            }
        }
    }

    /// The streak-line of seed `i`: particle positions ordered outward
    /// from the seed (most recently released first).
    pub fn streakline(&self, seed: u32) -> Vec<Vec3> {
        let mut pts: Vec<(u64, Vec3)> = self
            .particles
            .iter()
            .filter(|p| p.0 == seed)
            .map(|p| (p.1, p.2))
            .collect();
        pts.sort_by_key(|p| std::cmp::Reverse(p.0));
        pts.into_iter().map(|p| p.1).collect()
    }

    /// Live particle count.
    pub fn active(&self) -> usize {
        self.particles.iter().filter(|p| p.3).count()
    }
}

// ---------------------------------------------------------------------------
// Distributed tracing with hand-off
// ---------------------------------------------------------------------------

/// A particle in flight between ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParticle {
    /// Line id.
    pub id: u32,
    /// Integration steps completed.
    pub steps: u32,
    /// Position.
    pub pos: [f64; 3],
}

impl Wire for WireParticle {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.id);
        w.put_u32(self.steps);
        w.put(&self.pos);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        Ok(WireParticle {
            id: r.get_u32()?,
            steps: r.get_u32()?,
            pos: r.get()?,
        })
    }
}

/// Statistics of one distributed trace (per rank).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Integration steps this rank computed (the work metric whose
    /// max/mean is Table I's "load balance" for line integrals).
    pub steps_computed: u64,
    /// Particles handed off to another rank.
    pub handoffs: u64,
    /// Termination-protocol rounds (synchronisation points).
    pub rounds: u64,
}

/// Which rank owns the point `p` (owner of the nearest fluid site of the
/// containing cell), if any.
pub fn owner_of_point(geo: &SparseGeometry, owner: &[usize], p: Vec3) -> Option<usize> {
    nearest_site(geo, p).map(|s| owner[s as usize])
}

/// One recorded line segment: `(line id, step-of-first-vertex, vertices)`.
pub type LineSegment = (u32, u32, Vec<Vec3>);

// ---------------------------------------------------------------------------
// The lockstep RK4 kernel
// ---------------------------------------------------------------------------

/// How far one call of [`advance_lockstep`] takes each particle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// RK4 step length.
    pub h: f64,
    /// Stop below this speed at a vertex.
    pub min_speed: f64,
    /// Stop once a particle's `steps` reaches this.
    pub max_steps: usize,
    /// Steps a particle may take in this call.
    pub budget: usize,
}

/// Why a particle left the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum End {
    /// Its `max_steps` or the call's budget is spent; still owned here.
    Budget,
    /// No field at a stage, too slow at a vertex, or the vertex left the
    /// fluid.
    Stopped,
    /// The vertex lies in another rank's subdomain.
    HandOff(usize),
}

/// One lane: a particle and the vertices of its run so far, in a buffer
/// that keeps its capacity from particle to particle. The RK4 stages
/// read its position from the lane's column of the kernel's `pos`.
struct Lane {
    /// Batch index of the particle, `None` while the lane is idle.
    slot: Option<usize>,
    part: WireParticle,
    taken: usize,
    verts: Vec<Vec3>,
}

/// Advance every particle of `batch` through `field` until it ends, in
/// rank `me`'s subdomain of `owner` over `geo`'s sites, and return
/// `keep(particle, vertices, end)` of each in batch order. The vertices
/// start at the particle's position on entry.
///
/// Each of [`LANES`] lanes holds one particle; every RK4 stage runs as
/// loops over the lanes through one [`LaneProbe`], and a lane is refilled
/// from the batch as soon as its particle ends. A particle's arithmetic is
/// that of [`rk4_step`] after the stop tests of [`trace_streamline`] — the
/// same operations in the same order, with no contraction into FMA — so
/// its vertices are the serial tracer's, bit for bit, whatever lane it
/// runs in and whoever shares the kernel with it.
pub(crate) fn advance_lockstep<T>(
    field: &SampledField<'_>,
    geo: &SparseGeometry,
    owner: &[usize],
    me: usize,
    batch: &[WireParticle],
    run: &Run,
    mut keep: impl FnMut(WireParticle, &[Vec3], End) -> T,
) -> Vec<T> {
    let half = run.h / 2.0;
    let mut ended: Vec<Option<T>> = batch.iter().map(|_| None).collect();
    let mut queued = batch.iter().copied().enumerate();
    let mut probe = LaneProbe::new(*field);
    let mut pos: [Lanes; 3] = [[0.0; LANES]; 3];
    let mut lanes: [Lane; LANES] = std::array::from_fn(|_| Lane {
        slot: None,
        part: WireParticle {
            id: 0,
            steps: 0,
            pos: [0.0; 3],
        },
        taken: 0,
        verts: Vec::new(),
    });
    let mut busy = [false; LANES];
    let mut retire = |lane: &mut Lane, busy: &mut bool, end: End| {
        *busy = false;
        if let Some(slot) = lane.slot.take() {
            ended[slot] = Some(keep(lane.part, &lane.verts, end));
        }
    };
    loop {
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.slot.is_none() {
                if let Some((slot, part)) = queued.next() {
                    lane.slot = Some(slot);
                    lane.part = part;
                    lane.taken = 0;
                    lane.verts.clear();
                    lane.verts.push(Vec3::from(part.pos));
                    for (pos, x) in pos.iter_mut().zip(part.pos) {
                        pos[l] = x;
                    }
                }
            }
            busy[l] = lane.slot.is_some();
        }
        if !busy.contains(&true) {
            break;
        }

        // Stage 1: the stop tests at the vertex, and k1.
        for (l, lane) in lanes.iter_mut().enumerate() {
            if busy[l] && (lane.part.steps as usize >= run.max_steps || lane.taken >= run.budget) {
                retire(lane, &mut busy[l], End::Budget);
            }
        }
        let (k1, found) = probe.velocity_at(&pos, &busy);
        let mut slow = [false; LANES];
        for l in 0..LANES {
            slow[l] = speed([k1[0][l], k1[1][l], k1[2][l]]) < run.min_speed;
        }
        for l in 0..LANES {
            if busy[l] && (!found[l] || slow[l]) {
                retire(&mut lanes[l], &mut busy[l], End::Stopped);
            }
        }

        // Stages 2–4: each lane's next position from its previous stage.
        let mut k = [k1; 4];
        for (stage, scale) in [(1, half), (2, half), (3, run.h)] {
            let mut q = pos;
            for (q, k) in q.iter_mut().zip(&k[stage - 1]) {
                for l in 0..LANES {
                    q[l] += k[l] * scale;
                }
            }
            let found;
            (k[stage], found) = probe.velocity_at(&q, &busy);
            for l in 0..LANES {
                if busy[l] && !found[l] {
                    retire(&mut lanes[l], &mut busy[l], End::Stopped);
                }
            }
        }

        // The combination, the vertex and the owner test.
        let [k1, k2, k3, k4] = k;
        for a in 0..3 {
            for l in 0..LANES {
                let d = (k1[a][l] + 2.0 * k2[a][l] + 2.0 * k3[a][l] + k4[a][l]) / 6.0;
                pos[a][l] += d * run.h;
            }
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !busy[l] {
                continue;
            }
            let next = Vec3::new(pos[0][l], pos[1][l], pos[2][l]);
            lane.part.pos = next.to_array();
            lane.part.steps += 1;
            lane.taken += 1;
            lane.verts.push(next);
            let spent = lane.part.steps as usize >= run.max_steps || lane.taken >= run.budget;
            match owner_of_point(geo, owner, next) {
                // Spent here: retire now, so that the lane refills at
                // once rather than idling through the next iteration.
                Some(o) if o == me && spent => retire(lane, &mut busy[l], End::Budget),
                Some(o) if o == me => {}
                Some(o) => retire(lane, &mut busy[l], End::HandOff(o)),
                None => retire(lane, &mut busy[l], End::Stopped),
            }
        }
    }
    ended
        .into_iter()
        .map(|e| e.expect("every particle ends"))
        .collect()
}

/// Distributed steady streamline tracing with particle hand-off.
/// Collective; every rank passes the full seed list. Returns this rank's
/// recorded segments `(line id, step-of-first-vertex, vertices)` and its
/// stats. Segments from all ranks stitch into complete lines (see
/// [`stitch_segments`]).
pub fn trace_distributed(
    comm: &Communicator,
    geo: &SparseGeometry,
    field: &SampledField<'_>,
    owner: &[usize],
    seeds: &[Vec3],
    cfg: &TraceConfig,
) -> CommResult<(Vec<LineSegment>, TraceStats)> {
    let me = comm.rank();
    let mut stats = TraceStats::default();
    let mut segments: Vec<LineSegment> = Vec::new();

    // Seeds I own (seeds outside any fluid cell are dropped, like
    // seeds placed in the vessel wall in practice).
    let mut queue: Vec<WireParticle> = seeds
        .iter()
        .enumerate()
        .filter(|(_, &s)| owner_of_point(geo, owner, s) == Some(me))
        .map(|(i, &s)| WireParticle {
            id: i as u32,
            steps: 0,
            pos: s.to_array(),
        })
        .collect();

    let run = Run {
        h: cfg.h,
        min_speed: cfg.min_speed,
        max_steps: cfg.max_steps,
        budget: usize::MAX,
    };
    loop {
        // Advance every queued particle until it finishes or leaves my
        // subdomain, through the lockstep kernel. It returns the batch
        // in batch order, so the merge below keeps segments and outgoing
        // queues in batch order whatever the lanes.
        let mut outgoing: Vec<Vec<WireParticle>> = vec![Vec::new(); comm.size()];
        let batch: Vec<WireParticle> = std::mem::take(&mut queue);
        let ended = advance_lockstep(field, geo, owner, me, &batch, &run, |part, verts, end| {
            (part, verts.to_vec(), end)
        });
        for (start, (part, verts, end)) in batch.iter().zip(ended) {
            stats.steps_computed += (part.steps - start.steps) as u64;
            if let End::HandOff(o) = end {
                outgoing[o].push(part);
                stats.handoffs += 1;
            }
            if verts.len() > 1 {
                segments.push((part.id, start.steps, verts));
            }
        }

        // Exchange in-flight particles; stop when nothing moves anywhere.
        stats.rounds += 1;
        let in_flight: u64 = outgoing.iter().map(|b| b.len() as u64).sum();
        exchange_particles(comm, &outgoing, &mut queue)?;
        let moving = comm.all_reduce_u64(in_flight, |a, b| a + b)?;
        if moving == 0 {
            break;
        }
    }
    Ok((segments, stats))
}

/// Bytes of one [`WireParticle`] on the wire.
const PARTICLE_BYTES: usize = 32;

/// One peer's hand-off batch on the wire: a count, then the particles.
fn encode_batch(batch: &[WireParticle]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8 + batch.len() * PARTICLE_BYTES);
    w.put_usize(batch.len());
    for p in batch {
        p.encode(&mut w);
    }
    w.finish()
}

/// Decode one peer's hand-off batch. A count the bytes cannot hold, a
/// count other than the `expected` one the peer announced in the
/// round's all-to-all (a short batch would silently drop lines), or
/// bytes past the last particle is a `Decode` error.
pub(crate) fn decode_batch(payload: Vec<u8>, expected: u64) -> CommResult<Vec<WireParticle>> {
    let mut r = WireReader::new(payload);
    let n = r.get_checked_len(PARTICLE_BYTES, "hand-off batch")?;
    if n as u64 != expected {
        return Err(CommError::Decode {
            reason: format!("hand-off batch of {n} particles where {expected} were announced"),
        });
    }
    let batch = (0..n)
        .map(|_| WireParticle::decode(&mut r))
        .collect::<CommResult<Vec<_>>>()?;
    r.expect_end()?;
    Ok(batch)
}

/// One hand-off round: counts travel in a small all-to-all (the round's
/// control/synchronisation), particle payloads in point-to-point
/// messages under a visualisation tag (so Table I's "communication
/// cost" attribution sees them).
pub(crate) fn exchange_particles(
    comm: &Communicator,
    outgoing: &[Vec<WireParticle>],
    queue: &mut Vec<WireParticle>,
) -> CommResult<()> {
    const T_HANDOFF: hemelb_parallel::Tag = hemelb_parallel::Tag::vis(30);
    let counts: Vec<Vec<u8>> = outgoing
        .iter()
        .map(|b| (b.len() as u64).to_bytes())
        .collect();
    let incoming_counts = comm.all_to_all(counts)?;
    for (dst, batch) in outgoing.iter().enumerate() {
        if !batch.is_empty() && dst != comm.rank() {
            comm.send(dst, T_HANDOFF, encode_batch(batch))?;
        }
    }
    // Locally routed particles (possible when a seed rounds to a cell
    // owned by this rank again) skip the network.
    if !outgoing[comm.rank()].is_empty() {
        queue.extend(outgoing[comm.rank()].iter().copied());
    }
    for (src, count_payload) in incoming_counts.into_iter().enumerate() {
        if src == comm.rank() {
            continue;
        }
        let n = u64::from_bytes(count_payload)?;
        if n == 0 {
            continue;
        }
        queue.extend(decode_batch(comm.recv(src, T_HANDOFF)?, n)?);
    }
    Ok(())
}

/// Stitch gathered segments into complete polylines indexed by line id.
pub fn stitch_segments(mut segments: Vec<(u32, u32, Vec<Vec3>)>, n_lines: usize) -> Vec<Vec<Vec3>> {
    segments.sort_by_key(|(id, start, _)| (*id, *start));
    let mut lines = vec![Vec::new(); n_lines];
    for (id, _, verts) in segments {
        let line = &mut lines[id as usize];
        let skip = usize::from(!line.is_empty()); // duplicate joint vertex
        line.extend(verts.into_iter().skip(skip));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::ParticleEnsemble;
    use hemelb_core::{FieldSnapshot, Solver, SolverConfig};
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;
    use std::sync::Arc;

    fn uniform_flow() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::straight_tube(32.0, 5.0).voxelise(1.0);
        let n = geo.fluid_count();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.05, 0.0, 0.0]; n],
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    fn axis_seed(geo: &SparseGeometry) -> Vec3 {
        Vec3::new(
            2.0,
            (geo.shape()[1] as f64 - 1.0) / 2.0,
            (geo.shape()[2] as f64 - 1.0) / 2.0,
        )
    }

    #[test]
    fn rk4_is_exact_for_constant_fields() {
        let v = |_p: Vec3| Some([0.1, 0.0, 0.0]);
        let q = rk4_step(&v, Vec3::ZERO, [0.1, 0.0, 0.0], 1.0).unwrap();
        assert!((q.x - 0.1).abs() < 1e-14);
        assert_eq!(q.y, 0.0);
    }

    #[test]
    fn streamline_follows_uniform_flow_downstream() {
        let (geo, snap) = uniform_flow();
        let field = SampledField::new(&geo, &snap);
        let line = trace_streamline(&field, axis_seed(&geo), &TraceConfig::default());
        assert!(line.len() > 10, "line should develop: {} pts", line.len());
        // Monotone in x, constant in y/z.
        for w in line.windows(2) {
            assert!(w[1].x > w[0].x);
            assert!((w[1].y - w[0].y).abs() < 1e-9);
        }
        // Line exits near the outlet end.
        assert!(line.last().unwrap().x > 25.0);
    }

    #[test]
    fn streamline_stops_in_still_fluid() {
        let (geo, mut snap) = uniform_flow();
        for u in snap.u.iter_mut() {
            *u = [0.0; 3];
        }
        let field = SampledField::new(&geo, &snap);
        let line = trace_streamline(&field, axis_seed(&geo), &TraceConfig::default());
        assert_eq!(line.len(), 1, "no motion in still fluid");
    }

    #[test]
    fn pathlines_grow_one_vertex_per_step() {
        let (geo, snap) = uniform_flow();
        let field = SampledField::new(&geo, &snap);
        let mut tracer = UnsteadyTracer::new(vec![axis_seed(&geo)], 0.5, false);
        for _ in 0..10 {
            tracer.advect(&field);
        }
        assert_eq!(tracer.pathlines[0].len(), 11);
        assert_eq!(tracer.particles.len(), 1, "no release in pathline mode");
    }

    #[test]
    fn streaklines_release_and_order_particles() {
        let (geo, snap) = uniform_flow();
        let field = SampledField::new(&geo, &snap);
        let mut tracer = UnsteadyTracer::new(vec![axis_seed(&geo)], 0.5, true);
        for _ in 0..8 {
            tracer.advect(&field);
        }
        let streak = tracer.streakline(0);
        assert_eq!(streak.len(), 9, "seed + 8 releases");
        // The streak is ordered outward from the seed: newest particle
        // (least advected) first, oldest (farthest downstream) last.
        for w in streak.windows(2) {
            assert!(w[1].x >= w[0].x - 1e-12);
        }
    }

    /// A developed pressure-driven flow through the aneurysm: curved
    /// lines, a recirculating sac, speeds that differ at every site.
    fn developed_aneurysm() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(1.0);
        let cfg = SolverConfig::pressure_driven(1.01, 0.99).with_tau(0.8);
        let mut solver = Solver::new(Arc::new(geo.clone()), cfg);
        solver.step_n(200);
        (geo, solver.snapshot())
    }

    /// The mean of the sites in the inlet plane `x = 2`.
    fn inlet_axis(geo: &SparseGeometry) -> Vec3 {
        let inlet: Vec<Vec3> = (0..geo.fluid_count() as u32)
            .map(|s| geo.position_v(s))
            .filter(|p| p.x == 2.0)
            .collect();
        inlet.iter().fold(Vec3::ZERO, |a, &p| a + p) * (1.0 / inlet.len() as f64)
    }

    #[test]
    fn distributed_trace_matches_serial_bitwise() {
        let (geo, snap) = developed_aneurysm();
        // A rake across the inlet that overshoots the lumen on both
        // sides: seeds in the fluid, seeds whose cell is wall but whose
        // neighbours are fluid (interpolation succeeds there), seeds in
        // solid with nothing around them.
        let axis = inlet_axis(&geo);
        let seeds: Vec<Vec3> = (0..40)
            .map(|i| axis + Vec3::new(0.3, (i as f64 - 19.5) * 0.32, 0.2))
            .collect();
        let field = SampledField::new(&geo, &snap);
        let in_wall = |s: &&Vec3| !field.in_fluid(**s) && field.velocity_at(**s).is_some();
        assert!(seeds.iter().filter(in_wall).count() >= 2);
        // Speeds are a few hundredths of a cell per unit time: a long
        // step, so the lines run the vessel's length and change rank.
        let cfg = TraceConfig {
            h: 3.0,
            max_steps: 1000,
            ..TraceConfig::default()
        };

        let serial: Vec<Vec<Vec3>> = seeds
            .iter()
            .map(|&s| trace_streamline(&field, s, &cfg))
            .collect();
        let vertices: usize = serial.iter().map(Vec::len).sum();
        assert!(vertices >= 5000, "only {vertices} vertices traced");
        for (seed, line) in seeds.iter().zip(&serial) {
            assert_eq!(line[0], *seed);
            assert_eq!(line.len() > 1, field.in_fluid(*seed), "seed {seed:?}");
        }

        // Lines cross slab boundaries at 2 and 4 ranks.
        let handoffs = distributed_equals_serial(&geo, &snap, &seeds, &cfg, &[1, 2, 4]);
        assert!(
            handoffs[0] == 0 && handoffs[1] > 0 && handoffs[2] > 0,
            "{handoffs:?}"
        );
    }

    /// Trace `seeds` over slabs along x at each rank count of `ranks`,
    /// assert every stitched line equals [`trace_streamline`]'s by
    /// `to_bits`, and return the hand-offs at each rank count.
    fn distributed_equals_serial(
        geo: &SparseGeometry,
        snap: &FieldSnapshot,
        seeds: &[Vec3],
        cfg: &TraceConfig,
        ranks: &[usize],
    ) -> Vec<u64> {
        let field = SampledField::new(geo, snap);
        let serial: Vec<Vec<Vec3>> = seeds
            .iter()
            .map(|&s| trace_streamline(&field, s, cfg))
            .collect();
        let bits = |line: &[Vec3]| -> Vec<[u64; 3]> {
            line.iter()
                .map(|v| v.to_array().map(f64::to_bits))
                .collect()
        };
        let mut handoffs = Vec::new();
        for &p in ranks {
            let (geo2, snap2, seeds2, cfg) = (geo.clone(), snap.clone(), seeds.to_vec(), *cfg);
            let results = run_spmd(p, move |comm| {
                let owner = slabs(&geo2, comm.size());
                let field = SampledField::new(&geo2, &snap2);
                trace_distributed(comm, &geo2, &field, &owner, &seeds2, &cfg).unwrap()
            });
            let mut segments = Vec::new();
            handoffs.push(0);
            for (segs, stats) in results {
                segments.extend(segs);
                *handoffs.last_mut().unwrap() += stats.handoffs;
            }
            let lines = stitch_segments(segments, seeds.len());
            for (i, line) in lines.iter().enumerate() {
                // A line that never left its seed records no segment.
                let want: &[Vec3] = if serial[i].len() > 1 { &serial[i] } else { &[] };
                assert_eq!(
                    bits(line),
                    bits(want),
                    "p={p}, {} seeds: line {i}",
                    seeds.len()
                );
            }
        }
        handoffs
    }

    /// Slabs along x, one per rank.
    fn slabs(geo: &SparseGeometry, ranks: usize) -> Vec<usize> {
        (0..geo.fluid_count() as u32)
            .map(|s| (geo.position(s)[0] as usize * ranks / geo.shape()[0]).min(ranks - 1))
            .collect()
    }

    /// Step a [`ParticleEnsemble`] seeded at `seeds` `steps` times over
    /// slabs along x at each rank count of `ranks`, and assert that every
    /// particle, live or finished, sits where [`UnsteadyTracer`]'s
    /// pathline of its seed is after as many steps, by `to_bits`.
    fn ensemble_equals_serial(
        geo: &SparseGeometry,
        snap: &FieldSnapshot,
        seeds: &[Vec3],
        h: f64,
        steps: usize,
        ranks: &[usize],
    ) {
        let field = SampledField::new(geo, snap);
        let mut serial = UnsteadyTracer::new(seeds.to_vec(), h, false);
        for _ in 0..steps {
            serial.advect(&field);
        }
        for &p in ranks {
            let (geo2, snap2, seeds2) = (geo.clone(), snap.clone(), seeds.to_vec());
            let results = run_spmd(p, move |comm| {
                let owner = slabs(&geo2, comm.size());
                let field = SampledField::new(&geo2, &snap2);
                let mut ens = ParticleEnsemble::new(comm, &geo2, &owner, &seeds2, h);
                for _ in 0..steps {
                    ens.step(&geo2, &field).unwrap();
                }
                (ens.local, ens.finished)
            });
            let mut seen = 0;
            for (live, finished) in results {
                seen += live.len() + finished.len();
                for (part, is_live) in live
                    .iter()
                    .map(|w| (w, true))
                    .chain(finished.iter().map(|w| (w, false)))
                {
                    let path = &serial.pathlines[part.id as usize];
                    assert!(!is_live || part.steps as usize == steps, "p={p}: {part:?}");
                    assert_eq!(
                        part.pos.map(f64::to_bits),
                        path[part.steps as usize].to_array().map(f64::to_bits),
                        "p={p}, {} seeds: particle {}",
                        seeds.len(),
                        part.id
                    );
                }
            }
            assert_eq!(seen, seeds.len(), "p={p}: a particle went missing");
        }
    }

    /// Every fluid site of the lattice planes `x ∈ xs`, jittered off its
    /// lattice point by less than 0.4 of a cell on each axis, shuffled:
    /// seeds in the lumen, whose cells have eight fluid corners, mixed
    /// with seeds at the wall, whose cells do not.
    fn plane_seeds(geo: &SparseGeometry, xs: &[u32]) -> Vec<Vec3> {
        let mut h = 0x9E3779B97F4A7C15u64;
        let mut jitter = || {
            h = h.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(23) ^ 0x5851F42D4C957F2D;
            ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.8
        };
        let mut seeds: Vec<(u64, Vec3)> = (0..geo.fluid_count() as u32)
            .filter(|&s| xs.contains(&geo.position(s)[0]))
            .map(|s| {
                let key = u64::from(s)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .rotate_left(29);
                (
                    key,
                    geo.position_v(s) + Vec3::new(jitter(), jitter(), jitter()),
                )
            })
            .collect();
        seeds.sort_by_key(|&(key, _)| key);
        seeds.into_iter().map(|(_, p)| p).collect()
    }

    /// Whether a corner of the cell containing `p` is not fluid.
    fn at_wall(geo: &SparseGeometry, p: Vec3) -> bool {
        let lo = [p.x, p.y, p.z].map(|x| x.floor() as i64);
        (0..8).any(|c| {
            let at = |axis: usize, bit: usize| lo[axis] + ((c >> bit) & 1);
            geo.site_at(at(0, 2), at(1, 1), at(2, 0)).is_none()
        })
    }

    /// Lanes at a wall take the partial sum while the lanes beside them
    /// take the full one. Seeds at every fluid site of two lattice planes
    /// of the developed aneurysm, jittered, go through the lockstep
    /// kernel in batches of 0, 1, `LANES` ± 1, `2 LANES + 1` and 65 at 1,
    /// 2 and 3 ranks: every line equals [`trace_streamline`]'s, and every
    /// ensemble particle [`UnsteadyTracer`]'s, by `to_bits`.
    #[test]
    fn wall_cells_inside_a_vector_match_serial() {
        let (geo, snap) = developed_aneurysm();
        // Lines from x = 8 and 13 cross the slab boundaries at 2 and 3 ranks.
        let seeds = plane_seeds(&geo, &[8, 13]);
        let walls = seeds[..LANES].iter().filter(|&&s| at_wall(&geo, s)).count();
        assert!(
            0 < walls && walls < LANES,
            "{walls} of {LANES} seeds at a wall"
        );
        let cfg = TraceConfig {
            h: 3.0,
            max_steps: 400,
            ..TraceConfig::default()
        };
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 65] {
            let handoffs = distributed_equals_serial(&geo, &snap, &seeds[..n], &cfg, &[1, 2, 3]);
            if n > LANES {
                assert!(
                    handoffs[1] > 0 && handoffs[2] > 0,
                    "{n} seeds: {handoffs:?}"
                );
            }
            ensemble_equals_serial(&geo, &snap, &seeds[..n], cfg.h, 40, &[1, 2, 3]);
        }
    }

    /// [`wall_cells_inside_a_vector_match_serial`] at the benchmark's
    /// scale: every fluid site of the Small aneurysm's x = 4 and x = 30
    /// planes (800 seeds) on the flow developed 300 steps, traced as
    /// `insitu_lines` traces. `cargo test --release -p hemelb-insitu
    /// --lib wall_cells -- --ignored`.
    #[test]
    #[ignore = "release-mode soak"]
    fn wall_cells_inside_a_vector_match_serial_at_small() {
        let geo = VesselBuilder::aneurysm(28.0, 4.0, 6.0).voxelise(0.5);
        let cfg = SolverConfig::pressure_driven(1.01, 0.99).with_tau(0.8);
        let mut solver = Solver::new(Arc::new(geo.clone()), cfg);
        solver.step_n(300);
        let snap = solver.snapshot();
        let seeds = plane_seeds(&geo, &[4, 30]);
        assert!(seeds.iter().filter(|&&s| at_wall(&geo, s)).count() > 100);
        let cfg = TraceConfig {
            h: 1.0,
            max_steps: 1500,
            min_speed: 1e-8,
        };
        let handoffs = distributed_equals_serial(&geo, &snap, &seeds, &cfg, &[1, 2, 3]);
        assert!(handoffs[1] > 0 && handoffs[2] > 0, "{handoffs:?}");
        ensemble_equals_serial(&geo, &snap, &seeds, 0.5, 50, &[1, 2, 3]);
    }

    /// The lockstep kernel refills a lane as soon as its line ends, so
    /// lines that end at different steps, for every reason a line ends,
    /// share lanes in every pattern: batches of 0, 1, `LANES` ± 1,
    /// `2 LANES + 1` and 65 seeds, at 1, 2 and 3 ranks. Every line equals the serial tracer's by `to_bits`.
    #[test]
    fn lockstep_trace_matches_serial_for_every_batch_shape() {
        let (geo, mut snap) = developed_aneurysm();
        let axis = inlet_axis(&geo);
        // Still fluid in one half of the lumen downstream: lines that
        // reach it slow to a stop, the others run on to the outlet.
        let still_x = 0.7 * geo.shape()[0] as f64;
        for (s, u) in snap.u.iter_mut().enumerate() {
            let [x, y, _] = geo.position(s as u32);
            if x as f64 >= still_x && (y as f64) < axis.y {
                *u = [0.0; 3];
            }
        }
        let cfg = TraceConfig {
            h: 3.0,
            max_steps: 400,
            ..TraceConfig::default()
        };
        // Rakes across the lumen at several distances from the still
        // fluid, overshooting it into the wall and beyond, and a few
        // seeds inside the still fluid.
        let pool: Vec<Vec3> = (0..72)
            .map(|i| {
                let x = 2.3 + (i % 6) as f64 * 0.2 * still_x;
                Vec3::new(x, axis.y + ((i * 7) % 23) as f64 * 0.4 - 4.4, axis.z + 0.2)
            })
            .collect();

        // Classify each line's end; deal the pool out so that any prefix
        // mixes ends.
        let field = SampledField::new(&geo, &snap);
        let end = |seed: Vec3| {
            let line = trace_streamline(&field, seed, &cfg);
            let last = *line.last().unwrap();
            if !field.in_fluid(seed) {
                "seed in the wall"
            } else if line.len() == cfg.max_steps + 1 {
                "max_steps"
            } else if !field.in_fluid(last) {
                "left the fluid"
            } else if field
                .velocity_at(last)
                .is_some_and(|v| speed(v) < cfg.min_speed)
            {
                "min_speed"
            } else {
                "no field at a stage"
            }
        };
        let mut by_end: Vec<(&str, Vec<Vec3>)> = Vec::new();
        for &seed in &pool {
            let e = end(seed);
            match by_end.iter_mut().find(|(k, _)| *k == e) {
                Some((_, seeds)) => seeds.push(seed),
                None => by_end.push((e, vec![seed])),
            }
        }
        let ends: Vec<&str> = by_end.iter().map(|(e, _)| *e).collect();
        for want in [
            "seed in the wall",
            "max_steps",
            "left the fluid",
            "min_speed",
        ] {
            assert!(ends.contains(&want), "no line ends by {want}: {ends:?}");
        }
        let mut dealt = Vec::new();
        for round in 0.. {
            let before = dealt.len();
            dealt.extend(by_end.iter().filter_map(|(_, s)| s.get(round)));
            if dealt.len() == before {
                break;
            }
        }
        let lens: Vec<usize> = dealt
            .iter()
            .map(|&s| trace_streamline(&field, s, &cfg).len())
            .collect();
        assert!(lens[..4].windows(2).all(|w| w[0] != w[1]), "{lens:?}");

        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 65] {
            let handoffs = distributed_equals_serial(&geo, &snap, &dealt[..n], &cfg, &[1, 2, 3]);
            if n > LANES {
                assert!(
                    handoffs[1] > 0 && handoffs[2] > 0,
                    "{n} seeds: {handoffs:?}"
                );
            }
        }
    }

    /// Every strict prefix and every single-bit flip of a valid
    /// 3-particle batch, and every batch whose count disagrees with the
    /// announced one or that carries trailing bytes, decodes to an error
    /// or to exactly the batch its bytes spell (re-encoding gives them
    /// back): a flip in the count is an error, one in a particle changes
    /// that particle's field and nothing else.
    #[test]
    fn hand_off_batches_survive_every_truncation_and_bit_flip() {
        let batch = [
            WireParticle {
                id: 3,
                steps: 40,
                pos: [1.5, -2.25, 7.0],
            },
            WireParticle {
                id: 9,
                steps: 0,
                pos: [0.0, 0.125, -0.0],
            },
            WireParticle {
                id: u32::MAX,
                steps: 7,
                pos: [1e300, f64::MIN_POSITIVE, 3.0],
            },
        ];
        let valid = encode_batch(&batch).to_vec();
        assert_eq!(valid.len(), 8 + 3 * PARTICLE_BYTES);
        assert_eq!(decode_batch(valid.clone(), 3).unwrap(), batch);
        let is_decode =
            |got: CommResult<Vec<WireParticle>>| matches!(got, Err(CommError::Decode { .. }));
        for announced in [0, 2, 4, u64::MAX] {
            assert!(is_decode(decode_batch(valid.clone(), announced)));
        }
        let mut padded = valid.clone();
        padded.push(0);
        assert!(is_decode(decode_batch(padded, 3)), "trailing byte");
        for len in 0..valid.len() {
            let got = decode_batch(valid[..len].to_vec(), 3);
            assert!(is_decode(got), "prefix of {len} bytes");
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_batch(flipped.clone(), 3) {
                Ok(got) => {
                    assert!(bit >= 64, "a flipped count decoded (bit {bit})");
                    assert_eq!(encode_batch(&got).to_vec(), flipped, "bit {bit}");
                }
                Err(e) => {
                    assert!(matches!(e, CommError::Decode { .. }));
                    assert!(bit < 64, "a flipped particle field was refused (bit {bit})");
                }
            }
        }
    }

    #[test]
    fn wire_particle_round_trip() {
        let p = WireParticle {
            id: 7,
            steps: 123,
            pos: [1.5, -2.25, 0.0],
        };
        assert_eq!(WireParticle::from_bytes(p.to_bytes()).unwrap(), p);
    }
}

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

use crate::field::SampledField;
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_parallel::{CommResult, Communicator, Wire, WireReader, WireWriter};
use rayon::prelude::*;

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
/// five. `None` when a later stage leaves the fluid.
pub fn rk4_step<F>(v: &F, p: Vec3, k1: [f64; 3], h: f64) -> Option<Vec3>
where
    F: Fn(Vec3) -> Option<[f64; 3]>,
{
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

/// Trace one steady streamline from `seed` (forward direction).
pub fn trace_streamline(field: &SampledField<'_>, seed: Vec3, cfg: &TraceConfig) -> Vec<Vec3> {
    let v = |p: Vec3| field.velocity_at(p);
    let mut line = vec![seed];
    // A seed whose own cell is not fluid (placed in the vessel wall) is
    // dropped even where interpolation from fluid neighbours would carry
    // it a step: no rank owns it, so the distributed tracer never starts.
    if !field.in_fluid(seed) {
        return line;
    }
    let mut p = seed;
    for _ in 0..cfg.max_steps {
        let Some(vel) = v(p) else {
            break;
        };
        let speed = (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]).sqrt();
        if speed < cfg.min_speed {
            break;
        }
        let Some(q) = rk4_step(&v, p, vel, cfg.h) else {
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
    geo.site_at(p.x.round() as i64, p.y.round() as i64, p.z.round() as i64)
        .map(|s| owner[s as usize])
}

/// One recorded line segment: `(line id, step-of-first-vertex, vertices)`.
pub type LineSegment = (u32, u32, Vec<Vec3>);

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

    loop {
        // Advance every queued particle until it finishes or leaves my
        // subdomain. Particles are independent, so the batch runs in
        // parallel; the collect preserves batch order, and the serial
        // merge below keeps segments and outgoing queues in exactly the
        // order the serial loop produced.
        let mut outgoing: Vec<Vec<WireParticle>> = vec![Vec::new(); comm.size()];
        let batch: Vec<WireParticle> = std::mem::take(&mut queue);
        let advanced: Vec<(WireParticle, u32, Vec<Vec3>, Option<usize>)> = batch
            .into_par_iter()
            .map(|mut part| {
                let mut verts = vec![Vec3::from(part.pos)];
                let start_step = part.steps;
                let mut dest = None;
                loop {
                    if part.steps as usize >= cfg.max_steps {
                        break;
                    }
                    let p = Vec3::from(part.pos);
                    let v = |q: Vec3| field.velocity_at(q);
                    let Some(vel) = v(p) else {
                        break;
                    };
                    let speed = (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]).sqrt();
                    if speed < cfg.min_speed {
                        break;
                    }
                    let Some(next) = rk4_step(&v, p, vel, cfg.h) else {
                        break;
                    };
                    part.pos = next.to_array();
                    part.steps += 1;
                    verts.push(next);
                    match owner_of_point(geo, owner, next) {
                        Some(o) if o == me => {}
                        Some(o) => {
                            // Hand off to the owning rank.
                            dest = Some(o);
                            break;
                        }
                        None => break, // left the fluid
                    }
                }
                (part, start_step, verts, dest)
            })
            .collect();
        for (part, start_step, verts, dest) in advanced {
            stats.steps_computed += (part.steps - start_step) as u64;
            if let Some(o) = dest {
                outgoing[o].push(part);
                stats.handoffs += 1;
            }
            if verts.len() > 1 {
                segments.push((part.id, start_step, verts));
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

/// One hand-off round: counts travel in a small all-to-all (the round's
/// control/synchronisation), particle payloads in point-to-point
/// messages under a visualisation tag (so Table I's "communication
/// cost" attribution sees them).
pub(crate) fn exchange_particles<T: Wire + Copy>(
    comm: &Communicator,
    outgoing: &[Vec<T>],
    queue: &mut Vec<T>,
) -> CommResult<()> {
    const T_HANDOFF: hemelb_parallel::Tag = hemelb_parallel::Tag::vis(30);
    let counts: Vec<bytes::Bytes> = outgoing
        .iter()
        .map(|b| (b.len() as u64).to_bytes())
        .collect();
    let incoming_counts = comm.all_to_all(counts)?;
    for (dst, batch) in outgoing.iter().enumerate() {
        if !batch.is_empty() && dst != comm.rank() {
            let mut w = WireWriter::with_capacity(8 + batch.len() * 32);
            w.put_usize(batch.len());
            for p in batch {
                p.encode(&mut w);
            }
            comm.send(dst, T_HANDOFF, w.finish())?;
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
        let payload = comm.recv(src, T_HANDOFF)?;
        let mut r = WireReader::new(payload);
        let m = r.get_usize()?;
        for _ in 0..m {
            queue.push(T::decode(&mut r)?);
        }
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

    #[test]
    fn distributed_trace_matches_serial_bitwise() {
        let (geo, snap) = developed_aneurysm();
        // A rake across the inlet that overshoots the lumen on both
        // sides: seeds in the fluid, seeds whose cell is wall but whose
        // neighbours are fluid (interpolation succeeds there), seeds in
        // solid with nothing around them.
        let inlet: Vec<Vec3> = (0..geo.fluid_count() as u32)
            .map(|s| geo.position_v(s))
            .filter(|p| p.x == 2.0)
            .collect();
        let axis = inlet.iter().fold(Vec3::ZERO, |a, &p| a + p) * (1.0 / inlet.len() as f64);
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

        for p in [1usize, 2, 4] {
            let geo2 = geo.clone();
            let snap2 = snap.clone();
            let seeds2 = seeds.clone();
            let results = run_spmd(p, move |comm| {
                // Slab decomposition along x.
                let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
                    .map(|s| {
                        (geo2.position(s)[0] as usize * comm.size() / geo2.shape()[0])
                            .min(comm.size() - 1)
                    })
                    .collect();
                let field = SampledField::new(&geo2, &snap2);
                trace_distributed(comm, &geo2, &field, &owner, &seeds2, &cfg).unwrap()
            });
            // Stitch across ranks.
            let mut all_segments = Vec::new();
            let mut total_handoffs = 0;
            for (segs, stats) in results {
                all_segments.extend(segs);
                total_handoffs += stats.handoffs;
            }
            let lines = stitch_segments(all_segments, seeds.len());
            let bits = |line: &[Vec3]| -> Vec<[u64; 3]> {
                line.iter()
                    .map(|v| v.to_array().map(f64::to_bits))
                    .collect()
            };
            for (i, line) in lines.iter().enumerate() {
                // A line that never left its seed records no segment.
                let want: &[Vec3] = if serial[i].len() > 1 { &serial[i] } else { &[] };
                assert_eq!(bits(line), bits(want), "p={p} line {i}");
            }
            if p > 1 {
                assert!(total_handoffs > 0, "lines must cross slab boundaries");
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

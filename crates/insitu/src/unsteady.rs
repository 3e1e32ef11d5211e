//! Distributed unsteady line integrals: path-lines and **streak-lines**
//! co-advancing with the (distributed) simulation.
//!
//! The paper names streak-lines explicitly among the "physiologically
//! relevant data sets … for the visualisation of the flow field". A
//! streak-line is the locus of all particles released from a fixed seed
//! point over time, so in situ it must be advected *with* the run: one
//! advection per solver step against the current field, with released
//! particles migrating between ranks like any other tracer.

use crate::field::SampledField;
use crate::lines::{exchange_particles, owner_of_point, rk4_step};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_parallel::{CommResult, Communicator, Wire, WireReader, WireWriter};

/// A tracer particle of an unsteady line: which seed released it, and
/// when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreakParticle {
    /// Seed index.
    pub seed: u32,
    /// Simulation step at release.
    pub release: u32,
    /// Current position.
    pub pos: [f64; 3],
}

impl Wire for StreakParticle {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.seed);
        w.put_u32(self.release);
        w.put(&self.pos);
    }
    fn decode(r: &mut WireReader) -> CommResult<Self> {
        Ok(StreakParticle {
            seed: r.get_u32()?,
            release: r.get_u32()?,
            pos: r.get()?,
        })
    }
}

/// Per-rank statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreakStats {
    /// Advection updates computed by this rank.
    pub updates: u64,
    /// Particles migrated away.
    pub migrations: u64,
    /// Particles released by this rank.
    pub released: u64,
}

/// Distributed streak-line tracer. Collective: every rank constructs it
/// with the full seed list and calls [`DistStreaklines::step`] once per
/// solver step.
pub struct DistStreaklines<'a> {
    comm: &'a Communicator,
    owner: &'a [usize],
    seeds: Vec<Vec3>,
    /// Live particles owned by this rank.
    pub live: Vec<StreakParticle>,
    /// Advection sub-step per solver step.
    pub h: f64,
    /// Steps taken so far.
    pub step: u32,
    /// Running statistics.
    pub stats: StreakStats,
}

impl<'a> DistStreaklines<'a> {
    /// Create with no particles yet; releases start with the first
    /// [`DistStreaklines::step`].
    pub fn new(comm: &'a Communicator, owner: &'a [usize], seeds: Vec<Vec3>, h: f64) -> Self {
        DistStreaklines {
            comm,
            owner,
            seeds,
            live: Vec::new(),
            h,
            step: 0,
            stats: StreakStats::default(),
        }
    }

    /// One in situ step against the *current* field: advect every live
    /// particle, then release a fresh particle at every seed (on the
    /// rank owning the seed's cell). Collective.
    pub fn step(&mut self, geo: &SparseGeometry, field: &SampledField<'_>) -> CommResult<()> {
        let me = self.comm.rank();
        let mut outgoing: Vec<Vec<StreakParticle>> = vec![Vec::new(); self.comm.size()];
        let mut keep = Vec::with_capacity(self.live.len() + self.seeds.len());
        for mut part in self.live.drain(..) {
            let v = |q: Vec3| field.velocity_at(q);
            let p = Vec3::from(part.pos);
            match v(p).and_then(|k1| rk4_step(&v, p, k1, self.h)) {
                None => {} // left the fluid: the streak ends here
                Some(next) => {
                    part.pos = next.to_array();
                    self.stats.updates += 1;
                    match owner_of_point(geo, self.owner, next) {
                        Some(o) if o == me => keep.push(part),
                        Some(o) => {
                            outgoing[o].push(part);
                            self.stats.migrations += 1;
                        }
                        None => {}
                    }
                }
            }
        }
        self.live = keep;
        exchange_particles(self.comm, &outgoing, &mut self.live)?;

        // Release this step's particles from seeds this rank owns.
        self.step += 1;
        for (i, &s) in self.seeds.iter().enumerate() {
            if owner_of_point(geo, self.owner, s) == Some(me) {
                self.live.push(StreakParticle {
                    seed: i as u32,
                    release: self.step,
                    pos: s.to_array(),
                });
                self.stats.released += 1;
            }
        }
        Ok(())
    }

    /// Gather complete streak-lines at rank 0 (collective): for each
    /// seed, live particle positions ordered newest-first (from the
    /// seed outwards).
    pub fn gather(&self) -> CommResult<Option<Vec<Vec<Vec3>>>> {
        let mut w = WireWriter::with_capacity(8 + self.live.len() * 32);
        w.put_usize(self.live.len());
        for p in &self.live {
            p.encode(&mut w);
        }
        let Some(parts) = self.comm.gather(0, w.finish())? else {
            return Ok(None);
        };
        let mut all: Vec<StreakParticle> = Vec::new();
        for part in parts {
            let mut r = WireReader::new(part);
            let n = r.get_usize()?;
            for _ in 0..n {
                all.push(StreakParticle::decode(&mut r)?);
            }
        }
        let mut lines = vec![Vec::new(); self.seeds.len()];
        all.sort_by_key(|p| (p.seed, std::cmp::Reverse(p.release)));
        for p in all {
            lines[p.seed as usize].push(Vec3::from(p.pos));
        }
        Ok(Some(lines))
    }

    /// Global live-particle count (collective).
    pub fn global_live(&self) -> CommResult<u64> {
        self.comm
            .all_reduce_u64(self.live.len() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::UnsteadyTracer;
    use hemelb_core::FieldSnapshot;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;

    fn uniform_flow() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::straight_tube(32.0, 5.0).voxelise(1.0);
        let n = geo.fluid_count();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.06, 0.005, 0.0]; n],
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    fn seed(geo: &SparseGeometry) -> Vec3 {
        Vec3::new(
            2.0,
            (geo.shape()[1] as f64 - 1.0) / 2.0,
            (geo.shape()[2] as f64 - 1.0) / 2.0,
        )
    }

    #[test]
    fn distributed_streaklines_match_serial_tracer() {
        let (geo, snap) = uniform_flow();
        let s = seed(&geo);

        // Serial reference: the shared-memory UnsteadyTracer in streak
        // mode. Note its release happens before the first advection of
        // that particle, same as the distributed protocol.
        let field = SampledField::new(&geo, &snap);
        let mut serial = UnsteadyTracer::new(vec![s], 0.5, true);
        for _ in 0..400 {
            serial.advect(&field);
        }
        // UnsteadyTracer seeds one particle at construction; the
        // distributed tracer releases only per step. Compare the common
        // suffix (particles released at steps 1..=30).
        let serial_streak = serial.streakline(0);

        for p in [1usize, 3] {
            let geo2 = geo.clone();
            let snap2 = snap.clone();
            let results = run_spmd(p, move |comm| {
                let owner: Vec<usize> = (0..geo2.fluid_count() as u32)
                    .map(|st| {
                        (geo2.position(st)[0] as usize * comm.size() / geo2.shape()[0])
                            .min(comm.size() - 1)
                    })
                    .collect();
                let field = SampledField::new(&geo2, &snap2);
                let mut tracer = DistStreaklines::new(comm, &owner, vec![seed(&geo2)], 0.5);
                for _ in 0..400 {
                    tracer.step(&geo2, &field).unwrap();
                }
                (tracer.gather().unwrap(), tracer.stats.clone())
            });
            let lines = results[0].0.as_ref().unwrap();
            let streak = &lines[0];
            assert_eq!(streak.len(), 400, "p={p}: 400 releases all alive");
            // The distributed streak (newest first) must match the
            // serial one's released particles (skip the construction
            // seed particle, which is the oldest = last in newest-first
            // order).
            for (a, b) in streak.iter().zip(serial_streak.iter()) {
                assert!((*a - *b).norm() < 1e-9, "p={p}");
            }
            if p > 1 {
                let migrations: u64 = results.iter().map(|r| r.1.migrations).sum();
                assert!(migrations > 0, "streak must cross slabs");
            }
        }
    }

    #[test]
    fn streak_particles_exit_at_the_outlet() {
        let (geo, snap) = uniform_flow();
        let s = seed(&geo);
        let results = run_spmd(2, move |comm| {
            let owner: Vec<usize> = (0..geo.fluid_count() as u32)
                .map(|st| {
                    (geo.position(st)[0] as usize * comm.size() / geo.shape()[0])
                        .min(comm.size() - 1)
                })
                .collect();
            let field = SampledField::new(&geo, &snap);
            let mut tracer = DistStreaklines::new(comm, &owner, vec![s], 1.0);
            for _ in 0..1500 {
                tracer.step(&geo, &field).unwrap();
            }
            tracer.global_live().unwrap()
        });
        // Releases continue, but the oldest particles have left: the
        // live count is bounded by the transit time, far below 1500.
        assert!(results[0] < 800, "live particles bounded: {}", results[0]);
        assert!(results[0] > 0);
    }

    #[test]
    fn wire_streak_particle_round_trip() {
        let p = StreakParticle {
            seed: 3,
            release: 77,
            pos: [0.5, -1.25, 9.0],
        };
        assert_eq!(StreakParticle::from_bytes(p.to_bytes()).unwrap(), p);
    }
}

//! Distributed massless particle tracing.
//!
//! The paper lists particle tracing as its own technique (Table I):
//! ensembles of tracers advected *with the simulation*, one advection
//! step per solver step, migrating between ranks as they cross
//! subdomain boundaries. Communication is therefore per-step (high),
//! and load follows the seeding density (can be optimised by vis-aware
//! partitioning — the "can be optimised" cell of the table).

use crate::field::SampledField;
use crate::lines::{owner_of_point, rk4_step, WireParticle};
use hemelb_geometry::{SparseGeometry, Vec3};
use hemelb_parallel::{CommResult, Communicator};

/// Per-rank statistics of an in situ particle run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleStats {
    /// Advection updates this rank computed.
    pub updates: u64,
    /// Particles migrated away from this rank.
    pub migrations: u64,
    /// Collective rounds (one per simulation step).
    pub rounds: u64,
}

/// A distributed tracer ensemble co-resident with the solver ranks.
pub struct ParticleEnsemble<'a> {
    comm: &'a Communicator,
    owner: &'a [usize],
    /// Live particles owned by this rank.
    pub local: Vec<WireParticle>,
    /// Finished (exited / stagnant) particles retained for analysis.
    pub finished: Vec<WireParticle>,
    /// Advection sub-step.
    pub h: f64,
    /// Running statistics.
    pub stats: ParticleStats,
}

impl<'a> ParticleEnsemble<'a> {
    /// Seed an ensemble collectively: every rank passes the full seed
    /// list and keeps the particles it owns.
    pub fn new(
        comm: &'a Communicator,
        geo: &SparseGeometry,
        owner: &'a [usize],
        seeds: &[Vec3],
        h: f64,
    ) -> Self {
        let local = seeds
            .iter()
            .enumerate()
            .filter(|(_, &s)| owner_of_point(geo, owner, s) == Some(comm.rank()))
            .map(|(i, &s)| WireParticle {
                id: i as u32,
                steps: 0,
                pos: s.to_array(),
            })
            .collect();
        ParticleEnsemble {
            comm,
            owner,
            local,
            finished: Vec::new(),
            h,
            stats: ParticleStats::default(),
        }
    }

    /// One in situ step: advance every local particle once through the
    /// current field, then migrate border-crossers. Collective — all
    /// ranks must call it once per solver step.
    pub fn step(&mut self, geo: &SparseGeometry, field: &SampledField<'_>) -> CommResult<()> {
        let me = self.comm.rank();
        let mut outgoing: Vec<Vec<WireParticle>> = vec![Vec::new(); self.comm.size()];
        let mut keep = Vec::with_capacity(self.local.len());
        for mut part in self.local.drain(..) {
            let p = Vec3::from(part.pos);
            let v = |q: Vec3| field.velocity_at(q);
            match v(p).and_then(|k1| rk4_step(&v, p, k1, self.h)) {
                None => self.finished.push(part),
                Some(next) => {
                    part.pos = next.to_array();
                    part.steps += 1;
                    self.stats.updates += 1;
                    match owner_of_point(geo, self.owner, next) {
                        Some(o) if o == me => keep.push(part),
                        Some(o) => {
                            outgoing[o].push(part);
                            self.stats.migrations += 1;
                        }
                        None => self.finished.push(part),
                    }
                }
            }
        }
        self.local = keep;

        crate::lines::exchange_particles(self.comm, &outgoing, &mut self.local)?;
        self.stats.rounds += 1;
        Ok(())
    }

    /// Global live-particle count (collective).
    pub fn global_active(&self) -> CommResult<u64> {
        self.comm
            .all_reduce_u64(self.local.len() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_core::FieldSnapshot;
    use hemelb_geometry::VesselBuilder;
    use hemelb_parallel::run_spmd;

    fn uniform_flow() -> (SparseGeometry, FieldSnapshot) {
        let geo = VesselBuilder::straight_tube(32.0, 5.0).voxelise(1.0);
        let n = geo.fluid_count();
        let snap = FieldSnapshot {
            step: 0,
            rho: vec![1.0; n],
            u: vec![[0.08, 0.0, 0.0]; n],
            shear: vec![0.0; n],
        };
        (geo, snap)
    }

    fn seeds(geo: &SparseGeometry, n: usize) -> Vec<Vec3> {
        let cy = (geo.shape()[1] as f64 - 1.0) / 2.0;
        let cz = (geo.shape()[2] as f64 - 1.0) / 2.0;
        (0..n)
            .map(|i| Vec3::new(2.0 + (i % 3) as f64, cy + (i as f64 * 0.37).sin(), cz))
            .collect()
    }

    #[test]
    fn particles_conserve_count_until_exit() {
        let (geo, snap) = uniform_flow();
        let seed_list = seeds(&geo, 12);
        let n_seeds = seed_list.len() as u64;
        let results = run_spmd(3, move |comm| {
            let owner: Vec<usize> = (0..geo.fluid_count() as u32)
                .map(|s| {
                    (geo.position(s)[0] as usize * comm.size() / geo.shape()[0])
                        .min(comm.size() - 1)
                })
                .collect();
            let field = SampledField::new(&geo, &snap);
            let mut ens = ParticleEnsemble::new(comm, &geo, &owner, &seed_list, 1.0);
            let mut counts = Vec::new();
            for _ in 0..200 {
                ens.step(&geo, &field).unwrap();
                counts.push(ens.global_active().unwrap() + global_finished(comm, &ens));
            }
            (counts, ens.stats.clone())
        });
        // Live + finished always equals the seed count.
        for (counts, _) in &results {
            for &c in counts {
                assert_eq!(c, n_seeds);
            }
        }
        // Downstream advection must migrate particles across slabs.
        let migrations: u64 = results.iter().map(|(_, s)| s.migrations).sum();
        assert!(migrations > 0);
    }

    fn global_finished(comm: &hemelb_parallel::Communicator, ens: &ParticleEnsemble) -> u64 {
        comm.all_reduce_u64(ens.finished.len() as u64, |a, b| a + b)
            .unwrap()
    }

    #[test]
    fn particles_eventually_exit_the_outlet() {
        let (geo, snap) = uniform_flow();
        let seed_list = seeds(&geo, 6);
        let results = run_spmd(2, move |comm| {
            let owner: Vec<usize> = (0..geo.fluid_count() as u32)
                .map(|s| {
                    (geo.position(s)[0] as usize * comm.size() / geo.shape()[0])
                        .min(comm.size() - 1)
                })
                .collect();
            let field = SampledField::new(&geo, &snap);
            let mut ens = ParticleEnsemble::new(comm, &geo, &owner, &seed_list, 0.5);
            for _ in 0..2000 {
                ens.step(&geo, &field).unwrap();
                if ens.global_active().unwrap() == 0 {
                    break;
                }
            }
            ens.global_active().unwrap()
        });
        assert_eq!(results[0], 0, "all particles should leave the tube");
    }

    #[test]
    fn single_rank_never_migrates() {
        let (geo, snap) = uniform_flow();
        let seed_list = seeds(&geo, 5);
        let results = run_spmd(1, move |comm| {
            let owner = vec![0usize; geo.fluid_count()];
            let field = SampledField::new(&geo, &snap);
            let mut ens = ParticleEnsemble::new(comm, &geo, &owner, &seed_list, 0.5);
            for _ in 0..10 {
                ens.step(&geo, &field).unwrap();
            }
            ens.stats.clone()
        });
        assert_eq!(results[0].migrations, 0);
        assert!(results[0].updates > 0);
    }
}

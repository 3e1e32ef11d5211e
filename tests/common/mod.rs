//! Shared helpers for the integration suites: a random sparse-geometry
//! generator (cylinders, bifurcations, porous blocks), solver-case
//! strategies for the determinism proptests, the checksum utilities
//! the golden-fixture tests are built on, and a seeded generator for
//! hand-rolled random cases.
#![allow(dead_code)]

use hemelb::core::collision::CollisionKind;
use hemelb::core::solver::ModelKind;
use hemelb::core::{FieldSnapshot, SolverConfig};
use hemelb::geometry::{IoLet, IoLetKind, SiteKind, SparseGeometry, Vec3, VesselBuilder};
use proptest::prelude::*;
use std::sync::Arc;

/// A generatable geometry, kept as a small value so failing proptest
/// cases print the exact recipe.
#[derive(Debug, Clone)]
pub enum GeoSpec {
    /// Straight circular tube (the Poiseuille workhorse).
    Cylinder {
        /// Axis length, lattice units.
        len: f64,
        /// Lumen radius.
        radius: f64,
    },
    /// Symmetric Y-bifurcation.
    Bifurcation {
        /// Parent branch length.
        parent: f64,
        /// Child branch length.
        child: f64,
        /// Vessel radius.
        radius: f64,
    },
    /// Random porous block: a box where interior cells are fluid with
    /// ~72% probability (seeded), inlet face at x=0, outlet at x=max.
    Porous {
        /// Box extent.
        nx: usize,
        /// Box extent.
        ny: usize,
        /// Box extent.
        nz: usize,
        /// Porosity seed.
        seed: u64,
    },
}

fn cell_hash(x: usize, y: usize, z: usize, seed: u64) -> u64 {
    let mut h = seed ^ ((x as u64) << 42) ^ ((y as u64) << 21) ^ (z as u64) ^ 0x9E3779B97F4A7C15;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 29;
    h
}

/// Assemble a porous block directly from parts. Sites on the x faces
/// are iolets; other sites missing a 6-neighbour are walls.
fn porous_block(nx: usize, ny: usize, nz: usize, seed: u64) -> SparseGeometry {
    assert!(nx >= 3 && ny >= 2 && nz >= 2);
    let is_fluid = |x: usize, y: usize, z: usize| -> bool {
        x == 0 || x == nx - 1 || cell_hash(x, y, z, seed) % 100 < 72
    };
    let mut index = vec![u32::MAX; nx * ny * nz];
    let mut positions: Vec<[u32; 3]> = Vec::new();
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                if is_fluid(x, y, z) {
                    index[(x * ny + y) * nz + z] = positions.len() as u32;
                    positions.push([x as u32, y as u32, z as u32]);
                }
            }
        }
    }
    let kinds: Vec<SiteKind> = positions
        .iter()
        .map(|&[x, y, z]| {
            let (x, y, z) = (x as usize, y as usize, z as usize);
            if x == 0 {
                SiteKind::Inlet(0)
            } else if x == nx - 1 {
                SiteKind::Outlet(0)
            } else {
                let closed = [
                    (x.wrapping_sub(1), y, z),
                    (x + 1, y, z),
                    (x, y.wrapping_sub(1), z),
                    (x, y + 1, z),
                    (x, y, z.wrapping_sub(1)),
                    (x, y, z + 1),
                ]
                .into_iter()
                .any(|(a, b, c)| a >= nx || b >= ny || c >= nz || !is_fluid(a, b, c));
                if closed {
                    SiteKind::Wall
                } else {
                    SiteKind::Bulk
                }
            }
        })
        .collect();
    let cy = (ny as f64 - 1.0) / 2.0;
    let cz = (nz as f64 - 1.0) / 2.0;
    let face_radius = (ny.max(nz) as f64) / 2.0 + 1.0;
    let iolets = vec![
        IoLet {
            kind: IoLetKind::Inlet,
            centre: Vec3::new(0.0, cy, cz),
            normal: Vec3::new(-1.0, 0.0, 0.0),
            radius: face_radius,
        },
        IoLet {
            kind: IoLetKind::Outlet,
            centre: Vec3::new(nx as f64 - 1.0, cy, cz),
            normal: Vec3::new(1.0, 0.0, 0.0),
            radius: face_radius,
        },
    ];
    SparseGeometry::from_parts([nx, ny, nz], index, positions, kinds, iolets)
}

impl GeoSpec {
    /// Voxelise/assemble the geometry.
    pub fn build(&self) -> Arc<SparseGeometry> {
        let geo = match *self {
            GeoSpec::Cylinder { len, radius } => {
                VesselBuilder::straight_tube(len, radius).voxelise(1.0)
            }
            GeoSpec::Bifurcation {
                parent,
                child,
                radius,
            } => VesselBuilder::bifurcation(parent, child, radius, 0.5).voxelise(1.0),
            GeoSpec::Porous { nx, ny, nz, seed } => porous_block(nx, ny, nz, seed),
        };
        assert!(geo.fluid_count() > 0, "degenerate geometry from {self:?}");
        Arc::new(geo)
    }
}

/// One determinism test case: geometry × velocity set × collision
/// operator × boundary-condition family.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Geometry recipe.
    pub geo: GeoSpec,
    /// Velocity set.
    pub model: ModelKind,
    /// Collision operator.
    pub collision: CollisionKind,
    /// `true` → parabolic velocity inlet; `false` → pressure drive.
    pub velocity_inlet: bool,
}

impl CaseSpec {
    /// The solver configuration for this case.
    pub fn config(&self) -> SolverConfig {
        let base = if self.velocity_inlet {
            SolverConfig::velocity_driven(0.03)
        } else {
            SolverConfig::pressure_driven(1.005, 0.995)
        };
        base.with_model(self.model).with_collision(self.collision)
    }
}

/// Strategy over the three geometry families, sized to keep a proptest
/// case under ~1k sites so the suite stays fast.
pub fn geo_strategy() -> impl Strategy<Value = GeoSpec> {
    (
        0usize..3,
        8.0f64..16.0, // cylinder length
        2.0f64..3.2,  // cylinder radius
        6.0f64..9.0,  // bifurcation parent
        5.0f64..8.0,  // bifurcation child
        1.8f64..2.4,  // bifurcation radius
        5usize..9,    // porous nx
        4usize..7,    // porous ny/nz
        any::<u64>(), // porous seed
    )
        .prop_map(
            |(pick, len, radius, parent, child, bradius, nx, nyz, seed)| match pick {
                0 => GeoSpec::Cylinder { len, radius },
                1 => GeoSpec::Bifurcation {
                    parent,
                    child,
                    radius: bradius,
                },
                _ => GeoSpec::Porous {
                    nx,
                    ny: nyz,
                    nz: nyz,
                    seed,
                },
            },
        )
}

/// Strategy over full solver cases: geometry × {D3Q15, D3Q19} ×
/// {BGK, TRT, MRT} × {pressure, velocity} boundary conditions.
pub fn case_strategy() -> impl Strategy<Value = CaseSpec> {
    (geo_strategy(), 0usize..2, 0usize..3, any::<bool>()).prop_map(
        |(geo, model, coll, velocity_inlet)| CaseSpec {
            geo,
            model: if model == 0 {
                ModelKind::D3Q15
            } else {
                ModelKind::D3Q19
            },
            collision: match coll {
                0 => CollisionKind::Bgk,
                1 => CollisionKind::trt_magic(),
                _ => CollisionKind::Mrt { omega_ghost: 1.2 },
            },
            velocity_inlet,
        },
    )
}

/// `f64::to_bits` equality over two slices.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over the IEEE-754 bit patterns of a value stream. Any one-ULP
/// change in any value changes the digest.
pub fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Per-field digests of a snapshot: `(rho, ux|uy|uz, shear)`.
pub fn snapshot_digests(snap: &FieldSnapshot) -> (u64, u64, u64) {
    let rho = fnv1a_bits(snap.rho.iter().copied());
    let u = fnv1a_bits(snap.u.iter().flat_map(|v| v.iter().copied()));
    let shear = fnv1a_bits(snap.shear.iter().copied());
    (rho, u, shear)
}

/// A deterministic SplitMix64 generator, for tests that draw their own
/// random cases from a seed instead of a proptest strategy.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator starting from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of the next output.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

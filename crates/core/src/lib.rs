//! # hemelb-core
//!
//! A sparse-geometry lattice-Boltzmann solver in the mould of HemeLB:
//! D3Q15/D3Q19 velocity sets, LBGK and TRT collision kernels, halfway
//! bounce-back walls, velocity inlets and pressure outlets, and — the
//! part the SC'12 co-design paper cares about — a distributed SPMD
//! stepper over the instrumented [`hemelb_parallel`] substrate whose halo
//! traffic is exactly the communication the paper's load-balance
//! arguments are about.
//!
//! The solver stores *only fluid sites* (indirect addressing over
//! [`hemelb_geometry::SparseGeometry`]); the regular-lattice structure of
//! the method (paper Fig. 1) shows up purely in the neighbour offsets of
//! the velocity set.
//!
//! ```
//! use hemelb_core::{Solver, SolverConfig};
//! use hemelb_geometry::VesselBuilder;
//!
//! let geo = VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0);
//! let cfg = SolverConfig::pressure_driven(1.002, 0.998).with_tau(0.8);
//! let mut solver = Solver::new(std::sync::Arc::new(geo), cfg);
//! solver.step_n(10);
//! let snap = solver.snapshot();
//! assert!(snap.max_speed() < 0.3, "stable low-Mach flow");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod checkpoint;
pub mod collision;
pub mod dist;
pub mod equilibrium;
pub mod fields;
pub mod layout;
pub mod model;
pub mod mrt;
pub mod solver;

pub use dist::DistSolver;
pub use fields::FieldSnapshot;
pub use layout::SitePartition;
pub use model::LatticeModel;
pub use solver::{ParallelSolver, Solver, SolverConfig};

/// Speed of sound squared of the standard isothermal lattices, in lattice
/// units (`cs² = 1/3`).
pub const CS2: f64 = 1.0 / 3.0;

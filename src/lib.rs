//! # hemelb — umbrella crate
//!
//! Re-exports every subsystem of the `hemelb-insitu-rs` workspace, a
//! from-scratch Rust reproduction of the SC'12 co-design study
//! *"Enabling in situ pre- and post-processing for exascale hemodynamic
//! simulations"* (Chen, Flatken, Basermann, Gerndt, Hetherington, Krüger,
//! Matura, Nash).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

pub use hemelb_core as core;
pub use hemelb_geometry as geometry;
pub use hemelb_insitu as insitu;
pub use hemelb_obs as obs;
pub use hemelb_octree as octree;
pub use hemelb_parallel as parallel;
pub use hemelb_partition as partition;
pub use hemelb_steering as steering;

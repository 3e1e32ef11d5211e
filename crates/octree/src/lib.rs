//! # hemelb-octree
//!
//! The multi-resolution data structure of the paper's §V: an octree over
//! the sparse lattice whose internal nodes carry conservative field
//! aggregates, enabling
//!
//! * **data reduction** — a level-ℓ cut of the tree is a downsampled
//!   field whose size shrinks geometrically with ℓ;
//! * **progressive streaming** — nodes linearised level-by-level in
//!   Morton order (the Pascucci-style hierarchical indexing the paper
//!   cites) so that any prefix of the stream is a complete coarse view;
//! * **context & detail** — region-of-interest cuts that keep a coarse
//!   context everywhere but refine inside a user-selected box.
//!
//! ```
//! use hemelb_geometry::VesselBuilder;
//! use hemelb_octree::FieldOctree;
//!
//! let geo = VesselBuilder::straight_tube(16.0, 3.0).voxelise(1.0);
//! let n = geo.fluid_count();
//! // A synthetic speed field (normally a solver snapshot).
//! let speed: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
//! let tree = FieldOctree::build(&geo, &speed);
//! assert!(tree.depth() >= 3);
//! // Coarser cuts are smaller.
//! assert!(tree.cut_at_level(1).len() < tree.cut_at_level(3).len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod roi;
pub mod stream;
pub mod tree;

pub use roi::RoiCut;
pub use stream::{StreamEntry, StreamOrder};
pub use tree::{Aggregates, FieldOctree, OctreeNode};

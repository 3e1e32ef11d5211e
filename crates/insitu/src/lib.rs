//! # hemelb-insitu
//!
//! In situ post-processing for the sparse-geometry LB solver: the
//! four visualisation techniques of the paper's Table I, each in a
//! distributed, instrumented implementation. The extract → filter →
//! map → render pipeline of its Fig. 3 is these pieces called in that
//! order (experiment E4 in `hemelb-bench`).
//!
//! | Technique | Module | Communication structure |
//! |---|---|---|
//! | Volume rendering | [`volume`] | none during sampling; sort-last compositing ([`compositing`]) |
//! | Line integrals (stream/path) | [`lines`] | per-step particle hand-off between ranks |
//! | Particle tracing, streak-lines | [`particles`] | per-step migration |
//! | LIC | [`lic`] | one-time slice halo exchange |
//!
//! The paper tabulates these qualitatively (communication cost, load
//! balance, ease of parallelisation). Every technique talks only through
//! the instrumented [`hemelb_parallel`] substrate, so its traffic is
//! counted by class; `hemelb-bench` runs each one once per experiment
//! and turns those counts into the measured cells of that table (E1)
//! and the renderers' output into its Fig. 4 images (E5, E6). This
//! crate holds no experiment code and no cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod compositing;
pub mod features;
pub mod field;
pub mod image;
pub mod lic;
pub mod lines;
pub mod particles;
pub mod transfer;
pub mod volume;

pub use camera::Camera;
pub use compositing::{CompositeOutcome, DeadlineCompositor};
pub use field::SampledField;
pub use image::Image;
pub use transfer::TransferFunction;

//! # hemelb-insitu
//!
//! In situ post-processing for the sparse-geometry LB solver: the
//! four visualisation techniques of the paper's Table I, each in a
//! distributed, instrumented implementation, plus the extract → filter →
//! map → render pipeline of its Fig. 3.
//!
//! | Technique | Module | Communication structure |
//! |---|---|---|
//! | Volume rendering | [`volume`] | none during sampling; sort-last compositing ([`compositing`]) |
//! | Line integrals (stream/path/streak) | [`lines`] | per-step particle hand-off between ranks |
//! | Particle tracing | [`particles`] | per-step migration |
//! | LIC | [`lic`] | one-time slice halo exchange |
//!
//! The paper tabulates these qualitatively (communication cost, load
//! balance, ease of parallelisation); running them here over the
//! instrumented [`hemelb_parallel`] substrate turns every cell of that
//! table into a measured number (experiment E1), and the renderers also
//! regenerate its Fig. 4 images ([`image::Image::write_ppm`]).

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
pub mod pipeline;
pub mod report;
pub mod transfer;
pub mod unsteady;
pub mod volume;

pub use camera::Camera;
pub use compositing::{CompositeOutcome, DeadlineCompositor};
pub use field::SampledField;
pub use image::Image;
pub use pipeline::{Pipeline, StageStats};
pub use report::TechniqueReport;
pub use transfer::TransferFunction;

//! # hemelb-parallel
//!
//! A deterministic, instrumented message-passing substrate that plays the
//! role MPI plays in the original HemeLB: a set of SPMD *ranks* exchanging
//! typed point-to-point messages and participating in collectives.
//!
//! The SC'12 co-design paper this repository reproduces reasons about
//! *communication volume*, *synchronisation structure* and *load balance*
//! of in situ algorithms — not about a particular interconnect. This crate
//! therefore executes the same SPMD communication patterns a real MPI code
//! would, on one OS thread per rank, while **counting every message and
//! byte** ([`CommStats`]); an α–β–γ cost model ([`CostModel`]) converts the
//! exact counts into projected times for machines we do not have, so that
//! the paper's qualitative orderings (its Table I) become measurable.
//!
//! ## Quick tour
//!
//! ```
//! use hemelb_parallel::run_spmd;
//!
//! // Four ranks compute a global sum of their rank indices.
//! let results = run_spmd(4, |comm| {
//!     let mine = comm.rank() as u64;
//!     comm.all_reduce_u64(mine, |a, b| a + b).unwrap()
//! });
//! assert!(results.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```
//!
//! Point-to-point messages are matched on `(source, tag)` exactly like
//! MPI: messages from the same source with the same tag are received in
//! send order; messages that arrive early are buffered.
//!
//! ## Determinism
//!
//! All algorithms in this workspace are written so that the *set* of
//! messages (sources, tags, payloads, counts) is a pure function of the
//! inputs; scheduling may interleave arrivals but matching restores a
//! deterministic order. Tests assert bit-equality between serial and
//! distributed runs of the solver built on top of this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod cost;
pub mod error;
pub mod fault;
pub mod runner;
pub mod stats;
pub mod tag;
pub mod wire;

pub use comm::Communicator;
pub use cost::calibrate::{
    fit as calibrate_fit, probe_link, CalSample, CalibratedModel, CalibrationError,
};
pub use cost::{CostModel, MachineModel, ProjectedCost};
pub use error::{CommError, CommResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use runner::{run_spmd, run_spmd_opts, run_spmd_with_stats, SpmdOptions, SpmdOutput};
pub use stats::{CommStats, FaultStat, StatsSummary, TagClass};
pub use tag::Tag;
pub use wire::{Wire, WireReader, WireWriter};

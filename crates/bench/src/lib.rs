//! # hemelb-bench
//!
//! The experiment harness: one module per table, figure or co-design
//! question of the paper (see `DESIGN.md` §3 for the experiment index),
//! shared workload builders, and the `reproduce` binary that runs them
//! and prints paper-style tables. Nothing here is a timing harness:
//! how fast a layer runs is measured by the standalone `benchmark/`
//! package (see `benchmark/README.md`), and nowhere else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adaptive;
pub mod extract;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod multires;
pub mod preprocess;
pub mod projection;
pub mod repartition;
pub mod scaling;
pub mod table1;
pub mod workloads;

//! # hemelb-bench
//!
//! The experiment harness: one module per table, figure or co-design
//! question of the paper (see `DESIGN.md` §3 for the experiment index),
//! shared workload builders, and the `reproduce` binary that runs them
//! and prints paper-style tables. Nothing here is a timing harness:
//! the experiments report counts, bytes, errors and orderings, and how
//! fast a layer runs is measured by the standalone `benchmark/` package
//! (see `benchmark/README.md`), and nowhere else. The one clock is E20's
//! ([`projection`]), whose model check compares predicted with measured
//! step time; E15 ([`adaptive`]) is the measured load balancer itself
//! and keeps the span seconds it balances on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod extract;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod multires;
pub mod preprocess;
pub mod projection;
pub mod repartition;
pub mod scaling;
pub mod table1;
mod techniques;
pub mod workloads;

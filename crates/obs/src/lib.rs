//! `hemelb-obs`: the observability layer of the co-design study.
//!
//! The paper's closed steering loop (§IV-C) is only as good as its
//! latency budget, and a latency budget needs measurements. This crate
//! provides the small, dependency-free primitives every other layer
//! records into:
//!
//! * [`Recorder`] — a per-rank sink of named phase timings, monotonic
//!   counters and a bounded [`Timeline`] of recent spans;
//! * [`Span`] — the scope timer feeding a recorder;
//! * [`Histogram`] — fixed log-bucket latency histogram with
//!   p50/p95/p99/max, mergeable across ranks;
//! * [`ObsReport`] — an exportable snapshot: JSON export
//!   ([`ObsReport::to_json`], which [`Json::parse`] reads back), cross-rank
//!   [`ObsReport::merge`], and a human-readable
//!   [`ObsReport::render_table`];
//! * [`Fnv1a`] — the workspace's one 64-bit FNV-1a, for checksums,
//!   cache keys and field digests.
//!
//! A [`Recorder::disabled`] recorder turns every entry point into a
//! single-branch no-op, so instrumentation can stay compiled in without
//! a measurable cost on the LB kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;

pub use fnv::Fnv1a;
pub use hist::{Histogram, BUCKET_BOUNDS};
pub use json::{Json, JsonError};
pub use recorder::{PhaseStats, Recorder, Span, Timeline, TIMELINE_CAP};
pub use report::{ObsReport, PhaseReport, TimelineEvent};

//! What a workload run is asked to do and what it hands back.

use crate::machine;
use crate::stats::{median, percentile, tail};
use crate::trace::Track;
use crate::util::Ledger;
use hemelb_obs::ObsReport;
use std::collections::BTreeMap;

/// The arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Checks only: tiny windows, short warm-ups, one set-up.
    pub quick: bool,
}

impl RunArgs {
    /// `full` in a measuring run, `quick` in a `--quick` run.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// How often set-up is repeated for its median.
    pub fn setup_reps(&self) -> usize {
        self.pick(11, 1)
    }

    /// The timed windows as `(seconds, traced)`. An untraced run is one
    /// window. A traced run splits its time into an untraced and a
    /// traced window of the same code, so one process yields the
    /// per-layer numbers and the tracing overhead.
    pub fn windows(&self) -> Vec<(f64, bool)> {
        if self.trace {
            vec![(self.seconds / 2.0, false), (self.seconds / 2.0, true)]
        } else {
            vec![(self.seconds, false)]
        }
    }
}

/// One timed window: the wall time of every op in it and the seconds
/// from its start to the end of its last op.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub traced: bool,
    pub op_secs: Vec<f64>,
    pub wall: f64,
}

impl Window {
    /// Record an op that took `secs` and ended `end` seconds into the
    /// window.
    pub fn push(&mut self, secs: f64, end: f64) {
        self.op_secs.push(secs);
        self.wall = end;
    }

    pub fn ops(&self) -> u64 {
        self.op_secs.len() as u64
    }

    /// Ops over wall; time between ops counts.
    pub fn ops_per_s(&self) -> f64 {
        self.op_secs.len() as f64 / self.wall
    }

    pub fn op_ms_p50(&self) -> f64 {
        median(&self.op_secs) * 1e3
    }

    /// The gated latency: the tenth percentile of the op times. The
    /// hypervisor takes 5–40 % of this box's CPU time in bursts, which
    /// only ever adds to an op; the fast tenth is what the program
    /// costs when left alone, and it repeated two to three times
    /// better between runs than the median.
    pub fn op_ms_p10(&self) -> f64 {
        percentile(&self.op_secs, 10.0) * 1e3
    }
}

/// The untraced window and, in a traced run, the traced one.
pub fn split(windows: &[Window]) -> (&Window, Option<&Window>) {
    let untraced = windows.iter().find(|w| !w.traced).expect("untraced window");
    (untraced, windows.iter().find(|w| w.traced))
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub ledger: Ledger,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Site and sample counts for the header.
    pub notes: Vec<String>,
    pub tracks: Vec<Track>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// What voxelising `sites` sites in `secs` seconds says about the
    /// `geometry` layer.
    pub fn voxelised(&mut self, sites: usize, secs: f64) {
        self.set("geometry.voxelise_s", secs);
        self.set("geometry.voxelise_sites_per_s", sites as f64 / secs);
    }

    /// Median and tail of the traced window's solver steps.
    pub fn traced_steps(&mut self, traced: &Window) {
        self.set("core.step_ms_p50", traced.op_ms_p50());
        let (pct, value) = tail(&traced.op_secs);
        self.set("core.step_ms_tail", value * 1e3);
        self.note(format!(
            "core.step_ms_tail is p{pct:.2} of {} traced steps",
            traced.ops()
        ));
    }

    /// What the program's own recorders held at the end of the run.
    pub fn recorders<'a>(&mut self, reports: impl IntoIterator<Item = &'a ObsReport>) {
        let (mut bytes, mut dropped) = (0, 0);
        for obs in reports {
            bytes += obs.to_json().len();
            dropped += obs.dropped_events;
        }
        self.set("obs.report_json_bytes", bytes as f64);
        self.set("obs.dropped_events", dropped as f64);
    }

    /// The end-to-end metrics from the set-up samples and the untraced
    /// window, the plain throughput, and the tracing overhead when a
    /// traced window ran: traced wall per op over untraced wall per op,
    /// minus one.
    pub fn end_to_end(&mut self, setup_secs: &[f64], windows: &[Window]) {
        let (untraced, traced) = split(windows);
        self.set("setup_s", median(setup_secs));
        self.set("op_ms_p10", untraced.op_ms_p10());
        self.set("op_ms_p50", untraced.op_ms_p50());
        self.set("ops_per_s", untraced.ops_per_s());
        self.set("peak_rss_mib", machine::peak_rss_mib());
        self.note(format!(
            "samples: setup={} ops={} (untraced window {:.2}s)",
            setup_secs.len(),
            untraced.ops(),
            untraced.wall
        ));
        let at = |p: f64| percentile(&untraced.op_secs, p) * 1e3;
        self.note(format!(
            "op ms: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} max {:.3}",
            at(0.0),
            at(10.0),
            at(25.0),
            at(50.0),
            at(75.0),
            at(90.0),
            at(100.0)
        ));
        if let Some(traced) = traced {
            self.set(
                "obs.overhead_frac",
                untraced.ops_per_s() / traced.ops_per_s() - 1.0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_reports_median_op_time_and_ops_over_wall() {
        let mut w = Window::default();
        (1..=40).for_each(|k| w.push(if k == 7 { 5.0 } else { 0.2 }, 0.25 * k as f64));
        assert_eq!(w.ops(), 40);
        assert!((w.ops_per_s() - 4.0).abs() < 1e-9);
        assert!((w.op_ms_p50() - 200.0).abs() < 1e-9);
        assert!((w.op_ms_p10() - 200.0).abs() < 1e-9);
    }
}

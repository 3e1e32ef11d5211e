//! The post-processing pipeline of the paper's Fig. 3: data passes
//! through *extract → filter → map → render* stages, with the user
//! iterating on any stage's parameters.
//!
//! The pipeline is generic over the payload so concrete pipelines (the
//! volume path, the LIC path, …) share the instrumentation: per-stage
//! wall time and payload size, which is what experiment E4 reports.
//!
//! Stage timing runs through the observability layer ([`hemelb_obs`]):
//! every stage execution is a recorded span, so besides the cumulative
//! [`StageStats`] the pipeline exports a full [`hemelb_obs::ObsReport`]
//! with per-stage latency histograms (p50/p95/p99/max) and a timeline.

use hemelb_obs::{ObsReport, Recorder};

/// Instrumentation record for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name ("extract", "filter", "map", "render", …).
    pub name: String,
    /// Executions so far.
    pub calls: u64,
    /// Total wall seconds across calls.
    pub seconds: f64,
    /// Payload size estimate after the most recent call, if the payload
    /// reports one.
    pub last_bytes: Option<usize>,
}

/// Payloads that can report their transport size (for the data-reduction
/// accounting of Fig. 3 / §V).
pub trait Sized2 {
    /// Approximate bytes this payload would cost to ship.
    fn approx_bytes(&self) -> usize;
}

type Stage<T> = (String, Box<dyn FnMut(T) -> T>, StageStats);

/// A linear pipeline of named stages over payload `T`.
pub struct Pipeline<T> {
    stages: Vec<Stage<T>>,
    recorder: Recorder,
}

impl<T> Default for Pipeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Pipeline<T> {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline {
            stages: Vec::new(),
            recorder: Recorder::new(),
        }
    }

    /// Append a stage.
    pub fn stage(mut self, name: &str, f: impl FnMut(T) -> T + 'static) -> Self {
        self.stages.push((
            name.to_string(),
            Box::new(f),
            StageStats {
                name: name.to_string(),
                calls: 0,
                seconds: 0.0,
                last_bytes: None,
            },
        ));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Run the payload through every stage in order.
    pub fn run(&mut self, input: T) -> T {
        let mut data = input;
        for (_, f, stats) in self.stages.iter_mut() {
            let span = self.recorder.begin();
            data = f(data);
            let secs = span.end(&mut self.recorder, &stats.name);
            stats.seconds += secs;
            stats.calls += 1;
        }
        data
    }

    /// Per-stage statistics.
    pub fn stats(&self) -> Vec<&StageStats> {
        self.stages.iter().map(|(_, _, s)| s).collect()
    }

    /// Full observability report: one phase per stage, with the latency
    /// distribution of individual stage executions.
    pub fn obs_report(&self) -> ObsReport {
        self.recorder.report()
    }
}

impl<T: Sized2> Pipeline<T> {
    /// Like [`Pipeline::run`], additionally recording each stage's
    /// output size — the per-stage data-reduction trace.
    pub fn run_tracked(&mut self, input: T) -> T {
        let mut data = input;
        for (_, f, stats) in self.stages.iter_mut() {
            let span = self.recorder.begin();
            data = f(data);
            let secs = span.end(&mut self.recorder, &stats.name);
            stats.seconds += secs;
            stats.calls += 1;
            stats.last_bytes = Some(data.approx_bytes());
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Sized2 for Vec<f64> {
        fn approx_bytes(&self) -> usize {
            self.len() * 8
        }
    }

    #[test]
    fn stages_run_in_order() {
        let mut p: Pipeline<Vec<f64>> = Pipeline::new()
            .stage("extract", |mut v: Vec<f64>| {
                v.push(1.0);
                v
            })
            .stage("filter", |v: Vec<f64>| {
                v.into_iter().filter(|&x| x > 0.0).collect()
            })
            .stage("map", |v: Vec<f64>| v.iter().map(|x| x * 2.0).collect());
        let out = p.run(vec![-3.0, 2.0]);
        assert_eq!(out, vec![4.0, 2.0]);
        assert_eq!(p.len(), 3);
        for s in p.stats() {
            assert_eq!(s.calls, 1);
        }
    }

    #[test]
    fn tracked_run_records_shrinking_payloads() {
        let mut p: Pipeline<Vec<f64>> = Pipeline::new()
            .stage("extract", |v: Vec<f64>| v)
            .stage("filter", |v: Vec<f64>| v.into_iter().step_by(4).collect());
        p.run_tracked((0..100).map(|i| i as f64).collect());
        let stats = p.stats();
        assert_eq!(stats[0].last_bytes, Some(800));
        assert_eq!(stats[1].last_bytes, Some(200), "filter reduces 4×");
    }

    #[test]
    fn repeated_runs_accumulate() {
        let mut p: Pipeline<Vec<f64>> = Pipeline::new().stage("noop", |v: Vec<f64>| v);
        for _ in 0..5 {
            p.run(vec![1.0]);
        }
        assert_eq!(p.stats()[0].calls, 5);
        assert!(p.stats()[0].seconds >= 0.0);
    }
}

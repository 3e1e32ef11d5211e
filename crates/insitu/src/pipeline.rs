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

    /// The pipeline's recorder (e.g. to add custom counters or disable
    /// recording).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
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

/// Outcome of driving the same in situ pipeline once from the serial
/// solver and once from the thread-parallel solver (see
/// [`compare_solver_backends`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendComparison {
    /// Wall seconds for the serial solver + pipeline pass.
    pub serial_seconds: f64,
    /// Wall seconds for the parallel solver + pipeline pass.
    pub parallel_seconds: f64,
    /// Worker threads of the parallel backend.
    pub threads: usize,
    /// Time steps advanced per backend.
    pub steps: u64,
    /// Snapshots fed through the pipeline per backend.
    pub frames: usize,
    /// Whether every pipeline output matched bit-for-bit between the
    /// two backends (`f64::to_bits` equality over ρ, u and shear).
    pub bit_identical: bool,
}

fn snapshots_bit_identical(a: &hemelb_core::FieldSnapshot, b: &hemelb_core::FieldSnapshot) -> bool {
    a.rho.len() == b.rho.len()
        && a.rho
            .iter()
            .zip(&b.rho)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.u
            .iter()
            .zip(&b.u)
            .all(|(x, y)| (0..3).all(|k| x[k].to_bits() == y[k].to_bits()))
        && a.shear
            .iter()
            .zip(&b.shear)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Drive the same extract→…→render pipeline from both on-node solver
/// backends: the serial [`hemelb_core::Solver`] and the chunk-parallel
/// [`hemelb_core::ParallelSolver`] with `threads` workers. Every
/// `snapshot_every` steps a macroscopic snapshot is taken and pushed
/// through a fresh pipeline built by `make_pipeline`; the comparison
/// records wall time per backend and whether all pipeline outputs were
/// bit-identical (the determinism contract says they must be).
///
/// On a single hardware core the parallel backend cannot be faster —
/// this is a correctness-and-accounting harness, not a speedup claim.
pub fn compare_solver_backends<F>(
    geo: &std::sync::Arc<hemelb_geometry::SparseGeometry>,
    cfg: &hemelb_core::SolverConfig,
    threads: usize,
    steps: u64,
    snapshot_every: u64,
    make_pipeline: F,
) -> BackendComparison
where
    F: Fn() -> Pipeline<hemelb_core::FieldSnapshot>,
{
    assert!(snapshot_every > 0);
    let mut rec = Recorder::new();

    let span = rec.begin();
    let mut serial = hemelb_core::Solver::new(geo.clone(), cfg.clone());
    let mut serial_pipe = make_pipeline();
    let mut serial_frames = Vec::new();
    for _ in 0..steps / snapshot_every {
        serial.step_n(snapshot_every);
        serial_frames.push(serial_pipe.run(serial.snapshot()));
    }
    let serial_seconds = span.end(&mut rec, "backend.serial");

    let span = rec.begin();
    let mut par = hemelb_core::ParallelSolver::new(geo.clone(), cfg.clone(), threads);
    let mut par_pipe = make_pipeline();
    let mut par_frames = Vec::new();
    for _ in 0..steps / snapshot_every {
        par.step_n(snapshot_every);
        par_frames.push(par_pipe.run(par.snapshot()));
    }
    let parallel_seconds = span.end(&mut rec, "backend.parallel");

    let bit_identical = serial_frames.len() == par_frames.len()
        && serial_frames
            .iter()
            .zip(&par_frames)
            .all(|(a, b)| snapshots_bit_identical(a, b));
    BackendComparison {
        serial_seconds,
        parallel_seconds,
        threads,
        steps,
        frames: serial_frames.len(),
        bit_identical,
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
    fn solver_backends_feed_the_pipeline_identically() {
        use hemelb_geometry::VesselBuilder;
        let geo = std::sync::Arc::new(VesselBuilder::straight_tube(14.0, 3.0).voxelise(1.0));
        let cfg = hemelb_core::SolverConfig::pressure_driven(1.01, 0.99);
        let cmp = compare_solver_backends(&geo, &cfg, 4, 20, 5, || {
            Pipeline::new()
                .stage("extract", |s: hemelb_core::FieldSnapshot| s)
                .stage("filter", |mut s: hemelb_core::FieldSnapshot| {
                    // Zero out slow sites: a typical thresholding filter.
                    for i in 0..s.rho.len() {
                        if s.speed(i) < 1e-6 {
                            s.u[i] = [0.0; 3];
                        }
                    }
                    s
                })
        });
        assert!(cmp.bit_identical, "{cmp:?}");
        assert_eq!(cmp.frames, 4);
        assert_eq!(cmp.threads, 4);
        assert!(cmp.serial_seconds > 0.0 && cmp.parallel_seconds > 0.0);
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

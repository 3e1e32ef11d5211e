//! Experiment E20 — calibrated cost model plus the trace-driven
//! exascale projection engine.
//!
//! The paper's exascale argument projects measured small-run behaviour
//! to machines nobody can book; [`hemelb_parallel::cost`] supplies the
//! α–β–γ linear model, but its preset constants were folklore. E20
//! closes the loop in three stages:
//!
//! 1. **Calibrate.** Run the distributed LB step at several small rank
//!    counts (the fastest of a few fresh worlds at each), collecting
//!    one [`CalSample`] per timed round: the critical-path message/byte
//!    counts from `CommStats` deltas, the site-update work, and the
//!    measured wall seconds. A step's halo bytes track its message
//!    count, so every multi-rank world also runs the link probe
//!    ([`hemelb_parallel::probe_link`]) and adds its slowest rank's two
//!    samples, which separate β from α. A non-negative least-squares
//!    fit ([`hemelb_parallel::calibrate_fit`]) turns them into a
//!    [`CalibratedModel`] that carries its own residuals and R²; the
//!    projection prices with its model as fitted, and a β or γ the
//!    measurements left free fails the run.
//! 2. **Validate.** At every multi-rank world the calibrated model's
//!    predicted step time is compared against the measured one; the
//!    worst relative error must stay inside [`VALIDATION_BAND`]
//!    (asserted in-bench, and exported as
//!    `projection.validation.within_band`).
//! 3. **Project.** The largest run's partition becomes a replayable
//!    [`RunTrace`]: per-rank site counts, halo bytes, message counts,
//!    frontier fractions. The projector scales that trace to the
//!    paper's 81 M-site workload at 1k–32k ranks — surface-to-volume
//!    scaling for halos, the trace's own imbalance carried along — and
//!    prices each technique pairing: synchronous vs overlapped halo
//!    exchange, direct-send vs binary-swap compositing. The output is
//!    the paper's Table I orderings as scale-out curves.
//!
//! Results export to `out/BENCH_projection.json`. The calibrated
//! coefficients ride along losslessly (bit-split counters, see
//! [`CalibratedModel::record_to`]), so a stored report fully determines
//! the model that produced its curves.

use crate::workloads::{self, Size};
use hemelb_core::{DistSolver, SolverConfig};
use hemelb_obs::Recorder;
use hemelb_parallel::{
    calibrate_fit, probe_link, run_spmd_with_stats, CalSample, CalibratedModel, CostModel,
};
use std::fmt;
use std::time::Instant;

/// Largest relative error the calibrated model may show against any
/// measured multi-rank step time (|predicted − measured| / measured).
/// Generous by design: in-process rank-threads on a shared CI box jitter
/// far more than a dedicated interconnect, and the band exists to catch
/// a model that stopped describing the machine, not 10 % noise. Over
/// 240 `--size tiny --ranks 4` runs (EXPERIMENTS.md E20) the 2-rank row
/// read a median of +0.10–0.11 and at worst +0.322, the 4-rank row
/// stayed within 0.10.
pub const VALIDATION_BAND: f64 = 0.5;

/// Projected rank counts: 1k to the paper's 32k in powers of two.
pub const PROJECTED_RANKS: [u64; 6] = [1024, 2048, 4096, 8192, 16_384, 32_768];

/// The paper's headline workload: 81 M lattice sites.
pub const TARGET_SITES: u64 = 81_000_000;

/// Composited image payload per frame (1024² RGBA), the volume the
/// direct-send vs binary-swap comparison moves.
pub const COMPOSITE_IMAGE_BYTES: u64 = 1024 * 1024 * 4;

/// Timed rounds per world. Only the [`KEEP`] fastest feed the fit and
/// the validation measurement: interference on a shared box is strictly
/// additive, so slow outlier rounds carry scheduler noise, not machine
/// coefficients, and one bad round in *any* world would otherwise drag
/// the global fit outside the validation band of the quiet worlds.
const ROUNDS: usize = 5;

/// Fastest rounds kept per world (see [`ROUNDS`]).
const KEEP: usize = 3;

/// Fresh worlds measured per rank count; only the fastest feeds the
/// fit and the validation. On a shared box a whole world can run slow,
/// every round of it (the 2-rank step here is about 0.10 ms in most
/// worlds and 0.20 ms in about one in five), so trimming rounds within
/// a world cannot remove it. The worlds of every rank count are
/// measured in turn, so a spell of load on the box slows one world of
/// each, not every world of one.
const WORLDS: usize = 5;

/// What one rank measures in a calibration world.
struct RankMeasure {
    sites: usize,
    halo_bytes_per_step: u64,
    frontier_sites: usize,
    /// Per timed round: (msgs, bytes, wall secs) from `CommStats`
    /// deltas around `step_n`.
    rounds: Vec<(u64, u64, f64)>,
    /// The link probe's two samples, taken after the timed rounds in a
    /// multi-rank world.
    probe: Option<[CalSample; 2]>,
}

/// One measured world, reduced to what calibration and tracing need.
struct WorldMeasure {
    ranks: usize,
    steps: u64,
    per_rank: Vec<RankMeasure>,
}

impl WorldMeasure {
    /// Per-round wall seconds of the slowest rank (a bulk-synchronous
    /// step is gated by its slowest rank).
    fn round_walls(&self) -> Vec<f64> {
        (0..ROUNDS)
            .map(|i| {
                self.per_rank
                    .iter()
                    .map(|r| r.rounds[i].2)
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Indices of the [`KEEP`] fastest rounds, ascending by wall time.
    fn kept_rounds(&self) -> Vec<usize> {
        let walls = self.round_walls();
        let mut idx: Vec<usize> = (0..ROUNDS).collect();
        idx.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
        idx.truncate(KEEP);
        idx
    }

    /// Critical-path calibration samples: one per kept round, built from
    /// the per-rank maxima (the wall time pairs with the heaviest rank's
    /// counts), then the slowest rank's probe sample at each size.
    fn samples(&self) -> Vec<CalSample> {
        let max_sites = self.per_rank.iter().map(|r| r.sites).max().unwrap_or(0) as u64;
        let rounds = self.kept_rounds().into_iter().map(|i| {
            let (msgs, bytes, secs) = self
                .per_rank
                .iter()
                .map(|r| r.rounds[i])
                .fold((0, 0, 0.0f64), |(m, b, s), (rm, rb, rs)| {
                    (m.max(rm), b.max(rb), s.max(rs))
                });
            CalSample {
                msgs,
                bytes,
                work: max_sites * self.steps,
                secs,
            }
        });
        let probes = self.per_rank.iter().filter_map(|r| r.probe);
        let slowest = (0..2).filter_map(|k| {
            probes
                .clone()
                .map(|p| p[k])
                .max_by(|a, b| a.secs.total_cmp(&b.secs))
        });
        rounds.chain(slowest).collect()
    }

    /// Median over the kept rounds of the slowest rank's wall seconds
    /// per step — the same trimmed population the fit consumed, so
    /// validation compares like with like.
    fn measured_secs_per_step(&self) -> f64 {
        let walls = self.round_walls();
        let kept = self.kept_rounds();
        walls[kept[kept.len() / 2]] / self.steps as f64
    }
}

/// Measure one SPMD world: k-way decomposition, warm-up, then `ROUNDS`
/// timed rounds of `steps` LB steps each with `CommStats` deltas.
fn measure_world(size: Size, steps: u64, ranks: usize) -> WorldMeasure {
    let geo = workloads::aneurysm(size);
    let out = run_spmd_with_stats(ranks, move |comm| {
        let owner = if comm.size() == 1 {
            vec![0usize; geo.fluid_count()]
        } else {
            workloads::kway_owner(&geo, comm.size())
        };
        let mut solver = DistSolver::new(
            geo.clone(),
            owner,
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
        )
        .unwrap();
        solver.step_n(steps.min(2)).unwrap();
        let mut rounds = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let before = comm.stats();
            let t0 = Instant::now();
            solver.step_n(steps).unwrap();
            let secs = t0.elapsed().as_secs_f64();
            let delta = comm.stats().delta_since(&before);
            rounds.push((delta.total_msgs(), delta.total_bytes(), secs));
        }
        let probe =
            (comm.size() > 1).then(|| probe_link(comm).expect("link probe round the rank ring"));
        RankMeasure {
            sites: solver.local_sites().len(),
            halo_bytes_per_step: solver.halo_send_volume() as u64 * 8,
            frontier_sites: solver.partition().frontier_count(),
            rounds,
            probe,
        }
    });
    WorldMeasure {
        ranks,
        steps,
        per_rank: out.results,
    }
}

/// A replayable capture of one run's partition and per-step
/// communication pattern — the seed the projector scales out.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Ranks in the traced world.
    pub ranks: usize,
    /// Per-rank fluid sites.
    pub sites: Vec<usize>,
    /// Per-rank halo bytes sent per step.
    pub halo_bytes_per_step: Vec<u64>,
    /// Per-rank halo messages per step (≈ 2 × neighbour count).
    pub halo_msgs_per_step: Vec<f64>,
    /// Per-rank frontier sites (collided before the sends post).
    pub frontier_sites: Vec<usize>,
}

impl RunTrace {
    fn from_world(w: &WorldMeasure) -> RunTrace {
        RunTrace {
            ranks: w.ranks,
            sites: w.per_rank.iter().map(|r| r.sites).collect(),
            halo_bytes_per_step: w.per_rank.iter().map(|r| r.halo_bytes_per_step).collect(),
            halo_msgs_per_step: w
                .per_rank
                .iter()
                .map(|r| r.rounds[0].0 as f64 / w.steps as f64)
                .collect(),
            frontier_sites: w.per_rank.iter().map(|r| r.frontier_sites).collect(),
        }
    }

    /// Site imbalance λ = max / mean, carried unchanged to scale (the
    /// partitioner quality, not the machine, sets it).
    pub fn imbalance(&self) -> f64 {
        let mean = self.sites.iter().sum::<usize>() as f64 / self.ranks.max(1) as f64;
        let max = self.sites.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Surface-to-volume halo coefficient: mean over ranks of
    /// `halo_bytes / sites^(2/3)`. A subdomain's halo is its surface,
    /// so bytes scale as the 2/3 power of its volume; the coefficient
    /// folds in the sparse geometry's real (non-cubic) surface shape
    /// and the lattice's population mix — measured, not the retired
    /// `5 populations × 8 B` hand estimate.
    pub fn halo_coefficient(&self) -> f64 {
        let terms: Vec<f64> = self
            .sites
            .iter()
            .zip(&self.halo_bytes_per_step)
            .filter(|&(&s, _)| s > 0)
            .map(|(&s, &b)| b as f64 / (s as f64).powf(2.0 / 3.0))
            .collect();
        if terms.is_empty() {
            0.0
        } else {
            terms.iter().sum::<f64>() / terms.len() as f64
        }
    }

    /// Mean halo messages per rank per step. Neighbour counts in a
    /// 3-D decomposition are bounded by the geometry, not the machine
    /// size, so the projector holds this constant with P.
    pub fn mean_halo_msgs(&self) -> f64 {
        if self.ranks == 0 {
            0.0
        } else {
            self.halo_msgs_per_step.iter().sum::<f64>() / self.ranks as f64
        }
    }

    /// Mean frontier fraction of a rank's sites — the share of compute
    /// *not* available to hide the halo exchange behind.
    pub fn frontier_fraction(&self) -> f64 {
        let terms: Vec<f64> = self
            .sites
            .iter()
            .zip(&self.frontier_sites)
            .filter(|&(&s, _)| s > 0)
            .map(|(&s, &f)| f as f64 / s as f64)
            .collect();
        if terms.is_empty() {
            0.0
        } else {
            terms.iter().sum::<f64>() / terms.len() as f64
        }
    }
}

/// Calibrated model vs measurement at one world size.
#[derive(Debug, Clone, Copy)]
pub struct ValidationRow {
    /// Ranks in the measured world.
    pub ranks: usize,
    /// Median measured wall seconds per step (slowest rank).
    pub measured_secs: f64,
    /// Calibrated model's prediction for the same critical path.
    pub predicted_secs: f64,
    /// Signed relative error `(predicted − measured) / measured`.
    pub rel_error: f64,
}

/// One point on the scale-out curves.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionRow {
    /// Projected ranks.
    pub ranks: u64,
    /// Mean sites per rank at this scale.
    pub sites_per_rank: f64,
    /// Compute seconds per step on the slowest rank (trace imbalance
    /// applied).
    pub compute_secs: f64,
    /// Synchronous halo-exchange seconds per step.
    pub halo_sync_secs: f64,
    /// Residual halo seconds per step under the overlapped schedule
    /// (`max(0, halo − interior compute)`).
    pub halo_overlap_secs: f64,
    /// Direct-send compositing seconds per frame: every rank sends to
    /// one compositor, `(P−1)·α + image/β` at the root.
    pub composite_direct_secs: f64,
    /// Binary-swap compositing seconds per frame:
    /// `⌈log₂P⌉·α + 2·(image/β)·(P−1)/P`.
    pub composite_swap_secs: f64,
}

impl ProjectionRow {
    /// Step+frame seconds for a technique pairing.
    pub fn step_secs(&self, overlapped: bool, binary_swap: bool) -> f64 {
        let halo = if overlapped {
            self.halo_overlap_secs
        } else {
            self.halo_sync_secs
        };
        let comp = if binary_swap {
            self.composite_swap_secs
        } else {
            self.composite_direct_secs
        };
        self.compute_secs + halo + comp
    }
}

/// The E20 result.
pub struct ProjectionResult {
    /// Fluid sites in the measured workload.
    pub sites: usize,
    /// Steps per timed round.
    pub steps: u64,
    /// The fitted model with its fit quality; the curves are priced
    /// with its model.
    pub calibration: CalibratedModel,
    /// Model-vs-measurement at every multi-rank world.
    pub validation: Vec<ValidationRow>,
    /// Whether every validation row stayed inside [`VALIDATION_BAND`].
    pub within_band: bool,
    /// The captured trace the projector scaled.
    pub trace: RunTrace,
    /// Scale-out curves at [`PROJECTED_RANKS`].
    pub curves: Vec<ProjectionRow>,
}

/// Scale the trace to `ranks` under `model`.
fn project(model: &CostModel, trace: &RunTrace, ranks: u64) -> ProjectionRow {
    let sites_per_rank = TARGET_SITES as f64 / ranks as f64;
    let max_sites = sites_per_rank * trace.imbalance();
    let compute_secs = model.time(0, 0, max_sites.round() as u64);
    let halo_bytes = trace.halo_coefficient() * max_sites.powf(2.0 / 3.0);
    let halo_msgs = trace.mean_halo_msgs().max(1.0);
    let halo_sync_secs = model.alpha * halo_msgs + halo_bytes / model.beta;
    let interior_compute = compute_secs * (1.0 - trace.frontier_fraction());
    let halo_overlap_secs = (halo_sync_secs - interior_compute).max(0.0);
    let image = COMPOSITE_IMAGE_BYTES as f64;
    let composite_direct_secs = model.alpha * (ranks - 1) as f64 + image / model.beta;
    let composite_swap_secs = model.alpha * (ranks as f64).log2().ceil()
        + 2.0 * (image / model.beta) * (ranks - 1) as f64 / ranks as f64;
    ProjectionRow {
        ranks,
        sites_per_rank,
        compute_secs,
        halo_sync_secs,
        halo_overlap_secs,
        composite_direct_secs,
        composite_swap_secs,
    }
}

/// Run E20: calibrate at 1..=`max_ranks` rank worlds (powers of two,
/// the fastest of `WORLDS` fresh worlds at each), validate the fit
/// against every multi-rank measurement, capture the largest world's
/// trace and project it to [`PROJECTED_RANKS`].
/// Exports `out/BENCH_projection.json`.
///
/// Panics when the fit's validation error leaves [`VALIDATION_BAND`],
/// or when it leaves β or γ unpriced (infinite): curves from a model
/// that cannot reproduce the measurements it was fitted to, or that
/// prices bytes or work at nothing, are not worth exporting.
pub fn run(size: Size, steps: u64, max_ranks: usize) -> ProjectionResult {
    let geo = workloads::aneurysm(size);
    let sites = geo.fluid_count();
    drop(geo);

    let rank_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&p| p <= max_ranks.max(2))
        .collect();
    let mut worlds: Vec<Option<WorldMeasure>> = rank_counts.iter().map(|_| None).collect();
    for _ in 0..WORLDS {
        for (kept, &p) in worlds.iter_mut().zip(&rank_counts) {
            let w = measure_world(size, steps, p);
            let secs = w.measured_secs_per_step();
            if kept
                .as_ref()
                .is_none_or(|k| secs < k.measured_secs_per_step())
            {
                *kept = Some(w);
            }
        }
    }
    let worlds: Vec<WorldMeasure> = worlds.into_iter().flatten().collect();

    let samples: Vec<CalSample> = worlds.iter().flat_map(|w| w.samples()).collect();
    let calibration = calibrate_fit(&samples).expect("calibration fit from measured worlds");
    let model = calibration.model;

    let validation: Vec<ValidationRow> = worlds
        .iter()
        .filter(|w| w.ranks >= 2)
        .map(|w| {
            let measured = w.measured_secs_per_step();
            // Predict the same critical path the measurement saw: the
            // per-rank maxima of one round's counts, over one step.
            let s = &w.samples()[0];
            let predicted = model.time(s.msgs, s.bytes, s.work) / w.steps as f64;
            ValidationRow {
                ranks: w.ranks,
                measured_secs: measured,
                predicted_secs: predicted,
                rel_error: if measured > 0.0 {
                    (predicted - measured) / measured
                } else {
                    0.0
                },
            }
        })
        .collect();
    let within_band = validation
        .iter()
        .all(|v| v.rel_error.abs() <= VALIDATION_BAND);

    let trace = RunTrace::from_world(worlds.last().expect("at least one world measured"));
    let curves: Vec<ProjectionRow> = PROJECTED_RANKS
        .iter()
        .map(|&p| project(&model, &trace, p))
        .collect();

    // The in-bench asserts come *before* the export: curves from a
    // model that cannot reproduce the measurements it was fitted to, or
    // that prices bytes or work at nothing, must never land in out/.
    assert!(
        within_band,
        "calibrated model left the validation band (|err| > {VALIDATION_BAND}): {:?}",
        validation
            .iter()
            .map(|v| (v.ranks, v.rel_error))
            .collect::<Vec<_>>()
    );
    assert!(
        model.beta.is_finite() && model.gamma.is_finite(),
        "the fit left a term unpriced: {model:?}"
    );

    // Export: workload identity, the validation flag, then the
    // machine-dependent coefficients, residuals and curve values
    // (`*_hi`/`*_lo` bit splits, `*_ns` nanoseconds, `*_x1000` ratios).
    let mut rec = Recorder::new();
    rec.count("projection.sites", sites as u64);
    rec.count("projection.ranks", *rank_counts.last().unwrap() as u64);
    rec.count("projection.steps", steps);
    rec.count("projection.validation.within_band", u64::from(within_band));
    calibration.record_to(&mut rec, "projection.model");
    let ns = |s: f64| (s * 1e9).round().max(0.0) as u64;
    for v in &validation {
        let cell = format!("projection.val.r{}", v.ranks);
        rec.count(&format!("{cell}.measured_ns"), ns(v.measured_secs));
        rec.count(&format!("{cell}.predicted_ns"), ns(v.predicted_secs));
        rec.count(
            &format!("{cell}.err_abs_x1000"),
            (v.rel_error.abs() * 1000.0).round() as u64,
        );
    }
    for c in &curves {
        let cell = format!("projection.p{:05}", c.ranks);
        rec.count(&format!("{cell}.compute_ns"), ns(c.compute_secs));
        rec.count(&format!("{cell}.halo_sync_ns"), ns(c.halo_sync_secs));
        rec.count(&format!("{cell}.halo_overlap_ns"), ns(c.halo_overlap_secs));
        rec.count(
            &format!("{cell}.comp_direct_ns"),
            ns(c.composite_direct_secs),
        );
        rec.count(&format!("{cell}.comp_swap_ns"), ns(c.composite_swap_secs));
        rec.count(
            &format!("{cell}.step_sync_direct_ns"),
            ns(c.step_secs(false, false)),
        );
        rec.count(
            &format!("{cell}.step_overlap_swap_ns"),
            ns(c.step_secs(true, true)),
        );
    }
    let path = workloads::out_dir().join("BENCH_projection.json");
    std::fs::write(&path, rec.report().to_json()).expect("BENCH_projection.json written");

    ProjectionResult {
        sites,
        steps,
        calibration,
        validation,
        within_band,
        trace,
        curves,
    }
}

impl fmt::Display for ProjectionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Calibrated α–β–γ model — {} sites, {} samples, R² {:.4}",
            self.sites, self.calibration.samples, self.calibration.r2
        )?;
        let m = &self.calibration.model;
        writeln!(
            f,
            "  α = {:.3e} s/msg, β = {:.3e} B/s, γ = {:.3e} site-updates/s",
            m.alpha, m.beta, m.gamma
        )?;
        writeln!(
            f,
            "validation (band ±{:.0}%): {}",
            VALIDATION_BAND * 100.0,
            if self.within_band { "PASS" } else { "FAIL" }
        )?;
        writeln!(
            f,
            "{:<6} {:>14} {:>14} {:>8}",
            "ranks", "measured/step", "predicted", "error"
        )?;
        for v in &self.validation {
            writeln!(
                f,
                "{:<6} {:>12.3}ms {:>12.3}ms {:>+7.1}%",
                v.ranks,
                v.measured_secs * 1e3,
                v.predicted_secs * 1e3,
                v.rel_error * 100.0
            )?;
        }
        writeln!(
            f,
            "trace: {} ranks, λ = {:.3}, halo k = {:.1} B/site^⅔, {:.1} msgs/rank/step, \
             frontier {:.1}%",
            self.trace.ranks,
            self.trace.imbalance(),
            self.trace.halo_coefficient(),
            self.trace.mean_halo_msgs(),
            self.trace.frontier_fraction() * 100.0
        )?;
        writeln!(
            f,
            "projection to {} sites (µs/step+frame per technique):",
            TARGET_SITES
        )?;
        writeln!(
            f,
            "{:<7} {:>10} {:>10} {:>10} {:>11} {:>11} {:>12} {:>12}",
            "ranks",
            "compute",
            "halo sync",
            "halo ovl",
            "comp direct",
            "comp swap",
            "sync+direct",
            "ovl+swap"
        )?;
        for c in &self.curves {
            writeln!(
                f,
                "{:<7} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>11.1} {:>12.1} {:>12.1}",
                c.ranks,
                c.compute_secs * 1e6,
                c.halo_sync_secs * 1e6,
                c.halo_overlap_secs * 1e6,
                c.composite_direct_secs * 1e6,
                c.composite_swap_secs * 1e6,
                c.step_secs(false, false) * 1e6,
                c.step_secs(true, true) * 1e6
            )?;
        }
        writeln!(f, "JSON: out/BENCH_projection.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_calibrates_validates_and_scales_out() {
        let result = run(Size::Tiny, 3, 4);
        // The fit consumed the kept rounds of the 1-, 2- and 4-rank
        // worlds and the two probe samples of each multi-rank world, no
        // more and no fewer.
        assert_eq!(result.calibration.samples, 3 * KEEP + 2 * 2);
        // The probe gives β a signal of its own: every term is fitted.
        let model = result.calibration.model;
        assert!(model.beta.is_finite() && model.beta > 0.0, "{model:?}");
        assert!(model.gamma.is_finite() && model.gamma > 0.0, "{model:?}");
        // Validation covered the multi-rank worlds and passed (run()
        // itself asserts the band; this pins the export flag).
        assert_eq!(result.validation.len(), 2, "worlds at 2 and 4 ranks");
        assert!(result.within_band);
        // Scale-out curves: one row per projected rank count, with
        // compute falling and direct-send compositing rising in P.
        assert_eq!(result.curves.len(), PROJECTED_RANKS.len());
        for pair in result.curves.windows(2) {
            assert!(pair[1].compute_secs < pair[0].compute_secs);
            // α ≥ 0, so direct-send can only grow with P (flat when the
            // calibrated latency came out zero).
            assert!(pair[1].composite_direct_secs >= pair[0].composite_direct_secs);
        }
        for c in &result.curves {
            // Overlap can only hide cost, never add it.
            assert!(c.halo_overlap_secs <= c.halo_sync_secs + 1e-15);
            assert!(
                c.step_secs(true, false) <= c.step_secs(false, false) + 1e-15,
                "overlapped schedule cannot cost more than synchronous"
            );
            assert!(c.composite_direct_secs > 0.0 && c.composite_swap_secs > 0.0);
        }
        assert!(workloads::out_dir().join("BENCH_projection.json").exists());
    }

    #[test]
    fn binary_swap_wins_when_latency_dominates() {
        // The paper's Table I ordering: on a real interconnect (CrayXe6
        // α = 1.5 µs) direct-send pays (P−1)·α while binary-swap pays
        // ⌈log₂P⌉·α — at 32k ranks the α term decides it, despite swap
        // moving the image nearly twice. A calibrated shared-memory α
        // near zero legitimately flips this, which is exactly what the
        // curves exist to show.
        let model = CostModel::for_machine(hemelb_parallel::MachineModel::CrayXe6);
        let trace = RunTrace {
            ranks: 4,
            sites: vec![800; 4],
            halo_bytes_per_step: vec![4000; 4],
            halo_msgs_per_step: vec![6.0; 4],
            frontier_sites: vec![200; 4],
        };
        for &p in &PROJECTED_RANKS {
            let row = project(&model, &trace, p);
            assert!(
                row.composite_swap_secs < row.composite_direct_secs,
                "at {p} ranks under CrayXe6, swap must beat direct"
            );
        }
        // And a zero-latency machine flips the ordering.
        let free_latency = CostModel {
            alpha: 0.0,
            ..model
        };
        let row = project(&free_latency, &trace, 32_768);
        assert!(row.composite_direct_secs < row.composite_swap_secs);
    }

    #[test]
    fn trace_statistics_are_sane() {
        let w = measure_world(Size::Tiny, 2, 2);
        let trace = RunTrace::from_world(&w);
        assert_eq!(trace.ranks, 2);
        assert!(trace.imbalance() >= 1.0);
        assert!(trace.halo_coefficient() > 0.0, "2 ranks exchange halos");
        assert!(trace.mean_halo_msgs() > 0.0);
        assert!((0.0..=1.0).contains(&trace.frontier_fraction()));
    }
}

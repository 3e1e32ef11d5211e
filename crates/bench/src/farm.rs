//! Experiment E19 — the simulation farm: a parameter sweep over
//! synthetic vasculature run as concurrent multi-rank jobs on one
//! shared worker pool, against the sequential "script" baseline that
//! runs the same sweep one job at a time with per-job pre-processing.
//!
//! The co-design claim being measured: clinically useful answers come
//! from *sweeps* — many closely-related runs over one vasculature — and
//! pre-processing (voxelise, partition) is a first-class, *repeated*
//! cost in that regime. The farm memoises pre-processing products
//! across the sweep (the [`hemelb_farm::PrepCache`]), so the saturated
//! farm's jobs/hour beats the baseline even on a single core; the gap
//! widens with idle cores.
//!
//! The run also injects one `KillRank` into a designated job (with a
//! checkpoint cadence) and asserts **inline** that every farm job's
//! final-field digest — including the killed-and-recovered job — equals
//! the clean sequential baseline's digest: recovery is bit-exact and
//! neighbouring jobs are unperturbed, in a single assertion.
//!
//! Results export to `out/BENCH_farm.json`, an uploaded artefact; the
//! counters that must not move are asserted by this module's test.

use crate::workloads::{self, Size};
use hemelb_farm::{Drive, FarmConfig, FarmScheduler, GeometryKind, JobSpec, Scenario};
use hemelb_obs::Recorder;
use hemelb_parallel::{FaultEvent, FaultKind, FaultPlan, TagClass};
use std::collections::BTreeMap;
use std::fmt;

/// Fault-clock step at which the designated job's rank 1 dies.
const KILL_STEP: u64 = 3;
/// Checkpoint cadence of the designated kill job.
const KILL_CHECKPOINT_EVERY: u64 = 2;
/// Timed repetitions per configuration; the best (shortest makespan)
/// is kept. Millisecond-scale farm runs are noisy on shared boxes;
/// best-of-N keeps the printed throughput comparable run to run (digest
/// assertions still run on every rep).
const REPS: usize = 5;

/// One farm configuration of the saturation sweep.
#[derive(Debug, Clone)]
pub struct FarmRow {
    /// Rank slots in the shared pool.
    pub slots: usize,
    /// Wall seconds, first dispatch to last commit.
    pub makespan_secs: f64,
    /// Completed-job throughput.
    pub jobs_per_hour: f64,
    /// `jobs_per_hour / sequential baseline jobs_per_hour`.
    pub speedup: f64,
    /// Queue-wait p95 across jobs, seconds.
    pub queue_wait_p95: f64,
    /// Submission-to-commit latency p95 across jobs, seconds.
    pub latency_p95: f64,
    /// Pre-processing cache hits of this run.
    pub cache_hits: u64,
    /// Pre-processing builds of this run.
    pub cache_misses: u64,
    /// In-world kill restarts observed (the injected kill).
    pub restarts: u64,
}

/// The E19 result.
pub struct FarmBenchResult {
    /// Jobs in the sweep.
    pub jobs: usize,
    /// Name of the job carrying the injected kill.
    pub kill_job: String,
    /// Sequential-baseline wall seconds for the whole sweep.
    pub seq_secs: f64,
    /// Sequential-baseline throughput.
    pub seq_jobs_per_hour: f64,
    /// One row per pool size, ascending.
    pub rows: Vec<FarmRow>,
    /// Whether the killed job replayed bit-exactly (digest equality
    /// with the clean baseline) *and* actually died at least once.
    pub kill_replay_bit_exact: bool,
}

/// The sweep: viscosity × pressure drop × waveform over two synthetic
/// vasculatures, mixed rank counts, two tenants.
fn sweep(size: Size) -> Vec<JobSpec> {
    // dx is chosen so pre-processing (voxelise + multilevel partition)
    // is a visible share of each job — the regime the farm amortises.
    let (dx, steps) = match size {
        Size::Tiny => (0.5, 4u64),
        Size::Small => (0.35, 8),
        Size::Medium => (0.25, 10),
    };
    let tube = GeometryKind::Tube {
        length: 10.0,
        radius: 2.4,
    };
    let bif = GeometryKind::Bifurcation {
        parent_len: 8.0,
        child_len: 6.0,
        radius: 2.0,
        half_angle: 0.5,
    };
    let mut jobs = Vec::new();
    // Tenant "icu": a viscosity (tau) sweep over the tube at 2 ranks.
    for tau in [0.65, 0.7, 0.8, 0.9, 1.0, 1.1] {
        jobs.push(JobSpec::new(
            format!("icu-tube-tau{tau}"),
            "icu",
            Scenario {
                geometry: tube,
                dx,
                drive: Drive::Pressure {
                    rho_in: 1.01,
                    rho_out: 0.99,
                },
                tau,
                steps,
                ranks: 2,
            },
        ));
    }
    // Tenant "lab": pressure-drop and waveform variants over the
    // bifurcation, mixed rank counts.
    for (i, rho_in) in [1.005, 1.01, 1.02, 1.03].into_iter().enumerate() {
        jobs.push(JobSpec::new(
            format!("lab-bif-dp{i}"),
            "lab",
            Scenario {
                geometry: bif,
                dx,
                drive: Drive::Pressure {
                    rho_in,
                    rho_out: 0.99,
                },
                tau: 0.8,
                steps,
                ranks: 2,
            },
        ));
    }
    for (i, amplitude) in [0.3, 0.6].into_iter().enumerate() {
        jobs.push(JobSpec::new(
            format!("lab-bif-pulse{i}"),
            "lab",
            Scenario {
                geometry: bif,
                dx,
                drive: Drive::Pulsatile {
                    peak: 0.04,
                    amplitude,
                    period: 4,
                },
                tau: 0.8,
                steps,
                ranks: 1,
            },
        ));
    }
    jobs
}

/// The designated kill job: checkpoint cadence plus a scheduled
/// rank-death mid-run. Applied to the first 2-rank job of the sweep.
fn arm_kill(jobs: &mut [JobSpec]) -> String {
    let victim = jobs
        .iter_mut()
        .find(|j| j.scenario.ranks >= 2)
        .expect("sweep has a multi-rank job");
    victim.checkpoint_every = Some(KILL_CHECKPOINT_EVERY);
    victim.faults = Some(FaultPlan::new(vec![FaultEvent {
        rank: 1,
        class: TagClass::Halo,
        step: KILL_STEP,
        kind: FaultKind::KillRank,
    }]));
    victim.name.clone()
}

fn farm_config(slots: usize, tag: &str) -> FarmConfig {
    FarmConfig {
        slots,
        backoff_ms: 5,
        workdir: std::env::temp_dir()
            .join(format!("hemelb_farm_bench_{tag}_{}", std::process::id())),
        ..Default::default()
    }
}

/// Run E19: the sequential baseline, then the farm at pool sizes
/// {1, 2, 4, 8} clipped to `max_slots`, asserting digest equality
/// between every farm run and the baseline.
pub fn run(size: Size, max_slots: usize) -> FarmBenchResult {
    let mut jobs = sweep(size);
    let kill_job = arm_kill(&mut jobs);
    let n = jobs.len();

    // Sequential "script" baseline: one job at a time, each with its
    // own fresh pre-processing (the per-run `writeInput` pattern), no
    // faults — this produces the reference digests. Best of `REPS`
    // per job.
    let mut seq_secs = 0.0;
    let mut seq_digests: BTreeMap<String, u64> = BTreeMap::new();
    for spec in &jobs {
        let mut best = f64::INFINITY;
        for rep_i in 0..REPS {
            let mut farm = FarmScheduler::new(farm_config(spec.scenario.ranks, "seq"));
            farm.submit(JobSpec::new(
                spec.name.clone(),
                spec.tenant.clone(),
                spec.scenario.clone(),
            ));
            let rep = farm.run();
            assert_eq!(rep.completed(), 1, "baseline job failed: {:?}", rep.records);
            best = best.min(rep.makespan_secs);
            if rep_i == 0 {
                seq_digests.extend(rep.digests());
            } else {
                assert_eq!(rep.digests(), {
                    let mut one = BTreeMap::new();
                    one.insert(spec.name.clone(), seq_digests[&spec.name]);
                    one
                });
            }
        }
        seq_secs += best;
    }
    let seq_jobs_per_hour = n as f64 * 3600.0 / seq_secs.max(1e-9);

    let mut rec = Recorder::new();
    let mut rows = Vec::new();
    let mut kill_replay_bit_exact = true;
    let slot_list: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&s| s <= max_slots.max(2))
        .collect();
    for &slots in &slot_list {
        let mut best: Option<hemelb_farm::FarmReport> = None;
        for _ in 0..REPS {
            let mut farm = FarmScheduler::new(farm_config(slots, &format!("s{slots}")));
            farm.set_tenant_weight("icu", 2.0);
            farm.set_tenant_weight("lab", 1.0);
            for spec in &jobs {
                farm.submit(spec.clone());
            }
            let report = farm.run();
            assert_eq!(
                report.completed(),
                n,
                "farm run at {slots} slots lost jobs:\n{}",
                report.render_table()
            );
            // THE acceptance assertion, inline: every farm job — the
            // killed-and-recovered one included — lands bit-exactly on
            // the clean sequential baseline. One equality covers both
            // recovery fidelity and neighbour isolation, on every rep.
            assert_eq!(
                report.digests(),
                seq_digests,
                "farm digests diverged from the sequential baseline at {slots} slots"
            );
            if best
                .as_ref()
                .is_none_or(|b| report.makespan_secs < b.makespan_secs)
            {
                best = Some(report);
            }
        }
        let report = best.expect("at least one rep ran");
        let restarts = report.restarts();
        let killed = report
            .records
            .iter()
            .find(|r| r.name == kill_job)
            .expect("kill job ran");
        kill_replay_bit_exact &= restarts >= 1 && killed.restarts >= 1;
        let wait = report.queue_wait_hist();
        let lat = report.latency_hist();
        for r in &report.records {
            rec.record_secs(&format!("farm.s{slots}.queue_wait"), r.queue_wait_secs);
            rec.record_secs(&format!("farm.s{slots}.latency"), r.latency_secs);
        }
        rec.record_secs(&format!("farm.s{slots}.makespan"), report.makespan_secs);
        let jph = report.jobs_per_hour();
        rec.count(
            &format!("farm.s{slots}.jobs_per_hour_milli"),
            (jph * 1000.0) as u64,
        );
        rows.push(FarmRow {
            slots,
            makespan_secs: report.makespan_secs,
            jobs_per_hour: jph,
            speedup: jph / seq_jobs_per_hour.max(1e-9),
            queue_wait_p95: wait.p95(),
            latency_p95: lat.p95(),
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            restarts,
        });
    }

    // The saturation point is the best throughput across the pool-size
    // sweep — the farm's capacity claim, robust to one noisy row.
    let saturated = rows
        .iter()
        .max_by(|a, b| a.jobs_per_hour.total_cmp(&b.jobs_per_hour))
        .expect("at least one pool size ran");
    rec.count("farm.jobs", n as u64);
    rec.count("farm.speedup_permille", (saturated.speedup * 1000.0) as u64);
    rec.count(
        "farm.kill_replay_bit_exact",
        u64::from(kill_replay_bit_exact),
    );
    rec.count("farm.kill_restarts", saturated.restarts);
    rec.count("farm.cache.hits", saturated.cache_hits);
    rec.count("farm.cache.misses", saturated.cache_misses);
    rec.record_secs("farm.seq.makespan", seq_secs);
    rec.count(
        "farm.seq.jobs_per_hour_milli",
        (seq_jobs_per_hour * 1000.0) as u64,
    );
    let path = workloads::out_dir().join("BENCH_farm.json");
    std::fs::write(&path, rec.report().to_json()).expect("BENCH_farm.json written");

    FarmBenchResult {
        jobs: n,
        kill_job,
        seq_secs,
        seq_jobs_per_hour,
        rows,
        kill_replay_bit_exact,
    }
}

impl fmt::Display for FarmBenchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Simulation farm — {} jobs (2 tenants, weights icu:lab = 2:1), injected kill on \
             '{}' (rank 1 at fault step {KILL_STEP}, checkpoint every {KILL_CHECKPOINT_EVERY})",
            self.jobs, self.kill_job
        )?;
        writeln!(
            f,
            "sequential baseline: {:.2}s for the sweep ({:.1} jobs/hour, per-job pre-processing)",
            self.seq_secs, self.seq_jobs_per_hour
        )?;
        writeln!(
            f,
            "{:<6} {:>10} {:>12} {:>9} {:>11} {:>11} {:>11} {:>9}",
            "slots",
            "makespan",
            "jobs/hour",
            "speedup",
            "wait p95",
            "lat p95",
            "prep hits",
            "restarts"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:>9.2}s {:>12.1} {:>8.2}x {:>10.3}s {:>10.3}s {:>5}/{:<5} {:>9}",
                r.slots,
                r.makespan_secs,
                r.jobs_per_hour,
                r.speedup,
                r.queue_wait_p95,
                r.latency_p95,
                r.cache_hits,
                r.cache_hits + r.cache_misses,
                r.restarts,
            )?;
        }
        writeln!(
            f,
            "kill replay bit-exact (digest equality with clean baseline): {}",
            self.kill_replay_bit_exact
        )?;
        writeln!(f, "JSON: out/BENCH_farm.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_bench_amortises_prep_and_replays_the_kill_bit_exactly() {
        // `run` asserts digest equality against the baseline inline;
        // reaching the assertions below means recovery was bit-exact
        // and neighbours were unperturbed. This is the run CI's
        // `farm-smoke` stage does, so the counters are pinned as
        // equalities: they depend on the sweep, not on the clock.
        let result = run(Size::Tiny, 2);
        assert_eq!(result.jobs, 12);
        assert_eq!(result.rows.len(), 2, "pool sizes 1 and 2");
        assert!(result.kill_replay_bit_exact, "kill must fire and replay");
        for row in &result.rows {
            assert!(row.makespan_secs > 0.0 && row.jobs_per_hour > 0.0);
            // Three lookups per job; two geometries and three
            // (geometry, ranks) owner maps are all that is ever built,
            // however many jobs race on a key.
            assert_eq!(row.cache_hits + row.cache_misses, 36);
            assert_eq!(row.cache_misses, 5);
            assert_eq!(row.restarts, 1, "the injected kill fires once");
        }
        assert!(workloads::out_dir().join("BENCH_farm.json").exists());
    }
}

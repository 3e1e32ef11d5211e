//! The farm scheduler: concurrent multi-rank jobs over one shared
//! worker pool, with deterministic dispatch, per-job checkpoint/restart
//! and bounded retry.
//!
//! ## Execution model
//!
//! The pool is a budget of *rank slots* ([`FarmConfig::slots`]): a job
//! needing `ranks` ranks occupies that many slots for its whole run
//! (each rank is one blocking SPMD thread — LB collectives block, so
//! ranks cannot share a cooperative thread pool without deadlock; each
//! rank still gets its own rayon pool of
//! [`FarmConfig::threads_per_rank`] workers for intra-rank loops).
//!
//! ## Determinism
//!
//! The schedule is a pure function of (submitted specs, tenant weights,
//! slot count): dispatch order comes from the fair-share queue, and
//! completions are *committed in dispatch order* (head-of-line commit —
//! the scheduler joins the oldest running job before reusing its
//! slots). Physically, later jobs still finish whenever they finish;
//! only the recorded completion order and slot reuse are serialised.
//! This trades a little work-conservation for a completion order and
//! per-job state that are bit-reproducible run to run — the property
//! the determinism proptest pins.
//!
//! ## Fault isolation
//!
//! Each job runs in its own SPMD world with its own fault session: a
//! [`FaultPlan`](hemelb_parallel::FaultPlan) on one job — including a
//! `KillRank` — restarts *that world only*, where the job recovers from
//! its latest checkpoint ([`DistSolver::try_restore`]) and replays
//! bit-exactly. Attempts that fail outright (panic or infrastructure
//! error) are retried with exponential backoff up to
//! [`FarmConfig::max_retries`] times before the job is marked failed;
//! a failed job never takes the farm down.

use crate::cache::PrepCache;
use crate::queue::{JobId, JobQueue};
use crate::spec::JobSpec;
use hemelb_core::DistSolver;
use hemelb_obs::{Fnv1a, Histogram, ObsReport};
use hemelb_parallel::{
    install_quiet_panic_hook, run_spmd_opts, InjectedJobFault, RankKilled, SpmdOptions,
};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Shared pool capacity in rank slots. A job needing more ranks
    /// than the pool holds still runs (it takes the whole pool).
    pub slots: usize,
    /// Rayon workers per rank inside each job.
    pub threads_per_rank: usize,
    /// Re-dispatches after a failed attempt before the job is marked
    /// failed (so a job gets `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Base backoff before the first retry, doubling per further retry.
    pub backoff_ms: u64,
    /// Root directory for per-job checkpoint workdirs.
    pub workdir: PathBuf,
    /// Keep per-job workdirs after completion (debugging).
    pub keep_workdirs: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            slots: 4,
            threads_per_rank: 1,
            max_retries: 2,
            backoff_ms: 10,
            workdir: std::env::temp_dir().join(format!("hemelb_farm_{}", std::process::id())),
            keep_workdirs: false,
        }
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to its final step (possibly after in-world restarts and/or
    /// scheduler retries).
    Completed,
    /// Every attempt failed; the error of the last one is recorded.
    Failed,
}

/// What the farm remembers about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Identity assigned at submission.
    pub id: JobId,
    /// Spec name.
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Attempts consumed (1 = first try sufficed).
    pub attempts: u32,
    /// In-world restarts (injected kills recovered via checkpoint).
    pub restarts: u64,
    /// FNV-1a digest over the final distributions, rank order —
    /// bit-exact fingerprint of the job's physics.
    pub digest: Option<u64>,
    /// Steps completed.
    pub steps: u64,
    /// Seconds between submission (farm start) and dispatch.
    pub queue_wait_secs: f64,
    /// Seconds between dispatch and commit (includes retries/backoff).
    pub run_secs: f64,
    /// Seconds between submission and commit.
    pub latency_secs: f64,
    /// Last attempt's error, for failed jobs.
    pub error: Option<String>,
    /// Rank-merged observability report of the successful attempt.
    pub obs: ObsReport,
}

/// The result of one farm run.
#[derive(Debug)]
pub struct FarmReport {
    /// Per-job records in commit (completion) order.
    pub records: Vec<JobRecord>,
    /// Wall seconds from first dispatch to last commit.
    pub makespan_secs: f64,
    /// Pool capacity the run used.
    pub slots: usize,
    /// Pre-processing cache hits across the run.
    pub cache_hits: u64,
    /// Pre-processing cache misses (builds) across the run.
    pub cache_misses: u64,
}

impl FarmReport {
    /// Job ids in commit order (the determinism proptest's subject).
    pub fn completion_order(&self) -> Vec<JobId> {
        self.records.iter().map(|r| r.id).collect()
    }

    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == JobStatus::Completed)
            .count()
    }

    /// Jobs that exhausted their retries.
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Completed-job throughput over the makespan.
    pub fn jobs_per_hour(&self) -> f64 {
        if self.makespan_secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 * 3600.0 / self.makespan_secs
    }

    /// Total in-world kill restarts across jobs.
    pub fn restarts(&self) -> u64 {
        self.records.iter().map(|r| r.restarts).sum()
    }

    /// Queue-wait distribution across jobs.
    pub fn queue_wait_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.records {
            h.record(r.queue_wait_secs);
        }
        h
    }

    /// Submission-to-commit latency distribution across jobs.
    pub fn latency_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.records {
            h.record(r.latency_secs);
        }
        h
    }

    /// Final-field digests keyed by job name (completed jobs only).
    pub fn digests(&self) -> BTreeMap<String, u64> {
        self.records
            .iter()
            .filter_map(|r| r.digest.map(|d| (r.name.clone(), d)))
            .collect()
    }

    /// Farm-wide observability aggregate: every job's rank-merged
    /// report folded together under plain phase names.
    pub fn merged_obs(&self) -> ObsReport {
        let mut out = ObsReport::default();
        for r in &self.records {
            out.merge(&r.obs);
        }
        out
    }

    /// Per-tenant roll-up: each job's report folded under
    /// `tenant.<name>.*`, so one report compares tenants side by side.
    pub fn tenant_obs(&self) -> ObsReport {
        let mut out = ObsReport::default();
        for r in &self.records {
            out.merge_prefixed(&format!("tenant.{}", r.tenant), &r.obs);
        }
        out
    }

    /// Human-readable per-job table plus farm-wide summary lines.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:<26} {:<12} {:>9} {:>4} {:>4} {:>9} {:>9} {:>9}  digest",
            "job", "name", "tenant", "status", "try", "rst", "wait", "run", "latency"
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{:<5} {:<26} {:<12} {:>9} {:>4} {:>4} {:>8.2}s {:>8.2}s {:>8.2}s  {}",
                r.id.to_string(),
                r.name,
                r.tenant,
                match r.status {
                    JobStatus::Completed => "done",
                    JobStatus::Failed => "FAILED",
                },
                r.attempts,
                r.restarts,
                r.queue_wait_secs,
                r.run_secs,
                r.latency_secs,
                r.digest
                    .map(|d| format!("{d:016x}"))
                    .unwrap_or_else(|| r.error.clone().unwrap_or_default()),
            );
        }
        let wait = self.queue_wait_hist();
        let lat = self.latency_hist();
        let _ = writeln!(
            out,
            "{} jobs ({} failed), {} slots, makespan {:.2}s, {:.1} jobs/hour, \
             queue-wait p95 {:.2}s, latency p95 {:.2}s, prep cache {}/{} hits",
            self.records.len(),
            self.failed(),
            self.slots,
            self.makespan_secs,
            self.jobs_per_hour(),
            wait.p95(),
            lat.p95(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        );
        out
    }
}

/// What one job's worker thread hands back to the scheduler.
enum AttemptOutcome {
    Done {
        digest: u64,
        steps: u64,
        restarts: u64,
        obs: ObsReport,
        attempts: u32,
    },
    Failed {
        error: String,
        attempts: u32,
    },
}

/// One running job in the commit queue.
struct Running<'scope> {
    id: JobId,
    name: String,
    tenant: String,
    slots: usize,
    dispatched_secs: f64,
    handle: std::thread::ScopedJoinHandle<'scope, AttemptOutcome>,
}

/// The farm: a fair-share queue feeding a slot-bounded pool.
#[derive(Debug)]
pub struct FarmScheduler {
    cfg: FarmConfig,
    queue: JobQueue,
    cache: Arc<PrepCache>,
}

impl FarmScheduler {
    /// A farm over a fresh pre-processing cache.
    pub fn new(cfg: FarmConfig) -> Self {
        FarmScheduler::with_cache(cfg, Arc::new(PrepCache::new()))
    }

    /// A farm sharing an existing pre-processing cache (sweep batches
    /// submitted across several runs reuse each other's voxelisations).
    pub fn with_cache(cfg: FarmConfig, cache: Arc<PrepCache>) -> Self {
        FarmScheduler {
            cfg,
            queue: JobQueue::new(),
            cache,
        }
    }

    /// Configure a tenant's fair-share weight.
    pub fn set_tenant_weight(&mut self, tenant: &str, weight: f64) {
        self.queue.set_weight(tenant, weight);
    }

    /// Submit a job.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        self.queue.push(spec)
    }

    /// The shared pre-processing cache.
    pub fn cache(&self) -> &Arc<PrepCache> {
        &self.cache
    }

    /// Run every submitted job to a terminal state and report.
    pub fn run(mut self) -> FarmReport {
        // Injected job faults and kills are scheduled, not bugs.
        install_quiet_panic_hook();
        let t0 = Instant::now();
        let slots_total = self.cfg.slots.max(1);
        let cfg = Arc::new(self.cfg);
        let mut records: Vec<JobRecord> = Vec::new();
        std::thread::scope(|scope| {
            let mut running: VecDeque<Running<'_>> = VecDeque::new();
            let mut free = slots_total;
            loop {
                let next_need = self
                    .queue
                    .peek()
                    .map(|(_, s)| s.scenario.ranks.max(1).min(slots_total));
                match next_need {
                    Some(need) if need <= free => {
                        let (id, spec) = self.queue.pop().expect("peeked job pops");
                        let name = spec.name.clone();
                        let tenant = spec.tenant.clone();
                        let (cfg2, cache2) = (Arc::clone(&cfg), Arc::clone(&self.cache));
                        let handle =
                            scope.spawn(move || run_job_with_retries(&cfg2, &cache2, id, &spec));
                        running.push_back(Running {
                            id,
                            name,
                            tenant,
                            slots: need,
                            dispatched_secs: t0.elapsed().as_secs_f64(),
                            handle,
                        });
                        free -= need;
                    }
                    _ => {
                        // Not enough free slots (or nothing pending):
                        // commit the oldest running job. With an empty
                        // commit queue the guard above always admits
                        // the next job, so this branch cannot stall.
                        let Some(r) = running.pop_front() else {
                            break; // queue and pool both empty: done
                        };
                        free += r.slots;
                        let Running {
                            id,
                            name,
                            tenant,
                            dispatched_secs,
                            handle,
                            ..
                        } = r;
                        let outcome =
                            handle
                                .join()
                                .unwrap_or_else(|payload| AttemptOutcome::Failed {
                                    error: format!(
                                        "job worker panicked outside the retry guard: {}",
                                        panic_message(payload.as_ref())
                                    ),
                                    attempts: 0,
                                });
                        let committed_secs = t0.elapsed().as_secs_f64();
                        records.push(make_record(
                            id,
                            name,
                            tenant,
                            dispatched_secs,
                            outcome,
                            committed_secs,
                        ));
                    }
                }
            }
        });
        if !cfg.keep_workdirs {
            // Best-effort: only removes if every job dir was cleaned.
            std::fs::remove_dir(&cfg.workdir).ok();
        }
        FarmReport {
            records,
            makespan_secs: t0.elapsed().as_secs_f64(),
            slots: slots_total,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }
}

fn make_record(
    id: JobId,
    name: String,
    tenant: String,
    dispatched_secs: f64,
    outcome: AttemptOutcome,
    committed_secs: f64,
) -> JobRecord {
    let (status, attempts, restarts, digest, steps, error, obs) = match outcome {
        AttemptOutcome::Done {
            digest,
            steps,
            restarts,
            obs,
            attempts,
        } => (
            JobStatus::Completed,
            attempts,
            restarts,
            Some(digest),
            steps,
            None,
            obs,
        ),
        AttemptOutcome::Failed { error, attempts } => (
            JobStatus::Failed,
            attempts,
            0,
            None,
            0,
            Some(error),
            ObsReport::default(),
        ),
    };
    JobRecord {
        id,
        name,
        tenant,
        status,
        attempts,
        restarts,
        digest,
        steps,
        queue_wait_secs: dispatched_secs,
        run_secs: committed_secs - dispatched_secs,
        latency_secs: committed_secs,
        error,
        obs,
    }
}

/// Render a panic payload for a job record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(f) = payload.downcast_ref::<InjectedJobFault>() {
        format!("injected job fault: {}", f.0)
    } else if let Some(k) = payload.downcast_ref::<RankKilled>() {
        format!("rank {} killed at step {}", k.rank, k.step)
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one job to a terminal state: bounded attempts with exponential
/// backoff, each attempt fully isolated in its own SPMD world.
fn run_job_with_retries(
    cfg: &FarmConfig,
    cache: &PrepCache,
    id: JobId,
    spec: &JobSpec,
) -> AttemptOutcome {
    let jobdir = cfg.workdir.join(id.to_string());
    let attempts_max = cfg.max_retries + 1;
    let mut last_err = String::new();
    for attempt in 0..attempts_max {
        if attempt > 0 {
            // Exponential backoff, capped at 64× base so a misconfigured
            // retry count cannot park a worker for minutes.
            let exp = (attempt - 1).min(6);
            std::thread::sleep(Duration::from_millis(cfg.backoff_ms << exp));
        }
        match catch_unwind(AssertUnwindSafe(|| {
            run_job(cfg, cache, spec, &jobdir, attempt)
        })) {
            Ok(Ok((digest, steps, restarts, obs))) => {
                if !cfg.keep_workdirs {
                    std::fs::remove_dir_all(&jobdir).ok();
                }
                return AttemptOutcome::Done {
                    digest,
                    steps,
                    restarts,
                    obs,
                    attempts: attempt + 1,
                };
            }
            Ok(Err(e)) => last_err = e,
            Err(payload) => last_err = panic_message(payload.as_ref()),
        }
    }
    if !cfg.keep_workdirs {
        std::fs::remove_dir_all(&jobdir).ok();
    }
    AttemptOutcome::Failed {
        error: last_err,
        attempts: attempts_max,
    }
}

/// One attempt: build the world, restore any checkpoint, run to the
/// final step checkpointing on cadence, and digest the final state.
fn run_job(
    cfg: &FarmConfig,
    cache: &PrepCache,
    spec: &JobSpec,
    jobdir: &std::path::Path,
    attempt: u32,
) -> Result<(u64, u64, u64, ObsReport), String> {
    if attempt < spec.poison_attempts {
        std::panic::panic_any(InjectedJobFault(format!(
            "poisoned attempt {attempt} of job '{}'",
            spec.name
        )));
    }
    let sc = spec.scenario.clone();
    let ranks = sc.ranks.max(1);
    let geo = cache.geometry(&sc.geometry, sc.dx);
    let owner = cache.owner(&sc.geometry, sc.dx, ranks);
    let cp = jobdir.join("cp");
    let every = spec.checkpoint_every;
    let opts = SpmdOptions::for_job(cfg.threads_per_rank, spec.faults.clone());
    let out = run_spmd_opts(ranks, opts, move |comm| -> Result<(u64, u64), String> {
        let mut ds = DistSolver::new(geo.clone(), (*owner).clone(), sc.solver_config(), comm)
            .map_err(|e| format!("world construction failed: {e:?}"))?;
        if let Some(bc) = sc.inlet_override() {
            ds.set_inlet_bc(0, bc);
        }
        // Crash recovery: a restarted world resumes from the latest
        // consistent cut; a first attempt finds nothing and runs cold.
        if every.is_some() {
            ds.try_restore(&cp)
                .map_err(|e| format!("checkpoint restore failed: {e:?}"))?;
        }
        while ds.step_count() < sc.steps {
            let remaining = sc.steps - ds.step_count();
            let burst = match every {
                Some(k) => (k - ds.step_count() % k).min(remaining),
                None => remaining,
            };
            ds.step_n(burst)
                .map_err(|e| format!("step failed at {}: {e:?}", ds.step_count()))?;
            if let Some(k) = every {
                if ds.step_count() % k == 0 && ds.step_count() < sc.steps {
                    ds.checkpoint(&cp)
                        .map_err(|e| format!("checkpoint failed: {e:?}"))?;
                }
            }
        }
        let f = ds.raw_distributions();
        Ok((digest(f.iter().map(|v| v.to_bits())), ds.step_count()))
    });
    let mut rank_digests = Vec::with_capacity(ranks);
    let mut steps = 0;
    for (rank, res) in out.results.iter().enumerate() {
        match res {
            Ok((d, s)) => {
                rank_digests.push(*d);
                steps = *s;
            }
            Err(e) => return Err(format!("rank {rank}: {e}")),
        }
    }
    let obs = out.merged_obs();
    let restarts = obs.counters.get("fault.restarts").copied().unwrap_or(0);
    Ok((digest(rank_digests), steps, restarts, obs))
}

/// FNV-1a over 64-bit words: the IEEE bit patterns of one rank's
/// distributions, or the per-rank digests in rank order.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for w in words {
        h.u64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Drive, GeometryKind, Scenario};

    fn tiny_scenario(steps: u64, ranks: usize) -> Scenario {
        Scenario {
            geometry: GeometryKind::Tube {
                length: 8.0,
                radius: 2.0,
            },
            dx: 1.0,
            drive: Drive::Pressure {
                rho_in: 1.01,
                rho_out: 0.99,
            },
            tau: 0.8,
            steps,
            ranks,
        }
    }

    fn test_cfg(tag: &str, slots: usize) -> FarmConfig {
        FarmConfig {
            slots,
            backoff_ms: 1,
            workdir: std::env::temp_dir()
                .join(format!("hemelb_farm_test_{tag}_{}", std::process::id())),
            ..Default::default()
        }
    }

    #[test]
    fn farm_runs_all_jobs_and_commits_in_dispatch_order() {
        let mut farm = FarmScheduler::new(test_cfg("order", 2));
        let ids: Vec<JobId> = (0..4)
            .map(|i| farm.submit(JobSpec::new(format!("job{i}"), "t", tiny_scenario(3, 1))))
            .collect();
        let report = farm.run();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.completion_order(), ids, "head-of-line commit");
        assert!(report.jobs_per_hour() > 0.0);
        assert_eq!(report.records.len(), 4);
        for r in &report.records {
            assert_eq!(r.steps, 3);
            assert_eq!(r.attempts, 1);
            assert!(r.digest.is_some());
            assert!(r.obs.phases.contains_key("lb.collide"), "obs rolled up");
        }
    }

    #[test]
    fn digests_are_independent_of_slot_count() {
        let specs = |farm: &mut FarmScheduler| {
            for (i, ranks) in [1usize, 2, 1].iter().enumerate() {
                farm.submit(JobSpec::new(
                    format!("job{i}"),
                    "t",
                    tiny_scenario(4, *ranks),
                ));
            }
        };
        let mut a = FarmScheduler::new(test_cfg("slots_a", 1));
        specs(&mut a);
        let mut b = FarmScheduler::new(test_cfg("slots_b", 4));
        specs(&mut b);
        assert_eq!(
            a.run().digests(),
            b.run().digests(),
            "physics is schedule-invariant"
        );
    }

    #[test]
    fn oversized_job_takes_the_whole_pool_but_still_runs() {
        let mut farm = FarmScheduler::new(test_cfg("oversized", 1));
        farm.submit(JobSpec::new("wide", "t", tiny_scenario(3, 2)));
        let report = farm.run();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.records[0].steps, 3);
    }

    #[test]
    fn tenant_roll_up_namespaces_phases() {
        let mut farm = FarmScheduler::new(test_cfg("rollup", 2));
        farm.submit(JobSpec::new("a", "icu", tiny_scenario(2, 1)));
        farm.submit(JobSpec::new("b", "lab", tiny_scenario(2, 1)));
        let report = farm.run();
        let by_tenant = report.tenant_obs();
        assert!(by_tenant.phases.contains_key("tenant.icu.lb.collide"));
        assert!(by_tenant.phases.contains_key("tenant.lab.lb.collide"));
        let merged = report.merged_obs();
        assert_eq!(
            merged.phases["lb.collide"].calls,
            by_tenant.phases["tenant.icu.lb.collide"].calls
                + by_tenant.phases["tenant.lab.lb.collide"].calls
        );
    }
}

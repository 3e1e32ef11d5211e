//! SPMD execution: run the same closure on `P` rank-threads.
//!
//! A rank is one OS thread, as an MPI rank is one core in HemeLB: no
//! pool or second threading level is installed inside it, so whatever a
//! rank closure computes runs serially on that thread, and parallelism
//! comes from the rank count alone.

use crate::comm::{Communicator, World};
use crate::fault::{install_quiet_panic_hook, FaultPlan, FaultSession, WorldAborted};
use crate::stats::{CommStats, StatsSummary};
use hemelb_obs::ObsReport;
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

/// The result of an SPMD run: per-rank return values plus the per-rank
/// communication records, observability reports and their aggregates.
#[derive(Debug)]
pub struct SpmdOutput<T> {
    /// `results[r]` is what rank `r`'s closure returned.
    pub results: Vec<T>,
    /// `stats[r]` is rank `r`'s cumulative communication record.
    pub stats: Vec<CommStats>,
    /// Aggregate over all ranks.
    pub summary: StatsSummary,
    /// `obs[r]` is rank `r`'s observability report (phase timings,
    /// counters, timeline) as recorded through its communicator.
    pub obs: Vec<ObsReport>,
}

impl<T> SpmdOutput<T> {
    /// Fleet-wide observability aggregate: per-phase stats and counters
    /// summed over every rank (timelines stay per rank in
    /// [`SpmdOutput::obs`]).
    pub fn merged_obs(&self) -> ObsReport {
        ObsReport::merged(&self.obs)
    }
}

/// Run `f` on `size` ranks (one OS thread each) and collect the per-rank
/// return values, indexed by rank.
///
/// A panic in any rank aborts the world — peers blocked in a receive or
/// collective die with it instead of waiting forever — and propagates to
/// the caller with the rank attributed, the fail-fast behaviour of an
/// MPI abort.
pub fn run_spmd<T, F>(size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Communicator) -> T + Send + Sync,
{
    run_spmd_with_stats(size, f).results
}

/// Options for an SPMD run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpmdOptions {
    /// Deterministic fault schedule applied to every communicator in
    /// the world; `None` (the default) costs one branch per operation.
    ///
    /// Plans containing `KillRank` events engage the restart machinery:
    /// when the victim dies, the whole attempt is aborted (peers are
    /// woken out of blocking receives), the world is re-run with that
    /// kill consumed, and the closures recover by restoring from their
    /// latest checkpoint — the MPI-style consistent-cut recovery the
    /// fault-injection suite asserts bit-exact.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SpmdOptions {
    /// Options running `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        SpmdOptions {
            fault_plan: Some(Arc::new(plan)),
        }
    }
}

/// Like [`run_spmd`] but also returns communication statistics — the
/// measurement entry point used by every experiment in this repository.
pub fn run_spmd_with_stats<T, F>(size: usize, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&Communicator) -> T + Send + Sync,
{
    run_spmd_opts(size, SpmdOptions::default(), f)
}

/// Run `f` on `size` ranks with explicit [`SpmdOptions`].
///
/// With a [`FaultPlan`] containing `KillRank`
/// events, a fired kill aborts the whole attempt and the world is
/// restarted with that kill consumed (at most one restart per kill
/// event). The closure `f` re-runs from scratch on every rank; closures
/// that checkpoint can restore and replay, which is how the recovery
/// path reaches a bit-exact post-fault state.
pub fn run_spmd_opts<T, F>(size: usize, opts: SpmdOptions, f: F) -> SpmdOutput<T>
where
    T: Send,
    F: Fn(&Communicator) -> T + Send + Sync,
{
    // A dying rank's peers unwind with `WorldAborted`, and injected
    // deaths are scheduled, not bugs: keep both off stderr.
    install_quiet_panic_hook();
    let Some(plan) = opts.fault_plan else {
        return run_world(size, None, &f).unwrap_or_else(|_| {
            unreachable!("attempts abort only under kill faults");
        });
    };
    let max_restarts = plan.kill_count();
    let mut consumed: HashSet<usize> = HashSet::new();
    let mut restarts = 0usize;
    loop {
        let session = Arc::new(FaultSession::new((*plan).clone(), size, consumed.clone()));
        match run_world(size, Some(Arc::clone(&session)), &f) {
            Ok(mut out) => {
                if restarts > 0 {
                    // The killed attempts' per-rank reports died with
                    // them; surface the recovery on the master report so
                    // `merged_obs` still tells the story.
                    *out.obs[0]
                        .counters
                        .entry("fault.restarts".to_string())
                        .or_insert(0) += restarts as u64;
                    *out.obs[0]
                        .counters
                        .entry("fault.injected.kill".to_string())
                        .or_insert(0) += restarts as u64;
                }
                return out;
            }
            Err(()) => {
                let (idx, _rank, _step) = session
                    .kill_record()
                    .expect("aborted attempts always record their kill");
                consumed.insert(idx);
                restarts += 1;
                assert!(
                    restarts <= max_restarts,
                    "fault restart limit exceeded: {restarts} restarts for \
                     {max_restarts} kill events"
                );
            }
        }
    }
}

/// One attempt at running the world. Returns `Err(())` when a kill
/// fault aborted the attempt (all panics are then collateral and the
/// partial results are discarded); otherwise the first genuine panic
/// propagates with its rank attributed (the `WorldAborted` deaths of the
/// peers it woke are collateral).
fn run_world<T, F>(
    size: usize,
    session: Option<Arc<FaultSession>>,
    f: &F,
) -> Result<SpmdOutput<T>, ()>
where
    T: Send,
    F: Fn(&Communicator) -> T + Send + Sync,
{
    let comms = World::communicators(size, session.clone());
    let mut triples: Vec<(T, CommStats, ObsReport)> = Vec::with_capacity(size);
    let mut first_panic: Option<(usize, String)> = None;
    thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    let result = f(&comm);
                    let stats = comm.stats();
                    let obs = comm.obs_report();
                    (result, stats, obs)
                })
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(triple) => triples.push(triple),
                Err(payload) => {
                    if first_panic.is_none() && !payload.is::<WorldAborted>() {
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic payload>")
                            .to_string();
                        first_panic = Some((rank, msg));
                    }
                }
            }
        }
    });
    if session.is_some_and(|s| s.kill_record().is_some()) {
        return Err(());
    }
    if let Some((rank, msg)) = first_panic {
        panic!("rank {rank} panicked: {msg}");
    }
    assert_eq!(triples.len(), size, "world aborted with no genuine panic");
    let mut results = Vec::with_capacity(size);
    let mut stats = Vec::with_capacity(size);
    let mut obs = Vec::with_capacity(size);
    for (r, s, o) in triples {
        results.push(r);
        stats.push(s);
        obs.push(o);
    }
    let summary = StatsSummary::from_ranks(&stats);
    Ok(SpmdOutput {
        results,
        stats,
        summary,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;
    use crate::wire::Wire;

    #[test]
    fn results_are_indexed_by_rank() {
        let results = run_spmd(6, |comm| comm.rank() * comm.rank());
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn single_rank_world_works() {
        let results = run_spmd(1, |comm| {
            comm.barrier().unwrap();
            comm.all_reduce_f64(3.0, |a, b| a + b).unwrap()
        });
        assert_eq!(results, vec![3.0]);
    }

    #[test]
    fn stats_are_collected_per_rank() {
        let out = run_spmd_with_stats(3, |comm| {
            // Ring: everyone sends 16 bytes to the next rank.
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_wire(next, Tag::user(0), &(comm.rank() as u64))
                .unwrap();
            comm.send_wire(next, Tag::user(0), &0u64).unwrap();
            comm.recv(prev, Tag::user(0)).unwrap();
            comm.recv(prev, Tag::user(0)).unwrap();
        });
        assert_eq!(out.stats.len(), 3);
        for s in &out.stats {
            assert_eq!(s.total_msgs(), 2);
            assert_eq!(s.total_bytes(), 16);
        }
        assert_eq!(out.summary.total.total_bytes(), 48);
        assert!((out.summary.byte_imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn obs_reports_are_collected_and_merge() {
        let out = run_spmd_with_stats(3, |comm| {
            comm.with_obs(|rec| {
                rec.record_secs("lb.collide", 0.001 * (comm.rank() + 1) as f64);
                rec.count("steps", 10);
            });
        });
        assert_eq!(out.obs.len(), 3);
        for (r, report) in out.obs.iter().enumerate() {
            assert_eq!(report.rank, Some(r));
            assert_eq!(report.phases["lb.collide"].calls, 1);
        }
        let merged = out.merged_obs();
        assert_eq!(merged.phases["lb.collide"].calls, 3);
        assert_eq!(merged.counters["steps"], 30);
        assert!((merged.phases["lb.collide"].total_secs - 0.006).abs() < 1e-12);
    }

    #[test]
    fn recv_wait_time_is_attributed_to_the_tag_class() {
        // Rank 1 says it is about to block before it does, and rank 0
        // sleeps only once it has heard so: however late rank 1 starts,
        // it waits out the whole sleep on the halo receive.
        let out = run_spmd_with_stats(2, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, Tag::user(0)).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(1, Tag::halo(0), 64u64.to_bytes()).unwrap();
            } else {
                comm.send(0, Tag::user(0), Vec::new()).unwrap();
                comm.recv(0, Tag::halo(0)).unwrap();
            }
        });
        use crate::stats::TagClass;
        let waiter = &out.stats[1];
        assert!(
            waiter.recv_wait_secs(TagClass::Halo) >= 0.015,
            "rank 1 blocked ~20ms on the halo recv, recorded {}",
            waiter.recv_wait_secs(TagClass::Halo)
        );
        assert_eq!(waiter.recv_wait_secs(TagClass::Steering), 0.0);
        assert!(out.stats[0].send_secs(TagClass::Halo) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panics_are_attributed() {
        // Use a 1-deep dependency so rank 0 finishes before rank 1 dies.
        run_spmd(2, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure for test");
            } else {
                // rank 0 exits immediately
            }
        });
    }

    /// A rank that panics takes the world down instead of leaving its
    /// peers blocked in a collective it never joins (they hold senders
    /// to each other, so none of them ever sees a disconnect).
    #[test]
    fn panicking_rank_aborts_its_peers_instead_of_hanging_them() {
        use std::sync::mpsc;
        use std::time::Duration;

        for (size, stage) in [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)] {
            let victim = size - 2;
            let (tx, rx) = mpsc::channel();
            let helper = thread::spawn(move || {
                let died = std::panic::catch_unwind(|| {
                    run_spmd(size, |comm| {
                        let die_at = |at: usize| {
                            if comm.rank() == victim && at == stage {
                                panic!("victim gives up at stage {at}");
                            }
                        };
                        die_at(0);
                        comm.barrier().unwrap();
                        die_at(1);
                        comm.all_reduce_f64_vec(vec![1.0], |a, b| a + b).unwrap();
                        die_at(2);
                        comm.gather(0, Vec::new()).unwrap();
                    })
                });
                let _ = tx.send(died);
            });
            let died = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("peers of a panicked rank still blocked after 10 s");
            helper.join().unwrap();
            let payload = died.expect_err("the victim's panic reaches the caller");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            let expect = format!("rank {victim} panicked: victim gives up at stage {stage}");
            assert_eq!(*msg, expect, "{size} ranks");
        }
    }

    #[test]
    fn killed_rank_restarts_the_world_once() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        use crate::stats::TagClass;
        use std::sync::atomic::{AtomicUsize, Ordering};

        let attempts = AtomicUsize::new(0);
        let plan = FaultPlan::new(vec![FaultEvent {
            rank: 1,
            class: TagClass::User,
            step: 3,
            kind: FaultKind::KillRank,
        }]);
        let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), |comm| {
            if comm.rank() == 0 {
                attempts.fetch_add(1, Ordering::SeqCst);
            }
            let mut acc = 0u64;
            for step in 0..6u64 {
                comm.set_fault_step(step);
                acc = comm
                    .all_reduce_u64(step + comm.rank() as u64, |a, b| a + b)
                    .unwrap();
            }
            acc
        });
        // The kill at step 3 aborted attempt 1; attempt 2 (kill
        // consumed) ran to completion with identical results.
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let expect = 5 + (5 + 1) + (5 + 2);
        assert_eq!(out.results, vec![expect, expect, expect]);
        assert_eq!(out.merged_obs().counters["fault.restarts"], 1);
        assert_eq!(out.merged_obs().counters["fault.injected.kill"], 1);
    }

    #[test]
    fn benign_fault_plans_leave_results_unchanged() {
        use crate::fault::FaultPlan;

        let clean = run_spmd(3, |comm| {
            comm.all_reduce_u64(comm.rank() as u64 + 1, |a, b| a + b)
                .unwrap()
        });
        let plan = FaultPlan::seeded_benign(7, 3, 6, 0, 2);
        let out = run_spmd_opts(3, SpmdOptions::with_faults(plan), |comm| {
            comm.all_reduce_u64(comm.rank() as u64 + 1, |a, b| a + b)
                .unwrap()
        });
        assert_eq!(out.results, clean);
    }

    #[test]
    fn large_payload_round_trip() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                let big: Vec<f64> = (0..100_000).map(|i| i as f64 * 0.5).collect();
                comm.send_wire(1, Tag::user(0), &big).unwrap();
                0.0
            } else {
                let big = Vec::<f64>::from_bytes(comm.recv(0, Tag::user(0)).unwrap()).unwrap();
                big.iter().sum::<f64>()
            }
        });
        let expect: f64 = (0..100_000).map(|i| i as f64 * 0.5).sum();
        assert_eq!(results[1], expect);
    }

    #[test]
    fn wire_trait_usable_through_runner() {
        // Regression guard: ensure Wire is exported in a way that SPMD
        // closures can use it without extra imports beyond the prelude.
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::user(1), 42u64.to_bytes()).unwrap();
                0
            } else {
                u64::from_bytes(comm.recv(0, Tag::user(1)).unwrap()).unwrap()
            }
        });
        assert_eq!(results[1], 42);
    }
}

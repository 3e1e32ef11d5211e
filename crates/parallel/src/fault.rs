//! Deterministic fault injection for the in-process communicator.
//!
//! At exascale something is always slow or gone; the closed loop of the
//! paper (§IV-C-1) has to keep producing frames anyway. This module
//! provides the *controlled* version of that reality: a [`FaultPlan`] is
//! an immutable schedule of fault events keyed by `(rank, TagClass,
//! step)` that the [`Communicator`](crate::Communicator) consults on
//! every network send. Because the plan is injected through
//! [`SpmdOptions`](crate::SpmdOptions), any existing SPMD test can run
//! under faults without code changes.
//!
//! Four fault kinds are supported:
//!
//! * [`FaultKind::Delay`] — the sender sleeps before the send, modelling
//!   a slow link or an overloaded rank. Because the sender blocks, FIFO
//!   order per `(src, dst)` pair is preserved and the fault is
//!   *bit-transparent* to every collective.
//! * [`FaultKind::DropOnce`] — one matching send is swallowed,
//!   modelling a lost message. Only deadline-based receives
//!   ([`Communicator::recv_deadline`]) can observe the loss.
//! * [`FaultKind::DuplicateOnce`] — one matching send is delivered
//!   twice with the same sequence number; receiver-side dedup drops the
//!   retransmit, so duplicates are bit-transparent too (the guarantee
//!   the fault-injection proptest pins).
//! * [`FaultKind::KillRank`] — the victim rank dies (panics) when its
//!   fault clock reaches `step`, after waking every peer with an abort
//!   message so nobody hangs. The SPMD runner then restarts the world
//!   with the kill consumed; application closures recover by restoring
//!   from their latest checkpoint and replaying.
//!
//! The *fault clock* is per rank and advances only when the application
//! calls [`Communicator::set_fault_step`] (the distributed solver does
//! so once per LB step). Message faults arm once the sender's clock has
//! reached their `step`; a clock that never advances stays at 0, so
//! step-0 events still apply to step-oblivious code.

use crate::stats::TagClass;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// What an injected fault does to matching traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this many milliseconds before every matching send (persists
    /// from the event's step onward).
    Delay {
        /// Sleep duration per matching send.
        millis: u64,
    },
    /// Swallow the first matching send, then disarm.
    DropOnce,
    /// Deliver the first matching send twice, then disarm. The
    /// retransmit carries the same sequence number and is dropped by
    /// receiver-side dedup.
    DuplicateOnce,
    /// Kill the rank (modelled as a panic, like a lost node) when its
    /// fault clock reaches the event's step. The traffic class is
    /// ignored.
    KillRank,
}

impl FaultKind {
    /// Short label used in counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Delay { .. } => "delay",
            FaultKind::DropOnce => "drop",
            FaultKind::DuplicateOnce => "duplicate",
            FaultKind::KillRank => "kill",
        }
    }

    /// Whether this kind is bit-transparent to collectives (delay and
    /// duplicate are; drops and kills are observable).
    pub fn is_benign(self) -> bool {
        matches!(self, FaultKind::Delay { .. } | FaultKind::DuplicateOnce)
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The rank the fault applies to: the *sender* for message faults,
    /// the victim for [`FaultKind::KillRank`].
    pub rank: usize,
    /// Traffic class the fault applies to (ignored by `KillRank`).
    pub class: TagClass,
    /// Fault-clock step from which the event is armed.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// An immutable, deterministic schedule of fault events.
///
/// The same plan against the same program yields the same injected
/// faults; combined with the determinism of the communication layer this
/// is what lets the test suite assert *bit-exact* recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan executing exactly `events`.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of `KillRank` events (bounds the runner's restart count).
    pub fn kill_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::KillRank)
            .count()
    }

    /// A seeded pseudo-random plan of *benign* events only (delays up to
    /// `max_delay_ms` and duplicates), spread over `world` ranks, all
    /// eight traffic classes and steps `0..=max_step`. Deterministic in
    /// `seed`; used by the transparency proptest.
    pub fn seeded_benign(
        seed: u64,
        world: usize,
        events: usize,
        max_step: u64,
        max_delay_ms: u64,
    ) -> Self {
        let mut state = seed;
        let mut next = move || splitmix64(&mut state);
        let evs = (0..events)
            .map(|_| {
                let rank = (next() % world.max(1) as u64) as usize;
                let class = TagClass::ALL[(next() % 8) as usize];
                let step = next() % (max_step + 1);
                let kind = if next() % 2 == 0 {
                    FaultKind::Delay {
                        millis: 1 + next() % max_delay_ms.max(1),
                    }
                } else {
                    FaultKind::DuplicateOnce
                };
                FaultEvent {
                    rank,
                    class,
                    step,
                    kind,
                }
            })
            .collect();
        FaultPlan { events: evs }
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The message faults applying to one send.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SendFaults {
    /// Total sleep before the send, in milliseconds.
    pub delay_ms: u64,
    /// Swallow the message.
    pub drop: bool,
    /// Deliver the message twice.
    pub duplicate: bool,
}

/// Shared per-world-attempt fault state: which one-shot events have
/// fired, each rank's fault clock, and the kill that ended the attempt,
/// if one did. One session is created per attempt by the SPMD runner;
/// kills consumed by earlier attempts never re-fire.
#[derive(Debug)]
pub(crate) struct FaultSession {
    plan: FaultPlan,
    /// One-shot events (drop/duplicate/kill) already fired this attempt.
    fired: Mutex<HashSet<usize>>,
    /// Kill events consumed by earlier attempts of the same run.
    consumed_kills: HashSet<usize>,
    /// Per-rank fault clocks.
    steps: Vec<AtomicU64>,
    /// The kill that ended this attempt: `(event index, rank, step)`.
    kill: Mutex<Option<(usize, usize, u64)>>,
}

impl FaultSession {
    pub(crate) fn new(plan: FaultPlan, world: usize, consumed_kills: HashSet<usize>) -> Self {
        FaultSession {
            plan,
            fired: Mutex::new(HashSet::new()),
            consumed_kills,
            steps: (0..world).map(|_| AtomicU64::new(0)).collect(),
            kill: Mutex::new(None),
        }
    }

    /// The rank's current fault clock.
    pub(crate) fn step_of(&self, rank: usize) -> u64 {
        self.steps[rank].load(Ordering::Relaxed)
    }

    /// Advance `rank`'s fault clock. Returns `true` if a `KillRank`
    /// event fires at this step — the caller must then abort the world
    /// and die.
    pub(crate) fn advance(&self, rank: usize, step: u64) -> bool {
        self.steps[rank].store(step, Ordering::Relaxed);
        let mut fired = lock(&self.fired);
        for (i, ev) in self.plan.events.iter().enumerate() {
            if ev.kind == FaultKind::KillRank
                && ev.rank == rank
                && step >= ev.step
                && !self.consumed_kills.contains(&i)
                && fired.insert(i)
            {
                *lock(&self.kill) = Some((i, rank, step));
                return true;
            }
        }
        false
    }

    /// The message faults applying to a send from `rank` in `class` at
    /// its current fault clock. One-shot events are consumed here.
    pub(crate) fn send_faults(&self, rank: usize, class: TagClass) -> SendFaults {
        let step = self.step_of(rank);
        let mut out = SendFaults::default();
        let mut fired = lock(&self.fired);
        for (i, ev) in self.plan.events.iter().enumerate() {
            if ev.rank != rank || ev.class != class || step < ev.step {
                continue;
            }
            match ev.kind {
                FaultKind::Delay { millis } => out.delay_ms += millis,
                FaultKind::DropOnce => {
                    if !out.drop && fired.insert(i) {
                        out.drop = true;
                    }
                }
                FaultKind::DuplicateOnce => {
                    if !out.duplicate && fired.insert(i) {
                        out.duplicate = true;
                    }
                }
                FaultKind::KillRank => {}
            }
        }
        out
    }

    /// The kill that ended this attempt, if any.
    pub(crate) fn kill_record(&self) -> Option<(usize, usize, u64)> {
        *lock(&self.kill)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Panic payload of the victim rank of a [`FaultKind::KillRank`] fault
/// (who died, and when, is in the session's kill record).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankKilled;

/// Panic payload of surviving ranks when another rank's death (an
/// injected kill or a genuine panic) aborts the world.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorldAborted;

static QUIET_HOOK: Once = Once::new();

/// Install (once per process) a panic hook that silences the expected
/// [`RankKilled`] / [`WorldAborted`] payloads and forwards everything
/// else to the previously installed hook. Injected kills are part of
/// the plan, not bugs; they should not spray backtraces over test
/// output. The SPMD runner installs it before any world that can kill
/// ranks.
pub(crate) fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info.payload().is::<RankKilled>() || info.payload().is::<WorldAborted>();
            if !expected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_benign() {
        let a = FaultPlan::seeded_benign(42, 4, 10, 5, 3);
        let b = FaultPlan::seeded_benign(42, 4, 10, 5, 3);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 10);
        assert!(a.events().iter().all(|e| e.kind.is_benign()));
        assert!(a.events().iter().all(|e| e.rank < 4 && e.step <= 5));
        let c = FaultPlan::seeded_benign(43, 4, 10, 5, 3);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn one_shot_events_fire_once() {
        let plan = FaultPlan::new(vec![FaultEvent {
            rank: 0,
            class: TagClass::Halo,
            step: 2,
            kind: FaultKind::DropOnce,
        }]);
        let s = FaultSession::new(plan, 2, HashSet::new());
        // Not armed before its step.
        assert!(!s.send_faults(0, TagClass::Halo).drop);
        assert!(!s.advance(0, 2));
        // Wrong class and wrong rank never match.
        assert!(!s.send_faults(0, TagClass::Steering).drop);
        assert!(!s.send_faults(1, TagClass::Halo).drop);
        // Fires exactly once.
        assert!(s.send_faults(0, TagClass::Halo).drop);
        assert!(!s.send_faults(0, TagClass::Halo).drop);
    }

    #[test]
    fn delays_persist_and_accumulate() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                rank: 1,
                class: TagClass::Compositing,
                step: 0,
                kind: FaultKind::Delay { millis: 3 },
            },
            FaultEvent {
                rank: 1,
                class: TagClass::Compositing,
                step: 0,
                kind: FaultKind::Delay { millis: 4 },
            },
        ]);
        let s = FaultSession::new(plan, 2, HashSet::new());
        assert_eq!(s.send_faults(1, TagClass::Compositing).delay_ms, 7);
        assert_eq!(s.send_faults(1, TagClass::Compositing).delay_ms, 7);
    }

    #[test]
    fn kill_fires_at_step_and_consumed_kills_do_not_refire() {
        let plan = FaultPlan::new(vec![FaultEvent {
            rank: 1,
            class: TagClass::User,
            step: 5,
            kind: FaultKind::KillRank,
        }]);
        assert_eq!(plan.kill_count(), 1);
        let s = FaultSession::new(plan.clone(), 3, HashSet::new());
        assert!(!s.advance(1, 4));
        assert!(s.advance(1, 5), "kill fires when the clock reaches 5");
        assert_eq!(s.kill_record(), Some((0, 1, 5)));
        // A fresh attempt with the kill consumed never fires it again.
        let s2 = FaultSession::new(plan, 3, HashSet::from([0]));
        assert!(!s2.advance(1, 5));
        assert!(!s2.advance(1, 500));
        assert!(s2.kill_record().is_none());
    }
}

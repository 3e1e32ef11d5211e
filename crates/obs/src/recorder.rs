//! The per-rank recorder: named phase timers, monotonic counters and a
//! bounded timeline of recent spans.
//!
//! Hot-path contract: every recording entry point checks one `bool`
//! first, so a disabled recorder costs a branch and nothing else — the
//! "< 5 % overhead or no-op recorder" budget of the observability
//! acceptance criteria.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::hist::Histogram;
use crate::report::{ObsReport, PhaseReport, TimelineEvent};

/// Accumulated statistics for one named phase.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseStats {
    /// Completed spans.
    pub calls: u64,
    /// Total seconds across spans.
    pub total_secs: f64,
    /// Latency distribution of individual spans.
    pub hist: Histogram,
}

impl PhaseStats {
    fn add(&mut self, secs: f64) {
        self.calls += 1;
        self.total_secs += secs;
        self.hist.record(secs);
    }
}

/// Default cap on retained timeline events per rank.
pub const TIMELINE_CAP: usize = 4096;

/// A bounded record of recent spans with their start offsets, for
/// per-rank timeline visualisation. Once `cap` events are stored,
/// further events are counted in `dropped` instead of growing memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    cap: usize,
    events: Vec<TimelineEvent>,
    dropped: u64,
}

impl Timeline {
    fn new(cap: usize) -> Self {
        Timeline {
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TimelineEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Retained events, in record order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Events discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// An in-flight span produced by [`Recorder::begin`]. Finish it with
/// [`Span::end`]; a span of a disabled recorder is inert.
#[derive(Debug)]
#[must_use = "a Span records nothing until end() is called"]
pub struct Span {
    t0: Option<Instant>,
}

impl Span {
    /// Close the span, crediting its duration to `phase` on `rec`.
    /// Returns the elapsed seconds.
    pub fn end(self, rec: &mut Recorder, phase: &str) -> f64 {
        rec.end_span(phase, self.t0)
    }
}

/// A scope guard from [`Recorder::phase`]: the borrowed alternative to
/// [`Span`] — it records on drop, so a phase body can be timed without
/// an explicit `end` call.
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    rec: &'a mut Recorder,
    phase: &'a str,
    t0: Option<Instant>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let t0 = self.t0.take();
        self.rec.end_span(self.phase, t0);
    }
}

/// Per-rank metrics recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    phases: BTreeMap<String, PhaseStats>,
    counters: BTreeMap<String, u64>,
    timeline: Timeline,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An enabled recorder with the default timeline cap.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            timeline: Timeline::new(TIMELINE_CAP),
        }
    }

    /// A recorder whose every entry point is a no-op — for measuring
    /// instrumentation overhead, or opting a hot loop out entirely.
    pub fn disabled() -> Self {
        let mut r = Self::new();
        r.enabled = false;
        r
    }

    /// Whether this recorder is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (existing data is kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a span (callable through a shared reference, so it works
    /// from accessors that only expose `&self`).
    pub fn begin(&self) -> Span {
        Span {
            t0: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Scope-guard variant of [`Recorder::begin`]: records `phase` when
    /// the returned guard drops.
    pub fn phase<'a>(&'a mut self, phase: &'a str) -> PhaseTimer<'a> {
        let t0 = if self.enabled {
            Some(Instant::now())
        } else {
            None
        };
        PhaseTimer {
            rec: self,
            phase,
            t0,
        }
    }

    /// Time a closure as one span of `phase`.
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        let span = self.begin();
        let out = f();
        span.end(self, phase);
        out
    }

    fn end_span(&mut self, phase: &str, t0: Option<Instant>) -> f64 {
        let Some(t0) = t0 else { return 0.0 };
        let secs = t0.elapsed().as_secs_f64();
        self.record_span_at(phase, t0, secs);
        secs
    }

    /// Credit a completed span directly (used by callers that measured
    /// the interval themselves, e.g. around a borrow-restricted region).
    pub fn record_secs(&mut self, phase: &str, secs: f64) {
        if !self.enabled {
            return;
        }
        self.phase_entry(phase).add(secs);
    }

    fn record_span_at(&mut self, phase: &str, t0: Instant, secs: f64) {
        if !self.enabled {
            return;
        }
        self.phase_entry(phase).add(secs);
        let start_us = t0.saturating_duration_since(self.epoch).as_micros() as u64;
        self.timeline.push(TimelineEvent {
            phase: phase.to_string(),
            start_us,
            dur_us: (secs * 1e6) as u64,
        });
    }

    fn phase_entry(&mut self, phase: &str) -> &mut PhaseStats {
        // get_mut first: the common case needs no key allocation.
        if !self.phases.contains_key(phase) {
            self.phases.insert(phase.to_string(), PhaseStats::default());
        }
        self.phases.get_mut(phase).unwrap()
    }

    /// Add `n` to the named monotonic counter.
    pub fn count(&mut self, counter: &str, n: u64) {
        if !self.enabled {
            return;
        }
        if !self.counters.contains_key(counter) {
            self.counters.insert(counter.to_string(), 0);
        }
        *self.counters.get_mut(counter).unwrap() += n;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.get(counter).copied().unwrap_or(0)
    }

    /// Accumulated statistics for one phase, if it ever ran.
    pub fn phase_stats(&self, phase: &str) -> Option<&PhaseStats> {
        self.phases.get(phase)
    }

    /// All phases recorded so far, sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The bounded per-rank timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Snapshot everything into an exportable [`ObsReport`].
    pub fn report(&self) -> ObsReport {
        ObsReport {
            rank: None,
            phases: self
                .phases
                .iter()
                .map(|(name, p)| {
                    (
                        name.clone(),
                        PhaseReport {
                            calls: p.calls,
                            total_secs: p.total_secs,
                            hist: p.hist.clone(),
                        },
                    )
                })
                .collect(),
            counters: self.counters.clone(),
            timeline: self.timeline.events.clone(),
            dropped_events: self.timeline.dropped,
        }
    }

    /// Drop all recorded data (keeps enabled state and epoch).
    pub fn reset(&mut self) {
        self.phases.clear();
        self.counters.clear();
        self.timeline.events.clear();
        self.timeline.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_phase_and_timeline() {
        let mut rec = Recorder::new();
        let s = rec.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = s.end(&mut rec, "collide");
        assert!(secs >= 0.002, "slept 2ms, got {secs}");
        let p = rec.phase_stats("collide").unwrap();
        assert_eq!(p.calls, 1);
        assert!(p.total_secs >= 0.002);
        assert_eq!(rec.timeline().events().len(), 1);
        assert_eq!(rec.timeline().events()[0].phase, "collide");
    }

    #[test]
    fn phase_guard_records_on_drop() {
        let mut rec = Recorder::new();
        {
            let _t = rec.phase("stream");
        }
        assert_eq!(rec.phase_stats("stream").unwrap().calls, 1);
    }

    #[test]
    fn time_closure_returns_value() {
        let mut rec = Recorder::new();
        let x = rec.time("work", || 40 + 2);
        assert_eq!(x, 42);
        assert_eq!(rec.phase_stats("work").unwrap().calls, 1);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = Recorder::disabled();
        let s = rec.begin();
        assert_eq!(s.end(&mut rec, "x"), 0.0);
        rec.count("c", 5);
        rec.record_secs("y", 1.0);
        assert!(rec.phase_stats("x").is_none());
        assert!(rec.phase_stats("y").is_none());
        assert_eq!(rec.counter("c"), 0);
        assert!(rec.timeline().events().is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut rec = Recorder::new();
        rec.count("frames", 1);
        rec.count("frames", 2);
        assert_eq!(rec.counter("frames"), 3);
        assert_eq!(rec.counter("absent"), 0);
    }

    #[test]
    fn timeline_caps_and_counts_drops() {
        let mut rec = Recorder::new();
        for _ in 0..TIMELINE_CAP + 10 {
            rec.begin().end(&mut rec, "p");
        }
        assert_eq!(rec.timeline().events().len(), TIMELINE_CAP);
        assert_eq!(rec.timeline().dropped(), 10);
        assert_eq!(
            rec.phase_stats("p").unwrap().calls,
            (TIMELINE_CAP + 10) as u64,
            "phase stats keep counting past the timeline cap"
        );
    }

    #[test]
    fn reset_clears_data_but_not_enablement() {
        let mut rec = Recorder::new();
        rec.begin().end(&mut rec, "p");
        rec.count("c", 1);
        rec.reset();
        assert!(rec.is_enabled());
        assert!(rec.phase_stats("p").is_none());
        assert_eq!(rec.counter("c"), 0);
        assert!(rec.timeline().events().is_empty());
    }
}

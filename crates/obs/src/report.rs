//! Exportable snapshots of a recorder: JSON round-trip, cross-rank
//! merging and human-readable rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::json::Json;

/// One retained span on a rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Phase name the span was credited to.
    pub phase: String,
    /// Span start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Exported statistics for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Completed spans.
    pub calls: u64,
    /// Total seconds across spans.
    pub total_secs: f64,
    /// Latency distribution of individual spans.
    pub hist: Histogram,
}

/// A complete snapshot of one recorder, optionally stamped with the
/// rank it came from. Reports from many ranks merge into a fleet-wide
/// aggregate (see [`ObsReport::merge`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Originating rank, if stamped by the SPMD runner.
    pub rank: Option<usize>,
    /// Per-phase statistics, sorted by phase name.
    pub phases: BTreeMap<String, PhaseReport>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Retained timeline events (dropped on merge — a fleet aggregate
    /// has no single timeline).
    pub timeline: Vec<TimelineEvent>,
    /// Timeline events discarded after the cap.
    pub dropped_events: u64,
}

impl ObsReport {
    /// Fold `other` into `self`: phase stats and counters add, the
    /// merged report keeps no timeline (per-rank timelines only make
    /// sense per rank) and clears the rank stamp.
    pub fn merge(&mut self, other: &ObsReport) {
        self.rank = None;
        self.timeline.clear();
        self.dropped_events += other.dropped_events;
        for (name, p) in &other.phases {
            match self.phases.get_mut(name) {
                Some(mine) => {
                    mine.calls += p.calls;
                    mine.total_secs += p.total_secs;
                    mine.hist.merge(&p.hist);
                }
                None => {
                    self.phases.insert(name.clone(), p.clone());
                }
            }
        }
        for (name, &n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
    }

    /// Merge a sequence of per-rank reports into one aggregate.
    pub fn merged(reports: &[ObsReport]) -> ObsReport {
        let mut out = ObsReport::default();
        for r in reports {
            out.merge(r);
        }
        out
    }

    /// Export as a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Export as a JSON value tree.
    fn to_json_value(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|(name, p)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("calls".into(), Json::Num(p.calls as f64)),
                        ("total_secs".into(), Json::Num(p.total_secs)),
                        ("p50".into(), Json::Num(p.hist.p50())),
                        ("p95".into(), Json::Num(p.hist.p95())),
                        ("p99".into(), Json::Num(p.hist.p99())),
                        ("max".into(), Json::Num(p.hist.max())),
                        ("hist".into(), p.hist.to_json()),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
            .collect();
        let timeline = self
            .timeline
            .iter()
            .map(|ev| {
                Json::Obj(vec![
                    ("phase".into(), Json::Str(ev.phase.clone())),
                    ("start_us".into(), Json::Num(ev.start_us as f64)),
                    ("dur_us".into(), Json::Num(ev.dur_us as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "rank".into(),
                match self.rank {
                    Some(r) => Json::Num(r as f64),
                    None => Json::Null,
                },
            ),
            ("phases".into(), Json::Obj(phases)),
            ("counters".into(), Json::Obj(counters)),
            ("timeline".into(), Json::Arr(timeline)),
            (
                "dropped_events".into(),
                Json::Num(self.dropped_events as f64),
            ),
        ])
    }

    /// Render a human-readable per-phase table:
    /// `phase  calls  total  mean  p50  p95  p99  max`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .phases
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:name_w$}  {:>8}  {:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
            "phase", "calls", "total", "mean", "p50", "p95", "p99", "max"
        );
        for (name, p) in &self.phases {
            let _ = writeln!(
                out,
                "{:name_w$}  {:>8}  {:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                name,
                p.calls,
                fmt_secs(p.total_secs),
                fmt_secs(p.hist.mean()),
                fmt_secs(p.hist.p50()),
                fmt_secs(p.hist.p95()),
                fmt_secs(p.hist.p99()),
                fmt_secs(p.hist.max()),
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, n) in &self.counters {
                let _ = writeln!(out, "  {name} = {n}");
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(out, "({} timeline events dropped)", self.dropped_events);
        }
        out
    }
}

/// Format a duration in seconds with an adaptive unit (ns/µs/ms/s).
pub(crate) fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_report() -> ObsReport {
        let mut rec = Recorder::new();
        for i in 0..200 {
            rec.record_secs("collide", 1e-4 * (1.0 + (i % 7) as f64));
            rec.record_secs("stream", 2e-4);
        }
        rec.begin().end(&mut rec, "halo-wait");
        rec.count("steps", 200);
        let mut r = rec.report();
        r.rank = Some(3);
        r
    }

    #[test]
    fn json_export_parses_back_to_the_same_tree() {
        let r = sample_report();
        let tree = Json::parse(&r.to_json()).unwrap();
        assert_eq!(tree, r.to_json_value());
        assert_eq!(tree.get("rank").and_then(Json::as_u64), Some(3));
        let collide = tree.get("phases").and_then(|p| p.get("collide")).unwrap();
        assert_eq!(collide.get("calls").and_then(Json::as_u64), Some(200));
        assert_eq!(
            collide
                .get("total_secs")
                .and_then(Json::as_f64)
                .map(f64::to_bits),
            Some(r.phases["collide"].total_secs.to_bits())
        );
        assert_eq!(
            collide.get("hist"),
            Some(&r.phases["collide"].hist.to_json())
        );
        let steps = tree.get("counters").and_then(|c| c.get("steps"));
        assert_eq!(steps.and_then(Json::as_u64), Some(200));
        let timeline = tree.get("timeline").and_then(Json::as_arr).unwrap();
        assert_eq!(timeline.len(), r.timeline.len());
        assert_eq!(
            timeline[0].get("phase").and_then(Json::as_str),
            Some("halo-wait")
        );
        assert_eq!(tree.get("dropped_events").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn merged_report_sums_ranks() {
        let a = sample_report();
        let b = sample_report();
        let m = ObsReport::merged(&[a.clone(), b]);
        assert_eq!(m.rank, None);
        assert_eq!(m.phases["collide"].calls, 2 * a.phases["collide"].calls);
        assert_eq!(m.counters["steps"], 400);
        assert!(m.timeline.is_empty(), "aggregate keeps no timeline");
        let delta = (m.phases["stream"].total_secs - 2.0 * a.phases["stream"].total_secs).abs();
        assert!(delta < 1e-12);
    }

    #[test]
    fn table_mentions_every_phase() {
        let r = sample_report();
        let table = r.render_table();
        for phase in ["collide", "stream", "halo-wait"] {
            assert!(table.contains(phase), "{table}");
        }
        assert!(table.contains("steps = 200"), "{table}");
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert_eq!(fmt_secs(0.0), "0");
        assert!(fmt_secs(5e-9).ends_with("ns"));
        assert!(fmt_secs(5e-5).ends_with("µs"));
        assert!(fmt_secs(5e-3).ends_with("ms"));
        assert!(fmt_secs(5.0).ends_with('s'));
    }
}

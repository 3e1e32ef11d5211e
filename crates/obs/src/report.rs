//! Exportable snapshots of a recorder: JSON round-trip, cross-rank
//! merging and human-readable rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::json::{Json, JsonError};

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
    pub fn to_json_value(&self) -> Json {
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

    /// Rebuild a report from its [`ObsReport::to_json`] string.
    pub fn from_json(s: &str) -> Result<ObsReport, JsonError> {
        let v = Json::parse(s)?;
        Self::from_json_value(&v).ok_or_else(|| JsonError {
            offset: 0,
            message: "not an ObsReport document".to_string(),
        })
    }

    /// Rebuild from a parsed JSON value tree.
    pub fn from_json_value(v: &Json) -> Option<ObsReport> {
        let rank = match v.get("rank")? {
            Json::Null => None,
            n => Some(n.as_u64()? as usize),
        };
        let mut phases = BTreeMap::new();
        for (name, p) in v.get("phases")?.as_obj()? {
            phases.insert(
                name.clone(),
                PhaseReport {
                    calls: p.get("calls")?.as_u64()?,
                    total_secs: p.get("total_secs")?.as_f64()?,
                    hist: Histogram::from_json(p.get("hist")?)?,
                },
            );
        }
        let mut counters = BTreeMap::new();
        for (name, n) in v.get("counters")?.as_obj()? {
            counters.insert(name.clone(), n.as_u64()?);
        }
        let mut timeline = Vec::new();
        for ev in v.get("timeline")?.as_arr()? {
            timeline.push(TimelineEvent {
                phase: ev.get("phase")?.as_str()?.to_string(),
                start_us: ev.get("start_us")?.as_u64()?,
                dur_us: ev.get("dur_us")?.as_u64()?,
            });
        }
        Some(ObsReport {
            rank,
            phases,
            counters,
            timeline,
            dropped_events: v.get("dropped_events")?.as_u64()?,
        })
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
pub fn fmt_secs(s: f64) -> String {
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
    fn json_round_trip_preserves_everything() {
        let r = sample_report();
        let back = ObsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
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
    fn from_json_rejects_wrong_shape() {
        assert!(ObsReport::from_json("{}").is_err());
        assert!(ObsReport::from_json("[1,2]").is_err());
        assert!(ObsReport::from_json("not json").is_err());
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

//! Benchmark-side spans: one [`Track`] per thread that calls into the
//! program, a span around each call into a layer.
//!
//! Spans are named `<layer>.<what>`; the part before the first dot is
//! the layer. They are kept in memory and written out when the run ends.
//! A span's self time is its duration minus what its children cover, so
//! a layer's self time never counts a callee's work twice. A disabled
//! track still times the call (the end-to-end metrics need the wall
//! time) but records nothing.

use hemelb_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span every rank thread opens around its timed window.
pub const WINDOW: &str = "bench.window";

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same track.
    pub parent: Option<u32>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Track {
    label: String,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed: Option<u32>,
}

impl Track {
    /// A disabled track; `epoch` is shared by all tracks of a run.
    pub fn new(label: impl Into<String>, epoch: Instant) -> Self {
        Track {
            label: label.into(),
            epoch,
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span that may hold nested spans; returns the
    /// result and the wall seconds of the call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Track) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let idx = self.enabled.then(|| {
            let idx = self.spans.len() as u32;
            let start_ns = (t0 - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(idx);
            idx
        });
        let result = f(self);
        let elapsed = t0.elapsed();
        if let Some(idx) = idx {
            self.open.pop();
            let span = &mut self.spans[idx as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            self.last_closed = Some(idx);
        }
        (result, elapsed.as_secs_f64())
    }

    /// [`Track::span`] around a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.span(name, |_| f())
    }

    /// Record `secs` spent inside the span that closed last as a child
    /// of it. For time the program measures itself inside one public
    /// call (`CommStats` receive waits): the duration is measured, the
    /// position inside the parent is not known, so the child is placed
    /// at the parent's end.
    pub fn attach(&mut self, name: &'static str, secs: f64) {
        let Some(parent) = self.last_closed.filter(|_| self.enabled) else {
            return;
        };
        let p = &self.spans[parent as usize];
        let dur = ((secs * 1e9) as u64).min(p.end_ns - p.start_ns);
        let span = Span {
            name,
            start_ns: p.end_ns - dur,
            end_ns: p.end_ns,
            parent: Some(parent),
        };
        self.spans.push(span);
    }
}

/// What the spans of a run add up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Durations (seconds) of every span, by span name.
    by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Self seconds by layer, summed over tracks.
    self_by_layer: BTreeMap<&'static str, f64>,
    /// Seconds inside [`WINDOW`] spans, summed over tracks.
    window_secs: f64,
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

impl Summary {
    pub fn of(tracks: &[Track]) -> Self {
        let mut s = Summary::default();
        for track in tracks {
            let mut child_secs = vec![0.0; track.spans.len()];
            for span in &track.spans {
                if let Some(p) = span.parent {
                    child_secs[p as usize] += span.secs();
                }
            }
            for (span, children) in track.spans.iter().zip(child_secs) {
                s.by_name.entry(span.name).or_default().push(span.secs());
                *s.self_by_layer.entry(layer_of(span.name)).or_default() +=
                    (span.secs() - children).max(0.0);
                if span.name == WINDOW {
                    s.window_secs += span.secs();
                }
            }
        }
        s
    }

    /// Durations of the spans called `name`, seconds.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether any span of `layer` was recorded.
    pub fn has_layer(&self, layer: &str) -> bool {
        self.by_name.keys().any(|n| layer_of(n) == layer)
    }

    /// Share of the timed windows no layer span accounts for: the self
    /// time of the window spans over their duration.
    pub fn unattributed_frac(&self) -> f64 {
        if self.window_secs == 0.0 {
            return 0.0;
        }
        self.self_by_layer.get("bench").copied().unwrap_or(0.0) / self.window_secs
    }

    /// `(layer, self seconds)` for every layer but the window itself.
    pub fn layer_self_secs(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.self_by_layer
            .iter()
            .filter(|(l, _)| **l != "bench")
            .map(|(l, s)| (*l, *s))
    }
}

/// The trace file: every span with name, start, end and parent, grouped
/// by track, all sharing the run's identifier.
pub fn to_json(run_id: &str, workload: &str, seed: u64, tracks: &[Track]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let mut name_idx = |n: &'static str| match names.iter().position(|x| *x == n) {
        Some(i) => i,
        None => {
            names.push(n);
            names.len() - 1
        }
    };
    let tracks_json: Vec<Json> = tracks
        .iter()
        .map(|t| {
            let spans = t
                .spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Num(name_idx(s.name) as f64),
                        Json::Num(s.start_ns as f64),
                        Json::Num(s.end_ns as f64),
                        Json::Num(s.parent.map_or(-1.0, f64::from)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("label".into(), Json::Str(t.label.clone())),
                ("spans".into(), Json::Arr(spans)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("run_id".into(), Json::Str(run_id.into())),
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "span_fields".into(),
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent"]
                    .map(|f| Json::Str(f.into()))
                    .to_vec(),
            ),
        ),
        (
            "names".into(),
            Json::Arr(names.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        ("tracks".into(), Json::Arr(tracks_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_track_times_but_records_nothing() {
        let mut t = Track::new("t", Instant::now());
        let ((), secs) = t.leaf("core.step", || std::thread::sleep(Duration::from_millis(2)));
        assert!(secs >= 0.002);
        t.attach("parallel.halo_wait", 0.001);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_the_window_keeps_the_rest() {
        let mut t = Track::new("rank0", Instant::now());
        t.set_enabled(true);
        t.span(WINDOW, |t| {
            t.leaf("core.dist_step", || {
                std::thread::sleep(Duration::from_millis(4))
            });
            t.attach("parallel.halo_wait", 0.003);
            std::thread::sleep(Duration::from_millis(2));
        });
        let s = Summary::of(&[t]);
        let layers: BTreeMap<_, _> = s.layer_self_secs().collect();
        assert!((layers["parallel"] - 0.003).abs() < 1e-6);
        let step = s.durations("core.dist_step")[0];
        assert!((layers["core"] - (step - 0.003)).abs() < 1e-6);
        assert!(s.has_layer("parallel") && !s.has_layer("insitu"));
        // What the window holds beyond the step is unattributed.
        let window = s.durations(WINDOW)[0];
        assert!((s.unattributed_frac() - (window - step) / window).abs() < 1e-6);
        assert!(s.unattributed_frac() > 0.0);
    }

    #[test]
    fn attach_never_exceeds_its_parent() {
        let mut t = Track::new("t", Instant::now());
        t.set_enabled(true);
        t.leaf("core.step", || ());
        t.attach("parallel.halo_wait", 5.0);
        let s = Summary::of(&[t]);
        assert!(s.durations("parallel.halo_wait")[0] <= s.durations("core.step")[0]);
    }

    #[test]
    fn trace_file_lists_every_span_with_its_parent() {
        let mut t = Track::new("rank0", Instant::now());
        t.set_enabled(true);
        t.span(WINDOW, |t| {
            t.leaf("core.step", || ());
        });
        let json = to_json("run-1", "kernel_serial", 7, &[t]);
        let track = &json.get("tracks").unwrap().as_arr().unwrap()[0];
        let spans = track.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].as_arr().unwrap()[3].as_f64(), Some(-1.0));
        assert_eq!(spans[1].as_arr().unwrap()[3].as_f64(), Some(0.0));
        assert_eq!(json.get("run_id").unwrap().as_str(), Some("run-1"));
    }
}

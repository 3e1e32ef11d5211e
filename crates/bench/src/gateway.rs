//! Experiment E17 — the multi-tenant steering gateway under load.
//!
//! The original HemeLB steering server owned exactly one socket; the
//! gateway (DESIGN.md §2.13) multiplexes one driver plus any number of
//! observers over the same closed loop. E17 measures what that costs
//! and what the rendered-frame cache buys:
//!
//! * **Driver round trip under fan-out.** One driver requests frames
//!   while `observers` synthetic clients drain the broadcast stream.
//!   The p50/p99 `RequestFrame → ImageFrame` round trip shows whether
//!   hundreds of passive watchers perturb the steering loop.
//! * **Fan-out traffic.** Total bytes the master shipped across all
//!   sessions, and the per-frame broadcast cost.
//! * **Cache pay-off.** The driver then pauses the simulation and
//!   re-requests the same view: every repeat is served from the
//!   rendered-frame cache (one render, one encode, N sends), and the
//!   hit/miss counters come back through the closed-loop outcome.
//!
//! The report is also written as `out/BENCH_gateway.json` via the obs
//! JSON codec.

use crate::workloads::{self, fmt_bytes, Size};
use hemelb_core::SolverConfig;
use hemelb_obs::{fmt_secs, Histogram, ObsReport, Recorder};
use hemelb_parallel::run_spmd;
use hemelb_steering::{
    duplex_listener, run_closed_loop_opts, Acceptor, ClosedLoopConfig, GatewayConfig,
    SteeringClient, SteeringCommand,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::{Arc, Barrier};

/// Everything E17 measures.
pub struct GatewayResult {
    /// Ranks in the run.
    pub ranks: usize,
    /// Synthetic observer clients attached alongside the driver.
    pub observers: usize,
    /// Driver `RequestFrame → ImageFrame` round trips (seconds), taken
    /// while the simulation advances (cache misses).
    pub rtts: Vec<f64>,
    /// Repeat requests of the identical paused view (cache hits).
    pub cached_rtts: Vec<f64>,
    /// Total bytes the master shipped across every session.
    pub fanout_bytes: u64,
    /// Frames rendered (cache misses that produced pixels).
    pub frames_rendered: u64,
    /// Frames replayed from the rendered-frame cache.
    pub frames_from_cache: u64,
    /// Frame-cache hits across the run.
    pub cache_hits: u64,
    /// Frame-cache misses across the run.
    pub cache_misses: u64,
    /// Peak concurrent sessions the gateway saw (driver + observers).
    pub sessions_peak: u64,
    /// Broadcast images received per observer: (min, max).
    pub observer_frames: (u64, u64),
    /// The exported report, also written to `out/BENCH_gateway.json`.
    pub report: ObsReport,
}

impl GatewayResult {
    fn hist(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Cache hits as a fraction of all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Run E17: one driver plus `observers` synthetic clients against a
/// gateway-mode closed loop, `frames` live round trips then `frames`
/// cached repeats of the paused view.
pub fn run(size: Size, ranks: usize, observers: usize, frames: usize) -> GatewayResult {
    let geo = workloads::aneurysm(size);
    let ranks = ranks.max(2);
    let (connector, acceptor) = duplex_listener();
    let acceptor_slot = Arc::new(Mutex::new(Some(Box::new(acceptor) as Box<dyn Acceptor>)));

    let client_thread = std::thread::spawn(move || {
        // First to dial becomes the driver.
        let driver = SteeringClient::new(Box::new(connector.connect().unwrap()));
        let (first, _) = driver.request_frame().expect("driver's first frame");

        // The observer fleet: each drains the broadcast stream until the
        // server goes away, counting the images it saw. The driver waits
        // for the whole fleet to have dialled before its next request,
        // so every frame from here on fans out to all of them and the
        // bytes shipped depend on the workload, not on thread start-up.
        let dialled = Arc::new(Barrier::new(observers + 1));
        let observer_threads: Vec<_> = (0..observers)
            .map(|_| {
                let conn = connector.clone();
                let dialled = dialled.clone();
                std::thread::spawn(move || {
                    let client = SteeringClient::new(Box::new(conn.connect().unwrap()));
                    dialled.wait();
                    let mut images = 0u64;
                    while let Ok(msg) = client.recv() {
                        if matches!(msg, hemelb_steering::protocol::ServerMessage::Image(_)) {
                            images += 1;
                        }
                    }
                    images
                })
            })
            .collect();

        // Live round trips: the simulation advances between frames, so
        // every request is a cache miss rendered under full fan-out.
        dialled.wait();
        let mut rtts = Vec::with_capacity(frames);
        for _ in 0..frames {
            let (_, rtt) = driver.request_frame().expect("live frame");
            rtts.push(rtt.as_secs_f64());
        }

        // Freeze the flow, wait for the pause to land (two consecutive
        // frames at the same step), then measure pure cache replays.
        driver.send(&SteeringCommand::Pause).unwrap();
        let mut prev = first.step;
        loop {
            let (img, _) = driver.request_frame().expect("pause settles");
            if img.step == prev {
                break;
            }
            prev = img.step;
        }
        let mut cached_rtts = Vec::with_capacity(frames);
        for _ in 0..frames {
            let (img, rtt) = driver.request_frame().expect("cached frame");
            assert_eq!(img.step, prev, "paused view repeats");
            cached_rtts.push(rtt.as_secs_f64());
        }

        driver.send(&SteeringCommand::Terminate).unwrap();
        while driver.recv().is_ok() {}
        let counts: Vec<u64> = observer_threads
            .into_iter()
            .map(|t| t.join().expect("observer thread"))
            .collect();
        (rtts, cached_rtts, counts)
    });

    let geo2 = geo.clone();
    let out = run_spmd(ranks, move |comm| {
        let acceptor = if comm.is_master() {
            acceptor_slot.lock().take()
        } else {
            None
        };
        run_closed_loop_opts(
            geo2.clone(),
            workloads::slab_owner(&geo2, comm.size()),
            SolverConfig::pressure_driven(1.005, 0.995),
            comm,
            None,
            acceptor,
            &ClosedLoopConfig {
                max_steps: u64::MAX / 2,
                image: (64, 48),
                initial_vis_rate: u32::MAX, // frames only on request
                steps_per_cycle: 5,
                gateway: Some(GatewayConfig::default()),
                ..Default::default()
            },
        )
        .unwrap()
    });
    let (rtts, cached_rtts, observer_counts) = client_thread.join().expect("client thread");
    let master = &out[0];

    let observer_frames = (
        observer_counts.iter().copied().min().unwrap_or(0),
        observer_counts.iter().copied().max().unwrap_or(0),
    );

    // Export through the obs codec.
    let live = GatewayResult::hist(&rtts);
    let cached = GatewayResult::hist(&cached_rtts);
    let mut rec = Recorder::new();
    rec.record_secs("gateway.rtt_p50.live", live.p50());
    rec.record_secs("gateway.rtt_p99.live", live.p99());
    rec.record_secs("gateway.rtt_p50.cached", cached.p50());
    rec.record_secs("gateway.rtt_p99.cached", cached.p99());
    rec.count("gateway.observers", observers as u64);
    rec.count("gateway.sessions_peak", master.sessions_peak);
    rec.count("gateway.fanout_bytes", master.steering_bytes);
    rec.count("gateway.frames_rendered", master.frames_rendered);
    rec.count("gateway.frames_from_cache", master.frames_from_cache);
    rec.count("gateway.cache.hits", master.cache_hits);
    rec.count("gateway.cache.misses", master.cache_misses);
    rec.count(
        "gateway.cache.hit_rate_permille",
        ((master.cache_hits as f64 / (master.cache_hits + master.cache_misses).max(1) as f64)
            * 1000.0)
            .round() as u64,
    );
    let report = rec.report();
    let path = workloads::out_dir().join("BENCH_gateway.json");
    std::fs::write(&path, report.to_json()).expect("BENCH_gateway.json written");

    GatewayResult {
        ranks,
        observers,
        rtts,
        cached_rtts,
        fanout_bytes: master.steering_bytes,
        frames_rendered: master.frames_rendered,
        frames_from_cache: master.frames_from_cache,
        cache_hits: master.cache_hits,
        cache_misses: master.cache_misses,
        sessions_peak: master.sessions_peak,
        observer_frames,
        report,
    }
}

impl fmt::Display for GatewayResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = Self::hist(&self.rtts);
        let cached = Self::hist(&self.cached_rtts);
        writeln!(
            f,
            "Steering gateway under load ({} ranks, 1 driver + {} observers, peak {} sessions):",
            self.ranks, self.observers, self.sessions_peak
        )?;
        writeln!(
            f,
            "{:>14} {:>10} {:>10} {:>8}",
            "frames", "p50", "p99", "count"
        )?;
        writeln!(
            f,
            "{:>14} {:>10} {:>10} {:>8}",
            "live (render)",
            fmt_secs(live.p50()),
            fmt_secs(live.p99()),
            self.rtts.len()
        )?;
        writeln!(
            f,
            "{:>14} {:>10} {:>10} {:>8}",
            "cached replay",
            fmt_secs(cached.p50()),
            fmt_secs(cached.p99()),
            self.cached_rtts.len()
        )?;
        writeln!(
            f,
            "fan-out: {} shipped; {} rendered + {} cached frames; cache {}/{} hits ({:.0}%)",
            fmt_bytes(self.fanout_bytes),
            self.frames_rendered,
            self.frames_from_cache,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.hit_rate(),
        )?;
        writeln!(
            f,
            "observer broadcast frames: min {} / max {} across {} observers",
            self.observer_frames.0, self.observer_frames.1, self.observers
        )?;
        writeln!(f, "JSON: out/BENCH_gateway.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_load_test_reports_cache_hits_and_fanout() {
        let (observers, frames) = (8, 3);
        let r = run(Size::Tiny, 2, observers, frames);
        assert_eq!(r.rtts.len(), frames);
        assert_eq!(r.cached_rtts.len(), frames);
        assert_eq!(r.sessions_peak, observers as u64 + 1, "driver + observers");
        // The driver asks for the first frame, `frames` live ones, two
        // while the pause settles and `frames` repeats; each request is
        // one cache lookup.
        let requested = 2 * frames as u64 + 3;
        assert_eq!(r.cache_hits + r.cache_misses, requested);
        assert_eq!(r.frames_rendered, r.cache_misses);
        assert_eq!(r.frames_from_cache, r.cache_hits);
        // The repeats and the second settling frame always hit; the
        // first settling frame hits too unless the simulation got one
        // more cycle in before the pause landed.
        let sure = frames as u64 + 1;
        assert!(
            (sure..=sure + 1).contains(&r.cache_hits),
            "{} hits of {requested}",
            r.cache_hits
        );
        // Every observer dialled in before the second request, and a
        // newcomer is sent the frame in hand: all of them saw all of it.
        assert_eq!(r.observer_frames, (requested, requested));
        assert!(r.fanout_bytes > 0);
        let back = ObsReport::from_json(&r.report.to_json()).expect("valid JSON");
        assert_eq!(back.counters["gateway.cache.hits"], r.cache_hits);
        assert_eq!(back.counters["gateway.observers"], observers as u64);
    }
}

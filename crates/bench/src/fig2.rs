//! Experiment E3 — the paper's **Fig. 2**: the closed-loop system
//! architecture with computational steering.
//!
//! The figure is an architecture diagram; its measurable content is the
//! *round-trip* of the six-step in situ loop (client → master → vis
//! component → image → master → client) — the latency that decides
//! whether the loop is interactive. We run the real closed loop and
//! time `RequestFrame → ImageFrame` round trips for a sweep of image
//! sizes and rank counts.

use crate::workloads::{self, Size};
use hemelb_core::SolverConfig;
use hemelb_parallel::{run_spmd_opts, SpmdOptions};
use hemelb_steering::{
    duplex_pair, run_closed_loop, ClosedLoopConfig, SteeringClient, SteeringCommand, Transport,
};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Ranks.
    pub ranks: usize,
    /// Image size.
    pub image: (u32, u32),
    /// Round-trip latencies of successive frame requests (seconds).
    pub rtts: Vec<f64>,
    /// Steering bytes shipped to the client.
    pub steering_bytes: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Render samples shaded, all ranks (macrocell skipping on).
    pub samples_shaded: u64,
    /// Render samples skipped by macrocell jumps, all ranks.
    pub samples_skipped: u64,
    /// Compositing bytes actually sent (run-length sparse), all ranks.
    pub composite_wire: u64,
    /// Compositing bytes the dense 20 B/px format would have sent.
    pub composite_dense: u64,
}

impl Fig2Row {
    /// Median round-trip time.
    pub fn median_rtt(&self) -> f64 {
        let mut v = self.rtts.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    /// The round-trip latency distribution as an observability
    /// histogram (for p50/p95/p99 quantiles).
    pub fn rtt_histogram(&self) -> hemelb_obs::Histogram {
        let mut h = hemelb_obs::Histogram::new();
        for &s in &self.rtts {
            h.record(s);
        }
        h
    }
}

/// The sweep result.
pub struct Fig2Result {
    /// Rows.
    pub rows: Vec<Fig2Row>,
}

/// Run E3: for each `(ranks, image)` configuration, run the closed loop
/// and have a client issue `frames` frame requests.
pub fn run(size: Size, configs: &[(usize, (u32, u32))], frames: usize) -> Fig2Result {
    let geo = workloads::aneurysm(size);
    let mut rows = Vec::new();
    for &(ranks, image) in configs {
        let (client_end, server_end) = duplex_pair();
        let server_slot = Arc::new(Mutex::new(Some(Box::new(server_end) as Box<dyn Transport>)));
        let geo2 = geo.clone();

        let client_thread = std::thread::spawn(move || {
            let client = SteeringClient::new(Box::new(client_end));
            let mut rtts = Vec::with_capacity(frames);
            for _ in 0..frames {
                let (_, rtt) = client.request_frame().expect("frame round trip");
                rtts.push(rtt.as_secs_f64());
            }
            client.send(&SteeringCommand::Terminate).ok();
            // Drain trailing messages until the server closes.
            while client.recv().is_ok() {}
            rtts
        });

        let output = run_spmd_opts(ranks, SpmdOptions::default(), move |comm| {
            let transport = if comm.is_master() {
                server_slot.lock().take()
            } else {
                None
            };
            run_closed_loop(
                geo2.clone(),
                workloads::slab_owner(&geo2, comm.size()),
                SolverConfig::pressure_driven(1.01, 0.99),
                comm,
                transport,
                &ClosedLoopConfig {
                    max_steps: u64::MAX / 2,
                    image,
                    initial_vis_rate: u32::MAX, // frames only on request
                    steps_per_cycle: 5,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let rtts = client_thread.join().expect("client thread");
        let merged = output.merged_obs();
        let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
        rows.push(Fig2Row {
            ranks,
            image,
            rtts,
            steering_bytes: output.results[0].steering_bytes,
            frames: output.results[0].frames_rendered,
            samples_shaded: counter("vis.render.samples_shaded"),
            samples_skipped: counter("vis.render.samples_skipped"),
            composite_wire: counter("vis.composite.bytes_wire"),
            composite_dense: counter("vis.composite.bytes_dense"),
        });
    }
    Fig2Result { rows }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 2 (measured): closed-loop steering round trip (client→master→vis→image→client)"
        )?;
        writeln!(
            f,
            "{:>6} {:>10} {:>12} {:>10} {:>10} {:>14} {:>12} {:>9} {:>16}",
            "ranks",
            "image",
            "median RTT",
            "p50",
            "p95",
            "steering sent",
            "frames",
            "skip%",
            "composite"
        )?;
        for r in &self.rows {
            let h = r.rtt_histogram();
            let samples = r.samples_shaded + r.samples_skipped;
            let skip_pct = if samples == 0 {
                0.0
            } else {
                100.0 * r.samples_skipped as f64 / samples as f64
            };
            writeln!(
                f,
                "{:>6} {:>4}x{:<5} {:>10.2} ms {:>10} {:>10} {:>14} {:>12} {:>8.1}% {:>7}/{:<8}",
                r.ranks,
                r.image.0,
                r.image.1,
                r.median_rtt() * 1e3,
                hemelb_obs::fmt_secs(h.p50()),
                hemelb_obs::fmt_secs(h.p95()),
                workloads::fmt_bytes(r.steering_bytes),
                r.frames,
                skip_pct,
                workloads::fmt_bytes(r.composite_wire),
                workloads::fmt_bytes(r.composite_dense),
            )?;
        }
        writeln!(
            f,
            "(skip% = render samples skipped by macrocells; composite = \
             bytes on wire / dense 20 B-per-px equivalent)"
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_round_trips_complete() {
        let result = run(Size::Tiny, &[(2, (32, 24))], 3);
        let row = &result.rows[0];
        assert_eq!(row.rtts.len(), 3);
        assert!(row.frames >= 3);
        assert!(
            row.steering_bytes > 3 * 32 * 24 * 3,
            "three RGB frames shipped"
        );
        assert!(row.median_rtt() < 60.0, "interactive on any machine");
        assert!(row.samples_shaded > 0, "render counters recorded");
        assert!(
            row.composite_wire > 0 && row.composite_wire < row.composite_dense,
            "sparse compositing beats dense: {} vs {}",
            row.composite_wire,
            row.composite_dense
        );
    }
}

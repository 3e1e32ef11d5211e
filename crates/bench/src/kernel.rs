//! Experiment E16 — kernel throughput: site-updates/sec of the serial
//! solver on the standard aneurysm workload, one core.
//!
//! The lattice-Boltzmann inner loop is memory-bound; the kernel walks
//! one contiguous lane per velocity direction with streaming resolved
//! through a compiled plan. This report is the gated record of how fast
//! that runs, plus an inline check that the arithmetic is still the
//! blessed one: the `cylinder_bgk_pressure_d3q15` golden case is re-run
//! and its `f=` digest compared with the stored fixture.
//!
//! Methodology: best-of-`reps` per-step time after an untimed warm-up.
//! Results export to `out/BENCH_kernel.json` under the `kernel.soa-simd.*`
//! names the gate history has carried since PR 6.

use crate::workloads::{self, Size};
use hemelb_core::{Solver, SolverConfig};
use hemelb_geometry::VesselBuilder;
use hemelb_obs::Recorder;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The fixture the inline digest check reproduces (see `tests/golden.rs`).
const GOLDEN_CYLINDER: &str = include_str!("../../../tests/golden/cylinder_bgk_pressure_d3q15.txt");

/// The E16 result.
pub struct KernelResult {
    /// Fluid sites in the workload.
    pub sites: usize,
    /// Steps per timed round.
    pub steps: u64,
    /// Timed rounds (best kept).
    pub reps: usize,
    /// Fraction of sites whose streaming is segment copies alone.
    pub bulk_fraction: f64,
    /// Best-of-`reps` wall seconds per LB step.
    pub seconds_per_step: f64,
    /// Fluid-site updates per second at that rate.
    pub site_updates_per_sec: f64,
    /// Whether the golden cylinder case reproduced its stored `f=` digest.
    pub bit_identical: bool,
}

/// Re-run the `cylinder_bgk_pressure_d3q15` golden case and compare the
/// FNV-1a digest of its distribution bit patterns with the fixture.
fn golden_digest_reproduced() -> bool {
    let geo = Arc::new(VesselBuilder::straight_tube(12.0, 3.0).voxelise(1.0));
    let mut solver = Solver::new(geo, SolverConfig::pressure_driven(1.01, 0.99));
    solver.step_n(50);
    let mut h = 0xcbf29ce484222325u64;
    for v in solver.raw_distributions() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    let want = GOLDEN_CYLINDER
        .lines()
        .find_map(|l| l.strip_prefix("f="))
        .expect("fixture has an f= digest line");
    format!("{h:016x}") == want
}

/// Run E16: best-of-5 timing of the kernel on the standard aneurysm,
/// with the inline golden-digest check.
pub fn run(size: Size, steps: u64) -> KernelResult {
    let geo = workloads::aneurysm(size);
    let sites = geo.fluid_count();
    let mut solver = Solver::new(geo, SolverConfig::pressure_driven(1.005, 0.995));
    let bulk_fraction = solver.bulk_fraction().unwrap_or(0.0);

    // Warm-up round (untimed): touches every lane, settles the flow off
    // the uniform initial state and lets the core clock ramp.
    solver.step_n(steps);

    let reps = 5usize;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        solver.step_n(steps);
        best = best.min(t0.elapsed().as_secs_f64() / steps as f64);
    }
    let bit_identical = golden_digest_reproduced();

    // Export through the obs codec.
    let mut rec = Recorder::new();
    rec.record_secs("kernel.soa-simd.step", best);
    rec.count(
        "kernel.soa-simd.site_updates_per_sec",
        (sites as f64 / best) as u64,
    );
    rec.count("kernel.soa-simd.bit_identical", u64::from(bit_identical));
    rec.count("kernel.sites", sites as u64);
    rec.count("kernel.bulk_permille", (bulk_fraction * 1000.0) as u64);
    let path = workloads::out_dir().join("BENCH_kernel.json");
    std::fs::write(&path, rec.report().to_json()).expect("BENCH_kernel.json written");

    KernelResult {
        sites,
        steps,
        reps,
        bulk_fraction,
        seconds_per_step: best,
        site_updates_per_sec: sites as f64 / best,
        bit_identical,
    }
}

impl fmt::Display for KernelResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Kernel throughput — {} sites, {} steps/round, best of {} rounds",
            self.sites, self.steps, self.reps
        )?;
        writeln!(
            f,
            "bulk (copy-only) fraction of the streaming plan: {:.1}%",
            self.bulk_fraction * 100.0
        )?;
        writeln!(
            f,
            "{:>12} {:>16} {:>14}",
            "ms/step", "site-updates/s", "golden digest"
        )?;
        writeln!(
            f,
            "{:>12.3} {:>16.0} {:>14}",
            self.seconds_per_step * 1e3,
            self.site_updates_per_sec,
            if self.bit_identical {
                "reproduced"
            } else {
                "DIVERGED"
            },
        )?;
        writeln!(f, "JSON: out/BENCH_kernel.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_report_measures_and_reproduces_the_golden_digest() {
        let result = run(Size::Tiny, 3);
        assert!(result.bit_identical, "golden cylinder digest diverged");
        assert!(result.site_updates_per_sec > 0.0);
        assert!(result.bulk_fraction > 0.0 && result.bulk_fraction <= 1.0);
        assert!(workloads::out_dir().join("BENCH_kernel.json").exists());
    }
}

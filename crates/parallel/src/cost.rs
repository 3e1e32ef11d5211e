//! The α–β–γ communication/computation cost model.
//!
//! The substrate measures *exact* message and byte counts; this module
//! turns those counts into projected wall-clock times on machines we do
//! not have access to — the device that lets a thread-scale run speak to
//! the paper's exascale questions. The model is the classic
//! postal/LogP-flavoured linear model
//!
//! ```text
//! T = α · messages + bytes / β + flops / γ
//! ```
//!
//! with `α` the per-message latency (s), `β` the bandwidth (B/s) and `γ`
//! the compute rate (flop/s). Two presets bracket the design space of the
//! 2012 paper: a HECToR-like Cray XE6 node (the machine HemeLB's 32k-core
//! scaling study ran on) and a projected exascale node following the
//! DOE/ASCAC exascale report the paper cites (its reference [12]): much
//! more compute per node than bandwidth, and latency that barely improves
//! — exactly the regime in which the paper argues data movement becomes
//! the dominant cost.

pub mod calibrate;

/// Machine presets for cost projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineModel {
    /// Cray XE6 / Gemini-class interconnect (c. 2012, HECToR): α ≈ 1.5 µs,
    /// β ≈ 5 GB/s per link, γ ≈ 10 Gflop/s per core.
    CrayXe6,
    /// ASCAC-report exascale projection: α ≈ 0.5 µs, β ≈ 50 GB/s,
    /// γ ≈ 1 Tflop/s per node — a 100× compute jump against a 10×
    /// bandwidth jump, so byte-heavy algorithms regress *relative to*
    /// compute.
    ExascaleProjection,
}

/// Linear cost model `T = α·msgs + bytes/β + flops/γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Bandwidth, bytes per second.
    pub beta: f64,
    /// Compute rate, flops per second.
    pub gamma: f64,
}

impl CostModel {
    /// Build a model from a preset.
    pub fn for_machine(machine: MachineModel) -> Self {
        match machine {
            MachineModel::CrayXe6 => CostModel {
                alpha: 1.5e-6,
                beta: 5.0e9,
                gamma: 1.0e10,
            },
            MachineModel::ExascaleProjection => CostModel {
                alpha: 0.5e-6,
                beta: 5.0e10,
                gamma: 1.0e12,
            },
        }
    }

    /// Projected time for a communication phase of `msgs` messages
    /// carrying `bytes` payload bytes, plus `flops` arithmetic.
    pub fn time(&self, msgs: u64, bytes: u64, flops: u64) -> f64 {
        self.alpha * msgs as f64 + bytes as f64 / self.beta + flops as f64 / self.gamma
    }

    /// Projected cost breakdown for the *critical path* of one rank:
    /// callers pass the per-rank maxima (bulk-synchronous phases are
    /// gated by the slowest rank).
    pub fn critical_path(&self, max_msgs: u64, max_bytes: u64, max_flops: u64) -> ProjectedCost {
        ProjectedCost {
            latency_s: self.alpha * max_msgs as f64,
            transfer_s: max_bytes as f64 / self.beta,
            compute_s: max_flops as f64 / self.gamma,
        }
    }
}

/// A decomposed projected time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedCost {
    /// α-term: message-count-dominated latency.
    pub latency_s: f64,
    /// β-term: byte-volume transfer time.
    pub transfer_s: f64,
    /// γ-term: arithmetic time.
    pub compute_s: f64,
}

impl ProjectedCost {
    /// Total projected seconds.
    pub fn total_s(&self) -> f64 {
        self.latency_s + self.transfer_s + self.compute_s
    }

    /// Fraction of the total spent moving data (α+β terms) — the
    /// "data movement" share the exascale report warns about.
    pub fn data_movement_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            (self.latency_s + self.transfer_s) / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_in_each_term() {
        let m = CostModel::for_machine(MachineModel::CrayXe6);
        let t1 = m.time(1, 0, 0);
        let t2 = m.time(2, 0, 0);
        assert!((t2 - 2.0 * t1).abs() < 1e-18);
        let b1 = m.time(0, 1000, 0);
        let b2 = m.time(0, 3000, 0);
        assert!((b2 - 3.0 * b1).abs() < 1e-12);
    }

    #[test]
    fn exascale_shifts_balance_toward_communication() {
        // Same workload: 1e9 flops, 1e8 bytes, 1e4 messages.
        let xe6 = CostModel::for_machine(MachineModel::CrayXe6).critical_path(
            1_0000,
            100_000_000,
            1_000_000_000,
        );
        let exa = CostModel::for_machine(MachineModel::ExascaleProjection).critical_path(
            1_0000,
            100_000_000,
            1_000_000_000,
        );
        // On the exascale projection, data movement takes a strictly larger
        // share of the total — the paper's central premise.
        assert!(exa.data_movement_fraction() > xe6.data_movement_fraction());
    }

    #[test]
    fn zero_workload_costs_nothing() {
        let m = CostModel::for_machine(MachineModel::CrayXe6);
        assert_eq!(m.time(0, 0, 0), 0.0);
        assert_eq!(m.critical_path(0, 0, 0).data_movement_fraction(), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let c = CostModel::for_machine(MachineModel::CrayXe6).critical_path(5, 1 << 20, 1 << 24);
        let sum = c.latency_s + c.transfer_s + c.compute_s;
        assert!((c.total_s() - sum).abs() < 1e-18);
    }
}

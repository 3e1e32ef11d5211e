//! Communication accounting.
//!
//! Every send performed through a [`Communicator`](crate::Communicator)
//! is recorded in a per-rank [`CommStats`]: one message count and one byte
//! count per [`TagClass`]. The experiment harness aggregates the per-rank
//! records into a [`StatsSummary`] (totals, per-rank maxima, imbalance),
//! which is the measured stand-in for the paper's qualitative
//! "communication cost" column.

use std::fmt;

/// Traffic classes, one per co-design subsystem (derived from tag ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagClass {
    /// Collective-internal traffic (barriers, reductions, ...).
    Collective,
    /// LB halo exchange (distribution functions crossing rank boundaries).
    Halo,
    /// Geometry loading and redistribution (pre-processing).
    Geometry,
    /// Data migration due to (re)partitioning.
    Migration,
    /// In situ visualisation traffic moving simulation data (halo
    /// strips, particle hand-off, ...).
    Visualisation,
    /// Image compositing traffic (result reduction).
    Compositing,
    /// Steering protocol traffic.
    Steering,
    /// Application-defined traffic.
    User,
}

impl TagClass {
    /// All classes, in reporting order.
    pub const ALL: [TagClass; 8] = [
        TagClass::Collective,
        TagClass::Halo,
        TagClass::Geometry,
        TagClass::Migration,
        TagClass::Visualisation,
        TagClass::Compositing,
        TagClass::Steering,
        TagClass::User,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            TagClass::Collective => 0,
            TagClass::Halo => 1,
            TagClass::Geometry => 2,
            TagClass::Migration => 3,
            TagClass::Visualisation => 4,
            TagClass::Compositing => 5,
            TagClass::Steering => 6,
            TagClass::User => 7,
        }
    }

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            TagClass::Collective => "collective",
            TagClass::Halo => "halo",
            TagClass::Geometry => "geometry",
            TagClass::Migration => "migration",
            TagClass::Visualisation => "vis",
            TagClass::Compositing => "composite",
            TagClass::Steering => "steering",
            TagClass::User => "user",
        }
    }
}

/// Injected-fault event kinds recorded in [`CommStats`] by the
/// fault-injection layer (`hemelb_parallel::fault`). `Dedup` counts
/// receiver-side drops of duplicated messages — the proof that a
/// duplicate was both injected and absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStat {
    /// A send was delayed.
    Delay,
    /// A send was swallowed.
    Drop,
    /// A send was delivered twice.
    Duplicate,
    /// A duplicated message was dropped by receiver-side dedup.
    Dedup,
}

impl FaultStat {
    /// All kinds, in reporting order.
    pub const ALL: [FaultStat; 4] = [
        FaultStat::Delay,
        FaultStat::Drop,
        FaultStat::Duplicate,
        FaultStat::Dedup,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultStat::Delay => 0,
            FaultStat::Drop => 1,
            FaultStat::Duplicate => 2,
            FaultStat::Dedup => 3,
        }
    }

    /// Short label used in counters and report tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultStat::Delay => "delay",
            FaultStat::Drop => "drop",
            FaultStat::Duplicate => "duplicate",
            FaultStat::Dedup => "dedup",
        }
    }
}

/// Per-rank communication counters.
///
/// Counters are cumulative over the life of a rank; callers that need
/// per-phase figures snapshot with [`CommStats::clone`] and subtract with
/// [`CommStats::delta_since`].
///
/// Besides message/byte volume this also accounts *time*: per-class
/// wall seconds spent blocked inside `recv` (`recv_wait_secs`) and
/// spent in `send` (`send_secs`), the complement the observability
/// layer needs to turn Table I's "communication cost" from a volume
/// column into a latency budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    msgs: [u64; 8],
    bytes: [u64; 8],
    recv_wait: [f64; 8],
    send_time: [f64; 8],
    faults: [u64; 4],
    /// Number of blocking collective entries (synchronisation points).
    pub sync_points: u64,
    /// Number of repartitions (adaptive or steered) this rank took part
    /// in. Migration *traffic* is under [`TagClass::Migration`]; this
    /// counts the events themselves.
    pub rebalances: u64,
    /// Wall seconds of useful compute performed *under* in-flight halo
    /// messages (the interior collide+stream of an overlapped LB step).
    overlap_compute: f64,
    /// Wall seconds still blocked on halo receives *after* the
    /// overlapped compute finished — the residual latency the overlap
    /// failed to hide.
    overlap_residual: f64,
}

impl CommStats {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sent message of `len` payload bytes in `class`.
    #[inline]
    pub(crate) fn record_send(&mut self, class: TagClass, len: usize) {
        let i = class.index();
        self.msgs[i] += 1;
        self.bytes[i] += len as u64;
    }

    /// Record entry into a blocking collective (a synchronisation point).
    #[inline]
    pub(crate) fn record_sync(&mut self) {
        self.sync_points += 1;
    }

    /// Record participation in one repartition event.
    #[inline]
    pub(crate) fn record_rebalance(&mut self) {
        self.rebalances += 1;
    }

    /// Record wall seconds spent blocked in a `recv` of `class`.
    #[inline]
    pub(crate) fn record_recv_wait(&mut self, class: TagClass, secs: f64) {
        self.recv_wait[class.index()] += secs;
    }

    /// Record wall seconds spent inside a `send` of `class`.
    #[inline]
    pub(crate) fn record_send_time(&mut self, class: TagClass, secs: f64) {
        self.send_time[class.index()] += secs;
    }

    /// Record one overlapped exchange: `compute` seconds of interior
    /// work done while halo messages were in flight, and `residual`
    /// seconds still blocked on receives after that work finished.
    #[inline]
    pub(crate) fn record_overlap(&mut self, compute: f64, residual: f64) {
        self.overlap_compute += compute.max(0.0);
        self.overlap_residual += residual.max(0.0);
    }

    /// Wall seconds of compute performed under in-flight halo messages.
    #[inline]
    pub fn overlap_compute_secs(&self) -> f64 {
        self.overlap_compute
    }

    /// Wall seconds still blocked on halo receives after overlapped
    /// compute finished.
    #[inline]
    pub fn overlap_residual_secs(&self) -> f64 {
        self.overlap_residual
    }

    /// Fraction of the overlapped-exchange window spent computing
    /// rather than waiting: `compute / (compute + residual)`. 1.0 means
    /// the halo latency was hidden entirely; reported as 1.0 when no
    /// overlapped exchange was recorded.
    pub fn overlap_efficiency(&self) -> f64 {
        let total = self.overlap_compute + self.overlap_residual;
        if total > 0.0 {
            self.overlap_compute / total
        } else {
            1.0
        }
    }

    /// Record one injected (or absorbed) fault event of `kind`.
    #[inline]
    pub(crate) fn record_fault(&mut self, kind: FaultStat) {
        self.faults[kind.index()] += 1;
    }

    /// Injected/absorbed fault events of `kind`.
    #[inline]
    pub fn faults(&self, kind: FaultStat) -> u64 {
        self.faults[kind.index()]
    }

    /// Total fault events across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Messages sent in `class`.
    #[inline]
    pub fn msgs(&self, class: TagClass) -> u64 {
        self.msgs[class.index()]
    }

    /// Payload bytes sent in `class`.
    #[inline]
    pub fn bytes(&self, class: TagClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Wall seconds spent blocked in `recv` for `class`.
    #[inline]
    pub fn recv_wait_secs(&self, class: TagClass) -> f64 {
        self.recv_wait[class.index()]
    }

    /// Wall seconds spent inside `send` for `class`.
    #[inline]
    pub fn send_secs(&self, class: TagClass) -> f64 {
        self.send_time[class.index()]
    }

    /// Total seconds spent blocked in `recv` across all classes.
    pub fn total_recv_wait_secs(&self) -> f64 {
        self.recv_wait.iter().sum()
    }

    /// Total messages sent across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total payload bytes sent across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Counter-wise difference `self - earlier` (panics on underflow,
    /// which would indicate the snapshots were swapped).
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        let mut out = CommStats::default();
        for i in 0..8 {
            out.msgs[i] = self.msgs[i]
                .checked_sub(earlier.msgs[i])
                .expect("stats snapshots out of order");
            out.bytes[i] = self.bytes[i]
                .checked_sub(earlier.bytes[i])
                .expect("stats snapshots out of order");
            out.recv_wait[i] = (self.recv_wait[i] - earlier.recv_wait[i]).max(0.0);
            out.send_time[i] = (self.send_time[i] - earlier.send_time[i]).max(0.0);
        }
        for i in 0..4 {
            out.faults[i] = self.faults[i]
                .checked_sub(earlier.faults[i])
                .expect("stats snapshots out of order");
        }
        out.sync_points = self
            .sync_points
            .checked_sub(earlier.sync_points)
            .expect("stats snapshots out of order");
        out.rebalances = self
            .rebalances
            .checked_sub(earlier.rebalances)
            .expect("stats snapshots out of order");
        out.overlap_compute = (self.overlap_compute - earlier.overlap_compute).max(0.0);
        out.overlap_residual = (self.overlap_residual - earlier.overlap_residual).max(0.0);
        out
    }

    /// Counter-wise sum, used when folding per-rank records.
    pub fn merged_with(&self, other: &CommStats) -> CommStats {
        let mut out = self.clone();
        for i in 0..8 {
            out.msgs[i] += other.msgs[i];
            out.bytes[i] += other.bytes[i];
            out.recv_wait[i] += other.recv_wait[i];
            out.send_time[i] += other.send_time[i];
        }
        for i in 0..4 {
            out.faults[i] += other.faults[i];
        }
        out.sync_points += other.sync_points;
        out.rebalances += other.rebalances;
        out.overlap_compute += other.overlap_compute;
        out.overlap_residual += other.overlap_residual;
        out
    }
}

/// Aggregate view over the per-rank [`CommStats`] of one SPMD run.
#[derive(Debug, Clone)]
pub struct StatsSummary {
    /// Number of ranks that contributed.
    pub ranks: usize,
    /// Sum of all per-rank counters.
    pub total: CommStats,
    /// Maximum total bytes sent by any single rank.
    pub max_bytes_per_rank: u64,
    /// Maximum total messages sent by any single rank.
    pub max_msgs_per_rank: u64,
    /// `max_bytes_per_rank / mean_bytes_per_rank`; 1.0 is perfectly even.
    /// Reported as 1.0 when no traffic occurred.
    pub byte_imbalance: f64,
}

impl StatsSummary {
    /// Fold per-rank records into an aggregate.
    pub(crate) fn from_ranks(per_rank: &[CommStats]) -> Self {
        let ranks = per_rank.len();
        let total = per_rank
            .iter()
            .fold(CommStats::default(), |acc, s| acc.merged_with(s));
        let max_bytes_per_rank = per_rank.iter().map(|s| s.total_bytes()).max().unwrap_or(0);
        let max_msgs_per_rank = per_rank.iter().map(|s| s.total_msgs()).max().unwrap_or(0);
        let mean = if ranks == 0 {
            0.0
        } else {
            total.total_bytes() as f64 / ranks as f64
        };
        let byte_imbalance = if mean > 0.0 {
            max_bytes_per_rank as f64 / mean
        } else {
            1.0
        };
        StatsSummary {
            ranks,
            total,
            max_bytes_per_rank,
            max_msgs_per_rank,
            byte_imbalance,
        }
    }
}

impl fmt::Display for StatsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ranks={} total_msgs={} total_bytes={} max_bytes/rank={} imbalance={:.3} syncs={} rebalances={}",
            self.ranks,
            self.total.total_msgs(),
            self.total.total_bytes(),
            self.max_bytes_per_rank,
            self.byte_imbalance,
            self.total.sync_points,
            self.total.rebalances,
        )?;
        for &class in TagClass::ALL.iter().filter(|&&c| self.total.bytes(c) > 0) {
            writeln!(
                f,
                "  {:>10}: {} B  (recv-wait {:.3} ms)",
                class.label(),
                self.total.bytes(class),
                self.total.recv_wait_secs(class) * 1e3
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut s = CommStats::new();
        s.record_send(TagClass::Halo, 128);
        s.record_send(TagClass::Halo, 64);
        s.record_send(TagClass::Visualisation, 1000);
        assert_eq!(s.msgs(TagClass::Halo), 2);
        assert_eq!(s.bytes(TagClass::Halo), 192);
        assert_eq!(s.msgs(TagClass::Visualisation), 1);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 1192);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let mut s = CommStats::new();
        s.record_send(TagClass::Halo, 100);
        let snap = s.clone();
        s.record_send(TagClass::Halo, 50);
        s.record_sync();
        let d = s.delta_since(&snap);
        assert_eq!(d.bytes(TagClass::Halo), 50);
        assert_eq!(d.msgs(TagClass::Halo), 1);
        assert_eq!(d.sync_points, 1);
    }

    #[test]
    fn summary_imbalance() {
        let mut a = CommStats::new();
        a.record_send(TagClass::User, 300);
        let mut b = CommStats::new();
        b.record_send(TagClass::User, 100);
        let sum = StatsSummary::from_ranks(&[a, b]);
        assert_eq!(sum.total.total_bytes(), 400);
        assert_eq!(sum.max_bytes_per_rank, 300);
        assert!((sum.byte_imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_silence_is_balanced() {
        let sum = StatsSummary::from_ranks(&[CommStats::new(), CommStats::new()]);
        assert_eq!(sum.byte_imbalance, 1.0);
        assert_eq!(sum.total.total_bytes(), 0);
    }

    #[test]
    fn wait_time_accounting() {
        let mut s = CommStats::new();
        s.record_recv_wait(TagClass::Halo, 0.5);
        s.record_recv_wait(TagClass::Halo, 0.25);
        s.record_send_time(TagClass::Steering, 0.1);
        assert_eq!(s.recv_wait_secs(TagClass::Halo), 0.75);
        assert_eq!(s.send_secs(TagClass::Steering), 0.1);
        assert_eq!(s.total_recv_wait_secs(), 0.75);

        let snap = s.clone();
        s.record_recv_wait(TagClass::Halo, 1.0);
        let d = s.delta_since(&snap);
        assert!((d.recv_wait_secs(TagClass::Halo) - 1.0).abs() < 1e-12);
        assert_eq!(d.send_secs(TagClass::Steering), 0.0);

        let merged = s.merged_with(&snap);
        assert!((merged.recv_wait_secs(TagClass::Halo) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_display_reports_recv_wait() {
        let mut a = CommStats::new();
        a.record_send(TagClass::Halo, 10);
        a.record_recv_wait(TagClass::Halo, 0.2);
        let sum = StatsSummary::from_ranks(&[a]);
        assert!(format!("{sum}").contains("recv-wait"));
    }

    #[test]
    fn fault_counters_record_delta_and_merge() {
        let mut s = CommStats::new();
        s.record_fault(FaultStat::Delay);
        s.record_fault(FaultStat::Delay);
        s.record_fault(FaultStat::Duplicate);
        assert_eq!(s.faults(FaultStat::Delay), 2);
        assert_eq!(s.faults(FaultStat::Drop), 0);
        assert_eq!(s.total_faults(), 3);

        let snap = s.clone();
        s.record_fault(FaultStat::Dedup);
        let d = s.delta_since(&snap);
        assert_eq!(d.faults(FaultStat::Dedup), 1);
        assert_eq!(d.faults(FaultStat::Delay), 0);

        let merged = s.merged_with(&snap);
        assert_eq!(merged.faults(FaultStat::Delay), 4);
        assert_eq!(merged.total_faults(), 7);
    }

    #[test]
    fn rebalance_counter_records_deltas_and_merges() {
        let mut s = CommStats::new();
        s.record_rebalance();
        assert_eq!(s.rebalances, 1);
        let snap = s.clone();
        s.record_rebalance();
        assert_eq!(s.delta_since(&snap).rebalances, 1);
        assert_eq!(s.merged_with(&snap).rebalances, 3);
        let sum = StatsSummary::from_ranks(&[s, snap]);
        assert_eq!(sum.total.rebalances, 3);
        assert!(format!("{sum}").contains("rebalances=3"));
    }

    #[test]
    fn overlap_accounting_records_deltas_and_merges() {
        let mut s = CommStats::new();
        // No overlapped exchange yet: vacuously fully efficient.
        assert_eq!(s.overlap_efficiency(), 1.0);

        s.record_overlap(0.3, 0.1);
        assert!((s.overlap_compute_secs() - 0.3).abs() < 1e-12);
        assert!((s.overlap_residual_secs() - 0.1).abs() < 1e-12);
        assert!((s.overlap_efficiency() - 0.75).abs() < 1e-12);

        let snap = s.clone();
        s.record_overlap(0.2, 0.0);
        let d = s.delta_since(&snap);
        assert!((d.overlap_compute_secs() - 0.2).abs() < 1e-12);
        assert_eq!(d.overlap_residual_secs(), 0.0);

        let merged = s.merged_with(&snap);
        assert!((merged.overlap_compute_secs() - 0.8).abs() < 1e-12);
        assert!((merged.overlap_residual_secs() - 0.2).abs() < 1e-12);

        // Negative inputs (clock skew) are clamped, not accumulated.
        let mut t = CommStats::new();
        t.record_overlap(-1.0, -1.0);
        assert_eq!(t.overlap_compute_secs(), 0.0);
        assert_eq!(t.overlap_efficiency(), 1.0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = CommStats::new();
        a.record_send(TagClass::Halo, 10);
        let mut b = CommStats::new();
        b.record_send(TagClass::Steering, 20);
        assert_eq!(a.merged_with(&b), b.merged_with(&a));
    }
}

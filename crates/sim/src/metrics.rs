//! Per-phase accounting: simulated time, wall time, message and byte counts.
//!
//! Figure 6.1 of the paper reports a per-phase execution-time breakdown
//! (local sort / histogramming / data exchange).  Every operation the
//! simulated cluster performs is attributed to a [`Phase`], and a
//! [`MetricsRegistry`] accumulates both the *simulated* time charged by the
//! [`crate::cost::CostModel`] and the real wall-clock time spent
//! executing it in-process, along with exact message/byte/operation counts.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Coarse algorithm phases used for reporting.  These are the groups the
/// paper's evaluation uses; algorithms may further tag work with a free-form
/// label (see [`MetricsRegistry::charge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Initial sequential sort of each rank's local input.
    LocalSort,
    /// Drawing samples from local data (all sampling methods).
    Sampling,
    /// Everything splitter-related other than sampling: gathering the
    /// sample, broadcasting probes, computing and reducing histograms,
    /// refining splitter intervals.
    Histogramming,
    /// Broadcasting the finalized splitters.
    SplitterBroadcast,
    /// The all-to-all exchange that moves every key to its destination.
    DataExchange,
    /// Merging the received sorted fragments on each destination rank.
    Merge,
    /// Within-node sort / redistribution used by the node-level
    /// optimisation (§6.1.2 "final within node sorting").
    NodeLocalSort,
    /// Serving rank / percentile / range-count queries between epochs of
    /// the sort service (the §3.4 oracle answering point queries).
    Query,
    /// Anything else (setup, verification, ...).
    Other,
}

impl Phase {
    /// All phases in reporting order.
    pub const ALL: [Phase; 9] = [
        Phase::LocalSort,
        Phase::Sampling,
        Phase::Histogramming,
        Phase::SplitterBroadcast,
        Phase::DataExchange,
        Phase::Merge,
        Phase::NodeLocalSort,
        Phase::Query,
        Phase::Other,
    ];

    /// Short, stable name for table output.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::LocalSort => "local_sort",
            Phase::Sampling => "sampling",
            Phase::Histogramming => "histogramming",
            Phase::SplitterBroadcast => "splitter_broadcast",
            Phase::DataExchange => "data_exchange",
            Phase::Merge => "merge",
            Phase::NodeLocalSort => "node_local_sort",
            Phase::Query => "query",
            Phase::Other => "other",
        }
    }

    /// The three-way grouping used by Figure 6.1: everything splitter
    /// related is "histogramming", the exchange plus merge is
    /// "data exchange", the initial sort is "local sort".
    pub fn figure_6_1_group(&self) -> &'static str {
        match self {
            Phase::LocalSort => "local sort",
            Phase::Sampling | Phase::Histogramming | Phase::SplitterBroadcast => "histogramming",
            Phase::DataExchange | Phase::Merge | Phase::NodeLocalSort => "data exchange",
            Phase::Query | Phase::Other => "other",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated measurements for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetrics {
    /// Simulated seconds charged by the cost model (BSP: per superstep the
    /// maximum over ranks is charged).
    pub simulated_seconds: f64,
    /// Real wall-clock seconds spent executing this phase in-process.
    pub wall_seconds: f64,
    /// Point-to-point messages injected into the simulated network.
    pub messages: u64,
    /// Words moved across the simulated network.
    pub comm_words: u64,
    /// Words moved between memory and local disk (the disk channel of the
    /// out-of-core tier; same 8-byte word unit as `comm_words`).
    pub disk_words: u64,
    /// Units of local computation (comparisons, key moves) charged.
    pub compute_ops: u64,
    /// Number of supersteps attributed to this phase.
    pub supersteps: u64,
}

impl PhaseMetrics {
    /// Merge another set of measurements into this one.
    pub fn merge(&mut self, other: &PhaseMetrics) {
        self.simulated_seconds += other.simulated_seconds;
        self.wall_seconds += other.wall_seconds;
        self.messages += other.messages;
        self.comm_words += other.comm_words;
        self.disk_words += other.disk_words;
        self.compute_ops += other.compute_ops;
        self.supersteps += other.supersteps;
    }
}

/// Registry of per-phase measurements for one algorithm execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    phases: BTreeMap<Phase, PhaseMetrics>,
    /// Maximum number of *host* OS threads the executing machine had
    /// available while any phase ran (1 for sequential execution).  This is
    /// real concurrency on the host, as opposed to the simulated `p`-rank
    /// concurrency the cost model charges for — reports use it to make the
    /// distinction explicit.
    host_threads: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `metrics` to the accumulated totals of `phase`.
    pub fn charge(&mut self, phase: Phase, metrics: PhaseMetrics) {
        self.phases.entry(phase).or_default().merge(&metrics);
    }

    /// Record that `threads` host OS threads were available for execution
    /// (keeps the maximum seen; the machine calls this on every superstep).
    pub fn note_host_threads(&mut self, threads: u64) {
        self.host_threads = self.host_threads.max(threads);
    }

    /// Maximum number of host OS threads available during execution (0 if
    /// nothing ran yet, 1 for purely sequential execution).
    pub fn host_threads(&self) -> u64 {
        self.host_threads
    }

    /// Parallelism-independent projection of the registry, for differential
    /// testing: per-phase `(name, simulated_seconds bits, messages, comm
    /// words, disk words, ops, supersteps)`.  Wall-clock time and
    /// host-thread counts are excluded, and simulated seconds are compared
    /// bit-for-bit, so a sequential and a parallel run of the same
    /// algorithm must produce *identical* signatures.
    #[allow(clippy::type_complexity)]
    pub fn deterministic_signature(&self) -> Vec<(&'static str, u64, u64, u64, u64, u64, u64)> {
        self.phases
            .iter()
            .map(|(phase, m)| {
                (
                    phase.name(),
                    m.simulated_seconds.to_bits(),
                    m.messages,
                    m.comm_words,
                    m.disk_words,
                    m.compute_ops,
                    m.supersteps,
                )
            })
            .collect()
    }

    /// Measurements for one phase (zeros if the phase never ran).
    pub fn phase(&self, phase: Phase) -> PhaseMetrics {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// Iterate over phases that were actually charged.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseMetrics)> {
        self.phases.iter().map(|(p, m)| (*p, m))
    }

    /// Total simulated seconds across all phases.
    pub fn total_simulated_seconds(&self) -> f64 {
        self.phases.values().map(|m| m.simulated_seconds).sum()
    }

    /// Total wall-clock seconds across all phases.
    pub fn total_wall_seconds(&self) -> f64 {
        self.phases.values().map(|m| m.wall_seconds).sum()
    }

    /// Total messages injected into the simulated network.
    pub fn total_messages(&self) -> u64 {
        self.phases.values().map(|m| m.messages).sum()
    }

    /// Total words moved across the simulated network.
    pub fn total_comm_words(&self) -> u64 {
        self.phases.values().map(|m| m.comm_words).sum()
    }

    /// Total words moved between memory and local disk.
    pub fn total_disk_words(&self) -> u64 {
        self.phases.values().map(|m| m.disk_words).sum()
    }

    /// Simulated seconds per Figure 6.1 group ("local sort", "histogramming",
    /// "data exchange", "other").
    pub fn figure_6_1_breakdown(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (phase, m) in &self.phases {
            *out.entry(phase.figure_6_1_group()).or_insert(0.0) += m.simulated_seconds;
        }
        out
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:>14} {:>12} {:>12} {:>14} {:>12}",
            "phase", "sim seconds", "wall sec", "messages", "words", "ops"
        )?;
        for (phase, m) in &self.phases {
            writeln!(
                f,
                "{:<20} {:>14.6} {:>12.6} {:>12} {:>14} {:>12}",
                phase.name(),
                m.simulated_seconds,
                m.wall_seconds,
                m.messages,
                m.comm_words,
                m.compute_ops
            )?;
        }
        writeln!(
            f,
            "{:<20} {:>14.6} {:>12.6} {:>12} {:>14}",
            "TOTAL",
            self.total_simulated_seconds(),
            self.total_wall_seconds(),
            self.total_messages(),
            self.total_comm_words()
        )?;
        if self.host_threads > 0 {
            writeln!(
                f,
                "(executed on {} host thread(s); sim time is modelled)",
                self.host_threads
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One superstep's compute charge: simulated and wall seconds and ops.
    fn compute(simulated: f64, wall: f64, ops: u64) -> PhaseMetrics {
        PhaseMetrics {
            simulated_seconds: simulated,
            wall_seconds: wall,
            compute_ops: ops,
            supersteps: 1,
            ..Default::default()
        }
    }

    /// One superstep's communication charge.
    fn comm(simulated: f64, messages: u64, words: u64) -> PhaseMetrics {
        PhaseMetrics {
            simulated_seconds: simulated,
            messages,
            comm_words: words,
            supersteps: 1,
            ..Default::default()
        }
    }

    #[test]
    fn charging_accumulates() {
        let mut reg = MetricsRegistry::new();
        reg.charge(Phase::LocalSort, compute(1.0, 0.5, 100));
        reg.charge(Phase::LocalSort, compute(2.0, 0.25, 50));
        reg.charge(Phase::DataExchange, comm(3.0, 7, 1000));
        let ls = reg.phase(Phase::LocalSort);
        assert_eq!(ls.simulated_seconds, 3.0);
        assert_eq!(ls.wall_seconds, 0.75);
        assert_eq!(ls.compute_ops, 150);
        assert_eq!(ls.supersteps, 2);
        assert_eq!(reg.phase(Phase::DataExchange).messages, 7);
        assert_eq!(reg.total_simulated_seconds(), 6.0);
        assert_eq!(reg.total_messages(), 7);
        assert_eq!(reg.total_comm_words(), 1000);
    }

    #[test]
    fn unknown_phase_reads_as_zero() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.phase(Phase::Merge), PhaseMetrics::default());
    }

    #[test]
    fn figure_breakdown_groups_phases() {
        let mut reg = MetricsRegistry::new();
        reg.charge(Phase::Sampling, compute(1.0, 0.0, 0));
        reg.charge(Phase::Histogramming, compute(2.0, 0.0, 0));
        reg.charge(Phase::SplitterBroadcast, compute(4.0, 0.0, 0));
        reg.charge(Phase::DataExchange, compute(8.0, 0.0, 0));
        reg.charge(Phase::Merge, compute(16.0, 0.0, 0));
        let groups = reg.figure_6_1_breakdown();
        assert_eq!(groups["histogramming"], 7.0);
        assert_eq!(groups["data exchange"], 24.0);
        assert!(!groups.contains_key("local sort"));
    }

    #[test]
    fn host_threads_keeps_maximum() {
        let mut a = MetricsRegistry::new();
        assert_eq!(a.host_threads(), 0);
        a.note_host_threads(2);
        a.note_host_threads(1);
        assert_eq!(a.host_threads(), 2);
    }

    #[test]
    fn deterministic_signature_ignores_wall_time_and_host_threads() {
        let mut a = MetricsRegistry::new();
        a.charge(Phase::LocalSort, compute(1.5, 0.25, 100));
        a.note_host_threads(1);
        let mut b = MetricsRegistry::new();
        b.charge(Phase::LocalSort, compute(1.5, 99.0, 100));
        b.note_host_threads(8);
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        // ... but any simulated quantity difference shows up.
        b.charge(Phase::Merge, comm(0.1, 1, 1));
        assert_ne!(a.deterministic_signature(), b.deterministic_signature());
    }

    #[test]
    fn deterministic_signature_is_charge_order_independent() {
        // The signature is keyed per phase (BTreeMap order), so the order
        // in which phases were charged must not matter — only totals do.
        let mut a = MetricsRegistry::new();
        a.charge(Phase::Merge, compute(2.0, 0.0, 20));
        a.charge(Phase::LocalSort, comm(1.0, 3, 30));
        let mut b = MetricsRegistry::new();
        b.charge(Phase::LocalSort, comm(1.0, 3, 30));
        b.charge(Phase::Merge, compute(2.0, 0.0, 20));
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        // Phase names appear in reporting order, once each.
        let names: Vec<&str> = a.deterministic_signature().iter().map(|s| s.0).collect();
        assert_eq!(names, vec!["local_sort", "merge"]);
    }

    #[test]
    fn display_contains_phase_names() {
        let mut reg = MetricsRegistry::new();
        reg.charge(Phase::LocalSort, compute(1.0, 0.0, 10));
        let s = format!("{reg}");
        assert!(s.contains("local_sort"));
        assert!(s.contains("TOTAL"));
    }
}

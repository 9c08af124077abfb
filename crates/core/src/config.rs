//! Configuration of the HSS sorter.

use hss_extsort::{ExtSortConfig, IoMode};
use hss_lsort::LocalSortAlgo;
use hss_partition::ExchangeEngine;
use serde::{Deserialize, Serialize};

/// How sampling ratios are chosen across histogramming rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoundSchedule {
    /// The theoretical schedule of §3.3: exactly `k` rounds with sampling
    /// ratio `s_j = (2 ln p / ε)^(j/k)` in round `j`.  `k = 1` is "HSS with
    /// one round" (Lemma 3.2.1), `k = 2` the two-round variant of Table 5.1.
    Theoretical {
        /// Number of histogramming rounds `k`.
        rounds: usize,
    },
    /// The practical schedule of the paper's implementation (§6.1.2,
    /// Table 6.1): every round gathers an expected `oversampling × p` keys
    /// (drawn only from the open splitter intervals) and the algorithm
    /// keeps iterating until every splitter is finalized, up to
    /// `max_rounds`.
    ConstantOversampling {
        /// Expected per-rank sample count per round (the paper uses 5).
        oversampling: f64,
        /// Safety cap on the number of rounds.
        max_rounds: usize,
    },
    /// The asymptotically optimal `k = log(log p / ε)` rounds schedule of
    /// Lemma 3.3.2 (constant per-processor samples per round).
    OptimalRounds,
}

impl Default for RoundSchedule {
    fn default() -> Self {
        RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 }
    }
}

/// Which algorithm turns the final histogram into splitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitterRule {
    /// HSS's rule: for each target rank pick the sampled key whose global
    /// rank is closest (§3.3 step 5).  Works for any number of rounds.
    ClosestRank,
    /// The scanning algorithm of Axtmann et al. (§3.2): greedily assign
    /// histogram buckets to processors until each reaches `N(1+ε)/p`.
    /// Only meaningful for a single round of histogramming.
    Scanning,
}

/// When and how a rank falls back to the out-of-core tier
/// ([`hss_extsort`]): any rank whose working set exceeds
/// `memory_cap_bytes` — at local-sort time (its input partition) or at
/// merge time (its received runs) — streams through bounded-memory
/// external sort/merge instead of the in-memory path.  Output is bitwise
/// identical either way; only host wall-clock and the modelled disk cost
/// differ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtSortPolicy {
    /// Per-rank record-buffer budget in bytes.
    pub memory_cap_bytes: usize,
    /// Scratch-directory root for run files (a `String`, not a `PathBuf`,
    /// so the config stays serde-able).
    pub run_dir: String,
    /// Merge fan-in (≥ 2); more runs than this forces multi-pass merging.
    /// Each spilled rank widens it to cover its runs in one pass when the
    /// cap allows ([`hss_extsort::choose_fan_in`]).
    pub fan_in: usize,
}

impl ExtSortPolicy {
    /// A policy with the given budget and scratch root and fan-in 16.
    pub fn new(memory_cap_bytes: usize, run_dir: impl Into<String>) -> Self {
        Self { memory_cap_bytes, run_dir: run_dir.into(), fan_in: 16 }
    }

    /// Set the merge fan-in.
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in;
        self
    }

    /// Identity.  The out-of-core tier has one disk schedule — the
    /// overlapped one this used to select — but `benchmark/src/workload.rs`
    /// still calls it and `benchmark/` was frozen in the PR that removed
    /// the other arm; the next benchmark PR drops that call, this method
    /// and `IoMode`.
    #[doc(hidden)]
    pub fn with_io_mode(self, _io_mode: IoMode) -> Self {
        self
    }

    /// Identity.  The out-of-core tier has one path — the single-pass
    /// drain this used to select — but `benchmark/src/workload.rs` still
    /// calls it and `benchmark/` was frozen in the PR that removed the
    /// other arm; the next benchmark PR drops that call and this method.
    #[doc(hidden)]
    pub fn with_pipelined(self) -> Self {
        self
    }

    /// The [`ExtSortConfig`] this policy denotes, with the sorter's
    /// local-sort algorithm carried over so external runs are sorted by
    /// the same code as in-memory partitions.
    pub fn to_ext_config(&self, local_sort: LocalSortAlgo) -> ExtSortConfig {
        ExtSortConfig::new(self.memory_cap_bytes, self.run_dir.as_str())
            .with_fan_in(self.fan_in)
            .with_local_sort(local_sort)
    }

    fn validate(&self) -> Result<(), String> {
        if self.memory_cap_bytes == 0 {
            return Err("ext_sort.memory_cap_bytes must be positive".to_string());
        }
        if self.fan_in < 2 {
            return Err(format!("ext_sort.fan_in must be at least 2 (got {})", self.fan_in));
        }
        if self.run_dir.is_empty() {
            return Err("ext_sort.run_dir must not be empty".to_string());
        }
        Ok(())
    }
}

/// Configuration for [`crate::sorter::HssSorter`] and
/// [`crate::multi_round::determine_splitters`].  Fields marked *HSS policy*
/// are read by HSS's splitter determination alone, so a sorter built by
/// [`HssSorter::with_splitters`](crate::HssSorter::with_splitters) ignores
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HssConfig {
    /// *HSS policy.* Load-imbalance threshold ε: no rank may end up with
    /// more than `N(1 + ε)/p` keys.
    pub epsilon: f64,
    /// *HSS policy.* The sampling/round schedule.
    pub schedule: RoundSchedule,
    /// *HSS policy.* How splitters are finalized.
    pub splitter_rule: SplitterRule,
    /// Use node-level data partitioning and message combining (§6.1): the
    /// histogram determines `n − 1` node splitters, the exchange combines
    /// messages per node pair, and data is re-split among the cores of each
    /// node afterwards.  The paper re-split by regular-sampling sample sort
    /// to within 5 %; shared memory lets this repository cut each node
    /// exactly, so a node's cores differ by at most one item.
    pub node_level: bool,
    /// Break ties among duplicate keys by implicitly tagging every key with
    /// `(PE, local index)` (§4.3).  Required for the load-balance guarantee
    /// on duplicate-heavy inputs.  HSS-only: a sorter of another splitter
    /// policy panics when it is set.
    pub tag_duplicates: bool,
    /// *HSS policy.* Answer histogram rounds from a per-rank representative
    /// sample of `O(√(p log p)/ε)` keys (§3.4) instead of the full local
    /// data.  The histogram becomes approximate (within `εN/p` per query
    /// w.h.p., Theorem 3.4.1), so the effective tolerance used to finalize
    /// splitters is tightened accordingly; in exchange each histogramming
    /// round costs `O(S log s)` instead of `O(S log(N/p))` per rank.
    pub approximate_histograms: bool,
    /// Which algorithm the local (per-rank) sorts run:
    /// [`LocalSortAlgo::Radix`] (the default — in-place MSD radix from
    /// `hss-lsort`) or [`LocalSortAlgo::Comparison`] (`sort_unstable`, the
    /// differential-testing oracle).  Sorted output and everything
    /// downstream are bitwise identical; only host wall-clock time and the
    /// modelled local-sort cost differ.
    pub local_sort: LocalSortAlgo,
    /// Staged exchanges only: a bucket batch is injected as an asynchronous
    /// exchange stage only if it covers at least this fraction of the total
    /// keys; smaller batches wait for a later stage so the per-stage α
    /// overhead (one latency per peer per stage) cannot eat the overlap
    /// win.  `0.0` stages every ready bucket immediately.  Read under
    /// [`SyncModel::Overlapped`](hss_sim::SyncModel), and under either sync
    /// model once a rank of [`HssSorter::sort_out_of_core`] spilled (its
    /// buckets can only travel in stages); a Bsp sort with every rank in
    /// memory ignores it.
    ///
    /// [`HssSorter::sort_out_of_core`]: crate::sorter::HssSorter::sort_out_of_core
    pub min_stage_fraction: f64,
    /// Out-of-core fallback policy, read by
    /// [`crate::sorter::HssSorter::sort_out_of_core`] alone: ranks (and
    /// merging owners) whose working sets exceed the cap spill through
    /// [`hss_extsort`].  [`HssSorter::sort`](crate::sorter::HssSorter::sort)
    /// and [`Sorter::run`](crate::request::Sorter::run) do not read it —
    /// they keep everything in memory whatever it says, as does `None`
    /// (the default).
    pub ext_sort: Option<ExtSortPolicy>,
    /// *HSS policy.* Seed for all sampling randomness (deterministic runs).
    pub seed: u64,
}

impl Default for HssConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            schedule: RoundSchedule::default(),
            splitter_rule: SplitterRule::ClosestRank,
            node_level: false,
            tag_duplicates: false,
            approximate_histograms: false,
            local_sort: LocalSortAlgo::default(),
            min_stage_fraction: 0.02,
            ext_sort: None,
            seed: 0xC0FFEE,
        }
    }
}

impl HssConfig {
    /// A configuration matching the paper's cluster experiments (§6.1.2):
    /// 2% load-balance threshold across nodes, constant oversampling of 5
    /// keys per processor per round, node-level partitioning enabled.  The
    /// paper re-split each node by sample sort to within 5 %; here the
    /// within-node cut is exact (see [`Self::node_level`]).
    pub fn paper_cluster() -> Self {
        Self {
            epsilon: 0.02,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
            splitter_rule: SplitterRule::ClosestRank,
            node_level: true,
            tag_duplicates: false,
            approximate_histograms: false,
            local_sort: LocalSortAlgo::default(),
            min_stage_fraction: 0.02,
            ext_sort: None,
            seed: 0xC0FFEE,
        }
    }

    /// HSS with exactly one histogramming round (Lemma 3.2.1).
    pub fn one_round(epsilon: f64) -> Self {
        Self { epsilon, schedule: RoundSchedule::Theoretical { rounds: 1 }, ..Self::default() }
    }

    /// Set the load-imbalance threshold ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Set the sampling/round schedule.
    pub fn with_schedule(mut self, schedule: RoundSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable duplicate tagging.
    pub fn with_duplicate_tagging(mut self) -> Self {
        self.tag_duplicates = true;
        self
    }

    /// Enable node-level partitioning.
    pub fn with_node_level(mut self) -> Self {
        self.node_level = true;
        self
    }

    /// Answer histogram rounds from representative samples (§3.4).
    pub fn with_approximate_histograms(mut self) -> Self {
        self.approximate_histograms = true;
        self
    }

    /// Identity.  The exchange has one path — the flat engine this used
    /// to select — but `benchmark/src/workload.rs` still calls it and
    /// `benchmark/` was frozen in the PR that removed the other arm; the
    /// next benchmark PR drops that call and this method.
    #[doc(hidden)]
    pub fn with_exchange_engine(self, _engine: ExchangeEngine) -> Self {
        self
    }

    /// Select the local-sort algorithm (radix by default).
    pub fn with_local_sort(mut self, algo: LocalSortAlgo) -> Self {
        self.local_sort = algo;
        self
    }

    /// Set the minimum fraction of total keys an exchange stage must cover
    /// (staged exchanges only, see [`Self::min_stage_fraction`]).
    pub fn with_min_stage_fraction(mut self, fraction: f64) -> Self {
        self.min_stage_fraction = fraction;
        self
    }

    /// Enable the out-of-core fallback with the given policy.
    pub fn with_ext_sort(mut self, policy: ExtSortPolicy) -> Self {
        self.ext_sort = Some(policy);
        self
    }

    /// Basic sanity checks; called by the sorter before running.
    pub fn validate(&self) -> Result<(), String> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(format!("epsilon must be positive (got {})", self.epsilon));
        }
        if !self.min_stage_fraction.is_finite() || !(0.0..=1.0).contains(&self.min_stage_fraction) {
            return Err(format!(
                "min_stage_fraction must be in [0, 1] (got {})",
                self.min_stage_fraction
            ));
        }
        if let Some(policy) = &self.ext_sort {
            policy.validate()?;
        }
        match self.schedule {
            RoundSchedule::Theoretical { rounds: 0 } => {
                Err("theoretical schedule needs at least one round".to_string())
            }
            RoundSchedule::ConstantOversampling { oversampling, max_rounds } => {
                if oversampling <= 0.0 {
                    Err("oversampling must be positive".to_string())
                } else if max_rounds == 0 {
                    Err("max_rounds must be at least 1".to_string())
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(HssConfig::default().validate().is_ok());
        assert!(HssConfig::paper_cluster().validate().is_ok());
        assert!(HssConfig::one_round(0.05).validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = HssConfig { epsilon: 0.0, ..HssConfig::default() };
        assert!(c.validate().is_err());

        let c = HssConfig { min_stage_fraction: -0.1, ..HssConfig::default() };
        assert!(c.validate().is_err());
        let c = HssConfig { min_stage_fraction: 1.5, ..HssConfig::default() };
        assert!(c.validate().is_err());
        let c = HssConfig { min_stage_fraction: 0.0, ..HssConfig::default() };
        assert!(c.validate().is_ok());

        let c = HssConfig {
            schedule: RoundSchedule::Theoretical { rounds: 0 },
            ..HssConfig::default()
        };
        assert!(c.validate().is_err());

        let c = HssConfig {
            schedule: RoundSchedule::ConstantOversampling { oversampling: -1.0, max_rounds: 8 },
            ..HssConfig::default()
        };
        assert!(c.validate().is_err());

        let c = HssConfig {
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 0 },
            ..HssConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_set_flags() {
        let c = HssConfig::default().with_seed(7).with_duplicate_tagging().with_node_level();
        assert_eq!(c.seed, 7);
        assert!(c.tag_duplicates);
        assert!(c.node_level);
        let c = c.with_local_sort(LocalSortAlgo::Comparison);
        assert_eq!(c.local_sort, LocalSortAlgo::Comparison);
        let c = c.with_epsilon(0.07).with_schedule(RoundSchedule::Theoretical { rounds: 3 });
        assert_eq!(c.epsilon, 0.07);
        assert_eq!(c.schedule, RoundSchedule::Theoretical { rounds: 3 });
    }

    #[test]
    fn paper_cluster_matches_section_6() {
        let c = HssConfig::paper_cluster();
        assert_eq!(c.epsilon, 0.02);
        assert!(c.node_level);
        match c.schedule {
            RoundSchedule::ConstantOversampling { oversampling, .. } => {
                assert_eq!(oversampling, 5.0)
            }
            _ => panic!("expected constant oversampling"),
        }
    }
}

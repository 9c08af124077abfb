//! Experiment scale selection.
//!
//! The paper's experiments ran on up to 32 K Blue Gene/Q cores with 10⁶ keys
//! per core.  On a single host the same *algorithmic* quantities (rounds,
//! sample sizes, load balance, per-phase cost shape) are reproducible at a
//! reduced scale; the `HSS_EXPERIMENT_SCALE` environment variable selects
//! how hard the harness tries:
//!
//! * `smoke` — tiny sizes, a few seconds end to end (used by CI / tests);
//! * `default` — the normal setting: large enough for the trends to be
//!   unambiguous, minutes end to end;
//! * `full` — the paper's processor counts where memory permits (splitter
//!   determination runs at the paper's `p`; the data-exchange experiments
//!   stay at `default` sizes and the full-scale series is produced by the
//!   BSP cost model).

use std::fmt;

/// How big the executed experiments should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for smoke tests.
    Smoke,
    /// The normal reduced scale.
    Default,
    /// The paper's processor counts where feasible.
    Full,
}

impl Scale {
    /// Read the scale from `HSS_EXPERIMENT_SCALE` (defaults to `Default`).
    pub fn from_env() -> Self {
        match std::env::var("HSS_EXPERIMENT_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Processor counts for Table 6.1 (paper: 4 K, 8 K, 16 K, 32 K).
    pub fn table_6_1_processors(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![256, 512],
            Scale::Default => vec![1024, 2048, 4096, 8192],
            Scale::Full => vec![4096, 8192, 16384, 32768],
        }
    }

    /// Keys per rank for Table 6.1 runs.
    pub fn table_6_1_keys_per_rank(&self) -> usize {
        match self {
            Scale::Smoke => 500,
            Scale::Default => 1000,
            Scale::Full => 1000,
        }
    }

    /// Processor counts for the executed part of Figure 6.1 (paper: 512 …
    /// 32 K cores; the executed sweep is capped so the dense exchange
    /// matrices stay in memory, the paper-scale series comes from the BSP
    /// model).
    pub fn figure_6_1_executed_processors(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![64, 128],
            Scale::Default => vec![512, 1024, 2048, 4096],
            Scale::Full => vec![512, 1024, 2048, 4096, 8192],
        }
    }

    /// Keys per core for the executed part of Figure 6.1.
    pub fn figure_6_1_keys_per_core(&self) -> usize {
        match self {
            Scale::Smoke => 500,
            Scale::Default => 2000,
            Scale::Full => 8000,
        }
    }

    /// Processor counts for Figure 6.2 (paper: 256 … 64 K).
    pub fn figure_6_2_processors(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![64, 128],
            Scale::Default => vec![256, 512, 1024, 2048],
            Scale::Full => vec![256, 512, 1024, 2048, 4096],
        }
    }

    /// Particles per rank for Figure 6.2.
    pub fn figure_6_2_keys_per_rank(&self) -> usize {
        match self {
            Scale::Smoke => 500,
            Scale::Default => 2000,
            Scale::Full => 4000,
        }
    }

    /// Processor counts for Figure 3.1 (interval shrinkage traces).
    pub fn figure_3_1_processors(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![64],
            Scale::Default => vec![256, 1024],
            Scale::Full => vec![1024, 4096],
        }
    }

    /// `(ranks, keys per rank)` points for the `overlap_speedup` experiment
    /// (Bsp vs Overlapped sync models).  Every non-smoke point has
    /// `p >= 32`, the regime the overlap win is asserted in.
    pub fn overlap_speedup_points(&self) -> Vec<(usize, usize)> {
        match self {
            Scale::Smoke => vec![(32, 4_000), (64, 2_000)],
            Scale::Default => vec![(32, 16_384), (64, 16_384), (128, 8_192), (256, 8_192)],
            Scale::Full => {
                vec![(32, 32_768), (64, 16_384), (128, 16_384), (256, 8_192), (512, 8_192)]
            }
        }
    }

    /// `(simulated ranks, ingested keys per rank per epoch)` for the epoch
    /// service experiment.  The per-epoch batch must be large enough that
    /// the binomial rank noise of one fresh batch (`~√(N_batch)/2`) stays
    /// below the finalization tolerance `εN/(2p)`, otherwise even a
    /// stationary distribution cannot warm-finalize early.
    pub fn epoch_service_points(&self) -> Vec<(usize, usize)> {
        match self {
            Scale::Smoke => vec![(16, 800)],
            Scale::Default => vec![(32, 3_000), (64, 2_000)],
            Scale::Full => vec![(64, 4_000), (128, 3_000)],
        }
    }

    /// Epochs sealed per service run (epoch 0 is the cold start; warm
    /// statistics are over epochs `1..`).
    pub fn epoch_service_epochs(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Default => 5,
            Scale::Full => 6,
        }
    }

    /// Window-drift fractions swept (0 = stationary, 1 = the ingest window
    /// moves a full window width per epoch).
    pub fn epoch_service_drifts(&self) -> Vec<f64> {
        match self {
            Scale::Smoke => vec![0.0, 1.0],
            Scale::Default | Scale::Full => vec![0.0, 0.05, 0.25, 1.0],
        }
    }

    /// Rank queries issued between epochs to measure query latency/error.
    pub fn epoch_service_queries(&self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Default => 32,
            Scale::Full => 64,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Smoke => write!(f, "smoke"),
            Scale::Default => write!(f, "default"),
            Scale::Full => write!(f, "full"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_increasing_sizes() {
        assert!(
            Scale::Smoke.table_6_1_processors().last() < Scale::Full.table_6_1_processors().last()
        );
        assert!(
            Scale::Smoke.figure_6_1_keys_per_core() <= Scale::Default.figure_6_1_keys_per_core()
        );
    }

    #[test]
    fn full_scale_matches_paper_table_6_1() {
        assert_eq!(Scale::Full.table_6_1_processors(), vec![4096, 8192, 16384, 32768]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Scale::Smoke.to_string(), "smoke");
        assert_eq!(Scale::Default.to_string(), "default");
        assert_eq!(Scale::Full.to_string(), "full");
    }
}

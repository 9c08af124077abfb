//! Sample sort with regular sampling (§4.1.2) and with random sampling
//! (§4.1.1) — the two baselines whose sample-size requirements HSS improves
//! on (Figure 4.1, Table 5.1).
//!
//! Both follow the three-phase skeleton of §2.2: sample, pick `p − 1`
//! evenly spaced splitters from the gathered sample at a central processor,
//! broadcast and exchange.  The difference is only how the per-processor
//! sample is drawn and how large it must be for the `(1 + ε)` guarantee:
//!
//! * regular sampling: `s = p/ε` evenly spaced local keys
//!   (Lemma 4.1.1 / Theorem 4.1.2) — `Θ(p²/ε)` keys overall;
//! * random sampling (Blelloch et al.): one random key from each of
//!   `s = 4(1+ε)·ln N/ε²` equal blocks — `Θ(p·log N/ε²)` keys overall
//!   (Theorem 4.1.1).

use hss_core::report::SortReport;
use hss_keygen::{rank_rng, Keyed};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{random_block_sample, regular_sample, SplitterSet};
use hss_sim::{CostModel, Machine, Phase, Work};

use crate::common::{finish_splitter_sort, local_sort_phase, single_round_report};

/// Which sampling rule the sample-sort baseline uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingMethod {
    /// Evenly spaced local keys, oversampling ratio `p/ε`.
    Regular,
    /// One random key per block, oversampling ratio `4(1+ε) ln N / ε²`.
    Random,
}

/// Configuration of the sample-sort baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSortConfig {
    /// Load-imbalance threshold ε.
    pub epsilon: f64,
    /// Sampling rule.
    pub method: SamplingMethod,
    /// Override the per-processor oversampling ratio (None = the
    /// theoretically prescribed value).
    pub oversampling_override: Option<usize>,
    /// Local-sort algorithm for the per-rank sorts (and the root's sort of
    /// the gathered sample).
    pub local_sort: LocalSortAlgo,
    /// RNG seed (random sampling only).
    pub seed: u64,
}

impl SampleSortConfig {
    /// Regular sampling with threshold `epsilon`.
    pub fn regular(epsilon: f64) -> Self {
        Self {
            epsilon,
            method: SamplingMethod::Regular,
            oversampling_override: None,
            local_sort: LocalSortAlgo::default(),
            seed: 0xBEEF,
        }
    }

    /// Random (block) sampling with threshold `epsilon`.
    pub fn random(epsilon: f64) -> Self {
        Self {
            epsilon,
            method: SamplingMethod::Random,
            oversampling_override: None,
            local_sort: LocalSortAlgo::default(),
            seed: 0xBEEF,
        }
    }

    /// The per-processor sample count prescribed by the theory for an input
    /// of `total_keys` keys over `ranks` processors.
    pub fn prescribed_oversampling(&self, ranks: usize, total_keys: u64) -> usize {
        if let Some(s) = self.oversampling_override {
            return s;
        }
        match self.method {
            // Lemma 4.1.1: s = p / epsilon.
            SamplingMethod::Regular => ((ranks as f64) / self.epsilon).ceil() as usize,
            // Theorem 4.1.1 with c = 4 (1 + eps): s = c ln N / eps^2.
            SamplingMethod::Random => {
                let n = (total_keys.max(2)) as f64;
                ((4.0 * (1.0 + self.epsilon) * n.ln()) / (self.epsilon * self.epsilon)).ceil()
                    as usize
            }
        }
    }
}

/// The name used in reports for a given method.
fn algorithm_name(method: SamplingMethod) -> &'static str {
    match method {
        SamplingMethod::Regular => "sample-sort-regular",
        SamplingMethod::Random => "sample-sort-random",
    }
}

/// Run sample sort end to end and return the per-rank sorted output plus a
/// report.
pub fn sample_sort<T>(
    machine: &mut Machine,
    config: &SampleSortConfig,
    mut input: Vec<Vec<T>>,
) -> (Vec<Vec<T>>, SortReport)
where
    T: Keyed + Ord + RadixSortable,
    T::K: RadixSortable,
{
    assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
    assert!(config.epsilon > 0.0, "epsilon must be positive");
    let p = machine.ranks();
    let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();

    // Phase 1: local sort (both sampling rules need sorted local data).
    local_sort_phase(machine, &mut input, config.local_sort);

    // Phase 2: sampling.
    let s = config.prescribed_oversampling(p, total_keys);
    let seed = config.seed;
    let method = config.method;
    let per_rank_samples: Vec<Vec<T::K>> =
        machine.map_phase(Phase::Sampling, &input, |rank, local| {
            let sample = match method {
                SamplingMethod::Regular => regular_sample(local, s),
                SamplingMethod::Random => {
                    let mut rng = rank_rng(seed, rank);
                    random_block_sample(local, s, &mut rng)
                }
            };
            let work = Work::scan(sample.len());
            (sample, work)
        });
    let mut sample = machine.gather_to_root(Phase::Sampling, per_rank_samples);
    let sample_size = sample.len();
    // The central processor sorts the overall sample (p pieces, merge sort):
    // O(S log p) comparisons per §5.1.1.
    machine.charge_modelled_compute(
        Phase::Histogramming,
        CostModel::merge_ops(sample_size as u64, p.max(2) as u64),
    );
    config.local_sort.sort_slice(&mut sample);

    // Phase 3: splitter selection + data movement.
    let splitters = SplitterSet::from_sorted_sample(&sample, p);
    let tolerance = hss_core::theory::rank_tolerance(total_keys, p, config.epsilon);
    let report = single_round_report(p, total_keys, tolerance, sample_size);
    finish_splitter_sort(
        machine,
        algorithm_name(config.method),
        &input,
        &splitters,
        report,
        config.local_sort,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;

    fn run(
        method: SamplingMethod,
        dist: KeyDistribution,
        p: usize,
        n: usize,
        eps: f64,
    ) -> (Vec<Vec<u64>>, SortReport, Vec<Vec<u64>>) {
        let input = dist.generate_per_rank(p, n, 11);
        let mut machine = Machine::flat(p);
        let cfg = match method {
            SamplingMethod::Regular => SampleSortConfig::regular(eps),
            SamplingMethod::Random => SampleSortConfig::random(eps),
        };
        let (out, report) = sample_sort(&mut machine, &cfg, input.clone());
        (out, report, input)
    }

    #[test]
    fn regular_sampling_sorts_and_balances() {
        let (out, report, input) =
            run(SamplingMethod::Regular, KeyDistribution::Uniform, 8, 2000, 0.1);
        verify_global_sort(&input, &out).unwrap();
        // Lemma 4.1.1: regular sampling with s = p/eps guarantees the bound
        // deterministically.
        assert!(report.load_balance.satisfies(0.1), "imbalance {}", report.imbalance());
        assert_eq!(report.algorithm, "sample-sort-regular");
    }

    #[test]
    fn regular_sampling_balances_skewed_input() {
        let (out, report, input) =
            run(SamplingMethod::Regular, KeyDistribution::PowerLaw { gamma: 5.0 }, 8, 2000, 0.1);
        verify_global_sort(&input, &out).unwrap();
        assert!(report.load_balance.satisfies(0.1), "imbalance {}", report.imbalance());
    }

    #[test]
    fn random_sampling_sorts_and_balances() {
        let (out, report, input) =
            run(SamplingMethod::Random, KeyDistribution::Uniform, 8, 2000, 0.2);
        verify_global_sort(&input, &out).unwrap();
        assert!(report.load_balance.satisfies(0.2), "imbalance {}", report.imbalance());
        assert_eq!(report.algorithm, "sample-sort-random");
    }

    #[test]
    fn regular_sampling_uses_p_squared_over_eps_samples() {
        let p = 16;
        let eps = 0.25;
        let (_out, report, _input) =
            run(SamplingMethod::Regular, KeyDistribution::Uniform, p, 1000, eps);
        let expected = (p as f64 * p as f64 / eps) as usize;
        let actual = report.splitters.as_ref().unwrap().total_sample_size;
        // Each rank contributes min(s, n) keys; here s = p/eps = 64 < n.
        assert_eq!(actual, expected);
    }

    #[test]
    fn random_sampling_uses_p_logn_samples() {
        let p = 8;
        let n = 4000;
        let eps = 0.3;
        let (_out, report, _input) =
            run(SamplingMethod::Random, KeyDistribution::Uniform, p, n, eps);
        let total = (p * n) as f64;
        let expected = p as f64 * 4.0 * (1.0 + eps) * total.ln() / (eps * eps);
        let actual = report.splitters.as_ref().unwrap().total_sample_size as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "actual {actual} vs expected {expected}"
        );
    }

    #[test]
    fn oversampling_override_is_respected() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 500, 3);
        let mut machine = Machine::flat(p);
        let cfg =
            SampleSortConfig { oversampling_override: Some(10), ..SampleSortConfig::regular(0.1) };
        let (_out, report) = sample_sort(&mut machine, &cfg, input);
        assert_eq!(report.splitters.as_ref().unwrap().total_sample_size, 40);
    }

    #[test]
    fn works_with_small_local_data() {
        // Oversampling ratio larger than the local data size must not panic.
        let (out, _report, input) =
            run(SamplingMethod::Regular, KeyDistribution::Uniform, 8, 20, 0.5);
        verify_global_sort(&input, &out).unwrap();
    }
}

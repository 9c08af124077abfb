//! Statistical checks of the paper's theorems: the probabilistic guarantees
//! are exercised over repeated trials with fixed seeds and the empirical
//! failure rates compared against (generous relaxations of) the stated
//! bounds.  These are integration tests because they combine the sampler,
//! the interval bookkeeping and the simulator.

use hss_repro::core::theory;
use hss_repro::core::{
    determine_splitters, ApproxHistogrammer, HssConfig, RoundSchedule, SplitterRule,
};
use hss_repro::partition::{bucket_counts, exact_rank, LoadBalance};
use hss_repro::prelude::*;

fn sorted_input(dist: KeyDistribution, p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut data = dist.generate_per_rank(p, n, seed);
    for v in &mut data {
        v.sort_unstable();
    }
    data
}

fn global_bucket_counts(data: &[Vec<u64>], splitters: &SplitterSet<u64>) -> Vec<u64> {
    let mut totals = vec![0u64; splitters.buckets()];
    for local in data {
        for (i, c) in bucket_counts(local, splitters).iter().enumerate() {
            totals[i] += c;
        }
    }
    totals
}

/// Theorem 3.2.1 / scanning algorithm: with sampling ratio 2/ε the last
/// processor's load stays within N(1+ε)/p — check the empirical failure
/// rate over many trials.  Scanning is the one pipeline's one round at 2/ε
/// samples per processor, finalized by the greedy scan.
#[test]
fn theorem_3_2_1_scanning_last_processor_bound() {
    let p = 32;
    let n = 1_000;
    let eps = 0.2;
    let trials = 20;
    let config = HssConfig {
        epsilon: eps,
        schedule: RoundSchedule::ConstantOversampling { oversampling: 2.0 / eps, max_rounds: 1 },
        splitter_rule: SplitterRule::Scanning,
        ..HssConfig::default()
    };
    let mut failures = 0;
    for t in 0..trials {
        let data = sorted_input(KeyDistribution::Uniform, p, n, 100 + t);
        let mut machine = Machine::flat(p);
        let (splitters, rep) =
            determine_splitters(&mut machine, &data, p, &config.clone().with_seed(7_000 + t));
        // The sample is about 2p/ε keys (Theorem 3.2.1), far smaller than
        // regular sampling's p²/ε.
        assert!(rep.total_sample_size < 4 * ((2.0 * p as f64 / eps) as usize));
        let lb = LoadBalance::from_counts(&global_bucket_counts(&data, &splitters));
        if !lb.satisfies(eps) {
            failures += 1;
        }
    }
    // The bound is exp(-p eps^2 / 2(1+eps)^2) ~ 0.64 per-trial at this small
    // p, but in practice failures are rare; insist on a clear majority of
    // successes to catch gross implementation errors without flaking.
    assert!(failures <= trials / 4, "{failures}/{trials} scanning trials missed the bound");
}

/// Theorem 3.2.2 / Lemma 3.2.1: one round of histogramming with sampling
/// ratio 2 ln p / ε finalizes every splitter w.h.p.
#[test]
fn lemma_3_2_1_one_round_finalizes_all_splitters() {
    let p = 32;
    let n = 2_000;
    let eps = 0.1;
    let trials = 10;
    let mut failures = 0;
    for t in 0..trials {
        let data = sorted_input(KeyDistribution::Uniform, p, n, 200 + t);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: eps,
            schedule: RoundSchedule::Theoretical { rounds: 1 },
            ..HssConfig::default()
        }
        .with_seed(t);
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        let lb = LoadBalance::from_counts(&global_bucket_counts(&data, &splitters));
        if !report.all_finalized || !lb.satisfies(eps) {
            failures += 1;
        }
    }
    // Failure probability is at most ~1/p per trial; tolerate one fluke.
    assert!(failures <= 1, "{failures}/{trials} one-round trials failed");
}

/// Theorems 3.3.1/3.3.2: the union of the splitter intervals after round j
/// is bounded by ~6N/s_j; verify the measured G_j against the bound with the
/// theoretical schedule.
#[test]
fn theorem_3_3_2_interval_union_shrinks_as_predicted() {
    let p = 64;
    let n = 2_000;
    let eps = 0.05;
    let k = 3;
    let data = sorted_input(KeyDistribution::Uniform, p, n, 42);
    let total = (p * n) as u64;
    let mut machine = Machine::flat(p);
    let config = HssConfig {
        epsilon: eps,
        schedule: RoundSchedule::Theoretical { rounds: k },
        ..HssConfig::default()
    };
    let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
    let ratios = theory::sampling_ratios(k, p, eps);
    for (j, round) in report.rounds.iter().enumerate().take(k - 1) {
        let bound = 6.0 * total as f64 / ratios[j];
        assert!(
            (round.union_rank_size as f64) <= bound * 2.0,
            "round {}: G_j = {} exceeds twice the theorem bound {}",
            j + 1,
            round.union_rank_size,
            bound
        );
    }
}

/// Theorem 3.3.4 / Lemma 3.3.1: after k rounds with ratios (2 ln p/ε)^{j/k}
/// every splitter is finalized w.h.p., for several k.
#[test]
fn theorem_3_3_4_multi_round_stopping() {
    let p = 32;
    let n = 2_000;
    let eps = 0.1;
    for k in [2usize, 3, 4] {
        let mut failures = 0;
        for t in 0..5u64 {
            let data = sorted_input(KeyDistribution::Uniform, p, n, 300 + t);
            let mut machine = Machine::flat(p);
            let config = HssConfig {
                epsilon: eps,
                schedule: RoundSchedule::Theoretical { rounds: k },
                ..HssConfig::default()
            }
            .with_seed(t * 13);
            let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
            if !report.all_finalized {
                failures += 1;
            }
        }
        assert!(failures <= 1, "k = {k}: {failures}/5 trials did not finalize");
    }
}

/// Theorem 3.4.1: the representative-sample rank oracle errs by at most
/// εN/p w.h.p. with the prescribed sample size.
#[test]
fn theorem_3_4_1_approximate_rank_error_bound() {
    let p = 32;
    let n = 5_000;
    let eps = 0.2;
    let total = (p * n) as u64;
    let allowed = eps * total as f64 / p as f64;
    let mut violations = 0usize;
    let mut queries_total = 0usize;
    for t in 0..5u64 {
        let data = sorted_input(KeyDistribution::PowerLaw { gamma: 3.0 }, p, n, 400 + t);
        let mut machine = Machine::flat(p);
        let s = ApproxHistogrammer::<u64>::prescribed_sample_size(p, eps);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, s, t);
        let queries: Vec<u64> = (1..16).map(|i| i * (u64::MAX / 16)).collect();
        let estimates = oracle.estimated_global_ranks(&mut machine, &queries);
        for (q, est) in queries.iter().zip(estimates.iter()) {
            queries_total += 1;
            let truth = exact_rank(&data, *q) as f64;
            if (est - truth).abs() > allowed {
                violations += 1;
            }
        }
    }
    // The theorem's failure probability is 2p^{-4} per query; at finite size
    // allow a small number of near-boundary violations.
    assert!(
        violations * 10 <= queries_total,
        "{violations}/{queries_total} rank queries exceeded eps*N/p"
    );
}

/// Theorem 4.1.2 / Lemma 4.1.1: regular sampling with oversampling p/ε puts
/// every splitter's rank within N/(2s) = εN/(2p) of its target —
/// deterministically.
#[test]
fn theorem_4_1_2_regular_sampling_rank_bound() {
    use hss_repro::partition::sampling::regular_sample_positions;
    let p = 16;
    let n = 2_000;
    let eps = 0.2;
    let data = sorted_input(KeyDistribution::Exponential { scale_frac: 0.01 }, p, n, 7);
    let total = (p * n) as u64;
    let s = ((p as f64) / eps).ceil() as usize;
    // Gather the regular sample from every rank and pick splitters exactly
    // as in the theorem statement: S_i = λ_{s·i − p/2} from the combined
    // sorted sample λ_0..λ_{ps−1}.  Each rank samples the positions regular
    // sample sort's splitter policy reads.
    let mut sample: Vec<u64> = Vec::new();
    for local in &data {
        sample.extend(regular_sample_positions(local.len(), s).iter().map(|&i| local[i as usize]));
    }
    sample.sort_unstable();
    assert_eq!(sample.len(), p * s);
    let theorem_bound = (total as f64) / (2.0 * s as f64); // N/(2s) = eps*N/(2p)
    let block = total as f64 / (p as f64 * s as f64); // finite-block granularity
    for i in 1..p {
        let idx = s * i - p / 2;
        let key = sample[idx.min(sample.len() - 1)];
        let target = total * i as u64 / p as u64;
        let rank = exact_rank(&data, key) as f64;
        assert!(
            (rank - target as f64).abs() <= theorem_bound + block + 1.0,
            "splitter {i}: rank {rank} vs target {target} (bound {theorem_bound})"
        );
    }
}

/// Table 6.1's bound: the constant-oversampling schedule needs no more
/// rounds than ⌈ln(2 ln p/ε)/ln(f/2)⌉.
#[test]
fn table_6_1_round_bound_holds() {
    let eps = 0.02;
    for p in [256usize, 1024] {
        let data = sorted_input(KeyDistribution::Uniform, p, 1_000, 5);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: eps,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
            ..HssConfig::default()
        };
        let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
        let bound = theory::round_bound_constant_oversampling(p, eps, 5.0);
        assert!(report.all_finalized);
        assert!(
            report.rounds_executed() <= bound,
            "p = {p}: {} rounds > bound {bound}",
            report.rounds_executed()
        );
    }
}

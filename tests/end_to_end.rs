//! Cross-crate integration tests: every sorting algorithm in the
//! repository, run end to end on the simulator over a matrix of input
//! distributions, must produce a correct global sort; the algorithms with a
//! load-balance guarantee must honour it.

use hss_repro::baselines::{
    BitonicSorter, HistogramSortConfig, OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;

const P: usize = 16;
const KEYS_PER_RANK: usize = 800;
const EPS: f64 = 0.1;

fn distributions() -> Vec<KeyDistribution> {
    vec![
        KeyDistribution::Uniform,
        KeyDistribution::Normal { mean_frac: 0.5, std_frac: 0.05 },
        KeyDistribution::Exponential { scale_frac: 0.001 },
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::Staggered,
        KeyDistribution::Sorted,
        KeyDistribution::ReverseSorted,
    ]
}

#[test]
fn hss_sorts_and_balances_every_distribution() {
    for dist in distributions() {
        let input = dist.generate_per_rank(P, KEYS_PER_RANK, 21);
        let mut machine = Machine::flat(P);
        let sorter = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() });
        let outcome = sorter.sort(&mut machine, input.clone());
        verify_global_sort(&input, &outcome.data)
            .unwrap_or_else(|e| panic!("HSS on {}: {e}", dist.name()));
        assert!(
            outcome.report.satisfies(EPS),
            "HSS on {}: imbalance {}",
            dist.name(),
            outcome.report.imbalance()
        );
        assert!(outcome.report.splitters.as_ref().unwrap().all_finalized);
    }
}

/// Fat ranks: each owner receives up to 16 runs, ~32 768 keys in all, past
/// the re-sort's scratch, so the finish merges them pairwise (`u64-fat`'s
/// shape at a sixteenth of its size).  The cells above re-sort every owner.
#[test]
fn hss_sorts_and_balances_fat_ranks() {
    const FAT_KEYS_PER_RANK: usize = 32_768;
    let sorter = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() });
    for dist in distributions() {
        let input = dist.generate_per_rank(P, FAT_KEYS_PER_RANK, 23);
        let outcome = sorter.sort(&mut Machine::flat(P), input.clone());
        verify_global_sort(&input, &outcome.data)
            .unwrap_or_else(|e| panic!("HSS on fat {}: {e}", dist.name()));
        assert!(
            outcome.report.satisfies(EPS),
            "HSS on fat {}: imbalance {}",
            dist.name(),
            outcome.report.imbalance()
        );
    }
    // Many ties across runs; few distinct keys are exempt from the balance
    // bound, as in the pipeline product table.
    let input =
        KeyDistribution::FewDistinct { distinct: 64 }.generate_per_rank(P, FAT_KEYS_PER_RANK, 23);
    let outcome = sorter.sort(&mut Machine::flat(P), input.clone());
    verify_global_sort(&input, &outcome.data).unwrap_or_else(|e| panic!("HSS on fat ties: {e}"));
}

#[test]
fn hss_one_and_two_round_schedules_sort_correctly() {
    for rounds in [1usize, 2, 3] {
        let input = KeyDistribution::Uniform.generate_per_rank(P, KEYS_PER_RANK, 5);
        let mut machine = Machine::flat(P);
        let sorter = HssSorter::new(HssConfig {
            epsilon: EPS,
            schedule: RoundSchedule::Theoretical { rounds },
            ..HssConfig::default()
        });
        let outcome = sorter.sort(&mut machine, input.clone());
        verify_global_sort(&input, &outcome.data).unwrap();
        let sp = outcome.report.splitters.as_ref().unwrap();
        assert!(
            sp.rounds_executed() <= rounds,
            "theoretical schedule must run at most k rounds (ran {})",
            sp.rounds_executed()
        );
        // Stopping before the k-th round is only legal once every splitter
        // is finalized (the fixed-schedule early-exit rule).
        assert!(
            sp.rounds_executed() == rounds || sp.all_finalized,
            "stopped after {} of {rounds} rounds without finalizing",
            sp.rounds_executed()
        );
        assert!(outcome.report.satisfies(EPS), "k = {rounds}: {}", outcome.report.imbalance());
    }
}

#[test]
fn hss_scanning_rule_sorts_and_balances() {
    let input = KeyDistribution::Uniform.generate_per_rank(P, 2_000, 9);
    let mut machine = Machine::flat(P);
    let sorter = HssSorter::new(HssConfig {
        epsilon: 0.15,
        schedule: RoundSchedule::Theoretical { rounds: 1 },
        splitter_rule: SplitterRule::Scanning,
        ..HssConfig::default()
    });
    let outcome = sorter.sort(&mut machine, input.clone());
    verify_global_sort(&input, &outcome.data).unwrap();
    assert!(outcome.report.satisfies(0.15), "imbalance {}", outcome.report.imbalance());
}

#[test]
fn sample_sort_baselines_sort_every_distribution() {
    for dist in distributions() {
        let input = dist.generate_per_rank(P, KEYS_PER_RANK, 33);
        for cfg in [SampleSortConfig::regular(EPS), SampleSortConfig::random(EPS)] {
            let mut machine = Machine::flat(P);
            let outcome = cfg.run(&mut machine, SortRequest::new(input.clone())).unwrap();
            verify_global_sort(&input, &outcome.data)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", outcome.report.algorithm, dist.name()));
        }
    }
}

#[test]
fn regular_sampling_guarantee_is_deterministic() {
    // Lemma 4.1.1 is a deterministic guarantee (no "w.h.p."): check it on a
    // skewed input too.
    for dist in [KeyDistribution::Uniform, KeyDistribution::PowerLaw { gamma: 5.0 }] {
        let input = dist.generate_per_rank(P, KEYS_PER_RANK, 17);
        let mut machine = Machine::flat(P);
        let report = SampleSortConfig::regular(EPS)
            .run(&mut machine, SortRequest::new(input))
            .unwrap()
            .report;
        assert!(
            report.load_balance.satisfies(EPS),
            "{}: imbalance {}",
            dist.name(),
            report.imbalance()
        );
    }
}

#[test]
fn classic_histogram_sort_matches_hss_output() {
    let input =
        KeyDistribution::Exponential { scale_frac: 0.01 }.generate_per_rank(P, KEYS_PER_RANK, 3);
    let mut m1 = Machine::flat(P);
    let out_classic = HistogramSortConfig::new(EPS, P)
        .run(&mut m1, SortRequest::new(input.clone()))
        .unwrap()
        .data;
    let mut m2 = Machine::flat(P);
    let hss = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() })
        .sort(&mut m2, input.clone());
    // Different splitters are allowed, but both must be valid sorts of the
    // same multiset.
    verify_global_sort(&input, &out_classic).unwrap();
    verify_global_sort(&input, &hss.data).unwrap();
    let a: Vec<u64> = out_classic.into_iter().flatten().collect();
    let b: Vec<u64> = hss.data.into_iter().flatten().collect();
    assert_eq!(a, b, "the two sorted sequences must be identical");
}

#[test]
fn other_baselines_sort_correctly() {
    let input = KeyDistribution::Uniform.generate_per_rank(P, KEYS_PER_RANK, 13);

    let mut machine = Machine::flat(P);
    let out = OverPartitioningConfig::recommended(P)
        .run(&mut machine, SortRequest::new(input.clone()))
        .unwrap()
        .data;
    verify_global_sort(&input, &out).unwrap();

    let mut machine = Machine::flat(P);
    let out = BitonicSorter.run(&mut machine, SortRequest::new(input.clone())).unwrap().data;
    verify_global_sort(&input, &out).unwrap();

    let mut machine = Machine::flat(P);
    let out = RadixConfig::recommended(P)
        .run(&mut machine, SortRequest::new(input.clone()))
        .unwrap()
        .data;
    verify_global_sort(&input, &out).unwrap();
}

#[test]
fn records_keep_their_payloads_through_every_splitter_algorithm() {
    let input = KeyDistribution::Uniform.generate_records_per_rank(P, 400, 77);
    // HSS.
    let mut machine = Machine::flat(P);
    let outcome = HssSorter::default().sort(&mut machine, input.clone());
    for rec in outcome.data.iter().flatten() {
        assert_eq!(*rec, Record::with_derived_payload(rec.key));
    }
    // Sample sort.
    let mut machine = Machine::flat(P);
    let out =
        SampleSortConfig::regular(0.1).run(&mut machine, SortRequest::new(input)).unwrap().data;
    for rec in out.iter().flatten() {
        assert_eq!(*rec, Record::with_derived_payload(rec.key));
    }
}

#[test]
fn hss_report_metrics_cover_all_phases_and_costs_are_positive() {
    let input = KeyDistribution::Uniform.generate_per_rank(P, KEYS_PER_RANK, 1);
    let mut machine = Machine::flat(P);
    let outcome = HssSorter::default().sort(&mut machine, input);
    let m = &outcome.report.metrics;
    assert!(m.phase(Phase::LocalSort).simulated_seconds > 0.0);
    assert!(m.phase(Phase::Sampling).simulated_seconds > 0.0);
    assert!(m.phase(Phase::Histogramming).simulated_seconds > 0.0);
    assert!(m.phase(Phase::DataExchange).simulated_seconds > 0.0);
    assert!(m.phase(Phase::Merge).simulated_seconds > 0.0);
    assert!(m.total_messages() > 0);
    assert!(m.total_comm_words() > 0);
}

#[test]
fn changa_datasets_end_to_end_with_all_algorithms() {
    for ds in [ChangaDataset::lambb_like(5), ChangaDataset::dwarf_like(5)] {
        let input = ds.generate_keys_per_rank(P, 600, 11);
        let mut machine = Machine::flat(P);
        let outcome = HssSorter::new(
            HssConfig { epsilon: EPS, ..HssConfig::default() }.with_duplicate_tagging(),
        )
        .sort(&mut machine, input.clone());
        verify_global_sort(&input, &outcome.data).unwrap();
        assert!(outcome.report.satisfies(EPS), "{}: {}", ds.name, outcome.report.imbalance());

        let mut machine = Machine::flat(P);
        let out = HistogramSortConfig::new(EPS, P)
            .run(&mut machine, SortRequest::new(input.clone()))
            .unwrap()
            .data;
        verify_global_sort(&input, &out).unwrap();
    }
}

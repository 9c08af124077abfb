//! Integration tests for the shared-memory (node-level) optimisation of
//! §6.1 and the duplicate-tagging scheme of §4.3, across crates.

use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;
use hss_repro::sim::Phase as SimPhase;

const EPS: f64 = 0.05;

/// The within-node cut is exact: a node's cores differ by at most one item.
fn assert_exact_within_nodes<T>(cores_per_node: usize, data: &[Vec<T>]) {
    for node in data.chunks(cores_per_node) {
        let counts: Vec<usize> = node.iter().map(Vec::len).collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1, "{counts:?}");
    }
}

#[test]
fn node_level_and_flat_produce_the_same_sorted_sequence() {
    let p = 32;
    let input = KeyDistribution::Uniform.generate_per_rank(p, 1_000, 9);

    let mut flat_machine = Machine::new(Topology::new(p, 8), CostModel::bluegene_like());
    let flat =
        HssSorter::new(HssConfig { epsilon: EPS, node_level: false, ..HssConfig::default() })
            .sort(&mut flat_machine, input.clone());

    let mut node_machine = Machine::new(Topology::new(p, 8), CostModel::bluegene_like());
    let node = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() }.with_node_level())
        .sort(&mut node_machine, input.clone());

    verify_global_sort(&input, &flat.data).unwrap();
    verify_global_sort(&input, &node.data).unwrap();
    let a: Vec<u64> = flat.data.into_iter().flatten().collect();
    let b: Vec<u64> = node.data.into_iter().flatten().collect();
    assert_eq!(a, b);
}

#[test]
fn node_level_finish_is_timed() {
    // The node leaders' shared-memory re-split runs inside the charge that
    // models it, so its phase carries host wall time.
    let input = KeyDistribution::Uniform.generate_per_rank(8, 1_000, 5);
    let mut machine = Machine::new(Topology::new(8, 4), CostModel::bluegene_like());
    let node = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() }.with_node_level())
        .sort(&mut machine, input.clone());
    verify_global_sort(&input, &node.data).unwrap();
    let finish = node.report.metrics.phase(SimPhase::NodeLocalSort);
    assert!(finish.compute_ops > 0);
    assert!(finish.wall_seconds > 0.0, "node finish wall {}", finish.wall_seconds);
}

#[test]
fn node_level_reduces_messages_and_histogram_volume() {
    let p = 64;
    let cores = 16;
    let input = KeyDistribution::Uniform.generate_per_rank(p, 1_000, 3);

    let mut flat_machine = Machine::new(Topology::new(p, cores), CostModel::bluegene_like());
    let flat =
        HssSorter::new(HssConfig { epsilon: EPS, node_level: false, ..HssConfig::default() })
            .sort(&mut flat_machine, input.clone());

    let mut node_machine = Machine::new(Topology::new(p, cores), CostModel::bluegene_like());
    let node = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() }.with_node_level())
        .sort(&mut node_machine, input);

    // §6.1.1: the exchange injects at most n(n-1) messages instead of up to
    // p(p-1) (the flat run already benefits from node-combining of the
    // exchange, so compare against the histogram/splitter path too).
    let node_msgs = node.report.metrics.phase(SimPhase::DataExchange).messages;
    assert!(node_msgs <= ((p / cores) * (p / cores - 1)) as u64);

    // Node-level splitting determines n-1 splitters instead of p-1, so the
    // total sample shrinks.
    let flat_sample = flat.report.splitters.as_ref().unwrap().total_sample_size;
    let node_sample = node.report.splitters.as_ref().unwrap().total_sample_size;
    assert!(
        node_sample < flat_sample,
        "node-level sample {node_sample} not smaller than flat {flat_sample}"
    );

    // And the histogramming phase gets cheaper in simulated time.
    let flat_hist = flat.report.metrics.phase(SimPhase::Histogramming).simulated_seconds
        + flat.report.metrics.phase(SimPhase::Sampling).simulated_seconds;
    let node_hist = node.report.metrics.phase(SimPhase::Histogramming).simulated_seconds
        + node.report.metrics.phase(SimPhase::Sampling).simulated_seconds;
    assert!(node_hist <= flat_hist * 1.1, "node {node_hist} vs flat {flat_hist}");
}

#[test]
fn node_level_respects_combined_balance_bounds() {
    let p = 64;
    let input = KeyDistribution::PowerLaw { gamma: 3.0 }.generate_per_rank(p, 1_500, 17);
    let mut machine = Machine::new(Topology::new(p, 16), CostModel::bluegene_like());
    let config = HssConfig::paper_cluster();
    let outcome = HssSorter::new(config.clone()).sort(&mut machine, input.clone());
    verify_global_sort(&input, &outcome.data).unwrap();
    // The node splitters' 2% is the whole slack: each node is cut exactly.
    assert_exact_within_nodes(16, &outcome.data);
    assert!(outcome.report.satisfies(config.epsilon), "imbalance {}", outcome.report.imbalance());
}

#[test]
fn duplicate_heavy_inputs_balance_only_with_tagging() {
    let p = 16;
    for dist in [KeyDistribution::AllEqual, KeyDistribution::FewDistinct { distinct: 4 }] {
        let input = dist.generate_per_rank(p, 1_000, 23);

        let mut plain_machine = Machine::flat(p);
        let plain = HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() })
            .sort(&mut plain_machine, input.clone());
        verify_global_sort(&input, &plain.data).unwrap();
        assert!(
            !plain.report.satisfies(EPS),
            "{}: untagged HSS unexpectedly balanced ({})",
            dist.name(),
            plain.report.imbalance()
        );

        let mut tagged_machine = Machine::flat(p);
        let tagged = HssSorter::new(
            HssConfig { epsilon: EPS, ..HssConfig::default() }.with_duplicate_tagging(),
        )
        .sort(&mut tagged_machine, input.clone());
        verify_global_sort(&input, &tagged.data).unwrap();
        assert!(
            tagged.report.satisfies(EPS),
            "{}: tagged HSS imbalance {}",
            dist.name(),
            tagged.report.imbalance()
        );
    }
}

#[test]
fn tagging_and_node_level_compose() {
    let p = 32;
    let input = KeyDistribution::FewDistinct { distinct: 7 }.generate_per_rank(p, 800, 31);
    let mut machine = Machine::new(Topology::new(p, 8), CostModel::bluegene_like());
    let outcome = HssSorter::new(
        HssConfig { epsilon: EPS, ..HssConfig::default() }
            .with_duplicate_tagging()
            .with_node_level(),
    )
    .sort(&mut machine, input.clone());
    verify_global_sort(&input, &outcome.data).unwrap();
    assert_exact_within_nodes(8, &outcome.data);
    assert!(outcome.report.satisfies(EPS), "imbalance {}", outcome.report.imbalance());
}

#[test]
fn records_with_duplicate_keys_keep_payloads_under_tagging() {
    let p = 8;
    // Many records share keys; payloads must survive the tagged round trip.
    let input: Vec<Vec<Record>> = (0..p)
        .map(|r| {
            (0..500u32)
                .map(|i| Record { key: (i % 17) as u64, payload: (r as u32) << 16 | i })
                .collect()
        })
        .collect();
    let expected: usize = input.iter().map(|v| v.len()).sum();
    let mut machine = Machine::flat(p);
    let outcome =
        HssSorter::new(HssConfig { epsilon: EPS, ..HssConfig::default() }.with_duplicate_tagging())
            .sort(&mut machine, input.clone());
    verify_global_sort(&input, &outcome.data).unwrap();
    assert!(outcome.report.satisfies(EPS), "imbalance {}", outcome.report.imbalance());
    // No payload lost or duplicated.
    let mut seen: Vec<u32> = outcome.data.iter().flatten().map(|r| r.payload).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), expected);
}

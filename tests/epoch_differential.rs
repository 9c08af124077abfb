//! Epoch-service differential suite: [`SortService`] must never invent a
//! different sort than the one-shot [`HssSorter`] it is built from.
//!
//! Oracles:
//!
//! 1. **Epoch 0 is cold (bitwise).**  The first sealed epoch is
//!    `HssSorter::sort` on the service's own machine — flat Bsp, node-level
//!    buckets on a multi-core topology, or `SyncModel::Overlapped` — so its
//!    per-rank keyspace, its cost signature and its makespan must all match
//!    a cold sorter run on the same kind of machine bit for bit.
//! 2. **Warm epochs re-sort, never approximate.**  A warm start may change
//!    *how many rounds* splitter determination takes (and hence where the
//!    splitters land), but the sealed keyspace must still be a permutation-
//!    free re-sort of everything ingested: flattening it must equal the
//!    cold sorter's flattened output on the accumulated multiset, across a
//!    drift × processor-count matrix and on every machine of oracle 1.
//! 3. **Replay determinism.**  The same seed and ingest stream must replay
//!    to bitwise-identical keyspaces, reports and cost signatures.
//! 4. **Sync-model coverage.**  The cold reference is itself pinned across
//!    sync models: flattened output under `SyncModel::Overlapped` equals
//!    the service's (BSP) flattened keyspace.

use hss_repro::prelude::*;
use hss_repro::service::DriftingWorkload;

fn service_config(seed: u64) -> ServiceConfig {
    let hss = HssConfig::default()
        .with_epsilon(0.02)
        .with_schedule(RoundSchedule::ConstantOversampling { oversampling: 4.0, max_rounds: 32 })
        .with_seed(seed);
    ServiceConfig::new(hss).expect("valid service config")
}

/// A machine (and configuration) a service is exercised on.
type Setup = (&'static str, fn(usize) -> Machine, ServiceConfig);

/// The plain flat Bsp machine, node-level partitioning on a
/// 4-core-per-node topology, and a flat machine under the overlapped
/// schedule.
fn setups(seed: u64) -> [Setup; 3] {
    let node_level = ServiceConfig::new(HssConfig::paper_cluster().with_seed(seed))
        .expect("the service supports node-level partitioning");
    let multi_core = |p| Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
    let overlapped = |p| Machine::flat(p).with_sync_model(SyncModel::Overlapped);
    [
        ("flat/bsp", Machine::flat, service_config(seed)),
        ("node-level/bsp", multi_core, node_level),
        ("flat/overlapped", overlapped, service_config(seed)),
    ]
}

fn flatten(per_rank: &[Vec<u64>]) -> Vec<u64> {
    per_rank.iter().flatten().copied().collect()
}

#[test]
fn epoch_zero_is_bitwise_identical_to_the_cold_sorter() {
    for (label, machine, config) in setups(17) {
        for p in [8, 32] {
            let input = KeyDistribution::Uniform.generate_per_rank(p, 1_500, 99);

            let mut service: SortService<u64> =
                SortService::with_machine(machine(p), config.clone());
            service.ingest_per_rank(input.clone());
            service.seal_epoch();

            let mut cold_machine = machine(p);
            let cold = HssSorter::new(config.hss.clone()).sort(&mut cold_machine, input);

            assert_eq!(service.keyspace(), cold.data.as_slice(), "{label} p={p}: data differs");
            let report = &service.history()[0];
            assert_eq!(
                report.metrics.deterministic_signature(),
                cold.report.metrics.deterministic_signature(),
                "{label} p={p}: cost signature differs"
            );
            assert_eq!(
                report.makespan_seconds.to_bits(),
                cold.report.makespan_seconds.to_bits(),
                "{label} p={p}: makespan differs"
            );
            assert_eq!(
                report.splitter_rounds,
                cold.report.splitters.as_ref().unwrap().rounds_executed()
            );
        }
    }
}

#[test]
fn warm_epochs_flatten_to_the_cold_resort_of_everything_ingested() {
    for (label, machine, config) in setups(23) {
        for p in [8, 16] {
            for drift in [0.0, 0.5, 1.0] {
                let mut service: SortService<u64> =
                    SortService::with_machine(machine(p), config.clone());
                let mut workload = DriftingWorkload::new(p, 600, drift, 23);
                let mut accumulated: Vec<Vec<u64>> = vec![Vec::new(); p];

                for epoch in 0..3 {
                    let at = format!("{label} p={p} drift={drift} epoch {epoch}");
                    let batch = workload.next_batch();
                    for (acc, fresh) in accumulated.iter_mut().zip(batch.iter()) {
                        acc.extend_from_slice(fresh);
                    }
                    service.ingest_per_rank(batch);
                    let report = service.seal_epoch().clone();
                    assert_eq!(report.warm_started, epoch > 0, "{at}");

                    let cold = HssSorter::new(config.hss.clone())
                        .sort(&mut machine(p), accumulated.clone());
                    assert_eq!(
                        flatten(service.keyspace()),
                        flatten(&cold.data),
                        "{at}: flattened output differs from cold re-sort"
                    );
                    // The splitter guarantee is per bucket: ranks, or whole
                    // nodes under node-level partitioning.  (Within a node
                    // the regular-sampling re-split takes equally many
                    // samples from every received run, which only balances
                    // cores when the runs are about equally long — not the
                    // case when re-sorting an already partitioned keyspace.)
                    let cores = if config.hss.node_level { 4 } else { 1 };
                    let buckets: Vec<Vec<u64>> =
                        service.keyspace().chunks(cores).map(|node| node.concat()).collect();
                    let balance = LoadBalance::from_rank_data(&buckets);
                    assert!(balance.satisfies(config.hss.epsilon), "{at}: {}", balance.imbalance);
                }
            }
        }
    }
}

#[test]
fn sealed_epochs_replay_deterministically() {
    let p = 16;
    let run = || {
        let mut service: SortService<u64> = SortService::new(p, service_config(31));
        let mut workload = DriftingWorkload::new(p, 500, 0.25, 31);
        for _ in 0..3 {
            service.ingest_per_rank(workload.next_batch());
            service.seal_epoch();
        }
        service
    };
    let (a, b) = (run(), run());
    assert_eq!(a.keyspace(), b.keyspace());
    for (ra, rb) in a.history().iter().zip(b.history()) {
        assert_eq!(ra.splitter_rounds, rb.splitter_rounds);
        assert_eq!(ra.carried_probes, rb.carried_probes);
        assert_eq!(ra.makespan_seconds.to_bits(), rb.makespan_seconds.to_bits());
        assert_eq!(ra.metrics.deterministic_signature(), rb.metrics.deterministic_signature());
    }
}

#[test]
fn cold_reference_holds_across_sync_models() {
    let p = 8;
    let config = service_config(43);
    let mut service: SortService<u64> = SortService::new(p, config.clone());
    let mut workload = DriftingWorkload::new(p, 700, 0.5, 43);
    let mut accumulated: Vec<Vec<u64>> = vec![Vec::new(); p];
    for _ in 0..2 {
        let batch = workload.next_batch();
        for (acc, fresh) in accumulated.iter_mut().zip(batch.iter()) {
            acc.extend_from_slice(fresh);
        }
        service.ingest_per_rank(batch);
        service.seal_epoch();
    }
    let mut overlapped = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
    let cold = HssSorter::new(config.hss).sort(&mut overlapped, accumulated);
    assert_eq!(
        flatten(service.keyspace()),
        flatten(&cold.data),
        "overlapped cold sort disagrees with the sealed keyspace"
    );
}

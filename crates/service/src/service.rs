//! The epoch-based [`SortService`]: batched ingest, warm-started re-sorts,
//! bounded-staleness rank queries.

use hss_core::{ApproxHistogrammer, HssConfig, HssSorter, SplitterReport, WarmStart};
use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::LoadBalance;
use hss_sim::{Machine, MetricsRegistry, Phase};

use serde::Serialize;

use crate::query::QueryIndex;

/// Configuration of a [`SortService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The HSS configuration every epoch sorts with.  Its `ε` also sizes
    /// the between-epoch query oracle (Theorem 3.4.1 sample size
    /// `√(2 p ln p)/ε` per rank).
    pub hss: HssConfig,
    /// Cap on the number of probe keys carried from one epoch into the
    /// next warm start (the carried set is evenly thinned above the cap, so
    /// cross-epoch state stays bounded).  `usize::MAX` = uncapped.
    pub max_carried_probes: usize,
    /// Warm-start splitter determination from the previous epoch's probes.
    /// Disable to force every epoch cold — the control arm of the
    /// rounds-saved comparison.
    pub warm_start: bool,
}

impl ServiceConfig {
    /// Validate `hss` once, up front, and derive service defaults from it.
    ///
    /// Every epoch is one [`HssSorter::sort_seeded`] call, so whatever the
    /// sorter supports the service does — node-level partitioning included.
    /// Duplicate tagging is the exception: the probes carried between
    /// epochs are untagged keys, which the tagged pipeline cannot be seeded
    /// with.
    pub fn new(hss: HssConfig) -> Result<Self, String> {
        hss.validate()?;
        if hss.tag_duplicates {
            return Err("the epoch service does not support duplicate tagging".into());
        }
        Ok(Self { hss, max_carried_probes: usize::MAX, warm_start: true })
    }

    /// Disable warm starts (every epoch sorts cold).
    pub fn without_warm_start(mut self) -> Self {
        self.warm_start = false;
        self
    }
}

/// What one [`SortService::seal_epoch`] call did.
#[derive(Debug, Clone, Serialize)]
pub struct EpochReport {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Keys folded in from the ingest buffers this epoch.
    pub ingested_keys: u64,
    /// Keys in the keyspace after sealing.
    pub total_keys: u64,
    /// Whether splitter determination was seeded from the previous epoch.
    pub warm_started: bool,
    /// Probe keys carried into this epoch's warm start (0 when cold).
    pub carried_probes: usize,
    /// Splitter-determination rounds executed (the warm probe-only round
    /// counts — its broadcast and histogramming are real work).
    pub splitter_rounds: usize,
    /// Whether every splitter finalized within tolerance.
    pub all_finalized: bool,
    /// Load balance of the sealed keyspace.
    pub load_balance: LoadBalance,
    /// Simulated seconds for the epoch's sort (local sort + splitter
    /// determination + exchange; excludes oracle build and queries).
    pub makespan_seconds: f64,
    /// Full splitter-determination report (per-round sample sizes etc.).
    pub splitters: SplitterReport,
    /// Per-phase cost accounting for the epoch's sort.
    pub metrics: MetricsRegistry,
}

/// An epoch-based sorting service (see the crate docs for the lifecycle).
///
/// Generic over the item type like the sorters; queries are on the key type
/// `T::K`.
#[derive(Debug)]
pub struct SortService<T: Keyed> {
    machine: Machine,
    config: ServiceConfig,
    /// Sorted per-rank keyspace as of the last sealed epoch.
    keyspace: Vec<Vec<T>>,
    /// Per-rank ingest buffers, folded in at the next seal.
    pending: Vec<Vec<T>>,
    /// Probes accumulated during the last epoch's splitter rounds.
    warm: Option<WarmStart<T::K>>,
    /// Rank oracle over the sealed keyspace (rebuilt every epoch).
    oracle: Option<ApproxHistogrammer<T::K>>,
    /// Root-side percentile index (rebuilt every epoch).
    index: Option<QueryIndex<T::K>>,
    history: Vec<EpochReport>,
    /// Rank that receives the next `ingest` batch's first chunk.
    next_ingest_rank: usize,
}

impl<T> SortService<T>
where
    T: Keyed + Ord + RadixSortable,
    T::K: RadixSortable,
{
    /// A service on a fresh flat machine with `ranks` processors.
    pub fn new(ranks: usize, config: ServiceConfig) -> Self {
        Self::with_machine(Machine::flat(ranks), config)
    }

    /// A service on an existing machine (custom topology, cost model or
    /// sync model): every epoch runs the sorter's pipeline under whatever
    /// schedule and bucket granularity that machine implies.
    pub fn with_machine(machine: Machine, config: ServiceConfig) -> Self {
        let p = machine.ranks();
        Self {
            machine,
            config,
            keyspace: vec![Vec::new(); p],
            pending: vec![Vec::new(); p],
            warm: None,
            oracle: None,
            index: None,
            history: Vec::new(),
            next_ingest_rank: 0,
        }
    }

    /// Buffer one batch of new items, spread over the ranks in contiguous
    /// chunks starting after wherever the previous batch ended (so repeated
    /// small batches stay balanced).  Nothing is sorted until
    /// [`Self::seal_epoch`].
    pub fn ingest(&mut self, batch: Vec<T>) {
        let p = self.pending.len();
        let chunk = batch.len().div_ceil(p).max(1);
        for piece in batch.chunks(chunk) {
            self.pending[self.next_ingest_rank % p].extend_from_slice(piece);
            self.next_ingest_rank = (self.next_ingest_rank + 1) % p;
        }
    }

    /// Buffer pre-placed per-rank batches (one vector per rank).
    pub fn ingest_per_rank(&mut self, batches: Vec<Vec<T>>) {
        assert_eq!(batches.len(), self.pending.len(), "one batch per rank");
        for (buf, batch) in self.pending.iter_mut().zip(batches) {
            buf.extend(batch);
        }
    }

    /// Keys waiting in the ingest buffers.
    pub fn pending_keys(&self) -> u64 {
        self.pending.iter().map(|v| v.len() as u64).sum()
    }

    /// Keys in the sealed keyspace.
    pub fn total_keys(&self) -> u64 {
        self.keyspace.iter().map(|v| v.len() as u64).sum()
    }

    /// Reports of every sealed epoch, oldest first.
    pub fn history(&self) -> &[EpochReport] {
        &self.history
    }

    /// The sealed per-rank keyspace (sorted within and across ranks).
    pub fn keyspace(&self) -> &[Vec<T>] {
        &self.keyspace
    }

    /// The underlying machine (metrics, timeline, topology).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Fold the ingest buffers into the keyspace and re-sort it.
    ///
    /// The re-sort is one [`HssSorter::sort_seeded`] call on the service's
    /// machine, so epoch 0 (nothing to seed from) is bitwise
    /// `HssSorter::sort` — output and cost signature — by construction.
    /// Later epochs warm-start splitter determination from the previous
    /// epoch's accumulated probes unless [`ServiceConfig::warm_start`] is
    /// off.  Accounting is reset at the start of each seal; the returned
    /// report is the sort's own, taken before the query oracle is rebuilt,
    /// so sort and query costs stay separable.
    pub fn seal_epoch(&mut self) -> &EpochReport {
        let epoch = self.history.len();
        let p = self.machine.ranks();
        let ingested: u64 = self.pending_keys();
        let mut data = std::mem::take(&mut self.keyspace);
        for (local, fresh) in data.iter_mut().zip(self.pending.iter_mut()) {
            local.append(fresh);
        }

        self.machine.reset_accounting();

        // 1-3. Local sort, splitter determination (warm-started when there
        //    is prior state), exchange and finish.  The observer
        //    accumulates every round's probes for next epoch's warm start —
        //    carrying only the final interval bounds is not dense enough to
        //    save rounds once fresh keys shift the targets by more than the
        //    tolerance.
        let warm = if self.config.warm_start { self.warm.take() } else { None };
        let warm_started = warm.as_ref().map(|w| !w.is_empty()).unwrap_or(false);
        let carried_probes = warm.as_ref().map(|w| w.probes().len()).unwrap_or(0);
        let mut probes_seen: Vec<T::K> = Vec::new();
        let outcome = HssSorter::new(self.config.hss.clone()).sort_seeded(
            &mut self.machine,
            data,
            warm.as_ref(),
            |_machine, progress| probes_seen.extend_from_slice(progress.probes),
        );
        self.keyspace = outcome.data;
        let sort = outcome.report;
        let splitter_report = sort.splitters.expect("HSS reports its splitter rounds");

        // 4. Next epoch's warm start: every probe this epoch ranked,
        //    thinned evenly to the configured cap.
        self.warm =
            Some(WarmStart::from_probes(thin_to_cap(probes_seen, self.config.max_carried_probes)));

        // 5. Rebuild the query oracle and percentile index over the sealed
        //    keyspace (charged to Sampling / Query phases, after the
        //    sort's report was taken).
        let sample_size =
            ApproxHistogrammer::<T::K>::prescribed_sample_size(p.max(2), self.config.hss.epsilon);
        let oracle = ApproxHistogrammer::build(
            &mut self.machine,
            &self.keyspace,
            sample_size,
            self.config.hss.seed ^ (epoch as u64).wrapping_mul(0x9E37),
        );
        self.index = Some(QueryIndex::build(&mut self.machine, &oracle, Phase::Query));
        self.oracle = Some(oracle);

        self.history.push(EpochReport {
            epoch,
            ingested_keys: ingested,
            total_keys: sort.total_keys,
            warm_started,
            carried_probes,
            splitter_rounds: splitter_report.rounds_executed(),
            all_finalized: splitter_report.all_finalized,
            load_balance: sort.load_balance,
            makespan_seconds: sort.makespan_seconds,
            splitters: splitter_report,
            metrics: sort.metrics,
        });
        self.history.last().expect("just pushed")
    }

    /// Estimated number of keyspace keys `<=` `key` (Theorem 3.4.1: within
    /// `εN/p` of the truth w.h.p.), answered from the representative
    /// samples and charged to [`Phase::Query`].
    ///
    /// # Panics
    ///
    /// Panics if no epoch has been sealed yet.
    pub fn rank(&mut self, key: T::K) -> f64 {
        let oracle = self.oracle.as_ref().expect("no epoch sealed yet — call seal_epoch first");
        oracle.estimated_global_ranks_in(&mut self.machine, &[key], Phase::Query)[0]
    }

    /// Estimated number of keyspace keys in the half-open range
    /// `(lo, hi]` — the difference of the two `<=`-ranks, so the error is
    /// at most twice the single-query bound.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or no epoch has been sealed yet.
    pub fn range_count(&mut self, lo: T::K, hi: T::K) -> f64 {
        assert!(lo <= hi, "range_count requires lo <= hi");
        let oracle = self.oracle.as_ref().expect("no epoch sealed yet — call seal_epoch first");
        let ranks = oracle.estimated_global_ranks_in(&mut self.machine, &[lo, hi], Phase::Query);
        (ranks[1] - ranks[0]).max(0.0)
    }

    /// The sampled key closest to fraction `q ∈ [0, 1]` of the keyspace
    /// (e.g. `0.5` = median estimate), answered from the root-side
    /// percentile index.  Charged as one client/root message round-trip on
    /// [`Phase::Query`].
    ///
    /// # Panics
    ///
    /// Panics if no epoch has been sealed yet.
    pub fn percentile(&mut self, q: f64) -> T::K {
        let index = self.index.as_ref().expect("no epoch sealed yet — call seal_epoch first");
        let key = index.key_at_fraction(q);
        // Request + response, one word each way.
        self.machine.charge_point_to_point(Phase::Query, 2, 2);
        key
    }
}

/// Thin `probes` evenly down to at most `cap` keys (keeping first and last
/// of the sorted set when thinning).
fn thin_to_cap<K: Ord + Copy>(mut probes: Vec<K>, cap: usize) -> Vec<K> {
    probes.sort_unstable();
    probes.dedup();
    if probes.len() <= cap || cap == 0 {
        return probes;
    }
    let n = probes.len();
    (0..cap).map(|i| probes[i * (n - 1) / (cap - 1).max(1)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;

    fn uniform(p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        KeyDistribution::Uniform.generate_per_rank(p, n, seed)
    }

    #[test]
    fn config_rejects_unsupported_pipelines() {
        assert!(ServiceConfig::new(HssConfig::default().with_duplicate_tagging()).is_err());
        assert!(ServiceConfig::new(HssConfig::default().with_node_level()).is_ok());
        assert!(ServiceConfig::new(HssConfig::default()).is_ok());
    }

    #[test]
    fn ingest_balances_across_ranks() {
        let config = ServiceConfig::new(HssConfig::default()).unwrap();
        let mut service: SortService<u64> = SortService::new(4, config);
        service.ingest((0..1000).collect());
        assert_eq!(service.pending_keys(), 1000);
        let per_rank: Vec<usize> = service.pending.iter().map(|v| v.len()).collect();
        assert!(per_rank.iter().all(|&n| n == 250), "uneven ingest: {per_rank:?}");
        // A second batch starts on the next rank, so small batches rotate.
        service.ingest(vec![1, 2, 3]);
        assert_eq!(service.pending_keys(), 1003);
    }

    #[test]
    fn first_epoch_sorts_and_serves_queries() {
        let p = 8;
        let config = ServiceConfig::new(HssConfig::default()).unwrap();
        let mut service = SortService::new(p, config);
        service.ingest_per_rank(uniform(p, 2_000, 3));
        let report = service.seal_epoch();
        assert_eq!(report.epoch, 0);
        assert!(!report.warm_started);
        assert_eq!(report.total_keys, (p * 2_000) as u64);
        assert!(report.all_finalized);

        // The keyspace is globally sorted.
        let flat: Vec<u64> = service.keyspace().iter().flatten().copied().collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));

        // Queries: the median's rank is near N/2, within the theorem bound.
        let n = service.total_keys() as f64;
        let median = service.percentile(0.5);
        let rank = service.rank(median);
        let allowed = 2.0 * 0.05 * n / p as f64 + n / 200.0;
        assert!((rank - n / 2.0).abs() <= allowed.max(n * 0.02), "median rank {rank} vs {n}/2");
        // Range count over everything ~ N.
        let all = service.range_count(0, u64::MAX);
        assert!((all - n).abs() <= n * 0.01, "range_count {all} vs {n}");
        // Query cost landed on Phase::Query.
        let query_cost = service.machine().metrics().phase(Phase::Query).simulated_seconds;
        assert!(query_cost > 0.0);
    }

    #[test]
    fn stationary_distribution_warm_starts_in_fewer_rounds() {
        let p = 32;
        let hss = HssConfig::default().with_epsilon(0.02).with_seed(11);
        let config = ServiceConfig::new(hss).unwrap();
        let mut service = SortService::new(p, config);
        service.ingest_per_rank(uniform(p, 3_000, 1));
        let cold_rounds = service.seal_epoch().splitter_rounds;
        assert!(cold_rounds >= 2, "cold start should take multiple rounds, got {cold_rounds}");

        // 5% fresh keys from the same distribution.
        service.ingest_per_rank(uniform(p, 150, 2));
        let warm = service.seal_epoch();
        assert!(warm.warm_started);
        assert!(warm.carried_probes > 0);
        assert!(
            warm.splitter_rounds < cold_rounds,
            "warm {} rounds not below cold {cold_rounds}",
            warm.splitter_rounds
        );
        assert!(warm.all_finalized);
        let flat: Vec<u64> = service.keyspace().iter().flatten().copied().collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let p = 16;
        let config =
            ServiceConfig::new(HssConfig::default().with_seed(5)).unwrap().without_warm_start();
        let mut service = SortService::new(p, config);
        service.ingest_per_rank(uniform(p, 1_000, 1));
        service.seal_epoch();
        service.ingest_per_rank(uniform(p, 100, 2));
        let second = service.seal_epoch();
        assert!(!second.warm_started);
        assert_eq!(second.carried_probes, 0);
    }

    #[test]
    fn carried_probes_respect_the_cap() {
        let p = 16;
        let config = ServiceConfig {
            max_carried_probes: 10,
            ..ServiceConfig::new(HssConfig::default().with_seed(7)).unwrap()
        };
        let mut service = SortService::new(p, config);
        service.ingest_per_rank(uniform(p, 1_000, 1));
        service.seal_epoch();
        service.ingest_per_rank(uniform(p, 100, 2));
        let warm = service.seal_epoch();
        assert!(warm.warm_started);
        assert!(warm.carried_probes <= 10, "cap ignored: {}", warm.carried_probes);
    }

    #[test]
    fn thinning_keeps_extremes_and_cap() {
        let probes: Vec<u64> = (0..100).collect();
        let thinned = thin_to_cap(probes, 10);
        assert_eq!(thinned.len(), 10);
        assert_eq!(*thinned.first().unwrap(), 0);
        assert_eq!(*thinned.last().unwrap(), 99);
        assert!(thinned.windows(2).all(|w| w[0] < w[1]));
        // Under the cap: untouched.
        assert_eq!(thin_to_cap(vec![3u64, 1, 2], 10), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "no epoch sealed yet")]
    fn queries_before_first_epoch_panic() {
        let config = ServiceConfig::new(HssConfig::default()).unwrap();
        let mut service: SortService<u64> = SortService::new(4, config);
        let _ = service.rank(42);
    }
}

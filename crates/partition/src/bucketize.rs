//! Splitting local data into per-destination buckets for the all-to-all
//! exchange (the "data movement" step shared by every splitter-based
//! algorithm, §2.2 step 3).

use hss_keygen::Keyed;
use hss_sim::ExchangePlan;

use crate::splitters::SplitterSet;

/// Partition a rank's *sorted* local data into one bucket per destination,
/// according to `splitters`.  Bucket `i` receives the keys in
/// `[S_i, S_{i+1})`.  The concatenation of the buckets equals the input.
pub fn partition_sorted<T: Keyed>(sorted: &[T], splitters: &SplitterSet<T::K>) -> Vec<Vec<T>> {
    debug_assert!(crate::histogram::is_sorted_by_key(sorted));
    let bounds = splitters.bucket_boundaries(sorted);
    bounds.windows(2).map(|w| sorted[w[0]..w[1]].to_vec()).collect()
}

/// The zero-copy equivalent of [`partition_sorted`]: instead of cloning each
/// bucket into its own `Vec`, compute the [`ExchangePlan`] (per-destination
/// counts and displacements) describing where each bucket lives inside the
/// sorted slice itself.  The sorted data then serves directly as the flat
/// send buffer of `Machine::all_to_allv_flat`.
pub fn exchange_plan<T: Keyed>(sorted: &[T], splitters: &SplitterSet<T::K>) -> ExchangePlan {
    debug_assert!(crate::histogram::is_sorted_by_key(sorted));
    // Stamp the record width so the α-β accounting charges β-volume in
    // bytes of `T`, not in element counts (a 100-byte terasort record
    // costs 12.5× a u64 key).
    ExchangePlan::from_boundaries(&splitters.bucket_boundaries(sorted))
        .with_record_width(std::mem::size_of::<T>())
}

/// The plan that sends the bucket `bounds[b]..bounds[b + 1]` of a rank's
/// sorted data to rank `owner[b]` on a machine of `peers` ranks: the
/// generalisation of [`exchange_plan`] from "bucket `b` goes to rank `b`"
/// to any strictly ascending bucket→owner map (node-level buckets go to
/// their node's leader), so the buckets stay contiguous in owner order and
/// the sorted data is still the flat send buffer.  Non-owners get empty
/// runs; the record width is stamped as in [`exchange_plan`].
pub fn owner_plan<T>(bounds: &[usize], owner: &[usize], peers: usize) -> ExchangePlan {
    debug_assert_eq!(bounds.len(), owner.len() + 1, "one owner per bucket");
    debug_assert!(owner.windows(2).all(|w| w[0] < w[1]), "owners must ascend with the bucket");
    let mut counts = vec![0usize; peers];
    for (w, &dst) in bounds.windows(2).zip(owner) {
        counts[dst] = w[1] - w[0];
    }
    ExchangePlan::from_counts(counts).with_record_width(std::mem::size_of::<T>())
}

/// Partition *unsorted* local data into buckets.  Used when the algorithm
/// has not sorted its local data first (e.g. the over-partitioning
/// baseline's task queues).
///
/// Every key is classified **once** with a branch-free decision-tree
/// descend (four keys in flight); the per-bucket counts are assembled into
/// an [`ExchangePlan`] whose exact capacities are reserved before routing,
/// so no bucket `Vec` ever reallocates.  The historical implementation ran
/// one binary search per element *and* push-grew every bucket
/// (`O(n log p)` branchy compares plus realloc churn); bucket contents and
/// order are identical (regression-tested against that path).
pub fn partition_unsorted<T: Keyed>(data: &[T], splitters: &SplitterSet<T::K>) -> Vec<Vec<T>> {
    let tree = splitters.decision_tree();
    // Pass 1: classify every key (input order preserved).
    let ids = tree.bucket_indices(data);
    // Pre-count into an exchange plan and reserve exact capacities.
    let mut counts = vec![0usize; splitters.buckets()];
    for &b in &ids {
        counts[b as usize] += 1;
    }
    let plan = ExchangePlan::from_counts(counts);
    let mut buckets: Vec<Vec<T>> =
        (0..plan.peers()).map(|i| Vec::with_capacity(plan.run_range(i).len())).collect();
    // Pass 2: route.  Same relative order per bucket as per-element routing.
    for (item, &b) in data.iter().zip(&ids) {
        buckets[b as usize].push(item.clone());
    }
    buckets
}

/// Per-bucket counts without materialising the buckets (cheap load check).
pub fn bucket_counts<T: Keyed>(sorted: &[T], splitters: &SplitterSet<T::K>) -> Vec<u64> {
    let bounds = splitters.bucket_boundaries(sorted);
    bounds.windows(2).map(|w| (w[1] - w[0]) as u64).collect()
}

/// Position of a single splitter key inside a *sorted* slice: the index of
/// the first element with `key >= splitter`, i.e. where the bucket owned by
/// that splitter's right side begins.  This is the incremental unit of the
/// staged exchange (§4): as each splitter is finalized, every rank locates
/// it in its local data with one binary search, and once a bucket's two
/// bounding splitters are located the bucket can travel.
pub fn splitter_position<T: Keyed>(sorted: &[T], splitter: T::K) -> usize {
    debug_assert!(crate::histogram::is_sorted_by_key(sorted));
    sorted.partition_point(|x| x.key() < splitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitters::SplitterSet;

    #[test]
    fn partition_sorted_concatenates_back_to_input() {
        let data: Vec<u64> = vec![1, 3, 5, 7, 9, 11, 13];
        let s = SplitterSet::new(vec![4u64, 10]);
        let buckets = partition_sorted(&data, &s);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], vec![1, 3]);
        assert_eq!(buckets[1], vec![5, 7, 9]);
        assert_eq!(buckets[2], vec![11, 13]);
        let concat: Vec<u64> = buckets.into_iter().flatten().collect();
        assert_eq!(concat, data);
    }

    #[test]
    fn partition_unsorted_routes_like_bucket_of() {
        let data: Vec<u64> = vec![9, 1, 13, 5, 3, 11, 7];
        let s = SplitterSet::new(vec![4u64, 10]);
        let buckets = partition_unsorted(&data, &s);
        assert_eq!(buckets[0], vec![1, 3]);
        assert_eq!(buckets[1], vec![9, 5, 7]);
        assert_eq!(buckets[2], vec![13, 11]);
    }

    /// The historical `partition_unsorted`: per-element `bucket_of` routing
    /// into unreserved `Vec`s.  Kept as the regression oracle for the
    /// pre-counted decision-tree path.
    fn partition_unsorted_oracle<T: Keyed>(
        data: &[T],
        splitters: &SplitterSet<T::K>,
    ) -> Vec<Vec<T>> {
        let mut buckets: Vec<Vec<T>> = (0..splitters.buckets()).map(|_| Vec::new()).collect();
        for item in data {
            buckets[splitters.keys().partition_point(|s| *s <= item.key())].push(item.clone());
        }
        buckets
    }

    #[test]
    fn partition_unsorted_matches_the_old_per_element_path() {
        // Identical bucket contents AND order across bucket counts that
        // cross the tree's power-of-two pads, with duplicates on splitters.
        for m in [0usize, 1, 2, 3, 7, 8, 31, 64] {
            let splitters: Vec<u64> = (1..=m as u64).map(|i| i * 10).collect();
            let s = SplitterSet::new(splitters);
            let data: Vec<u64> = (0..700u64).map(|i| (i * 577) % (10 * m as u64 + 25)).collect();
            let got = partition_unsorted(&data, &s);
            let expect = partition_unsorted_oracle(&data, &s);
            assert_eq!(got, expect, "m = {m}");
            // Capacities are exact: no bucket over-allocates.
            for (i, b) in got.iter().enumerate() {
                assert_eq!(b.capacity(), b.len(), "bucket {i} over-allocated (m = {m})");
            }
            assert_eq!(got.iter().map(Vec::len).sum::<usize>(), data.len());
        }
    }

    #[test]
    fn partition_unsorted_routes_records_with_payloads_in_order() {
        use hss_keygen::Record;
        let data: Vec<Record> = [5u64, 1, 9, 5, 3, 5, 7]
            .iter()
            .enumerate()
            .map(|(i, &k)| Record { key: k, payload: i as u32 })
            .collect();
        let s = SplitterSet::new(vec![4u64, 5, 8]);
        let buckets = partition_unsorted(&data, &s);
        let expect = partition_unsorted_oracle(&data, &s);
        assert_eq!(buckets, expect);
        // Keys equal to splitter 5 all land right of it, in input order.
        assert_eq!(buckets[2].iter().map(|r| r.payload).collect::<Vec<_>>(), vec![0, 3, 5, 6],);
    }

    #[test]
    fn partition_sorted_allocates_exact_capacities() {
        // Allocation audit: every bucket is built with `to_vec` (exact) and
        // the outer vector collects from an exact-size iterator, so nothing
        // on this path ever grows by push.
        let data: Vec<u64> = (0..257).collect();
        let s = SplitterSet::new(vec![17u64, 100, 200]);
        let buckets = partition_sorted(&data, &s);
        assert_eq!(buckets.capacity(), buckets.len());
        for (i, b) in buckets.iter().enumerate() {
            assert_eq!(b.capacity(), b.len(), "bucket {i} over-allocated");
        }
    }

    #[test]
    fn empty_input_gives_empty_buckets() {
        let data: Vec<u64> = vec![];
        let s = SplitterSet::new(vec![4u64, 10]);
        assert!(partition_sorted(&data, &s).iter().all(|b| b.is_empty()));
        assert_eq!(bucket_counts(&data, &s), vec![0, 0, 0]);
    }

    #[test]
    fn keys_equal_to_splitter_go_right() {
        let data: Vec<u64> = vec![4, 4, 4];
        let s = SplitterSet::new(vec![4u64]);
        let buckets = partition_sorted(&data, &s);
        assert!(buckets[0].is_empty());
        assert_eq!(buckets[1], vec![4, 4, 4]);
    }

    #[test]
    fn exchange_plan_matches_partition_sorted() {
        let data: Vec<u64> = vec![1, 3, 5, 7, 9, 11, 13];
        let s = SplitterSet::new(vec![4u64, 10]);
        let plan = exchange_plan(&data, &s);
        let buckets = partition_sorted(&data, &s);
        assert_eq!(plan.peers(), buckets.len());
        assert_eq!(plan.total_elems(), data.len());
        assert_eq!(plan.record_width, std::mem::size_of::<u64>());
        for (i, b) in buckets.iter().enumerate() {
            assert_eq!(plan.run(&data, i), b.as_slice(), "bucket {i}");
        }
    }

    #[test]
    fn owner_plan_is_exchange_plan_under_the_identity_map_and_routes_to_leaders() {
        let data: Vec<u64> = vec![1, 3, 5, 7, 9, 11, 13];
        let s = SplitterSet::new(vec![4u64, 10]);
        let bounds = s.bucket_boundaries(&data);
        assert_eq!(owner_plan::<u64>(&bounds, &[0, 1, 2], 3), exchange_plan(&data, &s));
        // Three node buckets on a 6-rank machine with leaders 0, 2, 4.
        let plan = owner_plan::<u64>(&bounds, &[0, 2, 4], 6);
        assert_eq!(plan.counts, vec![2, 0, 3, 0, 2, 0]);
        assert_eq!(plan.run(&data, 2), &[5, 7, 9]);
        assert_eq!(plan.total_elems(), data.len());
    }

    #[test]
    fn splitter_position_matches_bucket_boundaries() {
        let data: Vec<u64> = vec![1, 3, 5, 7, 9, 11, 13];
        let s = SplitterSet::new(vec![4u64, 10]);
        let bounds = s.bucket_boundaries(&data);
        for (i, &k) in s.keys().iter().enumerate() {
            assert_eq!(splitter_position(&data, k), bounds[i + 1], "splitter {i}");
        }
        // Duplicates equal to the splitter stay to its right.
        assert_eq!(splitter_position(&[4u64, 4, 4], 4), 0);
        assert_eq!(splitter_position(&[] as &[u64], 4), 0);
    }

    #[test]
    fn bucket_counts_match_partition() {
        let data: Vec<u64> = (0..100).collect();
        let s = SplitterSet::new(vec![10u64, 40, 90]);
        let counts = bucket_counts(&data, &s);
        let buckets = partition_sorted(&data, &s);
        for (c, b) in counts.iter().zip(buckets.iter()) {
            assert_eq!(*c, b.len() as u64);
        }
        assert_eq!(counts.iter().sum::<u64>(), 100);
    }
}

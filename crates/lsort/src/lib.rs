//! `hss-lsort` — the in-place MSD radix local-sort subsystem.
//!
//! Every local hot path of the reproduction (the initial per-rank sort, the
//! root's sample sorts) historically funnelled
//! through `slice::sort_unstable()`.  The HSS cost model treats the local
//! sort as a fixed `O((N/p) log(N/p))` term, but once the exchange went flat
//! (PR 3) and overlapped (PR 4) the local phase dominates end-to-end wall
//! time — and for the integer keys the paper sorts (§6.2: 8-byte keys), a
//! byte-wise most-significant-digit radix sort beats any comparison sort
//! once the per-rank data outgrows the last-level cache.
//!
//! # Algorithm
//!
//! [`radix_sort`] is an in-place MSD radix sort in the IPS²Ra spirit
//! (in-place parallel super-scalar radix sort), specialised for the
//! sequential-per-rank setting:
//!
//! 1. **Prefix scan** — a running minimum and maximum find the bytes all
//!    items share, which are skipped, so low-entropy keys (power-law bodies,
//!    clustered Morton keys, narrow ranges) jump straight to the first
//!    distinguishing byte; the scan stops at the first block after which the
//!    current byte itself splits the items, so keys without a shared prefix
//!    pay for 64 items of it.  At the top-level entry a sortedness check
//!    comes first: already-sorted input returns immediately and
//!    strictly-descending input is reversed — the two degenerate shapes a
//!    pattern-defeating comparison sort wins big on.
//! 2. **Classification with software write buffers** — one linear scan
//!    reads the current byte (`256`-way digit) of every item and appends
//!    the item to its bucket's buffer ([`BLOCK`] items per bucket, the
//!    buffers together a cache-resident scratch area).  A full buffer is
//!    flushed as one *block* to the array's write head, which trails the
//!    read head — so every store is either to the hot scratch or part of a
//!    single streaming write, instead of 256 scattered write heads
//!    thrashing the TLB (the failure mode of the classic element-wise
//!    American-flag permutation at large `n`).
//! 3. **Block permutation** — after classification the array prefix is a
//!    sequence of homogeneous blocks (every item in a block shares the
//!    digit — the block's first item identifies its bucket).  A
//!    cycle-chasing pass at *block* granularity swaps each block directly
//!    into its bucket's block run (one write head per bucket, every move a
//!    sequential [`BLOCK`]-item swap).
//! 4. **Cleanup** — bucket block runs are shifted (descending, memmove) to
//!    their exact final boundaries and the partial buffers are appended, so
//!    bucket `d` ends up occupying precisely its final range.
//! 5. **Recursion / the cache-resident sub-level** — a bucket longer than
//!    the scratch (`256 *` [`BLOCK`] items) recurses through steps 1–4 on the
//!    next byte.  Any slice that fits the scratch — a bucket, or a whole
//!    input that short — is finished while it is L1/L2-resident, with no
//!    further allocation: one read pass counts its next *two* digits, two
//!    stable counting scatters (slice → scratch on the low digit, scratch →
//!    slice on the high one) order it by sixteen more bits, and one
//!    ascending scan looks for what is still out of order.  That can only be
//!    inside a run of equal two-digit prefixes, and each such run is sorted
//!    two levels down by the same pass, so no input goes quadratic.  Slices
//!    of at most [`COMPARISON_CUTOFF`] items finish with `sort_unstable`, of
//!    at most [`INSERTION_CUTOFF`] with an insertion sort, and a slice whose
//!    digits are exhausted is Ord-equal by the [`RadixSortable`] contract
//!    and needs no further work.
//!
//! Items wider than [`WIDE_ITEM_BYTES`] (terasort's 100-byte records, any
//! `WideRecord` shape from `hss-keygen`) never enter steps 1–5 themselves
//! (beyond [`INSERTION_CUTOFF`] items; fewer are insertion-sorted as they
//! are).  One pass over the slice writes a dense array of 16-byte *tags* —
//! the record's first eight digits packed into a `u64`
//! ([`RadixSortable::radix_prefix`], the same integer the k-way merge
//! caches per run) and its `u32` position — and notices already-sorted or
//! strictly-descending input on the way.  The tags are narrow items and go
//! through steps 1–5.  A run of tags whose prefixes tie is then put in the
//! records' full [`Ord`]: a short run by comparing the records it indexes,
//! a long one by re-tagging it with the next eight digits and going round
//! again.  Only then do the records move, streaming on one side: a gather
//! through the sorted tags into a spill buffer.  [`radix_sort_vec`] (the
//! rank's local sort) hands that buffer back as the sorted vector, so the
//! records move once; [`radix_sort`] over a borrowed slice copies it back.
//! A sort allocates the tags (16 B per record) and that one spill,
//! whatever the depth.
//!
//! [`par_radix_sort`] parallelises the recursion on the vendored rayon
//! pool: the top-level pass runs sequentially (its single trailing write
//! head is what makes it fast), then the top-level buckets are sorted
//! concurrently via [`rayon::scope`].  Buckets are disjoint sub-slices and
//! every sub-sort is deterministic, so the output is **bitwise identical**
//! at every thread count — under `RAYON_NUM_THREADS=1` the pool degrades
//! to fully sequential execution at the spawn sites.  Wide items take the
//! same route as in the sequential sort with each stage after the tagging
//! pass spread over the pool: the tags are sorted by [`par_radix_sort`],
//! equal-prefix runs are ordered in one task per thread, and the spill
//! buffer is gathered in chunks.
//!
//! # The `RadixSortable` contract
//!
//! An item is radix-sortable when its total order equals the
//! lexicographic order of a fixed-length big-endian digit string
//! ([`RadixSortable::radix_byte`]), and digit-string equality implies
//! [`Ord`] equality.  Items must be [`Copy`]: the classification stages
//! them through the software write buffers (radix sorting is for small
//! plain-old-data records).  Implementations are provided here for the
//! primitive integers (signed via the sign-flip bias) and for pairs; the
//! key-carrier types of the reproduction (`Record`, `TaggedKey`,
//! `OrderedF64`, `Tagged`) implement it in their own crates.
//!
//! # Choosing an algorithm
//!
//! [`LocalSortAlgo`] is the knob the sorters thread through their configs:
//! [`LocalSortAlgo::Comparison`] is `sort_unstable` (the historical
//! behaviour and the differential-testing oracle), [`LocalSortAlgo::Radix`]
//! is [`radix_sort`] and the default — a constant, so no process-global
//! input can change what a library call charges.  Both algorithms produce
//! bitwise-identical sorted slices for every totally ordered item type in
//! this repository (`tests/lsort_differential.rs` is the oracle); they
//! differ only in host wall-clock time and in the modelled cost the
//! simulator charges.

#![warn(missing_docs)]

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Items per software write buffer and per permuted block: 64 eight-byte
/// keys is 512 B — big enough to amortise the flush and block-swap
/// overheads, small enough that the 256 buffers stay cache-resident.
pub const BLOCK: usize = 64;

/// Buckets of at most this many items are finished with insertion sort.
pub const INSERTION_CUTOFF: usize = 32;

/// Slices of at most this many items are finished with `sort_unstable`
/// instead of the two-digit counting pass, whose 512 counters then cost more
/// to clear and sum than the items to scatter: on uniform `u64` the
/// comparison sort leads by 10 % at 80 items and trails by about as much
/// at 96, by 25 % at 128 and by 2x from 512.
pub const COMPARISON_CUTOFF: usize = 96;

/// Below this length [`par_radix_sort`] does not bother parallelising.
const PAR_MIN_LEN: usize = 1 << 15;

/// Items wider than this many bytes are sorted as `(prefix, index)` tags and
/// gathered once instead of going through the block permutation
/// themselves: a 100-byte terasort record would blow the software write
/// buffers out of cache (256 × [`BLOCK`] × 100 B = 1.6 MB), and every level
/// of classification, block swap and base-case comparison sort would move
/// the whole record again.  The threshold is comfortably above every narrow
/// key-carrier in this repository (`u64` = 8 B, `Record` = 16 B,
/// `TaggedKey<u64>` = 16 B), so their hot paths are untouched.
pub const WIDE_ITEM_BYTES: usize = 32;

/// Longest run of equal-prefix tags that [`order_equal_prefixes`] orders by
/// comparing the records it indexes; a longer run is re-tagged and
/// radix-sorted instead.
const TIE_COMPARE_MAX: usize = 2048;

/// Whether `T` is sorted through tags.
const fn is_wide<T>() -> bool {
    std::mem::size_of::<T>() > WIDE_ITEM_BYTES
}

/// Which algorithm a local (per-rank, shared-memory) sort uses.
///
/// Selected by `HssConfig::local_sort` and the baselines' config structs;
/// recorded in every `SortReport`.  The two variants are host-side
/// implementations of the *same* mathematical operation: sorted output and
/// everything downstream (samples, probes, splitters, exchange, merge) are
/// bitwise identical — only the host wall-clock time and the modelled
/// local-sort cost differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalSortAlgo {
    /// `slice::sort_unstable` (pdqsort/ipnsort): the historical behaviour,
    /// kept as the differential-testing oracle.  Modelled as `n log2 n`
    /// compare ops.
    Comparison,
    /// In-place MSD radix sort ([`radix_sort`]): byte-wise classification
    /// into software write buffers, in-place block permutation, a
    /// two-digit counting pass for cache-resident slices, insertion and
    /// small-comparison base cases.  Modelled as `2n` ops (one
    /// classify read + one permute move) per byte pass.  The default.
    #[default]
    Radix,
}

impl LocalSortAlgo {
    /// Parse `comparison` / `radix` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "comparison" => Some(LocalSortAlgo::Comparison),
            "radix" => Some(LocalSortAlgo::Radix),
            _ => None,
        }
    }

    /// Stable name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            LocalSortAlgo::Comparison => "comparison",
            LocalSortAlgo::Radix => "radix",
        }
    }

    /// Sort `data` in place with the selected algorithm (sequential).
    pub fn sort_slice<T: RadixSortable>(self, data: &mut [T]) {
        match self {
            LocalSortAlgo::Comparison => data.sort_unstable(),
            LocalSortAlgo::Radix => radix_sort(data),
        }
    }

    /// [`sort_slice`](Self::sort_slice) of a whole vector, which the radix
    /// sort may replace rather than fill ([`radix_sort_vec`]).
    pub fn sort_vec<T: RadixSortable>(self, data: &mut Vec<T>) {
        match self {
            LocalSortAlgo::Comparison => data.sort_unstable(),
            LocalSortAlgo::Radix => radix_sort_vec(data),
        }
    }
}

impl std::fmt::Display for LocalSortAlgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An item sortable by byte-wise MSD radix.
///
/// # Contract
///
/// For all items `a`, `b`:
///
/// * `a.cmp(&b)` equals the lexicographic comparison of the digit strings
///   `(a.radix_byte(0), …, a.radix_byte(RADIX_BYTES - 1))` and likewise for
///   `b` — i.e. the digits are a big-endian, order-preserving encoding;
/// * equal digit strings imply `a == b` under [`Ord`] (the digits exhaust
///   the order), so a bucket whose digits ran out needs no further work;
/// * `a.cmp(&b) == Equal` implies `a` and `b` are identical in every
///   field: the order has no ties between distinguishable values.
///
/// [`radix_sort`] relies on the first two; violating them produces
/// incorrectly sorted output, never memory unsafety.  The third is what
/// makes every sort of a multiset produce the same bits, so that the k-way
/// merge may finish its runs by re-sorting them (`hss-partition`'s
/// `finish_arm`) and a stable merge and an unstable sort agree.  A carrier
/// whose `Ord` ignores a field breaks it: its ties would come out in
/// whatever order the arm that ran leaves them.
pub trait RadixSortable: Ord + Copy {
    /// Number of digit (byte) levels; also the pass count the cost model
    /// charges for a radix sort of this type.
    const RADIX_BYTES: usize;

    /// The digit at `level` (0 = most significant byte).
    ///
    /// Must only be called with `level < Self::RADIX_BYTES`.
    fn radix_byte(&self, level: usize) -> u8;

    /// The `min(8, RADIX_BYTES - level)` digits from `level` on, packed
    /// big-endian and left-aligned (missing digits read as zero).  Among
    /// items that agree on every digit before `level`,
    /// `a < b ⇒ a.radix_prefix(level) <= b.radix_prefix(level)`, and when at
    /// most eight digits remain equal prefixes mean `a == b`: the one
    /// integer both the k-way merge's tournament nodes and the wide local
    /// sort's tags compare instead of the item.
    #[inline]
    fn radix_prefix(&self, level: usize) -> u64 {
        let mut prefix = 0u64;
        for (slot, l) in (level..Self::RADIX_BYTES.min(level + 8)).enumerate() {
            prefix |= (self.radix_byte(l) as u64) << (56 - 8 * slot);
        }
        prefix
    }
}

macro_rules! impl_radix_unsigned {
    ($($t:ty),*) => {
        $(impl RadixSortable for $t {
            const RADIX_BYTES: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn radix_byte(&self, level: usize) -> u8 {
                (*self >> (8 * (Self::RADIX_BYTES - 1 - level))) as u8
            }
        })*
    };
}

impl_radix_unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_radix_signed {
    ($(($t:ty, $u:ty)),*) => {
        $(impl RadixSortable for $t {
            const RADIX_BYTES: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn radix_byte(&self, level: usize) -> u8 {
                // Flip the sign bit: maps the signed order onto the
                // unsigned byte-lexicographic order.
                let biased = (*self as $u) ^ (1 << (8 * Self::RADIX_BYTES - 1));
                (biased >> (8 * (Self::RADIX_BYTES - 1 - level))) as u8
            }
        })*
    };
}

impl_radix_signed!((i8, u8), (i16, u16), (i32, u32), (i64, u64), (i128, u128), (isize, usize));

/// Pairs sort lexicographically, so their digit string is the
/// concatenation of the components' digit strings.  Used by the splitter
/// machinery to radix-sort key-interval lists `(lo, hi)`.
impl<A: RadixSortable, B: RadixSortable> RadixSortable for (A, B) {
    const RADIX_BYTES: usize = A::RADIX_BYTES + B::RADIX_BYTES;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        if level < A::RADIX_BYTES {
            self.0.radix_byte(level)
        } else {
            self.1.radix_byte(level - A::RADIX_BYTES)
        }
    }
}

/// In-place MSD radix sort (sequential).  See the crate docs for the
/// algorithm; `data` ends up exactly as `data.sort_unstable()` would leave
/// it (both orders are total, and equal items are indistinguishable).
pub fn radix_sort<T: RadixSortable>(data: &mut [T]) {
    // Past the insertion sort a wide slice goes through tags at every
    // length: up to `COMPARISON_CUTOFF` the tags' own base case comparison-
    // sorts 16-byte tags where this one would shuffle whole records.
    if is_wide::<T>() && data.len() > INSERTION_CUTOFF {
        if let Some(sorted) = gather_wide(data) {
            data.copy_from_slice(&sorted);
        }
        return;
    }
    // Small inputs (notably the splitter machinery's sample sorts) take
    // the base cases directly, without touching the scratch allocation.
    if base_case(data) || settle_monotone(data) {
        return;
    }
    let mut scratch = alloc_scratch(data);
    sort_rec(data, 0, &mut scratch);
}

/// [`radix_sort`] of a whole vector: a wide vector is replaced by the
/// gathered copy instead of having it copied back, so its records move
/// once (a `copy_from_slice` of 100-byte records cost ~9 ns a record).
pub fn radix_sort_vec<T: RadixSortable>(data: &mut Vec<T>) {
    if is_wide::<T>() && data.len() > INSERTION_CUTOFF {
        if let Some(sorted) = gather_wide(data) {
            *data = sorted;
        }
        return;
    }
    radix_sort(data);
}

/// Sort a wide slice's tags and gather its records in order into a new
/// vector — `None` if tagging found the slice in order (or reversed it in
/// place), with nothing left to move.
fn gather_wide<T: RadixSortable>(data: &mut [T]) -> Option<Vec<T>> {
    let mut tags = tag_records(data)?;
    radix_sort(&mut tags);
    order_equal_prefixes(&mut tags, data, 0);
    Some(tags.iter().map(|t| data[t.index as usize]).collect())
}

/// The scratch of a sort of `data`: the write buffers of the block
/// permutation (`256 * BLOCK` items), or — for a slice short enough to fit
/// them — just the `data.len()` items the counting sub-level
/// ([`sort_resident`]) scatters through.
fn alloc_scratch<T: RadixSortable>(data: &[T]) -> Vec<T> {
    vec![data[0]; data.len().min(256 * BLOCK)]
}

/// [`radix_sort`] with the bucket recursion parallelised on the vendored
/// rayon pool: the top-level classification + block permutation runs
/// sequentially (its single trailing write head is what makes it
/// cache-efficient), then the up-to-256 top-level buckets are sorted
/// concurrently via [`rayon::scope`].  A task's scratch holds its bucket,
/// or the write buffers when the bucket is longer than they are; a bucket
/// short enough for the base cases allocates none.  Wide items are tagged
/// once and the tag sort, the tie ordering and the gather run on the pool
/// (see the crate docs).  Falls back to the sequential sort on one-thread
/// pools or short inputs; output is bitwise identical at every thread count.
pub fn par_radix_sort<T: RadixSortable + Send + Sync>(data: &mut [T]) {
    let n = data.len();
    if rayon::current_num_threads() <= 1 || n < PAR_MIN_LEN {
        radix_sort(data);
        return;
    }
    if is_wide::<T>() {
        let Some(mut tags) = tag_records(data) else { return };
        par_radix_sort(&mut tags);
        // One task per thread; a chunk ends where the prefix changes, so no
        // run of equal prefixes is split between two tasks.
        let chunk = n.div_ceil(rayon::current_num_threads());
        let records: &[T] = data;
        rayon::scope(|s| {
            let mut rest: &mut [Tag] = &mut tags;
            while !rest.is_empty() {
                let mut cut = chunk.min(rest.len());
                while cut < rest.len() && rest[cut].prefix == rest[cut - 1].prefix {
                    cut += 1;
                }
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(cut);
                rest = tail;
                s.spawn(move |_| order_equal_prefixes(head, records, 0));
            }
        });
        let spill: Vec<T> = tags.par_iter().map(|tag| records[tag.index as usize]).collect();
        data.copy_from_slice(&spill);
        return;
    }
    if settle_monotone(data) {
        return;
    }
    let Some(level) = first_distinguishing_level(data, 0) else { return };
    let mut scratch = alloc_scratch(data);
    let bounds = partition_level(data, level, &mut scratch);
    rayon::scope(|s| {
        let mut rest: &mut [T] = data;
        for width in bounds.windows(2).map(|w| w[1] - w[0]) {
            let (bucket, tail) = std::mem::take(&mut rest).split_at_mut(width);
            rest = tail;
            if width > 1 {
                s.spawn(move |_| {
                    if !base_case(bucket) {
                        let mut scratch = alloc_scratch(bucket);
                        sort_rec(bucket, level + 1, &mut scratch);
                    }
                });
            }
        }
    });
}

/// Finish `data` directly when it is small: insertion sort up to
/// [`INSERTION_CUTOFF`], `sort_unstable` up to [`COMPARISON_CUTOFF`].
/// Returns whether the slice was handled.
fn base_case<T: RadixSortable>(data: &mut [T]) -> bool {
    let n = data.len();
    if n <= INSERTION_CUTOFF {
        insertion_sort(data);
        true
    } else if n <= COMPARISON_CUTOFF {
        data.sort_unstable();
        true
    } else {
        false
    }
}

/// The sortedness pre-scan of the two public sorters, mirroring the
/// pattern-defeating comparison sort's best cases: ascending input is done,
/// strictly-descending input is a reversal.  Returns whether the slice was
/// handled.  It aborts at the first unsorted pair, so its cost on unsorted
/// input is a handful of comparisons.
fn settle_monotone<T: RadixSortable>(data: &mut [T]) -> bool {
    let n = data.len();
    let mut i = 1;
    while i < n && data[i - 1] <= data[i] {
        i += 1;
    }
    if i == n {
        return true;
    }
    if i == 1 {
        let mut j = 1;
        while j < n && data[j - 1] > data[j] {
            j += 1;
        }
        if j == n {
            data.reverse();
            return true;
        }
    }
    false
}

/// The first level from `level` on at which two items of the non-empty
/// `data` differ, so a classification there splits into at least two
/// buckets; `None` when the digit string is exhausted — the items are
/// Ord-equal by the trait contract and nothing is left to order.  A running
/// minimum and maximum decide it, and the pass stops at the first block
/// after which they differ at `level` itself: only a slice whose items do
/// share a digit is read to the end.
fn first_distinguishing_level<T: RadixSortable>(data: &[T], level: usize) -> Option<usize> {
    if level >= T::RADIX_BYTES {
        return None;
    }
    let (mut lo, mut hi) = (data[0], data[0]);
    for block in data.chunks(BLOCK) {
        for &x in block {
            if x < lo {
                lo = x;
            } else if x > hi {
                hi = x;
            }
        }
        if lo.radix_byte(level) != hi.radix_byte(level) {
            return Some(level);
        }
    }
    (level + 1..T::RADIX_BYTES).find(|&l| lo.radix_byte(l) != hi.radix_byte(l))
}

/// Recursive MSD step over items that agree on every digit before `level`.
/// A slice that fits the scratch is finished by [`sort_resident`]; a longer
/// one skips the bytes all its items share, classifies on the first that
/// splits it and recurses into the buckets, so the recursion depth is
/// bounded by `T::RADIX_BYTES`.  `scratch` holds `256 * BLOCK` items, or at
/// least `data.len()`.
fn sort_rec<T: RadixSortable>(data: &mut [T], level: usize, scratch: &mut [T]) {
    if data.len() <= scratch.len() {
        return sort_resident(data, level, scratch);
    }
    let Some(level) = first_distinguishing_level(data, level) else { return };
    let bounds = partition_level(data, level, scratch);
    let mut rest: &mut [T] = data;
    for width in bounds.windows(2).map(|w| w[1] - w[0]) {
        let (bucket, tail) = std::mem::take(&mut rest).split_at_mut(width);
        rest = tail;
        if width > 1 {
            sort_rec(bucket, level + 1, scratch);
        }
    }
}

/// Stable counting scatter of `src` into `dst[..src.len()]` by digit
/// `level`, whose occurrences in `src` are `counts`.
fn scatter_by_digit<T: RadixSortable>(
    src: &[T],
    dst: &mut [T],
    level: usize,
    counts: &[usize; 256],
) {
    let mut heads = [0usize; 256];
    let mut sum = 0;
    for (head, count) in heads.iter_mut().zip(counts) {
        *head = sum;
        sum += count;
    }
    for &x in src {
        let head = &mut heads[x.radix_byte(level) as usize];
        dst[*head] = x;
        *head += 1;
    }
}

/// The sub-level: finish a slice that fits the scratch, and with it the
/// cache, whose items agree on every digit before `level`.
///
/// After the shared digits are skipped, one read pass counts the next two
/// digits and two counting scatters — slice to scratch on the low digit,
/// scratch to slice on the high one, whose stability keeps the low digit's
/// order — leave the slice ordered by sixteen more bits; a last digit
/// standing alone takes one scatter and a copy back.  What is still out of order can only sit inside a run of items
/// with equal two-digit prefixes, so one ascending scan finds each run that
/// holds an inversion and sorts it two levels down: through [`base_case`]
/// when it is short, by the same pass when it is not, so no input costs
/// more than `O(n)` per digit.
fn sort_resident<T: RadixSortable>(data: &mut [T], level: usize, scratch: &mut [T]) {
    if base_case(data) {
        return;
    }
    let n = data.len();
    let Some(level) = first_distinguishing_level(data, level) else { return };
    let low = (level + 1).min(T::RADIX_BYTES - 1);
    let mut counts = [[0usize; 256]; 2];
    for x in data.iter() {
        counts[0][x.radix_byte(level) as usize] += 1;
        counts[1][x.radix_byte(low) as usize] += 1;
    }
    if low == level {
        scatter_by_digit(data, scratch, level, &counts[0]);
        data.copy_from_slice(&scratch[..n]);
        return;
    }
    scatter_by_digit(data, scratch, low, &counts[1]);
    scatter_by_digit(&scratch[..n], data, level, &counts[0]);

    let next = low + 1;
    if next == T::RADIX_BYTES {
        return;
    }
    let prefix = |x: &T| (x.radix_byte(level), x.radix_byte(low));
    let mut i = 1;
    while i < n {
        if data[i - 1] <= data[i] {
            i += 1;
            continue;
        }
        let tied = prefix(&data[i]);
        let start = data[..i].iter().rposition(|x| prefix(x) != tied).map_or(0, |p| p + 1);
        let end = data[i..].iter().position(|x| prefix(x) != tied).map_or(n, |p| i + p);
        sort_resident(&mut data[start..end], next, scratch);
        // `data[end]` starts another prefix, so it is in order with its
        // left neighbour.
        i = end + 1;
    }
}

/// One full MSD level over `data` at `level`: classification through the
/// software write buffers, in-place block permutation, boundary cleanup.
/// Returns the 257 bucket boundaries.  `scratch` must hold `256 * BLOCK`
/// items; its contents are arbitrary on entry and exit.
fn partition_level<T: RadixSortable>(
    data: &mut [T],
    level: usize,
    scratch: &mut [T],
) -> [usize; 257] {
    let n = data.len();
    debug_assert!(n > BLOCK, "partition_level needs more than one block");
    assert!(scratch.len() >= 256 * BLOCK, "the write buffers are indexed unchecked");

    // --- Classification: append each item to its bucket's buffer; flush
    // full buffers as blocks to the trailing write head. -------------------
    let mut buf_len = [0usize; 256];
    let mut write = 0usize;
    // SAFETY: `read < n` indexes `data` in bounds.  `d < 256` (a `u8`
    // digit), `bl < BLOCK` (reset on flush), so `d * BLOCK + bl <
    // 256 * BLOCK <= scratch.len()`.  The flush target
    // `data[write .. write + BLOCK]` is in bounds and disjoint from the
    // scratch: after consuming `read + 1` items the buffers hold
    // `read + 1 - write` of them, and a flush requires `BLOCK` buffered
    // items, so `write + BLOCK <= read + 1 <= n` — it only overwrites
    // already-consumed positions.  All accessed items are `Copy`.
    unsafe {
        let dp = data.as_mut_ptr();
        let sp = scratch.as_mut_ptr();
        for read in 0..n {
            let x = *dp.add(read);
            let d = x.radix_byte(level) as usize;
            let bl = *buf_len.get_unchecked(d);
            *sp.add(d * BLOCK + bl) = x;
            if bl + 1 == BLOCK {
                std::ptr::copy_nonoverlapping(sp.add(d * BLOCK), dp.add(write), BLOCK);
                write += BLOCK;
                *buf_len.get_unchecked_mut(d) = 0;
            } else {
                *buf_len.get_unchecked_mut(d) = bl + 1;
            }
        }
    }

    // --- Block bookkeeping: every flushed block is homogeneous, so its
    // first item names its bucket; bucket totals follow from block counts
    // plus buffer leftovers. ------------------------------------------------
    let nblocks = write / BLOCK;
    let mut fcount = [0usize; 256];
    for b in 0..nblocks {
        fcount[data[b * BLOCK].radix_byte(level) as usize] += 1;
    }
    let mut fstart = [0usize; 257];
    let mut bounds = [0usize; 257];
    for d in 0..256 {
        fstart[d + 1] = fstart[d] + fcount[d];
        bounds[d + 1] = bounds[d] + fcount[d] * BLOCK + buf_len[d];
    }

    // --- Block permutation: cycle-chase whole blocks into per-bucket block
    // runs (American flag at block granularity). ----------------------------
    let mut heads = fstart;
    // SAFETY: slot indices stay below `nblocks` (each bucket's head is
    // bounded by its `fstart` range and every `heads[g]` increment
    // corresponds to one of the `fcount[g]` blocks of bucket `g`), so all
    // block offsets are within `data[..write]`.  A swap's two slots are
    // distinct (`g != d` implies `heads[g] != slot` since slot holds a
    // non-`g` block), hence the `swap_nonoverlapping` ranges are disjoint.
    unsafe {
        let dp = data.as_mut_ptr();
        for d in 0..256 {
            let end = fstart[d + 1];
            while heads[d] < end {
                let slot = heads[d];
                let g = (*dp.add(slot * BLOCK)).radix_byte(level) as usize;
                if g == d {
                    heads[d] += 1;
                } else {
                    let target = heads[g];
                    std::ptr::swap_nonoverlapping(
                        dp.add(slot * BLOCK),
                        dp.add(target * BLOCK),
                        BLOCK,
                    );
                    heads[g] += 1;
                }
            }
        }
    }

    // --- Cleanup: shift each bucket's block run from its packed position
    // to its final boundary (descending, so later buckets are already out
    // of the way) and append the buffered leftovers. ------------------------
    for d in (0..256).rev() {
        let blk_items = fcount[d] * BLOCK;
        let src = fstart[d] * BLOCK;
        let dst = bounds[d];
        if blk_items > 0 && src != dst {
            data.copy_within(src..src + blk_items, dst);
        }
        let l = buf_len[d];
        if l > 0 {
            data[dst + blk_items..dst + blk_items + l]
                .copy_from_slice(&scratch[d * BLOCK..d * BLOCK + l]);
        }
    }
    bounds
}

/// A wide record as the narrow path sees it: eight of its digits and where
/// it sits.  Tags order by `prefix` alone, so their digit string is the
/// prefix's eight bytes; what a prefix leaves undecided is settled by
/// [`order_equal_prefixes`].
#[derive(Debug, Clone, Copy)]
struct Tag {
    prefix: u64,
    index: u32,
}

impl PartialEq for Tag {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
    }
}

impl Eq for Tag {}

impl PartialOrd for Tag {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tag {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prefix.cmp(&other.prefix)
    }
}

impl RadixSortable for Tag {
    const RADIX_BYTES: usize = 8;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        self.prefix.radix_byte(level)
    }
}

/// Tag every record of a wide slice with its first eight digits and its
/// position, deciding in the same pass whether the slice is already in
/// order (nothing to do) or strictly descending (reversed in place) — `None`
/// either way.  Neighbours compare by prefix; the full [`Ord`] runs only
/// where two prefixes tie.
///
/// A tag indexes with a `u32`: a slice of more than `u32::MAX` records
/// (400 GB of terasort records on one rank) cannot be tagged and is handed
/// to `sort_unstable` instead — also `None`.
fn tag_records<T: RadixSortable>(data: &mut [T]) -> Option<Vec<Tag>> {
    let Ok(n) = u32::try_from(data.len()) else {
        data.sort_unstable();
        return None;
    };
    let mut tags: Vec<Tag> = Vec::with_capacity(data.len());
    let (mut ascending, mut descending) = (true, true);
    for (index, x) in (0..n).zip(data.iter()) {
        let prefix = x.radix_prefix(0);
        if let Some(prev) = tags.last() {
            let order = prev.prefix.cmp(&prefix).then_with(|| data[prev.index as usize].cmp(x));
            ascending &= order.is_le();
            descending &= order.is_gt();
        }
        tags.push(Tag { prefix, index });
    }
    if descending && !ascending {
        data.reverse();
    }
    (!ascending && !descending).then_some(tags)
}

/// Finish tags already sorted by the eight digits from `level`: every run of
/// equal prefixes is put in the full [`Ord`] of the records it indexes.
/// Runs of up to [`TIE_COMPARE_MAX`] tags are comparison-sorted through the
/// index; a longer one is re-tagged with the next eight digits and goes
/// round again, so keys that share long leading bytes stay on the radix
/// path.  Records whose digits are exhausted are Ord-equal by the trait
/// contract.
fn order_equal_prefixes<T: RadixSortable>(tags: &mut [Tag], records: &[T], level: usize) {
    let next = level + 8;
    if next >= T::RADIX_BYTES {
        return;
    }
    let mut rest = tags;
    while let Some(&Tag { prefix, .. }) = rest.first() {
        let len = rest.iter().take_while(|t| t.prefix == prefix).count();
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        if len <= TIE_COMPARE_MAX {
            run.sort_unstable_by(|a, b| records[a.index as usize].cmp(&records[b.index as usize]));
        } else {
            for tag in run.iter_mut() {
                tag.prefix = records[tag.index as usize].radix_prefix(next);
            }
            radix_sort(run);
            order_equal_prefixes(run, records, next);
        }
    }
}

/// Plain insertion sort on the full [`Ord`] (shift variant: hold the item,
/// shift the run right, write once); the base case under
/// [`INSERTION_CUTOFF`].
fn insertion_sort<T: RadixSortable>(v: &mut [T]) {
    for i in 1..v.len() {
        let key = v[i];
        let mut j = i;
        while j > 0 && key < v[j - 1] {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
        let mut r = v.to_vec();
        r.sort_unstable();
        r
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        // SplitMix64: deterministic, no external deps.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn sorts_random_u64_across_size_regimes() {
        // Exercise every base case and the buffered path: insertion,
        // small comparison, single level, multi level with blocks.
        for n in [
            0usize,
            1,
            2,
            INSERTION_CUTOFF,
            INSERTION_CUTOFF + 1,
            COMPARISON_CUTOFF,
            COMPARISON_CUTOFF + 1,
            BLOCK * 256,
            20_000,
            150_000,
        ] {
            let v = pseudo_random(n, n as u64 + 1);
            let mut got = v.clone();
            radix_sort(&mut got);
            assert_eq!(got, reference_sorted(&v), "n = {n}");
        }
    }

    #[test]
    fn sorts_adversarial_shapes() {
        let n = 60_000usize;
        let shapes: Vec<(&str, Vec<u64>)> = vec![
            ("sorted", (0..n as u64).collect()),
            ("reverse", (0..n as u64).rev().collect()),
            ("all_equal", vec![42; n]),
            ("few_distinct", (0..n as u64).map(|i| i % 3).collect()),
            ("narrow_range", (0..n as u64).map(|i| 1_000_000 + (i * 7919) % 255).collect()),
            ("high_bytes_only", (0..n as u64).map(|i| (i % 256) << 56).collect()),
            ("sawtooth", (0..n as u64).map(|i| i % 64).collect()),
            ("clustered", pseudo_random(n, 9).iter().map(|x| (x & 0xFFFF) | 0xAB00_0000).collect()),
            ("mostly_sorted", {
                let mut v: Vec<u64> = (0..n as u64).collect();
                v[n / 2] = 0;
                v
            }),
        ];
        for (name, v) in shapes {
            let mut got = v.clone();
            radix_sort(&mut got);
            assert_eq!(got, reference_sorted(&v), "{name}");
        }
    }

    #[test]
    fn sorts_signed_and_small_ints() {
        let v: Vec<i64> = (0..50_000).map(|i| ((i * 7919) % 10_000) - 5_000).collect();
        let mut got = v.clone();
        radix_sort(&mut got);
        assert_eq!(got, reference_sorted(&v));

        let v: Vec<i8> = (0..300).map(|i| ((i * 31) % 256) as u8 as i8).collect();
        let mut got = v.clone();
        radix_sort(&mut got);
        assert_eq!(got, reference_sorted(&v));

        let v: Vec<u16> = (0..40_000).map(|i| ((i * 48_271) % 65_536) as u16).collect();
        let mut got = v.clone();
        radix_sort(&mut got);
        assert_eq!(got, reference_sorted(&v));
    }

    #[test]
    fn sorts_pairs_lexicographically() {
        let v: Vec<(u64, u64)> =
            (0..30_000).map(|i| ((i * 7919) % 50, (i * 104_729) % 1000)).collect();
        let mut got = v.clone();
        radix_sort(&mut got);
        assert_eq!(got, reference_sorted(&v));
    }

    #[test]
    fn signed_radix_bytes_preserve_order() {
        // The digit string must be order-preserving end to end: check via
        // exhaustive pairs over a sample grid.
        let samples: Vec<i16> = vec![i16::MIN, -1000, -1, 0, 1, 1000, i16::MAX];
        for &a in &samples {
            for &b in &samples {
                let da = [a.radix_byte(0), a.radix_byte(1)];
                let db = [b.radix_byte(0), b.radix_byte(1)];
                assert_eq!(a.cmp(&b), da.cmp(&db), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn partition_level_produces_exact_bucket_ranges() {
        let n = 50_000usize;
        let v = pseudo_random(n, 3);
        let mut data = v.clone();
        let mut scratch = vec![0u64; 256 * BLOCK];
        let bounds = partition_level(&mut data, 0, &mut scratch);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[256], n);
        // Same multiset, and every item sits inside its digit's range.
        assert_eq!(reference_sorted(&data), reference_sorted(&v));
        for d in 0..256 {
            for &x in &data[bounds[d]..bounds[d + 1]] {
                assert_eq!(x.radix_byte(0) as usize, d);
            }
        }
    }

    #[test]
    fn first_distinguishing_level_skips_exactly_the_shared_digits() {
        let n = 10 * BLOCK;
        // The first digit already splits the items: decided in one block.
        assert_eq!(first_distinguishing_level(&pseudo_random(n, 1), 0), Some(0));
        // Shared digits are skipped, wherever the odd item sits.
        let mut v = vec![0xAB00_0000_0000_0000u64; n];
        assert_eq!(first_distinguishing_level(&v, 0), None);
        v[n - 1] |= 0x0100;
        assert_eq!(first_distinguishing_level(&v, 0), Some(6));
        assert_eq!(first_distinguishing_level(&v, 6), Some(6));
        // Digits before `level` are the caller's business, and past the last
        // there is nothing to find.
        assert_eq!(first_distinguishing_level(&v, 7), None);
        assert_eq!(first_distinguishing_level(&v, 8), None);
    }

    #[test]
    fn par_radix_sort_matches_sequential_bitwise() {
        // Under the test harness the pool defaults to the host's threads
        // (or RAYON_NUM_THREADS); the result must be identical either way.
        let v = pseudo_random(PAR_MIN_LEN * 2, 99);
        let mut seq = v.clone();
        radix_sort(&mut seq);
        let mut par = v.clone();
        par_radix_sort(&mut par);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_radix_sort_short_and_degenerate_inputs() {
        let v = pseudo_random(100, 3);
        let mut got = v.clone();
        par_radix_sort(&mut got);
        assert_eq!(got, reference_sorted(&v));

        let mut sorted: Vec<u64> = (0..PAR_MIN_LEN as u64 * 2).collect();
        let snapshot = sorted.clone();
        par_radix_sort(&mut sorted);
        assert_eq!(sorted, snapshot);

        let mut rev: Vec<u64> = (0..PAR_MIN_LEN as u64 * 2).rev().collect();
        par_radix_sort(&mut rev);
        assert_eq!(rev, snapshot);

        let mut equal = vec![7u64; PAR_MIN_LEN * 2];
        par_radix_sort(&mut equal);
        assert!(equal.iter().all(|&x| x == 7));
    }

    #[test]
    fn algo_dispatch_and_parsing() {
        assert_eq!(LocalSortAlgo::parse("radix"), Some(LocalSortAlgo::Radix));
        assert_eq!(LocalSortAlgo::parse("Comparison"), Some(LocalSortAlgo::Comparison));
        assert_eq!(LocalSortAlgo::parse("bogus"), None);
        assert_eq!(LocalSortAlgo::Radix.name(), "radix");
        assert_eq!(LocalSortAlgo::Comparison.to_string(), "comparison");

        let v = pseudo_random(5_000, 7);
        for algo in [LocalSortAlgo::Comparison, LocalSortAlgo::Radix] {
            let mut got = v.clone();
            algo.sort_slice(&mut got);
            assert_eq!(got, reference_sorted(&v), "{algo}");
        }
    }

    /// A 40-byte item: wide enough to be sorted through tags, with the
    /// digit string equal to the bytes themselves.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Wide([u8; 40]);

    impl RadixSortable for Wide {
        const RADIX_BYTES: usize = 40;

        fn radix_byte(&self, level: usize) -> u8 {
            self.0[level]
        }
    }

    fn pseudo_random_wide(n: usize, seed: u64, distinct_prefixes: u64) -> Vec<Wide> {
        pseudo_random(n, seed)
            .into_iter()
            .map(|x| {
                let mut b = [0u8; 40];
                b[..8].copy_from_slice(&(x % distinct_prefixes).to_be_bytes());
                b[8..16].copy_from_slice(&x.to_be_bytes());
                for (i, byte) in b.iter_mut().enumerate().skip(16) {
                    *byte = (x >> (i % 8)) as u8;
                }
                Wide(b)
            })
            .collect()
    }

    #[test]
    fn wide_items_take_the_move_by_index_path() {
        assert!(is_wide::<Wide>());
        assert!(!is_wide::<u64>());
        assert!(!is_wide::<(u64, u64)>());
    }

    #[test]
    fn sorts_wide_items_across_size_regimes() {
        for n in [0usize, 1, INSERTION_CUTOFF + 1, COMPARISON_CUTOFF + 1, 20_000] {
            // Few distinct prefixes force deep recursion through shared
            // leading bytes; many exercise the fan-out.
            for distinct in [3u64, 1 << 20] {
                let v = pseudo_random_wide(n, n as u64 + distinct, distinct);
                let mut got = v.clone();
                radix_sort(&mut got);
                assert_eq!(got, reference_sorted(&v), "n = {n}, distinct = {distinct}");
                let mut replaced = v.clone();
                radix_sort_vec(&mut replaced);
                assert_eq!(replaced, got, "vector sort, n = {n}, distinct = {distinct}");
            }
        }
    }

    /// Whether the bytes [`pseudo_random_wide`] derives from the second key
    /// word still sit behind it.
    fn payload_matches_key(w: &Wide) -> bool {
        let x = u64::from_be_bytes(w.0[8..16].try_into().unwrap());
        w.0.iter().enumerate().skip(16).all(|(i, &byte)| byte == (x >> (i % 8)) as u8)
    }

    #[test]
    fn wide_gather_is_a_permutation_equal_to_sort_unstable() {
        // 1 << 30 prefixes leave a few ties for the index comparison sort, 3
        // leave three runs long enough to be re-tagged one level down.
        for distinct in [1u64 << 30, 3] {
            let v = pseudo_random_wide(10_000, 5, distinct);
            let mut got = v.clone();
            radix_sort(&mut got);
            assert!(got.iter().all(payload_matches_key), "a record was torn");
            assert_eq!(got, reference_sorted(&v), "distinct = {distinct}");
        }
    }

    #[test]
    fn tagging_settles_sorted_and_strictly_descending_input() {
        let mut sorted = pseudo_random_wide(5_000, 17, 40);
        sorted.sort_unstable();
        sorted.dedup();
        let mut data = sorted.clone();
        assert!(tag_records(&mut data).is_none());
        assert_eq!(data, sorted, "ascending input is left alone");
        data.reverse();
        assert!(tag_records(&mut data).is_none());
        assert_eq!(data, sorted, "strictly descending input is reversed");
        // One repeated record: no longer strictly descending, so it is
        // tagged and sorted like any other input.
        data.reverse();
        data.push(data[data.len() - 1]);
        let tags = tag_records(&mut data).expect("neither ascending nor strictly descending");
        assert_eq!(tags.len(), data.len());
        assert!(tags.iter().zip(0u32..).all(|(t, i)| t.index == i));
    }

    #[test]
    fn par_radix_sort_wide_matches_sequential_bitwise() {
        let v = pseudo_random_wide(PAR_MIN_LEN * 2, 11, 1 << 40);
        let mut seq = v.clone();
        radix_sort(&mut seq);
        let mut par = v.clone();
        par_radix_sort(&mut par);
        assert_eq!(seq, par);
        assert_eq!(seq, reference_sorted(&v));
    }

    #[test]
    fn insertion_sort_handles_edges() {
        let mut v: Vec<u64> = vec![];
        insertion_sort(&mut v);
        let mut v = vec![1u64];
        insertion_sort(&mut v);
        assert_eq!(v, vec![1]);
        let mut v = vec![3u64, 1, 2, 2, 0];
        insertion_sort(&mut v);
        assert_eq!(v, vec![0, 1, 2, 2, 3]);
    }
}

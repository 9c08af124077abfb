//! Key and record types used throughout the reproduction.
//!
//! The paper sorts *keys* (8-byte integers in the Mira experiments, §6.2)
//! optionally carrying a small *payload* (4 bytes in Figure 6.1).  Splitter
//! based algorithms only need a total order plus known minimum/maximum
//! sentinels (the paper defines `S_0 = −∞`, `S_p = +∞` for numeric keys);
//! the [`Key`] trait captures exactly that.  The [`Keyed`] trait lets the
//! sorting algorithms move whole records while comparing only their keys.

use std::cmp::Ordering;

use hss_lsort::RadixSortable;
use serde::{Deserialize, Serialize};

/// A sortable key: totally ordered, copyable, with global minimum and
/// maximum sentinel values (the paper's `Min Key` / `Max Key`).
pub trait Key: Copy + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// The smallest representable key (`S_0` in the paper).
    const MIN_KEY: Self;
    /// The largest representable key (`S_p` in the paper).
    const MAX_KEY: Self;
}

macro_rules! impl_key_for_int {
    ($($t:ty),*) => {
        $(impl Key for $t {
            const MIN_KEY: Self = <$t>::MIN;
            const MAX_KEY: Self = <$t>::MAX;
        })*
    };
}

impl_key_for_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// An item that carries a [`Key`]: either a bare key or a record with a
/// payload.  Parallel sorting algorithms are generic over `Keyed` so that
/// the same code path sorts keys and key+payload records.
pub trait Keyed: Clone + Send + Sync + 'static {
    /// The key type this item is ordered by.
    type K: Key;

    /// The item's key.
    fn key(&self) -> Self::K;
}

impl<K: Key> Keyed for K {
    type K = K;

    fn key(&self) -> K {
        *self
    }
}

/// The record type of the Mira weak-scaling experiment (Figure 6.1): an
/// 8-byte integer key with a 4-byte payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// The sort key.
    pub key: u64,
    /// Application payload carried along with the key.
    pub payload: u32,
}

impl Record {
    /// A record whose payload is derived from the key (handy in tests: the
    /// payload lets tests verify that payloads travel with their keys).
    pub fn with_derived_payload(key: u64) -> Self {
        Self { key, payload: (key ^ (key >> 32)) as u32 }
    }
}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.payload.cmp(&other.payload))
    }
}

impl Keyed for Record {
    type K = u64;

    fn key(&self) -> u64 {
        self.key
    }
}

/// Records order by `(key, payload)`, so their radix digit string is the
/// big-endian key bytes followed by the big-endian payload bytes.
impl RadixSortable for Record {
    const RADIX_BYTES: usize = 8 + 4;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        if level < 8 {
            self.key.radix_byte(level)
        } else {
            self.payload.radix_byte(level - 8)
        }
    }
}

/// A fixed-width byte-string key of `N` bytes, ordered big-endian
/// lexicographically (byte 0 is the most significant digit) — the key shape
/// of terasort-style record workloads (10-byte keys), log lines, URLs or
/// genomic reads, as opposed to the paper's 8-byte integer keys.
///
/// The sentinels are the all-zero and all-`0xFF` strings, which bracket
/// every possible value, and the radix digit string is simply the bytes
/// themselves — so a `ByteKey` flows through the whole stack (sampling,
/// histogramming, decision trees, the radix local sort) with no conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteKey<const N: usize>(pub [u8; N]);

impl<const N: usize> ByteKey<N> {
    /// Wrap raw bytes as a key.
    pub const fn new(bytes: [u8; N]) -> Self {
        Self(bytes)
    }

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; N] {
        &self.0
    }

    /// An order-preserving expansion of a `u64` key: the first
    /// `min(N, 8)` bytes are the big-endian integer bytes and (for
    /// `N > 8`) the remaining bytes are derived deterministically from the
    /// value, so distinct integers keep distinct, identically ordered byte
    /// keys.  For `N < 8` the expansion truncates (still monotone, no
    /// longer injective) — the distribution generators use this to reuse
    /// their `u64` arms for byte keys of any width.
    pub fn from_u64_prefix(x: u64) -> Self {
        let mut bytes = [0u8; N];
        let be = x.to_be_bytes();
        let take = N.min(8);
        bytes[..take].copy_from_slice(&be[..take]);
        if N > 8 {
            // SplitMix64-style suffix: non-trivial trailing bytes whose
            // value cannot affect the order (the 8-byte prefix decides).
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            for b in bytes[8..].iter_mut() {
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                *b = (z >> 56) as u8;
            }
        }
        Self(bytes)
    }
}

impl<const N: usize> Key for ByteKey<N> {
    const MIN_KEY: Self = ByteKey([0x00; N]);
    const MAX_KEY: Self = ByteKey([0xFF; N]);
}

/// The digit string of a byte-string key is the key itself.
impl<const N: usize> RadixSortable for ByteKey<N> {
    const RADIX_BYTES: usize = N;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        self.0[level]
    }
}

/// A fixed-width record: a `K`-byte [`ByteKey`] carrying a `V`-byte opaque
/// payload.  The flagship instantiation is [`TeraRecord`] (terasort's
/// 10-byte key + 90-byte value); any other shape is one type alias away.
///
/// Records order by `(key, payload)` — a total order, so the comparison
/// and radix sorting paths agree bitwise even among records with equal
/// keys — and the radix digit string is the key bytes followed by the
/// payload bytes.  Both arrays are plain bytes (alignment 1), so
/// `size_of::<WideRecord<K, V>>() == K + V` with no padding: the exchange
/// accounting charges exactly the record's wire width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideRecord<const K: usize, const V: usize> {
    /// The sort key.
    pub key: ByteKey<K>,
    /// Application payload carried along with the key.
    pub payload: [u8; V],
}

/// The canonical terasort record: 10-byte key, 90-byte value, 100 bytes on
/// the wire.
pub type TeraRecord = WideRecord<10, 90>;

// The exchange accounting charges `size_of` bytes per record; a padded
// layout would silently overcharge.
const _: () = assert!(std::mem::size_of::<TeraRecord>() == 100);

impl<const K: usize, const V: usize> WideRecord<K, V> {
    /// A record whose payload bytes are derived deterministically from the
    /// key (FNV-1a seed + SplitMix64 stream), so tests can verify that
    /// every payload still belongs to its key after a sort moved it across
    /// ranks.
    pub fn with_derived_payload(key: ByteKey<K>) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in key.0.iter() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut payload = [0u8; V];
        let mut state = h;
        for chunk in payload.chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            for (dst, src) in chunk.iter_mut().zip(z.to_le_bytes().iter()) {
                *dst = *src;
            }
        }
        Self { key, payload }
    }

    /// Whether the payload is exactly what [`Self::with_derived_payload`]
    /// derives for this record's key — the payload-integrity oracle of the
    /// record differential suite.
    pub fn payload_matches_key(&self) -> bool {
        *self == Self::with_derived_payload(self.key)
    }
}

impl<const K: usize, const V: usize> PartialOrd for WideRecord<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const K: usize, const V: usize> Ord for WideRecord<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then_with(|| self.payload.cmp(&other.payload))
    }
}

impl<const K: usize, const V: usize> Keyed for WideRecord<K, V> {
    type K = ByteKey<K>;

    fn key(&self) -> ByteKey<K> {
        self.key
    }
}

/// Wide records order by `(key, payload)`, so the digit string is the key
/// bytes followed by the payload bytes — the local sort classifies on the
/// key-prefix digits and only ever reads payload digits for records whose
/// keys are fully equal.
impl<const K: usize, const V: usize> RadixSortable for WideRecord<K, V> {
    const RADIX_BYTES: usize = K + V;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        if level < K {
            self.key.0[level]
        } else {
            self.payload[level - K]
        }
    }
}

/// A key implicitly tagged with its origin, used to break ties among
/// duplicates (§4.3): "every input key `k` can be thought of as a triplet
/// `(k, PE, ind)`", where `PE` is the processor the key resides on and
/// `ind` its index in the local data structure.  Tagging imposes a strict
/// total order on inputs with arbitrarily many duplicates without growing
/// the input itself; only histogram probe keys are explicitly tagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaggedKey<K: Key> {
    /// The original key value.
    pub key: K,
    /// The processor (rank) the key resides on.
    pub pe: u32,
    /// The index of the key in the local data structure.
    pub index: u32,
}

impl<K: Key> TaggedKey<K> {
    /// Tag `key` with its location.
    pub fn new(key: K, pe: u32, index: u32) -> Self {
        Self { key, pe, index }
    }

    /// The smallest tagged key with the given key value: compares `<=` every
    /// occurrence of `key` in the input.  Used to build probe keys.
    pub fn lower_sentinel(key: K) -> Self {
        Self { key, pe: 0, index: 0 }
    }

    /// The largest tagged key with the given key value.
    pub fn upper_sentinel(key: K) -> Self {
        Self { key, pe: u32::MAX, index: u32::MAX }
    }
}

impl<K: Key> Key for TaggedKey<K> {
    const MIN_KEY: Self = TaggedKey { key: K::MIN_KEY, pe: 0, index: 0 };
    const MAX_KEY: Self = TaggedKey { key: K::MAX_KEY, pe: u32::MAX, index: u32::MAX };
}

/// Tagged keys order by `(key, pe, index)` (the derived [`Ord`]), so the
/// digit string is the key's digits followed by the big-endian tag bytes.
impl<K: Key + RadixSortable> RadixSortable for TaggedKey<K> {
    const RADIX_BYTES: usize = K::RADIX_BYTES + 4 + 4;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        if level < K::RADIX_BYTES {
            self.key.radix_byte(level)
        } else if level < K::RADIX_BYTES + 4 {
            self.pe.radix_byte(level - K::RADIX_BYTES)
        } else {
            self.index.radix_byte(level - K::RADIX_BYTES - 4)
        }
    }
}

/// A totally ordered `f64` wrapper so floating-point keys (particle
/// positions, ChaNGa-style) can be sorted.  NaNs order greater than every
/// other value; this is sufficient for the synthetic datasets which never
/// generate NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Key for OrderedF64 {
    const MIN_KEY: Self = OrderedF64(f64::NEG_INFINITY);
    const MAX_KEY: Self = OrderedF64(f64::INFINITY);
}

impl From<f64> for OrderedF64 {
    fn from(x: f64) -> Self {
        OrderedF64(x)
    }
}

/// The IEEE-754 total order maps onto unsigned byte order by flipping the
/// sign bit of non-negative values and all bits of negative ones — exactly
/// the transform [`f64::total_cmp`] is defined by.
impl RadixSortable for OrderedF64 {
    const RADIX_BYTES: usize = 8;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        let bits = self.0.to_bits();
        let mapped = if bits >> 63 == 1 { !bits } else { bits | 0x8000_0000_0000_0000 };
        mapped.radix_byte(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_sentinels_bracket_everything() {
        assert_eq!(u64::MIN_KEY, u64::MIN);
        assert_eq!(u64::MAX_KEY, u64::MAX);
        assert_eq!(i64::MIN_KEY, i64::MIN);
        assert_eq!(i64::MAX_KEY, i64::MAX);
    }

    #[test]
    fn keyed_blanket_impl_returns_self() {
        let k: u64 = 42;
        assert_eq!(k.key(), 42);
        let k: i32 = -7;
        assert_eq!(k.key(), -7);
    }

    #[test]
    fn record_orders_by_key_then_payload() {
        let a = Record { key: 1, payload: 9 };
        let b = Record { key: 2, payload: 0 };
        let c = Record { key: 1, payload: 10 };
        assert!(a < b);
        assert!(a < c);
        assert_eq!(a.key(), 1);
    }

    #[test]
    fn record_derived_payload_is_deterministic() {
        assert_eq!(Record::with_derived_payload(7), Record::with_derived_payload(7));
    }

    #[test]
    fn tagged_key_breaks_ties_by_pe_then_index() {
        let a = TaggedKey::new(5u64, 0, 3);
        let b = TaggedKey::new(5u64, 1, 0);
        let c = TaggedKey::new(5u64, 0, 4);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
        // Different key values dominate the tag.
        assert!(TaggedKey::new(4u64, 9, 9) < a);
    }

    #[test]
    fn tagged_key_sentinels_bracket_all_tags() {
        let lo = TaggedKey::lower_sentinel(5u64);
        let hi = TaggedKey::upper_sentinel(5u64);
        let mid = TaggedKey::new(5u64, 17, 3);
        assert!(lo <= mid && mid <= hi);
        assert!(TaggedKey::<u64>::MIN_KEY <= lo);
        assert!(TaggedKey::<u64>::MAX_KEY >= hi);
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v = [OrderedF64(3.5), OrderedF64(-1.0), OrderedF64(0.0), OrderedF64(f64::NAN)];
        // Keys are Copy with a total order: nothing to gain from a stable
        // (allocating) sort.
        v.sort_unstable();
        assert_eq!(v[0], OrderedF64(-1.0));
        assert_eq!(v[1], OrderedF64(0.0));
        assert_eq!(v[2], OrderedF64(3.5));
        assert!(v[3].0.is_nan());
        assert!(OrderedF64::MIN_KEY < OrderedF64(-1e300));
        assert!(OrderedF64::MAX_KEY > OrderedF64(1e300));
    }

    fn digits<T: RadixSortable>(x: &T) -> Vec<u8> {
        (0..T::RADIX_BYTES).map(|l| x.radix_byte(l)).collect()
    }

    #[test]
    fn record_digits_match_record_order() {
        let samples = [
            Record { key: 0, payload: 0 },
            Record { key: 1, payload: 9 },
            Record { key: 1, payload: 10 },
            Record { key: u64::MAX, payload: u32::MAX },
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), digits(a).cmp(&digits(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn tagged_key_digits_match_tag_order() {
        let samples = [
            TaggedKey::new(5u64, 0, 3),
            TaggedKey::new(5u64, 1, 0),
            TaggedKey::new(5u64, 0, 4),
            TaggedKey::new(4u64, 9, 9),
            TaggedKey::<u64>::MIN_KEY,
            TaggedKey::<u64>::MAX_KEY,
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), digits(a).cmp(&digits(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn ordered_f64_digits_match_total_order() {
        let samples = [
            OrderedF64(f64::NEG_INFINITY),
            OrderedF64(-1.5),
            OrderedF64(-0.0),
            OrderedF64(0.0),
            OrderedF64(2.25),
            OrderedF64(f64::INFINITY),
            OrderedF64(f64::NAN),
            OrderedF64(-f64::NAN),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), digits(a).cmp(&digits(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn byte_key_sentinels_bracket_everything() {
        let k = ByteKey::new(*b"hss-sample");
        assert!(ByteKey::<10>::MIN_KEY <= k && k <= ByteKey::<10>::MAX_KEY);
        assert_eq!(ByteKey::<10>::MIN_KEY, ByteKey([0u8; 10]));
        assert_eq!(ByteKey::<10>::MAX_KEY, ByteKey([0xFFu8; 10]));
    }

    #[test]
    fn byte_key_orders_lexicographically() {
        // Big-endian: byte 0 dominates; shared prefixes fall through to the
        // next byte, exactly like comparing the byte slices.
        let a = ByteKey::new([0x00, 0x01, 0xFF]);
        let b = ByteKey::new([0x00, 0x02, 0x00]);
        let c = ByteKey::new([0x01, 0x00, 0x00]);
        assert!(a < b && b < c);
        assert_eq!(a.cmp(&b), a.as_bytes().as_slice().cmp(b.as_bytes().as_slice()));
    }

    #[test]
    fn byte_key_digits_match_lexicographic_order() {
        let samples = [
            ByteKey::<10>::MIN_KEY,
            ByteKey::new([0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01]),
            ByteKey::new(*b"aaaaaaaaaa"),
            ByteKey::new(*b"aaaaaaaaab"),
            ByteKey::new([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE]),
            ByteKey::<10>::MAX_KEY,
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), digits(a).cmp(&digits(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn byte_key_from_u64_prefix_preserves_order() {
        let values = [0u64, 1, 0xFF, 0x1_0000, u64::MAX - 1, u64::MAX];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    a.cmp(&b),
                    ByteKey::<10>::from_u64_prefix(a).cmp(&ByteKey::<10>::from_u64_prefix(b)),
                    "{a} vs {b} (N = 10)"
                );
                assert_eq!(
                    a.cmp(&b),
                    ByteKey::<8>::from_u64_prefix(a).cmp(&ByteKey::<8>::from_u64_prefix(b)),
                    "{a} vs {b} (N = 8)"
                );
            }
        }
        // N > 8: injective, prefix is the exact integer bytes.
        let k = ByteKey::<10>::from_u64_prefix(0x0102_0304_0506_0708);
        assert_eq!(&k.as_bytes()[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn wide_record_digits_match_record_order() {
        let mut samples = vec![
            TeraRecord::with_derived_payload(ByteKey::<10>::MIN_KEY),
            TeraRecord::with_derived_payload(ByteKey::new(*b"aaaaaaaaaa")),
            TeraRecord::with_derived_payload(ByteKey::new(*b"aaaaaaaaab")),
            TeraRecord::with_derived_payload(ByteKey::<10>::MAX_KEY),
        ];
        // Equal keys, different payloads: the payload digits break the tie
        // the same way `Ord` does.
        let key = ByteKey::new(*b"duplicate!");
        let mut other = TeraRecord::with_derived_payload(key);
        other.payload[89] ^= 0x80;
        samples.push(TeraRecord::with_derived_payload(key));
        samples.push(other);
        for a in &samples {
            for b in &samples {
                assert_eq!(a.cmp(b), digits(a).cmp(&digits(b)), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn wide_record_payload_is_derived_deterministically() {
        let key = ByteKey::new(*b"0123456789");
        let a = TeraRecord::with_derived_payload(key);
        let b = TeraRecord::with_derived_payload(key);
        assert_eq!(a, b);
        assert!(a.payload_matches_key());
        let mut corrupted = a;
        corrupted.payload[0] ^= 1;
        assert!(!corrupted.payload_matches_key());
        // Different keys get different payloads (the integrity oracle has
        // discriminating power).
        let c = TeraRecord::with_derived_payload(ByteKey::new(*b"0123456780"));
        assert_ne!(a.payload, c.payload);
    }

    /// Every adjacent pair of `sorted` (ascending) keeps its order, weakly,
    /// under `radix_prefix(0)`.
    fn assert_prefix_is_monotone<T: RadixSortable + std::fmt::Debug>(sorted: &[T]) {
        for pair in sorted.windows(2) {
            assert!(pair[0] < pair[1], "fixture must ascend: {pair:?}");
            assert!(pair[0].radix_prefix(0) <= pair[1].radix_prefix(0), "{pair:?}");
        }
    }

    #[test]
    fn radix_prefix_is_monotone_in_the_order() {
        assert_prefix_is_monotone(&[0u8, 1, 0x7F, 0x80, 0xFF]);
        assert_prefix_is_monotone(&[0u32, 1, 0xFFFF, 0x1_0000, u32::MAX]);
        assert_prefix_is_monotone(&[i64::MIN, -(1 << 40), -1, 0, 1, 1 << 40, i64::MAX]);
        let floats = [f64::NEG_INFINITY, -1e300, -1.5, -0.0, 0.0, 1e-300, 2.5, f64::INFINITY];
        assert_prefix_is_monotone(&floats.map(OrderedF64));
        // Ten digits: the last two of each pair below are past the prefix.
        let keys = [*b"aaaaaaaaaa", *b"aaaaaaaaab", *b"aaaaaaaaba", *b"aaaaaaabaa", *b"baaaaaaaaa"];
        assert_prefix_is_monotone(&keys.map(ByteKey::new));
        let records = keys.map(|k| WideRecord::<10, 4>::with_derived_payload(ByteKey::new(k)));
        assert_prefix_is_monotone(&records);
        // Narrow types are left-aligned, wide ones cut at eight digits, and a
        // prefix from a later level starts there.
        assert_eq!(0xABu8.radix_prefix(0), 0xAB << 56);
        assert_eq!(records[1].radix_prefix(0), u64::from_be_bytes(*b"aaaaaaaa"));
        assert_eq!(ByteKey::new(keys[2]).radix_prefix(8), u64::from_be_bytes(*b"ba\0\0\0\0\0\0"));
    }

    #[test]
    fn radix_sort_handles_tera_records() {
        let mut recs: Vec<TeraRecord> = (0..3000u64)
            .map(|i| TeraRecord::with_derived_payload(ByteKey::from_u64_prefix((i * 7919) % 257)))
            .collect();
        let mut expect = recs.clone();
        expect.sort_unstable();
        hss_lsort::radix_sort(&mut recs);
        assert_eq!(recs, expect);
        assert!(recs.iter().all(TeraRecord::payload_matches_key));
    }

    #[test]
    fn radix_sort_handles_records_and_tagged_keys() {
        let mut recs: Vec<Record> = (0..2000u64)
            .map(|i| Record { key: (i * 7919) % 97, payload: (i % 13) as u32 })
            .collect();
        let mut expect = recs.clone();
        expect.sort_unstable();
        hss_lsort::radix_sort(&mut recs);
        assert_eq!(recs, expect);

        let mut tags: Vec<TaggedKey<u64>> = (0..1500u64)
            .map(|i| TaggedKey::new((i * 31) % 11, (i % 7) as u32, (i % 5) as u32))
            .collect();
        let mut expect = tags.clone();
        expect.sort_unstable();
        hss_lsort::radix_sort(&mut tags);
        assert_eq!(tags, expect);
    }
}

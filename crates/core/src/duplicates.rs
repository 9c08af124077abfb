//! Duplicate handling by implicit tagging (§4.3).
//!
//! With many duplicate keys no splitter choice can balance load: every copy
//! of a key must land in the same bucket.  The paper's fix is to impose a
//! strict total order by *implicitly* treating every key as the triplet
//! `(key, PE, local index)`.  The input data itself is not enlarged — only
//! probe/splitter keys are materialised in tagged form — but in this
//! reproduction we wrap items in a lightweight [`Tagged`] carrier during the
//! sort so that the generic splitter/bucket machinery can operate on the
//! tagged order directly, and strip the tags at the end.

use hss_keygen::{Keyed, TaggedKey};
use hss_lsort::RadixSortable;
use hss_sim::{Machine, Phase, Work};
use serde::{Deserialize, Serialize};

/// An item together with its implicit `(PE, index)` tag.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Tagged<T: Keyed> {
    /// The original item.
    pub item: T,
    /// Rank the item originated on.
    pub pe: u32,
    /// Index of the item in its rank's local data at tagging time.
    pub index: u32,
}

impl<T: Keyed> Tagged<T> {
    /// The item's tagged key.
    pub fn tagged_key(&self) -> TaggedKey<T::K> {
        TaggedKey::new(self.item.key(), self.pe, self.index)
    }
}

impl<T: Keyed> Keyed for Tagged<T> {
    type K = TaggedKey<T::K>;

    fn key(&self) -> TaggedKey<T::K> {
        self.tagged_key()
    }
}

impl<T: Keyed> PartialEq for Tagged<T> {
    fn eq(&self, other: &Self) -> bool {
        self.tagged_key() == other.tagged_key()
    }
}

impl<T: Keyed> Eq for Tagged<T> {}

impl<T: Keyed> PartialOrd for Tagged<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Keyed> Ord for Tagged<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.tagged_key().cmp(&other.tagged_key())
    }
}

/// Tagged items order exactly by their [`TaggedKey`], so the digit string
/// is the tagged key's.  Digit equality implies `(key, pe, index)`
/// equality, which is [`Ord`] equality for `Tagged` — the radix contract
/// holds even though the carried item is not part of the digits.  So does
/// "Ord-equal means identical", on the items [`tag_per_rank`] makes: a tag
/// names one position of the input, so two items with the same tag are the
/// same item.  The `Copy` bound on the item comes with the territory: the
/// radix sorter stages items through its software write buffers.
impl<T: Keyed + Copy> RadixSortable for Tagged<T>
where
    T::K: RadixSortable,
{
    const RADIX_BYTES: usize = <TaggedKey<T::K> as RadixSortable>::RADIX_BYTES;

    #[inline(always)]
    fn radix_byte(&self, level: usize) -> u8 {
        self.tagged_key().radix_byte(level)
    }
}

/// Tag every item of every rank with its `(PE, index)` origin.  Charged as a
/// linear scan.
pub fn tag_per_rank<T: Keyed>(machine: &mut Machine, mut data: Vec<Vec<T>>) -> Vec<Vec<Tagged<T>>> {
    machine.map_phase_mut(Phase::Other, &mut data, |rank, local| {
        let n = local.len();
        let tagged = std::mem::take(local)
            .into_iter()
            .enumerate()
            .map(|(i, item)| Tagged { item, pe: rank as u32, index: i as u32 })
            .collect();
        (tagged, Work::scan(n))
    })
}

/// Strip the tags, keeping the (tag-ordered) item order.
pub fn untag_per_rank<T: Keyed>(
    machine: &mut Machine,
    mut data: Vec<Vec<Tagged<T>>>,
) -> Vec<Vec<T>> {
    machine.map_phase_mut(Phase::Other, &mut data, |_rank, local| {
        let n = local.len();
        (std::mem::take(local).into_iter().map(|t| t.item).collect(), Work::scan(n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::Record;

    #[test]
    fn tagging_imposes_strict_order_on_duplicates() {
        let a = Tagged { item: 5u64, pe: 0, index: 0 };
        let b = Tagged { item: 5u64, pe: 0, index: 1 };
        let c = Tagged { item: 5u64, pe: 1, index: 0 };
        assert!(a < b && b < c);
        assert_ne!(a, b);
        // Key order still dominates.
        let d = Tagged { item: 4u64, pe: 9, index: 9 };
        assert!(d < a);
    }

    #[test]
    fn tag_and_untag_round_trip() {
        let mut machine = Machine::flat(3);
        let data: Vec<Vec<u64>> = vec![vec![7, 7, 7], vec![1, 7], vec![]];
        let tagged = tag_per_rank(&mut machine, data.clone());
        assert_eq!(tagged[0][1].pe, 0);
        assert_eq!(tagged[0][1].index, 1);
        assert_eq!(tagged[1][0].pe, 1);
        let untagged = untag_per_rank(&mut machine, tagged);
        assert_eq!(untagged, data);
    }

    #[test]
    fn tagged_records_sort_by_key_then_tag() {
        let mut v = [
            Tagged { item: Record { key: 2, payload: 0 }, pe: 1, index: 0 },
            Tagged { item: Record { key: 2, payload: 0 }, pe: 0, index: 5 },
            Tagged { item: Record { key: 1, payload: 0 }, pe: 9, index: 9 },
        ];
        // Tags impose a strict total order, so stability buys nothing; the
        // unstable sort avoids the merge-buffer allocation.
        v.sort_unstable();
        assert_eq!(v[0].item.key, 1);
        assert_eq!(v[1].pe, 0);
        assert_eq!(v[2].pe, 1);
    }
}

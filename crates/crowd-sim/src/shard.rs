//! Worker-range sharding: partitioning a worker list into contiguous ranges.
//!
//! The paper's evaluation loop (Algorithm 4, Sec. V-C) assigns one shared
//! slice of golden tasks to every surviving worker each round. For the pool
//! sizes of Table II that round is cheap, but pools of `10^5+` workers need
//! the *within*-round axis parallelised as well: [`WorkerShards`] splits a
//! worker-id slice into contiguous ranges that
//! [`Platform::assign_learning_batch_sharded`](crate::Platform::assign_learning_batch_sharded)
//! (and the per-worker scoring passes in `c4u-selection`) process
//! independently — one scoped thread per shard, results merged back in worker
//! order.
//!
//! Because every worker draws from its own deterministic RNG stream (split
//! from the platform seed by worker id), the shard layout carries **no**
//! entropy: any shard count, including the single-shard "unsharded" layout,
//! produces bit-for-bit identical records. The shard boundary is therefore
//! purely an execution concern.
//!
//! ```
//! use c4u_crowd_sim::WorkerShards;
//!
//! // 10 workers over 4 shards: balanced, contiguous, ragged tail allowed.
//! let shards = WorkerShards::by_count(10, 4);
//! let ranges: Vec<_> = shards.ranges().collect();
//! assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
//!
//! // Sizing by shard capacity instead of shard count (then re-balanced).
//! let shards = WorkerShards::by_size(10, 4);
//! assert_eq!(shards.num_shards(), 3);
//! assert_eq!(shards.range(2), 7..10);
//! ```

use std::ops::Range;

/// A partition of `0..len` into contiguous, ordered, non-overlapping ranges.
///
/// Shards are balanced to within one element ([`WorkerShards::by_count`]) or
/// capped at a fixed capacity ([`WorkerShards::by_size`]); a shard may be empty
/// when there are more shards than workers. Concatenating the ranges in shard
/// order always reproduces `0..len` exactly, which is what lets sharded
/// consumers merge per-shard results back into worker order without any
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerShards {
    len: usize,
    /// Ascending shard boundaries: shard `s` covers `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl WorkerShards {
    /// Splits `len` items into exactly `num_shards` contiguous ranges, balanced
    /// to within one element (the first `len % num_shards` shards take the
    /// extra item). `num_shards` is clamped to at least 1; when it exceeds
    /// `len`, the trailing shards are empty.
    pub fn by_count(len: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let base = len / num_shards;
        let extra = len % num_shards;
        let mut bounds = Vec::with_capacity(num_shards + 1);
        let mut cursor = 0;
        bounds.push(cursor);
        for shard in 0..num_shards {
            cursor += base + usize::from(shard < extra);
            bounds.push(cursor);
        }
        Self { len, bounds }
    }

    /// Splits `len` items into `ceil(len / shard_size)` contiguous ranges of at
    /// most `shard_size` items each (the last shard may be ragged).
    /// `shard_size` is clamped to at least 1; zero items yield one empty shard.
    pub fn by_size(len: usize, shard_size: usize) -> Self {
        let shard_size = shard_size.max(1);
        Self::by_count(len, len.div_ceil(shard_size).max(1))
    }

    /// The trivial partition: one shard covering everything (the sequential,
    /// "unsharded" layout).
    pub fn single(len: usize) -> Self {
        Self::by_count(len, 1)
    }

    /// Number of items being partitioned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the partitioned list is empty (shards may still exist — they
    /// are all empty ranges then).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards (at least 1).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The contiguous index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.num_shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// The shard ranges in order; concatenated they cover `0..len` exactly.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.num_shards()).map(|s| self.range(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flatten(shards: &WorkerShards) -> Vec<usize> {
        shards.ranges().flatten().collect()
    }

    #[test]
    fn by_count_balances_to_within_one() {
        let shards = WorkerShards::by_count(10, 3);
        assert_eq!(shards.num_shards(), 3);
        assert_eq!(shards.len(), 10);
        let ranges: Vec<_> = shards.ranges().collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(flatten(&shards), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exact_division_gives_equal_shards() {
        let shards = WorkerShards::by_count(12, 4);
        assert!(shards.ranges().all(|r| r.len() == 3));
    }

    #[test]
    fn more_shards_than_items_gives_empty_tails() {
        let shards = WorkerShards::by_count(3, 16);
        assert_eq!(shards.num_shards(), 16);
        assert_eq!(shards.range(0), 0..1);
        assert_eq!(shards.range(2), 2..3);
        assert!(shards.range(3).is_empty());
        assert!(shards.range(15).is_empty());
        assert_eq!(flatten(&shards), vec![0, 1, 2]);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let shards = WorkerShards::by_count(5, 0);
        assert_eq!(shards.num_shards(), 1);
        assert_eq!(shards.range(0), 0..5);
        assert_eq!(shards, WorkerShards::single(5));
    }

    #[test]
    fn empty_lists_are_representable() {
        let shards = WorkerShards::by_count(0, 3);
        assert!(shards.is_empty());
        assert_eq!(shards.num_shards(), 3);
        assert!(shards.ranges().all(|r| r.is_empty()));
        assert!(!WorkerShards::single(1).is_empty());
    }

    #[test]
    fn by_size_caps_shard_capacity() {
        let shards = WorkerShards::by_size(10, 4);
        assert_eq!(shards.num_shards(), 3);
        assert!(shards.ranges().all(|r| r.len() <= 4));
        assert_eq!(flatten(&shards), (0..10).collect::<Vec<_>>());
        // Zero capacity is clamped; zero items yield one empty shard.
        assert_eq!(WorkerShards::by_size(10, 0).num_shards(), 10);
        assert_eq!(WorkerShards::by_size(0, 5).num_shards(), 1);
    }

    #[test]
    fn ranges_slice_a_list_back_together() {
        let items: Vec<char> = "abcdefghij".chars().collect();
        let shards = WorkerShards::by_count(items.len(), 4);
        let slices: Vec<&[char]> = shards.ranges().map(|r| &items[r]).collect();
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[0], &['a', 'b', 'c']);
        assert_eq!(slices[3], &['i', 'j']);
        let rejoined: String = slices.concat().iter().collect();
        assert_eq!(rejoined, "abcdefghij");
    }
}

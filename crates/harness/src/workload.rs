//! Workload specification and generation.
//!
//! Every experiment drives a [`ConcurrentOrderedSet`] with a stream of
//! operations drawn from an [`OpMix`] over a key universe. Generation is
//! deterministic per `(seed, thread)` so runs are reproducible.

use lftrie_baselines::ConcurrentOrderedSet;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One abstract set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Insert(key)`
    Insert(u64),
    /// `Delete(key)`
    Remove(u64),
    /// `Search(key)`
    Contains(u64),
    /// `Predecessor(key)`
    Predecessor(u64),
    /// `Successor(key)`
    Successor(u64),
    /// `Range(lo, hi)` — an ordered scan of `[lo, hi]` (bounds already
    /// clamped to the universe at generation time).
    Range(u64, u64),
    /// `CountRange(lo, hi)` — ordered aggregate: number of keys in
    /// `[lo, hi]` (bounds clamped like `Range`).
    CountRange(u64, u64),
    /// `Min` — smallest key in the set.
    Min,
    /// `Max` — largest key in the set.
    Max,
    /// `PopMin` — delete-minimum (priority-queue pop).
    PopMin,
    /// `InsertBatch(base, len)` — `insert_all` of the contiguous keys
    /// `[base, base+len)` (clamped to the universe at generation time).
    InsertBatch(u64, u64),
    /// `DeleteBatch(base, len)` — `delete_all` of the same span.
    DeleteBatch(u64, u64),
}

/// Percentages of each operation type (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// % of `Insert`.
    pub insert: u32,
    /// % of `Delete`.
    pub remove: u32,
    /// % of `Search`.
    pub contains: u32,
    /// % of `Predecessor`.
    pub predecessor: u32,
    /// % of `Successor`.
    pub successor: u32,
    /// % of `Range` scans (width set by [`OpStream::with_scan_width`] /
    /// [`crate::driver::RunConfig::scan_width`]).
    pub range: u32,
    /// % of `CountRange` aggregates (same width as `Range`).
    pub count_range: u32,
    /// % of `Min`/`Max` queries (split evenly between the two).
    pub min_max: u32,
    /// % of `PopMin` (delete-minimum).
    pub pop_min: u32,
    /// % of batched updates (split evenly between `InsertBatch` and
    /// `DeleteBatch`; span set by [`OpStream::with_batch_len`]).
    pub batch: u32,
}

impl OpMix {
    /// 40/40/10/10 — the contention-heavy mix of E3/E4.
    pub const UPDATE_HEAVY: OpMix = OpMix {
        insert: 40,
        remove: 40,
        contains: 10,
        predecessor: 10,
        successor: 0,
        range: 0,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };
    /// 10/10/70/10 — read-dominated (shows off O(1) search).
    pub const SEARCH_HEAVY: OpMix = OpMix {
        insert: 10,
        remove: 10,
        contains: 70,
        predecessor: 10,
        successor: 0,
        range: 0,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };
    /// 20/20/10/50 — predecessor-dominated (the paper's headline op).
    pub const PRED_HEAVY: OpMix = OpMix {
        insert: 20,
        remove: 20,
        contains: 10,
        predecessor: 50,
        successor: 0,
        range: 0,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };
    /// 25/25/25/25 — balanced.
    pub const BALANCED: OpMix = OpMix {
        insert: 25,
        remove: 25,
        contains: 25,
        predecessor: 25,
        successor: 0,
        range: 0,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };
    /// 15/15/10/10/10/40 — scan-dominated (experiment E9): ordered range
    /// scans racing a substantial update share.
    pub const SCAN_HEAVY: OpMix = OpMix {
        insert: 15,
        remove: 15,
        contains: 10,
        predecessor: 10,
        successor: 10,
        range: 40,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };
    /// 15/15/10/5/5/10/15/10/5/10 — the aggregate/batch mix (experiment
    /// E10's churn side): ordered aggregates and batched updates racing
    /// point operations and scans.
    pub const AGGREGATE: OpMix = OpMix {
        insert: 15,
        remove: 15,
        contains: 10,
        predecessor: 5,
        successor: 5,
        range: 10,
        count_range: 15,
        min_max: 10,
        pop_min: 5,
        batch: 10,
    };
    /// 20/20/10/25/25/0 — the full ordered-query mix: predecessor and
    /// successor in equal shares.
    pub const ORDERED: OpMix = OpMix {
        insert: 20,
        remove: 20,
        contains: 10,
        predecessor: 25,
        successor: 25,
        range: 0,
        count_range: 0,
        min_max: 0,
        pop_min: 0,
        batch: 0,
    };

    /// A short identifier for reports.
    pub fn label(&self) -> &'static str {
        match *self {
            OpMix::UPDATE_HEAVY => "update-heavy",
            OpMix::SEARCH_HEAVY => "search-heavy",
            OpMix::PRED_HEAVY => "pred-heavy",
            OpMix::BALANCED => "balanced",
            OpMix::SCAN_HEAVY => "scan-heavy",
            OpMix::ORDERED => "ordered",
            OpMix::AGGREGATE => "aggregate",
            _ => "custom",
        }
    }

    fn weights(&self) -> [u32; 10] {
        let w = [
            self.insert,
            self.remove,
            self.contains,
            self.predecessor,
            self.successor,
            self.range,
            self.count_range,
            self.min_max,
            self.pop_min,
            self.batch,
        ];
        assert_eq!(w.iter().sum::<u32>(), 100, "OpMix must sum to 100");
        w
    }
}

/// Key-popularity distribution of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// YCSB-style hotspot: `hot_ops_pct`% of operations target the
    /// `hot_keys_pct`% of the keyspace at its low end — the skew that
    /// concentrates contention on few trie paths.
    Hotspot {
        /// Percent of the keyspace that is hot (1..=100).
        hot_keys_pct: u32,
        /// Percent of operations hitting the hot range (0..=100).
        hot_ops_pct: u32,
    },
}

impl KeyDist {
    /// The standard skewed preset: 90% of ops on 10% of keys.
    pub const HOT_90_10: KeyDist = KeyDist::Hotspot {
        hot_keys_pct: 10,
        hot_ops_pct: 90,
    };

    fn sample(&self, rng: &mut StdRng, universe: u64) -> u64 {
        match *self {
            KeyDist::Uniform => rng.gen_range(0..universe),
            KeyDist::Hotspot {
                hot_keys_pct,
                hot_ops_pct,
            } => {
                let hot_keys = (universe * u64::from(hot_keys_pct) / 100).max(1);
                if rng.gen_range(0..100u32) < hot_ops_pct {
                    rng.gen_range(0..hot_keys)
                } else {
                    rng.gen_range(hot_keys.min(universe - 1)..universe)
                }
            }
        }
    }
}

/// A deterministic per-thread operation stream.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    dist: WeightedIndex<u32>,
    universe: u64,
    keys: KeyDist,
    scan_width: u64,
    batch_len: u64,
}

/// Default width (key span) of generated `Range` scans.
pub const DEFAULT_SCAN_WIDTH: u64 = 64;

/// Default number of keys in generated `InsertBatch`/`DeleteBatch` spans.
pub const DEFAULT_BATCH_LEN: u64 = 8;

impl OpStream {
    /// Creates the stream for `(seed, thread_id)` over `{0, …, universe−1}`
    /// with uniform keys.
    pub fn new(mix: OpMix, universe: u64, seed: u64, thread_id: u64) -> Self {
        Self::with_dist(mix, KeyDist::Uniform, universe, seed, thread_id)
    }

    /// Creates the stream with an explicit key distribution.
    pub fn with_dist(mix: OpMix, keys: KeyDist, universe: u64, seed: u64, thread_id: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ thread_id.wrapping_mul(0x9E3779B97F4A7C15)),
            dist: WeightedIndex::new(mix.weights()).expect("valid weights"),
            universe,
            keys,
            scan_width: DEFAULT_SCAN_WIDTH,
            batch_len: DEFAULT_BATCH_LEN,
        }
    }

    /// Sets the key span of generated `Range` scans (builder style).
    pub fn with_scan_width(mut self, width: u64) -> Self {
        self.scan_width = width.max(1);
        self
    }

    /// Sets the key count of generated batched updates (builder style).
    pub fn with_batch_len(mut self, len: u64) -> Self {
        self.batch_len = len.max(1);
        self
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.keys.sample(&mut self.rng, self.universe);
        let scan_hi = |k: u64, w: u64| k.saturating_add(w - 1).min(self.universe - 1);
        match self.dist.sample(&mut self.rng) {
            0 => Op::Insert(key),
            1 => Op::Remove(key),
            2 => Op::Contains(key),
            3 => Op::Predecessor(key),
            4 => Op::Successor(key),
            5 => Op::Range(key, scan_hi(key, self.scan_width)),
            6 => Op::CountRange(key, scan_hi(key, self.scan_width)),
            7 => {
                if self.rng.gen_bool(0.5) {
                    Op::Min
                } else {
                    Op::Max
                }
            }
            8 => Op::PopMin,
            _ => {
                let len = self.batch_len.min(self.universe - key);
                if self.rng.gen_bool(0.5) {
                    Op::InsertBatch(key, len)
                } else {
                    Op::DeleteBatch(key, len)
                }
            }
        }
    }
}

/// Applies `op` to `set`, returning which counter to bump.
#[inline]
pub fn apply<S: ConcurrentOrderedSet + ?Sized>(set: &S, op: Op) -> Op {
    match op {
        Op::Insert(k) => {
            std::hint::black_box(set.insert(k));
        }
        Op::Remove(k) => {
            std::hint::black_box(set.remove(k));
        }
        Op::Contains(k) => {
            std::hint::black_box(set.contains(k));
        }
        Op::Predecessor(k) => {
            std::hint::black_box(set.predecessor(k));
        }
        Op::Successor(k) => {
            std::hint::black_box(set.successor(k));
        }
        Op::Range(lo, hi) => {
            std::hint::black_box(set.range(lo, hi));
        }
        Op::CountRange(lo, hi) => {
            std::hint::black_box(set.count_range(lo, hi));
        }
        Op::Min => {
            std::hint::black_box(set.min());
        }
        Op::Max => {
            std::hint::black_box(set.max());
        }
        Op::PopMin => {
            std::hint::black_box(set.pop_min());
        }
        Op::InsertBatch(base, len) => {
            let keys: Vec<u64> = (base..base + len).collect();
            std::hint::black_box(set.insert_all(&keys));
        }
        Op::DeleteBatch(base, len) => {
            let keys: Vec<u64> = (base..base + len).collect();
            std::hint::black_box(set.delete_all(&keys));
        }
    }
    op
}

/// Fills `set` so roughly `density` of the universe is present (uniformly),
/// deterministically from `seed`. Returns the number of keys inserted.
pub fn prefill<S: ConcurrentOrderedSet + ?Sized>(
    set: &S,
    universe: u64,
    density: f64,
    seed: u64,
) -> u64 {
    assert!((0.0..=1.0).contains(&density));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = 0;
    for key in 0..universe {
        if rng.gen_bool(density) && set.insert(key) {
            inserted += 1;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use lftrie_baselines::CoarseBTreeSet;

    #[test]
    fn streams_are_deterministic_per_seed_and_thread() {
        let mut a = OpStream::new(OpMix::BALANCED, 1024, 7, 3);
        let mut b = OpStream::new(OpMix::BALANCED, 1024, 7, 3);
        let mut c = OpStream::new(OpMix::BALANCED, 1024, 7, 4);
        let ops_a: Vec<Op> = (0..100).map(|_| a.next_op()).collect();
        let ops_b: Vec<Op> = (0..100).map(|_| b.next_op()).collect();
        let ops_c: Vec<Op> = (0..100).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c, "different threads draw different streams");
    }

    #[test]
    fn mix_proportions_are_respected() {
        let mut s = OpStream::new(OpMix::SEARCH_HEAVY, 256, 1, 0);
        let mut contains = 0;
        for _ in 0..10_000 {
            if matches!(s.next_op(), Op::Contains(_)) {
                contains += 1;
            }
        }
        // 70% ± 3 points.
        assert!((6_700..=7_300).contains(&contains), "got {contains}");
    }

    #[test]
    fn prefill_hits_requested_density() {
        let set = CoarseBTreeSet::new();
        let n = prefill(&set, 10_000, 0.5, 42);
        assert!((4_500..=5_500).contains(&n), "got {n}");
    }

    #[test]
    fn hotspot_concentrates_on_the_hot_range() {
        let universe = 1000u64;
        let mut s = OpStream::with_dist(OpMix::BALANCED, KeyDist::HOT_90_10, universe, 3, 0);
        let mut hot = 0u32;
        let n = 20_000;
        for _ in 0..n {
            let k = match s.next_op() {
                Op::Insert(k)
                | Op::Remove(k)
                | Op::Contains(k)
                | Op::Predecessor(k)
                | Op::Successor(k)
                | Op::Range(k, _)
                | Op::CountRange(k, _)
                | Op::InsertBatch(k, _)
                | Op::DeleteBatch(k, _) => k,
                // Keyless aggregates never occur in BALANCED (weight 0).
                Op::Min | Op::Max | Op::PopMin => unreachable!(),
            };
            assert!(k < universe);
            if k < 100 {
                hot += 1;
            }
        }
        // 90% ± 2 points of ops in the bottom 10% of keys.
        assert!((17_600..=18_400).contains(&hot), "hot draws: {hot}");
    }

    #[test]
    fn all_keys_within_universe() {
        let mut s = OpStream::new(OpMix::UPDATE_HEAVY, 64, 9, 2);
        for _ in 0..1000 {
            let k = match s.next_op() {
                Op::Insert(k)
                | Op::Remove(k)
                | Op::Contains(k)
                | Op::Predecessor(k)
                | Op::Successor(k)
                | Op::Range(k, _)
                | Op::CountRange(k, _)
                | Op::InsertBatch(k, _)
                | Op::DeleteBatch(k, _) => k,
                Op::Min | Op::Max | Op::PopMin => unreachable!(),
            };
            assert!(k < 64);
        }
    }

    #[test]
    fn aggregate_mix_generates_well_formed_ops() {
        let universe = 512u64;
        let mut s = OpStream::new(OpMix::AGGREGATE, universe, 11, 0).with_batch_len(16);
        let (mut aggregates, mut batches) = (0u32, 0u32);
        let n = 10_000;
        for _ in 0..n {
            match s.next_op() {
                Op::CountRange(lo, hi) => {
                    aggregates += 1;
                    assert!(lo <= hi && hi < universe);
                }
                Op::Min | Op::Max | Op::PopMin => aggregates += 1,
                Op::InsertBatch(base, len) | Op::DeleteBatch(base, len) => {
                    batches += 1;
                    assert!(len >= 1, "batches are never empty");
                    assert!(base + len <= universe, "batch stays in the universe");
                }
                _ => {}
            }
        }
        // count_range 15 + min_max 10 + pop_min 5 = 30% ± 3; batch 10% ± 2.
        assert!((2_700..=3_300).contains(&aggregates), "got {aggregates}");
        assert!((800..=1_200).contains(&batches), "got {batches}");
    }

    #[test]
    fn scan_ops_have_clamped_bounds_and_requested_share() {
        let universe = 512u64;
        let mut s = OpStream::new(OpMix::SCAN_HEAVY, universe, 5, 0).with_scan_width(100);
        let mut scans = 0u32;
        let n = 10_000;
        for _ in 0..n {
            if let Op::Range(lo, hi) = s.next_op() {
                scans += 1;
                assert!(lo <= hi, "range bounds ordered");
                assert!(hi < universe, "range clamped to the universe");
                assert!(hi - lo < 100, "width bounded by the requested span");
            }
        }
        // 40% ± 3 points.
        assert!((3_700..=4_300).contains(&scans), "got {scans}");
    }
}

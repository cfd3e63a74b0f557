//! Output checks: a sequential model replay for single-worker streams,
//! per-answer sanity for concurrent ones, and a quiescent pass over every
//! key once the workers have stopped.

use std::collections::BTreeSet;

use lftrie_baselines::SeqBinaryTrie;
use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};

use crate::gen::{Kind, Op};

/// Encoded "no such key" answer of a predecessor or successor query.
pub const NONE: u32 = u32::MAX;
/// Encoded ⊥ of a relaxed query; never a correct answer here, because the
/// relaxed trie is only driven single-threaded.
const INTERFERENCE: u32 = u32::MAX - 1;

fn encode(answer: Option<u64>) -> u32 {
    answer.map_or(NONE, |k| k as u32)
}

/// An ordered set that answers the five point ops, with each answer
/// encoded as one word so that it can be stored and compared.
pub trait PointSet {
    fn apply(&mut self, op: Op) -> u32;
}

/// Implements [`PointSet`] for `$set` from one expression per point op,
/// written in terms of the set `$s` and the key `$k`.
macro_rules! point_set {
    ($set:ty, |$s:ident, $k:ident| {
        contains: $contains:expr,
        insert: $insert:expr,
        remove: $remove:expr,
        predecessor: $pred:expr,
        successor: $succ:expr $(,)?
    }) => {
        impl PointSet for $set {
            #[inline]
            fn apply(&mut self, op: Op) -> u32 {
                let ($s, $k) = (self, op.key());
                match op.kind() {
                    Kind::Contains => u32::from($contains),
                    Kind::Insert => u32::from($insert),
                    Kind::Remove => u32::from($remove),
                    Kind::Predecessor => $pred,
                    Kind::Successor => $succ,
                    Kind::Scan => unreachable!("scans are not point ops"),
                }
            }
        }
    };
}

point_set!(&LockFreeBinaryTrie, |s, k| {
    contains: s.contains(k),
    insert: s.insert(k),
    remove: s.remove(k),
    predecessor: encode(s.predecessor(k)),
    successor: encode(s.successor(k)),
});

point_set!(SeqBinaryTrie, |s, k| {
    contains: s.contains(k),
    insert: s.insert(k),
    remove: s.remove(k),
    predecessor: encode(s.predecessor(k)),
    successor: encode(s.successor(k)),
});

point_set!(RelaxedBinaryTrie, |s, k| {
    contains: s.contains(k),
    insert: s.insert(k),
    remove: s.remove(k),
    predecessor: match s.predecessor(k) {
        RelaxedPred::Found(p) => p as u32,
        RelaxedPred::NoneSmaller => NONE,
        RelaxedPred::Interference => INTERFERENCE,
    },
    successor: match s.successor(k) {
        RelaxedSucc::Found(s) => s as u32,
        RelaxedSucc::NoneGreater => NONE,
        RelaxedSucc::Interference => INTERFERENCE,
    },
});

// The model: the standard library's ordered set, independent of every
// crate under test.
point_set!(BTreeSet<u64>, |s, k| {
    contains: s.contains(&k),
    insert: s.insert(k),
    remove: s.remove(&k),
    predecessor: encode(s.range(..k).next_back().copied()),
    successor: encode(s.range(k + 1..).next().copied()),
});

/// Replays `ops` on `model` in order and counts the answers in `results`
/// that differ from the model's.
pub fn replay(model: &mut impl PointSet, ops: &[Op], results: &[u32]) -> u64 {
    ops.iter()
        .zip(results)
        .filter(|&(&op, &r)| model.apply(op) != r)
        .count() as u64
}

/// Whether one answer of a concurrent run can be right on its own: a
/// boolean for membership and updates, `pred < y`, `y < succ < u`, and for
/// a scan (whose answer is its key count, checked by [`sane_scan`]) any
/// count up to the scan width.
pub fn sane(op: Op, r: u32, universe: u64, scan_width: u64) -> bool {
    let y = op.key();
    match op.kind() {
        Kind::Contains | Kind::Insert | Kind::Remove => r <= 1,
        Kind::Predecessor => r == NONE || u64::from(r) < y,
        Kind::Successor => r == NONE || (u64::from(r) > y && u64::from(r) < universe),
        Kind::Scan => u64::from(r) <= scan_width,
    }
}

/// Counts the answers of a concurrent pass that fail [`sane`].
pub fn count_insane(ops: &[Op], results: &[u32], universe: u64, scan_width: u64) -> u64 {
    ops.iter()
        .zip(results)
        .filter(|&(&op, &r)| !sane(op, r, universe, scan_width))
        .count() as u64
}

/// A scan's keys are strictly increasing and within `[lo, hi]`.
pub fn sane_scan(keys: &[u64], lo: u64, hi: u64) -> bool {
    keys.windows(2).all(|p| p[0] < p[1]) && keys.iter().all(|k| (lo..=hi).contains(k))
}

/// With no operation running, checks that `collect_keys`, `contains`,
/// `predecessor` and `successor` all agree with `expected` (ascending) for
/// every key of the universe. Returns `(attempted, failed)`.
pub fn quiescent_pass(trie: &LockFreeBinaryTrie, expected: &[u64]) -> (u64, u64) {
    let universe = trie.universe();
    let mut failed = u64::from(trie.collect_keys() != expected);
    let mut below = None;
    let mut rest = expected.iter().peekable();
    for y in 0..universe {
        let member = rest.next_if_eq(&&y).is_some();
        let above = rest.peek().map(|&&k| k);
        failed += u64::from(trie.contains(y) != member)
            + u64::from(trie.predecessor(y) != below)
            + u64::from(trie.successor(y) != above);
        if member {
            below = Some(y);
        }
    }
    (1 + 3 * universe, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    #[test]
    fn the_model_replay_agrees_with_a_correct_run_and_catches_a_wrong_answer() {
        let w = &WORKLOADS[0];
        let keys = w.initial_keys(11);
        let ops = w.op_stream(11, 0, 20_000);
        let trie = LockFreeBinaryTrie::new(w.universe);
        for &k in &keys {
            trie.insert(k);
        }
        let mut set = &trie;
        let mut results: Vec<u32> = ops.iter().map(|&op| set.apply(op)).collect();
        let model = || keys.iter().copied().collect::<BTreeSet<u64>>();
        assert_eq!(replay(&mut model(), &ops, &results), 0);
        let mut seq = SeqBinaryTrie::new(w.universe);
        for &k in &keys {
            seq.insert(k);
        }
        assert_eq!(replay(&mut seq, &ops, &results), 0);

        let i = ops
            .iter()
            .position(|op| op.kind() == Kind::Predecessor)
            .expect("the stream has queries");
        results[i] = if results[i] == NONE { 0 } else { NONE };
        assert_eq!(replay(&mut model(), &ops, &results), 1);

        let mut final_keys = model();
        replay(&mut final_keys, &ops, &results);
        let final_keys: Vec<u64> = final_keys.into_iter().collect();
        assert_eq!(quiescent_pass(&trie, &final_keys).1, 0);
        let mut wrong = final_keys.clone();
        wrong.pop();
        assert!(quiescent_pass(&trie, &wrong).1 >= 2);
    }

    #[test]
    fn sanity_rejects_impossible_answers() {
        let (u, width) = (1024, 32);
        let pred = Op::new(Kind::Predecessor, 10);
        let succ = Op::new(Kind::Successor, 10);
        assert!(sane(pred, 9, u, width) && sane(pred, NONE, u, width));
        assert!(!sane(pred, 10, u, width) && !sane(pred, 11, u, width));
        assert!(sane(succ, 11, u, width) && sane(succ, NONE, u, width));
        assert!(!sane(succ, 10, u, width) && !sane(succ, 1024, u, width));
        assert!(!sane(Op::new(Kind::Insert, 3), 2, u, width));
        assert!(!sane(Op::new(Kind::Scan, 3), 33, u, width));
        assert_eq!(count_insane(&[pred, succ], &[10, 11], u, width), 1);
        assert!(sane_scan(&[3, 5, 9], 3, 9));
        assert!(!sane_scan(&[3, 3], 0, 9));
        assert!(!sane_scan(&[5, 4], 0, 9));
        assert!(!sane_scan(&[2, 5], 3, 9));
        assert!(!sane_scan(&[5, 10], 3, 9));
    }
}

//! Per-layer measurements of the traced run that are not taken from the
//! workload loop: the cost ladder and two microbenchmarks.

use std::hint::black_box;
use std::time::Instant;

use lftrie_baselines::SeqBinaryTrie;
use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie};
use lftrie_lists::{AnnounceList, Direction};
use lftrie_primitives::epoch;
use lftrie_telemetry as telemetry;

use crate::check::PointSet;
use crate::gen::{Kind, Op, Workload};
use crate::spans::SpanLog;
use crate::stats;

/// Point ops replayed on every rung.
pub const LADDER_OPS: usize = 1 << 17;

/// The ladder's outcome: ns per op on each rung (seq, relaxed, quiet,
/// lockfree), and the ops
/// whose answer differed from the sequential rung's.
pub struct Ladder {
    pub ns_per_op: [f64; 4],
    pub attempted: u64,
    pub failed: u64,
}

/// Replays `stream`'s point ops (scans dropped, at most [`LADDER_OPS`]) on
/// each rung, every rung loaded with `keys` first and off the clock.
pub fn ladder(w: &Workload, keys: &[u64], stream: &[Op], log: &mut SpanLog, parent: u64) -> Ladder {
    let ops: Vec<Op> = stream
        .iter()
        .copied()
        .filter(|op| op.kind() != Kind::Scan)
        .take(LADDER_OPS)
        .collect();
    let mut answers = vec![0u32; ops.len()];

    let mut seq = SeqBinaryTrie::new(w.universe);
    let relaxed = RelaxedBinaryTrie::new(w.universe);
    let quiet = LockFreeBinaryTrie::new(w.universe);
    let full = LockFreeBinaryTrie::new(w.universe);
    for &k in keys {
        seq.insert(k);
        relaxed.insert(k);
        quiet.insert(k);
        full.insert(k);
    }

    let mut replay = |name: &'static str, set: &mut dyn PointSet, out: &mut [u32]| {
        let start = Instant::now();
        for (&op, slot) in ops.iter().zip(out.iter_mut()) {
            *slot = set.apply(black_box(op));
        }
        let end = Instant::now();
        log.record(parent, name, -1, start, end);
        (end - start).as_nanos() as f64 / ops.len() as f64
    };

    let mut ns_per_op = [0.0; 4];
    ns_per_op[0] = replay("ladder.seq", &mut seq, &mut answers);
    let mut rung_answers = vec![0u32; ops.len()];
    let mut failed = 0;
    let tally = |rung: &[u32]| answers.iter().zip(rung).filter(|(a, b)| a != b).count() as u64;
    let mut relaxed = relaxed;
    ns_per_op[1] = replay("ladder.relaxed", &mut relaxed, &mut rung_answers);
    failed += tally(&rung_answers);
    telemetry::set_enabled(false);
    ns_per_op[2] = replay("ladder.quiet", &mut &quiet, &mut rung_answers);
    telemetry::set_enabled(true);
    failed += tally(&rung_answers);
    ns_per_op[3] = replay("ladder.lockfree", &mut &full, &mut rung_answers);
    failed += tally(&rung_answers);
    Ladder {
        ns_per_op,
        attempted: 4 * ops.len() as u64,
        failed,
    }
}

const MICRO_BATCHES: usize = 9;

/// Median over batches of the ns per call of `body`, each batch recorded as
/// a span named `name`.
fn micro(
    name: &'static str,
    per_batch: usize,
    log: &mut SpanLog,
    parent: u64,
    mut body: impl FnMut(usize),
) -> f64 {
    let mut per_call: Vec<f64> = (0..MICRO_BATCHES)
        .map(|_| {
            let start = Instant::now();
            body(per_batch);
            let end = Instant::now();
            log.record(parent, name, -1, start, end);
            (end - start).as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&mut per_call).expect("at least one batch")
}

/// ns of an `epoch::pin()` and the guard's drop, on an unpinned thread.
pub fn pin_ns(log: &mut SpanLog, parent: u64) -> f64 {
    micro("micro.pin", 100_000, log, parent, |n| {
        for _ in 0..n {
            drop(black_box(epoch::pin()));
        }
    })
}

/// ns of an `AnnounceList::insert` plus the `remove_all` that withdraws it,
/// under a pin held for a batch of 256 round trips.
pub fn announce_withdraw_ns(log: &mut SpanLog, parent: u64) -> f64 {
    let list = AnnounceList::<u64>::new(Direction::Ascending);
    let mut payload = 0u64;
    let payload: *mut u64 = &mut payload;
    let ns = micro("micro.announce_withdraw", 20_480, log, parent, |n| {
        for chunk in 0..n / 256 {
            let guard = epoch::pin();
            for i in 0..256 {
                let key = ((chunk * 256 + i) % 64) as i64;
                black_box(list.insert(key, payload, &guard));
                black_box(list.remove_all(key, payload, &guard));
            }
        }
    });
    list.flush_reclamation();
    ns
}

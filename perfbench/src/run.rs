//! Set-up and the closed-loop timed loops.

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lftrie_core::LockFreeBinaryTrie;
use lftrie_telemetry::{self as telemetry, Counter};

use crate::check::{self, PointSet};
use crate::gen::{Kind, Op, Workload};
use crate::spans::SpanLog;
use crate::stats::Samples;

/// Ops generated per worker. A worker that reaches the end before its time
/// is up starts the stream again.
pub const STREAM_LEN: usize = 1 << 20;

/// Latency classes. An insert or remove that changed the set is an
/// `INSERT` or a `REMOVE`; one that found nothing to do (insert of a present
/// key, remove of an absent one) is a `NOOP`. At density ½ the first two are
/// a quarter of update calls each and the third is half, and their costs
/// differ several-fold (on `resident` about 0.2 µs for a no-op, 0.8 µs for
/// an insert, 2.5 µs for a remove), so a median over any two of them would
/// sit in the gap between their modes and jump across it with sampling
/// noise.
pub const CONTAINS: usize = 0;
pub const INSERT: usize = 1;
pub const REMOVE: usize = 2;
pub const NOOP: usize = 3;
pub const QUERY: usize = 4;
pub const SCAN: usize = 5;

fn is_update(kind: Kind) -> bool {
    matches!(kind, Kind::Insert | Kind::Remove)
}

/// The latency class of an op that answered `r`.
fn class(kind: Kind, r: u32) -> usize {
    match kind {
        Kind::Contains => CONTAINS,
        Kind::Insert if r == 1 => INSERT,
        Kind::Remove if r == 1 => REMOVE,
        Kind::Insert | Kind::Remove => NOOP,
        Kind::Predecessor | Kind::Successor => QUERY,
        Kind::Scan => SCAN,
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Contains => "contains",
        Kind::Insert => "insert",
        Kind::Remove => "remove",
        Kind::Predecessor => "predecessor",
        Kind::Successor => "successor",
        Kind::Scan => "scan",
    }
}

/// What a traced loop adds: per-call spans, sweep attribution and gauge
/// samples.
pub struct Tracing {
    pub log: SpanLog,
    /// The span of the workload run every op span hangs under.
    pub parent: u64,
    /// Updates during which the `Sweeps` counter advanced, and their time.
    pub swept_updates: u64,
    pub swept_ns: u128,
    /// `(ns since the log origin, pending update nodes)`.
    pub pending: Vec<(u64, usize)>,
    next_sample: Instant,
}

const GAUGE_PERIOD: Duration = Duration::from_millis(100);

impl Tracing {
    pub fn new(log: SpanLog, parent: u64) -> Self {
        Tracing {
            log,
            parent,
            swept_updates: 0,
            swept_ns: 0,
            pending: Vec::new(),
            next_sample: Instant::now(),
        }
    }

    fn sample_gauges(&mut self, trie: &LockFreeBinaryTrie, now: Instant) {
        if now >= self.next_sample {
            self.next_sample = now + GAUGE_PERIOD;
            self.pending
                .push((self.log.at(now), node_health(trie).pending));
        }
    }
}

/// Reclamation health of the update-node registry.
pub fn node_health(trie: &LockFreeBinaryTrie) -> telemetry::ReclaimHealth {
    trie.telemetry()
        .reclaim
        .into_iter()
        .find(|h| h.label == "nodes")
        .expect("the trie reports its update-node registry")
}

fn sweeps() -> u64 {
    telemetry::counters().get(Counter::Sweeps)
}

/// One worker's measurements.
pub struct WorkerStats {
    pub samples: [Samples; 6],
    pub ops: u64,
    pub failed: u64,
    /// Keys returned by range scans.
    pub scan_keys: u64,
    /// Successful inserts minus successful removes.
    pub net_inserts: i64,
    /// Time spent inside the timed loop, checks excluded.
    pub measured: Duration,
}

impl WorkerStats {
    pub fn new() -> Self {
        WorkerStats {
            samples: std::array::from_fn(|_| Samples::new()),
            ops: 0,
            failed: 0,
            scan_keys: 0,
            net_inserts: 0,
            measured: Duration::ZERO,
        }
    }

    /// Ops per second of measured time.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.measured.as_secs_f64()
    }

    /// Adds `other`'s counts and samples; `measured` stays per worker.
    pub fn merge(&mut self, other: &WorkerStats) {
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            a.merge(b);
        }
        self.ops += other.ops;
        self.failed += other.failed;
        self.scan_keys += other.scan_keys;
        self.net_inserts += other.net_inserts;
    }
}

/// A result buffer of `STREAM_LEN` words, touched so that the loop faults
/// in no pages.
pub fn result_buffer() -> Vec<u32> {
    let mut buf = vec![0; STREAM_LEN];
    buf.fill(std::hint::black_box(0));
    buf
}

/// Creates the trie and loads `keys`, timing both.
pub fn setup(w: &Workload, keys: &[u64]) -> (LockFreeBinaryTrie, Duration) {
    let start = Instant::now();
    let trie = LockFreeBinaryTrie::new(w.universe);
    for &k in keys {
        trie.insert(k);
    }
    (trie, start.elapsed())
}

/// One worker's stream, answer buffer, measurements and, in a traced run,
/// tracing state.
pub struct Worker<'a> {
    pub ops: &'a [Op],
    pub results: &'a mut [u32],
    pub stats: &'a mut WorkerStats,
    pub tracing: Option<&'a mut Tracing>,
    /// The sequential model a lone worker's answers are replayed on. A
    /// worker without one, or a mix with scans, gets per-answer sanity
    /// checks instead.
    pub model: Option<&'a mut BTreeSet<u64>>,
    /// Where the next slice starts in `ops`.
    pub pos: usize,
}

impl Worker<'_> {
    /// Runs the ops from `pos` on in order until `deadline`, timing each
    /// call into the trie and storing each answer in `results` (a scan
    /// stores its key count after its keys pass [`check::sane_scan`]).
    /// Returns how many ops ran.
    fn pass(
        &mut self,
        trie: &LockFreeBinaryTrie,
        w: &Workload,
        pos: usize,
        deadline: Instant,
    ) -> usize {
        let mut set = trie;
        let stats = &mut *self.stats;
        for (i, (&op, slot)) in self.ops[pos..]
            .iter()
            .zip(&mut self.results[pos..])
            .enumerate()
        {
            let kind = op.kind();
            let before = if self.tracing.is_some() && is_update(kind) {
                sweeps()
            } else {
                0
            };
            let t0 = Instant::now();
            if t0 >= deadline {
                return i;
            }
            let (r, t1) = if kind == Kind::Scan {
                let (lo, hi) = w.scan_bounds(op.key());
                let keys = trie.range(lo..=hi);
                let t1 = Instant::now();
                stats.failed += u64::from(!check::sane_scan(&keys, lo, hi));
                stats.scan_keys += keys.len() as u64;
                (keys.len() as u32, t1)
            } else {
                let r = set.apply(op);
                (r, Instant::now())
            };
            let ns = (t1 - t0).as_nanos() as u64;
            *slot = r;
            stats.samples[class(kind, r)].record(ns);
            if let Some(tr) = self.tracing.as_deref_mut() {
                if is_update(kind) && sweeps() != before {
                    tr.swept_updates += 1;
                    tr.swept_ns += u128::from(ns);
                }
                tr.log
                    .record(tr.parent, span_name(kind), op.key() as i64, t0, t1);
                tr.sample_gauges(trie, t1);
            }
        }
        self.ops.len() - pos
    }

    /// Checks the answers of `ops[range]`: a replay on the model, or
    /// per-answer sanity and the insert/remove balance.
    fn check(&mut self, w: &Workload, range: Range<usize>) {
        let (ops, results) = (&self.ops[range.clone()], &self.results[range]);
        let stats = &mut *self.stats;
        stats.ops += ops.len() as u64;
        match self.model.as_deref_mut() {
            Some(model) => stats.failed += check::replay(model, ops, results),
            None => {
                stats.failed += check::count_insane(ops, results, w.universe, w.scan_width);
                stats.net_inserts += net_inserts(ops, results);
            }
        }
    }

    /// One slice of `len`: passes over the stream until the slice ends,
    /// each pass timed and then checked with the clock stopped.
    fn slice(&mut self, trie: &LockFreeBinaryTrie, w: &Workload, len: Duration) {
        let deadline = Instant::now() + len;
        loop {
            let start = Instant::now();
            let done = self.pass(trie, w, self.pos, deadline);
            self.stats.measured += start.elapsed();
            self.check(w, self.pos..self.pos + done);
            self.pos = (self.pos + done) % self.ops.len();
            if self.pos != 0 || done == 0 {
                return;
            }
        }
    }
}

/// Successful inserts minus successful removes.
fn net_inserts(ops: &[Op], results: &[u32]) -> i64 {
    ops.iter()
        .zip(results)
        .map(|(op, &r)| match op.kind() {
            Kind::Insert => i64::from(r),
            Kind::Remove => -i64::from(r),
            _ => 0,
        })
        .sum()
}

/// Longest measured time between two pauses.
const SLICE: Duration = Duration::from_millis(500);

/// Runs a closed loop of `workers`, each on a thread of its own, for
/// `budget` of measured time in equal slices of at most [`SLICE`]. Every
/// worker checks each slice's answers with its clock stopped; then, while
/// all workers wait, `pause` runs on the calling thread with the measured
/// time so far. A worker whose call into the trie panics counts one failed
/// op and sits out the remaining slices, so that the others are not left
/// waiting for it.
pub fn run_slices(
    trie: &LockFreeBinaryTrie,
    w: &Workload,
    workers: Vec<Worker<'_>>,
    budget: Duration,
    mut pause: impl FnMut(Duration),
) {
    let slices = budget.as_nanos().div_ceil(SLICE.as_nanos()).max(1) as u32;
    let len = budget / slices;
    let gate = Barrier::new(workers.len() + 1);
    std::thread::scope(|s| {
        for mut worker in workers {
            let gate = &gate;
            s.spawn(move || {
                let mut panicked = false;
                for _ in 0..slices {
                    gate.wait();
                    if !panicked {
                        panicked = panic::catch_unwind(AssertUnwindSafe(|| {
                            worker.slice(trie, w, len);
                        }))
                        .is_err();
                        worker.stats.failed += u64::from(panicked);
                    }
                    gate.wait();
                }
            });
        }
        for i in 1..=slices {
            gate.wait();
            gate.wait();
            pause(len * i);
        }
    });
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    let statm =
        std::fs::read_to_string("/proc/self/statm").expect("Linux exposes /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm's second field is the resident page count");
    pages * 4096
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;

    #[test]
    fn sliced_loops_check_every_answer_and_pause_between_slices() {
        for w in &WORKLOADS {
            let keys = w.initial_keys(5);
            let streams: Vec<Vec<Op>> = (0..w.workers).map(|i| w.op_stream(5, i, 4096)).collect();
            let mut results = vec![vec![0; 4096]; w.workers];
            let mut stats: Vec<WorkerStats> = (0..w.workers).map(|_| WorkerStats::new()).collect();
            let mut model: BTreeSet<u64> = keys.iter().copied().collect();
            let mut model_slot = (w.workers == 1).then_some(&mut model);
            let (trie, _) = setup(w, &keys);
            let workers = streams
                .iter()
                .zip(&mut results)
                .zip(&mut stats)
                .map(|((ops, results), stats)| Worker {
                    ops,
                    results,
                    stats,
                    tracing: None,
                    model: model_slot.take(),
                    pos: 0,
                })
                .collect();
            let mut pauses = Vec::new();
            let budget = Duration::from_millis(1200);
            run_slices(&trie, w, workers, budget, |m| pauses.push(m));
            assert_eq!(pauses.len(), 3, "{}", w.name);
            assert_eq!(*pauses.last().unwrap(), budget);
            for s in &stats {
                assert_eq!(s.failed, 0, "{}", w.name);
                assert!(s.ops > 4096, "{}: the stream wraps", w.name);
                assert!(
                    s.measured > budget / 2 && s.measured <= budget,
                    "{}",
                    w.name
                );
            }
            let net: i64 = stats.iter().map(|s| s.net_inserts).sum();
            let expected = if w.workers == 1 {
                model.len()
            } else {
                (keys.len() as i64 + net) as usize
            };
            assert_eq!(trie.collect_keys().len(), expected, "{}", w.name);
        }
    }

    #[test]
    fn a_panicking_call_fails_the_run_instead_of_hanging_it() {
        let w = &WORKLOADS[2];
        let (trie, _) = setup(w, &w.initial_keys(5));
        let streams = [
            w.op_stream(5, 0, 4096),
            vec![Op::new(Kind::Contains, w.universe)],
        ];
        let mut results = vec![vec![0; 4096]; 2];
        let mut stats = [WorkerStats::new(), WorkerStats::new()];
        let workers = streams
            .iter()
            .zip(&mut results)
            .zip(&mut stats)
            .map(|((ops, results), stats)| Worker {
                ops,
                results,
                stats,
                tracing: None,
                model: None,
                pos: 0,
            })
            .collect();
        let mut pauses = 0;
        run_slices(&trie, w, workers, Duration::from_millis(600), |_| {
            pauses += 1
        });
        assert_eq!(pauses, 2);
        assert_eq!((stats[0].failed, stats[1].failed), (0, 1));
        assert!(stats[0].ops > 4096);
    }
}

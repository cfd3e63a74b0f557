//! End-to-end and per-layer benchmark of the lock-free binary trie.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resident|sprawl|contended|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop: each worker issues its next op when the
//! previous one returns. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer ones, from a run that times each call
//! into the program and reads its public counters and gauges. Human-readable
//! lines come first; the last line of standard output is one JSON object.
//! The exit code is non-zero when any output fails its check.

mod check;
mod gen;
mod layers;
mod run;
mod spans;
mod stats;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lftrie_core::LockFreeBinaryTrie;
use lftrie_telemetry::{self as telemetry, Counter, CounterTotals};

use gen::{Kind, Op, Workload, WORKLOADS};
use run::{Tracing, WorkerStats, CONTAINS, INSERT, NOOP, QUERY, REMOVE, SCAN};
use spans::SpanLog;
use stats::Samples;

/// `setup_s` is the median of the set-ups of an untraced run: the one
/// before the loop, one in each pause between slices while set-ups have
/// taken less than `SETUP_SHARE` of the measured time so far, and more
/// after the loop until there are `SETUPS_MIN`.
const SETUPS_MIN: usize = 5;
const SETUP_SHARE: f64 = 0.25;
/// Op spans kept per worker in a traced run.
const SPAN_CAP: usize = 1 << 18;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![Workload::by_name(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    let number = |v: Option<String>, name: &str, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| format!("{name} must be a whole number, not {s}"))
        })
    };
    let seconds = number(seconds, "--seconds", 10)?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match number(trace, "--trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workloads,
        seed: number(seed, "--seed", 1)?,
        seconds,
        trace,
    })
}

/// One reported metric, with the base it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    base: String,
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base: base.into(),
        });
    }

    fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<10} {:<32} {:>14.4} {:<8} {}",
                m.name, m.value, m.unit, m.base
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{workload:<10} {:<32} {share:>14.3e} {:<8} {} of {} outputs failed their check",
            "failed_share", "ratio", self.failed, self.attempted
        );
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out + "}}"
    }
}

/// Everything generated from the seed before any timing starts.
struct Inputs {
    keys: Vec<u64>,
    streams: Vec<Vec<Op>>,
    results: Vec<Vec<u32>>,
}

impl Inputs {
    fn generate(w: &Workload, seed: u64) -> Self {
        Inputs {
            keys: w.initial_keys(seed),
            streams: (0..w.workers)
                .map(|i| w.op_stream(seed, i, run::STREAM_LEN))
                .collect(),
            results: (0..w.workers).map(|_| run::result_buffer()).collect(),
        }
    }
}

/// One set-up, timed loop and check of a workload.
struct Phase {
    /// All workers' measurements merged.
    stats: WorkerStats,
    /// Ops per second summed over the workers, each over its own measured
    /// time.
    rate: f64,
    setup: (Instant, Instant),
    rss_delta_bytes: f64,
    counters: (CounterTotals, CounterTotals),
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn throughput_kops(&self) -> f64 {
        self.rate / 1e3
    }

    fn delta(&self, c: Counter) -> u64 {
        self.counters.1.get(c) - self.counters.0.get(c)
    }
}

/// Sets the trie up, runs the closed loop for `budget` with `pause`
/// between slices, then checks every output: the model replay (single
/// worker, no scans) or per-answer sanity and conservation, and a quiescent
/// pass over every key. `tracing` is empty for an untraced run, else one
/// per worker. Returns the trie with the phase, for the caller to inspect
/// or drop.
fn run_phase(
    w: &'static Workload,
    inputs: &mut Inputs,
    budget: Duration,
    tracing: &mut [Tracing],
    pause: impl FnMut(Duration),
) -> (LockFreeBinaryTrie, Phase) {
    let modelled = w.workers == 1 && w.mix[Kind::Scan as usize] == 0;
    let mut model: BTreeSet<u64> = inputs.keys.iter().copied().collect();
    let mut per_worker: Vec<WorkerStats> = (0..w.workers).map(|_| WorkerStats::new()).collect();
    let rss0 = run::rss_bytes();
    let setup_start = Instant::now();
    let (trie, _) = run::setup(w, &inputs.keys);
    let setup = (setup_start, Instant::now());

    let c0 = telemetry::counters();
    let mut tracing_slots = tracing.iter_mut();
    let mut model_slot = modelled.then_some(&mut model);
    let workers = inputs
        .streams
        .iter()
        .zip(&mut inputs.results)
        .zip(&mut per_worker)
        .map(|((ops, results), stats)| run::Worker {
            ops,
            results,
            stats,
            tracing: tracing_slots.next(),
            model: model_slot.take(),
            pos: 0,
        })
        .collect();
    run::run_slices(&trie, w, workers, budget, pause);
    let c1 = telemetry::counters();
    let rss1 = run::rss_bytes();

    let mut stats = WorkerStats::new();
    for s in &per_worker {
        stats.merge(s);
    }
    let mut attempted = stats.ops;
    let mut failed = stats.failed;
    let expected: Vec<u64> = if modelled {
        model.into_iter().collect()
    } else {
        let keys = trie.collect_keys();
        attempted += 1;
        failed += u64::from(inputs.keys.len() as i64 + stats.net_inserts != keys.len() as i64);
        keys
    };
    let (a, f) = check::quiescent_pass(&trie, &expected);
    let phase = Phase {
        stats,
        rate: per_worker.iter().map(WorkerStats::rate).sum(),
        setup,
        rss_delta_bytes: rss1 as f64 - rss0 as f64,
        counters: (c0, c1),
        attempted: attempted + a,
        failed: failed + f,
    };
    (trie, phase)
}

/// `"n=…"` for a latency line, with the highest percentile that keeps at
/// least ten samples beyond it.
fn sample_base(s: &mut Samples) -> String {
    let n = s.count();
    let tail = stats::highest_supported_quantile(n)
        .and_then(|p| Some(format!(" {}={}", stats::quantile_label(p), s.quantile(p)?)))
        .unwrap_or_default();
    format!("n={n} mean={:.1}{tail}", s.mean())
}

/// Samples of the inserts and removes that changed the set.
fn set_changing(samples: &[Samples]) -> Samples {
    let mut both = Samples::new();
    both.merge(&samples[INSERT]);
    both.merge(&samples[REMOVE]);
    both
}

fn quantile_metric(r: &mut Report, name: &'static str, s: &mut Samples, p: f64) {
    let value = s.quantile(p).unwrap_or(0) as f64;
    let base = sample_base(s);
    r.add(name, value, "ns", base);
}

/// The untraced run: every end-to-end metric.
fn end_to_end(w: &'static Workload, seed: u64, seconds: u64) -> Report {
    let mut inputs = Inputs::generate(w, seed);
    let keys = inputs.keys.clone();
    let set_up = || run::setup(w, &keys).1.as_secs_f64();
    let mut setups = Vec::new();
    let (trie, mut phase) = run_phase(
        w,
        &mut inputs,
        Duration::from_secs(seconds),
        &mut [],
        |measured| {
            if setups.iter().sum::<f64>() < SETUP_SHARE * measured.as_secs_f64() {
                setups.push(set_up());
            }
        },
    );
    drop(trie);
    setups.push((phase.setup.1 - phase.setup.0).as_secs_f64());
    while setups.len() < SETUPS_MIN {
        setups.push(set_up());
    }

    let mut r = Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: Vec::new(),
    };
    r.add(
        "throughput_kops",
        phase.throughput_kops(),
        "kops/s",
        format!("ops={}, {} worker(s)", phase.stats.ops, w.workers),
    );
    let s = &mut phase.stats.samples;
    quantile_metric(&mut r, "contains_p50_ns", &mut s[CONTAINS], 0.5);
    quantile_metric(&mut r, "insert_p50_ns", &mut s[INSERT], 0.5);
    quantile_metric(&mut r, "remove_p50_ns", &mut s[REMOVE], 0.5);
    quantile_metric(&mut r, "query_p50_ns", &mut s[QUERY], 0.5);
    quantile_metric(&mut r, "update_p99_ns", &mut set_changing(s), 0.99);
    quantile_metric(&mut r, "query_p99_ns", &mut s[QUERY], 0.99);
    let n = setups.len();
    let setup_s = stats::median(&mut setups).expect("at least one set-up");
    r.add(
        "setup_s",
        setup_s,
        "s",
        format!(
            "median of {n} set-ups of {} keys, {:.4}..{:.4}",
            keys.len(),
            setups[0],
            setups[n - 1]
        ),
    );
    r
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: an untraced half for the baseline throughput and the
/// scheduler-exposed tails, a traced half with per-call spans, sweep
/// attribution and gauge samples, the final drain, the cost ladder and the
/// microbenchmarks. Writes the spans to `TRACE_DIR`.
fn per_layer(w: &'static Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let origin = Instant::now();
    let mut log = SpanLog::new(origin, 0, 1 << 12);
    let root = log.id();
    let half = Duration::from_secs(seconds) / 2;
    let mut inputs = Inputs::generate(w, seed);

    let phase_id = log.id();
    let (trie, mut plain) = run_phase(w, &mut inputs, half, &mut [], |_| ());
    drop(trie);
    log.record(phase_id, "setup", -1, plain.setup.0, plain.setup.1);
    log.push(
        phase_id,
        root,
        "untraced",
        -1,
        plain.setup.0,
        Instant::now(),
    );

    let phase_id = log.id();
    let mut tracing: Vec<Tracing> = (0..w.workers)
        .map(|i| Tracing::new(SpanLog::new(origin, i as u32 + 1, SPAN_CAP), phase_id))
        .collect();
    let (trie, traced) = run_phase(w, &mut inputs, half, &mut tracing, |_| ());
    log.record(phase_id, "setup", -1, traced.setup.0, traced.setup.1);
    let health = run::node_health(&trie);
    let drain_start = Instant::now();
    trie.collect_garbage();
    let drain_end = Instant::now();
    drop(trie);
    log.record(phase_id, "drain", -1, drain_start, drain_end);
    log.push(phase_id, root, "traced", -1, traced.setup.0, drain_end);

    let ladder = layers::ladder(w, &inputs.keys, &inputs.streams[0], &mut log, root);
    let pin_ns = layers::pin_ns(&mut log, root);
    let announce_ns = layers::announce_withdraw_ns(&mut log, root);
    log.push(root, 0, w.name, -1, origin, Instant::now());

    let mut swept_updates = 0;
    let mut swept_ns = 0;
    let mut pending = Vec::new();
    for tr in tracing {
        swept_updates += tr.swept_updates;
        swept_ns += tr.swept_ns;
        pending.extend(tr.pending.iter().copied());
        log.absorb(tr.log);
    }
    pending.sort_unstable();

    let mut r = Report {
        attempted: plain.attempted + traced.attempted + ladder.attempted,
        failed: plain.failed + traced.failed + ladder.failed,
        metrics: Vec::new(),
    };
    let t = &traced.stats;
    let updates: u64 = [INSERT, REMOVE, NOOP]
        .map(|c| t.samples[c].count())
        .iter()
        .sum();
    let update_ns: u128 = [INSERT, REMOVE, NOOP]
        .map(|c| t.samples[c].sum_ns())
        .iter()
        .sum();
    let d = |c| traced.delta(c) as f64;
    r.add(
        "reclaim.swept_update_share",
        ratio(swept_updates as f64, updates as f64),
        "ratio",
        format!("{swept_updates} of {updates} updates saw the Sweeps counter advance"),
    );
    r.add(
        "reclaim.swept_time_share",
        ratio(swept_ns as f64, update_ns as f64),
        "ratio",
        format!(
            "{:.3} of {:.3} ms of update time",
            swept_ns as f64 / 1e6,
            update_ns as f64 / 1e6
        ),
    );
    let unswept = updates - swept_updates;
    r.add(
        "reclaim.unswept_update_mean_ns",
        ratio((update_ns - swept_ns) as f64, unswept as f64),
        "ns",
        format!(
            "over {unswept} updates without a sweep; all updates: mean={:.1}",
            ratio(update_ns as f64, updates as f64)
        ),
    );
    r.add(
        "reclaim.sweeps_per_kop",
        ratio(d(Counter::Sweeps) * 1e3, t.ops as f64),
        "count",
        format!("{} sweeps over {} ops", d(Counter::Sweeps), t.ops),
    );
    let (first, last) = (
        pending.first().map_or(0, |p| p.1),
        pending.last().map_or(0, |p| p.1),
    );
    r.add(
        "reclaim.pending_nodes",
        health.pending as f64,
        "count",
        format!(
            "`nodes` pending gauge after the loop; {} samples from {first} to {last}",
            pending.len()
        ),
    );
    r.add(
        "reclaim.pending_drift_nodes",
        last as f64 - first as f64,
        "count",
        "last minus first periodic sample of the pending gauge",
    );
    r.add(
        "reclaim.drain_ms",
        (drain_end - drain_start).as_secs_f64() * 1e3,
        "ms",
        "one collect_garbage() after the traced loop",
    );
    r.add(
        "pool.recycle_ratio",
        ratio(health.recycled as f64, health.created() as f64),
        "ratio",
        format!(
            "{} recycled of {} update-node allocations",
            health.recycled,
            health.created()
        ),
    );
    let (adv, blocked) = (d(Counter::EpochAdvances), d(Counter::EpochAdvanceBlocked));
    r.add(
        "epoch.advance_success_ratio",
        ratio(adv, adv + blocked),
        "ratio",
        format!("{adv} advances, {blocked} refused"),
    );
    r.add(
        "epoch.pin_ns",
        pin_ns,
        "ns",
        "pin + drop, median of 9 batches of 100000",
    );
    let [seq, relaxed, quiet, full] = ladder.ns_per_op;
    let rung_base = format!(
        "{} point ops replayed single-threaded",
        ladder.attempted / 4
    );
    r.add("ladder.seq_ns_per_op", seq, "ns", rung_base.clone());
    r.add("ladder.relaxed_ns_per_op", relaxed, "ns", rung_base.clone());
    r.add(
        "ladder.quiet_ns_per_op",
        quiet,
        "ns",
        format!("{rung_base}, telemetry off"),
    );
    r.add("ladder.lockfree_ns_per_op", full, "ns", rung_base);
    r.add(
        "layer.relaxed_ns_per_op",
        relaxed - seq,
        "ns",
        "relaxed minus seq rung",
    );
    r.add(
        "layer.protocol_ns_per_op",
        quiet - relaxed,
        "ns",
        "quiet minus relaxed rung",
    );
    r.add(
        "layer.telemetry_ns_per_op",
        full - quiet,
        "ns",
        "lockfree minus quiet rung",
    );
    let queries = (t.samples[QUERY].count() + t.scan_keys) as f64;
    let query_base = format!("{queries} ordered queries (pred/succ ops plus scan keys)");
    r.add(
        "relaxed.touches_per_query",
        ratio(d(Counter::PredTouches) + d(Counter::SuccTouches), queries),
        "count",
        query_base.clone(),
    );
    r.add(
        "relaxed.touches_per_update",
        ratio(d(Counter::UpdateTouches), updates as f64),
        "count",
        format!("{updates} updates"),
    );
    r.add(
        "relaxed.bottom_ratio",
        ratio(d(Counter::RelaxedBottoms), queries),
        "ratio",
        query_base.clone(),
    );
    r.add(
        "trie.recoveries_per_kquery",
        ratio(d(Counter::Recoveries) * 1e3, queries),
        "count",
        query_base,
    );
    let p = &mut plain.stats;
    r.add(
        "scan.ns_per_key",
        ratio(p.samples[SCAN].sum_ns() as f64, p.scan_keys as f64),
        "ns",
        format!(
            "{} scans returned {} keys (untraced half)",
            p.samples[SCAN].count(),
            p.scan_keys
        ),
    );
    r.add(
        "lists.announce_withdraw_ns",
        announce_ns,
        "ns",
        "insert + remove_all under a pin, median of 9 batches",
    );
    quantile_metric(
        &mut r,
        "tail.update_p99_ns",
        &mut set_changing(&p.samples),
        0.99,
    );
    quantile_metric(&mut r, "update.noop_p50_ns", &mut p.samples[NOOP], 0.5);
    quantile_metric(&mut r, "tail.query_p99_ns", &mut p.samples[QUERY], 0.99);
    quantile_metric(&mut r, "scan.p50_ns", &mut p.samples[SCAN], 0.5);
    quantile_metric(&mut r, "tail.scan_p99_ns", &mut p.samples[SCAN], 0.99);
    r.add(
        "mem.rss_mib",
        plain.rss_delta_bytes / f64::from(1 << 20),
        "MiB",
        "RSS after the untraced loop minus RSS before its set-up",
    );
    r.add(
        "trace.overhead_ratio",
        traced.throughput_kops() / plain.throughput_kops(),
        "ratio",
        format!(
            "{:.1} traced over {:.1} untraced kops/s",
            traced.throughput_kops(),
            plain.throughput_kops()
        ),
    );

    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{seed}.json", w.name);
    std::fs::write(&path, log.to_chrome_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "# {} spans written to {path}, {} dropped past the per-worker cap",
        log.recorded(),
        log.dropped()
    );
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host: nproc={} rustc=\"{}\" seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut all_correct = true;
    for w in &args.workloads {
        let report = if args.trace {
            match per_layer(w, args.seed, args.seconds) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            end_to_end(w, args.seed, args.seconds)
        };
        report.print(w.name);
        println!("{}", report.json());
        all_correct &= report.failed == 0;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: some outputs failed their check");
        ExitCode::FAILURE
    }
}

//! Spans recorded by the benchmark around its calls into the program, kept
//! in memory and written out as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The op's key, or -1 where none applies.
    pub key: i64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded span buffer for one thread. Past its capacity it counts the
/// spans it drops instead of growing during a timed loop.
pub struct SpanLog {
    origin: Instant,
    thread: u32,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: u32, capacity: usize) -> Self {
        SpanLog {
            origin,
            thread,
            next: 0,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds from the origin to `t`.
    #[inline]
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id, unique across threads.
    #[inline]
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.thread) << 48) | self.next
    }

    /// Records a span that ran from `start` to `end` and returns its id.
    #[inline]
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        key: i64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.push(id, parent, name, key, start, end);
        id
    }

    /// Records a span under an id taken earlier with [`SpanLog::id`], for a
    /// parent whose children are recorded before it ends.
    #[inline]
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: i64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            thread: self.thread,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn recorded(&self) -> usize {
        self.spans.len()
    }

    /// Moves another thread's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// The spans as Chrome trace-event JSON (complete events, microsecond
    /// times), loadable in `chrome://tracing` or Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}{sep}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.key,
            );
        }
        let _ = writeln!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_full_log_counts_drops_and_exports_what_it_kept() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, 0, 2);
        let root = log.id();
        let later = origin + Duration::from_micros(3);
        log.record(root, "insert", 5, origin, later);
        log.push(root, 0, "run", -1, origin, later);
        log.record(root, "remove", 5, origin, later);
        assert_eq!((log.recorded(), log.dropped()), (2, 1));
        let mut worker = SpanLog::new(origin, 1, 1);
        assert_ne!(worker.id(), root);
        worker.record(root, "contains", 1, origin, later);
        log.absorb(worker);
        let json = log.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"dur\":3.000"));
        assert!(json.contains("\"dropped_spans\":1"));
    }
}

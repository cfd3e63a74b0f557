//! The benchmark's own seeded input generator.
//!
//! Op streams and initial sets come from a SplitMix64 generator defined
//! here, so neither the harness's workload module nor the vendored `rand`
//! stand-in can change them. The program under test only ever receives the
//! generated keys and ops.

/// SplitMix64 (Steele, Lea and Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of `seed`; streams with
    /// different ids (the initial set, each worker) do not overlap in
    /// practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n ≤ 2^32` (Lemire's multiply-shift; the bias
    /// is below 2^-32 per draw).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n <= 1 << 32);
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// Operation classes, in the order of [`Workload::mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Contains = 0,
    Insert = 1,
    Remove = 2,
    Predecessor = 3,
    Successor = 4,
    Scan = 5,
}

const KINDS: [Kind; 6] = [
    Kind::Contains,
    Kind::Insert,
    Kind::Remove,
    Kind::Predecessor,
    Kind::Successor,
    Kind::Scan,
];

const KEY_BITS: u32 = 24;

/// One generated operation: the class in the top bits, the key below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

impl Op {
    pub fn new(kind: Kind, key: u64) -> Self {
        assert!(key < 1 << KEY_BITS, "key {key} does not fit an op");
        Op(((kind as u32) << KEY_BITS) | key as u32)
    }

    pub fn kind(self) -> Kind {
        KINDS[(self.0 >> KEY_BITS) as usize]
    }

    pub fn key(self) -> u64 {
        u64::from(self.0 & ((1 << KEY_BITS) - 1))
    }
}

/// The fixed description of one workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub universe: u64,
    pub workers: usize,
    /// Percent of ops per [`Kind`], summing to 100.
    pub mix: [u64; 6],
    /// Percent of ops aimed at the lowest tenth of the keys; the rest are
    /// uniform over the other nine tenths. `None` means uniform keys.
    pub hot_percent: Option<u64>,
    /// Keys a range scan covers, `[y, y + scan_width)`.
    pub scan_width: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    // Fits in L2 and keeps the pending set small: protocol, pin and
    // announcement cost dominate.
    Workload {
        name: "resident",
        universe: 1 << 12,
        workers: 1,
        mix: [40, 15, 15, 15, 15, 0],
        hot_percent: None,
        scan_width: 32,
    },
    // Only the size differs from `resident`: the working set is beyond L2
    // and update time is dominated by registry sweeps over the pending set.
    Workload {
        name: "sprawl",
        universe: 1 << 16,
        workers: 1,
        mix: [40, 15, 15, 15, 15, 0],
        hot_percent: None,
        scan_width: 32,
    },
    // Overlapping announcements on a skewed key range: notify, recovery,
    // helping, refused epoch advances and scan slides.
    Workload {
        name: "contended",
        universe: 1 << 10,
        workers: 2,
        mix: [10, 20, 20, 20, 10, 20],
        hot_percent: Some(90),
        scan_width: 32,
    },
];

/// Stream ids, so that every input of a run draws from its own stream.
const INITIAL_STREAM: u64 = 0;
const WORKER_STREAM: u64 = 16;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The initial set: each key with probability ½, ascending.
    pub fn initial_keys(&self, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed, INITIAL_STREAM);
        (0..self.universe)
            .filter(|_| rng.next_u64() >> 63 == 1)
            .collect()
    }

    fn key(&self, rng: &mut Rng) -> u64 {
        match self.hot_percent {
            None => rng.below(self.universe),
            Some(hot) => {
                let cut = self.universe / 10;
                if rng.below(100) < hot {
                    rng.below(cut)
                } else {
                    cut + rng.below(self.universe - cut)
                }
            }
        }
    }

    /// `len` ops for `worker`: the class drawn from the mix, then the key.
    pub fn op_stream(&self, seed: u64, worker: usize, len: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, WORKER_STREAM + worker as u64);
        (0..len)
            .map(|_| {
                let mut roll = rng.below(100);
                let kind = KINDS
                    .iter()
                    .zip(self.mix)
                    .find(|&(_, share)| {
                        let hit = roll < share;
                        roll = roll.wrapping_sub(share);
                        hit
                    })
                    .map(|(&k, _)| k)
                    .expect("mix sums to 100");
                Op::new(kind, self.key(&mut rng))
            })
            .collect()
    }

    /// The inclusive bounds of a scan starting at `y`, clamped to the
    /// universe.
    pub fn scan_bounds(&self, y: u64) -> (u64, u64) {
        (y, (y + self.scan_width - 1).min(self.universe - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams() {
        for w in &WORKLOADS {
            assert_eq!(w.op_stream(7, 0, 10_000), w.op_stream(7, 0, 10_000));
            assert_eq!(w.initial_keys(7), w.initial_keys(7));
        }
    }

    #[test]
    fn different_seeds_and_workers_give_different_streams() {
        for w in &WORKLOADS {
            assert_ne!(w.op_stream(7, 0, 1000), w.op_stream(8, 0, 1000));
            assert_ne!(w.op_stream(7, 0, 1000), w.op_stream(7, 1, 1000));
            assert_ne!(w.initial_keys(7), w.initial_keys(8));
        }
    }

    #[test]
    fn streams_follow_the_mix_and_the_key_skew() {
        let n = 200_000;
        for w in &WORKLOADS {
            let ops = w.op_stream(3, 0, n);
            let mut counts = [0u64; 6];
            for op in &ops {
                assert!(op.key() < w.universe);
                counts[op.kind() as usize] += 1;
            }
            for (count, share) in counts.iter().zip(w.mix) {
                let got = *count as f64 / n as f64 * 100.0;
                assert!((got - share as f64).abs() < 0.5, "{}: {counts:?}", w.name);
            }
            let hot = ops.iter().filter(|op| op.key() < w.universe / 10).count();
            let want = w.hot_percent.unwrap_or(10) as f64;
            assert!(
                (hot as f64 / n as f64 * 100.0 - want).abs() < 0.5,
                "{}",
                w.name
            );
        }
        let keys = WORKLOADS[1].initial_keys(3);
        let half = WORKLOADS[1].universe as f64 / 2.0;
        assert!((keys.len() as f64 - half).abs() < half * 0.02);
    }

    #[test]
    fn ops_round_trip_their_class_and_key() {
        for (i, kind) in KINDS.iter().enumerate() {
            let op = Op::new(*kind, (1 << KEY_BITS) - 1 - i as u64);
            assert_eq!(op.kind(), *kind);
            assert_eq!(op.key(), (1 << KEY_BITS) - 1 - i as u64);
        }
    }
}

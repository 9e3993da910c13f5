//! Samples, percentiles and the run report every workload fills in.

use std::time::{Duration, Instant};

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// A set of measurements of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The latest sample (0 if none).
    pub fn last(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `p`-th percentile (0..=100), linearly interpolated between
    /// closest ranks; 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn p90(&self) -> f64 {
        self.pct(90.0)
    }

    /// Whether the set puts at least ten samples beyond its p90.
    pub fn tail_ok(&self) -> bool {
        self.0.len() >= 100
    }
}

/// A named measurement, as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or reading).
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: failures,
    /// attributions, per-run facts.
    pub notes: Vec<String>,
}

/// Failures printed in full; the rest are only counted.
const FAILURES_SHOWN: u64 = 20;

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// p50 under `name_p50` and p90 under `name_p90`, with a note when
    /// fewer than ten samples lie beyond the p90.
    pub fn latency(&mut self, base: &str, s: &Samples) {
        self.metric(format!("{base}_p50"), s.p50(), "ms", s.len());
        self.metric(format!("{base}_p90"), s.p90(), "ms", s.len());
        if !s.tail_ok() {
            self.note(format!(
                "{base}_p90 rests on {} samples (<10 beyond p90)",
                s.len()
            ));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation; a failed check is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= FAILURES_SHOWN {
                self.notes.push(format!("FAIL: {}", what()));
            }
        }
    }

    /// Note one end-to-end p50 split into layer self times. A layer's
    /// self time is its entry point's p50 minus that of the entry point
    /// below it; the remainder is what the layers measured do not
    /// account for.
    pub fn attribution(&mut self, name: &str, e2e: f64, parts: &[(&str, f64)]) {
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        self.note(format!("attribution of {name} = {e2e:.3} ms (untraced):"));
        for (layer, v) in parts {
            self.note(format!(
                "  {layer:<48} {v:>10.3} ms {:>6.1}%",
                100.0 * v / e2e
            ));
        }
        self.note(format!(
            "  {:<48} {:>10.3} ms {:>6.1}%  (attributed {:.1}%)",
            "unattributed",
            e2e - sum,
            100.0 * (e2e - sum) / e2e,
            100.0 * sum / e2e
        ));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// splitmix64: the benchmark's only source of input variation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_1db0_0b5e_55ed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A seeded permutation of `items`.
    pub fn shuffle<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Threads of this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Median of a few set-up timings, in seconds.
pub fn median_s(v: &[Duration]) -> f64 {
    let mut s = Samples::default();
    for d in v {
        s.push(d.as_secs_f64());
    }
    s.p50()
}

//! Shared plumbing: what a measured window returns, percentiles, set-up
//! timing, seeded draws and the process's memory high-water mark.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::Tracer;

/// Every per-layer metric the traced run reports, with its unit. A layer a
/// workload never enters reports 0. `perfbench/README.md` lists which
/// end-to-end metric each one should move, on which workload.
pub const LAYERS: &[(&str, &str)] = &[
    ("shard.locate_ns", "ns"),
    ("shard.apply_feed_ms", "ms"),
    ("network.pin_ns", "ns"),
    ("parallel.search_ms", "ms"),
    ("parallel.merge_ms", "ms"),
    ("parallel.merge_share", "ratio"),
    ("parallel.thread_balance", "ratio"),
    ("parallel.speedup", "x"),
    ("kernel.settled", "count"),
    ("kernel.self_pruned_ratio", "ratio"),
    ("kernel.relaxed", "count"),
    ("kernel.bucket_phases", "count"),
    ("kernel.lane_chunks", "count"),
    ("kernel.masked_prunes", "count"),
    ("partition.imbalance", "ratio"),
    ("s2s.search_ms", "ms"),
    ("s2s.settled", "count"),
    ("s2s.stop_pruned", "count"),
    ("s2s.table_pruned", "count"),
    ("s2s.kind.table_direct_share", "ratio"),
    ("s2s.kind.local_share", "ratio"),
    ("s2s.kind.global_share", "ratio"),
    ("s2s.kind.target_transfer_share", "ratio"),
    ("distance_table.build_s", "s"),
    ("distance_table.size_mib", "MiB"),
    ("distance_table.refresh_ms", "ms"),
    ("distance_table.rows_refreshed", "count"),
    ("wire.decode_us", "us"),
    ("wire.quarantined", "count"),
    ("driver.batches", "count"),
    ("driver.events_per_batch", "count"),
    ("driver.backlog_max", "count"),
    ("driver.backlog_trend", "1/s"),
    ("driver.coalesced", "count"),
    ("driver.apply_share", "ratio"),
    ("driver.visible_p50_ms", "ms"),
    ("driver.visible_p90_ms", "ms"),
    ("model.patch_ms", "ms"),
    ("network.apply_ms", "ms"),
    ("network.rebuild_ratio", "ratio"),
    ("network.routes_touched", "count"),
    ("network.routes_refit", "count"),
    ("network.publish_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("gateway.cross_ms", "ms"),
    ("gateway.rows_refreshed", "count"),
    ("gateway.border_groups", "count"),
    ("shadow.batches_checked", "count"),
    ("overhead.op_p50_ms", "ms"),
    ("overhead.op_p90_ms", "ms"),
    ("overhead.ops_per_s", "1/s"),
    ("overhead.setup_s", "s"),
    ("overhead.peak_rss_mib", "MiB"),
];

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    /// Latency of every foreground operation, in ms.
    pub op_ms: Vec<f64>,
    /// Wall time of the window, in s.
    pub wall_s: f64,
    /// `VmHWM` when the window closed, before the oracles run, in MiB.
    pub rss_mib: f64,
    /// Operations attempted: queries plus feed events.
    pub attempted: u64,
    /// Router errors, driver errors, quarantined lines, oracle and shadow
    /// mismatches.
    pub failed: u64,
    /// `false` when an oracle or shadow check failed, or the open-loop
    /// writer fell behind its schedule.
    pub correct: bool,
    /// The workload's own end-to-end figures under their serving names
    /// (`query_p50_ms`, `visible_p90_ms`, ...), printed for people.
    pub named: Vec<(String, &'static str, f64)>,
    /// Per-layer metrics (traced windows only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
    /// The window's span recorders (traced windows only).
    pub tracers: Vec<Tracer>,
}

impl Window {
    /// Closes the measured window that began at `start`: records its wall
    /// time and the memory high-water mark so far.
    pub fn close(&mut self, start: Instant) {
        self.wall_s = start.elapsed().as_secs_f64();
        self.rss_mib = peak_rss_mib();
    }

    /// Foreground operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.wall_s
    }

    /// Records a failed check: counts it and keeps the first few messages.
    pub fn fail(&mut self, msg: String) {
        self.fail_n(1, msg);
    }

    /// Records `count` failed operations under one message.
    pub fn fail_n(&mut self, count: u64, msg: String) {
        self.failed += count;
        self.correct = false;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED: {msg}"));
        }
    }
}

/// Nearest-rank percentile `q` (0..=100) of `xs`; 0 when empty.
pub fn pct(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 50.0)
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Worker threads for the parallel engines: the host's CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// Draws indices `0..n` with Zipf weights `1 / (rank + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("non-empty pool");
        let u = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

//! Host measurements and small numeric helpers: peak resident memory,
//! the measured parallel capacity, medians and FNV hashing.

use cocco::engine::{ChunkSize, Engine, EngineConfig};
use cocco::telemetry::Stopwatch;

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that keeps at least ten
/// samples beyond it, or `None` when `n` supports no tail beyond the
/// median.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Geometric mean of strictly positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a, for output signatures.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// Logical CPUs the OS reports (`available_parallelism`).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed amount of integer work whose result the caller keeps.
fn spin(iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..iterations {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// Wall nanoseconds for `workers` engine workers to run one calibrated
/// spin each through `Engine::dispatch`, median of `reps`.
fn spin_wall_ns(workers: u32, iterations: u64, reps: usize) -> f64 {
    let engine = Engine::new(
        EngineConfig::with_threads(workers)
            .with_parallel_threshold(0)
            .with_chunk(ChunkSize::Fixed(1)),
    );
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let sw = Stopwatch::start();
            engine.dispatch(workers as usize, |_| {
                std::hint::black_box(spin(iterations));
            });
            sw.elapsed_nanos() as f64
        })
        .collect();
    median(&walls)
}

/// Measured parallel capacity: how many single-worker spins' worth of
/// work `n` engine workers finish in the time one worker finishes one.
/// A host whose `n` CPUs truly run in parallel reads close to `n`.
pub fn parallel_capacity(n: usize) -> f64 {
    // Calibrate the spin to about 20 ms on one worker.
    let mut iterations = 1u64 << 16;
    loop {
        let sw = Stopwatch::start();
        std::hint::black_box(spin(iterations));
        if sw.elapsed_nanos() >= 2_000_000 || iterations >= 1 << 34 {
            break;
        }
        iterations *= 2;
    }
    iterations *= 10;
    let workers = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
    let one = spin_wall_ns(1, iterations, 5);
    let many = spin_wall_ns(workers, iterations, 5);
    f64::from(workers) * one / many
}

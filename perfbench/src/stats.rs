//! Order statistics over op latencies, and the seeded generator the op
//! sequences come from.

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Chunks a run's samples are split into.
pub const CHUNKS: usize = 10;

/// Splits samples, kept in the order they were taken, into `chunks`
/// consecutive runs of near-equal length and returns the mean of `f` over
/// them, after dropping the fifth of the chunk values that are highest and
/// the fifth that are lowest. The host this runs on alternates between
/// faster and slower phases lasting seconds; a statistic taken per chunk
/// sits inside one phase. Dropping the extremes ignores a phase that takes
/// up to a fifth of the run (a burst of scheduling stalls doubled a
/// chunk's p95), and the mean of the rest moves in proportion to the share
/// of the run a longer phase took, where one statistic over the whole run
/// would jump from one phase's value to the other's. A change to the code
/// moves every chunk alike.
pub fn chunk_mean(in_order: &[f64], chunks: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let n = in_order.len();
    let k = chunks.clamp(1, n.max(1));
    let mut values: Vec<f64> = (0..k)
        .map(|i| f(&in_order[i * n / k..(i + 1) * n / k]))
        .collect();
    values.sort_by(f64::total_cmp);
    let kept = &values[k / 5..k - k / 5];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Ops per second of op latency (milliseconds, in order), per chunk.
pub fn throughput(in_order_ms: &[f64]) -> f64 {
    chunk_mean(in_order_ms, CHUNKS, |c| {
        c.len() as f64 / (c.iter().sum::<f64>() / 1e3)
    })
}

/// The median, per chunk.
pub fn p50(in_order: &[f64]) -> f64 {
    chunk_mean(in_order, CHUNKS, median)
}

/// The `p`-th percentile, per chunk, over the most chunks (at most
/// `CHUNKS`) that each keep at least ten samples beyond it; one chunk, the
/// plain percentile, when only that does.
pub fn tail(in_order: &[f64], p: f64) -> f64 {
    chunk_mean(in_order, tail_chunks(in_order.len(), p), |c| {
        let mut v = c.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    })
}

/// The chunks `tail` takes the `p`-th percentile over, of `n` samples.
pub fn tail_chunks(n: usize, p: f64) -> usize {
    (1..=CHUNKS)
        .rev()
        .find(|&k| samples_beyond(n / k, p) >= 10)
        .unwrap_or(1)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: a small, fixed, seedable generator, so an op sequence is a
/// function of the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over bytes: a stable digest for comparing answers across runs
/// without keeping every page resident.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

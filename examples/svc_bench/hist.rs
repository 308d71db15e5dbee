//! Log-linear fixed-bucket latency histogram (std only).
//!
//! A sample in nanoseconds lands in the bucket named by its binary exponent
//! and its next [`SUB_BITS`] mantissa bits, so a bucket spans at most
//! 1/128 of its lower bound: a reported quantile is within 0.8 % of the
//! exact one for anything between 1 ns and 2^63 ns (centuries), with no
//! allocation per sample and a fixed 58 KiB footprint.

/// Mantissa bits kept per power of two.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every further power of two
/// gets `SUB` buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Samples that must lie beyond a quantile for it to be reported: with
/// fewer, the value is a property of a handful of outliers, not of the
/// distribution (choosing-metrics guide, section 1).
pub const MIN_BEYOND: u64 = 10;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let mantissa = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    SUB + (exp - SUB_BITS) as usize * SUB + mantissa
}

/// Midpoint of a bucket's value range.
fn value_of(bucket: usize) -> f64 {
    if bucket < SUB {
        return bucket as f64;
    }
    let exp = ((bucket - SUB) / SUB) as u32 + SUB_BITS;
    let mantissa = ((bucket - SUB) % SUB) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + mantissa * width;
    low as f64 + (width - 1) as f64 / 2.0
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (nearest-rank), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total.max(1));
        if self.total - rank.min(self.total) < MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(value_of(bucket));
            }
        }
        None
    }
}

/// The `q`-quantile (nearest-rank) of `samples`, exact: for sets small enough
/// to sort, where a bucket's midpoint would make runs of one program read
/// the same to the last digit.  Refuses like [`Histogram::quantile`].
pub fn exact_quantile(samples: &[u32], q: f64) -> Option<f64> {
    let total = samples.len() as u64;
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total.max(1));
    if total - rank.min(total) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(f64::from(sorted[rank as usize - 1]))
}

/// Checks every bucket boundary property the quantiles rely on and compares
/// quantiles against a sorted vector; returns a description of the first
/// violation.
pub fn selfcheck() -> Result<(), String> {
    // Bucketing is monotone and within the promised relative error.
    let mut probe = 1u64;
    let mut last = 0usize;
    while probe < 1 << 40 {
        let bucket = bucket_of(probe);
        if bucket < last {
            return Err(format!("bucket_of is not monotone at {probe}"));
        }
        last = bucket;
        let err = (value_of(bucket) - probe as f64).abs() / probe as f64;
        if err > 0.01 {
            return Err(format!("{probe} ns reads back {err:.4} off"));
        }
        probe += 1 + probe / 3;
    }
    if bucket_of(u64::MAX) >= BUCKETS {
        return Err("u64::MAX falls outside the table".into());
    }
    // Quantiles against a sorted vector: a skewed deterministic sample from
    // tens of ns to tens of ms.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut samples = Vec::new();
    let mut shuffled = Vec::new();
    let mut hist = Histogram::new();
    for _ in 0..50_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let ns = 40 + (state % 1000) * (1 + (state >> 20) % 40_000) / 7;
        samples.push(ns);
        shuffled.push(ns as u32);
        hist.record(ns);
    }
    samples.sort_unstable();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = (samples.len() as f64 * q).ceil() as usize;
        let exact = samples[rank - 1] as f64;
        let got = hist
            .quantile(q)
            .ok_or_else(|| format!("q={q} refused with {} samples", samples.len()))?;
        if (got - exact).abs() / exact > 0.01 {
            return Err(format!("q={q}: histogram {got} vs sorted {exact}"));
        }
        if exact_quantile(&shuffled, q) != Some(exact) {
            return Err(format!(
                "q={q}: exact_quantile disagrees with the sorted vector"
            ));
        }
    }
    // The refusal rule: p99 needs 1000 samples, p50 needs 20.
    let mut small = Histogram::new();
    for ns in 0..999 {
        small.record(1_000 + ns);
    }
    let few: Vec<u32> = (0..999).collect();
    if small.quantile(0.99).is_some()
        || small.quantile(0.5).is_none()
        || exact_quantile(&few, 0.99).is_some()
        || exact_quantile(&few, 0.5).is_none()
    {
        return Err("the ten-samples-beyond rule is not enforced".into());
    }
    Ok(())
}

//! Seeded input generation, latency histograms and the result format.

/// SplitMix64: a tiny seeded generator. Payload bytes and arrival times
/// come from it, so one seed always gives the same inputs.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An exponentially distributed gap with the given mean (Poisson
    /// arrivals), in the mean's unit.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 53 random bits in (0, 1]; ln of it is finite.
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -u.ln() * mean
    }
}

/// Sub-buckets per power of two: values are kept to within 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Covers values below 2^40 ns (18 minutes); larger ones are clamped.
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize + 1) * SUB as usize;

/// A fixed-size log-linear histogram of nanosecond values. Its memory does
/// not grow with the number of samples, so `peak_rss_mib` does not move
/// with run length or throughput.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let idx = (u64::from(shift) + 1) * SUB + ((v >> shift) - SUB);
        (idx as usize).min(BUCKETS - 1)
    }

    /// Lowest value and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((SUB + i % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// The `q` quantile (0..=1), interpolated by rank inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (low, width) = Self::bucket(i);
                return low + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// The median of `v` (which it sorts); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value rests on.
    pub samples: u64,
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "{p99}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn small_values_land_in_their_own_bucket() {
        let mut h = Histogram::default();
        h.record(3);
        let q = h.quantile(0.5);
        assert!((3.0..4.0).contains(&q), "{q}");
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mean: f64 = (0..100_000).map(|_| a.exp(500.0)).sum::<f64>() / 100_000.0;
        assert!((mean - 500.0).abs() < 10.0, "{mean}");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
            samples: 3,
        };
        assert_eq!(
            result_json(true, 4, 0, &[m]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}

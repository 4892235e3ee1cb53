//! Fixed-size log2-bucket histograms.
//!
//! The probe layer records distributions on the machine's hot path, so
//! histograms must be fixed-size and allocation-free: a [`Log2Hist`] is
//! 67 words inline, `record` is a `leading_zeros` and two adds, and
//! rendering (which may allocate) happens only at report time.

/// A power-of-two-bucket histogram over `u64` samples.
///
/// Bucket 0 counts zero samples; bucket `k >= 1` counts samples in
/// `[2^(k-1), 2^k)`. Sum and max ride along so reports can show exact
/// means next to the bucketed shape.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 65],
    sum: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Log2Hist {
        Log2Hist {
            buckets: [0; 65],
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist::default()
    }

    /// Records one sample. Allocation-free. The running sum saturates
    /// rather than overflowing on pathological inputs.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Reconstructs a histogram from its serialized parts: the
    /// `(lower_bound, count)` rows of [`Log2Hist::nonzero_buckets`] plus
    /// the exact sum and max — the inverse of the JSON emission, used
    /// when probed telemetry is restored from a sweep journal. Any
    /// in-range bound lands in the bucket that would have counted it,
    /// so round-tripping through bucket lower bounds is lossless.
    pub(crate) fn from_parts(
        buckets: impl IntoIterator<Item = (u64, u64)>,
        sum: u64,
        max: u64,
    ) -> Log2Hist {
        let mut h = Log2Hist {
            buckets: [0; 65],
            sum,
            max,
        };
        for (lo, n) in buckets {
            let k = (64 - lo.leading_zeros()) as usize;
            h.buckets[k] += n;
        }
        h
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)` in ascending order.
    /// Bucket `k`'s lower bound is `0` for `k = 0`, else `2^(k-1)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (if k == 0 { 0 } else { 1u64 << (k - 1) }, n))
    }

    /// Human label of the bucket whose lower bound is `lo`.
    pub fn bucket_label(lo: u64) -> String {
        if lo == 0 {
            "0".to_string()
        } else if lo == 1 {
            "1".to_string()
        } else {
            format!("{}-{}", lo, 2 * lo - 1)
        }
    }

    /// Appends `| name | bucket | count | share |` markdown rows, one
    /// per non-empty bucket, plus a summary row.
    pub fn markdown_rows(&self, name: &str, out: &mut String) {
        let total = self.count();
        if total == 0 {
            out.push_str(&format!("| {name} | (empty) | 0 | - |\n"));
            return;
        }
        for (lo, n) in self.nonzero_buckets() {
            out.push_str(&format!(
                "| {name} | {} | {n} | {:.1}% |\n",
                Log2Hist::bucket_label(lo),
                n as f64 / total as f64 * 100.0
            ));
        }
        out.push_str(&format!(
            "| {name} | mean {:.2}, max {} | {total} | 100% |\n",
            self.mean(),
            self.max
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = Log2Hist::new();
        for v in [0u64, 0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        let got: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            got,
            vec![
                (0, 2),
                (1, 1),
                (2, 2),
                (4, 2),
                (8, 1),
                (1024, 1),
                (1 << 63, 1)
            ]
        );
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn mean_and_merge() {
        let mut a = Log2Hist::new();
        a.record(2);
        a.record(4);
        let mut b = Log2Hist::new();
        b.record(6);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 12);
        assert!((a.mean() - 4.0).abs() < 1e-9);
        assert_eq!(a.max(), 6);
    }

    #[test]
    fn labels() {
        assert_eq!(Log2Hist::bucket_label(0), "0");
        assert_eq!(Log2Hist::bucket_label(1), "1");
        assert_eq!(Log2Hist::bucket_label(2), "2-3");
        assert_eq!(Log2Hist::bucket_label(64), "64-127");
    }

    #[test]
    fn json_shape() {
        let mut h = Log2Hist::new();
        for v in [1, 1, 2] {
            h.record(v);
        }
        assert_eq!(
            crate::codec::hist_summary_json(&h).render_compact(),
            r#"{"count":3,"sum":4,"max":2,"mean":1.333,"buckets":[[1,2],[2,1]]}"#
        );
    }
}

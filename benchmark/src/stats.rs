//! Order statistics for timing samples: median, quartiles, and the
//! highest percentile that still has at least ten samples beyond it.

/// Samples that must lie beyond a reported high percentile.
const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation between closest ranks at quantile `q` in [0, 1].
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The highest whole percentile with at least [`MIN_BEYOND`] samples
/// strictly beyond it, as `(percentile, value)`; `None` when even the
/// median has fewer (n < 21).
pub fn high_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    (51..100)
        .rev()
        .map(|p| (p, (v.len() * p as usize).div_ceil(100)))
        // `rank` samples sit at or below the percentile (nearest rank).
        .find(|&(_, rank)| rank >= 1 && v.len() - rank >= MIN_BEYOND)
        .map(|(p, rank)| (p, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.n, 5);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 65 cells: p84 -> rank 55, ten beyond; p85 -> rank 56, nine.
        assert_eq!(high_percentile(&samples(65)), Some((84, 55.0)));
        // 1000 samples: p99 has exactly ten beyond it.
        assert_eq!(high_percentile(&samples(1000)), Some((99, 990.0)));
        // 21 samples: p51 -> rank 11, ten beyond.
        assert_eq!(high_percentile(&samples(21)), Some((52, 11.0)));
        assert_eq!(high_percentile(&samples(20)), None);
    }
}

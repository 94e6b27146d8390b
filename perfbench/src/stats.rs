//! Order statistics shared by every workload.

/// Median of the samples (mean of the middle two for an even count);
/// 0.0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples above it,
/// with the share of samples at or below it. With ten or fewer samples no
/// such percentile exists and the maximum is reported (`level` = 1.0).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Fraction of samples at or below `value` (e.g. 0.9 for p90).
    pub level: f64,
}

/// See [`Tail`].
pub fn tail(samples: &[f64]) -> Tail {
    if samples.is_empty() {
        return Tail {
            value: 0.0,
            level: 1.0,
        };
    }
    let s = sorted(samples);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s[n - 1],
            level: 1.0,
        };
    }
    let rank = n - 10; // 1-based rank with exactly ten samples above it
    Tail {
        value: s[rank - 1],
        level: rank as f64 / n as f64,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 20.0);
        assert!((t.level - 20.0 / 30.0).abs() < 1e-12);
        let few = tail(&[5.0, 9.0, 1.0]);
        assert_eq!(few.value, 9.0);
        assert_eq!(few.level, 1.0);
    }
}

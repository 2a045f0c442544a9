//! Order statistics for latency samples and per-block rates.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` in (0, 100], reported only where at
/// least ten samples lie beyond it — a tail read off fewer samples is
/// one outlier, not a percentile.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() < rank + 10 {
        return None;
    }
    Some(v[rank - 1])
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank = ceil(0.9 * 200) = 180; 20 samples beyond.
        assert_eq!(tail_percentile(&v, 90.0), Some(180.0));
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 of n samples has n - ceil(0.9 n) beyond: 99 -> 9, 100 -> 10.
        let v99: Vec<f64> = (1..=99).map(f64::from).collect();
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v99, 90.0), None);
        assert_eq!(tail_percentile(&v100, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
        // p95 needs 200.
        assert_eq!(tail_percentile(&v100, 95.0), None);
    }
}

//! Order statistics of the timed repeats.

/// Quartiles, minimum and count of one sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub samples: usize,
}

/// Linear-interpolation quantile of a sorted slice (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarize `values`; all zeros when empty.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary::default();
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        min: v[0],
        samples: v.len(),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.samples),
            (2.0, 3.0, 4.0, 1.0, 5)
        );
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}

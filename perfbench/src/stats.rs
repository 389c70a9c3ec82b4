//! Order statistics for timing samples.

/// Percentiles the tail is chosen from, highest first, in per mille so
/// ranks are exact integer arithmetic. Fixed rungs keep the reported
/// percentile the same across runs whose sample counts stay inside one
/// band: 1000 to 9999 samples report p99, 100 to 999 p90, 40 to 99 p75.
pub const TAIL_LADDER: [usize; 5] = [999, 990, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (nearest rank).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it (nearest rank). Below
/// `2 * TAIL_BEYOND` samples no rung qualifies and the median is reported,
/// its smaller `beyond` saying so.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail { percentile: 50.0, value: 0.0, samples: 0, beyond: 0 };
    }
    let at = |per_mille: usize| {
        let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
        Tail {
            percentile: per_mille as f64 / 10.0,
            value: v[rank - 1],
            samples: n,
            beyond: n - rank,
        }
    };
    TAIL_LADDER.iter().map(|&p| at(p)).find(|t| t.beyond >= TAIL_BEYOND).unwrap_or_else(|| at(500))
}

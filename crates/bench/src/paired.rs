//! Paired timing evidence: the statistic a before/after claim is judged
//! by on a noisy host.
//!
//! Two builds are run in alternating pairs, so that each pair shares one
//! host mode; the per-pair ratio `b / a` cancels what the pair shares.  A
//! claim reports each side's median and interquartile range, the median of
//! the per-pair ratios, how many pairs `b` won, and a bootstrap 95 %
//! interval of that median: the verdict is resolved only when the interval
//! excludes 1.  Napoli et al. (PAPERS.md) is the method: a per-configuration
//! measurement that anyone can rerun.

/// The quartiles of `values` (linear interpolation between order
/// statistics): `(q1, median, q3)`.  All three are NaN for no values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let at = q * (n - 1) as f64;
            let (low, high) = (at.floor() as usize, at.ceil() as usize);
            sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
        }
    }
}

/// What a run of alternating pairs says about `b` against `a`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedEvidence {
    /// Pairs measured.
    pub pairs: usize,
    /// Median of the per-pair ratios `b / a`.
    pub ratio_median: f64,
    /// Bootstrap 95 % interval of that median: its 2.5th and 97.5th
    /// percentiles over resamples of the pairs.
    pub ratio_low: f64,
    /// See [`ratio_low`](Self::ratio_low).
    pub ratio_high: f64,
    /// Pairs in which `b` was better than `a`.
    pub wins: usize,
}

/// Resamples the bootstrap draws.
const BOOTSTRAP_RESAMPLES: usize = 10_000;

/// The evidence of index-aligned pairs `a[i]`, `b[i]` of one metric, which
/// is better higher or lower as `higher_is_better` says.  The bootstrap is
/// seeded, so one set of pairs always yields one interval.
///
/// # Panics
///
/// Panics unless `a` and `b` have the same, non-zero length.
pub fn paired_evidence(a: &[f64], b: &[f64], higher_is_better: bool) -> PairedEvidence {
    assert_eq!(a.len(), b.len(), "pairs have two sides");
    assert!(!a.is_empty(), "evidence needs a pair");
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
    let wins = a
        .iter()
        .zip(b)
        .filter(|&(a, b)| if higher_is_better { b > a } else { b < a })
        .count();
    let mut state = 0x5EED_5A17_u64;
    let mut resample = vec![0.0; ratios.len()];
    let mut medians: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            for slot in &mut resample {
                *slot = ratios[(splitmix64(&mut state) % ratios.len() as u64) as usize];
            }
            quartiles(&resample).1
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    PairedEvidence {
        pairs: ratios.len(),
        ratio_median: quartiles(&ratios).1,
        ratio_low: quantile(&medians, 0.025),
        ratio_high: quantile(&medians, 0.975),
        wins,
    }
}

/// SplitMix64: a seeded stream of well-mixed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(quartiles(&[]).1.is_nan());
    }

    #[test]
    fn a_uniform_gain_wins_every_pair_with_a_tight_interval() {
        let a = [100.0, 80.0, 120.0, 90.0, 110.0, 95.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        let higher = paired_evidence(&a, &b, true);
        assert_eq!(higher.wins, 6);
        assert!((higher.ratio_median - 1.5).abs() < 1e-12);
        assert!((higher.ratio_low - 1.5).abs() < 1e-12);
        assert!((higher.ratio_high - 1.5).abs() < 1e-12);
        // The same pairs judged as a cost: `b` lost every one.
        assert_eq!(paired_evidence(&a, &b, false).wins, 0);
    }

    #[test]
    fn the_interval_brackets_the_median_and_repeats() {
        let a = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let b = [9.0, 12.0, 10.5, 11.0, 8.0, 13.0, 10.0, 11.5];
        let evidence = paired_evidence(&a, &b, true);
        assert!(evidence.ratio_low <= evidence.ratio_median);
        assert!(evidence.ratio_median <= evidence.ratio_high);
        assert!(evidence.ratio_low < 1.0, "a mixed run does not resolve");
        assert_eq!(evidence.wins, 5);
        assert_eq!(paired_evidence(&a, &b, true), evidence);
    }
}

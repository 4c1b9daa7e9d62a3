//! Nearest-rank quantiles over exact samples.

/// The nearest-rank `q`-quantile of `sorted` (ascending): the sample at
/// rank `ceil(q·n)`, clamped to `[1, n]`, so every answer is an
/// observed value. `q` is clamped to `[0, 1]`. `None` with no samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_empty() {
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_observation() {
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[55], q), Some(55), "q={q}");
        }
    }

    #[test]
    fn quantile_endpoints() {
        let xs: Vec<u64> = (1..=100).collect();
        // q = 0 is rank 1 (the minimum), q = 1 rank n (the maximum).
        assert_eq!(nearest_rank(&xs, 0.0), Some(1));
        assert_eq!(nearest_rank(&xs, 1.0), Some(100));
    }

    #[test]
    fn quantile_out_of_range_saturates() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, -0.5), nearest_rank(&xs, 0.0));
        assert_eq!(nearest_rank(&xs, 1.5), nearest_rank(&xs, 1.0));
        assert_eq!(nearest_rank(&xs, f64::NEG_INFINITY), Some(1));
        assert_eq!(nearest_rank(&xs, f64::INFINITY), Some(100));
        assert_eq!(nearest_rank(&xs, f64::NAN), Some(1));
    }

    #[test]
    fn quantiles_uniform() {
        let xs: Vec<u64> = (1..=10_000).collect();
        // Rank ceil(q·n): exact on a grid, the next sample above it
        // otherwise.
        assert_eq!(nearest_rank(&xs, 0.5), Some(5_000));
        assert_eq!(nearest_rank(&xs, 0.99), Some(9_900));
        assert_eq!(nearest_rank(&xs, 0.99001), Some(9_901));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_quantiles_monotone(
                xs in proptest::collection::vec(0u64..1_000_000, 1..500),
            ) {
                let mut xs = xs;
                xs.sort_unstable();
                let mut last = 0;
                for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                    let v = nearest_rank(&xs, q).unwrap();
                    prop_assert!(v >= last, "q={} fell: {} < {}", q, v, last);
                    prop_assert!(xs.binary_search(&v).is_ok(), "{} is not a sample", v);
                    last = v;
                }
            }
        }
    }
}

//! Bounded sequence numbering (§2.3, §3.3).
//!
//! LAMS-DLC's numbering size is bounded by the resolving period: a frame
//! is either resolved (acknowledged or renumbered-and-retransmitted)
//! within `R + W_cp/2 + C_depth·W_cp`, or the sender halts. At most
//! `resolving_period / t_f` frames can therefore be outstanding, and a
//! modulus of twice that uniquely identifies every unresolved frame — the
//! same ½-window rule as selective-repeat, but with a *bounded* window
//! where HDLC's holding time (and hence numbering requirement) is
//! unbounded under repeated ACK loss.
//!
//! Both protocols number frames internally with monotone `u64` logical
//! numbers; [`compress`] reduces them to the wire field and [`expand`]
//! recovers the logical value at the receiver using the highest number
//! seen so far as a reference. Both wire codecs call these two.

/// Reduce a logical sequence number to its wire representation.
#[inline]
pub fn compress(logical: u64, modulus: u64) -> u32 {
    debug_assert!(modulus > 1 && modulus <= u32::MAX as u64 + 1);
    (logical % modulus) as u32
}

/// Recover the logical sequence number closest to `reference` that is
/// congruent to `wire` modulo `modulus`.
///
/// Correct whenever the true logical value lies within `modulus / 2` of
/// `reference` — guaranteed by the resolving-period bound.
#[inline]
pub fn expand(wire: u32, reference: u64, modulus: u64) -> u64 {
    debug_assert!((wire as u64) < modulus);
    let base = reference / modulus * modulus;
    // A candidate that would pass u64::MAX does not exist.
    let candidates = [
        base.checked_sub(modulus),
        Some(base),
        base.checked_add(modulus),
    ];
    candidates
        .into_iter()
        .flatten()
        .filter_map(|b| b.checked_add(wire as u64))
        .min_by_key(|&c| c.abs_diff(reference))
        .expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn compress_wraps() {
        assert_eq!(compress(0, 256), 0);
        assert_eq!(compress(255, 256), 255);
        assert_eq!(compress(256, 256), 0);
        assert_eq!(compress(1000, 256), (1000 % 256) as u32);
    }

    #[test]
    fn expand_exact_at_reference() {
        for m in [16u64, 256, 1024] {
            for logical in [0u64, 5, m - 1, m, 3 * m + 7] {
                let w = compress(logical, m);
                assert_eq!(expand(w, logical, m), logical);
            }
        }
    }

    #[test]
    fn expand_within_half_window() {
        let m = 256u64;
        let reference = 10_000u64;
        for offset in -127i64..=127 {
            let logical = (reference as i64 + offset) as u64;
            let w = compress(logical, m);
            assert_eq!(expand(w, reference, m), logical, "offset {offset}");
        }
    }

    #[test]
    fn expand_near_zero() {
        // Reference near zero must not underflow.
        let m = 64u64;
        for logical in 0..32u64 {
            let w = compress(logical, m);
            assert_eq!(expand(w, 0, m), logical);
            assert_eq!(expand(w, 10, m), logical);
        }
    }

    #[test]
    fn expand_near_the_top_does_not_overflow() {
        let m = 2048u64;
        let reference = u64::MAX - 3;
        assert_eq!(expand(compress(reference, m), reference, m), reference);
        // The nearest congruent value lies past u64::MAX: take the one below.
        assert_eq!(expand(5, reference, m), u64::MAX - 2042);
        // An odd modulus too.
        assert_eq!(expand(2, u64::MAX, 3), u64::MAX - 1);
    }

    #[test]
    fn ambiguity_outside_half_window() {
        // Beyond modulus/2 the mapping must (by design) pick the nearer
        // congruent value — demonstrating why modulus ≥ 2 × outstanding.
        let m = 16u64;
        let reference = 100u64;
        let logical = reference + m / 2 + 1; // 109 ≡ 13; 93 is nearer to 100
        let w = compress(logical, m);
        assert_ne!(expand(w, reference, m), logical);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_within_window(
            reference in 0u64..1_000_000_000,
            offset in -500i64..=500,
            modulus_pow in 11u32..20,
        ) {
            let m = 1u64 << modulus_pow; // ≥ 2048 > 2*500
            let logical = if offset < 0 {
                reference.saturating_sub((-offset) as u64)
            } else {
                reference + offset as u64
            };
            let w = compress(logical, m);
            prop_assert_eq!(expand(w, reference, m), logical);
        }

        #[test]
        fn prop_expand_is_congruent(
            wire in 0u32..1024,
            reference in 0u64..1_000_000,
        ) {
            let m = 1024u64;
            let e = expand(wire, reference, m);
            prop_assert_eq!(e % m, wire as u64);
            // And within half a modulus of the reference.
            prop_assert!(e.abs_diff(reference) <= m);
        }
    }
}

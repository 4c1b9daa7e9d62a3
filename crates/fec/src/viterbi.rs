//! Hard-decision Viterbi decoder for the rate-1/2 convolutional codes in
//! [`crate::conv`].
//!
//! Standard add-compare-select over the full received block with traceback
//! at the end. The encoder zero-terminates, so decoding starts and ends in
//! state 0. Complexity is `O(n_states · n_bits)` time and memory — fine for
//! the frame sizes in this workspace (≤ a few kB).

use crate::bits::BitBuf;
use crate::conv::ConvCode;

/// Decoder for one [`ConvCode`].
pub struct Viterbi {
    code: ConvCode,
    /// For each state and input bit: (next_state, expected symbol).
    transitions: Vec<[(u32, u8); 2]>,
}

impl Viterbi {
    /// Build the trellis for `code`.
    pub fn new(code: ConvCode) -> Self {
        let n = code.num_states();
        let mut transitions = Vec::with_capacity(n);
        for state in 0..n as u32 {
            transitions.push([code.step(state, false), code.step(state, true)]);
        }
        Viterbi { code, transitions }
    }

    /// The code this decoder was built for.
    pub fn code(&self) -> &ConvCode {
        &self.code
    }

    /// Decode `received` (a possibly corrupted output of
    /// [`ConvCode::encode`]) back to the original message bits, stripping
    /// the zero tail. Returns `None` if the received length is not an even
    /// number of symbols or is shorter than the tail.
    pub fn decode(&self, received: &BitBuf) -> Option<BitBuf> {
        if !received.len().is_multiple_of(2) {
            return None;
        }
        let n_sym = received.len() / 2;
        let tail = (self.code.constraint - 1) as usize;
        if n_sym < tail {
            return None;
        }
        let n_states = self.code.num_states();
        const INF: u32 = u32::MAX / 2;

        let mut metric = vec![INF; n_states];
        metric[0] = 0; // encoder starts in state 0
        let mut next_metric = vec![INF; n_states];
        // survivors[t][s] = (previous state, input bit) best path into s at t+1.
        let mut survivors: Vec<Vec<(u32, bool)>> = vec![vec![(0, false); n_states]; n_sym];

        for (t, surv) in survivors.iter_mut().enumerate() {
            let r1 = received.get(2 * t) as u8;
            let r2 = received.get(2 * t + 1) as u8;
            let r_sym = (r1 << 1) | r2;
            next_metric.fill(INF);
            for (state, &m) in metric.iter().enumerate() {
                if m >= INF {
                    continue;
                }
                for (input, &(next, sym)) in self.transitions[state].iter().enumerate() {
                    let branch = (sym ^ r_sym).count_ones();
                    let cand = m + branch;
                    if cand < next_metric[next as usize] {
                        next_metric[next as usize] = cand;
                        surv[next as usize] = (state as u32, input == 1);
                    }
                }
            }
            core::mem::swap(&mut metric, &mut next_metric);
        }

        // Zero-terminated: trace back from state 0.
        let mut state = 0u32;
        let mut bits_rev = Vec::with_capacity(n_sym);
        for t in (0..n_sym).rev() {
            let (prev, input) = survivors[t][state as usize];
            bits_rev.push(input);
            state = prev;
        }
        bits_rev.reverse();
        bits_rev.truncate(n_sym - tail); // drop the tail bits
        Some(bits_rev.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::CCSDS_K7;
    use rand::{RngExt, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let v = Viterbi::new(CCSDS_K7);
        let input = BitBuf::from_bytes(data);
        let enc = CCSDS_K7.encode(&input);
        let dec = v.decode(&enc).expect("decode");
        assert_eq!(dec, input);
    }

    #[test]
    fn clean_channel_roundtrip() {
        roundtrip(&[0x00]);
        roundtrip(&[0xFF]);
        roundtrip(&[0xDE, 0xAD, 0xBE, 0xEF]);
        roundtrip(&(0..=255u8).collect::<Vec<_>>());
    }

    #[test]
    fn corrects_scattered_errors() {
        // The K=7 code has free distance 10: it corrects any pattern of up
        // to 2 errors in a block and scattered denser patterns if spaced.
        let v = Viterbi::new(CCSDS_K7);
        let input = BitBuf::from_bytes(&[0x5A, 0xC3, 0x0F, 0x99]);
        let enc = CCSDS_K7.encode(&input);
        // Flip every 20th coded bit (well separated).
        let mut corrupted = enc.clone();
        let mut i = 3;
        while i < corrupted.len() {
            corrupted.toggle(i);
            i += 20;
        }
        let dec = v.decode(&corrupted).expect("decode");
        assert_eq!(dec, input, "scattered errors not corrected");
    }

    #[test]
    fn corrects_any_double_error() {
        let v = Viterbi::new(CCSDS_K7);
        let input = BitBuf::from_bytes(&[0xA7, 0x31]);
        let enc = CCSDS_K7.encode(&input);
        // Exhaustive over a subsample of pairs to keep runtime sane.
        let n = enc.len();
        for i in (0..n).step_by(3) {
            for j in ((i + 1)..n).step_by(5) {
                let mut corrupted = enc.clone();
                corrupted.toggle(i);
                corrupted.toggle(j);
                let dec = v.decode(&corrupted).expect("decode");
                assert_eq!(dec, input, "failed for flips at ({i},{j})");
            }
        }
    }

    #[test]
    fn dense_burst_defeats_code_without_interleaving() {
        // Motivates the interleaver: a long contiguous burst exceeds the
        // code's correction span and causes a decode error.
        let v = Viterbi::new(CCSDS_K7);
        let input = BitBuf::from_bytes(&[0x12, 0x34, 0x56, 0x78]);
        let enc = CCSDS_K7.encode(&input);
        let mut corrupted = enc.clone();
        for i in 10..40 {
            corrupted.toggle(i);
        }
        let dec = v.decode(&corrupted).expect("decode returns bits");
        assert_ne!(dec, input, "a 30-bit burst should not be correctable bare");
    }

    #[test]
    fn rejects_odd_length() {
        let v = Viterbi::new(CCSDS_K7);
        let odd = BitBuf::from_bits(&[true; 15]);
        assert!(v.decode(&odd).is_none());
    }

    #[test]
    fn rejects_too_short() {
        let v = Viterbi::new(CCSDS_K7);
        let short = BitBuf::from_bits(&[true; 4]);
        assert!(v.decode(&short).is_none());
    }

    #[test]
    fn random_blocks_with_light_noise() {
        let v = Viterbi::new(CCSDS_K7);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let data: Vec<u8> = (0..32).map(|_| rng.random()).collect();
            let input = BitBuf::from_bytes(&data);
            let enc = CCSDS_K7.encode(&input);
            let mut corrupted = enc.clone();
            // BER 0.5%: occasional isolated flips; should be corrected.
            for i in 0..corrupted.len() {
                if rng.random_range(0..1000) < 5 {
                    corrupted.toggle(i);
                }
            }
            let dec = v.decode(&corrupted).expect("decode");
            assert_eq!(dec, input);
        }
    }
}

//! Circuit equivalence checking.
//!
//! The ablation experiments repeatedly need "same function, different
//! hardware" claims (prefix vs ripple adders, combinational vs
//! time-multiplexed dispatch). This module provides the two standard
//! checks: exhaustive equivalence for circuits with few inputs (64-lane
//! packed sweep over all `2^i` input vectors) and seeded random
//! differential testing beyond that.

use crate::circuit::Circuit;
use crate::eval::Evaluator;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Proven equal on every input (exhaustive check).
    EqualExhaustive,
    /// Equal on all sampled inputs (random check; not a proof).
    EqualSampled {
        /// Number of vectors tested.
        trials: usize,
    },
    /// A concrete input on which the circuits differ (little-endian bit
    /// `i` = input `i`).
    Differs {
        /// The distinguishing input vector.
        witness: Vec<bool>,
    },
}

/// Lane word of input `i < 6` over vectors `0..64`: bit `v` is bit `i`
/// of `v`.
const LOW_INPUT_LANES: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Lane words of the exhaustive batch of vectors `base..base + count`
/// (`base` a multiple of 64, `count ≤ 64`; little-endian bit `i` of a
/// vector = input `i`): inputs below 6 take the fixed pattern of bit
/// `i` of the lane index, trimmed to the live lanes, and higher inputs
/// broadcast bit `i` of `base`, the same in every lane.
fn exhaustive_lanes(base: u64, count: u64, packed: &mut [u64]) {
    debug_assert!(base % 64 == 0 && (1..=64).contains(&count));
    let live = u64::MAX >> (64 - count);
    for (i, lane) in packed.iter_mut().enumerate() {
        *lane = match LOW_INPUT_LANES.get(i) {
            Some(&pattern) => pattern & live,
            None => 0u64.wrapping_sub(base >> i & 1),
        };
    }
}

fn interfaces_match(a: &Circuit, b: &Circuit) {
    assert_eq!(a.n_inputs(), b.n_inputs(), "input arity mismatch");
    assert_eq!(a.n_outputs(), b.n_outputs(), "output arity mismatch");
}

/// Exhaustively compares two circuits over all `2^i` inputs
/// (`i = n_inputs ≤ 26`), packed 64 vectors per pass.
///
/// ```
/// use absort_circuit::{Builder, equiv};
///
/// let build = |swap: bool| {
///     let mut b = Builder::new();
///     let x = b.input();
///     let y = b.input();
///     let o = if swap { b.or(y, x) } else { b.or(x, y) };
///     b.outputs(&[o]);
///     b.finish()
/// };
/// assert_eq!(
///     equiv::check_exhaustive(&build(false), &build(true)),
///     equiv::Equivalence::EqualExhaustive
/// );
/// ```
pub fn check_exhaustive(a: &Circuit, b: &Circuit) -> Equivalence {
    interfaces_match(a, b);
    let i = a.n_inputs();
    assert!(
        i <= 26,
        "exhaustive equivalence limited to 26 inputs, got {i}"
    );
    let total = 1u64 << i;
    let mut eva: Evaluator<'_, u64> = Evaluator::new(a);
    let mut evb: Evaluator<'_, u64> = Evaluator::new(b);
    let mut base = 0u64;
    let mut packed = vec![0u64; i];
    while base < total {
        let count = (total - base).min(64);
        exhaustive_lanes(base, count, &mut packed);
        let oa = eva.run(&packed);
        let ob = evb.run(&packed);
        let mut diff = 0u64;
        for (x, y) in oa.iter().zip(&ob) {
            diff |= x ^ y;
        }
        if count < 64 {
            diff &= (1u64 << count) - 1;
        }
        if diff != 0 {
            let v = base + diff.trailing_zeros() as u64;
            let witness = (0..i).map(|w| v >> w & 1 == 1).collect();
            return Equivalence::Differs { witness };
        }
        base += count;
    }
    Equivalence::EqualExhaustive
}

/// Compares two circuits on `trials` seeded pseudo-random inputs
/// (splitmix64 stream; deterministic for a given seed).
pub fn check_random(a: &Circuit, b: &Circuit, trials: usize, seed: u64) -> Equivalence {
    interfaces_match(a, b);
    let i = a.n_inputs();
    let mut eva: Evaluator<'_, bool> = Evaluator::new(a);
    let mut evb: Evaluator<'_, bool> = Evaluator::new(b);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for _ in 0..trials {
        let input: Vec<bool> = (0..i).map(|_| next() & 1 == 1).collect();
        if eva.run(&input) != evb.run(&input) {
            return Equivalence::Differs { witness: input };
        }
    }
    Equivalence::EqualSampled { trials }
}

/// Convenience: exhaustive when feasible (≤ 20 inputs), random otherwise.
pub fn check(a: &Circuit, b: &Circuit, random_trials: usize, seed: u64) -> Equivalence {
    if a.n_inputs() <= 20 {
        check_exhaustive(a, b)
    } else {
        check_random(a, b, random_trials, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::component::GateOp;

    fn xor3(order: [usize; 3]) -> Circuit {
        let mut b = Builder::new();
        let ins = b.input_bus(3);
        let t = b.xor(ins[order[0]], ins[order[1]]);
        let o = b.xor(t, ins[order[2]]);
        b.outputs(&[o]);
        b.finish()
    }

    #[test]
    fn commuted_xor_is_equivalent() {
        let a = xor3([0, 1, 2]);
        let b = xor3([2, 0, 1]);
        assert_eq!(check_exhaustive(&a, &b), Equivalence::EqualExhaustive);
        assert!(matches!(
            check_random(&a, &b, 100, 1),
            Equivalence::EqualSampled { trials: 100 }
        ));
    }

    #[test]
    fn different_gates_produce_witness() {
        let mk = |op| {
            let mut b = Builder::new();
            let x = b.input();
            let y = b.input();
            let o = b.gate(op, x, y);
            b.outputs(&[o]);
            b.finish()
        };
        let a = mk(GateOp::And);
        let o = mk(GateOp::Or);
        match check_exhaustive(&a, &o) {
            Equivalence::Differs { witness } => {
                // AND and OR differ exactly when inputs differ
                assert_ne!(witness[0], witness[1]);
            }
            other => panic!("expected Differs, got {other:?}"),
        }
    }

    /// The per-bit construction the closed form replaced.
    fn lanes_per_bit(base: u64, count: u64, packed: &mut [u64]) {
        for (w, p) in packed.iter_mut().enumerate() {
            *p = 0;
            for v in 0..count {
                if (base + v) >> w & 1 == 1 {
                    *p |= 1 << v;
                }
            }
        }
    }

    #[test]
    fn closed_form_lanes_match_per_bit_reference() {
        for inputs in 0..=10usize {
            let total = 1u64 << inputs;
            let mut base = 0;
            while base < total {
                // Full batches and every partial last batch.
                let count = (total - base).min(64);
                let (mut got, mut want) = (vec![0; inputs], vec![0; inputs]);
                exhaustive_lanes(base, count, &mut got);
                lanes_per_bit(base, count, &mut want);
                assert_eq!(got, want, "inputs {inputs}, base {base}");
                base += count;
            }
        }
    }

    #[test]
    fn witness_is_the_first_differing_input() {
        // Inputs 0..=10 (partial batches below 6), differing exactly at
        // one vector: every position of the witness comes back.
        for inputs in 0..=10usize {
            for target in [0u64, 1, 5, 63, 64, 100, 1023] {
                if target >> inputs != 0 {
                    continue;
                }
                let mk = |spoil: bool| {
                    let mut b = Builder::new();
                    let ins = b.input_bus(inputs);
                    // out = [input == target] (constant true with no inputs).
                    let mut acc = b.constant(true);
                    for (i, &w) in ins.iter().enumerate() {
                        let lit = if target >> i & 1 == 1 { w } else { b.not(w) };
                        acc = b.and(acc, lit);
                    }
                    let out = if spoil { acc } else { b.constant(false) };
                    b.outputs(&[out]);
                    b.finish()
                };
                let want: Vec<bool> = (0..inputs).map(|i| target >> i & 1 == 1).collect();
                assert_eq!(
                    check_exhaustive(&mk(true), &mk(false)),
                    Equivalence::Differs { witness: want },
                    "inputs {inputs}, target {target}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn interface_mismatch_rejected() {
        let a = xor3([0, 1, 2]);
        let mut b = Builder::new();
        let x = b.input();
        b.outputs(&[x]);
        let bc = b.finish();
        let _ = check_exhaustive(&a, &bc);
    }

    #[test]
    fn witness_is_minimal_in_exhaustive_mode() {
        // circuits equal except on input 0b11 (both true)
        let mk = |wrong: bool| {
            let mut b = Builder::new();
            let x = b.input();
            let y = b.input();
            let o = if wrong {
                b.gate(GateOp::Nand, x, y)
            } else {
                let t = b.and(x, y);
                b.not(t)
            };
            b.outputs(&[o]);
            b.finish()
        };
        // NAND == NOT(AND): equal everywhere
        assert_eq!(
            check_exhaustive(&mk(true), &mk(false)),
            Equivalence::EqualExhaustive
        );
    }
}

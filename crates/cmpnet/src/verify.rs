//! Zero-one-principle verification.
//!
//! Knuth's zero-one principle: a nonadaptive comparator network sorts all
//! inputs iff it sorts all 2^n binary inputs. The checker runs the
//! network's 64-lane binary evaluator over all 2^n vectors in packed
//! groups, so exhaustively verifying a 16-input network costs 1024 lane
//! passes.

use crate::network::Network;

/// Checks whether each lane of `lanes` (64 output vectors packed across
/// `n` lines) is ascending-sorted; returns the index of the first
/// unsorted vector among `count`, if any.
fn first_unsorted_lane(lanes: &[u64], count: u32) -> Option<u64> {
    // A binary vector is ascending-sorted iff no 1 is followed by a 0,
    // i.e. for every adjacent pair (i, i+1): NOT(line_i AND NOT line_{i+1}).
    let mut bad = 0u64;
    for w in lanes.windows(2) {
        bad |= w[0] & !w[1];
    }
    if count < 64 {
        bad &= (1u64 << count) - 1;
    }
    if bad == 0 {
        None
    } else {
        Some(bad.trailing_zeros() as u64)
    }
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

/// Exhaustively verifies `net` over all `2^n` binary inputs and returns
/// the first input (as an n-bit little-endian integer: bit `i` = line `i`)
/// that the network fails to sort, or `None` if the network sorts
/// everything — which by the zero-one principle proves it sorts arbitrary
/// totally ordered data.
///
/// Practical up to n ≈ 26 (2^26 vectors ≈ one million lane passes).
pub fn first_unsorted_input(net: &Network) -> Option<u64> {
    let n = net.n();
    assert!(n <= 26, "exhaustive 0-1 check limited to n <= 26, got {n}");
    let total: u64 = 1u64 << n;
    let mut lanes = vec![0u64; n];
    let mut base = 0u64;
    while base < total {
        let count = (total - base).min(64) as u32;
        // Vector `base + v` for `v < count`: `base` is a multiple of 64,
        // so input `i < 6` is bit `i` of `v` (a fixed pattern) and input
        // `i >= 6` is bit `i` of `base`, the same in every lane.
        let live = u64::MAX >> (64 - count);
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = match LOW_INPUT_LANES.get(i) {
                Some(&pattern) => pattern & live,
                None => 0u64.wrapping_sub(base >> i & 1),
            };
        }
        net.apply_binary_lanes(&mut lanes);
        if let Some(v) = first_unsorted_lane(&lanes, count) {
            return Some(base + v);
        }
        base += count as u64;
    }
    None
}

/// True iff `net` sorts every binary input (hence, by the zero-one
/// principle, every input).
///
/// ```
/// use absort_cmpnet::{batcher, verify};
///
/// assert!(verify::is_sorting_network(&batcher::odd_even_merge_sort(16)));
/// assert!(!verify::is_sorting_network(&batcher::odd_even_merge(16))); // a merger alone
/// ```
pub fn is_sorting_network(net: &Network) -> bool {
    first_unsorted_input(net).is_none()
}

/// Verifies that the network sorts a particular binary input, returning
/// the output. Helper for diagnosing failures found by
/// [`first_unsorted_input`].
pub fn sorts_binary_input(net: &Network, input: u64) -> (bool, Vec<u8>) {
    let n = net.n();
    let mut data: Vec<u8> = (0..n).map(|i| (input >> i & 1) as u8).collect();
    net.apply(&mut data);
    let sorted = data.windows(2).all(|w| w[0] <= w[1]);
    (sorted, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn fig1() -> Network {
        let mut net = Network::new(4);
        net.push_compare(vec![(0, 1), (2, 3)]);
        net.push_compare(vec![(0, 2), (1, 3)]);
        net.push_compare(vec![(1, 2)]);
        net
    }

    #[test]
    fn fig1_is_a_sorting_network() {
        assert!(is_sorting_network(&fig1()));
    }

    #[test]
    fn missing_comparator_is_caught() {
        let mut net = Network::new(4);
        net.push_compare(vec![(0, 1), (2, 3)]);
        net.push_compare(vec![(0, 2), (1, 3)]);
        // final (1,2) comparator omitted: 0110-style inputs stay unsorted
        let bad = first_unsorted_input(&net);
        assert!(bad.is_some());
        let (sorted, _) = sorts_binary_input(&net, bad.unwrap());
        assert!(!sorted);
    }

    #[test]
    fn empty_network_on_one_line_sorts() {
        let net = Network::new(1);
        assert!(is_sorting_network(&net));
    }

    #[test]
    fn identity_on_two_lines_fails() {
        let net = Network::new(2);
        assert_eq!(first_unsorted_input(&net), Some(0b01)); // line0=1, line1=0
    }

    /// The per-bit lane builder the closed form replaced, kept as the
    /// reference it must agree with.
    fn first_unsorted_input_reference(net: &Network) -> Option<u64> {
        let n = net.n();
        let total: u64 = 1u64 << n;
        let mut lanes = vec![0u64; n];
        let mut base = 0u64;
        while base < total {
            let count = (total - base).min(64) as u32;
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = 0;
                for v in 0..count as u64 {
                    if (base + v) >> i & 1 == 1 {
                        *lane |= 1 << v;
                    }
                }
            }
            net.apply_binary_lanes(&mut lanes);
            if let Some(v) = first_unsorted_lane(&lanes, count) {
                return Some(base + v);
            }
            base += count as u64;
        }
        None
    }

    /// `net` with its `k`-th comparator (in stage order) removed.
    fn without_comparator(net: &Network, k: usize) -> Network {
        use crate::network::Stage;
        let mut out = Network::new(net.n());
        let mut seen = 0;
        for st in net.stages() {
            match st {
                Stage::Compare(pairs) => {
                    let kept = pairs
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| seen + j != k)
                        .map(|(_, &p)| p)
                        .collect();
                    seen += pairs.len();
                    out.push_compare(kept);
                }
                Stage::Permute(perm) => out.push_permute(perm.clone()),
            }
        }
        out
    }

    #[test]
    fn closed_form_lanes_match_per_bit_reference() {
        use crate::{batcher, catalog, fig4, periodic};
        let mut nets = vec![catalog::fig1()];
        for n in 1..=12 {
            nets.push(catalog::odd_even_transposition(n));
            nets.push(catalog::insertion(n));
        }
        for n in [2, 4, 8] {
            nets.push(batcher::odd_even_merge_sort(n));
            nets.push(batcher::odd_even_merge(n));
            nets.push(batcher::bitonic_sort(n));
            nets.push(fig4::fig4b_sort(n));
            nets.push(periodic::periodic_balanced_sort(n));
        }
        let mut failing = 0;
        for net in &nets {
            assert_eq!(
                first_unsorted_input(net),
                first_unsorted_input_reference(net)
            );
            for k in 0..net.cost() as usize {
                let cut = without_comparator(net, k);
                let got = first_unsorted_input(&cut);
                assert_eq!(got, first_unsorted_input_reference(&cut), "comparator {k}");
                failing += usize::from(got.is_some());
            }
        }
        assert!(failing > 0, "some cut network must fail to sort");
    }

    #[test]
    fn unsorted_lane_detector() {
        // lines: 2 lines, vector 0 = (0,1) sorted; vector 1 = (1,0) unsorted
        let lanes = vec![0b10u64, 0b01u64];
        assert_eq!(first_unsorted_lane(&lanes, 2), Some(1));
        assert_eq!(first_unsorted_lane(&lanes, 1), None);
    }
}

//! Differential equivalence of the two evaluation engines on the paper's
//! real networks: the enum-dispatch interpreter and the compiled
//! register-allocated micro-op tape must agree bit-for-bit.
//!
//! Coverage:
//! * exhaustive — every one of the `2^n` input vectors at `n ≤ 8`, for
//!   the prefix sorter, the mux-based merge sorter, the fish k-way
//!   merger (combinational form), and the nonadaptive (Batcher-equal)
//!   sorter, swept in packed 64-lane passes;
//! * proptest — random vector batches across the same catalog at larger
//!   sizes, through scalar, packed, and batch-parallel compiled paths.

use absort::analysis::faults::fish_k;
use absort::circuit::eval::{pack_lanes, pack_lanes_wide, unpack_lanes, unpack_lanes_wide};
use absort::circuit::{Circuit, CompiledEvaluator, Evaluator};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use proptest::prelude::*;
use rand::prelude::*;

/// The network catalog at width `n` (fish needs `k ≤ n/k`, so it joins
/// from `n = 4` up).
fn catalog(n: usize) -> Vec<(&'static str, Circuit)> {
    let mut v = vec![
        ("prefix", prefix::build(n)),
        ("mux-merger", muxmerge::build(n)),
        ("batcher", nonadaptive::build(n)),
    ];
    if n >= 4 {
        v.push((
            "fish",
            fish::circuits::build_combinational_kmerger(n, fish_k(n)),
        ));
    }
    v
}

/// Packs the 64 consecutive integers starting at `base` (little-endian
/// bit `i` = input `i`) into lane words; lanes past `count` stay zero.
fn pack_range(n: usize, base: u64, count: usize) -> Vec<u64> {
    let mut packed = vec![0u64; n];
    for lane in 0..count {
        let x = base + lane as u64;
        for (i, p) in packed.iter_mut().enumerate() {
            *p |= (x >> i & 1) << lane;
        }
    }
    packed
}

#[test]
fn exhaustive_equivalence_at_small_n() {
    for n in [2usize, 4, 8] {
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            assert!(
                compiled.n_slots() <= circuit.n_wires(),
                "{name} n={n}: regalloc grew the buffer"
            );
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            let total = 1u64 << n;
            let mut v = 0u64;
            while v < total {
                let lanes = (total - v).min(64) as usize;
                let packed = pack_range(n, v, lanes);
                let want = interp.run(&packed);
                let got = comp.run(&packed);
                assert_eq!(got, want, "{name} n={n} vectors {v}..{}", v + lanes as u64);
                v += lanes as u64;
            }
        }
    }
}

#[test]
fn scalar_path_equivalence_spot_checks() {
    // The bool-lane path exercises the same tape with a different `V`;
    // one full small-n sweep keeps it honest.
    for (name, circuit) in catalog(4) {
        let compiled = circuit.compile();
        for v in 0..1u64 << 4 {
            let bits: Vec<bool> = (0..4).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(
                compiled.eval(&bits),
                circuit.eval(&bits),
                "{name} input {v:04b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random 64-lane batches agree across the catalog at larger sizes,
    /// including the compiled batch-parallel path.
    #[test]
    fn catalog_random_vectors_agree(seed in any::<u64>(), size_idx in 0usize..3) {
        let n = [4usize, 8, 16][size_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            for pass in 0..4 {
                let packed: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                let want = interp.run(&packed);
                let got = comp.run(&packed);
                prop_assert_eq!(got, want, "{} n={} pass {}", name, n, pass);
            }
            // Batch-parallel compiled path on a ragged batch (three
            // partial 64-lane groups).
            let vectors: Vec<Vec<bool>> = (0..150)
                .map(|_| (0..n).map(|_| rng.gen()).collect())
                .collect();
            let want = circuit.eval_batch_parallel(&vectors, 2);
            let got = compiled.eval_batch_parallel(&vectors, 2);
            prop_assert_eq!(got, want, "{} n={} batch", name, n);
        }
    }

    /// The `[u64; 4]` wide walk (256 lanes per pass) agrees with the
    /// 64-lane walk and the scalar path on random batches, and the wide
    /// pack/unpack pair round-trips exactly.
    #[test]
    fn wide_walks_agree_with_narrow_and_scalar(seed in any::<u64>(), size_idx in 0usize..3) {
        let n = [4usize, 8, 16][size_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, circuit) in catalog(n) {
            let compiled = circuit.compile();
            let vectors: Vec<Vec<bool>> = (0..256)
                .map(|_| (0..n).map(|_| rng.gen()).collect())
                .collect();
            let w4 = pack_lanes_wide::<4>(&vectors, n);
            prop_assert_eq!(
                unpack_lanes_wide(&w4, vectors.len()),
                vectors.clone(),
                "{} n={}: wide pack/unpack must round-trip", name, n
            );
            let mut ev4: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(&compiled);
            let mut ev1: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&compiled);
            let out4 = unpack_lanes_wide(&ev4.run(&w4), vectors.len());
            let out1 = unpack_lanes(&ev1.run(&pack_lanes(&vectors[..64], n)), 64);
            prop_assert_eq!(&out4[..64], &out1[..], "{} n={}: [u64;4] vs u64", name, n);
            // Scalar spot checks across all four words, including the
            // word-boundary lanes.
            for idx in [0usize, 63, 64, 255] {
                prop_assert_eq!(
                    &out4[idx],
                    &compiled.eval(&vectors[idx]),
                    "{} n={} lane {}: [u64;4] vs scalar", name, n, idx
                );
            }
        }
    }
}

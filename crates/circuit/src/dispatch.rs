//! Threaded-code dispatch for the compiled tape.
//!
//! [`CompiledEvaluator`](crate::CompiledEvaluator) does not interpret
//! [`MicroOp`]s with a match loop. At construction it *decodes* the tape
//! once into a [`Program`]: a flat instruction array where every entry
//! carries a function pointer plus fully resolved operands — the
//! permutation bytes of a 4×4 switch are copied inline, the
//! [`REUSE_MASKS`] flag is resolved into a distinct function, and the
//! superinstructions created by the [`crate::fuse`] pass
//! ([`MicroOp::Pair2`], [`MicroOp::S4Chain`]) each decode to a single
//! entry. Evaluation is then one indirect call per instruction with no
//! per-op re-decoding, which is what closes the scalar gap between the
//! tape and the component interpreter.
//!
//! Two decode policies exist per op where it pays:
//!
//! * **wide** (`LANES > 1`): 4×4 switches run the select-mask arithmetic
//!   (masks shared across an op's four outputs and, for chains, across
//!   the whole run);
//! * **scalar** (`LANES == 1`): a 4×4 switch *indexes* — the two control
//!   bits pick one of four permutations and the op degenerates to four
//!   slot moves, replacing ~30 lane operations with 2 bit tests. Sound
//!   only when every lane shares one control value, i.e. exactly when
//!   `LANES == 1`.
//!
//! [`Program`] is the only executor of tape ops: [`Program::exec`] is
//! the production loop, and [`Program::exec_profiled`] (behind
//! [`CompiledEvaluator::run_into_profiled`](crate::CompiledEvaluator::run_into_profiled))
//! walks the very same instructions with a clock read between them.
//! Instructions map 1:1 onto tape ops, so per-`MicroOp` attribution is
//! read straight off [`CompiledCircuit::tape`].

use std::time::Instant;

use crate::compile::{CompiledCircuit, MicroOp, REUSE_MASKS};
use crate::lane::Lane;
use crate::profile::TapeProfile;

/// One decoded 4×4 switch of a fused chain: permutation bytes inline.
pub(crate) struct ChainItem {
    d: [u32; 4],
    ins: [u32; 4],
    perm: [[u8; 4]; 4],
}

/// Decoded instruction: a function pointer plus resolved operands.
/// `a` is a flat slot-operand window whose layout is op-specific (for
/// [`MicroOp::Pair2`] it is two 5-slot sub-op windows); `perm` holds a
/// 4×4 switch's permutation set inline so execution never touches
/// [`CompiledCircuit::perm_sets`].
pub(crate) struct Instr<V: Lane> {
    f: OpFn<V>,
    a: [u32; 10],
    perm: [[u8; 4]; 4],
}

/// `(slots, switch-masks register, chain items, instruction)`.
type OpFn<V> = fn(&mut [V], &mut [V; 4], &[ChainItem], &Instr<V>);

/// A decoded tape: what a [`CompiledEvaluator`](crate::CompiledEvaluator)
/// actually runs.
pub(crate) struct Program<V: Lane> {
    instrs: Vec<Instr<V>>,
    items: Vec<ChainItem>,
}

#[inline]
fn s(x: u32) -> usize {
    x as usize
}

// ---- simple ops -----------------------------------------------------------

fn op_const<V: Lane>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    w[s(i.a[0])] = V::splat(i.a[1] != 0);
}

fn op_not<V: Lane>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    w[s(i.a[0])] = w[s(i.a[1])].not();
}

fn op_demux<V: Lane>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    let (sv, xv) = (w[s(i.a[2])], w[s(i.a[3])]);
    w[s(i.a[0])] = sv.not().and(xv);
    w[s(i.a[1])] = sv.and(xv);
}

fn op_route2<V: Lane>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    let (av, bv) = (w[s(i.a[2])], w[s(i.a[3])]);
    w[s(i.a[0])] = av;
    w[s(i.a[1])] = bv;
}

// ---- pair-fusible sub-ops -------------------------------------------------
//
// The ops the fuse pass may pack two-per-dispatch, executed through a
// const-generic kind code so the inner match folds away after
// monomorphization. Operand window layouts (5 slots each):
//   gates (codes 0-5):  [d, a, b]
//   bitcompare (6):     [d0, d1, a, b]
//   switch2 (7):        [d0, d1, s, a, b]
//   mux (8):            [d, s, a1, a0]

/// Number of pair-fusible kind codes (see [`pair_code`]).
pub(crate) const N_PAIR_KINDS: u8 = 9;

/// The pair-fusible kind code and 5-slot operand window of `op`, if it
/// participates in [`MicroOp::Pair2`] fusion.
pub(crate) fn pair_code(op: &MicroOp) -> Option<(u8, [u32; 5])> {
    Some(match *op {
        MicroOp::And { d, a, b } => (0, [d, a, b, 0, 0]),
        MicroOp::Or { d, a, b } => (1, [d, a, b, 0, 0]),
        MicroOp::Xor { d, a, b } => (2, [d, a, b, 0, 0]),
        MicroOp::Nand { d, a, b } => (3, [d, a, b, 0, 0]),
        MicroOp::Nor { d, a, b } => (4, [d, a, b, 0, 0]),
        MicroOp::Xnor { d, a, b } => (5, [d, a, b, 0, 0]),
        MicroOp::BitCompare { d0, d1, a, b } => (6, [d0, d1, a, b, 0]),
        MicroOp::Switch2 { d0, d1, s, a, b } => (7, [d0, d1, s, a, b]),
        MicroOp::Mux { d, s, a1, a0 } => (8, [d, s, a1, a0, 0]),
        _ => return None,
    })
}

/// Executes one pair-fusible sub-op on the operand window `c`. `K` is a
/// compile-time kind code, so each instantiation is straight-line.
#[inline(always)]
fn sub_op<V: Lane, const K: u8>(w: &mut [V], c: &[u32]) {
    match K {
        0 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.and(y);
        }
        1 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.or(y);
        }
        2 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.xor(y);
        }
        3 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.and(y).not();
        }
        4 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.or(y).not();
        }
        5 => {
            let (x, y) = (w[s(c[1])], w[s(c[2])]);
            w[s(c[0])] = x.xor(y).not();
        }
        6 => {
            let (x, y) = (w[s(c[2])], w[s(c[3])]);
            w[s(c[0])] = x.and(y);
            w[s(c[1])] = x.or(y);
        }
        7 => {
            let (sv, av, bv) = (w[s(c[2])], w[s(c[3])], w[s(c[4])]);
            w[s(c[0])] = V::select(sv, bv, av);
            w[s(c[1])] = V::select(sv, av, bv);
        }
        _ => {
            let (sv, x1, x0) = (w[s(c[1])], w[s(c[2])], w[s(c[3])]);
            w[s(c[0])] = V::select(sv, x1, x0);
        }
    }
}

/// A lone pair-fusible op dispatched through its `sub_op` body.
fn op_single<V: Lane, const K: u8>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    sub_op::<V, K>(w, &i.a[..5]);
}

/// Two sub-ops, one dispatch: the [`MicroOp::Pair2`] superinstruction.
fn op_pair<V: Lane, const K1: u8, const K2: u8>(
    w: &mut [V],
    _m: &mut [V; 4],
    _it: &[ChainItem],
    i: &Instr<V>,
) {
    sub_op::<V, K1>(w, &i.a[..5]);
    sub_op::<V, K2>(w, &i.a[5..]);
}

fn single_fn<V: Lane>(k: u8) -> OpFn<V> {
    match k {
        0 => op_single::<V, 0>,
        1 => op_single::<V, 1>,
        2 => op_single::<V, 2>,
        3 => op_single::<V, 3>,
        4 => op_single::<V, 4>,
        5 => op_single::<V, 5>,
        6 => op_single::<V, 6>,
        7 => op_single::<V, 7>,
        _ => op_single::<V, 8>,
    }
}

fn pair_fn<V: Lane>(k1: u8, k2: u8) -> OpFn<V> {
    debug_assert!(k1 < N_PAIR_KINDS && k2 < N_PAIR_KINDS);
    macro_rules! row {
        ($k1:literal) => {
            match k2 {
                0 => op_pair::<V, $k1, 0>,
                1 => op_pair::<V, $k1, 1>,
                2 => op_pair::<V, $k1, 2>,
                3 => op_pair::<V, $k1, 3>,
                4 => op_pair::<V, $k1, 4>,
                5 => op_pair::<V, $k1, 5>,
                6 => op_pair::<V, $k1, 6>,
                7 => op_pair::<V, $k1, 7>,
                _ => op_pair::<V, $k1, 8>,
            }
        };
    }
    match k1 {
        0 => row!(0),
        1 => row!(1),
        2 => row!(2),
        3 => row!(3),
        4 => row!(4),
        5 => row!(5),
        6 => row!(6),
        7 => row!(7),
        _ => row!(8),
    }
}

// ---- 4×4 switches ---------------------------------------------------------
//
// Operand layout: a[0..4] = dests, a[4..8] = ins, a[8] = s1, a[9] = s0;
// the permutation set rides inline in `Instr::perm`. Chains use
// a[0] = s1, a[1] = s0, a[2] = item start, a[3] = item count.

#[inline(always)]
fn switch_masks<V: Lane>(v1: V, v0: V) -> [V; 4] {
    [
        v1.not().and(v0.not()),
        v1.not().and(v0),
        v1.and(v0.not()),
        v1.and(v0),
    ]
}

#[inline(always)]
fn switch_apply<V: Lane>(w: &mut [V], m: &[V; 4], d: &[u32], ins: &[u32], pm: &[[u8; 4]; 4]) {
    let iv = [w[s(ins[0])], w[s(ins[1])], w[s(ins[2])], w[s(ins[3])]];
    for j in 0..4 {
        w[s(d[j])] = m[0]
            .and(iv[pm[0][j] as usize])
            .or(m[1].and(iv[pm[1][j] as usize]))
            .or(m[2].and(iv[pm[2][j] as usize]))
            .or(m[3].and(iv[pm[3][j] as usize]));
    }
}

/// Mask-computing 4×4 switch: refreshes the shared mask register `m`.
fn op_switch4<V: Lane>(w: &mut [V], m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    *m = switch_masks(w[s(i.a[8])], w[s(i.a[9])]);
    switch_apply(w, m, &i.a[..4], &i.a[4..8], &i.perm);
}

/// Mask-reusing 4×4 switch: reads `m` as left by the previous switch.
fn op_switch4_reuse<V: Lane>(w: &mut [V], m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    switch_apply(w, m, &i.a[..4], &i.a[4..8], &i.perm);
}

/// Scalar (`LANES == 1`) 4×4 switch: the control pair indexes one
/// permutation and the op becomes four slot moves. Never touches `m` —
/// in scalar decode, reuse flags also resolve here (recomputing the
/// 2-bit index from the still-live control slots is cheaper than any
/// sharing).
fn op_switch4_scalar<V: Lane>(w: &mut [V], _m: &mut [V; 4], _it: &[ChainItem], i: &Instr<V>) {
    let k = usize::from(w[s(i.a[8])].first_lane()) << 1 | usize::from(w[s(i.a[9])].first_lane());
    let iv = [w[s(i.a[4])], w[s(i.a[5])], w[s(i.a[6])], w[s(i.a[7])]];
    let pm = &i.perm[k];
    for j in 0..4 {
        w[s(i.a[j])] = iv[pm[j] as usize];
    }
}

/// Fused switch chain, wide flavour: masks computed once, applied to
/// every item of the run.
fn op_s4chain<V: Lane>(w: &mut [V], _m: &mut [V; 4], it: &[ChainItem], i: &Instr<V>) {
    let m = switch_masks(w[s(i.a[0])], w[s(i.a[1])]);
    for item in &it[s(i.a[2])..s(i.a[2]) + s(i.a[3])] {
        switch_apply(w, &m, &item.d, &item.ins, &item.perm);
    }
}

/// Fused switch chain, scalar flavour: one 2-bit index steers the whole
/// run of four-slot moves.
fn op_s4chain_scalar<V: Lane>(w: &mut [V], _m: &mut [V; 4], it: &[ChainItem], i: &Instr<V>) {
    let k = usize::from(w[s(i.a[0])].first_lane()) << 1 | usize::from(w[s(i.a[1])].first_lane());
    for item in &it[s(i.a[2])..s(i.a[2]) + s(i.a[3])] {
        let iv = [
            w[s(item.ins[0])],
            w[s(item.ins[1])],
            w[s(item.ins[2])],
            w[s(item.ins[3])],
        ];
        let pm = &item.perm[k];
        for j in 0..4 {
            w[s(item.d[j])] = iv[pm[j] as usize];
        }
    }
}

// ---- decode ---------------------------------------------------------------

impl<V: Lane> Program<V> {
    /// Decodes a compiled tape into its threaded form. `O(tape)`; done
    /// once per evaluator, so per-mutant evaluators in fault campaigns
    /// pay it on tapes of a few hundred ops at most.
    pub(crate) fn decode(cc: &CompiledCircuit) -> Program<V> {
        let scalar = V::LANES == 1;
        let mut items: Vec<ChainItem> = Vec::with_capacity(cc.s4_items().len());
        let mut instrs: Vec<Instr<V>> = Vec::with_capacity(cc.tape().len());
        for op in cc.tape() {
            let mut a = [0u32; 10];
            let mut perm = [[0u8; 4]; 4];
            let f: OpFn<V> = match *op {
                MicroOp::Const { d, v } => {
                    a[0] = d;
                    a[1] = u32::from(v);
                    op_const
                }
                MicroOp::Not { d, a: x } => {
                    a[0] = d;
                    a[1] = x;
                    op_not
                }
                MicroOp::Demux { d0, d1, s, x } => {
                    a[..4].copy_from_slice(&[d0, d1, s, x]);
                    op_demux
                }
                MicroOp::Route2 { d0, d1, a: x, b } => {
                    a[..4].copy_from_slice(&[d0, d1, x, b]);
                    op_route2
                }
                MicroOp::Switch4 {
                    d,
                    ins,
                    s1,
                    s0,
                    pidx,
                } => {
                    a[..4].copy_from_slice(&d);
                    a[4..8].copy_from_slice(&ins);
                    a[8] = s1;
                    a[9] = s0;
                    perm = cc.perm_sets()[s(pidx & !REUSE_MASKS)];
                    if scalar {
                        op_switch4_scalar
                    } else if pidx & REUSE_MASKS != 0 {
                        op_switch4_reuse
                    } else {
                        op_switch4
                    }
                }
                MicroOp::Pair2 { idx } => {
                    let [op1, op2] = cc.fused_pairs()[s(idx)];
                    let (k1, c1) = pair_code(&op1).expect("unfusible op in pair table");
                    let (k2, c2) = pair_code(&op2).expect("unfusible op in pair table");
                    a[..5].copy_from_slice(&c1);
                    a[5..].copy_from_slice(&c2);
                    pair_fn(k1, k2)
                }
                MicroOp::S4Chain { idx } => {
                    let ch = cc.s4_chains()[s(idx)];
                    a[0] = ch.s1;
                    a[1] = ch.s0;
                    a[2] = items.len() as u32;
                    a[3] = ch.len;
                    for item in &cc.s4_items()[s(ch.start)..s(ch.start) + s(ch.len)] {
                        items.push(ChainItem {
                            d: item.d,
                            ins: item.ins,
                            perm: cc.perm_sets()[s(item.pidx)],
                        });
                    }
                    if scalar {
                        op_s4chain_scalar
                    } else {
                        op_s4chain
                    }
                }
                ref other => {
                    let (k, c) = pair_code(other).expect("unhandled micro-op kind");
                    a[..5].copy_from_slice(&c);
                    single_fn(k)
                }
            };
            instrs.push(Instr { f, a, perm });
        }
        Program { instrs, items }
    }

    /// Executes the decoded program over the slot buffer `w`.
    #[inline]
    pub(crate) fn exec(&self, w: &mut [V]) {
        let mut m = [V::ZERO; 4];
        for i in &self.instrs {
            (i.f)(w, &mut m, &self.items, i);
        }
    }

    /// [`Program::exec`] with attribution into `prof`: executions and
    /// wall-clock per micro-op kind (`cc.tape()[i].kind_index()` for
    /// instruction `i`) and per depth level (segment 0 = constant
    /// prologue, then [`CompiledCircuit::level_ranges`]), plus the
    /// same-level adjacency census. `cc` must be the circuit this
    /// program was decoded from. The clock is read between instructions,
    /// so absolute nanoseconds include its overhead; the numbers rank
    /// kinds and levels against each other.
    pub(crate) fn exec_profiled(&self, cc: &CompiledCircuit, w: &mut [V], prof: &mut TapeProfile) {
        let tape = cc.tape();
        assert_eq!(
            self.instrs.len(),
            tape.len(),
            "program decoded from another tape"
        );
        let levels = cc.level_ranges();
        prof.ensure_levels(levels.len() + 1);
        let mut m = [V::ZERO; 4];
        let mut seg = 0usize;
        let mut seg_end = cc.prologue_len();
        let mut prev_kind: Option<usize> = None;
        let mut last = Instant::now();
        for (idx, (i, op)) in self.instrs.iter().zip(tape).enumerate() {
            while idx >= seg_end && seg < levels.len() {
                seg_end = s(levels[seg].1);
                seg += 1;
                prev_kind = None;
            }
            (i.f)(w, &mut m, &self.items, i);
            let now = Instant::now();
            let ns = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
            last = now;
            let k = op.kind_index();
            prof.kinds[k].executions += 1;
            prof.kinds[k].total_ns = prof.kinds[k].total_ns.saturating_add(ns);
            prof.levels[seg].executions += 1;
            prof.levels[seg].total_ns = prof.levels[seg].total_ns.saturating_add(ns);
            if let Some(p) = prev_kind {
                prof.record_pair(p, k);
            }
            prev_kind = Some(k);
        }
        prof.passes += 1;
    }
}

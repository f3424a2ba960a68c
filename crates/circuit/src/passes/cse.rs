//! Structural hashing / common-subexpression elimination.
//!
//! Sorting networks assembled from repeated merger blocks (and the
//! self-checking wrappers around them) recompute identical functions of
//! identical values — e.g. two control decoders fed the same select
//! pair. One forward scan hashes every op by `(kind, operands)` —
//! sorting the operand pair *in the key only* for commutative ops, so
//! the surviving op's operand order (which fault patches rely on, e.g.
//! the comparator's `InvertBehaviour` encoding) is never disturbed —
//! and replaces later duplicates with the first occurrence.
//!
//! Provenance: merging two ops with distinct source components leaves
//! the tape with one op standing for both. Patching it would fault both
//! components at once, which no single-site netlist mutant does, so the
//! survivor is flagged [`crate::ir::IrOp::shared`] and **both**
//! components are marked [`crate::ir::CompFate::Folded`] — fault
//! campaigns fall back to per-mutant recompiles for exactly those
//! sites.

use crate::component::{GateOp, Perm4};
use crate::ir::{CompileIr, FoldHint, IrKind, ValId};
use crate::passes::{FastMap, Pass};

/// Hash key of one op: the function it computes of its (substituted)
/// operand values. Commutative operand pairs are stored sorted.
#[derive(Hash, PartialEq, Eq)]
enum Key {
    Const(bool),
    Not(ValId),
    Gate(GateOp, ValId, ValId),
    Mux(ValId, ValId, ValId),
    Demux(ValId, ValId),
    Switch2(ValId, ValId, ValId),
    BitCompare(ValId, ValId),
    Switch4(ValId, ValId, [ValId; 4], [Perm4; 4]),
}

fn sorted(a: ValId, b: ValId) -> (ValId, ValId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn key_of(kind: &IrKind) -> Key {
    match *kind {
        IrKind::Const { v } => Key::Const(v),
        IrKind::Not { a } => Key::Not(a),
        // Every two-input gate op is commutative.
        IrKind::Gate { op, a, b } => {
            let (a, b) = sorted(a, b);
            Key::Gate(op, a, b)
        }
        IrKind::Mux { s, a1, a0 } => Key::Mux(s, a1, a0),
        IrKind::Demux { s, x } => Key::Demux(s, x),
        IrKind::Switch2 { s, a, b } => Key::Switch2(s, a, b),
        IrKind::BitCompare { a, b } => {
            let (a, b) = sorted(a, b);
            Key::BitCompare(a, b)
        }
        IrKind::Switch4 { s1, s0, ins, perms } => Key::Switch4(s1, s0, ins, perms),
    }
}

/// See the module docs.
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, ir: &mut CompileIr) {
        // Pre-substitution observation census: how many ops (or outputs)
        // reference each value *on entry*. A merged op none of whose defs
        // is observed here is unobservable in the source netlist too
        // (earlier passes only drop uses that are pointwise-insensitive
        // to the value), so any mutant of its component is
        // output-equivalent to the base: those sites get
        // [`FoldHint::Equivalent`] and skip the per-mutant recompile.
        let mut observed = vec![false; ir.n_vals as usize];
        for op in &ir.ops {
            op.kind.for_each_use(|v| observed[v as usize] = true);
        }
        for &o in &ir.outputs {
            observed[o as usize] = true;
        }

        let mut subst: Vec<ValId> = (0..ir.n_vals).collect();
        let mut keep = vec![true; ir.ops.len()];
        // Key → (op index, defs) of the first occurrence.
        let mut seen: FastMap<Key, (usize, [ValId; 4])> = FastMap::default();
        let mut folded: Vec<(u32, bool)> = Vec::new();
        // Per survivor op: were ALL duplicates merged into it
        // unobserved on entry? (`None`: nothing merged into the op.)
        let mut survivors: Vec<Option<bool>> = vec![None; ir.ops.len()];
        for (i, op) in ir.ops.iter_mut().enumerate() {
            op.kind.map_uses(|v| subst[v as usize]);
            match seen.entry(key_of(&op.kind)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((i, op.defs));
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let (survivor, sdefs) = *e.get();
                    let unobserved = op.defs().iter().all(|&d| !observed[d as usize]);
                    for (k, &def) in op.defs().iter().enumerate() {
                        subst[def as usize] = sdefs[k];
                    }
                    keep[i] = false;
                    folded.push((op.comp, unobserved));
                    let all = survivors[survivor].get_or_insert(true);
                    *all &= unobserved;
                }
            }
        }
        // Survivor sites. When every duplicate merged into a survivor
        // was unobserved, the merge did not change the survivor's
        // observable fanout: its tape image still represents exactly its
        // own component, so it stays `Live` and unshared — fault
        // campaigns patch it in place instead of recompiling. Any
        // observed duplicate makes the survivor stand for two components
        // at once, which keeps the recompile fallback. Survivors are
        // visited in op order, so the outcome is deterministic.
        let mut kept_live: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for (si, all_unobserved) in survivors.into_iter().enumerate() {
            let Some(all_unobserved) = all_unobserved else {
                continue;
            };
            let comp = ir.ops[si].comp;
            if all_unobserved
                && comp != crate::ir::NO_COMP
                && ir.comp_fate[comp as usize] == crate::ir::CompFate::Live
            {
                kept_live.insert(comp);
                continue;
            }
            ir.ops[si].shared = true;
            ir.fold_comp(comp);
        }
        for (comp, unobserved) in folded {
            // The upgrade is only sound for comps the pipeline had not
            // touched yet: an op surviving an earlier fold (a `ToNot`
            // rewrite) can under-represent its component's fanout via
            // aliases baked into downstream uses, so "defs unobserved"
            // would not imply "component unobservable" there. A comp
            // with a kept-live survivor op is still observable through
            // that op, so it must not be declared `Equivalent` either.
            if unobserved
                && comp != crate::ir::NO_COMP
                && !kept_live.contains(&comp)
                && ir.comp_fate[comp as usize] == crate::ir::CompFate::Live
            {
                ir.fold_comp_hinted(comp, FoldHint::Equivalent);
            } else {
                ir.fold_comp(comp);
            }
        }
        for o in &mut ir.outputs {
            *o = subst[*o as usize];
        }
        ir.retain_ops(&keep);
    }
}

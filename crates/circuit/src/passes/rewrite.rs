//! The declarative fixpoint `rewrite` pass.
//!
//! Matches the committed ruleset (see [`crate::pattern`] and
//! `crates/circuit/rules/absort.rules`) against the IR and applies
//! profitable rewrites until a fixpoint. The pass subsumes the compile
//! pipeline's remaining ad-hoc peepholes: constant-select switch
//! collapses are declarative rules (inert at O2 where const-prop runs
//! first — behavior there is pinned), the parametric Switch4 rewrites
//! (constant-select collapse and same-control composition, whose
//! permutations are op attributes no fixed term can spell) are named
//! `builtin` rules, and the synthesized section carries the
//! op-count wins — chiefly gate-pair fusion into Switch4-as-dual-LUT
//! ops (`(and x y), (xor x y)` → one 4×4 switch, see
//! [`crate::pattern::lut2_switch4`]).
//!
//! **Profit gating.** A match is applied only when it strictly shrinks
//! the op list: ops freed (deleted roots plus interior ops whose every
//! use dies with them) must exceed ops created. This both guarantees
//! termination of the fixpoint (each applied batch strictly decreases a
//! bounded measure) and keeps the tape monotone across opt levels.
//!
//! **Provenance contract.** *Every* op an applied match touched — the
//! deleted roots *and* every interior/companion op whose structure
//! justified the rewrite — gets its source component marked
//! [`CompFate::Folded`] with [`FoldHint::Rewritten`]. Interiors must be
//! folded too: a fault on an interior component breaks the premise the
//! rewrite was justified by, so patching it in place on the rewritten
//! tape (or letting DCE score an orphaned interior as `Dead`, i.e.
//! output-equivalent) would be unsound. `Rewritten` always takes the
//! per-mutant recompile fallback, which is ground truth — fault
//! campaigns therefore stay bit-identical across opt levels.
//!
//! **Compiled matcher.** Each call buckets the ruleset once by the
//! anchor class of every rule's root 0 (`not`, `mux`, `demux`, `sw2`,
//! `cmp`, and one class per gate op), keeping file order inside a
//! bucket, so a live op tries only the rules that can anchor on it — and
//! the first one that matches is the same rule a full file-order scan
//! would pick. Matching is allocation-free: one `Scratch` per round
//! holds the variable bindings, an undo trail (commutative backtracking
//! unbinds past a save point instead of cloning the bindings) and the
//! visited-op list, which is copied only when a match is applied. The
//! per-round structural key map hashes with the in-tree `MulHasher`
//! (see `passes/mod.rs`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::component::{GateOp, Perm4};
use crate::ir::{CompileIr, FoldHint, IrKind, IrOp, ValId, NO_COMP};
use crate::pattern::{lut2_switch4, PatNode, PatRef, Pattern, Rule, RuleSet};

use super::{FastMap, Pass};

/// Builtin (programmatic) rule names the pass implements; the ruleset
/// file enables them by name and `absort rules check` validates against
/// this list.
pub const BUILTINS: [&str; 2] = ["sw4-const-select", "sw4-compose"];

/// Safety cap on fixpoint rounds (each applied round strictly shrinks
/// the op list, so this is never reached in practice).
const MAX_ROUNDS: usize = 64;

/// The default (committed, embedded) ruleset the pass runs with.
pub fn default_ruleset() -> &'static RuleSet {
    static SET: OnceLock<RuleSet> = OnceLock::new();
    SET.get_or_init(|| {
        RuleSet::parse(include_str!("../../rules/absort.rules"))
            .expect("embedded ruleset rules/absort.rules is invalid")
    })
}

/// The `rewrite` pass (default ruleset). See the module docs.
pub struct Rewrite;

impl Pass for Rewrite {
    fn name(&self) -> &'static str {
        "rewrite"
    }

    fn run(&self, ir: &mut CompileIr) {
        let out = rewrite_ir(ir, default_ruleset());
        #[cfg(feature = "telemetry")]
        {
            let mut total = 0u64;
            for (name, n) in &out.hits {
                absort_telemetry::counter_add(
                    &format!("compile.pass.rewrite.rule.{name}"),
                    u64::from(*n),
                );
                total += u64::from(*n);
            }
            absort_telemetry::counter_add_many(&[
                ("compile.pass.rewrite.applied", total),
                ("compile.pass.rewrite.rounds", u64::from(out.rounds)),
                ("compile.pass.rewrite.attempts", out.attempts),
            ]);
        }
        let _ = &out;
    }
}

/// What one [`rewrite_ir`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteOutcome {
    /// Per-rule application counts, by rule name.
    pub hits: Vec<(String, u32)>,
    /// Fixpoint rounds scanned, the final confirming round included.
    pub rounds: u32,
    /// Rule attempts made past the anchor index (one per rule tried on
    /// a live op of the rule's anchor class).
    pub attempts: u64,
}

/// Runs the fixpoint rewrite with an explicit ruleset. The per-rule
/// hits, rounds and attempts are also added to the IR's running totals
/// ([`CompileIr::rewrite_hits`], [`CompileIr::rewrite_rounds`],
/// [`CompileIr::rewrite_attempts`]).
pub fn rewrite_ir(ir: &mut CompileIr, set: &RuleSet) -> RewriteOutcome {
    let matcher = Matcher::new(set);
    let mut totals: BTreeMap<String, u32> = BTreeMap::new();
    let (mut rounds, mut attempts) = (0u32, 0u64);
    for _ in 0..MAX_ROUNDS {
        let (apps, next_val, tried) = scan_round(ir, set, &matcher);
        rounds += 1;
        attempts += tried;
        if apps.is_empty() {
            break;
        }
        for a in &apps {
            *totals.entry(a.rule.clone()).or_insert(0) += 1;
        }
        apply_round(ir, apps, next_val);
    }
    let hits: Vec<(String, u32)> = totals.into_iter().collect();
    for (name, n) in &hits {
        match ir.rewrite_hits.iter_mut().find(|(r, _)| r == name) {
            Some((_, c)) => *c += n,
            None => ir.rewrite_hits.push((name.clone(), *n)),
        }
    }
    ir.rewrite_rounds += rounds;
    ir.rewrite_attempts += attempts;
    RewriteOutcome {
        hits,
        rounds,
        attempts,
    }
}

// --- anchor index -------------------------------------------------------

/// Anchor classes: `not`, `mux`, `demux`, `sw2`, `cmp`, then one per
/// gate op.
const N_ANCHORS: usize = 5 + 6;

fn gate_class(g: GateOp) -> usize {
    5 + match g {
        GateOp::And => 0,
        GateOp::Or => 1,
        GateOp::Xor => 2,
        GateOp::Nand => 3,
        GateOp::Nor => 4,
        GateOp::Xnor => 5,
    }
}

/// Anchor class of a rule's root-0 term (`None` for terms that cannot
/// anchor: variables, constants, rhs-only LUT legs).
fn node_class(node: &PatNode) -> Option<usize> {
    Some(match *node {
        PatNode::Not(_) => 0,
        PatNode::Mux(..) => 1,
        PatNode::DemuxLeg(..) => 2,
        PatNode::Switch2Leg(..) => 3,
        PatNode::BitCompareLeg(..) => 4,
        PatNode::Gate(g, ..) => gate_class(g),
        PatNode::Var(_) | PatNode::Const(_) | PatNode::Lut2Leg(..) => return None,
    })
}

/// Anchor class of an IR op (`None` for constants and 4×4 switches,
/// which no declarative rule anchors on).
fn op_class(kind: &IrKind) -> Option<usize> {
    Some(match *kind {
        IrKind::Not { .. } => 0,
        IrKind::Mux { .. } => 1,
        IrKind::Demux { .. } => 2,
        IrKind::Switch2 { .. } => 3,
        IrKind::BitCompare { .. } => 4,
        IrKind::Gate { op, .. } => gate_class(op),
        IrKind::Const { .. } | IrKind::Switch4 { .. } => return None,
    })
}

/// The ruleset compiled for one [`rewrite_ir`] call.
struct Matcher<'r> {
    /// Rules per anchor class, in file order within each bucket.
    buckets: [Vec<&'r Rule>; N_ANCHORS],
    /// Widest rule's variable count (sizes `Scratch::bind`).
    n_vars: usize,
}

impl<'r> Matcher<'r> {
    fn new(set: &'r RuleSet) -> Matcher<'r> {
        let mut buckets: [Vec<&Rule>; N_ANCHORS] = Default::default();
        let mut n_vars = 0;
        for rule in &set.rules {
            let root0 = rule.lhs.nodes[rule.lhs.roots[0] as usize];
            if let Some(c) = node_class(&root0) {
                buckets[c].push(rule);
            }
            n_vars = n_vars.max(usize::from(rule.lhs.n_vars()));
        }
        Matcher { buckets, n_vars }
    }
}

/// Match state reused across every attempt of a round.
struct Scratch {
    /// Pattern variable → bound value.
    bind: Vec<Option<ValId>>,
    /// Variables bound by the current attempt, in binding order.
    trail: Vec<u8>,
    /// Every op index the current attempt visited.
    matched: Vec<u32>,
    /// The current attempt's root-leg values.
    roots: Vec<ValId>,
}

impl Scratch {
    /// Save point: trail and visited-op lengths.
    fn mark(&self) -> (usize, usize) {
        (self.trail.len(), self.matched.len())
    }

    /// Unbinds every variable bound since `at` and forgets the ops
    /// visited since then.
    fn undo(&mut self, at: (usize, usize)) {
        for v in self.trail.drain(at.0..) {
            self.bind[v as usize] = None;
        }
        self.matched.truncate(at.1);
    }
}

// --- per-round IR index -------------------------------------------------

/// Structural key of one op, operands sorted for commutative kinds —
/// the same canonicalization CSE uses, reused here for ground-term
/// (companion) lookup and RHS hash-consing against existing ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKey {
    Not(ValId),
    Gate(GateOp, ValId, ValId),
    Mux(ValId, ValId, ValId),
    Demux(ValId, ValId),
    Switch2(ValId, ValId, ValId),
    BitCompare(ValId, ValId),
    Switch4(ValId, ValId, [ValId; 4], [Perm4; 4]),
}

fn op_key(kind: &IrKind) -> Option<OpKey> {
    let sorted = |a: ValId, b: ValId| if a <= b { (a, b) } else { (b, a) };
    Some(match *kind {
        IrKind::Const { .. } => return None,
        IrKind::Not { a } => OpKey::Not(a),
        IrKind::Gate { op, a, b } => {
            let (a, b) = sorted(a, b);
            OpKey::Gate(op, a, b)
        }
        IrKind::Mux { s, a1, a0 } => OpKey::Mux(s, a1, a0),
        IrKind::Demux { s, x } => OpKey::Demux(s, x),
        IrKind::Switch2 { s, a, b } => OpKey::Switch2(s, a, b),
        IrKind::BitCompare { a, b } => {
            let (a, b) = sorted(a, b);
            OpKey::BitCompare(a, b)
        }
        IrKind::Switch4 { s1, s0, ins, perms } => OpKey::Switch4(s1, s0, ins, perms),
    })
}

struct Index {
    /// val → (op index, output leg).
    def_site: Vec<Option<(u32, u8)>>,
    /// val → known constant value.
    const_of: Vec<Option<bool>>,
    /// val → number of uses (op operands plus designated outputs).
    use_count: Vec<u32>,
    /// op index → observed by some output (backward reachability).
    /// Rewrites anchor only on live ops: consuming a dead op is never
    /// profitable (DCE removes it for free on every pipeline), and
    /// crediting dead interiors would overstate a match's net gain.
    live_op: Vec<bool>,
    /// Structural key → earliest op index computing it.
    keys: FastMap<OpKey, u32>,
}

impl Index {
    fn build(ir: &CompileIr) -> Index {
        let n = ir.n_vals as usize;
        let mut idx = Index {
            def_site: vec![None; n],
            const_of: vec![None; n],
            use_count: vec![0; n],
            live_op: vec![false; ir.ops.len()],
            keys: FastMap::with_capacity_and_hasher(ir.ops.len(), Default::default()),
        };
        for (i, op) in ir.ops.iter().enumerate() {
            for (leg, &d) in op.defs().iter().enumerate() {
                idx.def_site[d as usize] = Some((i as u32, leg as u8));
            }
            if let IrKind::Const { v } = op.kind {
                idx.const_of[op.defs[0] as usize] = Some(v);
            }
            op.kind.for_each_use(|v| idx.use_count[v as usize] += 1);
            if let Some(k) = op_key(&op.kind) {
                idx.keys.entry(k).or_insert(i as u32);
            }
        }
        for &o in &ir.outputs {
            idx.use_count[o as usize] += 1;
        }
        let mut needed = vec![false; n];
        for &o in &ir.outputs {
            needed[o as usize] = true;
        }
        for (i, op) in ir.ops.iter().enumerate().rev() {
            let live = op.defs().iter().any(|&d| needed[d as usize]);
            idx.live_op[i] = live;
            if live {
                op.kind.for_each_use(|v| needed[v as usize] = true);
            }
        }
        idx
    }

    /// Whether `v`'s definition is strictly before op index `pos`
    /// (inputs count as always-before).
    fn defined_before(&self, v: ValId, pos: u32, n_inputs: u32) -> bool {
        if v < n_inputs {
            return true;
        }
        match self.def_site.get(v as usize).copied().flatten() {
            Some((i, _)) => i < pos,
            // Fresh vals pending in this batch are inserted before
            // their consumers at the same insert point.
            None => true,
        }
    }
}

// --- one application ----------------------------------------------------

/// One applied match, recorded against the *pre-batch* IR; batched per
/// round and applied in one rebuild.
struct App {
    rule: String,
    /// Every op the match touched (roots, companions, interiors):
    /// their components all get `Folded`/`Rewritten` provenance.
    matched: Vec<u32>,
    /// Root ops to delete (all their defs are substituted or unused).
    deleted: Vec<u32>,
    /// Old root-leg value → replacement value.
    subst: Vec<(ValId, ValId)>,
    /// Ops to insert (fresh defs already allocated), defs-before-uses
    /// among themselves.
    new_ops: Vec<IrOp>,
    /// Op index to insert `new_ops` before (the earliest deleted root).
    insert_at: u32,
    /// Net ops this match frees (freed − created, ≥ 1 by the profit
    /// gate) — summed per round against constant-revival cost.
    net: usize,
}

/// One scan: the round's matches, the next fresh value id, and the
/// number of rule attempts made.
fn scan_round(ir: &CompileIr, set: &RuleSet, matcher: &Matcher) -> (Vec<App>, u32, u64) {
    let idx = Index::build(ir);
    let mut apps: Vec<App> = Vec::new();
    // Root ops already claimed for deletion/substitution this round: a
    // later match may reuse them as interiors (sound — both rewrites
    // preserve each substituted value's function) but not as roots
    // (that would substitute the same value twice).
    let mut consumed = vec![false; ir.ops.len()];
    let mut next_val = ir.n_vals;
    let mut attempts = 0u64;
    let mut scratch = Scratch {
        bind: vec![None; matcher.n_vars],
        trail: Vec::new(),
        matched: Vec::new(),
        roots: Vec::new(),
    };
    let ctx = Ctx { ir, idx: &idx };
    for (i, op) in ir.ops.iter().enumerate() {
        // A root-0 match roots at op `i` itself, which must be live and
        // unclaimed — skipping such ops up front changes no outcome.
        if consumed[i] || !idx.live_op[i] {
            continue;
        }
        let Some(class) = op_class(&op.kind) else {
            continue;
        };
        for rule in &matcher.buckets[class] {
            attempts += 1;
            if let Some(app) = ctx.try_rule(i as u32, rule, &consumed, &mut next_val, &mut scratch)
            {
                for &d in &app.deleted {
                    consumed[d as usize] = true;
                }
                apps.push(app);
                break;
            }
        }
    }
    for b in &set.builtins {
        match b.as_str() {
            "sw4-const-select" => ctx.builtin_const_select(&mut apps, &mut consumed),
            "sw4-compose" => ctx.builtin_compose(&mut apps, &mut consumed, &mut next_val),
            other => panic!("unknown builtin rule `{other}` (known: {BUILTINS:?})"),
        }
    }
    // Round-level net check: new ops referencing a currently-*unused*
    // canonical constant revive its prologue slot (DCE can no longer
    // drop it), a cost no single match sees. If the round would not
    // strictly shrink the tape, drop the constant-reviving matches —
    // keeps the tape monotone across opt levels even when only one
    // LUT-pair match exists in the whole circuit.
    let revived = |apps: &[App]| {
        let mut set: Vec<ValId> = Vec::new();
        for a in apps {
            for op in &a.new_ops {
                op.kind.for_each_use(|v| {
                    if (v == ir.const_false || v == ir.const_true)
                        && idx.use_count[v as usize] == 0
                        && !set.contains(&v)
                    {
                        set.push(v);
                    }
                });
            }
        }
        set
    };
    let cost = revived(&apps).len();
    let gain: usize = apps.iter().map(|a| a.net).sum();
    if gain <= cost {
        apps.retain(|a| {
            a.new_ops.iter().all(|op| {
                let mut ok = true;
                op.kind.for_each_use(|v| {
                    ok &= !((v == ir.const_false || v == ir.const_true)
                        && idx.use_count[v as usize] == 0)
                });
                ok
            })
        });
        debug_assert!(revived(&apps).is_empty());
    }
    (apps, next_val, attempts)
}

struct Ctx<'a> {
    ir: &'a CompileIr,
    idx: &'a Index,
}

impl Ctx<'_> {
    /// Output leg a leg-term denotes (single-def kinds are leg 0).
    fn root_leg(node: &PatNode) -> u8 {
        match *node {
            PatNode::DemuxLeg(l, ..)
            | PatNode::Switch2Leg(l, ..)
            | PatNode::BitCompareLeg(l, ..)
            | PatNode::Lut2Leg(l, ..) => l,
            _ => 0,
        }
    }

    /// Matches `pat[r]` against the producer of `val`, extending the
    /// bindings (trailed) and recording every op index visited.
    fn match_term(&self, pat: &Pattern, r: PatRef, val: ValId, sc: &mut Scratch) -> bool {
        match pat.nodes[r as usize] {
            PatNode::Var(i) => match sc.bind[i as usize] {
                Some(v) => v == val,
                None => {
                    sc.bind[i as usize] = Some(val);
                    sc.trail.push(i);
                    true
                }
            },
            PatNode::Const(v) => self.idx.const_of[val as usize] == Some(v),
            node => {
                let Some((i, leg)) = self.idx.def_site[val as usize] else {
                    return false; // primary input: no structure to match
                };
                if leg != Self::root_leg(&node) {
                    return false;
                }
                let op = &self.ir.ops[i as usize];
                let ok = match (node, op.kind) {
                    (PatNode::Not(pa), IrKind::Not { a }) => self.match_term(pat, pa, a, sc),
                    (PatNode::Gate(pg, pa, pb), IrKind::Gate { op: g, a, b }) if pg == g => {
                        // Every GateOp is commutative.
                        self.match_commutative(pat, pa, pb, a, b, sc)
                    }
                    (PatNode::Mux(ps, pa1, pa0), IrKind::Mux { s, a1, a0 }) => {
                        self.match_term(pat, ps, s, sc)
                            && self.match_term(pat, pa1, a1, sc)
                            && self.match_term(pat, pa0, a0, sc)
                    }
                    (PatNode::DemuxLeg(_, ps, px), IrKind::Demux { s, x }) => {
                        self.match_term(pat, ps, s, sc) && self.match_term(pat, px, x, sc)
                    }
                    (PatNode::Switch2Leg(_, ps, pa, pb), IrKind::Switch2 { s, a, b }) => {
                        self.match_term(pat, ps, s, sc)
                            && self.match_term(pat, pa, a, sc)
                            && self.match_term(pat, pb, b, sc)
                    }
                    (PatNode::BitCompareLeg(_, pa, pb), IrKind::BitCompare { a, b }) => {
                        self.match_commutative(pat, pa, pb, a, b, sc)
                    }
                    _ => false,
                };
                if ok {
                    sc.matched.push(i);
                }
                ok
            }
        }
    }

    /// Matches `(pa, pb)` against `(a, b)`, then — after undoing the
    /// first try's bindings and visits — against `(b, a)`.
    fn match_commutative(
        &self,
        pat: &Pattern,
        pa: PatRef,
        pb: PatRef,
        a: ValId,
        b: ValId,
        sc: &mut Scratch,
    ) -> bool {
        let at = sc.mark();
        if self.match_term(pat, pa, a, sc) && self.match_term(pat, pb, b, sc) {
            return true;
        }
        sc.undo(at);
        self.match_term(pat, pa, b, sc) && self.match_term(pat, pb, a, sc)
    }

    /// Resolves a *ground* term (all variables bound) to an existing IR
    /// value via the structural key map, recording the ops it rests on.
    fn resolve_ground(
        &self,
        pat: &Pattern,
        r: PatRef,
        b: &[Option<ValId>],
        matched: &mut Vec<u32>,
    ) -> Option<ValId> {
        let node = pat.nodes[r as usize];
        match node {
            PatNode::Var(i) => b[i as usize],
            PatNode::Const(v) => Some(if v {
                self.ir.const_true
            } else {
                self.ir.const_false
            }),
            PatNode::Lut2Leg(..) => None, // lhs-only path; luts are rhs-only
            _ => {
                let (kids, arity) = node.children();
                let mut vals = [0 as ValId; 3];
                for (k, &c) in kids[..arity].iter().enumerate() {
                    vals[k] = self.resolve_ground(pat, c, b, matched)?;
                }
                let kind = match node {
                    PatNode::Not(_) => IrKind::Not { a: vals[0] },
                    PatNode::Gate(g, ..) => IrKind::Gate {
                        op: g,
                        a: vals[0],
                        b: vals[1],
                    },
                    PatNode::Mux(..) => IrKind::Mux {
                        s: vals[0],
                        a1: vals[1],
                        a0: vals[2],
                    },
                    PatNode::DemuxLeg(..) => IrKind::Demux {
                        s: vals[0],
                        x: vals[1],
                    },
                    PatNode::Switch2Leg(..) => IrKind::Switch2 {
                        s: vals[0],
                        a: vals[1],
                        b: vals[2],
                    },
                    PatNode::BitCompareLeg(..) => IrKind::BitCompare {
                        a: vals[0],
                        b: vals[1],
                    },
                    _ => unreachable!(),
                };
                let i = *self.idx.keys.get(&op_key(&kind)?)?;
                matched.push(i);
                let leg = Self::root_leg(&node) as usize;
                let op = &self.ir.ops[i as usize];
                (leg < op.kind.n_defs()).then(|| op.defs[leg])
            }
        }
    }

    /// Attempts `rule` with its first LHS root anchored at op `i`, whose
    /// anchor class matches the rule's (the caller's bucket guarantees
    /// it).
    fn try_rule(
        &self,
        i: u32,
        rule: &Rule,
        consumed: &[bool],
        next_val: &mut u32,
        sc: &mut Scratch,
    ) -> Option<App> {
        let ir = self.ir;
        let r0 = rule.lhs.roots[0];
        let leg0 = Self::root_leg(&rule.lhs.nodes[r0 as usize]) as usize;
        let op0 = &ir.ops[i as usize];
        if leg0 >= op0.kind.n_defs() {
            return None;
        }
        let anchor = op0.defs[leg0];
        sc.undo((0, 0));
        if !self.match_term(&rule.lhs, r0, anchor, sc) {
            return None;
        }
        // Companion roots resolve as ground terms (every variable
        // appears in root 0 by rule validation).
        sc.roots.clear();
        sc.roots.push(anchor);
        for &r in &rule.lhs.roots[1..] {
            let v = self.resolve_ground(&rule.lhs, r, &sc.bind, &mut sc.matched)?;
            sc.roots.push(v);
        }
        // Root ops (producers of the substituted values) with their
        // covered legs; none may already be claimed by another match.
        let mut root_ops: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for &v in &sc.roots {
            let (oi, leg) = self.idx.def_site[v as usize]?;
            if consumed[oi as usize] || !self.idx.live_op[oi as usize] {
                return None;
            }
            root_ops.entry(oi).or_default().push(leg);
        }
        let insert_at = *root_ops.keys().next().unwrap();
        // Build the RHS: hash-cons against existing ops (when defined
        // early enough) and within the match; allocate fresh defs.
        let mut builder = RhsBuilder {
            ctx: self,
            consumed,
            local: FastMap::default(),
            new_ops: Vec::new(),
            insert_at,
            next_val: *next_val,
        };
        let mut rhs_vals = Vec::with_capacity(rule.rhs.roots.len());
        for &r in &rule.rhs.roots {
            rhs_vals.push(builder.build(&rule.rhs, r, &sc.bind)?);
        }
        // Deletion: a root op goes away iff every leg is substituted or
        // already unused.
        let mut deleted = Vec::new();
        for (&oi, covered) in &root_ops {
            let op = &ir.ops[oi as usize];
            let all =
                op.defs().iter().enumerate().all(|(l, &d)| {
                    covered.contains(&(l as u8)) || self.idx.use_count[d as usize] == 0
                });
            if all {
                deleted.push(oi);
            }
        }
        let subst: Vec<(ValId, ValId)> = sc
            .roots
            .iter()
            .copied()
            .zip(rhs_vals.iter().copied())
            .filter(|(o, n)| o != n)
            .collect();
        if subst.is_empty() {
            return None;
        }
        // Values that stay externally referenced after the rewrite
        // (substitution targets and new-op operands): interiors whose
        // defs land here are *not* dying, even if all their old uses do.
        let mut ext: Vec<ValId> = rhs_vals;
        for op in &builder.new_ops {
            op.kind.for_each_use(|v| ext.push(v));
        }
        let freed = deleted.len() + self.dying_interiors(&sc.matched, &deleted, &ext);
        if freed < builder.new_ops.len() + 1 {
            return None; // not profitable: would not shrink the op list
        }
        let net = freed - builder.new_ops.len();
        *next_val = builder.next_val;
        let mut matched = sc.matched.clone();
        matched.sort_unstable();
        matched.dedup();
        Some(App {
            rule: rule.name.clone(),
            matched,
            deleted,
            subst,
            new_ops: builder.new_ops,
            insert_at,
            net,
        })
    }

    /// Counts matched interior ops whose every use dies with the
    /// deleted set (cascading), i.e. ops DCE will remove after this
    /// match lands. Outputs count as external uses, so output-feeding
    /// interiors never qualify; neither do ops the rewrite itself keeps
    /// referenced (`ext`: substitution targets and new-op operands).
    fn dying_interiors(&self, matched: &[u32], deleted: &[u32], ext: &[ValId]) -> usize {
        let mut dead: Vec<u32> = deleted.to_vec();
        loop {
            let mut uses_in_dead: FastMap<ValId, u32> = FastMap::default();
            for &oi in &dead {
                self.ir.ops[oi as usize]
                    .kind
                    .for_each_use(|v| *uses_in_dead.entry(v).or_insert(0) += 1);
            }
            let mut changed = false;
            for &oi in matched {
                if dead.contains(&oi) || !self.idx.live_op[oi as usize] {
                    continue; // dead interiors are DCE's win, not ours
                }
                let op = &self.ir.ops[oi as usize];
                let gone = op.defs().iter().all(|&d| {
                    !ext.contains(&d)
                        && self.idx.use_count[d as usize]
                            == uses_in_dead.get(&d).copied().unwrap_or(0)
                });
                if gone {
                    dead.push(oi);
                    changed = true;
                }
            }
            if !changed {
                return dead.len() - deleted.len();
            }
        }
    }

    /// Builtin: a 4×4 switch whose both selects are known constants
    /// collapses to wires through the selected permutation. (At O2
    /// const-prop runs first and owns these sites, so this fires only
    /// in pipelines without const-prop — output there stays correct,
    /// with conservative `Rewritten` provenance.)
    fn builtin_const_select(&self, apps: &mut Vec<App>, consumed: &mut [bool]) {
        for (i, op) in self.ir.ops.iter().enumerate() {
            if !self.idx.live_op[i] || consumed[i] {
                continue;
            }
            let IrKind::Switch4 { s1, s0, ins, perms } = op.kind else {
                continue;
            };
            let (Some(b1), Some(b0)) = (
                self.idx.const_of[s1 as usize],
                self.idx.const_of[s0 as usize],
            ) else {
                continue;
            };
            let combo = (usize::from(b1) << 1) | usize::from(b0);
            let subst: Vec<(ValId, ValId)> = op
                .defs()
                .iter()
                .enumerate()
                .map(|(j, &d)| (d, ins[perms[combo][j] as usize]))
                .filter(|(o, n)| o != n)
                .collect();
            if subst.is_empty() {
                continue;
            }
            consumed[i] = true;
            let i = i as u32;
            apps.push(App {
                rule: "sw4-const-select".to_owned(),
                matched: vec![i],
                deleted: vec![i],
                subst,
                new_ops: Vec::new(),
                insert_at: i,
                net: 1,
            });
        }
    }

    /// Builtin: two 4×4 switches in series under the *same* control
    /// pair compose into one switch with multiplied permutation rows —
    /// applied only when the inner switch dies with the outer one, so
    /// the batch strictly shrinks.
    fn builtin_compose(&self, apps: &mut Vec<App>, consumed: &mut [bool], next_val: &mut u32) {
        'outer: for (i, op) in self.ir.ops.iter().enumerate() {
            if !self.idx.live_op[i] || consumed[i] {
                continue;
            }
            let i = i as u32;
            let IrKind::Switch4 { s1, s0, ins, perms } = op.kind else {
                continue;
            };
            // All four inputs must be the four distinct legs of one
            // inner switch with the same controls.
            let mut src = [0u8; 4];
            let mut inner = None;
            for (j, &v) in ins.iter().enumerate() {
                let Some((ai, leg)) = self.idx.def_site[v as usize] else {
                    continue 'outer;
                };
                if *inner.get_or_insert(ai) != ai {
                    continue 'outer;
                }
                src[j] = leg;
            }
            let ai = inner.unwrap();
            if ai == i || consumed[ai as usize] {
                continue;
            }
            let IrKind::Switch4 {
                s1: t1,
                s0: t0,
                ins: a_ins,
                perms: a_perms,
            } = self.ir.ops[ai as usize].kind
            else {
                continue;
            };
            if t1 != s1 || t0 != s0 {
                continue;
            }
            let mut seen = [false; 4];
            for &l in &src {
                if std::mem::replace(&mut seen[l as usize], true) {
                    continue 'outer; // legs reused: composition not a permutation
                }
            }
            // The inner switch must die: each of its legs is used only
            // by this op's inputs (outputs count as uses).
            let a_op = &self.ir.ops[ai as usize];
            for &d in a_op.defs() {
                let feeds = ins.iter().filter(|&&v| v == d).count() as u32;
                if self.idx.use_count[d as usize] != feeds {
                    continue 'outer;
                }
            }
            // The inner op's operands all precede it (and hence the
            // insert point at the outer op's index), so the composed
            // op can slot in where the outer op was.
            let mut composed = [[0u8; 4]; 4];
            for k in 0..4 {
                for j in 0..4 {
                    composed[k][j] = a_perms[k][src[perms[k][j] as usize] as usize];
                }
            }
            let mut defs = [0 as ValId; 4];
            for d in defs.iter_mut() {
                *d = *next_val;
                *next_val += 1;
            }
            let subst = op
                .defs()
                .iter()
                .enumerate()
                .map(|(j, &d)| (d, defs[j]))
                .collect();
            apps.push(App {
                rule: "sw4-compose".to_owned(),
                matched: vec![ai, i],
                deleted: vec![i],
                subst,
                new_ops: vec![IrOp {
                    kind: IrKind::Switch4 {
                        s1,
                        s0,
                        ins: a_ins,
                        perms: composed,
                    },
                    defs,
                    comp: NO_COMP,
                    shared: false,
                    reuse_masks: false,
                    level: 0,
                }],
                insert_at: i,
                // Outer deleted now, inner dies in DCE, one created.
                net: 1,
            });
            consumed[i as usize] = true;
            consumed[ai as usize] = true;
        }
    }
}

/// RHS construction for one match: resolves terms bottom-up, reusing
/// existing ops (hash-consing against the IR when their definition
/// precedes the insert point) and nodes already built for this match
/// (so the two legs of a LUT pair become one Switch4 op).
struct RhsBuilder<'a, 'b> {
    ctx: &'a Ctx<'a>,
    consumed: &'b [bool],
    local: FastMap<OpKey, [ValId; 4]>,
    new_ops: Vec<IrOp>,
    insert_at: u32,
    next_val: u32,
}

impl RhsBuilder<'_, '_> {
    fn build(&mut self, pat: &Pattern, r: PatRef, b: &[Option<ValId>]) -> Option<ValId> {
        let ir = self.ctx.ir;
        let node = pat.nodes[r as usize];
        match node {
            PatNode::Var(i) => b[i as usize],
            PatNode::Const(v) => Some(if v { ir.const_true } else { ir.const_false }),
            _ => {
                let (kids, arity) = node.children();
                let mut vals = [0 as ValId; 3];
                for (k, &c) in kids[..arity].iter().enumerate() {
                    vals[k] = self.build(pat, c, b)?;
                }
                let (kind, leg) = match node {
                    PatNode::Not(_) => (IrKind::Not { a: vals[0] }, 0u8),
                    PatNode::Gate(g, ..) => (
                        IrKind::Gate {
                            op: g,
                            a: vals[0],
                            b: vals[1],
                        },
                        0,
                    ),
                    PatNode::Mux(..) => (
                        IrKind::Mux {
                            s: vals[0],
                            a1: vals[1],
                            a0: vals[2],
                        },
                        0,
                    ),
                    PatNode::DemuxLeg(l, ..) => (
                        IrKind::Demux {
                            s: vals[0],
                            x: vals[1],
                        },
                        l,
                    ),
                    PatNode::Switch2Leg(l, ..) => (
                        IrKind::Switch2 {
                            s: vals[0],
                            a: vals[1],
                            b: vals[2],
                        },
                        l,
                    ),
                    PatNode::BitCompareLeg(l, ..) => (
                        IrKind::BitCompare {
                            a: vals[0],
                            b: vals[1],
                        },
                        l,
                    ),
                    PatNode::Lut2Leg(l, tts, ..) => {
                        let perms = lut2_switch4(&tts).ok()?;
                        let (cf, ct) = (ir.const_false, ir.const_true);
                        (
                            IrKind::Switch4 {
                                s1: vals[0],
                                s0: vals[1],
                                ins: [cf, ct, cf, ct],
                                perms,
                            },
                            l,
                        )
                    }
                    PatNode::Var(_) | PatNode::Const(_) => unreachable!(),
                };
                let key = op_key(&kind)?;
                // Reuse an identical existing op when it is live,
                // defined before the insert point, and not being
                // deleted (reviving a dead op would hand DCE's win to
                // the rewrite's cost column unaccounted).
                if let Some(&j) = self.ctx.idx.keys.get(&key) {
                    if j < self.insert_at
                        && !self.consumed[j as usize]
                        && self.ctx.idx.live_op[j as usize]
                    {
                        let op = &ir.ops[j as usize];
                        if (leg as usize) < op.kind.n_defs() {
                            return Some(op.defs[leg as usize]);
                        }
                    }
                }
                // Reuse a node already built for this match.
                if let Some(defs) = self.local.get(&key) {
                    return Some(defs[leg as usize]);
                }
                // Create: every original-val operand must be defined
                // before the insert point (fresh operands are inserted
                // just ahead of us in `new_ops` order).
                let mut ok = true;
                kind.for_each_use(|v| {
                    ok &= self.ctx.idx.defined_before(v, self.insert_at, ir.n_inputs);
                });
                if !ok {
                    return None;
                }
                let n_defs = kind.n_defs();
                let mut defs = [0 as ValId; 4];
                for d in defs.iter_mut().take(n_defs) {
                    *d = self.next_val;
                    self.next_val += 1;
                }
                self.local.insert(key, defs);
                self.new_ops.push(IrOp {
                    kind,
                    defs,
                    comp: NO_COMP,
                    shared: false,
                    reuse_masks: false,
                    level: 0,
                });
                Some(defs[leg as usize])
            }
        }
    }
}

// --- batch application --------------------------------------------------

fn apply_round(ir: &mut CompileIr, apps: Vec<App>, next_val: u32) {
    debug_assert!(next_val >= ir.n_vals);
    ir.n_vals = next_val;

    // Provenance first: every matched op's component is now Rewritten.
    for a in &apps {
        for &oi in &a.matched {
            let comp = ir.ops[oi as usize].comp;
            ir.fold_comp_hinted(comp, FoldHint::Rewritten);
        }
    }

    let mut deleted = vec![false; ir.ops.len()];
    for a in &apps {
        for &d in &a.deleted {
            deleted[d as usize] = true;
        }
    }
    let mut subst: FastMap<ValId, ValId> = FastMap::default();
    for a in &apps {
        for &(o, n) in &a.subst {
            let prev = subst.insert(o, n);
            debug_assert!(prev.is_none(), "value {o} substituted twice in one round");
        }
    }
    let mut pending: FastMap<u32, Vec<IrOp>> = FastMap::default();
    for a in apps {
        pending.entry(a.insert_at).or_default().extend(a.new_ops);
    }

    let old_ops = std::mem::take(&mut ir.ops);
    let mut out = Vec::with_capacity(old_ops.len());
    for (i, op) in old_ops.into_iter().enumerate() {
        if let Some(list) = pending.remove(&(i as u32)) {
            out.extend(list);
        }
        if !deleted[i] {
            out.push(op);
        }
    }
    debug_assert!(pending.is_empty(), "insert point past end of op list");

    // Substitute uses and outputs, resolving chains (a match may bind a
    // variable to a value another match substitutes).
    let resolve = |mut v: ValId| {
        let mut steps = 0usize;
        while let Some(&n) = subst.get(&v) {
            v = n;
            steps += 1;
            assert!(steps <= subst.len(), "substitution cycle at value {v}");
        }
        v
    };
    for op in &mut out {
        op.kind.map_uses(resolve);
    }
    for o in &mut ir.outputs {
        *o = resolve(*o);
    }
    ir.ops = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use crate::{Builder, Circuit, Wire};

    fn parse(rules: &str) -> RuleSet {
        RuleSet::parse(&format!("# absort-ruleset v1\n{rules}")).unwrap()
    }

    /// `out = not(not(x))` next to an unrelated AND gate.
    fn double_not() -> Circuit {
        let mut b = Builder::new();
        let x = b.input();
        let y = b.input();
        let nx = b.not(x);
        let nnx = b.not(nx);
        let g = b.and(x, y);
        b.outputs(&[nnx, g]);
        b.finish()
    }

    fn hits(c: &Circuit, set: &RuleSet) -> Vec<(String, u32)> {
        rewrite_ir(&mut lower(c), set).hits
    }

    #[test]
    fn earlier_rule_in_file_order_wins_within_a_bucket() {
        let one = |n: &str| vec![(n.to_owned(), 1)];
        // Both `not` rules match the chain; an `and` rule sits between
        // them in the file but lives in another bucket.
        let first = parse(
            "rule first: (not (not x)) => x\n\
             rule and-rule: (and x (not x)) => 0\n\
             rule second: (not (not x)) => x\n",
        );
        assert_eq!(hits(&double_not(), &first), one("first"));
        let second = parse(
            "rule second: (not (not x)) => x\n\
             rule first: (not (not x)) => x\n",
        );
        assert_eq!(hits(&double_not(), &second), one("second"));
        // A bucket-mate that does not match leaves the win to the next.
        let skip = parse(
            "rule miss: (not (not (not x))) => (not x)\n\
             rule second: (not (not x)) => x\n",
        );
        assert_eq!(hits(&double_not(), &skip), one("second"));
    }

    #[test]
    fn commutative_match_backtracks_its_bindings() {
        // `(and x (not x))` against `and(not a, a)`: the first operand
        // order binds x = `not a` and fails, so the second order must
        // start from clean bindings to find x = a.
        let set = parse("rule contra: (and x (not x)) => 0\n");
        for swap in [false, true] {
            let mut b = Builder::new();
            let a = b.input();
            let na = b.not(a);
            let g = if swap { b.and(a, na) } else { b.and(na, a) };
            b.outputs(&[g]);
            assert_eq!(
                hits(&b.finish(), &set),
                vec![("contra".to_owned(), 1)],
                "swap = {swap}"
            );
        }
    }

    /// A seeded random DAG over every op kind the ruleset anchors on,
    /// with operands drawn from a small pool so shared, idempotent and
    /// paired subterms (the rules' food) are common.
    fn random_dag(seed: u64) -> Circuit {
        let mut s = seed;
        let mut next = move |n: usize| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut b = Builder::new();
        let mut w: Vec<Wire> = b.input_bus(4);
        w.push(b.constant(false));
        w.push(b.constant(true));
        let gates = [
            GateOp::And,
            GateOp::Or,
            GateOp::Xor,
            GateOp::Nand,
            GateOp::Nor,
            GateOp::Xnor,
        ];
        for _ in 0..120 {
            // Operands from the 12 most recent wires.
            let lo = w.len().saturating_sub(12);
            let mut pick = || w[lo + next(w.len() - lo)];
            let (p, q, r) = (pick(), pick(), pick());
            match next(6) {
                0 => w.push(b.not(p)),
                1 | 2 => w.push(b.gate(gates[next(gates.len())], p, q)),
                3 => w.push(b.mux2(p, q, r)),
                4 => {
                    let (o0, o1) = b.demux2(p, q);
                    w.extend([o0, o1]);
                }
                _ => {
                    let (o0, o1) = if next(2) == 0 {
                        b.switch2(p, q, r)
                    } else {
                        b.bit_compare(p, q)
                    };
                    w.extend([o0, o1]);
                }
            }
        }
        let outs: Vec<Wire> = w[w.len() - 16..].to_vec();
        b.outputs(&outs);
        b.finish()
    }

    #[test]
    fn moving_rules_across_anchor_kinds_changes_nothing() {
        let set = default_ruleset();
        // Reverse the anchor-class order, keeping file order within
        // each class.
        let mut moved = set.clone();
        moved.rules.sort_by_key(|r| {
            let root0 = r.lhs.nodes[r.lhs.roots[0] as usize];
            std::cmp::Reverse(node_class(&root0))
        });
        assert_ne!(moved.rules, set.rules, "the move must reorder the file");
        let mut fired: Vec<String> = Vec::new();
        for seed in 0..24 {
            let c = random_dag(seed);
            let (mut a, mut b) = (lower(&c), lower(&c));
            let ha = rewrite_ir(&mut a, set);
            let hb = rewrite_ir(&mut b, &moved);
            assert_eq!(ha, hb, "seed {seed}: hit table or effort changed");
            assert_eq!(a.ops, b.ops, "seed {seed}: rewritten ops changed");
            assert_eq!(a.outputs, b.outputs, "seed {seed}: outputs changed");
            fired.extend(ha.hits.into_iter().map(|(name, _)| name));
        }
        fired.sort();
        fired.dedup();
        assert!(
            fired.len() >= 10,
            "corpus must exercise several rules, fired only {fired:?}"
        );
    }
}

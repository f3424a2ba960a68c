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
//! would pick (the default ruleset is compiled once per process).
//! Matching is allocation-free: one `Scratch` per round holds the
//! variable bindings, an undo trail (commutative backtracking unbinds
//! past a save point instead of cloning the bindings) and the
//! visited-op list, which is copied only when a match is applied.
//! Structural-key lookups (companion roots, RHS hash-consing) scan the
//! per-round consumer list of the key's least-used operand, in op
//! order, so they find the earliest op with the key, as a key map
//! would, without hashing every op each round.
//!
//! **Operand-shape prefilter.** The per-round index gives every value
//! a one-byte shape code: its producer's anchor class and output leg,
//! or const-0, const-1, primary input, or 4×4-switch leg. Each bucketed
//! rule carries its root 0's operand requirements — any value for a
//! variable, the constant for a constant, class and leg for a subterm —
//! plus *links*: places within two levels that root 0 binds to one
//! variable must be able to hold one value (`(and (and x y) y)` needs
//! its outer operand among the inner op's two). Commutative kinds pass
//! in either order. A *sibling-pair* rule — a companion root that is a
//! different op kind over root 0's own two variables, like
//! `(and x y), (xor x y)` — is also not attempted on an op whose sorted
//! operand pair no other gate or comparator reads (the twin bit, looked
//! up once per op when first needed). All are necessary conditions of a
//! match, so the first rule that matches stays the same rule; the
//! attempt counter counts only rules that pass them.
//!
//! **Incremental fixpoint.** Round 1 scans every op; later rounds scan
//! only ops the previous round's rewrites can have changed the outcome
//! of. A rule attempt at an anchor reads: the structure within its
//! root-0 depth below the anchor; use counts and liveness of the ops it
//! matches; and structural-key lookups whose keys are built from values
//! root 0 binds to variables. After a round is applied the pass *seeds*
//! values, each with a hop budget, and the next round visits only ops
//! within the budget of a seed along consumer edges (an op defining a
//! seed spends none; the largest budget, the deepest root-0 term or 1
//! with `sw4-compose`, is the pass's radius). The seeds are
//! * the defs of every op that is new, had an operand substituted, or
//!   defines a value that lost uses, and of every op a match dropped
//!   by the round-level constant-revival check had touched (it claimed
//!   roots other attempts then skipped), with the budget of the deepest
//!   op a root 0 matches below its anchor;
//! * for each of those ops, and for each op the round deleted (read in
//!   the IR before the round: another op with its key may become the
//!   one lookups find), one of the values it binds to the variables of
//!   each lookup term it instantiates: an anchor whose lookup finds
//!   that op binds all of them in its own root 0, so the budget is the
//!   depth of those variables there. Internal values are preferred to
//!   primary inputs, and those to constants — the LUT-pair switches all
//!   read both constants, and seeding those would rescan the tape. Ops
//!   whose only change is lost uses seed only the terms whose use
//!   counts an attempt reads: companion interiors and multi-leg
//!   companion roots.
//!
//! Changes that can only make an attempt fail need no seed, since a
//! skipped op's attempts failed in the previous round already: an op
//! dying (rewrites reference only live values and constants, so no
//! other op comes back to life — a debug assertion checks it), a value
//! gaining uses (deleting or killing its producer gets harder), and an
//! op losing its old key to a substitution (every reader of the
//! replaced value is rewritten, so no op keeps that key).
//!
//! Constants' own use counts and liveness are read by no attempt (only
//! by the round-level revival check, whose drops are seeded), so
//! constant ops are never seeded for them. Skipped ops would yield no
//! match in a full scan, so the filtered round yields exactly the full
//! scan's matches (a unit test checks this on every round). A ruleset
//! with a variable-free lookup term keeps full rescans.

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
                ("compile.pass.rewrite.rescanned", out.rescanned),
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
    /// Rule attempts: rules tried on a live op of the rule's anchor
    /// class whose operands passed the rule's prefilters (operand
    /// shapes, and the twin bit for sibling-pair rules).
    pub attempts: u64,
    /// Ops visited in rounds after the first: the incremental worklist's
    /// rescans (a full confirming round would visit every op).
    pub rescanned: u64,
}

/// Runs the fixpoint rewrite with an explicit ruleset. The per-rule
/// hits, rounds, attempts and rescans are also added to the IR's
/// running totals ([`CompileIr::rewrite_hits`],
/// [`CompileIr::rewrite_rounds`], [`CompileIr::rewrite_attempts`],
/// [`CompileIr::rewrite_rescanned`]).
pub fn rewrite_ir(ir: &mut CompileIr, set: &RuleSet) -> RewriteOutcome {
    fixpoint(ir, set, |_, _, _, _| {})
}

/// The default ruleset compiled once: small compiles (per-mutant
/// recompiles) would otherwise spend more on the matcher than on
/// matching.
fn default_matcher() -> &'static Matcher<'static> {
    static MATCHER: OnceLock<Matcher<'static>> = OnceLock::new();
    MATCHER.get_or_init(|| Matcher::new(default_ruleset()))
}

/// The fixpoint loop. `inspect` sees every round's IR, matcher, index
/// and scan result before the round is applied.
fn fixpoint(
    ir: &mut CompileIr,
    set: &RuleSet,
    mut inspect: impl FnMut(&CompileIr, &Matcher, &Index, &Round),
) -> RewriteOutcome {
    let compiled;
    let matcher = if std::ptr::eq(set, default_ruleset()) {
        default_matcher()
    } else {
        compiled = Matcher::new(set);
        &compiled
    };
    let mut totals: BTreeMap<String, u32> = BTreeMap::new();
    let (mut rounds, mut attempts, mut rescanned) = (0u32, 0u64, 0u64);
    let mut idx = Index::build(ir);
    // Ops the next round visits (`None`: every op).
    let mut visit: Option<Vec<bool>> = None;
    for _ in 0..MAX_ROUNDS {
        if rounds > 0 {
            rescanned += match &visit {
                Some(v) => v.iter().filter(|&&b| b).count(),
                None => ir.ops.len(),
            } as u64;
        }
        let round = scan_round(ir, set, matcher, &idx, visit.as_deref(), true);
        inspect(ir, matcher, &idx, &round);
        rounds += 1;
        attempts += round.attempts;
        if round.apps.is_empty() {
            break;
        }
        for a in &round.apps {
            *totals.entry(a.rule.clone()).or_insert(0) += 1;
        }
        let seed = matcher.incremental.then(|| {
            let mut seed = vec![u8::MAX; round.next_val as usize];
            Ctx { ir, idx: &idx }.seed_before(matcher, &round, &mut seed);
            seed
        });
        let origin = apply_round(ir, round.apps, round.next_val);
        let next = Index::build(ir);
        visit = seed.map(|mut seed| {
            Ctx { ir, idx: &next }.seed_after(matcher, &idx, &origin, &mut seed);
            rescan_set(ir, &seed, matcher.radius)
        });
        idx = next;
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
    ir.rewrite_rescanned += rescanned;
    RewriteOutcome {
        hits,
        rounds,
        attempts,
        rescanned,
    }
}

/// The ops to rescan: those at most `radius` hops from a seed, where a
/// value seeded at `h` is at hop `h`, its producer at hop `h` and each
/// consumer one hop further (a seed's budget is `radius - h` hops).
/// One forward pass over the topologically ordered ops.
fn rescan_set(ir: &CompileIr, seed: &[u8], radius: u8) -> Vec<bool> {
    let mut hops = seed.to_vec();
    ir.ops
        .iter()
        .map(|op| {
            let mut hop = u8::MAX;
            op.kind.for_each_use(|v| hop = hop.min(hops[v as usize]));
            hop = hop.saturating_add(1);
            for &d in op.defs() {
                hop = hop.min(seed[d as usize]);
            }
            for &d in op.defs() {
                hops[d as usize] = hop;
            }
            hop <= radius
        })
        .collect()
}

// --- anchor index -------------------------------------------------------

/// Anchor classes: `not`, `mux`, `demux`, `sw2`, `cmp`, then one per
/// gate op.
const N_ANCHORS: usize = 5 + 6;

/// Lookup classes: the anchor classes plus the 4×4 switch (the op a
/// `lut2` RHS term resolves to).
const N_LOOKUPS: usize = N_ANCHORS + 1;

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

/// An anchorable op's operands in pattern-child order, and their count
/// (zero for constants and 4×4 switches).
fn operands(kind: &IrKind) -> ([ValId; 3], usize) {
    match *kind {
        IrKind::Not { a } => ([a, 0, 0], 1),
        IrKind::Gate { a, b, .. } | IrKind::BitCompare { a, b } => ([a, b, 0], 2),
        IrKind::Demux { s, x } => ([s, x, 0], 2),
        IrKind::Mux { s, a1, a0 } => ([s, a1, a0], 3),
        IrKind::Switch2 { s, a, b } => ([s, a, b], 3),
        IrKind::Const { .. } | IrKind::Switch4 { .. } => ([0; 3], 0),
    }
}

/// Shape codes (see [`Index::code`]): `4 * class + leg` for anchorable
/// producers, then these.
const CODE_CONST: u8 = 4 * N_ANCHORS as u8; // + the constant
const CODE_INPUT: u8 = CODE_CONST + 2;
const CODE_SWITCH4: u8 = CODE_CONST + 3;
/// Requirement: any shape.
const ANY: u8 = u8::MAX;

/// Gates and comparators in the term `pat[r]`, counted once per
/// occurrence: each doubles the operand orders a lookup can bind.
fn commutative_nodes(pat: &Pattern, r: PatRef) -> u32 {
    let node = pat.nodes[r as usize];
    let (kids, arity) = node.children();
    let below: u32 = kids[..arity]
        .iter()
        .map(|&k| commutative_nodes(pat, k))
        .sum();
    below + u32::from(commutative_pair(node).is_some())
}

/// Shallowest depth at which variable `v` occurs in `pat[r]` (0 when
/// `pat[r]` is `v` itself).
fn var_depth(pat: &Pattern, r: PatRef, v: u8) -> Option<u8> {
    match pat.nodes[r as usize] {
        PatNode::Var(w) => (w == v).then_some(0),
        node => {
            let (kids, arity) = node.children();
            kids[..arity]
                .iter()
                .filter_map(|&k| var_depth(pat, k, v))
                .min()
                .map(|d| d + 1)
        }
    }
}

/// Structural depth of `pat[r]` (variables and constants are 0).
fn depth(pat: &Pattern, r: PatRef) -> u8 {
    let (kids, arity) = pat.nodes[r as usize].children();
    kids[..arity]
        .iter()
        .map(|&k| depth(pat, k) + 1)
        .max()
        .unwrap_or(0)
}

/// A value position in root 0: operand `k` (`g == WHOLE`), or operand
/// `g` of operand `k`'s producer — either of its first two when that
/// producer is commutative (`either`).
#[derive(Clone, Copy)]
struct Place {
    k: u8,
    g: u8,
    either: bool,
}

/// [`Place::g`] of an operand itself.
const WHOLE: u8 = u8::MAX;

/// One bucketed rule with its operand-shape prefilter.
struct Candidate<'r> {
    rule: &'r Rule,
    /// Per root-0 operand: the required shape code, or [`ANY`].
    need: [u8; 3],
    /// Places root 0 binds to one variable (within two levels): each
    /// pair must be able to hold one value.
    links: Vec<(Place, Place)>,
    /// Root 0 is a gate or comparator: operands match in either order.
    commutative: bool,
    /// Sibling-pair rule: some companion root is a different op kind
    /// over root 0's two variables, so only an op with a twin can match.
    twin: bool,
}

/// Gates and comparators, with their op identity (gate op, or `None`
/// for the comparator) and operand terms.
fn commutative_pair(node: PatNode) -> Option<(Option<GateOp>, PatRef, PatRef)> {
    match node {
        PatNode::Gate(g, a, b) => Some((Some(g), a, b)),
        PatNode::BitCompareLeg(_, a, b) => Some((None, a, b)),
        _ => None,
    }
}

impl<'r> Candidate<'r> {
    fn new(rule: &'r Rule) -> Candidate<'r> {
        let lhs = &rule.lhs;
        let root = lhs.nodes[lhs.roots[0] as usize];
        let (kids, arity) = root.children();
        let mut need = [ANY; 3];
        // Variable occurrences in operands and their operands.
        let mut occurs: Vec<(u8, Place)> = Vec::new();
        for (k, &c) in kids[..arity].iter().enumerate() {
            let node = lhs.nodes[c as usize];
            need[k] = match node {
                PatNode::Var(_) => ANY,
                PatNode::Const(v) => CODE_CONST + u8::from(v),
                node => node_class(&node).map_or(ANY, |cl| 4 * cl as u8 + Ctx::root_leg(&node)),
            };
            let k = k as u8;
            if let PatNode::Var(v) = node {
                occurs.push((
                    v,
                    Place {
                        k,
                        g: WHOLE,
                        either: false,
                    },
                ));
            } else if need[k as usize] != ANY {
                let either = commutative_pair(node).is_some();
                let (grand, n) = node.children();
                for (g, &gc) in grand[..n].iter().enumerate() {
                    if let PatNode::Var(v) = lhs.nodes[gc as usize] {
                        occurs.push((
                            v,
                            Place {
                                k,
                                g: g as u8,
                                either,
                            },
                        ));
                    }
                }
            }
        }
        let mut links = Vec::new();
        for (i, &(v, at)) in occurs.iter().enumerate() {
            if let Some(&(_, first)) = occurs[..i].iter().find(|(w, _)| *w == v) {
                links.push((first, at));
            }
        }
        let var_of = |r: PatRef| match lhs.nodes[r as usize] {
            PatNode::Var(v) => Some(v),
            _ => None,
        };
        // A companion of another identity over root 0's two variables
        // is necessarily another op over root 0's sorted operand pair.
        let twin = commutative_pair(root).is_some_and(|(id0, a0, b0)| {
            let (x, y) = (var_of(a0), var_of(b0));
            x.is_some()
                && y.is_some()
                && x != y
                && lhs.roots[1..].iter().any(|&r| {
                    commutative_pair(lhs.nodes[r as usize]).is_some_and(|(id, a, b)| {
                        let (p, q) = (var_of(a), var_of(b));
                        id != id0 && ((p, q) == (x, y) || (p, q) == (y, x))
                    })
                })
        });
        Candidate {
            rule,
            need,
            links,
            commutative: commutative_pair(root).is_some(),
            twin,
        }
    }

    /// Whether an op with these operand values and shape codes can
    /// match this rule's root 0 — a necessary condition (the twin bit
    /// is checked apart). `inner(k)` gives operand `k`'s producer's
    /// operands; it is called only for operands whose shape fits a
    /// subterm.
    #[inline]
    fn admits(
        &self,
        vals: &[ValId; 3],
        codes: &[u8; 3],
        inner: &mut impl FnMut(usize) -> [ValId; 3],
    ) -> bool {
        self.fits(false, vals, codes, inner)
            || self.commutative && self.fits(true, vals, codes, inner)
    }

    /// [`Candidate::admits`] for one operand order (`swap`: the two
    /// operands of a commutative root exchanged).
    fn fits(
        &self,
        swap: bool,
        vals: &[ValId; 3],
        codes: &[u8; 3],
        inner: &mut impl FnMut(usize) -> [ValId; 3],
    ) -> bool {
        let at = |k: u8| {
            if swap && k < 2 {
                1 - k as usize
            } else {
                k as usize
            }
        };
        let shapes = (0..3).all(|k| self.need[k] == ANY || self.need[k] == codes[at(k as u8)]);
        shapes
            && self.links.iter().all(|&(p, q)| {
                if p.k == q.k && p.g != WHOLE && q.g != WHOLE {
                    // Two operands of one producer: exact either way.
                    let ops = inner(at(p.k));
                    return ops[p.g as usize] == ops[q.g as usize];
                }
                let mut hold = |pl: Place| match pl.g {
                    WHOLE => [vals[at(pl.k)]; 2],
                    g => {
                        let ops = inner(at(pl.k));
                        if pl.either {
                            [ops[0], ops[1]]
                        } else {
                            [ops[g as usize]; 2]
                        }
                    }
                };
                let (a, b) = (hold(p), hold(q));
                a.iter().any(|v| b.contains(v))
            })
    }
}

/// The ruleset compiled for matching (once per process for the
/// default ruleset, per [`rewrite_ir`] call otherwise).
struct Matcher<'r> {
    /// Rules per anchor class, in file order within each bucket.
    buckets: [Vec<Candidate<'r>>; N_ANCHORS],
    /// Widest rule's variable count (sizes `Scratch::bind`).
    n_vars: usize,
    /// The distinct lookup terms (every structural node under a
    /// companion root or an RHS root, all resolved by structural key)
    /// per lookup class, for worklist seeding.
    lookups: [Vec<Lookup<'r>>; N_LOOKUPS],
    /// Rescan radius in consumer hops: the deepest root-0 term (at least
    /// 1 when `sw4-compose`, which reads its inner switch, is on).
    radius: u8,
    /// Hops an op's own facts are visible upward: to anchors whose
    /// root 0 matches it (one less than the deepest root-0 term), or to
    /// `sw4-compose` one op above it.
    def_budget: u8,
    /// Whether later rounds use the worklist: false when some lookup
    /// term has no variable, so no anchor value witnesses its changes.
    incremental: bool,
}

/// One lookup term, for worklist seeding.
struct Lookup<'r> {
    pat: &'r Pattern,
    r: PatRef,
    /// Its [`lookup_shape`], which identifies it among the terms.
    shape: Vec<u8>,
    /// Operand orders to try: two per commutative node.
    orders: u32,
    /// Hops from a value bound to one of its variables up to an anchor
    /// whose lookup resolves it: the deepest such variable's shallowest
    /// depth in the rule's root 0 (the maximum over rules sharing the
    /// term's shape).
    budget: u8,
    /// Whether attempts read the use counts of the op it finds:
    /// companion interiors and multi-leg companion roots (dying-interior
    /// and root-deletion checks). RHS terms and single-leg companion
    /// roots, which are always deleted, read none.
    counted: bool,
}

impl<'r> Matcher<'r> {
    fn new(set: &'r RuleSet) -> Matcher<'r> {
        let compose = u8::from(set.builtins.iter().any(|b| b == "sw4-compose"));
        let mut m = Matcher {
            buckets: Default::default(),
            n_vars: 0,
            lookups: Default::default(),
            radius: compose,
            def_budget: compose,
            incremental: true,
        };
        for rule in &set.rules {
            let (lhs, rhs) = (&rule.lhs, &rule.rhs);
            let r0 = lhs.roots[0];
            if let Some(c) = node_class(&lhs.nodes[r0 as usize]) {
                m.buckets[c].push(Candidate::new(rule));
            }
            m.n_vars = m.n_vars.max(usize::from(lhs.n_vars()));
            let d0 = depth(lhs, r0);
            m.radius = m.radius.max(d0);
            m.def_budget = m.def_budget.max(d0.saturating_sub(1));
            let budget = |pat: &Pattern, r: PatRef| {
                let mut vars = Vec::new();
                pat.vars_of(r, &mut vars);
                vars.iter()
                    .filter_map(|&v| var_depth(lhs, r0, v))
                    .max()
                    .unwrap_or(0)
            };
            for &r in &lhs.roots[1..] {
                m.add_lookups(lhs, r, budget(lhs, r), Some(true));
            }
            for &r in &rhs.roots {
                m.add_lookups(rhs, r, budget(rhs, r), None);
            }
        }
        m
    }

    /// Registers every structural node of `pat[r]` as a lookup term,
    /// once per shape: variable names, LUT tables and the term's own leg
    /// do not change what it binds. `companion` is `None` in an RHS,
    /// `Some(top)` in a companion root (`top` at the root itself).
    fn add_lookups(&mut self, pat: &'r Pattern, r: PatRef, budget: u8, companion: Option<bool>) {
        let node = pat.nodes[r as usize];
        let class = match node {
            PatNode::Lut2Leg(..) => N_ANCHORS,
            _ => match node_class(&node) {
                Some(c) => c,
                None => return,
            },
        };
        // A companion root of one leg is always deleted; interiors and
        // multi-leg roots are subject to use-count checks.
        let single_leg = matches!(node, PatNode::Not(_) | PatNode::Gate(..) | PatNode::Mux(..));
        let counted = companion.is_some_and(|top| !(top && single_leg));
        let mut shape = Vec::new();
        lookup_shape(pat, r, true, &mut shape);
        let terms = &mut self.lookups[class];
        if let Some(seen) = terms.iter_mut().find(|l| l.shape == shape) {
            seen.budget = seen.budget.max(budget);
            seen.counted |= counted;
        } else {
            self.incremental &= shape.contains(&VAR_TOKEN);
            terms.push(Lookup {
                pat,
                r,
                shape,
                orders: 1 << commutative_nodes(pat, r),
                budget,
                counted,
            });
        }
        let (kids, arity) = node.children();
        for &k in &kids[..arity] {
            self.add_lookups(pat, k, budget, companion.map(|_| false));
        }
    }
}

/// [`lookup_shape`]'s token for a variable.
const VAR_TOKEN: u8 = u8::MAX;

/// Token encoding of a lookup term's shape; legs count below the top
/// only, where a child's leg selects the value.
fn lookup_shape(pat: &Pattern, r: PatRef, top: bool, out: &mut Vec<u8>) {
    let node = pat.nodes[r as usize];
    let leg = if top { 0 } else { Ctx::root_leg(&node) };
    out.extend_from_slice(&match node {
        PatNode::Var(_) => [VAR_TOKEN, 0],
        PatNode::Const(v) => [1 + u8::from(v), 0],
        PatNode::Lut2Leg(..) => [3, leg],
        node => [4 + node_class(&node).unwrap_or(0) as u8, leg],
    });
    let (kids, arity) = node.children();
    for &k in &kids[..arity] {
        lookup_shape(pat, k, false, out);
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
    /// val → shape code: `4 * class + leg` of its anchorable producer,
    /// else [`CODE_CONST`] + the constant, [`CODE_INPUT`] or
    /// [`CODE_SWITCH4`] (the operand-shape prefilter's input).
    code: Vec<u8>,
    /// val → number of uses (op operands plus designated outputs).
    use_count: Vec<u32>,
    /// op index → observed by some output (backward reachability).
    /// Rewrites anchor only on live ops: consuming a dead op is never
    /// profitable (DCE removes it for free on every pipeline), and
    /// crediting dead interiors would overstate a match's net gain.
    live_op: Vec<bool>,
    /// val → the ops reading it, in op order (an op reading it twice
    /// appears twice): `users[users_at[v]..users_at[v + 1]]`. Every op
    /// with a given structural key reads each of the key's operands, so
    /// key lookups scan the least-used operand's list.
    users_at: Vec<u32>,
    users: Vec<u32>,
}

impl Index {
    fn build(ir: &CompileIr) -> Index {
        let n = ir.n_vals as usize;
        let mut idx = Index {
            def_site: vec![None; n],
            const_of: vec![None; n],
            // Values no op defines are primary inputs (or substituted
            // away, and then never read).
            code: vec![CODE_INPUT; n],
            use_count: vec![0; n],
            live_op: vec![false; ir.ops.len()],
            users_at: Vec::new(),
            users: Vec::new(),
        };
        for (i, op) in ir.ops.iter().enumerate() {
            let class = op_class(&op.kind);
            for (leg, &d) in op.defs().iter().enumerate() {
                idx.def_site[d as usize] = Some((i as u32, leg as u8));
                idx.code[d as usize] = match (op.kind, class) {
                    (IrKind::Const { v }, _) => CODE_CONST + u8::from(v),
                    (_, Some(c)) => (4 * c + leg) as u8,
                    (_, None) => CODE_SWITCH4,
                };
            }
            if let IrKind::Const { v } = op.kind {
                idx.const_of[op.defs[0] as usize] = Some(v);
            }
            op.kind.for_each_use(|v| idx.use_count[v as usize] += 1);
        }
        // Consumer lists: offsets from the op-use counts, then one fill
        // pass in op order.
        idx.users_at.reserve(n + 1);
        let mut at = 0u32;
        idx.users_at.push(0);
        for &c in &idx.use_count {
            at += c;
            idx.users_at.push(at);
        }
        let mut fill = idx.users_at.clone();
        idx.users = vec![0; at as usize];
        for (i, op) in ir.ops.iter().enumerate() {
            op.kind.for_each_use(|v| {
                idx.users[fill[v as usize] as usize] = i as u32;
                fill[v as usize] += 1;
            });
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

    /// The ops reading `v`, in op order.
    fn users_of(&self, v: ValId) -> &[u32] {
        let v = v as usize;
        &self.users[self.users_at[v] as usize..self.users_at[v + 1] as usize]
    }

    /// The earliest op whose structural key is `key` (that of `kind`),
    /// if any: a scan of the consumers of `kind`'s least-used operand.
    /// Kinds over fresh values (defined by no op yet) find nothing.
    fn find(&self, ir: &CompileIr, kind: &IrKind, key: &OpKey) -> Option<u32> {
        let mut least: Option<(usize, ValId)> = None;
        let mut fresh = false;
        kind.for_each_use(|v| match self.users_at.get(v as usize + 1) {
            Some(_) => {
                let n = self.users_of(v).len();
                if least.is_none_or(|(m, _)| n < m) {
                    least = Some((n, v));
                }
            }
            None => fresh = true,
        });
        let (_, v) = least.filter(|_| !fresh)?;
        self.users_of(v)
            .iter()
            .copied()
            .find(|&j| op_key(&ir.ops[j as usize].kind).as_ref() == Some(key))
    }

    /// Whether another gate or comparator reads op `i`'s sorted operand
    /// pair (the sibling-pair rules' twin bit).
    fn has_twin(&self, ir: &CompileIr, i: u32) -> bool {
        let pair = |kind: &IrKind| match *kind {
            IrKind::Gate { a, b, .. } | IrKind::BitCompare { a, b } => Some((a.min(b), a.max(b))),
            _ => None,
        };
        let Some((a, b)) = pair(&ir.ops[i as usize].kind) else {
            return false;
        };
        let v = if self.users_of(a).len() <= self.users_of(b).len() {
            a
        } else {
            b
        };
        self.users_of(v)
            .iter()
            .any(|&j| j != i && pair(&ir.ops[j as usize].kind) == Some((a, b)))
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
#[derive(Debug, PartialEq, Eq)]
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

/// One scanned round.
struct Round {
    /// The matches to apply, in scan order.
    apps: Vec<App>,
    /// Matches the round-level constant-revival check dropped.
    dropped: Vec<App>,
    /// The next fresh value id.
    next_val: u32,
    /// Rule attempts made.
    attempts: u64,
}

/// One scan over the ops marked in `visit` (every op when `None`),
/// trying only rules that pass the operand-shape prefilter when
/// `prefilter` is set. The unfiltered call (`None`, `false`) is the
/// reference scan the worklist and the prefilter must agree with.
fn scan_round(
    ir: &CompileIr,
    set: &RuleSet,
    matcher: &Matcher,
    idx: &Index,
    visit: Option<&[bool]>,
    prefilter: bool,
) -> Round {
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
    let visits = |i: usize| visit.is_none_or(|v| v[i]);
    let ctx = Ctx { ir, idx };
    for (i, op) in ir.ops.iter().enumerate() {
        // A root-0 match roots at op `i` itself, which must be live and
        // unclaimed — skipping such ops up front changes no outcome.
        if !visits(i) || consumed[i] || !idx.live_op[i] {
            continue;
        }
        let Some(class) = op_class(&op.kind) else {
            continue;
        };
        let (vals, arity) = operands(&op.kind);
        let mut codes = [0u8; 3];
        for (c, &v) in codes.iter_mut().zip(&vals[..arity]) {
            *c = idx.code[v as usize];
        }
        let mut fetched: [Option<[ValId; 3]>; 3] = [None; 3];
        let mut inner = |k: usize| {
            *fetched[k].get_or_insert_with(|| match idx.def_site[vals[k] as usize] {
                Some((j, _)) => operands(&ir.ops[j as usize].kind).0,
                None => [ValId::MAX; 3],
            })
        };
        let mut twin = None;
        for cand in &matcher.buckets[class] {
            if prefilter
                && (!cand.admits(&vals, &codes, &mut inner)
                    || cand.twin && !*twin.get_or_insert_with(|| idx.has_twin(ir, i as u32)))
            {
                continue;
            }
            attempts += 1;
            if let Some(app) =
                ctx.try_rule(i as u32, cand.rule, &consumed, &mut next_val, &mut scratch)
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
            "sw4-const-select" => ctx.builtin_const_select(&mut apps, &mut consumed, &visits),
            "sw4-compose" => ctx.builtin_compose(&mut apps, &mut consumed, &mut next_val, &visits),
            other => panic!("unknown builtin rule `{other}` (known: {BUILTINS:?})"),
        }
    }
    // Round-level net check: new ops referencing a currently-*unused*
    // canonical constant revive its prologue slot (DCE can no longer
    // drop it), a cost no single match sees. If the round would not
    // strictly shrink the tape, drop the constant-reviving matches —
    // keeps the tape monotone across opt levels even when only one
    // LUT-pair match exists in the whole circuit.
    let revives = |op: &IrOp| {
        let mut hit = false;
        op.kind.for_each_use(|v| {
            hit |= (v == ir.const_false || v == ir.const_true) && idx.use_count[v as usize] == 0
        });
        hit
    };
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
    let mut dropped = Vec::new();
    if gain <= cost {
        (dropped, apps) = apps
            .into_iter()
            .partition(|a| a.new_ops.iter().any(revives));
        debug_assert!(revived(&apps).is_empty());
    }
    Round {
        apps,
        dropped,
        next_val,
        attempts,
    }
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
    /// value by structural-key lookup, recording the ops it rests on.
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
                let i = self.idx.find(self.ir, &kind, &op_key(&kind)?)?;
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
    fn builtin_const_select(
        &self,
        apps: &mut Vec<App>,
        consumed: &mut [bool],
        visits: &impl Fn(usize) -> bool,
    ) {
        for (i, op) in self.ir.ops.iter().enumerate() {
            if !visits(i) || !self.idx.live_op[i] || consumed[i] {
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
    fn builtin_compose(
        &self,
        apps: &mut Vec<App>,
        consumed: &mut [bool],
        next_val: &mut u32,
        visits: &impl Fn(usize) -> bool,
    ) {
        'outer: for (i, op) in self.ir.ops.iter().enumerate() {
            if !visits(i) || !self.idx.live_op[i] || consumed[i] {
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

    // --- worklist seeding (see the module docs) -------------------------

    /// Seeds from the IR before a round is applied: the lookup bindings
    /// of every op the round deletes (another op with its key may
    /// become the one lookups find), and the defs and bindings of every
    /// op a dropped match touched.
    fn seed_before(&self, m: &Matcher, round: &Round, seed: &mut [u8]) {
        let mut buf = Vec::new();
        for a in &round.apps {
            for &d in &a.deleted {
                self.seed_lookups(d, m, false, seed, &mut buf);
            }
        }
        for a in &round.dropped {
            for &i in &a.matched {
                self.seed_op(i, m, false, seed, &mut buf);
            }
        }
    }

    /// Seeds from the IR after a round is applied (`self.idx` indexes
    /// it, `old` indexed the IR before, `origin` maps each op to its
    /// index there or [`REBUILT`]): every op that is new or re-keyed,
    /// and every op defining a value that lost uses.
    fn seed_after(&self, m: &Matcher, old: &Index, origin: &[u32], seed: &mut [u8]) {
        let mut buf = Vec::new();
        for (j, op) in self.ir.ops.iter().enumerate() {
            let o = origin[j];
            if o == REBUILT {
                self.seed_op(j as u32, m, false, seed, &mut buf);
                continue;
            }
            let constant = matches!(op.kind, IrKind::Const { .. });
            debug_assert!(
                constant || old.live_op[o as usize] || !self.idx.live_op[j],
                "op {j} came back to life"
            );
            let lost_uses = op.defs().iter().any(|&d| {
                let d = d as usize;
                self.idx.use_count[d] < old.use_count[d]
            });
            if lost_uses && !constant {
                self.seed_op(j as u32, m, true, seed, &mut buf);
            }
        }
    }

    /// Seeds op `i`'s defs and its lookup bindings (only those of
    /// use-count-sensitive terms when `counted_only`).
    fn seed_op(
        &self,
        i: u32,
        m: &Matcher,
        counted_only: bool,
        seed: &mut [u8],
        buf: &mut Vec<ValId>,
    ) {
        let at = m.radius - m.def_budget;
        for &d in self.ir.ops[i as usize].defs() {
            seed[d as usize] = seed[d as usize].min(at);
        }
        self.seed_lookups(i, m, counted_only, seed, buf);
    }

    /// For every lookup term op `i` instantiates, in every operand
    /// order, seeds one witness among the values it binds to the term's
    /// variables: an internal value if any, else a primary input, else
    /// a constant, and of those the one with the fewest uses. The anchor
    /// of any attempt whose lookup can find op `i` binds all of them in
    /// its root 0, within the term's budget.
    fn seed_lookups(
        &self,
        i: u32,
        m: &Matcher,
        counted_only: bool,
        seed: &mut [u8],
        buf: &mut Vec<ValId>,
    ) {
        let kind = &self.ir.ops[i as usize].kind;
        let class = match (kind, op_class(kind)) {
            (IrKind::Switch4 { .. }, _) => N_ANCHORS,
            (_, Some(c)) => c,
            (_, None) => return,
        };
        let cost = |v: ValId| {
            let rank = match self.idx.const_of[v as usize] {
                Some(_) => 2u8,
                None => u8::from(v < self.ir.n_inputs),
            };
            (rank, self.idx.use_count[v as usize], v)
        };
        for l in &m.lookups[class] {
            if counted_only && !l.counted {
                continue;
            }
            for mut choice in 0..l.orders {
                buf.clear();
                if self.bind_lookup(l.pat, l.r, i, &mut choice, buf) {
                    if let Some(&v) = buf.iter().min_by_key(|&&v| cost(v)) {
                        let at = m.radius - l.budget;
                        seed[v as usize] = seed[v as usize].min(at);
                    }
                }
            }
        }
    }

    /// Collects into `out` the values op `i` binds to the variables of
    /// lookup term `pat[r]`, each commutative node taking its operand
    /// order from the next bit of `choice`; false when op `i` cannot
    /// instantiate the term that way. The term's own leg is not checked
    /// (lookups find ops by key), nor are LUT tables (a superset is
    /// safe).
    fn bind_lookup(
        &self,
        pat: &Pattern,
        r: PatRef,
        i: u32,
        choice: &mut u32,
        out: &mut Vec<ValId>,
    ) -> bool {
        let node = pat.nodes[r as usize];
        let kind = &self.ir.ops[i as usize].kind;
        let mut vals = match (node, kind) {
            (PatNode::Lut2Leg(..), &IrKind::Switch4 { s1, s0, .. }) => [s1, s0, 0],
            _ if node_class(&node).is_some() && node_class(&node) == op_class(kind) => {
                operands(kind).0
            }
            _ => return false,
        };
        if commutative_pair(node).is_some() {
            if *choice & 1 == 1 {
                vals.swap(0, 1);
            }
            *choice >>= 1;
        }
        let (kids, arity) = node.children();
        kids[..arity]
            .iter()
            .zip(vals)
            .all(|(&k, v)| match pat.nodes[k as usize] {
                PatNode::Var(_) => {
                    out.push(v);
                    true
                }
                PatNode::Const(c) => self.idx.const_of[v as usize] == Some(c),
                child => self.idx.def_site[v as usize].is_some_and(|(j, leg)| {
                    leg == Self::root_leg(&child) && self.bind_lookup(pat, k, j, choice, out)
                }),
            })
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
                if let Some(j) = self.ctx.idx.find(ir, &kind, &key) {
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

/// [`apply_round`]'s origin of an op the round inserted or re-keyed.
const REBUILT: u32 = u32::MAX;

/// Applies a round's matches in one rebuild. Returns each op's index
/// before the round, or [`REBUILT`] for ops inserted or with a
/// substituted operand.
fn apply_round(ir: &mut CompileIr, apps: Vec<App>, next_val: u32) -> Vec<u32> {
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
    let mut origin = Vec::with_capacity(old_ops.len());
    for (i, op) in old_ops.into_iter().enumerate() {
        if let Some(list) = pending.remove(&(i as u32)) {
            origin.extend(std::iter::repeat_n(REBUILT, list.len()));
            out.extend(list);
        }
        if !deleted[i] {
            out.push(op);
            origin.push(i as u32);
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
    for (op, o) in out.iter_mut().zip(&mut origin) {
        let mut rekeyed = false;
        op.kind.map_uses(|v| {
            let r = resolve(v);
            rekeyed |= r != v;
            r
        });
        if rekeyed {
            *o = REBUILT;
        }
    }
    for o in &mut ir.outputs {
        *o = resolve(*o);
    }
    ir.ops = out;
    origin
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

    /// Runs the rewrite fixpoint on `ir` and, on every round, the
    /// unfiltered full scan of the same IR beside the worklist +
    /// prefilter scan; panics where their matches differ. Returns the
    /// number of matches applied in rounds after the first.
    fn cross_check(mut ir: CompileIr, set: &RuleSet, what: &str) -> usize {
        let (mut round, mut late) = (0, 0);
        fixpoint(&mut ir, set, |ir, matcher, idx, scan| {
            round += 1;
            let full = scan_round(ir, set, matcher, idx, None, false);
            assert_eq!(scan.apps, full.apps, "{what}: round {round} matches differ");
            assert_eq!(
                scan.dropped, full.dropped,
                "{what}: round {round} drops differ"
            );
            assert_eq!(scan.next_val, full.next_val, "{what}: round {round}");
            assert!(scan.attempts <= full.attempts, "{what}: round {round}");
            if round > 1 {
                late += scan.apps.len();
            }
        });
        late
    }

    /// `c` lowered, then (`default`) through the default pipeline's
    /// passes before `rewrite` — or not (the O0 + rewrite pipeline).
    fn entering_rewrite(c: &Circuit, default: bool) -> CompileIr {
        let mut ir = lower(c);
        if default {
            let passes = crate::CompileOptions::default().passes;
            for p in crate::PassName::ALL {
                if p == crate::PassName::Rewrite {
                    break;
                }
                if passes.contains(p) {
                    crate::passes::pass_impl(p).run(&mut ir);
                }
            }
        }
        ir
    }

    /// Round 1 rewrites `not(not(y))` to `y`, which turns `g(x, ¬¬y)`
    /// into `g(x, y)`: round 2 then finds it as a pair companion of
    /// `and(x, y)` (`g = or`), or (`g = nand`) reuses it for
    /// `not(cmp.0(x, y))` two hops above the changed values.
    fn round_two_site(g: GateOp, internal: bool) -> Circuit {
        let mut b = Builder::new();
        let (p, q) = (b.input(), b.input());
        let (x, y) = if internal {
            (b.xor(p, q), b.or(p, q))
        } else {
            (p, q)
        };
        let ny = b.not(y);
        let nny = b.not(ny);
        let late = b.gate(g, x, nny);
        let mut outs = vec![late];
        if g == GateOp::Nand {
            let (lo, hi) = b.bit_compare(x, y);
            let n = b.not(lo);
            outs.extend([lo, hi, n]);
        } else {
            outs.push(b.and(x, y));
        }
        b.outputs(&outs);
        b.finish()
    }

    /// Round 1 deletes `nand(x, y)` (pair companion of `and(x, y)`),
    /// which `not(cmp.0(x, y))` could not reuse while claimed; round 2
    /// finds the later duplicate instead (no CSE on the O0 pipeline) —
    /// a change visible only through the deleted op's key.
    fn next_earliest_site() -> Circuit {
        let mut b = Builder::new();
        let (x, y) = (b.input(), b.input());
        let first = b.gate(GateOp::Nand, x, y);
        let g = b.and(x, y);
        let second = b.gate(GateOp::Nand, x, y);
        let (lo, hi) = b.bit_compare(x, y);
        let n = b.not(lo);
        let mut outs = vec![first, g, second, lo, hi, n];
        // Two more LUT pairs, so round 1 gains more than reviving the
        // two canonical constants costs.
        for _ in 0..2 {
            let (p, q) = (b.input(), b.input());
            outs.extend([b.and(p, q), b.xor(p, q)]);
        }
        b.outputs(&outs);
        b.finish()
    }

    #[test]
    fn worklist_scan_matches_full_scan_every_round() {
        let set = default_ruleset();
        let mut late = 0;
        for default in [false, true] {
            for g in [GateOp::Or, GateOp::Nand] {
                for internal in [false, true] {
                    let what = format!("{g:?} site (internal {internal}, default {default})");
                    let n = cross_check(
                        entering_rewrite(&round_two_site(g, internal), default),
                        set,
                        &what,
                    );
                    assert!(n > 0, "{what}: round 2 must apply a match");
                    late += n;
                }
            }
            let what = format!("next-earliest site (default {default})");
            let n = cross_check(entering_rewrite(&next_earliest_site(), default), set, &what);
            assert!(default || n > 0, "{what}: round 2 must apply a match");
            late += n;
            for seed in 0..64 {
                let what = format!("random dag {seed} (default {default})");
                late += cross_check(entering_rewrite(&random_dag(seed), default), set, &what);
            }
            for n in [8, 64, 256] {
                use absort::core::{fish, muxmerge, nonadaptive, prefix};
                let k = absort::analysis::faults::fish_k(n);
                let catalog = [
                    ("prefix", prefix::build(n)),
                    ("mux-merger", muxmerge::build(n)),
                    ("batcher", nonadaptive::build(n)),
                    ("fish", fish::circuits::build_combinational_kmerger(n, k)),
                ];
                for (name, c) in catalog {
                    let text = absort::circuit::serdes::to_text(&c);
                    let c = crate::serdes::from_text(&text).expect("catalog circuit parses");
                    let what = format!("{name} n={n} (default {default})");
                    late += cross_check(entering_rewrite(&c, default), set, &what);
                }
            }
        }
        assert!(late > 0, "no round after the first applied a match");
    }
}

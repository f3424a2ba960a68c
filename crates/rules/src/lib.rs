//! Ruler-style rule synthesis for the `rewrite` pass (`absort-rules`).
//!
//! The committed ruleset (`crates/circuit/rules/absort.rules`) has two
//! parts: a curated preamble (builtin toggles, select folds, the
//! op-pairing rules) and a `synthesized` tail this crate regenerates
//! deterministically. Synthesis follows the ruler recipe:
//!
//! 1. **Enumerate** small terms over the pattern op set — up to three
//!    variables, op count ≤ 2 on the left, ≤ 1 on the right.
//! 2. **Evaluate** every term on a characteristic vector (cvec): one
//!    64-bit lane whose bit `a` holds the term's value under variable
//!    assignment `a mod 8`, the same lane semantics as
//!    `CompileIr::eval_lanes`.
//! 3. **Propose** `lhs => rep` whenever a strictly cheaper
//!    representative shares the cvec.
//! 4. **Verify** every survivor exhaustively over all assignments of
//!    its variables (≤ 3 vars, so 8 cases decide equality outright —
//!    the cvec already enumerated them, verification recomputes both
//!    sides independently and re-checks LUT legs through the actual
//!    [`lut2_switch4`] switch construction the pass emits).
//!
//! [`check`] re-runs validation + verification on a parsed set and is
//! what `absort rules check` (and CI) runs against the committed file.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use absort_circuit::component::GateOp;
use absort_circuit::passes::rewrite::BUILTINS;
use absort_circuit::pattern::{
    lut2_switch4, print_term, validate_rule, PatNode, PatRef, Pattern, Rule, RuleSet,
};

/// Curated head of the ruleset: builtin toggles, select/constant folds,
/// gate identities, and the op-pairing rules (two single-output gates
/// over one operand pair fused into the legs of a comparator or a
/// dual-LUT 4×4 switch). Synthesis re-emits this preamble verbatim and
/// appends discovered rules after it.
const PREAMBLE: &str = "\
# absort-ruleset v1
builtin sw4-const-select
builtin sw4-compose
rule mux-sel-hi: (mux 1 x y) => x
rule mux-sel-lo: (mux 0 x y) => y
rule mux-same: (mux x y y) => y
rule sw2-sel-lo: (sw2.0 0 x y), (sw2.1 0 x y) => x, y
rule sw2-sel-hi: (sw2.0 1 x y), (sw2.1 1 x y) => y, x
rule demux-sel-lo: (demux.0 0 x), (demux.1 0 x) => x, 0
rule demux-sel-hi: (demux.0 1 x), (demux.1 1 x) => 0, x
rule cmp-recompare: (cmp.0 (cmp.0 x y) (cmp.1 x y)), (cmp.1 (cmp.0 x y) (cmp.1 x y)) => (cmp.0 x y), (cmp.1 x y)
rule pair-and-or: (and x y), (or x y) => (cmp.0 x y), (cmp.1 x y)
rule pair-and-xor: (and x y), (xor x y) => (lut2.0 0001.0110 x y), (lut2.1 0001.0110 x y)
rule pair-and-nand: (and x y), (nand x y) => (lut2.0 0001.1110 x y), (lut2.1 0001.1110 x y)
rule pair-and-nor: (and x y), (nor x y) => (lut2.0 0001.1000 x y), (lut2.1 0001.1000 x y)
rule pair-and-xnor: (and x y), (xnor x y) => (lut2.0 0001.1001 x y), (lut2.1 0001.1001 x y)
rule pair-or-xor: (or x y), (xor x y) => (lut2.0 0111.0110 x y), (lut2.1 0111.0110 x y)
rule pair-or-nand: (or x y), (nand x y) => (lut2.0 0111.1110 x y), (lut2.1 0111.1110 x y)
rule pair-or-nor: (or x y), (nor x y) => (lut2.0 0111.1000 x y), (lut2.1 0111.1000 x y)
rule pair-or-xnor: (or x y), (xnor x y) => (lut2.0 0111.1001 x y), (lut2.1 0111.1001 x y)
rule pair-xor-nand: (xor x y), (nand x y) => (lut2.0 0110.1110 x y), (lut2.1 0110.1110 x y)
rule pair-xor-nor: (xor x y), (nor x y) => (lut2.0 0110.1000 x y), (lut2.1 0110.1000 x y)
rule pair-xor-xnor: (xor x y), (xnor x y) => (lut2.0 0110.1001 x y), (lut2.1 0110.1001 x y)
rule pair-nand-nor: (nand x y), (nor x y) => (lut2.0 1110.1000 x y), (lut2.1 1110.1000 x y)
rule pair-nand-xnor: (nand x y), (xnor x y) => (lut2.0 1110.1001 x y), (lut2.1 1110.1001 x y)
rule pair-nor-xnor: (nor x y), (xnor x y) => (lut2.0 1000.1001 x y), (lut2.1 1000.1001 x y)
rule and-idem: (and x x) => x
rule or-idem: (or x x) => x
rule and-absorb: (and x (or x y)) => x
rule or-absorb: (or x (and x y)) => x
rule xor-cancel: (xor (xor x y) y) => x
rule not-not: (not (not x)) => x
rule not-and: (not (and x y)) => (nand x y)
rule not-or: (not (or x y)) => (nor x y)
rule not-xor: (not (xor x y)) => (xnor x y)
rule not-nand: (not (nand x y)) => (and x y)
rule not-nor: (not (nor x y)) => (or x y)
rule not-xnor: (not (xnor x y)) => (xor x y)
";

/// Cap on the number of discovered (non-preamble) rules, applied after
/// the deterministic sort so the committed tail stays reviewable.
const MAX_DISCOVERED: usize = 64;

/// Number of variables synthesis enumerates over.
const N_VARS: u8 = 3;

/// Variable cvec lanes: bit `a` of lane `i` is `(a >> i) & 1` with the
/// 8-assignment block repeated across the word, matching the exhaustive
/// input packing `CompileIr::eval_lanes`-based tests use at `n = 3`.
const VAR_LANES: [u64; 3] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
];

fn gate_lanes(g: GateOp, a: u64, b: u64) -> u64 {
    match g {
        GateOp::And => a & b,
        GateOp::Or => a | b,
        GateOp::Xor => a ^ b,
        GateOp::Nand => !(a & b),
        GateOp::Nor => !(a | b),
        GateOp::Xnor => !(a ^ b),
    }
}

/// Evaluates term `r` lane-parallel under the standard variable lanes —
/// the same per-op semantics as `CompileIr::eval_lanes`, including LUT
/// legs, which are computed through the [`lut2_switch4`] permutation
/// rows (not the truth table directly) so verification exercises the
/// exact switch the rewrite pass would emit.
pub fn eval_term_lanes(pat: &Pattern, r: PatRef, vars: &[u64]) -> u64 {
    let e = |c: PatRef| eval_term_lanes(pat, c, vars);
    match pat.nodes[r as usize] {
        PatNode::Var(i) => vars[i as usize],
        PatNode::Const(v) => {
            if v {
                !0
            } else {
                0
            }
        }
        PatNode::Not(a) => !e(a),
        PatNode::Gate(g, a, b) => gate_lanes(g, e(a), e(b)),
        PatNode::Mux(s, a1, a0) => {
            let sv = e(s);
            (sv & e(a1)) | (!sv & e(a0))
        }
        PatNode::DemuxLeg(l, s, x) => {
            let (sv, xv) = (e(s), e(x));
            if l == 0 {
                !sv & xv
            } else {
                sv & xv
            }
        }
        PatNode::Switch2Leg(l, s, a, b) => {
            let (sv, av, bv) = (e(s), e(a), e(b));
            if l == 0 {
                (sv & bv) | (!sv & av)
            } else {
                (sv & av) | (!sv & bv)
            }
        }
        PatNode::BitCompareLeg(l, a, b) => {
            let (av, bv) = (e(a), e(b));
            if l == 0 {
                av & bv
            } else {
                av | bv
            }
        }
        PatNode::Lut2Leg(l, tts, a, b) => {
            let perms = lut2_switch4(&tts).expect("validated lut2 tables");
            let (s1, s0) = (e(a), e(b));
            let masks = [!s1 & !s0, !s1 & s0, s1 & !s0, s1 & s0];
            let ins = [0u64, !0, 0, !0];
            let mut out = 0u64;
            for (combo, m) in masks.iter().enumerate() {
                out |= m & ins[perms[combo][l as usize] as usize];
            }
            out
        }
    }
}

/// Verifies a rule exhaustively: every leg of the RHS computes the same
/// function of the shared variables as the matching LHS leg, over all
/// assignments (≤ 3 variables fit one 64-bit lane, so one lane compare
/// per leg is a complete proof).
pub fn verify_rule(rule: &Rule) -> Result<(), String> {
    for (k, (&lr, &rr)) in rule.lhs.roots.iter().zip(&rule.rhs.roots).enumerate() {
        let lv = eval_term_lanes(&rule.lhs, lr, &VAR_LANES);
        let rv = eval_term_lanes(&rule.rhs, rr, &VAR_LANES);
        if lv != rv {
            return Err(format!(
                "rule `{}` leg {k}: lhs {} != rhs {} (cvec {lv:#018x} vs {rv:#018x})",
                rule.name,
                print_term(&rule.lhs, lr),
                print_term(&rule.rhs, rr),
            ));
        }
    }
    Ok(())
}

// --- enumeration --------------------------------------------------------

/// Copies the term rooted at `r` in `src` into `dst`, remapping
/// variables through `map` (allocating canonical indices in first-visit
/// order — which is print order, so the result parses back to itself).
fn copy_term(src: &Pattern, r: PatRef, dst: &mut Pattern, map: &mut Vec<Option<u8>>) -> PatRef {
    let node = match src.nodes[r as usize] {
        PatNode::Var(i) => {
            let canon = match map[i as usize] {
                Some(c) => c,
                None => {
                    let c = map.iter().flatten().count() as u8;
                    map[i as usize] = Some(c);
                    c
                }
            };
            PatNode::Var(canon)
        }
        PatNode::Const(v) => PatNode::Const(v),
        PatNode::Not(a) => {
            let a = copy_term(src, a, dst, map);
            PatNode::Not(a)
        }
        PatNode::Gate(g, a, b) => {
            let a = copy_term(src, a, dst, map);
            let b = copy_term(src, b, dst, map);
            PatNode::Gate(g, a, b)
        }
        PatNode::Mux(s, a1, a0) => {
            let s = copy_term(src, s, dst, map);
            let a1 = copy_term(src, a1, dst, map);
            let a0 = copy_term(src, a0, dst, map);
            PatNode::Mux(s, a1, a0)
        }
        PatNode::DemuxLeg(l, s, x) => {
            let s = copy_term(src, s, dst, map);
            let x = copy_term(src, x, dst, map);
            PatNode::DemuxLeg(l, s, x)
        }
        PatNode::Switch2Leg(l, s, a, b) => {
            let s = copy_term(src, s, dst, map);
            let a = copy_term(src, a, dst, map);
            let b = copy_term(src, b, dst, map);
            PatNode::Switch2Leg(l, s, a, b)
        }
        PatNode::BitCompareLeg(l, a, b) => {
            let a = copy_term(src, a, dst, map);
            let b = copy_term(src, b, dst, map);
            PatNode::BitCompareLeg(l, a, b)
        }
        PatNode::Lut2Leg(l, t, a, b) => {
            let a = copy_term(src, a, dst, map);
            let b = copy_term(src, b, dst, map);
            PatNode::Lut2Leg(l, t, a, b)
        }
    };
    dst.intern(node)
}

/// One enumerated term: a single-root pattern plus cached facts.
struct Term {
    pat: Pattern,
    cvec: u64,
    ops: usize,
    var_pure: bool,
    printed: String,
}

fn term_of(pat: Pattern) -> Term {
    let root = pat.roots[0];
    let cvec = eval_term_lanes(&pat, root, &VAR_LANES);
    let ops = pat.op_count();
    // Each enumerated pattern is its own arena, so a Const node
    // anywhere means the term mentions a constant.
    let var_pure = !pat.nodes.iter().any(|n| matches!(n, PatNode::Const(_)));
    let printed = print_term(&pat, root);
    Term {
        pat,
        cvec,
        ops,
        var_pure,
        printed,
    }
}

/// Wraps one node over already-built child terms into a fresh pattern.
fn combine(node: impl Fn(&mut Pattern, Vec<PatRef>) -> PatNode, children: &[&Pattern]) -> Pattern {
    let mut pat = Pattern::default();
    let refs: Vec<PatRef> = children
        .iter()
        .map(|c| {
            let mut id = vec![Some(0), Some(1), Some(2)];
            copy_term(c, c.roots[0], &mut pat, &mut id)
        })
        .collect();
    let n = node(&mut pat, refs);
    let r = pat.intern(n);
    pat.roots.push(r);
    pat
}

fn atom(node: PatNode) -> Pattern {
    let mut pat = Pattern::default();
    let r = pat.intern(node);
    pat.roots.push(r);
    pat
}

/// All gate orderings worth enumerating: gates are commutative, so only
/// `a <= b` orderings (by printed child) would suffice; the matcher
/// tries both operand orders anyway, so enumeration keeps the straight
/// product and lets dedup collapse the rest.
const GATES: [GateOp; 6] = [
    GateOp::And,
    GateOp::Or,
    GateOp::Xor,
    GateOp::Nand,
    GateOp::Nor,
    GateOp::Xnor,
];

/// Depth-≤ 1 terms over `children` (one op applied to the given child
/// terms). `legs` adds the multi-output leg terms.
fn depth1(children: &[Pattern]) -> Vec<Pattern> {
    let mut out = Vec::new();
    for a in children {
        out.push(combine(|_, r| PatNode::Not(r[0]), &[a]));
        for b in children {
            for g in GATES {
                out.push(combine(|_, r| PatNode::Gate(g, r[0], r[1]), &[a, b]));
            }
            for l in 0..2u8 {
                out.push(combine(
                    |_, r| PatNode::BitCompareLeg(l, r[0], r[1]),
                    &[a, b],
                ));
                out.push(combine(|_, r| PatNode::DemuxLeg(l, r[0], r[1]), &[a, b]));
            }
            for s in children {
                out.push(combine(|_, r| PatNode::Mux(r[0], r[1], r[2]), &[s, a, b]));
                for l in 0..2u8 {
                    out.push(combine(
                        |_, r| PatNode::Switch2Leg(l, r[0], r[1], r[2]),
                        &[s, a, b],
                    ));
                }
            }
        }
    }
    out
}

/// The left-hand-side pool: variable-pure terms of op count 1–2. Depth
/// 2 is restricted to {not, gate, cmp} outer ops over {not, gate, cmp}
/// inner terms — the shapes the sorting-network pipelines actually
/// produce in series — to keep enumeration small and deterministic.
fn lhs_pool() -> Vec<Term> {
    let vars: Vec<Pattern> = (0..N_VARS).map(|i| atom(PatNode::Var(i))).collect();
    let var_refs: Vec<Pattern> = vars.clone();
    let mut inner: Vec<Pattern> = var_refs.clone();
    for a in &vars {
        inner.push(combine(|_, r| PatNode::Not(r[0]), &[a]));
        for b in &vars {
            for g in GATES {
                inner.push(combine(|_, r| PatNode::Gate(g, r[0], r[1]), &[a, b]));
            }
            for l in 0..2u8 {
                inner.push(combine(
                    |_, r| PatNode::BitCompareLeg(l, r[0], r[1]),
                    &[a, b],
                ));
            }
        }
    }
    let mut pool: Vec<Pattern> = depth1(&var_refs);
    for a in &inner {
        pool.push(combine(|_, r| PatNode::Not(r[0]), &[a]));
        for b in &inner {
            for g in GATES {
                pool.push(combine(|_, r| PatNode::Gate(g, r[0], r[1]), &[a, b]));
            }
            for l in 0..2u8 {
                pool.push(combine(
                    |_, r| PatNode::BitCompareLeg(l, r[0], r[1]),
                    &[a, b],
                ));
            }
        }
    }
    pool.into_iter()
        .map(term_of)
        .filter(|t| t.var_pure && (1..=2).contains(&t.ops))
        .collect()
}

/// The representative pool: everything of op count ≤ 1 (constants
/// allowed), keyed by cvec, keeping the cheapest (then lexically first)
/// term per class.
fn rep_pool() -> HashMap<u64, Term> {
    let mut atoms: Vec<Pattern> = (0..N_VARS).map(|i| atom(PatNode::Var(i))).collect();
    atoms.push(atom(PatNode::Const(false)));
    atoms.push(atom(PatNode::Const(true)));
    let mut reps: HashMap<u64, Term> = HashMap::new();
    let mut offer = |t: Term| match reps.entry(t.cvec) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(t);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let cur = e.get();
            if (t.ops, &t.printed) < (cur.ops, &cur.printed) {
                e.insert(t);
            }
        }
    };
    for a in atoms.clone() {
        offer(term_of(a));
    }
    for p in depth1(&atoms) {
        offer(term_of(p));
    }
    reps
}

/// Builds `name` from a printed LHS: lowercase tokens joined by `-`.
fn slug(printed: &str) -> String {
    let mut out = String::from("syn");
    let mut dash = true;
    for ch in printed.chars() {
        if ch.is_ascii_alphanumeric() {
            if dash {
                out.push('-');
                dash = false;
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            dash = true;
        }
    }
    out
}

/// Set of variable indices used by side `pat`.
fn side_vars(pat: &Pattern) -> Vec<u8> {
    let mut vars = Vec::new();
    for &r in &pat.roots {
        pat.vars_of(r, &mut vars);
    }
    vars
}

/// Synthesizes the full ruleset: the curated preamble followed by
/// deterministic discovered rules (enumerate → cvec match → strictly
/// cheaper representative → exhaustive verification). Pure: same code,
/// same output bytes.
pub fn synthesize() -> RuleSet {
    let mut set = RuleSet::parse(PREAMBLE).expect("preamble parses");
    let known_lhs: Vec<String> = set
        .rules
        .iter()
        .filter(|r| r.lhs.roots.len() == 1)
        .map(|r| print_term(&r.lhs, r.lhs.roots[0]))
        .collect();

    let reps = rep_pool();
    let mut discovered: Vec<Rule> = Vec::new();
    let mut seen_lhs: Vec<String> = Vec::new();
    let mut pool = lhs_pool();
    pool.sort_by(|a, b| (a.ops, &a.printed).cmp(&(b.ops, &b.printed)));
    for t in pool {
        let Some(rep) = reps.get(&t.cvec) else {
            continue;
        };
        if rep.ops >= t.ops {
            continue;
        }
        // Canonicalize variables by first appearance in the LHS, then
        // map the representative through the same assignment.
        let mut map: Vec<Option<u8>> = vec![None; N_VARS as usize];
        let mut lhs = Pattern::default();
        let r = copy_term(&t.pat, t.pat.roots[0], &mut lhs, &mut map);
        lhs.roots.push(r);
        // RHS variables must be a subset of the LHS's.
        let lhs_vars = side_vars(&t.pat);
        if !side_vars(&rep.pat).iter().all(|v| lhs_vars.contains(v)) {
            continue;
        }
        let mut rhs = Pattern::default();
        let r = copy_term(&rep.pat, rep.pat.roots[0], &mut rhs, &mut map);
        rhs.roots.push(r);
        let printed_lhs = print_term(&lhs, lhs.roots[0]);
        if known_lhs.contains(&printed_lhs) || seen_lhs.contains(&printed_lhs) {
            continue;
        }
        let mut name = slug(&printed_lhs);
        let mut k = 2;
        while set.rules.iter().chain(&discovered).any(|r| r.name == name) {
            name = format!("{}-{k}", slug(&printed_lhs));
            k += 1;
        }
        let rule = Rule { name, lhs, rhs };
        if validate_rule(&rule).is_err() || verify_rule(&rule).is_err() {
            continue;
        }
        seen_lhs.push(printed_lhs);
        discovered.push(rule);
    }
    // Cap the tail round-robin across outer op kinds (the first token
    // of the printed LHS), so the budget is not spent entirely on the
    // lexically-first `and` shapes: every outer op contributes its
    // cheapest discoveries first. Deterministic given the sorted pool.
    let outer_kind = |r: &Rule| -> String {
        let p = print_term(&r.lhs, r.lhs.roots[0]);
        p.trim_start_matches('(')
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_owned()
    };
    let mut by_kind: Vec<(String, Vec<Rule>)> = Vec::new();
    for rule in discovered {
        let k = outer_kind(&rule);
        match by_kind.iter_mut().find(|(kk, _)| *kk == k) {
            Some((_, v)) => v.push(rule),
            None => by_kind.push((k, vec![rule])),
        }
    }
    by_kind.sort_by(|a, b| a.0.cmp(&b.0));
    let mut picked: Vec<Rule> = Vec::new();
    let mut idx = 0usize;
    while picked.len() < MAX_DISCOVERED {
        let mut any = false;
        for (_, v) in &mut by_kind {
            if idx < v.len() {
                // Queues are drained front-first; clone keeps this
                // simple (rules are tiny).
                picked.push(v[idx].clone());
                any = true;
                if picked.len() >= MAX_DISCOVERED {
                    break;
                }
            }
        }
        if !any {
            break;
        }
        idx += 1;
    }
    picked.sort_by(|a, b| a.name.cmp(&b.name));
    set.rules.extend(picked);
    set
}

/// Full ruleset audit: structural validation, print→parse round-trip,
/// known builtin names, and exhaustive semantic verification of every
/// rule. Returns the first failure.
pub fn check(set: &RuleSet) -> Result<(), String> {
    for b in &set.builtins {
        if !BUILTINS.contains(&b.as_str()) {
            return Err(format!(
                "unknown builtin `{b}` (pass implements: {})",
                BUILTINS.join(", ")
            ));
        }
    }
    for rule in &set.rules {
        validate_rule(rule)?;
        verify_rule(rule)?;
    }
    let reparsed =
        RuleSet::parse(&set.print()).map_err(|e| format!("printed form does not re-parse: {e}"))?;
    if &reparsed != set {
        return Err("print → parse is not the identity for this set".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_set_passes_check() {
        let set = synthesize();
        check(&set).expect("synthesized ruleset must self-check");
        // The tail actually discovered something beyond the preamble.
        let preamble = RuleSet::parse(PREAMBLE).unwrap();
        assert!(
            set.rules.len() > preamble.rules.len(),
            "synthesis discovered no rules"
        );
        // Deterministic: a second run is byte-identical.
        assert_eq!(set.print(), synthesize().print());
    }

    #[test]
    fn discovered_rules_are_strict_improvements() {
        let set = synthesize();
        for r in set.rules.iter().filter(|r| r.name.starts_with("syn-")) {
            assert!(
                r.rhs.op_count() < r.lhs.op_count(),
                "rule `{}` is not strictly cheaper",
                r.name
            );
        }
    }

    #[test]
    fn verify_catches_wrong_rules() {
        let bad = RuleSet::parse("# absort-ruleset v1\nrule bad: (and x y) => (or x y)\n").unwrap();
        assert!(check(&bad).is_err());
        let bad_leg = RuleSet::parse(
            "# absort-ruleset v1\nrule bad: (cmp.0 x y), (cmp.1 x y) => (cmp.1 x y), (cmp.0 x y)\n",
        )
        .unwrap();
        assert!(check(&bad_leg).is_err());
        assert!(check(&RuleSet {
            rules: vec![],
            builtins: vec!["warp-drive".into()],
        })
        .is_err());
    }

    #[test]
    fn committed_default_ruleset_checks() {
        let text = include_str!("../../circuit/rules/absort.rules");
        let set = RuleSet::parse(text).expect("committed ruleset parses");
        check(&set).expect("committed ruleset must pass check");
    }
}

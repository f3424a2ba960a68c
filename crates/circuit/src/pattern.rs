//! Pattern/term layer for the declarative `rewrite` pass.
//!
//! A [`Rule`] rewrites a *multi-root* left-hand side — a list of leg
//! terms over shared pattern variables — into a same-arity list of
//! right-hand-side terms. Multi-output ops (demux/2×2 switch/comparator
//! legs) appear as *leg terms* (`(cmp.0 a b)` is the min leg of a bit
//! comparator), so a rule can consume several ops at once and replace
//! them with fewer: the half-adder rule
//!
//! ```text
//! rule pair-and-xor: (and x y), (xor x y) =>
//!     (lut2.0 0001.0110 x y), (lut2.1 0001.0110 x y)
//! ```
//!
//! fuses an AND/XOR pair over the same operands into the two used legs
//! of one 4×4 switch programmed as a dual 2-input LUT (see
//! [`lut2_switch4`]). Rules are stored in a versioned, human-readable
//! ruleset file (`# absort-ruleset v1` header) parsed by
//! [`RuleSet::parse`]; parametric Switch4 rewrites that cannot be
//! written as fixed terms (the permutations are op *attributes*) are
//! named `builtin` lines toggled by the same file and implemented
//! directly by the pass. Synthesis (`absort-rules`) regenerates the
//! `synthesized` section of the committed file; `RuleSet::print` is the
//! exact inverse of the parser so goldens round-trip byte-identically.

use crate::component::{GateOp, Perm4};

/// Index of a [`PatNode`] inside its [`Pattern`] arena.
pub type PatRef = u32;

/// Sentinel truth table for an unspecified (filler) LUT leg.
pub const LUT_UNUSED: u8 = 0xFF;

/// One node of a pattern term. Leg variants carry the output leg index
/// they denote; `Lut2Leg` exists on right-hand sides only (the matcher
/// never matches it) and names one leg of a Switch4-as-dual-LUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatNode {
    /// A pattern variable (binds any value; nonlinear occurrences must
    /// bind the same value).
    Var(u8),
    /// A constant leg.
    Const(bool),
    /// `(not a)`.
    Not(PatRef),
    /// `(and a b)` and friends.
    Gate(GateOp, PatRef, PatRef),
    /// `(mux s a1 a0)` — `s ? a1 : a0`.
    Mux(PatRef, PatRef, PatRef),
    /// `(demux.L s x)` — leg `L` of a demux.
    DemuxLeg(u8, PatRef, PatRef),
    /// `(sw2.L s a b)` — leg `L` of a 2×2 switch.
    Switch2Leg(u8, PatRef, PatRef, PatRef),
    /// `(cmp.L a b)` — leg `L` (0 = min, 1 = max) of a bit comparator.
    BitCompareLeg(u8, PatRef, PatRef),
    /// `(lut2.L t0.t1[.t2[.t3]] x y)` — leg `L` of a 4×4 switch
    /// programmed as up to four 2-input LUTs over `(x, y)`. Each truth
    /// table is 4 bits, bit `2x + y`; unspecified legs are
    /// [`LUT_UNUSED`] and filled by [`lut2_switch4`].
    Lut2Leg(u8, [u8; 4], PatRef, PatRef),
}

impl PatNode {
    /// Operand children in operand order: the first `arity` entries of
    /// the array (the rest are zero). Allocation-free, for the matcher.
    pub fn children(&self) -> ([PatRef; 3], usize) {
        match *self {
            PatNode::Var(_) | PatNode::Const(_) => ([0; 3], 0),
            PatNode::Not(a) => ([a, 0, 0], 1),
            PatNode::Gate(_, a, b)
            | PatNode::DemuxLeg(_, a, b)
            | PatNode::BitCompareLeg(_, a, b)
            | PatNode::Lut2Leg(_, _, a, b) => ([a, b, 0], 2),
            PatNode::Mux(s, a1, a0) => ([s, a1, a0], 3),
            PatNode::Switch2Leg(_, s, a, b) => ([s, a, b], 3),
        }
    }
}

/// A hash-consed arena of pattern nodes plus the term roots (one per
/// rule leg, left- or right-hand side).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    /// Node arena; children always precede parents.
    pub nodes: Vec<PatNode>,
    /// One root per rule leg.
    pub roots: Vec<PatRef>,
}

impl Pattern {
    /// Interns `node`, reusing an existing identical node (hash-consing
    /// keeps shared subterms — e.g. the two legs of a LUT pair — as one
    /// node, which the rewrite pass relies on to build one op).
    pub fn intern(&mut self, node: PatNode) -> PatRef {
        if let Some(i) = self.nodes.iter().position(|n| *n == node) {
            return i as PatRef;
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as PatRef
    }

    /// Number of distinct variables (max index + 1).
    pub fn n_vars(&self) -> u8 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                PatNode::Var(i) => Some(i + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The set of variable indices reachable from `root`.
    pub fn vars_of(&self, root: PatRef, out: &mut Vec<u8>) {
        match self.nodes[root as usize] {
            PatNode::Var(i) => {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            node => {
                let (kids, arity) = node.children();
                for &c in &kids[..arity] {
                    self.vars_of(c, out);
                }
            }
        }
    }

    /// Number of *ops* a term tree would take to build (vars and consts
    /// are free; multi-leg nodes over the same op node are hash-consed
    /// so they count once). Used by synthesis to pick representatives
    /// and by profit estimates.
    pub fn op_count(&self) -> usize {
        let mut live = vec![false; self.nodes.len()];
        fn mark(p: &Pattern, r: PatRef, live: &mut [bool]) {
            if live[r as usize] {
                return;
            }
            live[r as usize] = true;
            let (kids, arity) = p.nodes[r as usize].children();
            for &c in &kids[..arity] {
                mark(p, c, live);
            }
        }
        for &r in &self.roots {
            mark(self, r, &mut live);
        }
        // Legs of one multi-output op share the op: count each
        // (kind-sans-leg, operands) once.
        let mut seen: Vec<PatNode> = Vec::new();
        let mut count = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let canon = match *n {
                PatNode::Var(_) | PatNode::Const(_) => continue,
                PatNode::DemuxLeg(_, s, x) => PatNode::DemuxLeg(0, s, x),
                PatNode::Switch2Leg(_, s, a, b) => PatNode::Switch2Leg(0, s, a, b),
                PatNode::BitCompareLeg(_, a, b) => PatNode::BitCompareLeg(0, a, b),
                PatNode::Lut2Leg(_, t, a, b) => PatNode::Lut2Leg(0, t, a, b),
                other => other,
            };
            if !seen.contains(&canon) {
                seen.push(canon);
                count += 1;
            }
        }
        count
    }
}

/// One rewrite rule: same-arity LHS and RHS leg lists over shared
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Stable name (telemetry counter suffix, hit reporting).
    pub name: String,
    /// Left-hand side (matched against the IR).
    pub lhs: Pattern,
    /// Right-hand side (built into the IR on a match).
    pub rhs: Pattern,
}

/// A parsed ruleset: declarative rules plus named builtin toggles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleSet {
    /// Declarative rules, in file (= application priority) order.
    pub rules: Vec<Rule>,
    /// Enabled builtin (programmatic) rules, by name.
    pub builtins: Vec<String>,
}

/// The ruleset file format version this crate reads and writes.
pub const RULESET_VERSION: u32 = 1;

impl RuleSet {
    /// Parses the ruleset text format. Errors carry a line number and
    /// reason.
    pub fn parse(text: &str) -> Result<RuleSet, String> {
        let mut saw_header = false;
        let mut set = RuleSet::default();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let at = |m: String| format!("line {}: {m}", ln + 1);
            if !saw_header {
                if line.is_empty() {
                    continue;
                }
                let Some(v) = line.strip_prefix("# absort-ruleset v") else {
                    return Err(at("missing `# absort-ruleset v1` header".into()));
                };
                if v.trim() != RULESET_VERSION.to_string() {
                    return Err(at(format!("unsupported ruleset version `{}`", v.trim())));
                }
                saw_header = true;
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix("builtin ") {
                let name = name.trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                    return Err(at(format!("bad builtin name `{name}`")));
                }
                set.builtins.push(name.to_owned());
                continue;
            }
            let Some(rest) = line.strip_prefix("rule ") else {
                return Err(at(format!(
                    "expected `rule`, `builtin`, or comment: `{line}`"
                )));
            };
            let Some((name, body)) = rest.split_once(':') else {
                return Err(at("missing `:` after rule name".into()));
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                return Err(at(format!("bad rule name `{name}`")));
            }
            if set.rules.iter().any(|r| r.name == name) {
                return Err(at(format!("duplicate rule name `{name}`")));
            }
            let Some((lhs_s, rhs_s)) = body.split_once("=>") else {
                return Err(at("missing `=>`".into()));
            };
            let mut vars: Vec<String> = Vec::new();
            let lhs = parse_side(lhs_s, &mut vars).map_err(|e| at(format!("lhs: {e}")))?;
            let rhs = parse_side(rhs_s, &mut vars).map_err(|e| at(format!("rhs: {e}")))?;
            let rule = Rule {
                name: name.to_owned(),
                lhs,
                rhs,
            };
            validate_rule(&rule).map_err(at)?;
            set.rules.push(rule);
        }
        if !saw_header {
            return Err("empty ruleset: missing `# absort-ruleset v1` header".into());
        }
        Ok(set)
    }

    /// Prints the ruleset in the exact format [`RuleSet::parse`] reads
    /// (the parser–printer pair round-trips byte-identically, which the
    /// golden test relies on).
    pub fn print(&self) -> String {
        let mut out = format!("# absort-ruleset v{RULESET_VERSION}\n");
        for b in &self.builtins {
            out.push_str(&format!("builtin {b}\n"));
        }
        for r in &self.rules {
            out.push_str(&format!(
                "rule {}: {} => {}\n",
                r.name,
                print_side(&r.lhs),
                print_side(&r.rhs)
            ));
        }
        out
    }
}

/// Validates the structural constraints the matcher and the rewrite
/// pass rely on; returns a reason on violation.
pub fn validate_rule(rule: &Rule) -> Result<(), String> {
    if rule.lhs.roots.is_empty() || rule.lhs.roots.len() != rule.rhs.roots.len() {
        return Err(format!(
            "rule `{}`: lhs and rhs must have the same nonzero arity",
            rule.name
        ));
    }
    // Root 0 anchors the scan, so it must be an op term; every variable
    // must appear in it so companion roots resolve as ground terms.
    let r0 = rule.lhs.roots[0];
    if matches!(
        rule.lhs.nodes[r0 as usize],
        PatNode::Var(_) | PatNode::Const(_)
    ) {
        return Err(format!(
            "rule `{}`: lhs root 0 must be an op term",
            rule.name
        ));
    }
    let mut root0_vars = Vec::new();
    rule.lhs.vars_of(r0, &mut root0_vars);
    let mut all_vars = Vec::new();
    for &r in &rule.lhs.roots {
        rule.lhs.vars_of(r, &mut all_vars);
    }
    for v in &all_vars {
        if !root0_vars.contains(v) {
            return Err(format!(
                "rule `{}`: every lhs variable must appear in root 0",
                rule.name
            ));
        }
    }
    let mut rhs_vars = Vec::new();
    for &r in &rule.rhs.roots {
        rule.rhs.vars_of(r, &mut rhs_vars);
    }
    for v in &rhs_vars {
        if !all_vars.contains(v) {
            return Err(format!(
                "rule `{}`: rhs uses a variable the lhs does not bind",
                rule.name
            ));
        }
    }
    for n in &rule.lhs.nodes {
        if matches!(n, PatNode::Lut2Leg(..)) {
            return Err(format!(
                "rule `{}`: lut2 legs are rhs-only (the matcher cannot match switch attributes)",
                rule.name
            ));
        }
    }
    // Every rhs LUT must be constructible (checked eagerly so bad rules
    // fail at load, not mid-compile).
    for n in &rule.rhs.nodes {
        if let PatNode::Lut2Leg(leg, tts, _, _) = *n {
            if leg > 3 || tts[leg as usize] == LUT_UNUSED {
                return Err(format!(
                    "rule `{}`: lut2 leg {leg} has no truth table",
                    rule.name
                ));
            }
            lut2_switch4(&tts).map_err(|e| format!("rule `{}`: {e}", rule.name))?;
        }
    }
    Ok(())
}

// --- term parsing -------------------------------------------------------

fn parse_side(s: &str, vars: &mut Vec<String>) -> Result<Pattern, String> {
    let mut pat = Pattern::default();
    for term in split_terms(s)? {
        let toks = tokenize(&term)?;
        let mut pos = 0usize;
        let root = parse_term(&toks, &mut pos, &mut pat, vars)?;
        if pos != toks.len() {
            return Err(format!("trailing tokens after term `{term}`"));
        }
        pat.roots.push(root);
    }
    if pat.roots.is_empty() {
        return Err("empty side".into());
    }
    Ok(pat)
}

/// Splits a side into top-level comma-separated terms (commas inside
/// parentheses don't occur in this grammar, but be safe).
fn split_terms(s: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced `)`".into());
                }
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if depth != 0 {
        return Err("unbalanced `(`".into());
    }
    out.push(cur);
    Ok(out.into_iter().map(|t| t.trim().to_owned()).collect())
}

fn tokenize(s: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' => cur.push(c),
            c => return Err(format!("bad character `{c}`")),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    Ok(toks)
}

fn parse_term(
    toks: &[String],
    pos: &mut usize,
    pat: &mut Pattern,
    vars: &mut Vec<String>,
) -> Result<PatRef, String> {
    let Some(tok) = toks.get(*pos) else {
        return Err("unexpected end of term".into());
    };
    *pos += 1;
    if tok != "(" {
        // Atom: a constant or a variable.
        return Ok(match tok.as_str() {
            ")" => return Err("unexpected `)`".into()),
            "0" => pat.intern(PatNode::Const(false)),
            "1" => pat.intern(PatNode::Const(true)),
            name => {
                if !name.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
                    return Err(format!("bad atom `{name}`"));
                }
                let idx = match vars.iter().position(|v| v == name) {
                    Some(i) => i,
                    None => {
                        vars.push(name.to_owned());
                        vars.len() - 1
                    }
                };
                let idx =
                    u8::try_from(idx).map_err(|_| "too many distinct variables".to_owned())?;
                pat.intern(PatNode::Var(idx))
            }
        });
    }
    let Some(head) = toks.get(*pos) else {
        return Err("missing op after `(`".into());
    };
    *pos += 1;
    let (op, leg) = match head.split_once('.') {
        Some((op, leg)) => {
            let leg: u8 = leg.parse().map_err(|_| format!("bad leg in `{head}`"))?;
            (op, Some(leg))
        }
        None => (head.as_str(), None),
    };
    let mut args = |n: usize, pos: &mut usize| -> Result<Vec<PatRef>, String> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(parse_term(toks, pos, pat, vars)?);
        }
        out.push(0); // placeholder removed below; keeps borrowck simple
        out.pop();
        Ok(out)
    };
    let gate = |g: GateOp| Some(g);
    let node = match (op, leg) {
        ("not", None) => {
            let a = args(1, pos)?;
            PatNode::Not(a[0])
        }
        ("and", None)
        | ("or", None)
        | ("xor", None)
        | ("nand", None)
        | ("nor", None)
        | ("xnor", None) => {
            let g = match op {
                "and" => gate(GateOp::And),
                "or" => gate(GateOp::Or),
                "xor" => gate(GateOp::Xor),
                "nand" => gate(GateOp::Nand),
                "nor" => gate(GateOp::Nor),
                _ => gate(GateOp::Xnor),
            }
            .unwrap();
            let a = args(2, pos)?;
            PatNode::Gate(g, a[0], a[1])
        }
        ("mux", None) => {
            let a = args(3, pos)?;
            PatNode::Mux(a[0], a[1], a[2])
        }
        ("demux", Some(l @ 0..=1)) => {
            let a = args(2, pos)?;
            PatNode::DemuxLeg(l, a[0], a[1])
        }
        ("sw2", Some(l @ 0..=1)) => {
            let a = args(3, pos)?;
            PatNode::Switch2Leg(l, a[0], a[1], a[2])
        }
        ("cmp", Some(l @ 0..=1)) => {
            let a = args(2, pos)?;
            PatNode::BitCompareLeg(l, a[0], a[1])
        }
        ("lut2", Some(l @ 0..=3)) => {
            let Some(tt_tok) = toks.get(*pos) else {
                return Err("lut2: missing truth tables".into());
            };
            *pos += 1;
            let mut tts = [LUT_UNUSED; 4];
            for (i, part) in tt_tok.split('.').enumerate() {
                if i >= 4 || part.len() != 4 || !part.chars().all(|c| c == '0' || c == '1') {
                    return Err(format!("lut2: bad truth tables `{tt_tok}`"));
                }
                let mut tt = 0u8;
                for (k, c) in part.chars().enumerate() {
                    if c == '1' {
                        tt |= 1 << k;
                    }
                }
                tts[i] = tt;
            }
            let a = args(2, pos)?;
            PatNode::Lut2Leg(l, tts, a[0], a[1])
        }
        _ => return Err(format!("unknown op `{head}`")),
    };
    match toks.get(*pos) {
        Some(t) if t == ")" => {
            *pos += 1;
        }
        _ => return Err(format!("missing `)` after `{head}`")),
    }
    Ok(pat.intern(node))
}

// --- term printing ------------------------------------------------------

/// Variable names used by the printer: `x y z w` then `v4 v5 …`.
pub fn var_name(i: u8) -> String {
    match i {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        n => format!("v{n}"),
    }
}

fn print_side(pat: &Pattern) -> String {
    pat.roots
        .iter()
        .map(|&r| print_term(pat, r))
        .collect::<Vec<_>>()
        .join(", ")
}

fn tt_str(tts: &[u8; 4]) -> String {
    let one = |tt: u8| -> String {
        (0..4)
            .map(|k| if tt >> k & 1 == 1 { '1' } else { '0' })
            .collect()
    };
    tts.iter()
        .take_while(|&&t| t != LUT_UNUSED)
        .map(|&t| one(t))
        .collect::<Vec<_>>()
        .join(".")
}

/// Prints one term in the parseable s-expression syntax.
pub fn print_term(pat: &Pattern, r: PatRef) -> String {
    let c = |r: PatRef| print_term(pat, r);
    match pat.nodes[r as usize] {
        PatNode::Var(i) => var_name(i),
        PatNode::Const(v) => if v { "1" } else { "0" }.into(),
        PatNode::Not(a) => format!("(not {})", c(a)),
        PatNode::Gate(g, a, b) => {
            let n = match g {
                GateOp::And => "and",
                GateOp::Or => "or",
                GateOp::Xor => "xor",
                GateOp::Nand => "nand",
                GateOp::Nor => "nor",
                GateOp::Xnor => "xnor",
            };
            format!("({n} {} {})", c(a), c(b))
        }
        PatNode::Mux(s, a1, a0) => format!("(mux {} {} {})", c(s), c(a1), c(a0)),
        PatNode::DemuxLeg(l, s, x) => format!("(demux.{l} {} {})", c(s), c(x)),
        PatNode::Switch2Leg(l, s, a, b) => {
            format!("(sw2.{l} {} {} {})", c(s), c(a), c(b))
        }
        PatNode::BitCompareLeg(l, a, b) => format!("(cmp.{l} {} {})", c(a), c(b)),
        PatNode::Lut2Leg(l, tts, a, b) => {
            format!("(lut2.{l} {} {} {})", tt_str(&tts), c(a), c(b))
        }
    }
}

// --- LUT → Switch4 construction -----------------------------------------

/// Programs a 4×4 switch as up to four independent 2-input LUTs over a
/// shared operand pair `(x, y)`: with data inputs
/// `ins = [false, true, false, true]` (the canonical constants,
/// duplicated so each leg can read a distinct input index) and selects
/// `s1 = x`, `s0 = y`, leg `j` computes `tts[j]` — bit `2x + y` — for
/// every select combination. Returns the four *genuine permutation*
/// rows, or an error when the requested tables need more than two
/// `true` (or `false`) sources at some select value (impossible for
/// ≤ 2 specified legs, i.e. for every pair rule). Filler legs
/// ([`LUT_UNUSED`]) are assigned whatever completes each permutation.
pub fn lut2_switch4(tts: &[u8; 4]) -> Result<[Perm4; 4], String> {
    let mut perms = [[0u8; 4]; 4];
    for combo in 0..4u8 {
        // Desired bit per leg at this select combination.
        let mut want = [false; 4];
        let mut n_true = 0usize;
        let mut fillers = Vec::new();
        for leg in 0..4 {
            if tts[leg] == LUT_UNUSED {
                fillers.push(leg);
            } else {
                want[leg] = tts[leg] >> combo & 1 == 1;
                n_true += usize::from(want[leg]);
            }
        }
        // ins = [F, T, F, T]: exactly two true sources, two false.
        if n_true > 2 || (4 - fillers.len() - n_true) > 2 {
            return Err(format!(
                "lut2 tables need >2 equal sources at select {combo}"
            ));
        }
        for leg in fillers {
            let fill_true = n_true < 2;
            want[leg] = fill_true;
            n_true += usize::from(fill_true);
        }
        // True sources are input indices {1, 3}; false are {0, 2}.
        let (mut next_t, mut next_f) = (1u8, 0u8);
        for leg in 0..4 {
            if want[leg] {
                perms[combo as usize][leg] = next_t;
                next_t += 2;
            } else {
                perms[combo as usize][leg] = next_f;
                next_f += 2;
            }
        }
    }
    Ok(perms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_print_roundtrip() {
        let text = "# absort-ruleset v1\n\
                    builtin sw4-const-select\n\
                    rule not-not: (not (not x)) => x\n\
                    rule pair-and-xor: (and x y), (xor x y) => \
                    (lut2.0 0001.0110 x y), (lut2.1 0001.0110 x y)\n\
                    rule mux-same: (mux s x x) => x\n";
        let set = RuleSet::parse(text).unwrap();
        assert_eq!(set.builtins, vec!["sw4-const-select".to_owned()]);
        assert_eq!(set.rules.len(), 3);
        // Print → parse is the identity on the parsed form.
        let printed = set.print();
        assert_eq!(RuleSet::parse(&printed).unwrap(), set);
        assert_eq!(RuleSet::parse(&set.print()).unwrap().print(), printed);
    }

    #[test]
    fn rejects_malformed() {
        assert!(RuleSet::parse("rule x: a => a").is_err()); // no header
        let hdr = "# absort-ruleset v1\n";
        for bad in [
            "rule r: x => x",                   // root 0 not an op
            "rule r: (not x) => (not y)",       // unbound rhs var
            "rule r: (and x y) => x, y",        // arity mismatch
            "rule r: (not x), (not y) => x, y", // var y missing from root 0
            "rule r: (lut2.0 0110 x y) => x",   // lut on lhs
            "rule r: (warp x) => x",            // unknown op
            "rule r: (not x => x",              // unbalanced
            "rule r (not x) => x",              // missing colon
        ] {
            assert!(
                RuleSet::parse(&format!("{hdr}{bad}\n")).is_err(),
                "should reject: {bad}"
            );
        }
        // Duplicate names rejected.
        assert!(RuleSet::parse(&format!(
            "{hdr}rule r: (not x) => x\nrule r: (not (not x)) => x\n"
        ))
        .is_err());
    }

    #[test]
    fn lut2_rows_are_permutations() {
        for t0 in 0..16u8 {
            for t1 in 0..16u8 {
                let perms = lut2_switch4(&[t0, t1, LUT_UNUSED, LUT_UNUSED]).unwrap();
                for row in perms {
                    let mut seen = [false; 4];
                    for j in row {
                        assert!(!seen[j as usize], "row {row:?} is not a permutation");
                        seen[j as usize] = true;
                    }
                }
                // Check the computed function: ins = [F,T,F,T].
                let ins = [false, true, false, true];
                for combo in 0..4u8 {
                    for (leg, tt) in [(0usize, t0), (1, t1)] {
                        let got = ins[perms[combo as usize][leg] as usize];
                        assert_eq!(got, tt >> combo & 1 == 1, "t0={t0} t1={t1} combo={combo}");
                    }
                }
            }
        }
    }

    #[test]
    fn op_count_shares_legs() {
        let text = "# absort-ruleset v1\n\
                    rule p: (and x y), (xor x y) => \
                    (lut2.0 0001.0110 x y), (lut2.1 0001.0110 x y)\n";
        let set = RuleSet::parse(text).unwrap();
        assert_eq!(set.rules[0].lhs.op_count(), 2);
        assert_eq!(set.rules[0].rhs.op_count(), 1);
    }
}

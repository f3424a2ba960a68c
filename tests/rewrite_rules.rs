//! Integration pins for the declarative rewrite pass and its ruleset.
//!
//! * **semantic preservation** — interpreter vs compiled tape across the
//!   network catalog × every opt level × ruleset on/off: exhaustively at
//!   n ≤ 8, and on proptest-generated lane batches;
//! * **tape reduction** — the committed ruleset must keep buying ≥ 5%
//!   of the post-pipeline tape on at least two catalog networks at
//!   n = 64, and must never grow any network at any size;
//! * **fault-campaign byte-identity** — the `--network all` campaign
//!   report is bit-for-bit identical between O0 and O2-with-rules (the
//!   provenance contract: rewrites change the tape, never the report);
//! * **golden ruleset** — `crates/circuit/rules/absort.rules` is exactly
//!   what `absort::rules::synthesize()` prints and passes the exhaustive
//!   checker. Regenerate with `BLESS=1 cargo test --test rewrite_rules`
//!   after an intentional synthesis change.

use absort::analysis::faults::{fish_k, run_campaign, CampaignConfig, NetworkSel};
use absort::circuit::{
    Circuit, CompileOptions, CompiledEvaluator, Engine, Evaluator, OptLevel, PassName,
};
use absort::core::{fish, muxmerge, nonadaptive, prefix};
use proptest::prelude::*;

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

/// Every opt level, each with the ruleset both on (as the level ships
/// it) and explicitly off.
fn variants() -> Vec<(String, CompileOptions)> {
    let mut v = Vec::new();
    for level in OptLevel::ALL {
        let opts = CompileOptions::for_level(level);
        v.push((format!("O{level}"), opts));
        let mut off = opts;
        off.passes = off.passes.without(PassName::Rewrite);
        v.push((format!("O{level}-no-rewrite"), off));
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
fn rewrite_preserves_semantics_exhaustively_at_small_n() {
    for n in [4usize, 8] {
        for (name, circuit) in catalog(n) {
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut expect = vec![0u64; n];
            for (vname, opts) in variants() {
                let cc = circuit.compile_with(&opts);
                let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
                let mut got = vec![0u64; n];
                let total = 1u64 << n;
                let mut base = 0u64;
                while base < total {
                    let count = ((total - base) as usize).min(64);
                    let packed = pack_range(n, base, count);
                    interp.run_into(&packed, &mut expect);
                    comp.run_into(&packed, &mut got);
                    assert_eq!(
                        expect, got,
                        "{name} n={n} {vname}: diverged from interpreter at base {base}"
                    );
                    base += count as u64;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rewrite_preserves_semantics_on_random_lane_batches(
        packed in proptest::collection::vec(any::<u64>(), 8)
    ) {
        let n = 8usize;
        for (name, circuit) in catalog(n) {
            let mut interp: Evaluator<'_, u64> = Evaluator::new(&circuit);
            let mut expect = vec![0u64; n];
            interp.run_into(&packed, &mut expect);
            for (vname, opts) in variants() {
                let cc = circuit.compile_with(&opts);
                let mut comp: CompiledEvaluator<'_, u64> = CompiledEvaluator::new(&cc);
                let mut got = vec![0u64; n];
                comp.run_into(&packed, &mut got);
                prop_assert_eq!(
                    &expect, &got,
                    "{} n={} {}: diverged from interpreter", name, n, vname
                );
            }
        }
    }
}

/// The PR's acceptance bar, pinned: the ruleset buys at least 5% of
/// the post-pipeline tape on ≥ 2 catalog networks at n = 64, and never
/// grows any network at any tested size.
#[test]
fn ruleset_reduces_tape_and_never_grows_it() {
    let mut wins = Vec::new();
    for n in [8usize, 64] {
        for (name, circuit) in catalog(n) {
            let on = circuit.compile().tape_len();
            let mut off_opts = CompileOptions::default();
            off_opts.passes = off_opts.passes.without(PassName::Rewrite);
            let off = circuit.compile_with(&off_opts).tape_len();
            assert!(
                on <= off,
                "{name} n={n}: rewrite grew the tape ({off} -> {on} ops)"
            );
            if n == 64 && (off - on) as f64 / off as f64 >= 0.05 {
                wins.push(name);
            }
        }
    }
    assert!(
        wins.len() >= 2,
        "ruleset must buy >=5% on at least two catalog networks at n=64, got {wins:?}"
    );
}

/// Rewrites change the tape, never the fault report: byte-identical
/// campaign JSON between the unoptimized tape and the full O2 pipeline
/// with the ruleset enabled.
#[test]
fn fault_campaign_report_is_byte_identical_across_opt_levels() {
    let cfg = |level: OptLevel| CampaignConfig {
        n: 8,
        engine: Engine::Compiled,
        opt: CompileOptions::for_level(level),
        ..CampaignConfig::default()
    };
    let o0 = run_campaign(&NetworkSel::ALL, &cfg(OptLevel::O0));
    let o2 = run_campaign(&NetworkSel::ALL, &cfg(OptLevel::O2));
    assert_eq!(
        o0.to_json().to_pretty(),
        o2.to_json().to_pretty(),
        "campaign report must be bit-identical between O0 and O2-with-rules"
    );
}

/// The rewrite pass must actually report through telemetry-visible
/// surfaces: pass stats on the tape it shrank, and per-rule hit
/// counters for `absort inspect`.
#[test]
fn rewrite_reports_pass_stats_and_rule_hits() {
    let cc = prefix::build(64).compile();
    let stats = cc
        .pass_stats()
        .iter()
        .find(|s| s.name == "rewrite")
        .expect("rewrite pass runs at the default O2");
    assert!(
        stats.ops_after < stats.ops_before,
        "rewrite must shrink prefix n=64 ({} -> {})",
        stats.ops_before,
        stats.ops_after
    );
    assert!(
        !cc.rewrite_hits().is_empty(),
        "per-rule hit counters must be recorded"
    );
    assert!(cc.rewrite_hits().iter().all(|(_, hits)| *hits > 0));
}

/// The matcher's exact output, pinned: tape length and the full
/// per-rule hit table of every catalog network at n = 64 and 256 under
/// the default options (values captured before the anchor-indexed
/// matcher replaced the file-order scan). "Shrinks by ≥ 5%" alone would
/// let a matcher that finds different matches pass. The O0+rewrite fish
/// rows pin the rules that fire only where const-prop and CSE have not
/// run first.
#[test]
fn rewrite_output_is_pinned_exactly() {
    type Pin<'a> = (&'a str, usize, usize, &'a [(&'a str, u32)]);
    let default: [Pin; 8] = [
        ("prefix", 64, 1162, &[("pair-and-xor", 168)]),
        ("mux-merger", 64, 321, &[]),
        ("fish", 64, 1693, &[("pair-and-xor", 132)]),
        ("batcher", 64, 672, &[]),
        ("prefix", 256, 6273, &[("pair-and-xor", 709)]),
        ("mux-merger", 256, 1793, &[]),
        ("fish", 256, 11495, &[("pair-and-xor", 612)]),
        ("batcher", 256, 4608, &[]),
    ];
    let fish_o0: [Pin; 2] = [
        (
            "fish",
            64,
            2438,
            &[
                ("and-idem", 6),
                ("pair-and-xor", 201),
                ("syn-or-and-x-x-y", 6),
                ("syn-xor-x-x", 12),
            ],
        ),
        (
            "fish",
            256,
            15948,
            &[
                ("and-idem", 16),
                ("pair-and-xor", 924),
                ("syn-or-and-x-x-y", 16),
                ("syn-xor-x-x", 24),
            ],
        ),
    ];
    let mut rw_only = CompileOptions::for_level(OptLevel::O0);
    rw_only.passes = rw_only.passes.with(PassName::Rewrite);
    let runs = [
        ("default", CompileOptions::default(), &default[..]),
        ("O0+rewrite", rw_only, &fish_o0[..]),
    ];
    for (vname, opts, pins) in runs {
        for &(name, n, len, hits) in pins {
            let (_, circuit) = catalog(n)
                .into_iter()
                .find(|(c, _)| *c == name)
                .expect("pinned network is in the catalog");
            let cc = circuit.compile_with(&opts);
            let hits: Vec<(String, u32)> = hits.iter().map(|&(r, h)| (r.to_owned(), h)).collect();
            assert_eq!(cc.tape().len(), len, "{name} n={n} {vname}: tape length");
            assert_eq!(
                cc.rewrite_hits(),
                &hits[..],
                "{name} n={n} {vname}: hit table"
            );
        }
    }
}

fn ruleset_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../circuit/rules/absort.rules")
}

#[test]
fn committed_ruleset_is_blessed_synthesis_output() {
    let synth = absort::rules::synthesize();
    absort::rules::check(&synth).expect("synthesized ruleset verifies");
    let text = synth.print();
    let path = ruleset_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).expect("write blessed ruleset");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("committed ruleset readable");
    assert_eq!(
        committed, text,
        "crates/circuit/rules/absort.rules is stale — rerun with \
         BLESS=1 cargo test --test rewrite_rules"
    );
}

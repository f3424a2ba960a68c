//! `campaign` workload: `run_campaign` over every network with the
//! default campaign configuration at `n = 8` (dominated by per-mutant
//! recompiles) and `n = 16` (dominated by exhaustive evaluation),
//! repeated to fill the run.
//!
//! Each report's JSON (which carries no timings) must equal a reference
//! report built once in set-up with the interpreting engine, which never
//! touches the compiler under test.

use std::time::Instant;

use absort_analysis::faults::{
    build_network, run_campaign, run_network, CampaignConfig, NetworkSel,
};
use absort_circuit::mutate::{self, Fault};
use absort_circuit::{Engine, MutantTape};
use absort_faults::CampaignReport;
use absort_networks::hardened::harden;

use crate::library;
use crate::stats::{median, trimmed_mean};
use crate::trace::{Tracer, ROOT};
use crate::{peak_rss_mb, BenchError, Outcome};

/// Seconds of circuit rounds the untraced run interleaves per second of
/// campaigns (a third of the run).
const CIRCUIT_SHARE: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Config {
    /// Campaign widths; the first is repeated `small_per_large` times per
    /// run of the second.
    pub sizes: [usize; 2],
    pub small_per_large: usize,
    /// Campaigns of each width run even when the time is up.
    pub min_reps: usize,
    pub setup_reps: usize,
    /// The campaign's networks at its widths, built, compiled and sorted
    /// between campaign cycles for the end-to-end circuit metrics.
    pub circuits: library::Config,
}

impl Config {
    pub fn standard() -> Config {
        Config {
            sizes: [8, 16],
            small_per_large: 5,
            min_reps: 3,
            setup_reps: 3,
            circuits: library::Config::campaign(),
        }
    }
}

/// The campaign configuration for one width: defaults, with the
/// benchmark seed driving the sampled input tier.
pub fn campaign_config(n: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        n,
        seed,
        ..CampaignConfig::default()
    }
}

/// Reference report JSON per width, from the interpreter.
pub struct Reference {
    pub json: [String; 2],
}

pub fn setup(cfg: &Config, seed: u64) -> Reference {
    let json = cfg.sizes.map(|n| {
        let c = CampaignConfig {
            engine: Engine::Interp,
            ..campaign_config(n, seed)
        };
        run_campaign(&NetworkSel::ALL, &c).to_json().to_pretty()
    });
    Reference { json }
}

fn check(report: &CampaignReport, reference: &str, n: usize) -> Result<(), BenchError> {
    if report.to_json().to_pretty() != reference {
        return Err(BenchError::Mismatch(format!(
            "campaign report at n={n} differs from the interpreter's reference report"
        )));
    }
    Ok(())
}

/// Timed campaigns: wall seconds per full campaign, per width, and for
/// traced runs the per-network milliseconds.
pub struct Measured {
    pub secs: [Vec<f64>; 2],
    pub per_net_ms: [Vec<Vec<f64>>; 2],
    pub campaigns: u64,
}

/// One campaign at width index `w`. Traced runs call `run_network` per
/// network inside a span and assemble the same report `run_campaign`
/// returns; untraced runs call `run_campaign` itself.
fn one(
    cfg: &Config,
    w: usize,
    seed: u64,
    reference: &Reference,
    tr: &Tracer,
    m: &mut Measured,
) -> Result<(), BenchError> {
    let n = cfg.sizes[w];
    let c = campaign_config(n, seed);
    let t = Instant::now();
    let report = if tr.enabled() {
        tr.span(ROOT, "campaign", n as u64, |cid| {
            let mut nets = Vec::new();
            let mut times = Vec::new();
            for (i, &sel) in NetworkSel::ALL.iter().enumerate() {
                let t = Instant::now();
                nets.push(tr.span(cid, "network", i as u64, |_| run_network(sel, &c)));
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            m.per_net_ms[w].push(times);
            CampaignReport {
                seed: c.seed,
                truncated: false,
                networks: nets,
            }
        })
    } else {
        run_campaign(&NetworkSel::ALL, &c)
    };
    m.secs[w].push(t.elapsed().as_secs_f64());
    m.campaigns += 1;
    check(&report, &reference.json[w], n)
}

/// Cycles of one large and `small_per_large` small campaigns until
/// `seconds` have passed (and each arm has `cfg.min_reps` cycles).
/// Cycles take their tracer from `arms` in turn; one `Measured` per arm.
pub fn measure(
    cfg: &Config,
    seed: u64,
    reference: &Reference,
    seconds: f64,
    arms: &[&Tracer],
) -> Result<Vec<Measured>, BenchError> {
    measure_between(cfg, seed, reference, seconds, arms, |_| Ok(()))
}

/// [`measure`], calling `between` with each cycle's wall seconds after
/// the cycle; the time `between` takes counts towards `seconds`.
fn measure_between(
    cfg: &Config,
    seed: u64,
    reference: &Reference,
    seconds: f64,
    arms: &[&Tracer],
    mut between: impl FnMut(f64) -> Result<(), BenchError>,
) -> Result<Vec<Measured>, BenchError> {
    let mut ms: Vec<Measured> = arms
        .iter()
        .map(|_| Measured {
            secs: [Vec::new(), Vec::new()],
            per_net_ms: [Vec::new(), Vec::new()],
            campaigns: 0,
        })
        .collect();
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < cfg.min_reps * arms.len() || start.elapsed().as_secs_f64() < seconds {
        let a = cycle % arms.len();
        let t = Instant::now();
        one(cfg, 1, seed, reference, arms[a], &mut ms[a])?;
        for _ in 0..cfg.small_per_large {
            one(cfg, 0, seed, reference, arms[a], &mut ms[a])?;
        }
        between(t.elapsed().as_secs_f64())?;
        cycle += 1;
    }
    Ok(ms)
}

/// In-place patch vs recompile split over the campaign's mutants:
/// `mutant_tape` on the compiled hardened circuit for every mutant of
/// every network, timing `compile_with` for each `Unsupported` one.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutantSplit {
    pub mutants: u64,
    pub patched: u64,
    pub dead: u64,
    pub recompiled: u64,
    pub recompile_ms: f64,
}

pub fn mutant_split(cfg: &Config, seed: u64, tr: &Tracer) -> MutantSplit {
    let mut s = MutantSplit::default();
    for n in cfg.sizes {
        let c = campaign_config(n, seed);
        for sel in NetworkSel::ALL {
            let circuit = build_network(sel, n);
            let hardened = harden(&circuit, &c.harden);
            let mut base = hardened.circuit.compile_with(&c.opt);
            for fault in Fault::ALL {
                for (ci, _) in mutate::mutants(&circuit, fault) {
                    let hci = hardened.component(ci);
                    s.mutants += 1;
                    let unsupported = match base.mutant_tape(hci, fault) {
                        MutantTape::Patched(_) => {
                            s.patched += 1;
                            false
                        }
                        MutantTape::Dead => {
                            s.dead += 1;
                            false
                        }
                        MutantTape::Unsupported => true,
                    };
                    if unsupported {
                        let hm = mutate::apply(&hardened.circuit, hci, fault)
                            .expect("a base-applicable fault applies to the hardened netlist");
                        let t = Instant::now();
                        tr.span(ROOT, "recompile", ci as u64, |_| {
                            std::hint::black_box(hm.compile_with(&c.opt))
                        });
                        s.recompile_ms += t.elapsed().as_secs_f64() * 1e3;
                        s.recompiled += 1;
                    }
                }
            }
        }
    }
    s
}

fn timed_setup(cfg: &Config, seed: u64) -> (Reference, f64) {
    let mut times = Vec::new();
    let mut reference = None;
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        reference = Some(setup(cfg, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (reference.expect("at least one set-up"), median(&times))
}

fn base_outcome(cfg: &Config, seed: u64, m: &Measured) -> Outcome {
    let mut o = Outcome {
        attempted: m.campaigns,
        ..Outcome::default()
    };
    o.param("networks", "all");
    o.param("sizes", format!("{},{}", cfg.sizes[0], cfg.sizes[1]));
    o.param("campaign_config", "default");
    o.param("campaign_seed", seed);
    o.param("campaigns_n8", m.secs[0].len());
    o.param("campaigns_n16", m.secs[1].len());
    o
}

/// The untraced run. The campaign times follow the host's fast and slow
/// phases too closely for a bound (see README.md), so they are per-layer
/// metrics, printed here for the record and reported by the traced run.
/// The end-to-end metrics are the set-up time (reference reports plus
/// circuit inputs), the peak memory, and the circuit metrics of the
/// campaign's networks at its widths, from rounds interleaved with the
/// campaign cycles.
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, BenchError> {
    let (reference, reference_s) = timed_setup(cfg, seed);
    let (inputs, inputs_s) = library::timed_setup(&cfg.circuits, seed);
    let mut rounds = library::Rounds::new(&inputs);
    let m = measure_between(
        cfg,
        seed,
        &reference,
        seconds,
        &[&Tracer::new(false)],
        |cycle_s| rounds.fill(cycle_s * CIRCUIT_SHARE),
    )?
    .remove(0);
    let circuits = rounds.finish();
    for (n, secs) in cfg.sizes.iter().zip(&m.secs) {
        let q = |p| crate::stats::quantile(secs, p) * 1e3;
        eprintln!(
            "campaign n={n}: {} runs, trimmed mean {:.1} ms, p10 {:.1} ms, p50 {:.1} ms, p90 {:.1} ms",
            secs.len(),
            trimmed_mean(secs) * 1e3,
            q(0.1),
            q(0.5),
            q(0.9)
        );
    }
    let mut o = base_outcome(cfg, seed, &m);
    library::account(&cfg.circuits, &circuits, "circuits.", &mut o);
    o.push("setup_s", reference_s + inputs_s, "s");
    o.push("peak_rss_mb", peak_rss_mb(), "MB");
    library::push_end_to_end(&circuits, &mut o);
    Ok(o)
}

/// The traced run: alternating untraced and traced cycles (the gap is
/// the tracing overhead), then the patch/recompile split.
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Outcome, BenchError> {
    let (reference, _) = timed_setup(cfg, seed);
    let mut arms = measure(cfg, seed, &reference, seconds, &[&Tracer::new(false), tr])?;
    let (m, plain) = (arms.remove(1), arms.remove(0));
    let split = mutant_split(cfg, seed, tr);
    let mut o = base_outcome(cfg, seed, &m);
    o.attempted += plain.campaigns;
    for (w, n) in cfg.sizes.iter().enumerate() {
        for (i, sel) in NetworkSel::ALL.iter().enumerate() {
            let samples: Vec<f64> = m.per_net_ms[w].iter().map(|t| t[i]).collect();
            o.push(
                format!("campaign.{}.n{n}.ms", sel.name()),
                trimmed_mean(&samples),
                "ms",
            );
        }
    }
    o.push("campaign_n8_s", trimmed_mean(&plain.secs[0]), "s");
    o.push("campaign_n16_s", trimmed_mean(&plain.secs[1]), "s");
    o.push("campaign.mutants", split.mutants as f64, "count");
    o.push(
        "campaign.patched_share",
        split.patched as f64 / split.mutants.max(1) as f64,
        "ratio",
    );
    o.push("campaign.recompile_ms", split.recompile_ms, "ms");
    let total = |m: &Measured| trimmed_mean(&m.secs[0]) + trimmed_mean(&m.secs[1]);
    o.push("trace.overhead", total(&m) / total(&plain) - 1.0, "ratio");
    o.param("mutants_dead", split.dead);
    o.param("mutants_recompiled", split.recompiled);
    Ok(o)
}

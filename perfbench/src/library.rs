//! `library` workload: build and compile each paper network at three
//! widths with the default compile options, then push a seeded stream of
//! vectors through each tape on the wide (`[u64; 4]`, 256-lane) path.
//!
//! Untraced rounds time `CompiledCircuit::compile_with` itself. Traced
//! rounds drive the compile stage by stage through the public pipeline —
//! `ir::lower`, `PassManager::run`, `regalloc::allocate_with` — so each
//! stage can be timed from outside. Outputs are checked against the
//! popcount oracle (output bit `i` is set exactly when
//! `i >= n - popcount(input)`), packed by this module independently of
//! the program's own lane packing. Every round recompiles every circuit
//! and must reproduce the first round's tape (a `compile_with` tape), so
//! the staged compile of a traced round is checked against it too.

use std::hint::black_box;
use std::time::{Duration, Instant};

use absort_analysis::faults::fish_k;
use absort_circuit::eval::pack_lanes_wide;
use absort_circuit::ir::{lower, CompileIr};
use absort_circuit::{
    fuse, regalloc, Circuit, CompileOptions, CompiledCircuit, CompiledEvaluator, PassManager,
    PassName, PassSet,
};
use absort_core::{fish, muxmerge, nonadaptive, prefix};

use crate::rng::Rng;
use crate::stats::{geomean, median, trimmed_mean};
use crate::trace::{SpanId, Tracer, ROOT};
use crate::{peak_rss_mb, BenchError, Outcome};

/// Vectors per wide eval call.
pub const LANES: usize = 256;

/// The four networks the library workload compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Prefix,
    MuxMerger,
    Fish,
    Batcher,
}

impl Net {
    pub const ALL: [Net; 4] = [Net::Prefix, Net::MuxMerger, Net::Fish, Net::Batcher];

    pub fn name(self) -> &'static str {
        match self {
            Net::Prefix => "prefix",
            Net::MuxMerger => "mux-merger",
            Net::Fish => "fish",
            Net::Batcher => "batcher",
        }
    }

    /// The core netlist builder (the fish network is its combinational
    /// k-way merger, which needs k-sorted inputs).
    pub fn build(self, n: usize) -> Circuit {
        match self {
            Net::Prefix => prefix::build(n),
            Net::MuxMerger => muxmerge::build(n),
            Net::Fish => fish::circuits::build_combinational_kmerger(n, fish_k(n)),
            Net::Batcher => nonadaptive::build(n),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub nets: Vec<Net>,
    pub sizes: Vec<usize>,
    /// 256-vector batches pushed through each tape per round.
    pub batches: usize,
    /// Rounds run even when the time is up.
    pub min_rounds: usize,
    /// Set-ups timed (median reported; the last one is kept).
    pub setup_reps: usize,
}

impl Config {
    pub fn standard() -> Config {
        Config {
            nets: Net::ALL.to_vec(),
            sizes: vec![64, 256, 1024],
            batches: 24,
            min_rounds: 3,
            setup_reps: 11,
        }
    }

    /// The campaign's circuits: every network at the campaign widths.
    pub fn campaign() -> Config {
        Config {
            sizes: vec![8, 16],
            ..Config::standard()
        }
    }

    /// The served circuits: the three sorters of the service's mix
    /// (its `nonadaptive` network is the batcher build) at both widths.
    pub fn serve() -> Config {
        Config {
            nets: vec![Net::Prefix, Net::MuxMerger, Net::Batcher],
            sizes: vec![64, 1024],
            ..Config::standard()
        }
    }

    /// Comma-separated network names.
    pub fn net_names(&self) -> String {
        let names: Vec<&str> = self.nets.iter().map(|n| n.name()).collect();
        names.join(",")
    }
}

/// Seeded input vectors of one width and input class, with the oracle's
/// expected wide-lane outputs per batch.
pub struct Stream {
    pub n: usize,
    pub vectors: Vec<Vec<bool>>,
    pub expected: Vec<Vec<[u64; 4]>>,
}

/// One circuit of the workload and the stream it sorts.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    pub net: Net,
    pub n: usize,
    pub stream: usize,
}

pub struct Inputs {
    pub streams: Vec<Stream>,
    pub targets: Vec<Target>,
}

/// Expected wide outputs of one batch: lane `v` of output `i` is set iff
/// `i >= n - ones(v)`.
fn oracle_batch(batch: &[Vec<bool>], n: usize) -> Vec<[u64; 4]> {
    let ones: Vec<usize> = batch
        .iter()
        .map(|v| v.iter().filter(|&&b| b).count())
        .collect();
    (0..n)
        .map(|i| {
            let mut w = [0u64; 4];
            for (v, &o) in ones.iter().enumerate() {
                if i + o >= n {
                    w[v / 64] |= 1 << (v % 64);
                }
            }
            w
        })
        .collect()
}

/// Generates every stream from the seed: uniform random bits for the
/// three sorters (shared per width), `fish_k(n)` sorted groups for fish.
pub fn setup(cfg: &Config, seed: u64) -> Inputs {
    let mut streams = Vec::new();
    let mut targets = Vec::new();
    for (si, &n) in cfg.sizes.iter().enumerate() {
        for k_sorted in [false, true] {
            let mut rng = Rng::new(seed, (si as u64) << 1 | u64::from(k_sorted));
            let vectors: Vec<Vec<bool>> = (0..cfg.batches * LANES)
                .map(|_| {
                    if k_sorted {
                        rng.k_sorted_bits(n, fish_k(n))
                    } else {
                        rng.bits(n)
                    }
                })
                .collect();
            let expected = vectors.chunks(LANES).map(|b| oracle_batch(b, n)).collect();
            streams.push(Stream {
                n,
                vectors,
                expected,
            });
        }
    }
    for &net in &cfg.nets {
        for (si, &n) in cfg.sizes.iter().enumerate() {
            let stream = 2 * si + usize::from(net == Net::Fish);
            targets.push(Target { net, n, stream });
        }
    }
    Inputs { streams, targets }
}

/// Stage times of one circuit in one round, in seconds. `lower`,
/// `passes` and `regalloc` are set by traced (staged) rounds only.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    build: f64,
    compile: f64,
    lower: f64,
    passes: f64,
    regalloc: f64,
    pack: f64,
    eval: f64,
}

impl Stages {
    fn ready(&self) -> f64 {
        self.build + self.compile
    }
}

/// Structure counts of one circuit (identical every round). `ir_ops`
/// and `rewrite_hits` come from the first staged compile.
#[derive(Debug, Clone, Default)]
struct Counts {
    components: usize,
    ir_ops: usize,
    removed: Vec<(&'static str, usize)>,
    rewrite_hits: u64,
    tape_ops: usize,
    slots: usize,
}

impl Counts {
    fn of(c: &Circuit, cc: &CompiledCircuit) -> Counts {
        Counts {
            components: c.n_components(),
            removed: cc
                .pass_stats()
                .iter()
                .map(|s| (s.name, s.removed()))
                .collect(),
            tape_ops: cc.tape_len(),
            slots: cc.n_slots(),
            ..Counts::default()
        }
    }
}

/// Result of the timed rounds.
#[derive(Clone)]
pub struct Measured {
    rounds: Vec<Vec<Stages>>,
    /// Which tracer of `measure`'s `arms` each round ran under.
    arm: Vec<usize>,
    counts: Vec<Counts>,
    vectors_per_target: Vec<usize>,
    pub compiles: u64,
    pub batches: u64,
}

fn same_tape(a: &CompiledCircuit, b: &CompiledCircuit) -> bool {
    a.tape() == b.tape()
        && a.perm_sets() == b.perm_sets()
        && a.n_slots() == b.n_slots()
        && a.input_slots() == b.input_slots()
        && a.output_slots() == b.output_slots()
}

/// The staged compile, mirroring `CompiledCircuit::compile_with`.
/// Returns the IR op count after lowering and the rewrite hits.
fn staged_compile(
    c: &Circuit,
    opts: &CompileOptions,
    st: &mut Stages,
    tr: &Tracer,
    parent: SpanId,
) -> (CompiledCircuit, usize, u64) {
    let t = Instant::now();
    let mut ir: CompileIr = tr.span(parent, "lower", 0, |_| lower(c));
    let ir_ops = ir.ops.len();
    let t1 = Instant::now();
    tr.span(parent, "passes", 0, |_| {
        PassManager::new(*opts).run(c, &mut ir)
    });
    let t2 = Instant::now();
    let cc = tr.span(parent, "regalloc", 0, |_| {
        let mut cc = regalloc::allocate_with(&ir, opts.par_safe);
        if opts.fuse {
            fuse::fuse(&mut cc);
        }
        cc
    });
    let t3 = Instant::now();
    st.lower = (t1 - t).as_secs_f64();
    st.passes = (t2 - t1).as_secs_f64();
    st.regalloc = (t3 - t2).as_secs_f64();
    st.compile = (t3 - t).as_secs_f64();
    let hits = ir.rewrite_hits.iter().map(|(_, h)| u64::from(*h)).sum();
    (cc, ir_ops, hits)
}

/// Pushes the target's stream through its tape, checking every batch.
fn sort_stream(
    cc: &CompiledCircuit,
    stream: &Stream,
    label: &str,
    st: &mut Stages,
    tr: &Tracer,
    parent: SpanId,
) -> Result<(), BenchError> {
    let n = stream.n;
    let (mut pack, mut eval) = (Duration::ZERO, Duration::ZERO);
    let t = Instant::now();
    let mut ev: CompiledEvaluator<'_, [u64; 4]> = CompiledEvaluator::new(cc);
    let mut out = vec![[0u64; 4]; n];
    eval += t.elapsed();
    for (b, chunk) in stream.vectors.chunks(LANES).enumerate() {
        let t0 = Instant::now();
        let packed = pack_lanes_wide::<4>(black_box(chunk), n);
        let t1 = Instant::now();
        ev.run_into(&packed, &mut out);
        let t2 = Instant::now();
        tr.record(tr.reserve(), parent, "pack", b as u64, t0, t1);
        tr.record(tr.reserve(), parent, "eval", b as u64, t1, t2);
        pack += t1 - t0;
        eval += t2 - t1;
        if out != stream.expected[b] {
            return Err(BenchError::Mismatch(format!(
                "{label}: batch {b} differs from the popcount oracle"
            )));
        }
    }
    st.pack = pack.as_secs_f64();
    st.eval = eval.as_secs_f64();
    Ok(())
}

/// Rounds of the workload, run one at a time so that another workload
/// can interleave them with its own work. Each round builds, compiles
/// and sorts every target; round 0 keeps the tapes every later round
/// must reproduce.
pub struct Rounds<'a> {
    inputs: &'a Inputs,
    opts: CompileOptions,
    first: Vec<CompiledCircuit>,
    staged_seen: bool,
    m: Measured,
}

impl<'a> Rounds<'a> {
    pub fn new(inputs: &'a Inputs) -> Rounds<'a> {
        Rounds {
            inputs,
            opts: CompileOptions::default(),
            first: Vec::new(),
            staged_seen: false,
            m: Measured {
                rounds: Vec::new(),
                arm: Vec::new(),
                counts: Vec::new(),
                vectors_per_target: Vec::new(),
                compiles: 0,
                batches: 0,
            },
        }
    }

    pub fn done(&self) -> usize {
        self.m.rounds.len()
    }

    /// One round under tracer `tr`, recorded as arm `arm`.
    pub fn round(&mut self, tr: &Tracer, arm: usize) -> Result<(), BenchError> {
        let r = self.m.rounds.len();
        let (inputs, opts) = (self.inputs, &self.opts);
        let (m, first, staged_seen) = (&mut self.m, &mut self.first, self.staged_seen);
        let round = tr.span(ROOT, "round", r as u64, |rid| {
            let mut round = Vec::with_capacity(inputs.targets.len());
            for (ti, t) in inputs.targets.iter().enumerate() {
                let label = format!("{} n={}", t.net.name(), t.n);
                let st = tr.span(rid, "circuit", ti as u64, |cid| {
                    let mut st = Stages::default();
                    let t0 = Instant::now();
                    let c = tr.span(cid, "build", 0, |_| t.net.build(t.n));
                    st.build = t0.elapsed().as_secs_f64();
                    let (cc, staged) = if tr.enabled() {
                        let (cc, ir_ops, hits) = staged_compile(&c, opts, &mut st, tr, cid);
                        (cc, Some((ir_ops, hits)))
                    } else {
                        let t1 = Instant::now();
                        let cc = CompiledCircuit::compile_with(&c, opts);
                        st.compile = t1.elapsed().as_secs_f64();
                        (cc, None)
                    };
                    let stream = &inputs.streams[t.stream];
                    tr.span(cid, "sort", 0, |sid| {
                        sort_stream(&cc, stream, &label, &mut st, tr, sid)
                    })?;
                    if r == 0 {
                        m.counts.push(Counts::of(&c, &cc));
                        m.vectors_per_target.push(stream.vectors.len());
                        first.push(cc);
                    } else if !same_tape(&cc, &first[ti]) {
                        return Err(BenchError::Mismatch(format!(
                            "{label}: round {r} compiled a different tape than round 0"
                        )));
                    }
                    if let (Some((ir_ops, hits)), false) = (staged, staged_seen) {
                        m.counts[ti].ir_ops = ir_ops;
                        m.counts[ti].rewrite_hits = hits;
                    }
                    Ok(st)
                })?;
                m.compiles += 1;
                m.batches += inputs.streams[t.stream].expected.len() as u64;
                round.push(st);
            }
            Ok::<_, BenchError>(round)
        })?;
        let ready: f64 = round.iter().map(Stages::ready).sum();
        let sort: f64 = round.iter().map(|s| s.pack + s.eval).sum();
        eprintln!(
            "library round {r}: build+compile {:.1} ms, sort {:.1} ms",
            ready * 1e3,
            sort * 1e3
        );
        self.staged_seen |= tr.enabled();
        self.m.rounds.push(round);
        self.m.arm.push(arm);
        Ok(())
    }

    /// Untraced rounds until `seconds` have passed, at least one.
    pub fn fill(&mut self, seconds: f64) -> Result<(), BenchError> {
        let start = Instant::now();
        let plain = Tracer::new(false);
        loop {
            self.round(&plain, 0)?;
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(());
            }
        }
    }

    pub fn finish(self) -> Measured {
        self.m
    }
}

/// Timed rounds until `seconds` have passed (and at least
/// `cfg.min_rounds`). Rounds take their tracer from `arms` in turn, so a
/// traced run can interleave untraced and traced rounds; round 0 takes
/// the first arm.
pub fn measure(
    cfg: &Config,
    inputs: &Inputs,
    seconds: f64,
    arms: &[&Tracer],
) -> Result<Measured, BenchError> {
    let start = Instant::now();
    let mut rounds = Rounds::new(inputs);
    while rounds.done() < cfg.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let arm = rounds.done() % arms.len();
        rounds.round(arms[arm], arm)?;
    }
    Ok(rounds.finish())
}

impl Measured {
    /// The rounds that ran under tracer `arm`.
    pub fn arm(&self, arm: usize) -> Measured {
        let mut m = self.clone();
        (m.rounds, m.arm) = self
            .rounds
            .iter()
            .zip(&self.arm)
            .filter(|(_, &a)| a == arm)
            .map(|(r, &a)| (r.clone(), a))
            .unzip();
        m
    }

    /// Trimmed mean over rounds of a per-round sum over the selected
    /// targets.
    fn round_sum(&self, sel: impl Fn(usize) -> bool, f: impl Fn(&Stages) -> f64) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .filter(|(i, _)| sel(*i))
                    .map(|(_, s)| f(s))
                    .sum()
            })
            .collect();
        trimmed_mean(&per_round)
    }

    pub fn tape_ready_ms(&self) -> f64 {
        self.round_sum(|_| true, Stages::ready) * 1e3
    }

    /// Million vectors per second of one target over the trimmed mean
    /// of the time `secs` gives per round.
    fn rate(&self, ti: usize, secs: impl Fn(&Stages) -> f64) -> f64 {
        let v = self.vectors_per_target[ti] as f64;
        v / self.round_sum(|i| i == ti, secs) / 1e6
    }

    /// Million vectors per second of one target, pack + eval.
    fn mvps(&self, ti: usize) -> f64 {
        self.rate(ti, |s| s.pack + s.eval)
    }

    /// Geometric mean over the targets of the pack + eval rate.
    pub fn sort_mvps(&self) -> f64 {
        geomean(
            &(0..self.counts.len())
                .map(|i| self.mvps(i))
                .collect::<Vec<_>>(),
        )
    }

    /// Geometric mean over the targets of the eval-only rate: packing
    /// takes most of the pack + eval time, so this is the figure the
    /// tape evaluator moves.
    pub fn sort_eval_mvps(&self) -> f64 {
        geomean(
            &(0..self.counts.len())
                .map(|i| self.rate(i, |s| s.eval))
                .collect::<Vec<_>>(),
        )
    }

    pub fn tape_ops(&self) -> usize {
        self.counts.iter().map(|c| c.tape_ops).sum()
    }
}

/// Per-pass compile time from outside the pipeline. `PassManager::run`
/// runs over cumulative pass sets in pipeline order: the IR after the
/// first `k` passes is made once per circuit (untimed), then pass `k + 1`
/// alone is timed on clones of it, against the schedule-only run (the
/// empty set) on the same IR. The increment is that pass's time; timing
/// each pass on its own input keeps the second-long rewrite pass's jitter
/// out of the millisecond passes. `schedule.ms` is the empty set on the
/// lowered IR.
pub struct PassProbe {
    pub schedule_ms: f64,
    pub pass_ms: Vec<(&'static str, f64)>,
}

pub fn pass_probe(cfg: &Config, seconds: f64, tr: &Tracer) -> PassProbe {
    let with = |passes: PassSet| CompileOptions {
        passes,
        ..CompileOptions::default()
    };
    // Per circuit: the IR entering each pass (index 0 = lowered).
    let mut inputs: Vec<(Circuit, Vec<CompileIr>)> = Vec::new();
    for &net in &cfg.nets {
        for &n in &cfg.sizes {
            let c = net.build(n);
            let mut irs = vec![lower(&c)];
            let mut prefix = PassSet::EMPTY;
            for p in &PassName::ALL[..PassName::ALL.len() - 1] {
                prefix = prefix.with(*p);
                let mut ir = irs[0].clone();
                PassManager::new(with(prefix)).run(&c, &mut ir);
                irs.push(ir);
            }
            inputs.push((c, irs));
        }
    }
    let timed = |c: &Circuit, ir: &CompileIr, passes: PassSet, k: usize| {
        let mut ir = ir.clone();
        let t = Instant::now();
        tr.span(ROOT, "pass-probe", k as u64, |_| {
            black_box(PassManager::new(with(passes)).run(c, &mut ir))
        });
        t.elapsed().as_secs_f64() * 1e3
    };
    let n_pass = PassName::ALL.len();
    // samples[circuit][k] = (pass k alone, schedule only), plus the
    // schedule on the lowered IR.
    let mut pass_s = vec![vec![Vec::new(); n_pass]; inputs.len()];
    let mut base_s = vec![vec![Vec::new(); n_pass]; inputs.len()];
    let mut sched_s = vec![Vec::new(); inputs.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed().as_secs_f64() < seconds {
        for (ci, (c, irs)) in inputs.iter().enumerate() {
            sched_s[ci].push(timed(c, &irs[0], PassSet::EMPTY, 0));
            for (k, p) in PassName::ALL.iter().enumerate() {
                pass_s[ci][k].push(timed(c, &irs[k], PassSet::EMPTY.with(*p), k + 1));
                base_s[ci][k].push(timed(c, &irs[k], PassSet::EMPTY, k + 1));
            }
        }
        rounds += 1;
    }
    PassProbe {
        schedule_ms: sched_s.iter().map(|s| median(s)).sum(),
        pass_ms: PassName::ALL
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let ms = (0..inputs.len())
                    .map(|ci| median(&pass_s[ci][k]) - median(&base_s[ci][k]))
                    .sum();
                (p.name(), ms)
            })
            .collect(),
    }
}

/// Timed set-ups (median reported), keeping the last inputs.
pub fn timed_setup(cfg: &Config, seed: u64) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(setup(cfg, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), median(&times))
}

/// Adds the rounds' operations to the tally and their parameters, each
/// key prefixed by `prefix`, to the record.
pub fn account(cfg: &Config, m: &Measured, prefix: &str, o: &mut Outcome) {
    o.attempted += m.compiles + m.batches;
    let sizes: Vec<String> = cfg.sizes.iter().map(usize::to_string).collect();
    o.param(&format!("{prefix}networks"), cfg.net_names());
    o.param(&format!("{prefix}sizes"), sizes.join(","));
    o.param(&format!("{prefix}vectors_per_circuit"), cfg.batches * LANES);
    o.param(&format!("{prefix}compile_options"), "default");
    o.param(&format!("{prefix}rounds"), m.rounds.len());
}

/// The circuit metrics every untraced run reports, over the rounds of
/// that workload's circuits.
pub fn push_end_to_end(m: &Measured, o: &mut Outcome) {
    o.push("tape_ready_ms", m.tape_ready_ms(), "ms");
    o.push("tape_ops", m.tape_ops() as f64, "count");
    o.push("sort_mvps", m.sort_mvps(), "Mvec/s");
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, BenchError> {
    let (inputs, setup_s) = timed_setup(cfg, seed);
    let m = measure(cfg, &inputs, seconds, &[&Tracer::new(false)])?;
    let mut o = Outcome::default();
    account(cfg, &m, "", &mut o);
    o.push("setup_s", setup_s, "s");
    o.push("peak_rss_mb", peak_rss_mb(), "MB");
    push_end_to_end(&m, &mut o);
    Ok(o)
}

/// The traced run: two thirds of the time in alternating untraced and
/// traced rounds (the gap is the tracing overhead; traced rounds compile
/// stage by stage instead of through `compile_with`), a third in the
/// per-pass probe.
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Outcome, BenchError> {
    let (inputs, _) = timed_setup(cfg, seed);
    let both = measure(
        cfg,
        &inputs,
        seconds * 2.0 / 3.0,
        &[&Tracer::new(false), tr],
    )?;
    let probe = pass_probe(cfg, seconds / 3.0, tr);
    let mut o = Outcome::default();
    account(cfg, &both, "", &mut o);
    let (plain, m) = (both.arm(0), both.arm(1));

    let sum = |f: &dyn Fn(&Counts) -> usize| m.counts.iter().map(f).sum::<usize>() as f64;
    o.push("build.ms", m.round_sum(|_| true, |s| s.build) * 1e3, "ms");
    o.push("build.components", sum(&|c| c.components), "count");
    o.push("lower.ms", m.round_sum(|_| true, |s| s.lower) * 1e3, "ms");
    o.push("ir.ops", sum(&|c| c.ir_ops), "count");
    for (name, ms) in &probe.pass_ms {
        let removed = sum(&|c| {
            c.removed
                .iter()
                .filter(|(p, _)| p == name)
                .map(|(_, r)| r)
                .sum()
        });
        o.push(format!("pass.{name}.ms"), *ms, "ms");
        o.push(format!("pass.{name}.ops_removed"), removed, "count");
    }
    o.push("schedule.ms", probe.schedule_ms, "ms");
    o.push(
        "rewrite.hits",
        m.counts.iter().map(|c| c.rewrite_hits).sum::<u64>() as f64,
        "count",
    );
    o.push(
        "regalloc.ms",
        m.round_sum(|_| true, |s| s.regalloc) * 1e3,
        "ms",
    );
    o.push("tape.slots", sum(&|c| c.slots), "count");
    for &net in &cfg.nets {
        let ms = m.round_sum(|i| inputs.targets[i].net == net, |s| s.compile) * 1e3;
        o.push(format!("compile.{}.ms", net.name()), ms, "ms");
    }
    for (i, t) in inputs.targets.iter().enumerate() {
        o.push(
            format!("sort.{}.n{}.mvps", t.net.name(), t.n),
            m.mvps(i),
            "Mvec/s",
        );
    }
    let (pack, eval): (f64, f64) = m
        .rounds
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(p, e), s| (p + s.pack, e + s.eval));
    o.push("sort.pack_share", pack / (pack + eval), "ratio");
    o.push("sort.eval_mvps", m.sort_eval_mvps(), "Mvec/s");
    o.push(
        "trace.overhead",
        m.tape_ready_ms() / plain.tape_ready_ms() - 1.0,
        "ratio",
    );
    Ok(o)
}

//! Whole-stack benchmark for the adaptive binary sorters.
//!
//! Three workloads drive the repository's layers from outside, through
//! their public functions only:
//!
//! * [`library`] — netlist build, compile (`compile_with`; stage by
//!   stage, lower → passes → regalloc, in traced rounds) and wide-lane
//!   tape evaluation of every paper network;
//! * [`campaign`] — full fault campaigns at `n = 8` and `n = 16`;
//! * [`serve`] — an in-process sorting server under open-loop Poisson
//!   traffic.
//!
//! Every output is checked against an oracle that does not come from the
//! compiler under test; a mismatch is an error ([`BenchError::Mismatch`]),
//! never a count. Every untraced run ([`run`]) reports the same
//! end-to-end metrics and every traced run ([`run_traced`]) the same
//! per-layer metrics, whichever workload it names. See `README.md` for
//! the metric table.

pub mod campaign;
pub mod library;
pub mod machine;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;

use trace::Tracer;

/// The workloads, in the order a traced run covers them.
pub const WORKLOADS: [&str; 3] = ["library", "campaign", "serve"];

/// The configuration of every workload.
#[derive(Debug, Clone)]
pub struct Suite {
    pub library: library::Config,
    pub campaign: campaign::Config,
    pub serve: serve::Config,
}

impl Suite {
    pub fn standard() -> Suite {
        Suite {
            library: library::Config::standard(),
            campaign: campaign::Config::standard(),
            serve: serve::Config::standard(),
        }
    }

    /// The fewest repetitions each workload allows, for the workloads a
    /// traced run covers besides the one it names.
    fn secondary(&self) -> Suite {
        Suite {
            library: library::Config {
                min_rounds: 2,
                setup_reps: 1,
                ..self.library.clone()
            },
            campaign: campaign::Config {
                min_reps: 1,
                setup_reps: 1,
                ..self.campaign.clone()
            },
            serve: serve::Config {
                setup_reps: 2,
                ..self.serve.clone()
            },
        }
    }
}

fn unknown(workload: &str) -> BenchError {
    BenchError::Setup(format!("unknown workload {workload}"))
}

/// The untraced run of one workload: the end-to-end metrics.
pub fn run(suite: &Suite, workload: &str, seed: u64, seconds: f64) -> Result<Outcome, BenchError> {
    match workload {
        "library" => library::run(&suite.library, seed, seconds),
        "campaign" => campaign::run(&suite.campaign, seed, seconds),
        "serve" => serve::run(&suite.serve, seed, seconds),
        w => Err(unknown(w)),
    }
}

/// The traced run: the per-layer metrics of the whole stack, whichever
/// workload it names. The named workload's traced run takes half of
/// `seconds` and the other two a quarter each, at their fewest
/// repetitions. `trace.overhead` is the named workload's; `fail_ratio`
/// and the tally cover all three. Parameters are keyed
/// `<workload>.<key>`.
pub fn run_traced(
    suite: &Suite,
    workload: &str,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Outcome, BenchError> {
    if !WORKLOADS.contains(&workload) {
        return Err(unknown(workload));
    }
    let secondary = suite.secondary();
    let mut all = Outcome::default();
    for w in WORKLOADS {
        let (s, secs) = if w == workload {
            (suite, seconds / 2.0)
        } else {
            (&secondary, seconds / 4.0)
        };
        let o = match w {
            "library" => library::run_traced(&s.library, seed, secs, tr),
            "campaign" => campaign::run_traced(&s.campaign, seed, secs, tr),
            _ => serve::run_traced(&s.serve, seed, secs, tr),
        }?;
        all.attempted += o.attempted;
        all.failed += o.failed;
        let keep = |m: &&Metric| w == workload || m.name != "trace.overhead";
        all.metrics.extend(o.metrics.iter().filter(keep).cloned());
        all.params
            .extend(o.params.into_iter().map(|(k, v)| (format!("{w}.{k}"), v)));
    }
    all.push("fail_ratio", all.fail_ratio(), "ratio");
    Ok(all)
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum BenchError {
    /// An output disagreed with its oracle or reference.
    Mismatch(String),
    /// The benchmark itself could not run (socket, file, bad argument).
    Setup(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Mismatch(m) => write!(f, "output mismatch: {m}"),
            BenchError::Setup(m) => write!(f, "benchmark error: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (compiles and eval batches, campaigns, or
    /// requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics of this run, in print order.
    pub metrics: Vec<Metric>,
    /// The workload's own parameters (sizes, rates, mix), for the record.
    pub params: Vec<(String, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_owned(), value.to_string()));
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`).
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// `{"key": "value", ...}` of the workload parameters.
    pub fn params_json(&self) -> String {
        json_object(&self.params)
    }
}

/// A finite float as JSON (non-finite values become 0, which no metric
/// of a successful run produces).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A flat string-valued JSON object.
pub fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Minimal JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

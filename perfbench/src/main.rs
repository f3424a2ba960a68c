//! `perfbench --workload <library|campaign|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics of the named
//! workload; traced runs (`--trace 1`) print the per-layer metrics of the
//! whole stack, with the named workload given the most time, and write
//! every span, with per-name self times, to `out/trace-<workload>.json`
//! in this package.
//! The last line of standard output is the result object. An output
//! mismatch exits with code 1 and prints no result.

use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::{escape, machine, Suite};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <library|campaign|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("invalid --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid --seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace {v} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program's own telemetry stays off in every run.
    absort_telemetry::set_enabled(false);
    let tracer = Tracer::new(args.trace);
    let suite = Suite::standard();
    let outcome = if args.trace {
        perfbench::run_traced(&suite, &args.workload, args.seed, args.seconds, &tracer)
    } else {
        perfbench::run(&suite, &args.workload, args.seed, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let record = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \"machine\": {}, \"params\": {}}}",
        escape(&args.workload),
        u8::from(args.trace),
        args.seconds,
        machine::record_json(args.seed),
        outcome.params_json()
    );
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&record)));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        for (name, t) in tracer.self_times() {
            eprintln!(
                "self time {name}: {} spans, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!("{record}");
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

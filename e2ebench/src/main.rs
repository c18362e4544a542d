//! End-to-end `factd` job benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!       --workload search-cold --seed 1 --seconds 20 --trace 0
//! $ cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!       steady --workload sim-heavy --runs 10 --seconds 20
//! ```
//!
//! A run boots `factd` (2 workers) in a child process, drives it with 2
//! closed-loop clients over loopback TCP for `--seconds`, verifies every
//! reply, and prints one JSON result as its last stdout line: end-to-end
//! metrics with `--trace 0`, the traced per-layer ledger with
//! `--trace 1`. See `README.md` next to this crate.

mod load;
mod metrics;
mod oracle;
mod replay;
mod run;
mod stats;
mod steady;
mod workload;

use fact_serve::Value;
use std::process::ExitCode;

const USAGE: &str = "\
usage: fact-e2ebench --workload <search-cold|sim-heavy|serve-warm> --seed <n>
                     --seconds <s> --trace <0|1> [--tiny] [--sabotage-oracle]
       fact-e2ebench steady --workload <name> [--runs <k>] [--seconds <s>]
                     [--trace <0|1>] [--seed <first>] [--same-seed]";

struct Args {
    steady: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    sabotage: bool,
    runs: usize,
    same_seed: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        steady: false,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        sabotage: false,
        runs: 5,
        same_seed: false,
    };
    let mut it = argv.iter();
    if argv.first().map(String::as_str) == Some("steady") {
        args.steady = true;
        it.next();
    }
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--tiny" => args.tiny = true,
            "--sabotage-oracle" => args.sabotage = true,
            "--same-seed" => args.same_seed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match load::serve_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        eprintln!("error: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(workload) = workload::Workload::parse(&name) else {
        eprintln!("error: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };

    if args.steady {
        let opts = steady::SteadyOptions {
            workload: name,
            runs: args.runs.max(2),
            seconds: args.seconds,
            trace: args.trace,
            first_seed: args.seed,
            same_seed: args.same_seed,
        };
        return match steady::steady(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("steady: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        sabotage: args.sabotage,
    };
    let report = match run::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    let metrics: std::collections::BTreeMap<String, Value> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = metrics::unit_of(name).expect("every reported metric is cataloged");
            (
                name.to_string(),
                Value::object([
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::object([
        ("correct", Value::Bool(report.correct)),
        ("attempted", Value::Int(report.attempted as i64)),
        ("failed", Value::Int(report.failed as i64)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", result.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} requests failed verification",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

//! The steadiness command: run one workload k times and report, per
//! metric, the median, the quartiles, and the spread against the bound
//! `BENCHMARK.json` fixes. With `--same-seed` it instead checks that the
//! exact metrics repeat bit for bit across runs (and so across the
//! interleavings of the two clients).

use crate::stats::{median, quartiles};
use fact_serve::{parse, Value};
use std::collections::BTreeMap;
use std::io;
use std::process::{Command, Stdio};

/// Metrics that must repeat exactly for a fixed seed.
pub const EXACT: &[&str] = &[
    "cycles_ratio",
    "power_ratio",
    "pareto_hv",
    "core.evaluated",
    "sim.vectors",
    "xform.candidates",
];

/// What to repeat.
pub struct SteadyOptions {
    pub workload: String,
    pub runs: usize,
    pub seconds: f64,
    pub trace: bool,
    pub first_seed: u64,
    pub same_seed: bool,
}

/// `name -> bound` from `BENCHMARK.json` in the working directory, if
/// there is one.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the benchmark `runs` times as child processes and prints the
/// table. Returns whether every spread is under a third of its bound
/// (and, with `same_seed`, every exact metric repeated).
pub fn steady(opts: &SteadyOptions) -> io::Result<bool> {
    let exe = std::env::current_exe()?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for k in 0..opts.runs {
        let seed = if opts.same_seed {
            opts.first_seed
        } else {
            opts.first_seed + k as u64
        };
        let out = Command::new(&exe)
            .args(["--workload", &opts.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result = parse(last)
            .map_err(|e| io::Error::other(format!("run {k}: no result line ({e}): {last}")))?;
        if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(io::Error::other(format!(
                "run {k} (seed {seed}) failed: {last}"
            )));
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
        eprintln!("run {}/{} (seed {seed}) done", k + 1, opts.runs);
    }

    let bounds = bounds();
    let mut steady = true;
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>9} {:>7} {:>9}",
        "metric", "median", "q1", "q3", "spread", "bound", "spr/bnd"
    );
    for (name, xs) in &values {
        let repeated = xs.iter().all(|x| x.to_bits() == xs[0].to_bits());
        let mut sorted = xs.clone();
        let med = median(&mut sorted);
        let [q1, _, q3] = quartiles(&mut sorted).unwrap_or([med; 3]);
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
        let bound = bounds.get(name).copied();
        let (bound_s, frac_s) = match bound {
            Some(b) => (format!("{b}"), format!("{:.3}", spread / b)),
            None => ("-".into(), "-".into()),
        };
        let mut flag = String::new();
        if opts.same_seed && EXACT.contains(&name.as_str()) {
            flag = if repeated {
                " exact".into()
            } else {
                " NOT-EXACT".into()
            };
            steady &= repeated;
        }
        if bound.is_some_and(|b| spread > b / 3.0) {
            flag.push_str(" WIDE");
            steady = false;
        }
        println!(
            "{name:<26} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>9.4} {bound_s:>7} {frac_s:>9}{flag}"
        );
        let runs: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
        println!("    runs: {}", runs.join(" "));
    }
    Ok(steady)
}

//! `factc` — command-line driver for the FACT flow.
//!
//! Compile a behavioral description, schedule it under a resource
//! allocation, estimate throughput/power, and optionally run the full
//! FACT transformation search.
//!
//! ```console
//! $ factc design.bdl --alloc a1=2,mt1=1,cp1=1,i1=2 \
//!         --input n=40 --input a=0..9 --optimize --objective throughput
//! ```

use fact_core::{
    optimize, optimize_pareto, CandidateCounts, DesignReport, FactConfig, Objective,
    TransformLibrary,
};
use fact_estim::{check_divider, evaluate, markov_of, section5_library};
use fact_sched::{schedule, Allocation, SchedOptions};
use fact_sim::{generate, profile, InputSpec};
use std::process::ExitCode;

const USAGE: &str = "\
factc — FACT behavioral-synthesis flow (DAC 1998 reproduction)

USAGE:
    factc <FILE.bdl> [OPTIONS]

OPTIONS:
    --alloc <u=N,...>        functional-unit allocation over the §5 library
                             (units: a1 sb1 mt1 cp1 e1 i1 n1 s1); default:
                             2 of everything
    --input <name=V>         input spec: a constant (n=16), a range
                             (a=0..9), or gaussian (x=g:sigma,rho);
                             repeatable; unspecified inputs default 0..100
    --clock <NS>             clock period in ns (default 25)
    --traces <N>             number of trace vectors (default 8)
    --seed <N>               RNG seed (default 42)
    --objective <OBJ>        throughput (t), power (p), or pareto (with
                             --optimize); default throughput
    --optimize               run the FACT transformation search
    --pareto                 run the search in Pareto mode and print the
                             full energy-latency-Vdd tradeoff curve
                             (same as --optimize --objective pareto)
    --jobs <N>               worker threads for candidate evaluation in the
                             search (default 1; the result is identical for
                             any thread count)
    --emit <what>            extra artifacts: ir, dot, stg (repeatable)
    --serve <ADDR>           ignore <FILE.bdl> and run the factd daemon on
                             ADDR (e.g. 127.0.0.1:7348); see docs/SERVER.md
    -h, --help               print this help
";

#[derive(Debug)]
struct Args {
    file: String,
    alloc: Vec<(String, u32)>,
    inputs: Vec<(String, InputSpec)>,
    clock: f64,
    traces: usize,
    seed: u64,
    objective: Objective,
    run_optimize: bool,
    jobs: usize,
    emit: Vec<String>,
    serve: Option<String>,
}

fn parse_input_spec(raw: &str) -> Result<(String, InputSpec), String> {
    let (name, spec) = raw
        .split_once('=')
        .ok_or_else(|| format!("bad --input `{raw}` (expected name=spec)"))?;
    let spec = spec.trim();
    let parsed = if let Some(g) = spec.strip_prefix("g:") {
        let (sigma, rho) = g
            .split_once(',')
            .ok_or_else(|| format!("bad gaussian spec `{spec}` (expected g:sigma,rho)"))?;
        InputSpec::GaussianAr {
            sigma: sigma.parse().map_err(|e| format!("bad sigma: {e}"))?,
            rho: rho.parse().map_err(|e| format!("bad rho: {e}"))?,
        }
    } else if let Some((lo, hi)) = spec.split_once("..") {
        InputSpec::Uniform {
            lo: lo.parse().map_err(|e| format!("bad range lo: {e}"))?,
            hi: hi.parse().map_err(|e| format!("bad range hi: {e}"))?,
        }
    } else {
        InputSpec::Constant(spec.parse().map_err(|e| format!("bad constant: {e}"))?)
    };
    Ok((name.to_string(), parsed))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        alloc: Vec::new(),
        inputs: Vec::new(),
        clock: 25.0,
        traces: 8,
        seed: 42,
        objective: Objective::Throughput,
        run_optimize: false,
        jobs: 1,
        emit: Vec::new(),
        serve: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--alloc" => {
                for part in grab("--alloc")?.split(',') {
                    let (u, n) = part
                        .split_once('=')
                        .ok_or_else(|| format!("bad --alloc entry `{part}`"))?;
                    args.alloc.push((
                        u.to_string(),
                        n.parse().map_err(|e| format!("bad count for {u}: {e}"))?,
                    ));
                }
            }
            "--input" => args.inputs.push(parse_input_spec(&grab("--input")?)?),
            "--clock" => args.clock = grab("--clock")?.parse().map_err(|e| format!("{e}"))?,
            "--traces" => args.traces = grab("--traces")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = grab("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--objective" => {
                args.objective = match grab("--objective")?.as_str() {
                    "t" | "throughput" => Objective::Throughput,
                    "p" | "power" => Objective::Power,
                    "pareto" => Objective::Pareto,
                    other => {
                        return Err(format!(
                            "unknown objective `{other}` (expected `throughput`/`t`, \
                             `power`/`p`, or `pareto`)"
                        ))
                    }
                }
            }
            "--optimize" => args.run_optimize = true,
            "--pareto" => {
                args.run_optimize = true;
                args.objective = Objective::Pareto;
            }
            "--jobs" => {
                args.jobs = grab("--jobs")?.parse().map_err(|e| format!("{e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--emit" => args.emit.push(grab("--emit")?),
            "--serve" => args.serve = Some(grab("--serve")?),
            other if !other.starts_with('-') && args.file.is_empty() => {
                args.file = other.to_string()
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.file.is_empty() && args.serve.is_none() {
        return Err("no input file given".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let behavior = fact_lang::compile(&source).map_err(|e| format!("compile error: {e}"))?;
    println!(
        "compiled `{}`: {} blocks, {} live ops, {} memories",
        behavior.name(),
        behavior.num_blocks(),
        behavior.live_op_count(),
        behavior.memories().count()
    );
    if args.emit.iter().any(|e| e == "ir") {
        println!("\n{behavior}");
    }
    if args.emit.iter().any(|e| e == "dot") {
        println!("\n{}", fact_ir::dot::function_to_dot(&behavior));
    }

    let (library, rules) = section5_library();
    check_divider(&behavior, &rules)?;
    let mut allocation = Allocation::new();
    if args.alloc.is_empty() {
        for (id, _) in library.iter() {
            allocation.set(id, 2);
        }
    } else {
        for (unit, count) in &args.alloc {
            let id = library
                .by_name(unit)
                .ok_or_else(|| format!("unknown unit `{unit}`"))?;
            allocation.set(id, *count);
        }
    }

    // Input specs: user-provided plus defaults for the rest.
    let mut specs = args.inputs.clone();
    for (name, _) in behavior.inputs() {
        if !specs.iter().any(|(n, _)| *n == name) {
            specs.push((name, InputSpec::Uniform { lo: 0, hi: 100 }));
        }
    }
    let traces = generate(&specs, args.traces, args.seed);
    let prof = profile(&behavior, &traces);
    if prof.runs_ok == 0 {
        return Err("no trace vector executed successfully; check --input specs".to_string());
    }

    let opts = SchedOptions {
        clock_ns: args.clock,
        ..Default::default()
    };
    let sr = schedule(&behavior, &library, &rules, &allocation, &prof, &opts)
        .map_err(|e| format!("scheduling failed: {e}"))?;
    let m = markov_of(&sr).map_err(|e| format!("analysis failed: {e}"))?;
    let est = evaluate(&sr, &library, args.clock).map_err(|e| format!("estimation: {e}"))?;
    println!(
        "\nschedule: {} states, avg {:.2} cycles/execution, throughput {:.2} (x1000/cycles)",
        sr.stg.num_states(),
        m.average_schedule_length,
        est.throughput
    );
    println!(
        "energy {:.2} Vdd^2 units, power {:.3} units at 5 V; scheduler: {:?}",
        est.energy_vdd2, est.power, sr.report
    );
    println!(
        "design: {}",
        DesignReport::new(&est, &sr, &library, &allocation).render()
    );
    if args.emit.iter().any(|e| e == "stg") {
        println!("\n{}", sr.stg.pretty(&sr.function));
    }

    if args.run_optimize && args.objective == Objective::Pareto {
        let mut config = FactConfig {
            objective: Objective::Pareto,
            sched: opts,
            ..Default::default()
        };
        config.search.threads = args.jobs;
        let result = optimize_pareto(
            &behavior,
            &library,
            &rules,
            &allocation,
            &traces,
            &TransformLibrary::full(),
            &config,
        )
        .map_err(|e| format!("optimization failed: {e}"))?;
        println!("\nFACT (Pareto mode):");
        println!(
            "  baseline: {:.2} cycles, power {:.3} at {:.2} V",
            result.baseline.average_schedule_length, result.baseline.power, result.baseline.vdd
        );
        println!(
            "  frontier: {} points over {} archived designs ({} candidates evaluated)",
            result.frontier.len(),
            result.archive_len,
            result.evaluated
        );
        eprint_candidates(&result.candidates, reuse!(result));
        println!(
            "  {:>6} {:>10} {:>12} {:>8}  transforms",
            "Vdd", "cycles", "energy", "power"
        );
        for p in &result.frontier {
            println!(
                "  {:>6.2} {:>10.2} {:>12.2} {:>8.3}  {}",
                p.vdd,
                p.latency_cycles,
                p.energy,
                p.power,
                if p.applied.is_empty() {
                    "(none)".to_string()
                } else {
                    p.applied.join("; ")
                }
            );
        }
    } else if args.run_optimize {
        let mut config = FactConfig {
            objective: args.objective,
            sched: opts,
            ..Default::default()
        };
        config.search.threads = args.jobs;
        let result = optimize(
            &behavior,
            &library,
            &rules,
            &allocation,
            &traces,
            &TransformLibrary::full(),
            &config,
        )
        .map_err(|e| format!("optimization failed: {e}"))?;
        println!("\nFACT ({:?} mode):", args.objective);
        println!(
            "  baseline: {:.2} cycles, power {:.3}",
            result.baseline.average_schedule_length, result.baseline.power
        );
        println!(
            "  optimized: {:.2} cycles, power {:.3} at {:.2} V",
            result.estimate.average_schedule_length, result.estimate.power, result.estimate.vdd
        );
        println!("  candidates evaluated: {}", result.evaluated);
        eprint_candidates(&result.candidates, reuse!(result));
        if result.applied.is_empty() {
            println!("  no transformation improved the objective");
        } else {
            println!("  applied:");
            for step in &result.applied {
                println!("    - {step}");
            }
        }
        if args.emit.iter().any(|e| e == "ir") {
            println!("\noptimized CDFG:\n{}", result.best);
        }
        if args.emit.iter().any(|e| e == "stg") {
            println!(
                "\noptimized schedule:\n{}",
                result.schedule.stg.pretty(&result.schedule.function)
            );
        }
    }
    Ok(())
}

/// What a run took from the shared cache's memos instead of computing:
/// expansions, equivalence verdicts and schedule plans.
struct Reuse {
    neighbourhoods_memoized: u64,
    neighbourhoods_built: u64,
    verdicts_memoized: u64,
    plans_memoized: u64,
    plans_built: u64,
}

/// The [`Reuse`] of a `FactResult` or `ParetoFactResult`.
macro_rules! reuse {
    ($r:expr) => {
        Reuse {
            neighbourhoods_memoized: $r.neighborhoods_memoized,
            neighbourhoods_built: $r.neighborhoods_built,
            verdicts_memoized: $r.verdicts_memoized,
            plans_memoized: $r.plans_memoized,
            plans_built: $r.plans_built,
        }
    };
}
use reuse;

/// Prints how the search's candidates were evaluated to stderr
/// ([`candidates_line`]).
fn eprint_candidates(c: &CandidateCounts, reuse: Reuse) {
    eprintln!("{}", candidates_line(c, &reuse));
}

/// How the search's candidates were evaluated: inherited from their
/// parent (operand swaps), proved equivalent to it (reusing its profile
/// or deriving it from the parent's counts), or rejected unproved, with
/// the unproved share per transformation kind; how many parents the run
/// profiled inside the search; how many candidates took a verdict from
/// their expansion record; how many parent expansions the expansion
/// memo answered and how many transformations were run to build
/// candidates; and how many schedules took their plan from the cache and
/// how many plans were built.
fn candidates_line(c: &CandidateCounts, reuse: &Reuse) -> String {
    let per_kind: Vec<String> = fact_xform::TransformKind::ALL
        .iter()
        .map(|k| {
            let i = k.index();
            let known = c.inherited[i] + c.proved[i] + c.derived[i];
            (k, c.unproved[i], known + c.unproved[i])
        })
        .filter(|&(_, _, total)| total > 0)
        .map(|(k, unproved, total)| format!("{k} {unproved}/{total}"))
        .collect();
    format!(
        "candidates: {} inherited, {} proved, {} derived, {} unproved \
         (unproved/total per kind: {}); parents profiled: {}; \
         verdicts memoized: {}; neighbourhoods: {} memoized, {} built; \
         plans: {} memoized, {} built",
        c.inherited_total(),
        c.proved_total(),
        c.derived_total(),
        c.unproved_total(),
        per_kind.join(", "),
        c.parents_profiled,
        reuse.verdicts_memoized,
        reuse.neighbourhoods_memoized,
        reuse.neighbourhoods_built,
        reuse.plans_memoized,
        reuse.plans_built,
    )
}

/// Runs the factd daemon in-process (`--serve ADDR`); blocks until a
/// `shutdown` request or SIGINT/SIGTERM.
fn serve(addr: &str) -> Result<(), String> {
    let server = fact_serve::Server::bind(fact_serve::ServerConfig {
        addr: addr.to_string(),
        ..Default::default()
    })
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let handle = server.handle();
    let signalled = fact_serve::install_signal_flag();
    std::thread::spawn(move || loop {
        if signalled.load(std::sync::atomic::Ordering::SeqCst) {
            handle.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    server.run().map_err(|e| format!("server error: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(args) => match args.serve.as_deref().map_or_else(|| run(&args), serve) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_minimal_invocation() {
        let a = parse(&["design.bdl"]).unwrap();
        assert_eq!(a.file, "design.bdl");
        assert_eq!(a.clock, 25.0);
        assert!(!a.run_optimize);
    }

    #[test]
    fn parses_alloc_lists() {
        let a = parse(&["f.bdl", "--alloc", "a1=2,mt1=1"]).unwrap();
        assert_eq!(a.alloc, vec![("a1".to_string(), 2), ("mt1".to_string(), 1)]);
    }

    #[test]
    fn parses_input_specs() {
        let a = parse(&[
            "f.bdl",
            "--input",
            "n=16",
            "--input",
            "a=0..9",
            "--input",
            "x=g:10.0,0.9",
        ])
        .unwrap();
        assert_eq!(a.inputs.len(), 3);
        assert!(matches!(a.inputs[0].1, InputSpec::Constant(16)));
        assert!(matches!(a.inputs[1].1, InputSpec::Uniform { lo: 0, hi: 9 }));
        assert!(matches!(a.inputs[2].1, InputSpec::GaussianAr { .. }));
    }

    #[test]
    fn parses_objective_and_flags() {
        let a = parse(&["f.bdl", "--objective", "p", "--optimize", "--emit", "stg"]).unwrap();
        assert_eq!(a.objective, Objective::Power);
        assert!(a.run_optimize);
        assert_eq!(a.emit, vec!["stg".to_string()]);
    }

    #[test]
    fn parses_pareto_modes() {
        // The dedicated flag implies the search and the objective.
        let a = parse(&["f.bdl", "--pareto"]).unwrap();
        assert!(a.run_optimize);
        assert_eq!(a.objective, Objective::Pareto);
        // The long spelling is equivalent.
        let a = parse(&["f.bdl", "--optimize", "--objective", "pareto"]).unwrap();
        assert!(a.run_optimize);
        assert_eq!(a.objective, Objective::Pareto);
    }

    #[test]
    fn unknown_objective_lists_the_valid_values() {
        let e = parse(&["f.bdl", "--objective", "speed"]).unwrap_err();
        assert!(e.contains("unknown objective `speed`"), "{e}");
        for valid in ["throughput", "power", "pareto"] {
            assert!(e.contains(valid), "error should mention `{valid}`: {e}");
        }
    }

    #[test]
    fn parses_jobs_and_serve() {
        let a = parse(&["f.bdl", "--optimize", "--jobs", "4"]).unwrap();
        assert_eq!(a.jobs, 4);
        // --serve needs no input file.
        let a = parse(&["--serve", "127.0.0.1:7348"]).unwrap();
        assert_eq!(a.serve.as_deref(), Some("127.0.0.1:7348"));
        assert!(parse(&["f.bdl", "--jobs", "0"]).is_err());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["f.bdl", "--alloc", "a1"]).is_err());
        assert!(parse(&["f.bdl", "--input", "broken"]).is_err());
        assert!(parse(&["f.bdl", "--objective", "speed"]).is_err());
        assert!(parse(&["f.bdl", "--unknown"]).is_err());
        assert!(parse(&["f.bdl", "--clock"]).is_err());
    }

    #[test]
    fn candidates_line_counts_each_kind_apart() {
        use fact_xform::TransformKind;
        let mut c = CandidateCounts::default();
        c.derived[TransformKind::LoopUnroll.index()] = 2;
        c.unproved[TransformKind::LoopDistribution.index()] = 3;
        c.proved[TransformKind::LoopDistribution.index()] = 1;
        c.parents_profiled = 2;
        let line = candidates_line(
            &c,
            &Reuse {
                neighbourhoods_memoized: 4,
                neighbourhoods_built: 9,
                verdicts_memoized: 5,
                plans_memoized: 30,
                plans_built: 7,
            },
        );
        assert!(
            line.contains("loop-unroll 0/2, loop-distribution 3/4"),
            "{line}"
        );
        assert!(line.contains("2 derived, 3 unproved"), "{line}");
        assert!(line.contains("parents profiled: 2"), "{line}");
        assert!(line.contains("verdicts memoized: 5"), "{line}");
        assert!(
            line.ends_with("neighbourhoods: 4 memoized, 9 built; plans: 30 memoized, 7 built"),
            "{line}"
        );
    }

    #[test]
    fn dividing_behaviors_fail_before_traces() {
        let dir = std::env::temp_dir().join(format!("factc-div-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("div.bdl");
        std::fs::write(&file, "proc f(a, b) { out y = a / (b + 1); }").unwrap();
        let args = parse(&[
            file.to_str().unwrap(),
            "--optimize",
            "--alloc",
            "a1=2,mt1=1,cp1=1,i1=1",
        ])
        .unwrap();
        let e = run(&args).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(e.contains("need a divider"), "{e}");
        assert!(e.contains("§5"), "{e}");
        assert!(!e.contains("scheduling failed"), "{e}");
    }

    #[test]
    fn help_is_the_empty_error() {
        assert_eq!(parse(&["-h"]).unwrap_err(), "");
    }
}

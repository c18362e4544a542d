//! The three workloads and the seeded request sequence each one sends.
//!
//! A workload is an endless, deterministic sequence of request lines:
//! request `i` of workload `w` under seed `s` is always the same line, so
//! both clients can pull indices from one shared counter and the set of
//! completed requests is always a prefix of the sequence. The first
//! [`Plan::quality_len`] requests form the *quality set*: every run
//! completes it, and the exact design-quality metrics are taken over it
//! alone, so they depend on the seed and never on how fast the run was.

use fact_core::suite::{self, suite};
use fact_estim::section5_library;
use fact_prng::rngs::StdRng;
use fact_prng::{mix64, Rng, SeedableRng};
use fact_serve::Value;
use fact_sim::InputSpec;
use std::collections::BTreeMap;

/// A named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small traces, every job distinct: schedule/Markov/search dominate.
    SearchCold,
    /// Large traces, every job distinct: simulation dominates.
    SimHeavy,
    /// Paper-sized traces, mostly ping/stats, every job cache-served.
    ServeWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SearchCold,
        Workload::SimHeavy,
        Workload::ServeWarm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search-cold",
            Workload::SimHeavy => "sim-heavy",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether setup fills the server's cache so that every measured job
    /// is answered from it.
    pub fn cache_served(self) -> bool {
        self == Workload::ServeWarm
    }
}

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `optimize` with the throughput objective.
    Throughput,
    /// `optimize` with the power objective.
    Power,
    /// A `pareto` frontier job.
    Pareto,
    /// Liveness probe.
    Ping,
    /// Server counters.
    Stats,
}

impl Kind {
    /// Whether this is an optimize or pareto job (not ping/stats).
    pub fn is_job(self) -> bool {
        matches!(self, Kind::Throughput | Kind::Power | Kind::Pareto)
    }
}

/// One suite program as the benchmark sends it.
#[derive(Clone, Debug)]
pub struct Program {
    /// Table 2 name.
    pub name: &'static str,
    /// Behavioral source text.
    pub source: &'static str,
    /// Allocation by library unit name (Table 3, as the suite sets it).
    pub alloc: Vec<(String, u32)>,
    /// Input distributions (`suite::input_specs`).
    pub specs: Vec<(String, InputSpec)>,
    /// Trace vectors the suite itself uses (the paper-sized trace).
    pub paper_n: usize,
}

fn source_of(name: &str) -> &'static str {
    match name {
        "GCD" => suite::GCD_SRC,
        "FIR" => suite::FIR_SRC,
        "Test2" => suite::TEST2_SRC,
        "SINTRAN" => suite::SINTRAN_SRC,
        "IGF" => suite::IGF_SRC,
        "PPS" => suite::PPS_SRC,
        other => panic!("suite program {other} has no known source"),
    }
}

/// The six §5 suite programs, with allocations and trace sizes taken
/// from `fact_core::suite` so the benchmark follows the suite.
pub fn programs() -> Vec<Program> {
    let (lib, _) = section5_library();
    suite(&lib)
        .into_iter()
        .map(|b| {
            let mut alloc: Vec<(String, u32)> = b
                .allocation
                .iter()
                .map(|(fu, n)| (lib.spec(fu).name.clone(), n))
                .collect();
            alloc.sort();
            Program {
                name: b.name,
                source: source_of(b.name),
                alloc,
                specs: suite::input_specs(b.name).expect("suite program has input specs"),
                paper_n: b.traces.vectors.len(),
            }
        })
        .collect()
}

/// One optimize or pareto job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into [`programs`].
    pub program: usize,
    /// Objective (never `Ping`/`Stats`).
    pub kind: Kind,
    /// Trace vectors.
    pub n: usize,
    /// Trace generator seed.
    pub trace_seed: u64,
    /// Identity of the job's content: requests with equal keys are the
    /// same job (serve-warm repeats jobs; the other workloads never do).
    pub key: u64,
}

/// One request of the sequence.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the sequence.
    pub index: usize,
    /// What it asks for.
    pub kind: Kind,
    /// The wire line (one line of compact JSON, no newline).
    pub line: String,
    /// The job, for optimize and pareto requests.
    pub job: Option<Job>,
}

/// Requests per serve-warm block.
const WARM_BLOCK: usize = 150;

/// What one slot of a serve-warm block carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WarmSlot {
    Pareto,
    Optimize,
    Stats,
    Ping,
}

/// Slot `pos` of a serve-warm block, laid out as the repository's serve
/// load benchmark lays out its traffic (`traffic_line` in
/// `crates/bench/src/serve_perf.rs`): every 25th request a pareto job,
/// else every 10th an optimize job, else every 3rd a stats request, the
/// rest pings. A block of 150 holds 6 pareto and 12 optimize slots — each
/// of serve-warm's 18 distinct jobs once — 44 stats requests and 88 pings.
fn warm_slot(pos: usize) -> WarmSlot {
    if pos % 25 == 24 {
        WarmSlot::Pareto
    } else if pos % 10 == 9 {
        WarmSlot::Optimize
    } else if pos.is_multiple_of(3) {
        WarmSlot::Stats
    } else {
        WarmSlot::Ping
    }
}

/// The per-job input of the cold workloads that no program reads.
pub const NONCE: &str = "nonce";

/// Objective cycle of the cold workloads.
const COLD_OBJECTIVES: [Kind; 4] = [
    Kind::Throughput,
    Kind::Power,
    Kind::Throughput,
    Kind::Pareto,
];

/// A workload instantiated at a seed and a size.
pub struct Plan {
    workload: Workload,
    seed: u64,
    /// The suite programs.
    pub programs: Vec<Program>,
    /// The programs this workload draws from, in order, as (index into
    /// `programs`, trace vectors per job).
    rotation: Vec<(usize, usize)>,
    /// serve-warm's distinct jobs with their wire lines, built once.
    warm: Vec<(Job, String)>,
}

impl Plan {
    /// The workload's plan at `seed`. With `cold_n`, every cold job uses
    /// that many trace vectors instead of the workload's own sizes (the
    /// self-test runs tiny plans).
    pub fn sized(workload: Workload, seed: u64, cold_n: Option<usize>) -> Plan {
        let programs = programs();
        let pick = |sized: &[(&str, usize)]| -> Vec<(usize, usize)> {
            sized
                .iter()
                .map(|&(name, n)| {
                    let p = programs
                        .iter()
                        .position(|p| p.name == name)
                        .expect("workload names a suite program");
                    (p, cold_n.unwrap_or(n))
                })
                .collect()
        };
        let rotation = match workload {
            Workload::SearchCold => pick(&[("GCD", 4), ("FIR", 4), ("IGF", 4), ("PPS", 4)]),
            // Sized so each program's job costs about the same (~0.2 s on
            // a 2-vCPU Xeon VM): a mix dominated by one long job type
            // makes the median latency and the throughput unsteady.
            Workload::SimHeavy => pick(&[
                ("Test2", 64),
                ("SINTRAN", 128),
                ("FIR", 1024),
                ("GCD", 6144),
            ]),
            Workload::ServeWarm => programs
                .iter()
                .enumerate()
                .map(|(p, prog)| (p, prog.paper_n))
                .collect(),
        };
        let mut plan = Plan {
            workload,
            seed,
            programs,
            rotation,
            warm: Vec::new(),
        };
        if workload == Workload::ServeWarm {
            let objectives = [Kind::Throughput, Kind::Power, Kind::Pareto];
            for kind in objectives {
                for &(p, n) in &plan.rotation {
                    let job = Job {
                        program: p,
                        kind,
                        n,
                        trace_seed: plan.trace_seed(p as u64),
                        key: plan.warm.len() as u64,
                    };
                    let line = plan.job_line(&format!("warm{}", job.key), &job);
                    plan.warm.push((job, line));
                }
            }
        }
        plan
    }

    /// Length of the quality set: the prefix every run completes and the
    /// exact metrics are taken over.
    pub fn quality_len(&self) -> usize {
        match self.workload {
            Workload::ServeWarm => WARM_BLOCK,
            _ => self.rotation.len() * COLD_OBJECTIVES.len(),
        }
    }

    /// The shortest run of consecutive requests with a fixed mix: each
    /// program once (cold workloads) or one whole block (serve-warm).
    /// Throughput slices are whole multiples of it.
    pub fn slice_granule(&self) -> usize {
        match self.workload {
            Workload::ServeWarm => WARM_BLOCK,
            _ => self.rotation.len(),
        }
    }

    fn trace_seed(&self, salt: u64) -> u64 {
        // Positive and within i64, as the wire format wants.
        mix64(self.seed ^ mix64(salt.wrapping_add(0x5EED))) >> 2
    }

    /// Request `index` of the sequence.
    pub fn request(&self, index: usize) -> Request {
        if self.workload == Workload::ServeWarm {
            return self.warm_request(index);
        }
        let r = self.rotation.len();
        let (program, n) = self.rotation[index % r];
        let kind = COLD_OBJECTIVES[(index / r) % COLD_OBJECTIVES.len()];
        let job = Job {
            program,
            kind,
            n,
            trace_seed: self.trace_seed(index as u64),
            key: index as u64,
        };
        Request {
            index,
            kind,
            line: self.job_line(&index.to_string(), &job),
            job: Some(job),
        }
    }

    /// Request `index` of serve-warm's sequence.
    fn warm_request(&self, index: usize) -> Request {
        let (block, pos) = (index / WARM_BLOCK, index % WARM_BLOCK);
        let slot = warm_slot(pos);
        let control = |kind, name: &str| Request {
            index,
            kind,
            line: Value::object([("type", Value::Str(name.into()))]).to_json(),
            job: None,
        };
        let pareto = match slot {
            WarmSlot::Pareto => true,
            WarmSlot::Optimize => false,
            WarmSlot::Stats => return control(Kind::Stats, "stats"),
            WarmSlot::Ping => return control(Kind::Ping, "ping"),
        };
        // Which job of its kind fills a slot is shuffled per block.
        let mut pool: Vec<usize> = (0..self.warm.len())
            .filter(|&j| (self.warm[j].0.kind == Kind::Pareto) == pareto)
            .collect();
        let salt = (block as u64) << 1 | u64::from(pareto);
        let mut rng = StdRng::seed_from_u64(mix64(self.seed) ^ salt);
        for i in (1..pool.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool.swap(i, j);
        }
        let nth = (0..pos).filter(|&p| warm_slot(p) == slot).count();
        let (job, line) = &self.warm[pool[nth]];
        Request {
            index,
            kind: job.kind,
            line: line.clone(),
            job: Some(job.clone()),
        }
    }

    /// The wire line of a job with the given request id.
    fn job_line(&self, id: &str, job: &Job) -> String {
        let p = &self.programs[job.program];
        let alloc: BTreeMap<String, Value> = p
            .alloc
            .iter()
            .map(|(name, n)| (name.clone(), Value::Int(i64::from(*n))))
            .collect();
        let mut inputs: BTreeMap<String, Value> = p
            .specs
            .iter()
            .map(|(name, spec)| (name.clone(), spec_json(spec)))
            .collect();
        if self.workload != Workload::ServeWarm {
            // FIR, Test2 and SINTRAN have only constant inputs, so their
            // traces are the same under every seed and the shared cache
            // would answer a later job from an earlier one. An input no
            // program reads, set per job, keeps every cold job distinct
            // (the cache keys on the whole trace) without changing what
            // any job computes.
            inputs.insert(
                NONCE.into(),
                Value::object([("const", Value::Int(job.trace_seed as i64))]),
            );
        }
        let traces = Value::object([
            ("n", Value::Int(job.n as i64)),
            ("seed", Value::Int(job.trace_seed as i64)),
            ("inputs", Value::Object(inputs)),
        ]);
        let mut members = vec![
            (
                "type",
                Value::Str(
                    if job.kind == Kind::Pareto {
                        "pareto"
                    } else {
                        "optimize"
                    }
                    .into(),
                ),
            ),
            ("id", Value::Str(id.into())),
            ("source", Value::Str(p.source.into())),
            ("alloc", Value::Object(alloc)),
            ("traces", traces),
            ("search", Value::object([("threads", Value::Int(1))])),
        ];
        match job.kind {
            Kind::Throughput => members.push(("objective", Value::Str("throughput".into()))),
            Kind::Power => members.push(("objective", Value::Str("power".into()))),
            _ => {}
        }
        Value::object(members).to_json()
    }
}

fn spec_json(spec: &InputSpec) -> Value {
    match spec {
        InputSpec::Constant(c) => Value::object([("const", Value::Int(*c))]),
        InputSpec::Uniform { lo, hi } => {
            Value::object([("lo", Value::Int(*lo)), ("hi", Value::Int(*hi))])
        }
        InputSpec::GaussianAr { sigma, rho } => {
            Value::object([("sigma", Value::Float(*sigma)), ("rho", Value::Float(*rho))])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = Plan::sized(w, 7, None);
            let b = Plan::sized(w, 7, None);
            let c = Plan::sized(w, 8, None);
            let lines = |p: &Plan| (0..40).map(|i| p.request(i).line).collect::<Vec<_>>();
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
        }
    }

    #[test]
    fn quality_set_covers_every_program_and_objective() {
        for w in Workload::ALL {
            let plan = Plan::sized(w, 1, None);
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..plan.quality_len() {
                if let Some(job) = plan.request(i).job {
                    seen.insert((job.program, job.kind as u8));
                }
            }
            assert_eq!(seen.len(), plan.rotation.len() * 3, "{}", w.name());
        }
    }

    #[test]
    fn warm_block_follows_the_serve_load_mix() {
        let plan = Plan::sized(Workload::ServeWarm, 5, None);
        let mut kinds = BTreeMap::new();
        for i in 0..WARM_BLOCK {
            *kinds.entry(format!("{:?}", warm_slot(i))).or_insert(0) += 1;
        }
        let want = [("Optimize", 12), ("Pareto", 6), ("Ping", 88), ("Stats", 44)];
        assert_eq!(kinds, want.map(|(k, n)| (k.to_string(), n)).into());
        assert_eq!(plan.warm.len(), 18);
    }

    #[test]
    fn cold_jobs_never_repeat_and_warm_jobs_do() {
        let cold = Plan::sized(Workload::SearchCold, 3, None);
        let keys: std::collections::BTreeSet<u64> = (0..64)
            .map(|i| {
                cold.request(i)
                    .job
                    .expect("cold requests are jobs")
                    .trace_seed
            })
            .collect();
        assert_eq!(keys.len(), 64);
        let warm = Plan::sized(Workload::ServeWarm, 3, None);
        let jobs = (0..warm.quality_len() * 2)
            .filter(|&i| warm.request(i).kind.is_job())
            .count();
        assert_eq!(jobs, warm.warm.len() * 2);
    }
}

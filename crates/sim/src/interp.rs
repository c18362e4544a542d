//! A token-accurate interpreter for the SSA CDFG.
//!
//! The interpreter is the reference semantics of the IR: the
//! functional-equivalence checker compares transformed CDFGs against the
//! original by running both here, and the profiler derives branch
//! probabilities from interpreted executions of typical input traces
//! (paper §2.2 and §4.1).

use fact_ir::{Function, MemId, OpId, OpKind, Terminator};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why an execution stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// The step budget was exhausted (runaway loop).
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// An input named by the function was missing from the environment.
    MissingInput(String),
    /// A memory access fell outside the declared array bounds.
    OutOfBounds {
        /// The memory accessed.
        mem: MemId,
        /// The offending address.
        addr: i64,
        /// The memory size.
        size: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded {limit} steps")
            }
            ExecError::MissingInput(name) => write!(f, "missing input `{name}`"),
            ExecError::OutOfBounds { mem, addr, size } => {
                write!(
                    f,
                    "address {addr} out of bounds for memory {mem} of size {size}"
                )
            }
        }
    }
}

impl Error for ExecError {}

/// Per-branch execution counts gathered during one or more runs.
#[derive(Clone, Default, Debug)]
pub struct BranchStats {
    /// For each branching block index: `(times taken, times not taken)`.
    pub counts: HashMap<usize, (u64, u64)>,
}

impl BranchStats {
    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: &BranchStats) {
        for (&b, &(t, f)) in &other.counts {
            let e = self.counts.entry(b).or_insert((0, 0));
            e.0 += t;
            e.1 += f;
        }
    }
}

/// The observable result of one execution.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Emitted outputs, in emission order.
    pub outputs: Vec<(String, i64)>,
    /// Final contents of every memory.
    pub memories: Vec<Vec<i64>>,
    /// Value returned by the terminating `ret`, if any.
    pub returned: Option<i64>,
    /// Branch statistics of this run.
    pub branches: BranchStats,
    /// Number of operations executed.
    pub ops_executed: u64,
    /// Times each block (by index) was executed.
    pub block_visits: Vec<u64>,
}

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Maximum number of operations before aborting (guards against
    /// nonterminating behaviors under adversarial inputs).
    pub step_limit: u64,
    /// Initial contents for each memory (by id); missing memories are
    /// zero-filled.
    pub initial_memories: HashMap<usize, Vec<i64>>,
}

/// The default [`ExecConfig::step_limit`], also the limit every
/// [`crate::simulate`] pass runs under.
pub(crate) const DEFAULT_STEP_LIMIT: u64 = 2_000_000;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_limit: DEFAULT_STEP_LIMIT,
            initial_memories: HashMap::new(),
        }
    }
}

/// Runs `f` on the given named inputs with default configuration.
///
/// # Errors
/// See [`ExecError`].
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// let f = fact_lang::compile("proc inc(x) { out y = x + 1; }").unwrap();
/// let r = fact_sim::execute(&f, &HashMap::from([("x".to_string(), 41)]))?;
/// assert_eq!(r.outputs, vec![("y".to_string(), 42)]);
/// # Ok::<(), fact_sim::ExecError>(())
/// ```
pub fn execute(f: &Function, inputs: &HashMap<String, i64>) -> Result<ExecResult, ExecError> {
    execute_with(f, inputs, &ExecConfig::default())
}

/// Runs `f` on the given named inputs with explicit configuration.
///
/// # Errors
/// See [`ExecError`].
pub fn execute_with(
    f: &Function,
    inputs: &HashMap<String, i64>,
    config: &ExecConfig,
) -> Result<ExecResult, ExecError> {
    let mut values: Vec<i64> = vec![0; f.num_ops()];
    let mut memories: Vec<Vec<i64>> = f
        .memories()
        .enumerate()
        .map(|(i, (_, m))| {
            config
                .initial_memories
                .get(&i)
                .cloned()
                .map(|mut v| {
                    v.resize(m.size as usize, 0);
                    v
                })
                .unwrap_or_else(|| vec![0; m.size as usize])
        })
        .collect();
    let mut outputs = Vec::new();
    let mut branches = BranchStats::default();
    let mut ops_executed: u64 = 0;
    let mut block_visits: Vec<u64> = vec![0; f.num_blocks()];

    let mut cur = f.entry();
    let mut prev: Option<fact_ir::BlockId> = None;

    loop {
        block_visits[cur.index()] += 1;
        // Phase 1: evaluate all phis using values from the predecessor,
        // atomically (parallel-copy semantics).
        let block = f.block(cur);
        let mut phi_updates: Vec<(OpId, i64)> = Vec::new();
        for &op in &block.ops {
            if let OpKind::Phi(incoming) = &f.op(op).kind {
                let pred = prev.expect("phi in entry block");
                let (_, v) = incoming
                    .iter()
                    .find(|(b, _)| *b == pred)
                    .expect("phi has entry for executed predecessor");
                phi_updates.push((op, values[v.index()]));
            }
        }
        for (op, v) in phi_updates {
            values[op.index()] = v;
            ops_executed += 1;
        }

        // Phase 2: non-phi operations in order.
        for &op in &block.ops {
            let value = match &f.op(op).kind {
                OpKind::Phi(_) => continue,
                OpKind::Const(c) => *c,
                OpKind::Input(name) => *inputs
                    .get(name)
                    .ok_or_else(|| ExecError::MissingInput(name.clone()))?,
                OpKind::Bin(b, x, y) => b.eval(values[x.index()], values[y.index()]),
                OpKind::Un(u, x) => u.eval(values[x.index()]),
                OpKind::Mux {
                    cond,
                    on_true,
                    on_false,
                } => {
                    if values[cond.index()] != 0 {
                        values[on_true.index()]
                    } else {
                        values[on_false.index()]
                    }
                }
                OpKind::Load { mem, addr } => {
                    let a = values[addr.index()];
                    let arr = &memories[mem.index()];
                    if a < 0 || a as usize >= arr.len() {
                        return Err(ExecError::OutOfBounds {
                            mem: *mem,
                            addr: a,
                            size: arr.len() as u32,
                        });
                    }
                    arr[a as usize]
                }
                OpKind::Store { mem, addr, value } => {
                    let a = values[addr.index()];
                    let v = values[value.index()];
                    let arr = &mut memories[mem.index()];
                    if a < 0 || a as usize >= arr.len() {
                        return Err(ExecError::OutOfBounds {
                            mem: *mem,
                            addr: a,
                            size: arr.len() as u32,
                        });
                    }
                    arr[a as usize] = v;
                    0
                }
                OpKind::Output(name, v) => {
                    outputs.push((name.clone(), values[v.index()]));
                    0
                }
            };
            values[op.index()] = value;
            ops_executed += 1;
            if ops_executed > config.step_limit {
                return Err(ExecError::StepLimitExceeded {
                    limit: config.step_limit,
                });
            }
        }

        match &block.term {
            Terminator::Jump(next) => {
                prev = Some(cur);
                cur = *next;
            }
            Terminator::Branch {
                cond,
                on_true,
                on_false,
            } => {
                let taken = values[cond.index()] != 0;
                let e = branches.counts.entry(cur.index()).or_insert((0, 0));
                if taken {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
                prev = Some(cur);
                cur = if taken { *on_true } else { *on_false };
            }
            Terminator::Return(v) => {
                return Ok(ExecResult {
                    outputs,
                    memories,
                    returned: v.map(|v| values[v.index()]),
                    branches,
                    ops_executed,
                    block_visits,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_lang::compile;

    fn run(src: &str, inputs: &[(&str, i64)]) -> ExecResult {
        let f = compile(src).unwrap();
        let env: HashMap<String, i64> = inputs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        execute(&f, &env).unwrap()
    }

    #[test]
    fn straightline_arithmetic() {
        let r = run(
            "proc f(a, b) { out y = (a + b) * 2; }",
            &[("a", 3), ("b", 4)],
        );
        assert_eq!(r.outputs, vec![("y".to_string(), 14)]);
    }

    #[test]
    fn if_else_selects_branch() {
        let src = "proc f(a) { var y = 0; if (a > 0) { y = 1; } else { y = 2; } out y = y; }";
        assert_eq!(run(src, &[("a", 5)]).outputs[0].1, 1);
        assert_eq!(run(src, &[("a", -5)]).outputs[0].1, 2);
        assert_eq!(run(src, &[("a", 0)]).outputs[0].1, 2);
    }

    #[test]
    fn while_loop_counts() {
        let src = "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } out s = s; }";
        assert_eq!(run(src, &[("n", 5)]).outputs[0].1, 10);
        assert_eq!(run(src, &[("n", 0)]).outputs[0].1, 0);
    }

    #[test]
    fn test1_from_figure_1a_computes() {
        let src = r#"
            proc test1(c1, c2) {
                var i = 0;
                var a = 0;
                array x[128];
                while (c2 > i) {
                    if (i < c1) { a = 13 * (a + 7); } else { a = a + 17; }
                    i = i + 1;
                    x[i] = a;
                }
                out a = a;
            }
        "#;
        // Hand-computed: c1=1, c2=3 → iter0: i=0<1 → a=13*7=91;
        // iter1: i=1 not<1 → a=108; iter2: a=125.
        let r = run(src, &[("c1", 1), ("c2", 3)]);
        assert_eq!(r.outputs[0].1, 125);
        assert_eq!(r.memories[0][1], 91);
        assert_eq!(r.memories[0][2], 108);
        assert_eq!(r.memories[0][3], 125);
    }

    #[test]
    fn gcd_by_subtraction() {
        let src = r#"
            proc gcd(a, b) {
                while (a != b) {
                    if (a > b) { a = a - b; } else { b = b - a; }
                }
                out g = a;
            }
        "#;
        assert_eq!(run(src, &[("a", 48), ("b", 36)]).outputs[0].1, 12);
        assert_eq!(run(src, &[("a", 17), ("b", 5)]).outputs[0].1, 1);
        assert_eq!(run(src, &[("a", 7), ("b", 7)]).outputs[0].1, 7);
    }

    #[test]
    fn branch_stats_are_recorded() {
        let src = "proc f(n) { var i = 0; while (i < n) { i = i + 1; } out i = i; }";
        let r = run(src, &[("n", 10)]);
        // The loop-header branch: taken 10 times, exits once.
        let (&_, &(t, fls)) = r.branches.counts.iter().next().unwrap();
        assert_eq!((t, fls), (10, 1));
    }

    #[test]
    fn step_limit_guards_nontermination() {
        let f = compile("proc f(n) { var i = 1; while (i > 0) { i = i + 1; } }").unwrap();
        let cfg = ExecConfig {
            step_limit: 1000,
            ..Default::default()
        };
        let err = execute_with(&f, &HashMap::from([("n".to_string(), 1)]), &cfg).unwrap_err();
        assert!(matches!(err, ExecError::StepLimitExceeded { .. }));
    }

    #[test]
    fn missing_input_is_reported() {
        let f = compile("proc f(x) { out y = x; }").unwrap();
        let err = execute(&f, &HashMap::new()).unwrap_err();
        assert_eq!(err, ExecError::MissingInput("x".into()));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let f = compile("proc f(i) { array x[4]; x[i] = 1; }").unwrap();
        let err = execute(&f, &HashMap::from([("i".to_string(), 9)])).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { addr: 9, .. }));
    }

    #[test]
    fn initial_memories_are_honored() {
        let f = compile("proc f(i) { array x[4]; out y = x[i]; }").unwrap();
        let cfg = ExecConfig {
            initial_memories: HashMap::from([(0, vec![10, 20, 30, 40])]),
            ..Default::default()
        };
        let r = execute_with(&f, &HashMap::from([("i".to_string(), 2)]), &cfg).unwrap();
        assert_eq!(r.outputs[0].1, 30);
    }

    #[test]
    fn parallel_phi_semantics_swap() {
        // Classic swap needs parallel-copy phi evaluation.
        let src = r#"
            proc f(n) {
                var a = 1;
                var b = 2;
                var i = 0;
                while (i < n) {
                    var t = a;
                    a = b;
                    b = t;
                    i = i + 1;
                }
                out a = a;
                out b = b;
            }
        "#;
        let r = run(src, &[("n", 3)]);
        assert_eq!(r.outputs[0].1, 2);
        assert_eq!(r.outputs[1].1, 1);
    }

    #[test]
    fn branch_stats_merge() {
        let mut a = BranchStats::default();
        a.counts.insert(1, (3, 1));
        let mut b = BranchStats::default();
        b.counts.insert(1, (1, 1));
        b.counts.insert(2, (5, 0));
        a.merge(&b);
        assert_eq!(a.counts[&1], (4, 2));
        assert_eq!(a.counts[&2], (5, 0));
    }
}
